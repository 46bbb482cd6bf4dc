"""Resource caps for the enumerative searches.

Every enumeration whose size is a simple closed form checks the size
*before* materializing anything.  The env var ANON_GUARD_CELLS, when set,
overrides every default cap with a single global value.
"""

import os

from .errors import GuardExceeded

# default caps, per enumeration family
SEARCH_CAP = 10_000_000   # quantized strategies, theta partitions, grids, multisets
LATTICE_CAP = 1_000_000   # partition-lattice cells held in memory at once


def _env_cap() -> int | None:
    raw = os.environ.get("ANON_GUARD_CELLS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"ANON_GUARD_CELLS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("ANON_GUARD_CELLS must be positive")
    return cap


def active_cap(default_cap: int) -> int:
    """The cap check_guard applies: ANON_GUARD_CELLS when set, else default_cap."""
    cap = _env_cap()
    return default_cap if cap is None else cap


def check_guard(size: int, what: str, default_cap: int = SEARCH_CAP) -> None:
    """Raise GuardExceeded when `size` is over the active cap."""
    cap = active_cap(default_cap)
    if size > cap:
        raise GuardExceeded(what, size, cap)
