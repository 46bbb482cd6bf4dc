"""Anonymous games over the partition lattice.

An anonymous game with n players and k strategies gives each (player,
strategy) pair a utility table over the partitions of the other n-1
players into the k strategies.  Everything here is exact: a game stores
each player's utilities as integer numerators over one common
denominator, mixed-strategy probabilities are `fractions.Fraction`, and
serialization round-trips both bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import GameFormatError
from .guards import LATTICE_CAP, check_guard

Partition = tuple  # a k-tuple of non-negative ints

# the decimal exponent of a string in Fraction's format, e.g. "1.5e-3"
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _check_exponent(text: str) -> None:
    """Reject a decimal exponent larger in magnitude than the interpreter's
    int string limit: Fraction would expand "1e10000000" into a
    ten-million-digit integer before any range check could run."""
    match = _DECIMAL_EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if match is None or limit == 0:
        return
    try:
        too_big = abs(int(match.group(1))) > limit
    except ValueError:          # more exponent digits than the limit itself
        too_big = True
    if too_big:
        raise ValueError(f"cannot interpret {text[:40]!r} as a rational: decimal "
                         f"exponent exceeds {limit} in magnitude")


def as_fraction(value) -> Fraction:
    """Coerce ints, floats, Fractions and 'num/den' strings to Fraction.

    Floats are promoted to their exact dyadic value (no decimal guessing),
    so the conversion is lossless and deterministic.  A string whose
    decimal exponent exceeds sys.get_int_max_str_digits() in magnitude is
    rejected with ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a probability/utility value")
    if isinstance(value, str):
        _check_exponent(value)
    if isinstance(value, (int, float, str)):
        try:
            return Fraction(value)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot interpret {value!r} as a rational: {exc}") from exc
    raise TypeError(f"cannot interpret {value!r} as a rational")


def require_int(what: str, **dims) -> None:
    """Raise GameFormatError unless every named dimension is an int (a bool
    is not a dimension)."""
    for name, value in dims.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise GameFormatError(f"{what} needs an integer {name}, got {value!r}")


def partition_count(m: int, k: int) -> int:
    """|Pi^k_m| = C(m+k-1, k-1)."""
    return math.comb(m + k - 1, k - 1)


def iter_partitions(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-tuples of non-negative integers summing to m (m >= 0, k >= 1),
    lazily, in ascending lexicographic order with the first coordinate most
    significant.  Each successor moves one unit from the rightmost non-zero
    part t to part t-1 and piles the rest of part t on the last part, so a
    step costs O(k) rather than a tuple concatenation per level."""
    parts = [0] * (k - 1) + [m]
    while True:
        yield tuple(parts)
        t = k - 1
        while t > 0 and parts[t] == 0:
            t -= 1
        if t == 0:
            return
        rest = parts[t] - 1
        parts[t] = 0
        parts[t - 1] += 1
        parts[k - 1] = rest


@lru_cache(maxsize=None)
def enumerate_partitions(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The tuple of iter_partitions(m, k).

    The index of a tuple in this sequence is its canonical rank; file
    formats and every DP table in the package index by that rank.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return tuple(iter_partitions(m, k))


def partition_rank(partition: Sequence[int], m: int | None = None,
                   k: int | None = None) -> int:
    """Canonical rank of a partition, the inverse of enumerate_partitions.

    Raises ValueError on a malformed partition (negative entry, or a sum /
    length disagreeing with a declared m / k).
    """
    counts = tuple(partition)
    if any((not isinstance(x, int)) or x < 0 for x in counts):
        raise ValueError(f"malformed partition {counts}: negative or non-integer entry")
    if k is not None and len(counts) != k:
        raise ValueError(f"malformed partition {counts}: expected {k} parts")
    if m is not None and sum(counts) != m:
        raise ValueError(f"malformed partition {counts}: sum {sum(counts)} != {m}")
    rank = 0
    remaining = sum(counts)
    parts_left = len(counts)
    for x in counts[:-1]:
        parts_left -= 1
        for v in range(x):
            rank += math.comb(remaining - v + parts_left - 1, parts_left - 1)
        remaining -= x
    return rank


@dataclass(frozen=True, init=False)
class AnonymousGame:
    """n players, k strategies, utilities[player][strategy][partition_rank].

    All utility values lie in [0, 1]; the table is dense and total (one
    entry per partition of the other n-1 players).  Each player p's table
    is stored once, as integers: tables[p] = (L_p, numerators), where L_p
    is the lcm of the denominators of all k of p's rows and
    utilities[p][s][r] = numerators[s][r] / L_p, so p's expected payoffs
    for every strategy share one scale and compare as integers.  The
    `utilities` view rebuilds all n*k*|Pi^k_{n-1}| reduced `Fraction`s on
    each access, so bind it once outside a loop; `utility()` reads one
    entry.  Coprime denominators make L_p, and so every stored numerator,
    grow with the table; its size in 64-bit words is checked against the
    guard before the numerators are scaled.  Instances are immutable,
    compare and hash by value, and are safe to share across workers.
    """

    n: int
    k: int
    tables: tuple

    def __init__(self, n: int, k: int, utilities):
        require_int("anonymous game", n=n, k=k)
        if n < 2 or k < 2:
            raise GameFormatError("anonymous game needs n >= 2 and k >= 2")
        if len(utilities) != n:
            raise GameFormatError("table size mismatch: expected one row per player")
        size = partition_count(n - 1, k)
        what = f"integer utility table for n={n}, k={k} (64-bit words)"
        tables, stored = [], 0
        for p, per_player in enumerate(utilities):
            if len(per_player) != k:
                raise GameFormatError(
                    f"table size mismatch: player {p} has {len(per_player)} strategies")
            rows = []
            for i, row in enumerate(per_player):
                if len(row) != size:
                    raise GameFormatError(
                        f"table size mismatch: player {p} strategy {i} has "
                        f"{len(row)} entries, expected {size}")
                pairs = [(v.numerator, v.denominator) for v in map(as_fraction, row)]
                if any(a < 0 or a > b for a, b in pairs):
                    raise GameFormatError("utility out of range [0, 1]")
                rows.append(pairs)
            # the lcm grows one denominator at a time, so coprime ones hit
            # the guard before the lcm or the scaled table gets large
            lcm = 1
            for b in {b for pairs in rows for _, b in pairs}:
                lcm = math.lcm(lcm, b)
                words = k * size * -(-lcm.bit_length() // 64)
                check_guard(stored + words, what, LATTICE_CAP)
            stored += words
            tables.append((lcm, tuple(tuple(a * (lcm // b) for a, b in pairs)
                                      for pairs in rows)))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "tables", tuple(tables))

    @property
    def utilities(self) -> tuple:
        """utilities[p][s][rank] as reduced `Fraction`s."""
        return tuple(tuple(tuple(Fraction(a, lcm) for a in row) for row in rows)
                     for lcm, rows in self.tables)

    def utility(self, player: int, strategy: int, partition: Sequence[int]) -> Fraction:
        rank = partition_rank(partition, m=self.n - 1, k=self.k)
        lcm, rows = self.tables[player]
        return Fraction(rows[strategy][rank], lcm)


@dataclass(frozen=True)
class MixedProfile:
    """One exact probability vector over [k] per player."""

    probs: tuple

    def __post_init__(self):
        rows = []
        for p, row in enumerate(self.probs):
            vals = tuple(as_fraction(v) for v in row)
            if any(v < 0 for v in vals):
                raise GameFormatError(f"probability out of range in row {p}")
            if sum(vals) != 1:
                raise GameFormatError(f"profile row {p} must sum to exactly 1")
            rows.append(vals)
        if not rows:
            raise GameFormatError("profile needs at least one player")
        if len({len(r) for r in rows}) != 1:
            raise GameFormatError("profile rows must share one strategy count")
        object.__setattr__(self, "probs", tuple(rows))

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def k(self) -> int:
        return len(self.probs[0])


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _load_json(data: bytes | str, what: str, keys: tuple[str, ...],
               build: Callable[[dict], object]):
    """The one reader of the package's JSON file formats: decode `data`,
    require an object with `keys`, and return build(obj).  Undecodable
    JSON or text, missing keys, and a TypeError or ValueError from the
    build become GameFormatError("malformed <what> file: ..."); a
    GameFormatError from the build passes through unchanged."""
    try:
        obj = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise GameFormatError(f"malformed {what} file: {exc}") from exc
    if not isinstance(obj, dict) or not set(keys) <= set(obj):
        raise GameFormatError(f"malformed {what} file: need keys {', '.join(keys)}")
    try:
        return build(obj)
    except GameFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f"malformed {what} file: {exc}") from exc


def _dump_json(obj: dict) -> bytes:
    """Canonical byte form of a file: compact, sorted keys, one line."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode()


def parse_game(data: bytes | str) -> AnonymousGame:
    """Parse the JSON game format; validates every AnonymousGame invariant."""
    return _load_json(data, "game", ("n", "k", "utilities"), lambda obj: AnonymousGame(
        n=obj["n"], k=obj["k"], utilities=obj["utilities"]))


def serialize_game(game: AnonymousGame) -> bytes:
    """Canonical byte form: exact 'num/den' strings, sorted keys, one line."""
    obj = {
        "k": game.k,
        "n": game.n,
        "utilities": [[[_frac_str(v) for v in row] for row in per_player]
                      for per_player in game.utilities],
    }
    return _dump_json(obj)


def _build_profile(obj: dict) -> MixedProfile:
    probs = obj["probs"]
    if len(probs) != obj["n"] or any(len(r) != obj["k"] for r in probs):
        raise GameFormatError("malformed profile file: probs shape disagrees with n, k")
    return MixedProfile(probs=probs)


def parse_profile(data: bytes | str) -> MixedProfile:
    return _load_json(data, "profile", ("n", "k", "probs"), _build_profile)


def serialize_profile(profile: MixedProfile) -> bytes:
    obj = {
        "k": profile.k,
        "n": profile.n,
        "probs": [[_frac_str(v) for v in row] for row in profile.probs],
    }
    return _dump_json(obj)


def random_game(n: int, k: int, seed: int) -> AnonymousGame:
    """Utilities i.i.d. uniform on [0,1] from numpy's seeded PCG64 stream
    (numpy is imported here, not with the package).

    Same seed, same game; float draws are promoted to exact rationals.
    """
    import numpy as np
    if n < 2 or k < 2:
        raise GameFormatError("anonymous game needs n >= 2 and k >= 2")
    size = partition_count(n - 1, k)
    check_guard(n * k * size, f"utility table for n={n}, k={k}", LATTICE_CAP)
    rng = np.random.default_rng(seed)
    return AnonymousGame(n=n, k=k, utilities=rng.random((n, k, size)).tolist())


def random_profile(n: int, k: int, seed: int, denominator: int = 1000) -> MixedProfile:
    """Random rational profile, each row uniform over the compositions of
    `denominator` into k parts (so entries are exact multiples of
    1/denominator and rows sum to exactly 1).  The draws come from numpy's
    seeded PCG64 stream, like `random_game`'s."""
    import numpy as np
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        if k == 1:
            rows.append((Fraction(1),))
            continue
        bars = np.sort(rng.choice(denominator + k - 1, size=k - 1, replace=False))
        padded = [-1] + [int(b) for b in bars] + [denominator + k - 1]
        counts = [padded[i + 1] - padded[i] - 1 for i in range(k)]
        rows.append(tuple(Fraction(c, denominator) for c in counts))
    return MixedProfile(probs=tuple(rows))


def profile_support(row: Iterable[Fraction]) -> tuple[int, ...]:
    """Indices of the strictly positive entries of one probability vector."""
    return tuple(i for i, v in enumerate(row) if v.numerator > 0)
