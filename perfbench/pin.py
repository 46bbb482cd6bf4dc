"""Rewrite perfbench/expected.json: the digest of each workload's canonical
exact outputs on the pinned seed.

    python3 perfbench/pin.py

Run it only when a change to the library is meant to change those outputs,
and say so in the change's description.
"""

import json

from run import HERE, _import_library, pinned_digest

if __name__ == "__main__":
    _import_library()
    from workloads import WORKLOADS
    digests = {name: pinned_digest(wl) for name, wl in WORKLOADS.items()}
    (HERE / "expected.json").write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
