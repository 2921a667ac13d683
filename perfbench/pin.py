"""Pin the digests of every deterministic output at each workload's default seed.

    python3 perfbench/pin.py

Runs the whole CLI chain per workload, requires every output check to pass,
and writes ``pinned_digests.json``. A timed or traced run at the default
seed then counts any output whose digest differs as a failed op. Re-pin only
when an output is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import check_stages
from run import PINNED
from workloads import CHAIN, WORK, WORKLOADS, digest_tree, run_chain


def main() -> int:
    pins = {}
    for w in WORKLOADS.values():
        wdir = WORK / f"pin-{w.name}"
        expected = run_chain(w, w.default_seed, wdir)
        problems = {s: p for s, p in check_stages(w, wdir, expected, CHAIN).items() if p}
        if problems:
            print(f"{w.name}: outputs fail their checks, nothing pinned: {problems}", file=sys.stderr)
            return 1
        pins[w.name] = digest_tree(wdir)
        shutil.rmtree(wdir)
        print(f"{w.name}: {len(pins[w.name])} files pinned at seed {w.default_seed}")
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
