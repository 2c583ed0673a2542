"""Record the non-timing values the benchmark compares, per workload and seed.

    python3 perfbench/record.py --seeds 0-40,1009

Run from anywhere inside a checkout; the package is imported from its
``src/``.  For every workload and seed this sets the workload up, runs one
iteration, checks the invariants and stores the values in expected.json,
keeping the entries of other seeds.  Record again only when a change is
meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED, import_package, scratch_dir


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="comma-separated seeds or ranges, e.g. 0-40,1009")
    args = p.parse_args(argv)
    import_package()
    import workloads

    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    with scratch_dir() as tmp:
        for name in sorted(workloads.WORKLOADS):
            wl = workloads.WORKLOADS[name]
            for seed in args.seeds:
                state = wl.setup(seed, tmp)
                values, _, problems = wl.inspect(state, wl.iterate(state))
                if problems:
                    print(f"{name} seed {seed}: " + "; ".join(problems),
                          file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = values
                print(f"{name} seed {seed}: {len(values)} values", flush=True)
                EXPECTED.write_text(json.dumps(table, indent=1,
                                               sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
