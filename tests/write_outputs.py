"""Write the outputs of every shipped and every benchmark scenario into one directory.

    python tests/write_outputs.py OUTDIR [--horizon N]

Runs the scenario files in `scenarios/` and each perfbench workload's
scenarios at seeds 0 and 5 (read from `perfbench/bench.py`'s `WORKLOADS`
through `scenarios()`), and writes each one's `emit_outputs` files into
OUTDIR under a unique name: `shipped.<name>` and `<workload>.s<seed>.<name>`.
`--horizon` overrides every horizon, for a quick pass.  Two commits give
byte-identical outputs when `diff -r` of their directories is empty;
`tests/compare_outputs.py` reports any difference column by column.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from adaptrack import harness

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 5)


def _bench():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import bench
    finally:
        sys.path.pop(0)
    return bench


def jobs(horizon=None):
    """(output name, loaded Scenario) of every shipped and benchmark scenario."""
    over = {} if horizon is None else {"horizon": horizon}
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield f"shipped.{path.stem}", harness.load_scenario(path, over)
    bench = _bench()
    for workload in bench.WORKLOADS:
        for seed in SEEDS:
            for d in bench.scenarios(workload, seed):
                yield (f"{workload}.s{seed}.{d['name']}",
                       harness.scenario_from_dict({**d, **over}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--horizon", type=int, default=None, help="override every horizon")
    args = ap.parse_args(argv)
    for name, scn in jobs(args.horizon):
        trace, report = harness.run_experiment(scn)
        harness.emit_outputs(trace, report, args.outdir, name=name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
