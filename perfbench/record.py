"""Record the expected outcome of every benchmark operation into expected.json.

Run from the root of a checkout at the commit whose verdicts are the
reference:

    PYTHONPATH=src python3 perfbench/record.py --seed 1

Seeded operations (the manipulation queries and the maxmin falsifier) must give
one outcome for every seed; recording refuses to write a family whose members
disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    expected = {}
    for name in workloads.WORKLOADS:
        run = workloads.Pass(tracing.NullTracer())
        workloads.RUNNERS[name](run, workloads.make_inputs(name, args.seed))
        table = {}
        for op_id, outcome in run.outcomes.items():
            family = workloads.family(op_id)
            if "error" in outcome:
                raise SystemExit(f"{op_id} raised: {outcome['error']}")
            if table.setdefault(family, outcome) != outcome:
                raise SystemExit(f"{family}: seeded outcomes differ ({op_id})")
        expected[name] = table
        print(f"{name}: {len(run.outcomes)} operations, {len(table)} outcomes", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
