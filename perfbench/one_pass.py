"""One pass over one workload in a fresh interpreter; prints one JSON line.

Run by run.py from the root of a checkout, with ``src`` on PYTHONPATH:

    python3 perfbench/one_pass.py --workload prove --seed 1 --trace 0

The pass is timed from the first operation to the last, after draftkit is
imported and the seeded inputs are built. Without tracing, the host's speed is
sampled during the pass (``hostspeed.py``): ``wall_s`` is the pass time scaled
to the reference speed and ``raw_wall_s`` the unscaled time, both without the
sampling. With ``--trace 1`` nothing is sampled, ``wall_s`` is the plain pass
time, the spans are written to ``perfbench/out/spans-<workload>.json`` and the
per-layer metrics are added. ``peak_rss_mb`` is this process's maximum
resident set (ru_maxrss).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import numpy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    run = workloads.Pass(tracer)

    if args.trace:
        t0 = perf_counter()
        workloads.RUNNERS[args.workload](run, inputs)
        raw_wall_s = wall_s = perf_counter() - t0
    else:
        speed = hostspeed.Sampler()
        speed.start()
        try:
            workloads.RUNNERS[args.workload](run, inputs)
        finally:
            speed.stop()
        raw_wall_s, wall_s = speed.raw(), speed.at_reference()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = {
        op_id: outcome
        for op_id, outcome in run.outcomes.items()
        if outcome != expected.get(workloads.family(op_id))
    }
    out = {
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(run.outcomes),
        "wrong": wrong,
        "numpy": numpy.__version__,
    }
    if args.trace:
        out["layers"] = tracing.layer_table(tracer.spans)
        out["metrics"] = tracing.layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{args.workload}.json").write_text(json.dumps(tracer.dump()))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
