"""draftkit benchmark: three workloads, end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout (the directory holding BENCHMARK.json and src/):

    python3 perfbench/run.py --workload prove --seed 1 --seconds 20 --trace 0

One client, closed loop, serial: each pass runs in a fresh interpreter
(``one_pass.py``) and the next starts only when it has ended. Numeric thread
pools are pinned to one thread.

--trace 0  measures setup_s (median of fresh ``import draftkit.cli`` runs),
           then runs passes until --seconds is used (at least one), and reports
           wall_s and peak_rss_mb as medians over the passes. wall_s is
           stated at a reference host speed (see hostspeed.py); the unscaled
           pass times are printed above the result line.
--trace 1  runs one untraced pass and one traced pass, reports every per-layer
           metric from the traced pass and trace.overhead_s, the difference
           between the two unscaled wall times.

Every operation's outcome is compared with expected.json; wrong verdicts are
reported as ``failed``. The last line of standard output is the JSON result.
Details (provenance, per-pass figures, self-time table) are printed above it
and written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Import time swings by about a third from one second to the next on a shared
# host, so setup_s is the median of samples taken before and after the passes.
SETUP_SAMPLES = 8  # per batch; one batch before the passes, one after
PASS_BUDGET_S = 140  # no new pass starts if it would end past this point
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for pool in ("OMP", "OPENBLAS", "MKL", "NUMEXPR"):
        env[f"{pool}_NUM_THREADS"] = "1"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def measure_setup(env: dict, samples: int) -> list[float]:
    """Wall times of fresh interpreters importing draftkit.cli, which loads every module.

    These are not scaled to the reference speed: import time does not follow
    the reference loop's time (correlation 0.05 over 160 samples on the
    reference host), so scaling would only add the loop's own noise.
    """
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import draftkit.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return times


def run_pass(env: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "one_pass.py"),
            "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        ],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"pass of {workload} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "draftkit" / "__init__.py").is_file():
        print(f"no draftkit sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = child_env()
    values: dict[str, float] = {}
    passes = []
    extra: dict = {}
    if args.trace:
        passes = [run_pass(env, args.workload, args.seed, 0)]
        traced = run_pass(env, args.workload, args.seed, 1)
        passes.append(traced)
        values.update(traced["metrics"])
        values["trace.overhead_s"] = traced["raw_wall_s"] - passes[0]["raw_wall_s"]
        extra = {"layers_self_s": traced["layers"], "spans": traced["spans"]}
        print(f"self time per layer, workload {args.workload} (traced pass):")
        total = sum(traced["layers"].values())
        for layer, secs in sorted(traced["layers"].items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<12} {secs:10.4f} s  {secs / total:6.1%}")
        print(f"  trace.overhead_s {values['trace.overhead_s']:.4f} s ({traced['spans']} spans)")
    else:
        measure_setup(env, 1)  # unmeasured: the first import may write bytecode caches
        setup = measure_setup(env, SETUP_SAMPLES)
        start = perf_counter()
        while True:
            t0 = perf_counter()
            passes.append(run_pass(env, args.workload, args.seed, 0))
            took = perf_counter() - t0
            used = perf_counter() - start
            if used + took > min(args.seconds, PASS_BUDGET_S):
                break
        setup += measure_setup(env, SETUP_SAMPLES)
        values["setup_s"] = statistics.median(setup)
        walls = [p["wall_s"] for p in passes]
        values["wall_s"] = statistics.median(walls)
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        q1, q2, q3 = quartiles(walls)
        print(f"setup_s samples ({len(setup)}): " + " ".join(f"{t:.4f}" for t in setup))
        print(f"wall_s over {len(walls)} passes: median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
        raw_walls = [p["raw_wall_s"] for p in passes]
        print(f"  unscaled: median {statistics.median(raw_walls):.4f}, per pass "
              + " ".join(f"{w:.4f}" for w in raw_walls))
        extra = {"setup_samples_s": setup}

    prov = provenance(args.seed, passes[0]["numpy"])
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted = sum(p["attempted"] for p in passes)
    wrong = {op: out for p in passes for op, out in p["wrong"].items()}
    failed = sum(len(p["wrong"]) for p in passes)
    print(f"wrong_verdicts {failed} of {attempted} operations")
    for op_id, outcome in sorted(wrong.items())[:20]:
        print(f"  wrong: {op_id}: {json.dumps(outcome, sort_keys=True)[:300]}")

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "provenance": prov,
                "passes": passes,
                "metrics": metrics,
                **extra,
            },
            indent=1,
            sort_keys=True,
        )
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
