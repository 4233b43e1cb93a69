"""topoflow benchmark: one workload per invocation, each measured in fresh
processes, outputs checked, metrics printed by name with their units.

    python3 perfbench/run.py --workload exec --seed 1 --seconds 35 --trace 0

Run from the root of a checkout (the directory holding ``src/topoflow``).
The inputs are generated from ``--seed`` under ``.perfbench-out/work``; set-up
time is the median over fresh processes that each import topoflow and finish
one warm-up op; a further fresh process times whole passes over the
inputs.  Every time is scaled to a reference host speed, measured by a fixed
calibration job run in the timed processes (see ``pb_worker.REFERENCE_CAL_S``).
With ``--trace 1`` that process alternates untraced and traced passes and the
result carries the per-layer metrics instead of the end-to-end ones.  The
last line of standard output is the result as one JSON object; a copy with
the environment and details goes to ``.perfbench-out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata

import pb_inputs
import pb_trace
import pb_worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "pb_worker.py")
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 9
# a run must end within 180 s: set-up takes well under a second, and the
# measuring process overruns --seconds by at most one pass and one rerun
SETUP_TIMEOUT_S = 5
MEASURE_SLACK_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def run_worker(args: list[str], timeout: float) -> dict:
    """Run one fresh worker process to completion and parse its last line."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args], capture_output=True, text=True, timeout=timeout, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for pkg in ("numpy", "networkx"):
        try:
            env[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            env[pkg] = None
    env["commit"] = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=False)
        env["commit"] = proc.stdout.strip() or None
    return env


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="topoflow benchmark")
    parser.add_argument("--workload", required=True, choices=pb_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "topoflow", "__init__.py")):
        return fail("run from the root of a topoflow checkout (src/topoflow not found)")

    work = os.path.join(OUT_DIR, "work")
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec = pb_inputs.make_spec(args.workload, args.seed, work)
    except ImportError as exc:
        return fail(f"input generation needs {exc.name}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spec["spans_path"] = os.path.join(OUT_DIR, "spans", f"{tag}.jsonl")
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    try:
        setups = [run_worker(["setup", spec_path], SETUP_TIMEOUT_S) for _ in range(SETUP_SAMPLES)]
        res = run_worker(
            ["measure", spec_path, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + MEASURE_SLACK_S,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(str(exc))

    setup_errors = [s["error"] for s in setups if not s["ok"]]
    attempted = res["attempted"] + len(setups)
    failed = res["failed"] + len(setup_errors)
    # one scale for all set-up processes: each one's own calibration covers
    # too short a stretch of the host's slow and fast spells
    setup_scale = pb_worker.host_scale(
        [w for s in setups for w in s["cal_wall"]], [c for s in setups for c in s["cal_cpu"]]
    )
    raw_setup_s = statistics.median(s["setup_s"] for s in setups)
    values = {"setup_s": raw_setup_s * setup_scale["wall"], **res["metrics"]}
    catalogue = pb_trace.PER_LAYER if args.trace else END_TO_END
    source = res["per_layer"] if args.trace else values
    if set(source) != set(catalogue):
        return fail(f"metric set mismatch: {sorted(set(source) ^ set(catalogue))}")
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in catalogue.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "end_to_end": values,
        "raw_setup_samples_s": [s["setup_s"] for s in setups],
        "raw": {**res["raw"], "setup_s": raw_setup_s},
        "scale": res["scale"],
        "setup_scale": setup_scale,
        "passes": res["passes"],
        "ops": res["ops"],
        "tail": res["tail"],
        "ledger": res["ledger"],
        "median_ms_by_label": res["median_ms_by_label"],
        "errors": setup_errors + res["errors"],
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)

    for err in details["errors"]:
        print(f"FAILED {err}")
    print(f"{args.workload} seed {args.seed}: {res['ops']} ops in {res['passes']} pass(es)")
    print(f"  calibration job {res['scale']['calibration_ms']:.4f} ms "
          f"(reference {pb_worker.REFERENCE_CAL_S * 1000:g} ms); times below are scaled to the reference")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if res["tail"]:
        t = res["tail"]
        print(f"  op_tail_ms (p{t['percentile']:g} of {t['samples']})".ljust(42) + f" {t['value_ms']:.6g} ms")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
