"""One fresh benchmark process: import topoflow, run a warm-up op, then either
stop (``setup``: report the set-up time) or time ops in whole passes over the
workload's inputs (``measure``), checking every output.

    python3 perfbench/pb_worker.py setup SPEC
    python3 perfbench/pb_worker.py measure SPEC --seconds N --trace 0|1

Run from the root of a checkout; topoflow is imported from ``src/``.  The
last line of standard output is one JSON object.
"""

import time

SETUP_START = time.perf_counter()  # before topoflow is imported

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import statistics
import sys

import pb_oracle
import pb_trace

ARTEFACTS = ("trace.json", "ledger.json", "report.json", "run.log.jsonl")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Timings are scaled to a host on which the calibration job's typical time is
# REFERENCE_CAL_S.  Other tenants of a shared VM slow the interpreter for
# seconds to minutes at a time, and the job, interleaved with the ops, slows
# with it; the raw times go to the results file beside the scaled ones.
REFERENCE_CAL_S = 0.0004
CAL_REPS = 2  # calibration runs before each measured op
SETUP_CAL_REPS = 50


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Runner:
    """Runs and checks ops against one imported topoflow."""

    def __init__(self, pricing: dict | None):
        from topoflow import archetypes, cli, convergence

        self.cli = cli
        self.convergence = convergence
        self.archetypes = archetypes
        self.pricing = pricing
        self.digests: dict[int, str] = {}
        self.output = io.StringIO()  # what the last CLI call printed

    # -- ops: only the call into topoflow is timed ---------------------------------

    def call(self, op: dict):
        kind = op["kind"]
        if kind == "simulate":
            a = self.archetypes
            cfg = self.convergence.SimConfig(
                archetype=a.DagArchetype(a.ArchetypeKind(op["archetype"]), op["size"], seed=op["archetype_seed"]),
                epsilon=op["epsilon"],
                trials=op["trials"],
                seed=op["seed"],
            )
            return self.convergence.simulate_variance(cfg)
        if kind == "route":
            argv = ["route", op["dag"], "--config", op["config"], "--log", op["log"]]
        else:
            argv = ["exec", op["manifest"]]
        self.output = io.StringIO()
        with contextlib.redirect_stdout(self.output), contextlib.redirect_stderr(self.output):
            return self.cli.main(argv)

    # -- checks ----------------------------------------------------------------

    def verify(self, op: dict, index: int, result) -> dict:
        """Raise CheckFailed on a wrong output; return the op's ledger figures."""
        kind = op["kind"]
        if kind == "simulate":
            self._verify_simulate(op, result)
            return {}
        check(result == 0, f"exit code {result}: {self.output.getvalue().strip()[-300:]}")
        if kind == "route":
            self._verify_route(op)
            return {}
        return self._verify_exec(op, index)

    def _verify_route(self, op: dict) -> None:
        with open(op["log"], encoding="utf-8") as fh:
            rec = json.loads(fh.readline())
        exp = op["expect"]
        m = rec["metrics"]
        for key in ("vertex_count", "edge_count", "width_exact", "width_approx", "width_mode"):
            check(m[key] == exp[key], f"{key} {m[key]} != {exp[key]}")
        check(math.isclose(m["depth"], exp["depth"], rel_tol=1e-9), f"depth {m['depth']} != {exp['depth']}")
        check(abs(m["coupling_density"] - exp["coupling_density"]) <= 1e-12, "coupling density")
        check(rec["topology"] == exp["topology"], f"topology {rec['topology']} != {exp['topology']}")
        check(rec["fired_rule"] == exp["fired_rule"], f"rule {rec['fired_rule']} != {exp['fired_rule']}")

    def _verify_exec(self, op: dict, index: int) -> dict:
        out = op["out_dir"]
        blobs = {}
        for name in ARTEFACTS:
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        trace = json.loads(blobs["trace.json"])
        check(sorted(trace["outputs"]) == op["vertices"], "trace.json lacks an output for some vertex")
        ledger = json.loads(blobs["ledger.json"])
        entries = ledger["entries"]
        tokens = sum(e["prompt_tokens"] + e["completion_tokens"] for e in entries)
        check(ledger["total_tokens"] == tokens, "ledger total_tokens != sum of entries")
        cost = pb_oracle.ledger_cost_micro(entries, self.pricing)
        check(ledger["cost_microdollars"] == cost, f"ledger cost {ledger['cost_microdollars']} != {cost}")
        report = json.loads(blobs["report.json"])
        check(report["cost_microdollars"] == cost and report["total_tokens"] == tokens, "report totals")
        first_route = json.loads(blobs["run.log.jsonl"].splitlines()[0])
        for key in ("topology", "fired_rule"):
            check(first_route[key] == op["expect"][key], f"initial {key} {first_route[key]} != {op['expect'][key]}")
        digest = hashlib.sha256(b"".join(blobs[n] for n in ARTEFACTS)).hexdigest()
        check(self.digests.setdefault(index, digest) == digest, "artefacts differ from an earlier run of the same input")
        return {"agent_calls": len(entries), "tokens": tokens, "cost_usd": cost / 1e6}

    def _verify_simulate(self, op: dict, res) -> None:
        check(res.trials == op["trials"] and len(res.rows) == op["trials"], "rows != trials")
        for row in res.rows:
            check(math.isfinite(row["ratio"]) and math.isfinite(row["bound"]), f"trial {row['trial']} not finite")
            want = pb_oracle.variance_bound(op["epsilon"], row["omega"], row["gamma"], op["size"])
            check(math.isclose(row["bound"], want, rel_tol=1e-5, abs_tol=1e-9), f"trial {row['trial']} bound")
        check(math.isfinite(res.ratio) and math.isfinite(res.bound), "summary not finite")


def _calibration_job(n: int = 200) -> int:
    """A fixed pure-Python job (seeded DAG, Kahn order, longest path, string
    building) of the same kind of interpreter work as topoflow's, and
    independent of it."""
    x = 12345
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for _ in range(3):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            j = i + 1 + x % 20
            if j < n:
                succ[i].append(j)
                indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    depth = [0] * n
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            depth[w] = max(depth[w], depth[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return len(" ".join(sorted(f"v{v}:{depth[v]}" for v in order)))


def calibrate(reps: int) -> tuple[list[float], list[float]]:
    """Wall and CPU seconds of each of ``reps`` runs of the calibration job."""
    walls, cpus = [], []
    for _ in range(reps):
        c0 = time.process_time()
        t0 = time.perf_counter()
        _calibration_job()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return walls, cpus


def typical(samples: list[float]) -> float:
    """Mean of the middle 80% of the samples.  A mean follows the share of
    time the host spent slow, as a long op's time does; trimming drops
    samples cut by a preemption."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def host_scale(walls: list[float], cpus: list[float]) -> dict[str, float]:
    """Factors that turn measured wall and CPU times into times at the
    reference speed: the calibration job's reference time over its typical
    time in this process."""
    return {
        "calibration_ms": typical(walls) * 1000.0,
        "wall": REFERENCE_CAL_S / typical(walls),
        "cpu": REFERENCE_CAL_S / typical(cpus),
    }


def run_op(runner: Runner, op: dict, index: int) -> dict:
    """Time one op, then check it; failures are recorded, not raised."""
    rec = {"index": index, "label": op["label"], "ok": True}
    gc.collect()  # start every op from the same collector state
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = runner.call(op)
    except Exception as exc:  # any exception from topoflow is a failed op
        rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        result = None
    rec["end"] = time.perf_counter()
    rec["wall_s"] = rec["end"] - t0
    rec["cpu_s"] = time.process_time() - c0
    if rec["ok"]:
        try:
            rec.update(runner.verify(op, index, result))
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return rec


def tail(walls_ms: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(walls_ms)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            cut = statistics.quantiles(walls_ms, n=1000, method="inclusive")[round(p * 10) - 1]
            return {"percentile": p, "value_ms": cut, "samples": n}
    return None


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``).  ``ru_maxrss`` would
    also count the parent's resident set at the moment it spawned this one."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def setup(spec: dict) -> dict:
    runner = Runner(_pricing(spec))
    rec = run_op(runner, spec["warmup"], -1)
    setup_s = rec["end"] - SETUP_START
    walls, cpus = calibrate(SETUP_CAL_REPS)
    return {"setup_s": setup_s, "cal_wall": walls, "cal_cpu": cpus, "ok": rec["ok"], "error": rec.get("error")}


def _pricing(spec: dict) -> dict | None:
    path = os.path.join(os.path.dirname(spec["spec_path"]), "inputs", "pricing.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(spec: dict, seconds: float, traced: bool) -> dict:
    runner = Runner(_pricing(spec))
    ops = spec["ops"]
    warm = run_op(runner, spec["warmup"], -1)
    records: list[dict] = [] if warm["ok"] else [warm]
    tracer = pb_trace.Tracer() if traced else None
    timed = {False: [], True: []}  # traced? -> op records
    cal_wall: list[float] = []
    cal_cpu: list[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        # a trace run alternates untraced and traced passes over the same inputs
        on = traced and passes % 2 == 1
        if on:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if on:
                    tracer.op_id = len(timed[True])
                walls, cpus = calibrate(CAL_REPS)
                cal_wall += walls
                cal_cpu += cpus
                timed[on].append(run_op(runner, op, i))
        finally:
            if on:
                tracer.restore()
        passes += 1
        if passes == 1:
            # later passes only add allocator fragmentation, which grows with
            # however many passes the host's speed allowed
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if (not traced or passes >= 2) and elapsed * (passes + 1) / passes > seconds:
            break
    records += timed[False] + timed[True]
    if passes == 1 and ops[0]["kind"] == "exec":
        records.append(run_op(runner, ops[0], 0))  # byte-identical rerun check

    main = timed[False]
    scale = host_scale(cal_wall, cal_cpu)
    fw, fc = scale["wall"], scale["cpu"]
    # each input's median over passes: its count of passes follows the host's
    # speed, and a minimum falls as the count grows
    wall = _per_input(main, "wall_s")
    cpu = _per_input(main, "cpu_s")
    raw = {
        "ops_per_s": len(wall) / sum(wall),
        "op_p50_ms": statistics.median(wall) * 1000.0,
        "cpu_ms_per_op": sum(cpu) / len(cpu) * 1000.0,
    }
    out = {
        "passes": passes,
        "ops": len(main),
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "errors": [f"{r['label']}: {r['error']}" for r in records if not r["ok"]][:20],
        "metrics": {
            "ops_per_s": raw["ops_per_s"] / fw,
            "op_p50_ms": raw["op_p50_ms"] * fw,
            "cpu_ms_per_op": raw["cpu_ms_per_op"] * fc,
            "peak_rss_mb": rss_mb,
        },
        "raw": raw,
        "scale": scale,
        "tail": tail([r["wall_s"] * 1000.0 * fw for r in main]),
        "median_ms_by_label": {k: v * fw for k, v in _by_label(main).items()},
        "ledger": _ledger_means(main),
    }
    if traced:
        traced_recs = timed[True]
        execs = sum(ops[r["index"]]["kind"] == "exec" for r in traced_recs)
        layers = pb_trace.per_layer_metrics(tracer, len(traced_recs), execs)
        for key in layers:
            if key.endswith(".self_ms"):
                layers[key] *= fw
        for key, value in _ledger_means(traced_recs).items():
            layers["ledger." + key] = value
        layers["trace.overhead_ratio"] = sum(_per_input(traced_recs, "wall_s")) / sum(wall)
        out["per_layer"] = layers
        out["spans"] = len(tracer.spans)
        _write_spans(spec, tracer)
    return out


def _per_input(recs: list[dict], key: str) -> list[float]:
    """Each input's median ``key`` over its runs, in input order."""
    samples: dict[int, list[float]] = {}
    for r in recs:
        samples.setdefault(r["index"], []).append(r[key])
    return [statistics.median(v) for _, v in sorted(samples.items())]


def _by_label(recs: list[dict]) -> dict:
    walls: dict[str, list[float]] = {}
    for r in recs:
        walls.setdefault(r["label"], []).append(r["wall_s"] * 1000.0)
    return {label: statistics.median(w) for label, w in sorted(walls.items())}


def _ledger_means(recs: list[dict]) -> dict:
    """Ledger figures per input, from each input's first run: they are
    deterministic, and a fixed summation order keeps the means exact across
    runs with different pass counts."""
    first: dict[int, dict] = {}
    for r in recs:
        first.setdefault(r["index"], r)
    n = len(first) or 1
    return {f"{k}_per_op": sum(r.get(k, 0) for r in first.values()) / n for k in ("agent_calls", "tokens", "cost_usd")}


def _write_spans(spec: dict, tracer: pb_trace.Tracer) -> None:
    path = spec["spans_path"]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("spec")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["spec_path"] = args.spec
    result = setup(spec) if args.mode == "setup" else measure(spec, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
