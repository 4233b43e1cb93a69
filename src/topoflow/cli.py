"""Command-line surface: route, exec, ratio, simulate, calibrate, report.

Exit codes: 0 success, 2 usage, 3 parse/validation, 4 backend/execution,
5 internal error.  All artifacts are written atomically; mock and scripted
runs are deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import convergence, runlog
from .accounting import CostLedger, Phase, PricingTable, RunReport, format_distribution, topology_distribution
from .archetypes import ArchetypeKind, DagArchetype
from .backends import AgentBackend, BackendError, HttpChatBackend, MockBackend, ScriptedBackend
from .convergence import (
    BoundDiverges,
    ConvergenceParams,
    SimConfig,
    assumption_one_qualities,
    confusion_matrix,
    format_confusion_matrix,
    simulate_variance,
    variance_ratio_bound,
)
from .dag import DagError, ParseError, ValidationError, ingest, load_dag
from .execution import ExecutionEngine, ExecutionFailure, make_plan
from .routing import (
    RouterConfig,
    RoutingDecision,
    TopologyKind,
    calibrate_gamma,
    route,
    split_dev_test,
)
from .synthesis import SynthesisConfig, SynthesisError, synthesize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    pass


def _load_router_config(path: str | None) -> RouterConfig:
    if path is None:
        return RouterConfig()
    with open(path, encoding="utf-8") as fh:
        return RouterConfig.from_dict(json.load(fh))


def _print_decision(decision: RoutingDecision) -> None:
    m = decision.metrics
    top = decision.topology
    stages = f", stages {len(top.stages)}" if top.stages else ""
    print(f"topology: {top.kind.value}{stages}")
    print(f"fired rule: {decision.fired_rule.value}")
    print(
        f"metrics: omega_exact={m.width_exact} omega_approx={m.width_approx} "
        f"delta={m.depth:g} gamma={m.coupling_density:.3f} r={m.parallelism_ratio:.3f} "
        f"|V|={m.vertex_count} |E|={m.edge_count} ({m.width_mode.value})"
    )
    print(f"elapsed: {decision.elapsed * 1000:.2f} ms")


def cmd_route(args) -> int:
    dag = load_dag(args.dag)
    config = _load_router_config(args.config)
    decision = route(dag, config)
    _print_decision(decision)
    if args.log:
        rec = {"type": "route", **decision.to_record()}
        runlog.write_jsonl(args.log, [rec])
    return EXIT_OK


def _make_pool(spec: str, base_dir: str) -> list[AgentBackend]:
    if spec == "mock":
        return [MockBackend(f"mock{i}") for i in range(3)]
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        if not os.path.exists(path):
            raise UsageError(f"scripted fixture not found: {path}")
        return [ScriptedBackend.from_file(path)]
    if ":" in spec:
        provider, model = spec.split(":", 1)
        return [HttpChatBackend(provider, model)]
    raise UsageError(f"unknown backend mode {spec!r}")


def cmd_exec(args) -> int:
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    for key in ("dag", "backend", "output_dir"):
        if key not in manifest:
            raise UsageError(f"manifest missing field {key!r}")
    dag_path = resolve(manifest["dag"])
    if not os.path.exists(dag_path):
        raise UsageError(f"dag file not found: {dag_path}")
    dag = load_dag(dag_path)
    config = _load_router_config(
        resolve(manifest["router_config"]) if manifest.get("router_config") else None
    )
    pool = _make_pool(manifest["backend"], base_dir)
    offline = manifest["backend"] == "mock" or manifest["backend"].startswith("scripted:")
    engine = ExecutionEngine(
        concurrency_limit=int(manifest.get("concurrency", 8)),
        clock="virtual" if offline else "wall",
        task_text=manifest.get("task", ""),
        lead=pool[0],
    )
    ledger = CostLedger(
        pricing=PricingTable.from_file(resolve(manifest["pricing"]))
        if manifest.get("pricing")
        else PricingTable.default()
    )
    out_dir = resolve(manifest["output_dir"])
    os.makedirs(out_dir, exist_ok=True)

    decision = route(dag, config)
    traces = []

    def record_execution(trace) -> None:
        for out in [*trace.ordered_outputs(), *trace.lead.values()]:
            ledger.record(out, Phase.EXECUTE)

    def execute(topology) -> tuple[list[str], object]:
        plan = make_plan(dag, topology, pool, context_budget=int(manifest.get("context_budget", 4000)))
        trace = engine.run(dag, plan)
        traces.append(trace)
        record_execution(trace)
        texts = [o.text for o in trace.ordered_outputs()]
        if "reconcile" in trace.lead:
            texts.append(trace.lead["reconcile"].text)
        return texts, trace

    log_records: list[dict] = [{"type": "route", **decision.to_record()}]
    try:
        texts, trace = execute(decision.topology)

        def reroute(gamma: float):
            new_decision = route(dag, config, gamma_override=gamma)
            log_records.append({"type": "route", **new_decision.to_record()})
            new_texts, _ = execute(new_decision.topology)
            return new_texts, new_decision.topology

        syn = synthesize(
            texts,
            decision.topology,
            SynthesisConfig(
                theta_cs=float(manifest.get("theta_cs", 0.8)),
                gamma0=decision.gamma_used,
            ),
            merge_agent=pool[0],
            arbiter_agent=pool[0],
            reroute=reroute,
        )
    except ExecutionFailure as exc:
        record_execution(exc.trace)  # the calls that did complete were paid for
        runlog.write_json(os.path.join(out_dir, "trace.json"), exc.trace.to_record())
        runlog.write_json(os.path.join(out_dir, "ledger.json"), ledger.to_record())
        runlog.write_jsonl(os.path.join(out_dir, "run.log.jsonl"), log_records)
        print(f"execute: failed vertices {sorted(exc.failed)}", file=sys.stderr)
        return EXIT_BACKEND
    except SynthesisError as exc:
        runlog.write_json(os.path.join(out_dir, "ledger.json"), ledger.to_record())
        runlog.write_jsonl(os.path.join(out_dir, "run.log.jsonl"), log_records)
        print(f"synthesize: {exc}", file=sys.stderr)
        return EXIT_BACKEND

    for call in syn.agent_calls:
        ledger.record(call, Phase.SYNTHESIZE)
    final_trace = traces[-1]
    wall = sum(t.wall_clock for t in traces)
    report = RunReport(
        total_tokens=ledger.total_tokens,
        cost_microdollars=ledger.cost_microdollars(),
        wall_clock=wall,
        topology=syn.route_trail[-1][1],
        iterations=syn.iterations,
    )
    log_records.append({"type": "synthesis", **syn.to_record()})
    log_records.append({"type": "run", **report.to_record()})

    runlog.write_json(os.path.join(out_dir, "trace.json"), final_trace.to_record())
    runlog.write_json(os.path.join(out_dir, "ledger.json"), ledger.to_record())
    runlog.write_json(
        os.path.join(out_dir, "report.json"),
        {**report.to_record(), "final_text": syn.final_text, "consistency": syn.consistency},
    )
    runlog.write_jsonl(os.path.join(out_dir, "run.log.jsonl"), log_records)
    print(f"topology: {report.topology.value}")
    print(f"iterations: {report.iterations}")
    print(f"total tokens: {report.total_tokens}")
    print(f"cost: ${report.cost_microdollars / 1e6:.6f}")
    print(f"artifacts: {out_dir}")
    return EXIT_OK


def cmd_ratio(args) -> int:
    try:
        params = ConvergenceParams(
            epsilon=args.eps, omega=args.omega, gamma=args.gamma, k=args.k, c_tau=args.c_tau
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        print(f"{variance_ratio_bound(params):.3f}")
    except BoundDiverges:
        print("diverges")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = SimConfig(
        archetype=DagArchetype(ArchetypeKind(args.archetype), args.size, seed=args.seed),
        epsilon=args.eps,
        trials=args.trials,
        seed=args.seed,
    )
    result = simulate_variance(cfg)
    os.makedirs(args.out, exist_ok=True)
    runlog.write_csv(
        os.path.join(args.out, "trials.csv"),
        ["trial", "omega", "gamma", "var_model", "var_topology", "ratio", "bound"],
        result.rows,
    )
    runlog.write_json(os.path.join(args.out, "summary.json"), result.summary())
    verdict = "OK" if result.ratio >= result.bound else "VIOLATED"
    print(f"var_model={result.var_model:.3e} var_topology={result.var_topology:.3e}")
    print(f"ratio={result.ratio:.3f} bound={result.bound:.3f} -> {verdict}")
    return EXIT_OK


def _load_task_file(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    dag = ingest(doc["dag"])
    scores = {TopologyKind(k): float(v) for k, v in doc["scores"].items()}
    return dag, scores


def cmd_calibrate(args) -> int:
    if args.synthetic:
        tasks = convergence.make_calibration_corpus(args.synthetic, seed=args.seed)
    else:
        if not args.tasks or not os.path.isdir(args.tasks):
            raise UsageError("provide --tasks DIR or --synthetic N")
        files = sorted(
            os.path.join(args.tasks, f) for f in os.listdir(args.tasks) if f.endswith(".json")
        )
        if not files:
            raise UsageError(f"no task files in {args.tasks}")
        tasks = [_load_task_file(f) for f in files]
    ids = [str(i) for i in range(len(tasks))]
    dev_ids, test_ids = split_dev_test(ids, args.fraction, args.seed)
    dev = [tasks[int(i)] for i in dev_ids]
    grid = tuple(float(g) for g in args.grid.split(","))
    chosen, table = calibrate_gamma(dev, grid=grid)
    os.makedirs(args.out, exist_ok=True)
    runlog.write_csv(
        os.path.join(args.out, "calibration_table.csv"),
        ["theta_gamma", "mean_quality"],
        [{"theta_gamma": g, "mean_quality": q} for g, q in sorted(table.items())],
    )
    frozen = RouterConfig(theta_gamma=chosen)
    runlog.write_json(os.path.join(args.out, "frozen_config.json"), frozen.to_dict())
    print(f"dev/test split: {len(dev_ids)}/{len(test_ids)}")
    print(f"chosen theta_gamma: {chosen}")
    return EXIT_OK


def cmd_report(args) -> int:
    if not os.path.isdir(args.logs):
        raise UsageError(f"log directory not found: {args.logs}")
    files = sorted(
        os.path.join(args.logs, f) for f in os.listdir(args.logs) if f.endswith(".jsonl")
    )
    if not files:
        raise UsageError(f"no .jsonl logs in {args.logs}")
    runs: list[dict] = []
    skipped = 0
    for f in files:
        recs, bad = runlog.read_jsonl(f)
        skipped += bad
        runs.extend(r for r in recs if r.get("type") == "run")
    if skipped:
        print(f"warning: skipped {skipped} corrupt log line(s)", file=sys.stderr)
    if not runs:
        raise UsageError("no run records found in logs")
    os.makedirs(args.out, exist_ok=True)

    reports = [
        RunReport(
            total_tokens=r.get("total_tokens", 0),
            cost_microdollars=r.get("cost_microdollars", 0),
            wall_clock=r.get("wall_clock", 0.0),
            topology=TopologyKind(r["topology"]),
            iterations=int(r.get("iterations", 1)),
        )
        for r in runs
    ]
    grouping = [r.get("group", "all") for r in runs]
    table = topology_distribution(reports, grouping)
    text = format_distribution(table)
    runlog.atomic_write(os.path.join(args.out, "topology_distribution.txt"), text + "\n")
    runlog.write_csv(
        os.path.join(args.out, "topology_distribution.csv"),
        ["domain", "parallel", "sequential", "hierarchical", "hybrid"],
        [
            {"domain": grp, **{k.value: f"{row[k]:.1f}" for k in row}}
            for grp, row in table.items()
        ],
    )

    hist: dict[int, int] = {}
    for rep in reports:
        hist[rep.iterations] = hist.get(rep.iterations, 0) + 1
    runlog.write_csv(
        os.path.join(args.out, "iteration_histogram.csv"),
        ["iterations", "count"],
        [{"iterations": it, "count": n} for it, n in sorted(hist.items())],
    )
    outputs = ["topology_distribution.txt", "topology_distribution.csv", "iteration_histogram.csv"]

    oracled = [r for r in runs if "oracle_topology" in r]
    if oracled:
        from .routing import TOPOLOGY_ORDER

        counts = {r: {o: 0 for o in TOPOLOGY_ORDER} for r in TOPOLOGY_ORDER}
        agree = 0
        for r in oracled:
            rk, ok_ = TopologyKind(r["topology"]), TopologyKind(r["oracle_topology"])
            counts[rk][ok_] += 1
            agree += rk is ok_
        cm = convergence.ConfusionMatrix(counts=counts, accuracy=agree / len(oracled))
        runlog.atomic_write(
            os.path.join(args.out, "confusion_matrix.txt"), format_confusion_matrix(cm) + "\n"
        )
        runlog.write_csv(
            os.path.join(args.out, "confusion_matrix.csv"),
            ["router"] + [k.value for k in TOPOLOGY_ORDER],
            [
                {"router": rk.value, **{o.value: counts[rk][o] for o in TOPOLOGY_ORDER}}
                for rk in TOPOLOGY_ORDER
            ],
        )
        outputs += ["confusion_matrix.txt", "confusion_matrix.csv"]
    print(f"wrote {len(outputs)} report file(s) to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topoflow",
        description="Task-adaptive multi-agent orchestration over dependency DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("route", help="route a DAG file to its execution topology")
    p.add_argument("dag", help="DAG JSON (decomposer records or canonical form)")
    p.add_argument("--config", help="router config JSON")
    p.add_argument("--log", help="append the routing decision to this JSONL file")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("exec", help="route, execute, and synthesize per a run manifest")
    p.add_argument("manifest", help="run manifest JSON")
    p.set_defaults(func=cmd_exec)

    p = sub.add_parser("ratio", help="print the variance-ratio lower bound")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c-tau", type=float, default=0.5, dest="c_tau")
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("simulate", help="Monte-Carlo variance simulation on an archetype")
    p.add_argument("--archetype", choices=[k.value for k in ArchetypeKind], required=True)
    p.add_argument("--size", type=int, default=6)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="sim_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="grid-search theta_gamma on a dev split")
    p.add_argument("--tasks", help="directory of task JSON files (dag + per-topology scores)")
    p.add_argument("--synthetic", type=int, help="generate N synthetic tasks instead")
    p.add_argument("--grid", default="0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--fraction", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="calibration_out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("report", help="aggregate run logs into tables")
    p.add_argument("--logs", required=True, help="directory of JSONL run logs")
    p.add_argument("--out", default="report_out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, ValidationError, DagError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (BackendError, ExecutionFailure, SynthesisError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
