"""Command-line surface: route, exec, ratio, simulate, calibrate, report.

Exit codes: 0 success, 2 usage, 3 parse/validation, 4 backend/execution,
5 internal error.  All artifacts are written atomically; mock and scripted
runs are deterministic for fixed seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable

# only what ``route`` and ``main`` need: every other subcommand imports its own
# modules, so a process loads only the layers its subcommand runs
from . import routing, runlog
from .dag import DagError, load_dag, load_json
from .routing import (
    TOPOLOGY_ORDER,
    RouterConfig,
    RoutingDecision,
    TopologyKind,
    calibrate_gamma,
    calibration_task,
    route,
    split_dev_test,
)

if TYPE_CHECKING:
    from .backends import AgentBackend

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    pass


def _input_file(path: str, what: str) -> str:
    """``path``, if it names a regular file; else a usage error naming a ``what``."""
    if not os.path.isfile(path):
        raise UsageError(f"{what} not found or not a file: {path}")
    return path


def _input_files(directory: str, suffix: str) -> list[str]:
    """The regular files in ``directory`` whose names end in ``suffix``, sorted."""
    paths = [os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(suffix)]
    return sorted(p for p in paths if os.path.isfile(p))


def _load_config(path: str, parse: Callable, what: str):
    """``parse`` of the JSON file at ``path``, a ``what``; a missing file, or a
    document that ``parse`` rejects with ``ValueError``, is a usage error."""
    doc = load_json(_input_file(path, what))
    try:
        return parse(doc)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _print_decision(decision: RoutingDecision) -> None:
    m = decision.metrics
    stages = f", stages {len(decision.stages)}" if decision.stages else ""
    print(f"topology: {decision.topology.value}{stages}")
    print(f"fired rule: {decision.fired_rule.value}")
    print(
        f"metrics: omega_exact={m.width_exact} omega_approx={m.width_approx} "
        f"delta={m.depth:g} gamma={m.coupling_density:.3f} r={m.parallelism_ratio:.3f} "
        f"|V|={m.vertex_count} |E|={m.edge_count} ({m.width_mode.value})"
    )
    print(f"elapsed: {decision.elapsed * 1000:.2f} ms")


def cmd_route(args) -> int:
    dag = load_dag(args.dag)
    config = None if args.config is None else _load_config(args.config, RouterConfig.from_dict, "router config")
    decision = route(dag, config)
    _print_decision(decision)
    if args.log:
        rec = {"type": "route", **decision.to_record()}
        runlog.write_jsonl(args.log, [rec])
    return EXIT_OK


def _make_pool(spec: str, resolve: Callable[[str], str]) -> list[AgentBackend]:
    from .backends import HttpChatBackend, MockBackend, ScriptedBackend

    if spec == "mock":
        return [MockBackend(f"mock{i}") for i in range(3)]
    if spec.startswith("scripted:"):
        return [ScriptedBackend.from_file(_input_file(resolve(spec.split(":", 1)[1]), "scripted fixture"))]
    if ":" in spec:
        provider, model = spec.split(":", 1)
        return [HttpChatBackend(provider, model)]
    raise UsageError(f"unknown backend mode {spec!r}")


# a run manifest's fields, in the order they are checked: the test each value
# must pass, and what it must be
_REQUIRED_FIELDS = ("dag", "backend", "output_dir")
_MANIFEST_FIELDS = {
    **dict.fromkeys(_REQUIRED_FIELDS, (lambda v: type(v) is str, "a string")),
    **dict.fromkeys(
        ("router_config", "pricing", "task"), (lambda v: v is None or type(v) is str, "a string or null")
    ),
    "concurrency": (lambda v: type(v) is int and v >= 1, "an integer of at least 1"),
    "context_budget": (lambda v: type(v) is int and v > 0, "a positive integer"),
    "theta_cs": (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]"),
}


def cmd_exec(args) -> int:
    from .accounting import CostLedger, Phase, PricingError, PricingTable, RunReport
    from .backends import BackendError
    from .execution import run_task

    manifest = load_json(args.manifest)
    base_dir = os.path.dirname(os.path.abspath(args.manifest))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    def load(key: str, parse: Callable, what: str):
        """``parse`` of the file that ``manifest[key]`` names, or ``None`` if it names none."""
        return _load_config(resolve(manifest[key]), parse, what) if manifest.get(key) else None

    if not isinstance(manifest, dict):
        raise UsageError("manifest must be a JSON object")
    for key, (valid, expected) in _MANIFEST_FIELDS.items():
        if key not in manifest:
            if key in _REQUIRED_FIELDS:
                raise UsageError(f"manifest missing field {key!r}")
        elif not valid(manifest[key]):
            raise UsageError(f"manifest field {key!r} must be {expected}, got {manifest[key]!r}")
    unknown = sorted(set(manifest) - set(_MANIFEST_FIELDS))
    if unknown:
        raise UsageError(f"unknown manifest key(s): {', '.join(unknown)}")
    dag_path = _input_file(resolve(manifest["dag"]), "dag file")
    dag = load_dag(dag_path)
    if not dag.vertices:
        raise DagError(f"{dag_path}: a DAG to execute needs at least one subtask")
    config = load("router_config", RouterConfig.from_dict, "router config")
    try:
        pool = _make_pool(manifest["backend"], resolve)
    except BackendError as exc:  # an unknown provider: run_task reports every failed call in run.failure
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    offline = manifest["backend"] == "mock" or manifest["backend"].startswith("scripted:")
    ledger = CostLedger(load("pricing", PricingTable.from_dict, "pricing file") or PricingTable.default())
    for backend in pool:  # an unpriced backend would lose the ledger of every paid call
        try:
            ledger.pricing.rate_for(backend.identity)
        except PricingError as exc:
            raise UsageError(str(exc)) from None
    out_dir = resolve(manifest["output_dir"])
    os.makedirs(out_dir, exist_ok=True)

    run = run_task(
        dag,
        pool,
        router_config=config,
        task=manifest.get("task") or "",
        clock="virtual" if offline else "wall",
        **{key: manifest[key] for key in ("concurrency", "context_budget", "theta_cs") if key in manifest},
    )
    for trace in run.traces:
        for out in [*trace.ordered_outputs(), *trace.lead.values()]:
            ledger.record(out, Phase.EXECUTE)
    for call in run.synthesis_calls:
        ledger.record(call, Phase.SYNTHESIZE)
    runlog.write_json(os.path.join(out_dir, "trace.json"), run.traces[-1].to_record())
    runlog.write_json(os.path.join(out_dir, "ledger.json"), ledger.to_record())
    log_records = [{"type": "route", **decision.to_record()} for decision in run.routes]
    syn = run.result
    if syn is not None:
        report = RunReport(
            total_tokens=ledger.total_tokens,
            cost_microdollars=ledger.cost_microdollars(),
            wall_clock=sum(t.wall_clock for t in run.traces) + sum(c.latency for c in run.synthesis_calls),
            topology=syn.route_trail[-1][1],
            iterations=syn.iterations,
        )
        log_records.append({"type": "synthesis", **syn.to_record()})
        log_records.append({"type": "run", **report.to_record()})
        runlog.write_json(
            os.path.join(out_dir, "report.json"),
            {**report.to_record(), "final_text": syn.final_text, "consistency": syn.consistency},
        )
    runlog.write_jsonl(os.path.join(out_dir, "run.log.jsonl"), log_records)
    if syn is None:
        print(run.failure, file=sys.stderr)
        return EXIT_BACKEND
    print(f"topology: {report.topology.value}")
    print(f"iterations: {report.iterations}")
    print(f"total tokens: {report.total_tokens}")
    print(f"cost: ${report.cost_microdollars / 1e6:.6f}")
    print(f"artifacts: {out_dir}")
    return EXIT_OK


def cmd_ratio(args) -> int:
    from .convergence import BoundDiverges, ConvergenceParams, variance_ratio_bound

    try:
        params = ConvergenceParams(epsilon=args.eps, omega=args.omega, gamma=args.gamma, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        print(f"{variance_ratio_bound(params):.3f}")
    except BoundDiverges:
        print("diverges")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .archetypes import ArchetypeKind, DagArchetype, archetype_edges
    from .convergence import SimConfig, simulate_variance

    try:
        cfg = SimConfig(
            archetype=DagArchetype(ArchetypeKind(args.archetype), args.size, seed=args.seed),
            epsilon=args.eps,
            trials=args.trials,
            seed=args.seed,
        )
        archetype_edges(cfg.archetype.kind, cfg.archetype.size)  # raises on a size the archetype cannot build
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        result = simulate_variance(cfg)
    except OverflowError as exc:  # an --eps so large that the pool variance leaves the float range
        raise UsageError(f"--eps {args.eps}: {exc}") from exc
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


def cmd_calibrate(args) -> int:
    try:
        if args.synthetic is not None and args.synthetic < 1:
            raise ValueError(f"--synthetic {args.synthetic} must be a positive integer")
        if not 0.0 < args.fraction < 1.0:
            raise ValueError(f"--fraction {args.fraction} out of (0, 1)")
        grid = tuple(float(g) for g in args.grid.split(","))
        for g in grid:
            RouterConfig(theta_gamma=g)  # raises on a threshold out of [0, 1]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.synthetic:
        from .convergence import make_calibration_corpus

        tasks = make_calibration_corpus(args.synthetic, seed=args.seed)
    else:
        if not args.tasks or not os.path.isdir(args.tasks):
            raise UsageError("provide --tasks DIR or --synthetic N")
        files = _input_files(args.tasks, ".json")
        if not files:
            raise UsageError(f"no task files in {args.tasks}")
        tasks = [calibration_task(load_json(f)) for f in files]
    dev, test = split_dev_test(tasks, args.fraction, args.seed)
    chosen, table = calibrate_gamma(dev, grid=grid)
    os.makedirs(args.out, exist_ok=True)
    runlog.write_csv(
        os.path.join(args.out, "calibration_table.csv"),
        ["theta_gamma", "mean_quality"],
        [{"theta_gamma": g, "mean_quality": q} for g, q in sorted(table.items())],
    )
    frozen = RouterConfig(theta_gamma=chosen)
    runlog.write_json(os.path.join(args.out, "frozen_config.json"), frozen.to_dict())
    print(f"dev/test split: {len(dev)}/{len(test)}")
    print(f"chosen theta_gamma: {chosen}")
    return EXIT_OK


def _readable_run(record: dict) -> bool:
    """A run record whose topologies this version knows, whose counts and
    times, where present, are numbers, and whose group, where present, is a
    string other than the mean row's ``Average``; ``type`` is exact, so a
    bool is no number."""
    known = [k.value for k in TopologyKind]
    numbers = [record.get(key, 0) for key in ("total_tokens", "cost_microdollars", "wall_clock")]
    return (
        record.get("topology") in known
        and record.get("oracle_topology", known[0]) in known
        and type(record.get("iterations", 1)) is int
        and all(type(v) in (int, float) for v in numbers)
        and type(record.get("group", "all")) is str
        and record.get("group") != "Average"
    )


def cmd_report(args) -> int:
    from .accounting import format_distribution, topology_distribution
    from .convergence import format_confusion_matrix, tally_confusion

    if not os.path.isdir(args.logs):
        raise UsageError(f"log directory not found: {args.logs}")
    files = _input_files(args.logs, ".jsonl")
    if not files:
        raise UsageError(f"no .jsonl logs in {args.logs}")
    runs: list[dict] = []
    skipped = 0
    for f in files:
        recs, bad = runlog.read_jsonl(f)
        skipped += bad
        for r in recs:
            if r.get("type") != "run":
                continue
            if _readable_run(r):
                runs.append(r)
            else:
                skipped += 1
    if skipped:
        print(f"warning: skipped {skipped} corrupt log line(s)", file=sys.stderr)
    if not runs:
        raise UsageError("no run records found in logs")
    os.makedirs(args.out, exist_ok=True)

    table = topology_distribution(
        [TopologyKind(r["topology"]) for r in runs], [r.get("group", "all") for r in runs]
    )
    text = format_distribution(table)
    runlog.atomic_write(os.path.join(args.out, "topology_distribution.txt"), text + "\n")
    runlog.write_csv(
        os.path.join(args.out, "topology_distribution.csv"),
        ["domain", *(k.value for k in TOPOLOGY_ORDER)],
        [
            {"domain": grp, **{k.value: f"{row[k]:.1f}" for k in row}}
            for grp, row in table.items()
        ],
    )

    hist: dict[int, int] = {}
    for r in runs:
        it = r.get("iterations", 1)
        hist[it] = hist.get(it, 0) + 1
    runlog.write_csv(
        os.path.join(args.out, "iteration_histogram.csv"),
        ["iterations", "count"],
        [{"iterations": it, "count": n} for it, n in sorted(hist.items())],
    )
    outputs = ["topology_distribution.txt", "topology_distribution.csv", "iteration_histogram.csv"]

    oracled = [r for r in runs if "oracle_topology" in r]
    if oracled:
        cm = tally_confusion(
            [(TopologyKind(r["topology"]), TopologyKind(r["oracle_topology"])) for r in oracled]
        )
        runlog.atomic_write(
            os.path.join(args.out, "confusion_matrix.txt"), format_confusion_matrix(cm) + "\n"
        )
        runlog.write_csv(
            os.path.join(args.out, "confusion_matrix.csv"),
            ["router"] + [k.value for k in cm.counts],
            [{"router": rk.value, **{o.value: n for o, n in row.items()}} for rk, row in cm.counts.items()],
        )
        outputs += ["confusion_matrix.txt", "confusion_matrix.csv"]
    print(f"wrote {len(outputs)} report file(s) to {args.out}")
    return EXIT_OK


class _Reparse(Exception):
    """A one-subcommand parser's parse error, which the full parser reports."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Reparse


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``topoflow`` parser.  With ``only``, it has that subcommand's parser
    alone, and its parse errors raise ``_Reparse`` instead of printing a usage
    line that lists only that subcommand."""
    parser = (argparse.ArgumentParser if only is None else _OneCommandParser)(
        prog="topoflow",
        description="Task-adaptive multi-agent orchestration over dependency DAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    if only in (None, "route"):
        p = sub.add_parser("route", help="route a DAG file to its execution topology")
        p.add_argument("dag", help="DAG JSON (decomposer records or canonical form)")
        p.add_argument("--config", help="router config JSON")
        p.add_argument("--log", help="write the routing decision to this JSONL file, replacing it")
        p.set_defaults(func=cmd_route)

    if only in (None, "exec"):
        p = sub.add_parser("exec", help="route, execute, and synthesize per a run manifest")
        p.add_argument("manifest", help="run manifest JSON")
        p.set_defaults(func=cmd_exec)

    if only in (None, "ratio"):
        p = sub.add_parser("ratio", help="print the variance-ratio lower bound")
        p.add_argument("--omega", type=float, required=True)
        p.add_argument("--gamma", type=float, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--eps", type=float, required=True)
        p.set_defaults(func=cmd_ratio)

    if only in (None, "simulate"):
        from .archetypes import ArchetypeKind

        p = sub.add_parser("simulate", help="Monte-Carlo variance simulation on an archetype")
        p.add_argument("--archetype", choices=[k.value for k in ArchetypeKind], required=True)
        p.add_argument("--size", type=int, default=6)
        p.add_argument("--eps", type=float, default=0.05)
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default="sim_out")
        p.set_defaults(func=cmd_simulate)

    if only in (None, "calibrate"):
        p = sub.add_parser("calibrate", help="grid-search theta_gamma on a dev split")
        p.add_argument("--tasks", help="directory of task JSON files (dag + per-topology scores)")
        p.add_argument("--synthetic", type=int, help="generate N synthetic tasks instead")
        p.add_argument("--grid", default=",".join(map(str, routing.CALIBRATION_GRID)))
        p.add_argument("--fraction", type=float, default=0.15)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default="calibration_out")
        p.set_defaults(func=cmd_calibrate)

    if only in (None, "report"):
        p = sub.add_parser("report", help="aggregate run logs into tables")
        p.add_argument("--logs", required=True, help="directory of JSONL run logs")
        p.add_argument("--out", default="report_out")
        p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a call builds only the parser of the subcommand it names; an unknown name
    # builds none, so its error, like any parse error, comes from the full parser
    try:
        args = build_parser(argv[0] if argv and not argv[0].startswith("-") else None).parse_args(argv)
    except _Reparse:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DagError as exc:  # ParseError and ValidationError among them
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
