"""End-to-end acceptance criteria.

Each test checks one numbered criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest -s`` to see them inline).  Expected
values are recomputed here by independent oracles (brute-force antichain
enumeration, a straight-line transcription of the routing rules, closed-form
arithmetic) rather than read back from the implementation.
"""

import hashlib
import itertools
import json
import math
import os
import random
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from topoflow.archetypes import ArchetypeKind, DagArchetype, generate_archetype, random_dag
from topoflow.backends import MockBackend, ScriptedBackend
from topoflow.cli import main
from topoflow.convergence import (
    BoundDiverges,
    ConvergenceParams,
    SimConfig,
    _variance,
    confusion_matrix,
    format_confusion_matrix,
    simulate_variance,
    variance_ratio_bound,
)
from topoflow.dag import deserialize_dag
from topoflow.execution import ExecutionEngine, make_plan
from topoflow.metrics import WidthMode, compute_metrics, topological_layers, width_exact
from topoflow.routing import TOPOLOGY_ORDER, RouterConfig, TopologyKind, route
from topoflow.synthesis import (
    FixtureEmbedder,
    HashedEmbedder,
    SynthesisConfig,
    consistency_score,
    iteration_bound,
    synthesize,
)

from conftest import brute_max_antichain, make_dag, random_small_dag

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def verdict(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -- 1: closed-form variance-ratio values -------------------------------------

def test_criterion_1_ratio_values(capsys):
    # oracle arithmetic, written out rather than calling the library formula
    expect_a = (3.4 - 1) ** 2 * (1 - 0.35) ** 2 / (4 * 0.05**2 * 5)  # 48.672
    got_a = variance_ratio_bound(ConvergenceParams(epsilon=0.05, omega=3.4, gamma=0.35, k=5))
    got_b = variance_ratio_bound(ConvergenceParams(epsilon=0.05, omega=3.0, gamma=0.4, k=6))
    cli_ok = main(["ratio", "--omega", "3.4", "--gamma", "0.35", "--k", "5", "--eps", "0.05"]) == 0
    cli_out = capsys.readouterr().out.strip()
    ok = (
        abs(got_a - 48.672) <= 0.001
        and abs(got_a - expect_a) <= 1e-9
        and got_b == pytest.approx(24.0)
        and got_b >= 20.0
        and cli_ok
        and cli_out == "48.672"
    )
    with capsys.disabled():
        verdict(1, ok, f"bound(3.4,0.35,5,0.05)={got_a:.3f}, bound(3,0.4,6,0.05)={got_b:.1f}")


# -- 2: exact width vs brute force over 5000 random DAGs ----------------------

def test_criterion_2_width_against_brute_force():
    rng = random.Random(20_000)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(5000):
        dag = random_small_dag(rng, max_n=8)
        m = compute_metrics(dag, mode=WidthMode.EXACT)
        if m.width_exact != brute_max_antichain(dag) or m.width_approx > m.width_exact:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    verdict(2, ok, f"5000 DAGs, {mismatches} mismatches, {elapsed:.1f}s (< 120s)")


# -- 3: routing vs independent rule transcription, exhaustively ---------------

def _reference_route(dag, cfg):
    """Straight-line transcription of the routing rules over brute-force
    metrics, independent of the metrics module."""
    n = dag.vertex_count
    e = dag.edge_count
    omega = brute_max_antichain(dag)
    gamma = sum(dag.coupling[ed] for ed in dag.edges) / e if e else 0.0
    if e == 0:
        return TopologyKind.PARALLEL
    if omega == 1:
        return TopologyKind.SEQUENTIAL
    if gamma > cfg.theta_gamma and n > cfg.theta_delta:
        return TopologyKind.HIERARCHICAL
    if omega / n > cfg.theta_omega and gamma <= cfg.theta_gamma:
        return TopologyKind.PARALLEL
    return TopologyKind.HYBRID


def test_criterion_3_exhaustive_routing_agreement():
    cfg = RouterConfig(width_mode=WidthMode.EXACT)
    levels = (0.0, 0.3, 0.7, 1.0)
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    forced_violations = 0
    for n in range(1, 7):
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(2 ** len(all_edges)):
            edges = [all_edges[i] for i in range(len(all_edges)) if bits >> i & 1]
            # seeded coupling assignment per subset, drawn from the 4 levels
            crng = random.Random(n * 1_000_003 + bits)
            couplings = [crng.choice(levels) for _ in edges]
            dag = make_dag(n, edges, couplings=couplings)
            got = route(dag, cfg).topology
            want = _reference_route(dag, cfg)
            checked += 1
            if got is not want:
                mismatches += 1
            # forced branches hold unconditionally
            if not edges and got is not TopologyKind.PARALLEL:
                forced_violations += 1
            if edges and brute_max_antichain(dag) == 1 and got is not TopologyKind.SEQUENTIAL:
                forced_violations += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and forced_violations == 0 and elapsed < 60.0
    verdict(
        3,
        ok,
        f"{checked} DAGs (n<=6, all edge subsets), {mismatches} disagreements, "
        f"{forced_violations} forced-branch violations, {elapsed:.1f}s (< 60s)",
    )


# -- 4: re-routing iterations stay within the bound ---------------------------

def test_criterion_4_iteration_bound_under_failing_arbiter():
    emb = FixtureEmbedder({"a": [1.0, 0.0], "b": [0.0, 1.0], "bad": [-1.0, 0.0]})
    parallel = TopologyKind.PARALLEL
    worst = []
    for g10 in range(11):
        gamma0 = g10 / 10
        arbiter = ScriptedBackend({"arbiter": {"text": "bad"}})
        result = synthesize(
            ["a", "b"],
            parallel,
            SynthesisConfig(gamma0=gamma0),
            agent=arbiter,
            reroute=lambda gamma: (["a", "b"], parallel),
            embedder=emb,
        )
        limit = max(1, math.ceil(round((1 - gamma0) / 0.2, 9)))  # oracle bound
        worst.append((gamma0, result.iterations, limit))
        assert result.iterations == iteration_bound(gamma0)
    ok = all(it <= limit and it <= 5 for _, it, limit in worst)
    detail = ", ".join(f"g={g:.1f}:{it}/{lim}" for g, it, lim in worst)
    verdict(4, ok, detail)


# -- 5: Monte-Carlo variance bound and epsilon scaling -------------------------

def test_criterion_5_simulation_bound_and_slope():
    t0 = time.perf_counter()
    epsilons = (0.01, 0.02, 0.05)
    ok = True
    details = []
    for kind, size in ((ArchetypeKind.DIAMOND, 6), (ArchetypeKind.WIDE_SHALLOW, 6)):
        ratios = []
        for eps in epsilons:
            res = simulate_variance(
                SimConfig(archetype=DagArchetype(kind, size), epsilon=eps, trials=1000, seed=42)
            )
            if res.var_model > 1.1 * eps**2:
                ok = False
            if res.ratio < res.bound:
                ok = False
            ratios.append(res.ratio)
        slope = float(np.polyfit(np.log(epsilons), np.log(ratios), 1)[0])
        if abs(slope - (-2.0)) > 0.15:
            ok = False
        details.append(f"{kind.value}: slope={slope:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(5, ok, "; ".join(details) + f", {elapsed:.1f}s (< 60s)")


# -- 6: parallel speedup on a wide-shallow DAG ---------------------------------

def test_criterion_6_parallel_speedup():
    dag = generate_archetype(
        DagArchetype(ArchetypeKind.WIDE_SHALLOW, 9, seed=6), uniform_weights=True
    )
    pool = [MockBackend(latency=0.1)]
    engine = ExecutionEngine(concurrency_limit=8, clock="virtual")
    seq = engine.run(dag, make_plan(dag, TopologyKind.SEQUENTIAL, pool))
    par = engine.run(dag, make_plan(dag, TopologyKind.PARALLEL, pool))
    speedup = seq.wall_clock / par.wall_clock
    m = compute_metrics(dag)
    floor = 0.9 * sum(v.weight for v in dag.vertices) / m.depth  # 0.9 * (sum w / delta) = 4.05
    ok = speedup >= floor
    verdict(6, ok, f"speedup={speedup:.2f} >= {floor:.2f}")


# -- 7: approximate routing latency on a 1000-vertex DAG -----------------------

def test_criterion_7_routing_latency():
    dag = random_dag(1000, 0.004, seed=7)
    cfg = RouterConfig(width_mode=WidthMode.APPROXIMATE)
    times = []
    for _ in range(100):
        times.append(route(dag, cfg).elapsed)
    median_ms = statistics.median(times) * 1000
    ok = median_ms < 50.0
    verdict(7, ok, f"|V|=1000 |E|={dag.edge_count}, median {median_ms:.2f} ms (< 50 ms)")


def test_exact_width_chain_latency():
    # beside criterion 7: exact width stays near-linear where the bounds meet
    dag = generate_archetype(DagArchetype(ArchetypeKind.CHAIN, 3000, seed=7))
    t0 = time.perf_counter()
    m = compute_metrics(dag, mode=WidthMode.EXACT)
    elapsed = time.perf_counter() - t0
    ok = m.width_exact == 1 and elapsed < 1.0
    print(f"\nexact width, 3000-vertex chain: {m.width_exact} in {elapsed * 1000:.1f} ms (< 1000 ms)")
    assert ok, f"exact width of a 3000-vertex chain: {m.width_exact} in {elapsed:.2f}s"


def test_exact_variance_latency():
    # beside criterion 7: the simulator's variances are exact but cost ints,
    # not Fractions; statistics.variance takes about ten times as long
    rng = random.Random(7)
    pools = [[0.9 - 0.05 * rng.random() for _ in range(5)] for _ in range(10_000)]
    t0 = time.perf_counter()
    for pool in pools:
        _variance(pool)
    elapsed = time.perf_counter() - t0
    print(f"\nexact variance, 10,000 pools of 5: {elapsed * 1000:.1f} ms (< 300 ms)")
    assert elapsed < 0.3, f"10,000 exact variances took {elapsed:.2f}s"


def _seeded_canonical_doc():
    """A canonical document of 1,000 vertices and 5,000 edges, seeded, with
    vertices and edges in shuffled order."""
    rng = random.Random(7)
    ids = [f"s{k}" for k in rng.sample(range(10**6), 1000)]  # topological by construction
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 5000:
        pairs.add(tuple(sorted(rng.sample(range(1000), 2))))
    edges = sorted(pairs)
    rng.shuffle(edges)
    order = list(range(1000))
    rng.shuffle(order)
    return {
        "vertices": [{"id": ids[i], "weight": 1.0, "declared_coupling": "weak"} for i in order],
        "edges": [{"source": ids[i], "target": ids[j], "coupling": 0.3} for i, j in edges],
    }


def test_ingest_and_index_latency():
    # beside criterion 7: validation and the index run on integer positions,
    # and the cycle search runs only when Kahn's count leaves vertices out
    doc = _seeded_canonical_doc()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        deserialize_dag(doc).index
        times.append(time.perf_counter() - t0)
    median_ms = statistics.median(times) * 1000
    print(f"\ningest and index, |V|=1000 |E|=5000: median {median_ms:.1f} ms (< 45 ms)")
    assert median_ms < 45.0, f"ingest and index of 1000 vertices, 5000 edges: {median_ms:.1f} ms"


def test_exact_width_search_latency():
    # beside criterion 7: on the same DAG the layer bound (93) and the greedy
    # cover do not meet, so the closure is built and the augmenting search runs
    dag = deserialize_dag(_seeded_canonical_doc())
    assert max(map(len, dag.index.layers)) == 93
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        width = width_exact(dag)
        times.append(time.perf_counter() - t0)
    median_ms = statistics.median(times) * 1000
    print(f"\nexact width, |V|=1000 |E|=5000: {width}, median {median_ms:.1f} ms (< 85 ms)")
    assert width == 166
    assert median_ms < 85.0, f"exact width of 1000 vertices, 5000 edges: {median_ms:.1f} ms"


def test_hybrid_exec_and_consistency_latency():
    # beside criterion 7: every output of a 400-vertex hybrid run is ranked
    # for every later vertex, and consistency scores all 79,800 pairs; each
    # text is embedded once and the scores stay bit-identical to the dense
    # cosine, so the trace digest (taken from the dense implementation) holds
    t0 = time.perf_counter()
    base = random_dag(400, 0.01, seed=7)
    tails = ("[mock0]", "[mock1]", "[mock2]", "summary")
    dag = replace(base, vertices=tuple(
        replace(v, description=f"step {i % 10} result {tails[i % 4]}")
        for i, v in enumerate(base.vertices)
    ))
    stages = tuple(frozenset(layer) for layer in topological_layers(dag))
    pool = [MockBackend(f"mock{i}") for i in range(3)]
    plan = make_plan(dag, TopologyKind.HYBRID, pool)
    trace = ExecutionEngine(clock="virtual", task_text="gate").run(dag, plan)
    score = consistency_score([o.text for o in trace.ordered_outputs()], HashedEmbedder())
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256(json.dumps(trace.to_record(), sort_keys=True).encode()).hexdigest()
    print(f"\nhybrid exec + consistency, 400 vertices / {len(stages)} stages: {elapsed:.2f} s (< 2 s)")
    assert digest == "e6c6b1071d4cc3023e563c1b0b2288e30a027bc486d6af5272ef391fafc94b45"
    assert repr(score) == "0.44937707926109816"
    assert elapsed < 2.0, f"400-vertex hybrid exec and consistency took {elapsed:.2f}s"


# -- 8: cost accounting exact to the micro-dollar ------------------------------

def test_criterion_8_cost_exactness():
    from topoflow.accounting import CostLedger, Phase
    from topoflow.backends import AgentOutput

    def entry(backend, p, c):
        ledger = CostLedger()
        ledger.record(
            AgentOutput(text="", prompt_tokens=p, completion_tokens=c, latency=0, backend=backend),
            Phase.EXECUTE,
        )
        return ledger.cost_microdollars()

    mini = entry("openai:gpt-4o-mini", 1_000_000, 0)
    haiku = entry("anthropic:claude-3.5-haiku", 0, 1_000_000)
    ok = mini == 150_000 and haiku == 4_000_000
    verdict(8, ok, f"gpt-4o-mini 1M in = {mini} micro$ (want 150000), "
                   f"claude-3.5-haiku 1M out = {haiku} micro$ (want 4000000)")


# -- 9: byte-identical artifacts across reruns ---------------------------------

def test_criterion_9_reproducible_exec(tmp_path, capsys):
    def run(out_name):
        manifest = {
            "dag": os.path.join(FIXTURES, "diamond.json"),
            "backend": "scripted:" + os.path.join(FIXTURES, "scripted.json"),
            "concurrency": 8,
            "task": "evaluate two options and recommend",
            "output_dir": str(tmp_path / out_name),
        }
        path = tmp_path / f"{out_name}.manifest.json"
        path.write_text(json.dumps(manifest))
        assert main(["exec", str(path)]) == 0
        return tmp_path / out_name

    d1, d2 = run("r1"), run("r2")
    capsys.readouterr()
    names = ["trace.json", "ledger.json", "report.json", "run.log.jsonl"]
    diffs = [n for n in names if (d1 / n).read_bytes() != (d2 / n).read_bytes()]
    ok = not diffs
    with capsys.disabled():
        verdict(9, ok, f"compared {names}; differing: {diffs or 'none'}")


# -- 10: forced-class confusion matrix is diagonal -----------------------------

def test_criterion_10_confusion_matrix_diagonal():
    # one batch per forced routing class
    tasks = []
    for _ in range(5):
        tasks.append(make_dag(4, []))  # parallel: empty edge set
        tasks.append(make_dag(4, [(0, 1), (1, 2), (2, 3)]))  # sequential: width 1
        tasks.append(  # hierarchical: gamma=1.0 > 0.6, |V|=6 > 5
            make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=1.0)
        )
        tasks.append(  # hybrid: diamond, r=0.5 not > 0.5
            make_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)], default_coupling=0.3)
        )

    cfg = RouterConfig()

    def compatible_evaluator(dag):
        """Scores each topology by how well it matches the DAG's forced class."""
        m = compute_metrics(dag, mode=WidthMode.EXACT)
        if m.edge_count == 0:
            best = TopologyKind.PARALLEL
        elif m.width_exact == 1:
            best = TopologyKind.SEQUENTIAL
        elif m.coupling_density > cfg.theta_gamma and m.vertex_count > cfg.theta_delta:
            best = TopologyKind.HIERARCHICAL
        elif m.parallelism_ratio > cfg.theta_omega and m.coupling_density <= cfg.theta_gamma:
            best = TopologyKind.PARALLEL
        else:
            best = TopologyKind.HYBRID
        return {k: (1.0 if k is best else 0.0) for k in TOPOLOGY_ORDER}

    cm = confusion_matrix(tasks, cfg, compatible_evaluator)
    off_diagonal = sum(
        cm.counts[r][o] for r in TOPOLOGY_ORDER for o in TOPOLOGY_ORDER if r is not o
    )
    text = format_confusion_matrix(cm)
    lines = text.splitlines()
    shape_ok = len(lines) == 6 and lines[0].startswith("router \\ oracle") and all(
        lines[i + 1].startswith(k.value) for i, k in enumerate(TOPOLOGY_ORDER)
    )
    ok = cm.accuracy == 1.0 and off_diagonal == 0 and cm.total == 20 and shape_ok
    verdict(10, ok, f"accuracy={cm.accuracy:.0%}, off-diagonal={off_diagonal}, 4x4 table rendered")
