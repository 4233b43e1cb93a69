"""Seeded input generation for the four benchmark workloads.

Everything topoflow sees is written here as files: DAG JSON, run manifests,
router configs, scripted fixtures and a pricing table.  The generators do
not use topoflow, so a change to topoflow's own generators cannot change
the inputs.  Sizes follow fixed grids, coupling values are fixed multisets
shuffled by the seed, and ops run in a fixed order, so every seed gives the
same mix of work (and the same allocation pattern, which keeps peak memory
comparable); the seed moves structure, weights and texts.
"""

from __future__ import annotations

import json
import os
import random

import pb_oracle

LEVELS = (0.0, 0.3, 0.7, 1.0)
LABELS = {0.0: "none", 0.3: "weak", 0.7: "strong", 1.0: "critical"}
WORDS = (
    "survey analyse compare draft review option risk cost schedule budget design test "
    "deploy measure report interface storage network latency model data schema policy "
    "migrate index cache summarise verify reconcile estimate rank plan audit document "
    "prototype benchmark integrate refactor validate monitor forecast outline"
).split()

# Non-zero rates for the offline backends, so cost is exercised end to end
# (the packaged pricing table prices mock and scripted at 0).
PRICING = {
    "as_of": "2026-10-01",
    "rates": {
        "mock": {"input_per_1m": "0.50", "output_per_1m": "1.50"},
        "scripted": {"input_per_1m": "0.25", "output_per_1m": "2.00"},
    },
}

ROUTE_APPROX_SIZES = (500, 583, 667, 750, 833, 917, 1000)
ROUTE_EXACT_SIZES = (300, 417, 533, 650, 767, 883, 1000)
EXEC_LARGE_SIZES = (100, 125)
SHAPES = ("chain", "wide_shallow", "deep_narrow", "diamond")  # topoflow's archetype names
SMALL_SIZES = range(4, 13)
COUPLING_PROFILES = ((0.0, 0.3), (0.3, 0.7), (0.7, 1.0))  # low, mid, high gamma0
SIM_SIZES = (6, 10)
SIM_TRIALS = 200

WORKLOADS = ("route-large", "exec", "simulate")


def _write(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _text(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _couplings(rng: random.Random, m: int, levels=LEVELS) -> list[float]:
    values = [levels[j % len(levels)] for j in range(m)]
    rng.shuffle(values)
    return values


def random_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Exactly m distinct forward edges over positions 0..n-1."""
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def shape_edges(shape: str, n: int) -> list[tuple[int, int]]:
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "wide_shallow":
        return [(0, i) for i in range(1, n)]
    if shape == "deep_narrow":
        spine = (n + 1) // 2
        return [(i, i + 1) for i in range(spine - 1)] + [(j, spine + j) for j in range(n - spine)]
    if shape == "diamond":
        return [e for mid in range(1, n - 1) for e in ((0, mid), (mid, n - 1))]
    raise ValueError(f"unknown shape {shape!r}")


class Dag:
    """A generated DAG plus the expected structural values."""

    def __init__(self, rng: random.Random, n: int, edges: list[tuple[int, int]],
                 couplings: list[float], *, prefix: str = "v", shuffle_ids: bool = False):
        names = list(range(n))
        if shuffle_ids:
            rng.shuffle(names)  # file order and ids no longer follow a topological order
        self.ids = [f"{prefix}{k}" for k in names]
        self.weights = {vid: round(rng.uniform(100.0, 2000.0), 3) for vid in self.ids}
        # a fixed word count: embedding cost scales with it, the seed picks the words
        self.descriptions = {vid: f"{vid}: {_text(rng, 6, 6)}" for vid in self.ids}
        self.edges = [(self.ids[u], self.ids[v]) for u, v in edges]
        self.coupling = dict(zip(self.edges, couplings))
        self.order = list(self.ids)
        if shuffle_ids:
            rng.shuffle(self.order)

    @property
    def gamma(self) -> float:
        return sum(self.coupling.values()) / len(self.edges) if self.edges else 0.0

    def canonical(self) -> dict:
        return {
            "vertices": [
                {"id": v, "description": self.descriptions[v], "weight": self.weights[v],
                 "declared_coupling": "none"}
                for v in self.order
            ],
            "edges": [{"source": u, "target": v, "coupling": self.coupling[(u, v)]} for u, v in self.edges],
        }

    def records(self) -> list[dict]:
        """Decomposer records; every in-edge of a vertex shares its label."""
        preds: dict[str, list[str]] = {v: [] for v in self.ids}
        for u, v in self.edges:
            preds[v].append(u)
        out = []
        for v in self.order:
            levels = {self.coupling[(u, v)] for u in preds[v]}
            if len(levels) > 1:
                raise ValueError("records need one coupling label per dependent")
            out.append({
                "id": v, "description": self.descriptions[v], "depends_on": preds[v],
                "coupling": LABELS[levels.pop()] if levels else "none",
                "estimated_tokens": self.weights[v],
            })
        return out

    def layer_width(self) -> int:
        return pb_oracle.layer_width(self.ids, self.edges)

    def expect_route(self, width: int) -> dict:
        topology, rule = pb_oracle.expected_route(len(self.ids), len(self.edges), width, self.gamma)
        return {"topology": topology, "fired_rule": rule}


# -- workloads ------------------------------------------------------------------


def _route_op(d: Dag, k: int, label: str, mode: str, work: str, *, records: bool,
              exact_width: int | None = None) -> dict:
    name = f"dag-{k}.json"
    _write(os.path.join(work, "inputs", name), d.records() if records else d.canonical())
    w_approx = d.layer_width()
    w_exact = w_approx if mode == "approximate" else exact_width
    return {
        "kind": "route",
        "label": label,
        "dag": os.path.join(work, "inputs", name),
        "config": os.path.join(work, "inputs", f"router-{mode}.json"),
        "log": os.path.join(work, "outputs", f"route-{k}.jsonl"),
        "expect": {
            "vertex_count": len(d.ids),
            "edge_count": len(d.edges),
            "width_exact": w_exact,
            "width_approx": w_approx,
            "width_mode": mode,
            "depth": pb_oracle.critical_depth(d.weights, d.edges),
            "coupling_density": d.gamma,
            **d.expect_route(w_exact),
        },
    }


def route_large(rng: random.Random, work: str) -> tuple[dict, list[dict]]:
    for mode in ("approximate", "exact"):
        _write(os.path.join(work, "inputs", f"router-{mode}.json"), pb_oracle.router_config(mode))
    ops = []
    for n in ROUTE_APPROX_SIZES:
        d = Dag(rng, n, random_edges(rng, n, 2 * n), _couplings(rng, 2 * n), prefix="t", shuffle_ids=True)
        ops.append(_route_op(d, len(ops), f"approx-random-{n}", "approximate", work, records=False))
    for n in ROUTE_EXACT_SIZES:
        d = Dag(rng, n, random_edges(rng, n, 5 * n), _couplings(rng, 5 * n), prefix="t", shuffle_ids=True)
        ops.append(_route_op(d, len(ops), f"exact-random-{n}", "exact", work, records=False,
                              exact_width=pb_oracle.dilworth_width(d.ids, d.edges)))
    for n in ROUTE_EXACT_SIZES:
        # ids in chain order, as a decomposer numbers its steps
        d = Dag(rng, n, shape_edges("chain", n), _couplings(rng, n - 1), prefix="c")
        # a chain's only antichains are single vertices
        ops.append(_route_op(d, len(ops), f"exact-chain-{n}", "exact", work, records=True, exact_width=1))
    w = Dag(rng, 200, random_edges(rng, 200, 400), _couplings(rng, 400), prefix="t", shuffle_ids=True)
    warmup = _route_op(w, len(ops), "warmup-approx-200", "approximate", work, records=False)
    return warmup, ops


def _exec_op(d: Dag, k: int, label: str, work: str, backend: str, fixture: dict | None = None,
             task: str = "") -> dict:
    inputs = os.path.join(work, "inputs")
    _write(os.path.join(inputs, f"dag-{k}.json"), d.canonical())
    if fixture is not None:
        _write(os.path.join(inputs, f"fixture-{k}.json"), fixture)
        backend = f"scripted:fixture-{k}.json"
    manifest = {
        "dag": f"dag-{k}.json",
        "backend": backend,
        "output_dir": os.path.join("..", "outputs", f"op-{k}"),
        "task": task,
        "concurrency": 8,
        "router_config": "router-approximate.json",
        "pricing": "pricing.json",
        "context_budget": 4000,
        "theta_cs": 0.8,
    }
    _write(os.path.join(inputs, f"manifest-{k}.json"), manifest)
    return {
        "kind": "exec",
        "label": label,
        "manifest": os.path.join(inputs, f"manifest-{k}.json"),
        "out_dir": os.path.join(work, "outputs", f"op-{k}"),
        "vertices": sorted(d.ids),
        "expect": d.expect_route(d.layer_width()),
    }


def _exec_common(work: str) -> None:
    _write(os.path.join(work, "inputs", "pricing.json"), PRICING)
    _write(os.path.join(work, "inputs", "router-approximate.json"), pb_oracle.router_config("approximate"))


def _large_dag(rng: random.Random, n: int) -> Dag:
    m = 4 * round(2.5 * n / 4)  # a multiple of 4, so the four levels give gamma0 = 0.5
    while True:
        d = Dag(rng, n, random_edges(rng, n, m), _couplings(rng, m), prefix="s", shuffle_ids=True)
        # hybrid at gamma0 = 0.5 needs a parallelism ratio of at most 0.5;
        # re-route then goes hierarchical, so every op executes three times
        if d.layer_width() <= n // 2:
            return d


def _agree_fixture(rng: random.Random) -> dict:
    entry = {"text": "agreed result: " + _text(rng, 6, 10), "prompt_tokens": rng.randint(20, 80),
             "completion_tokens": rng.randint(5, 30), "latency": 0.1}
    return {"default": entry}


def _retry_fixture(rng: random.Random, d: Dag, fail_times: int) -> dict:
    def entry() -> dict:
        return {"text": _text(rng, 6, 12), "prompt_tokens": rng.randint(20, 120),
                "completion_tokens": rng.randint(5, 40), "latency": round(rng.uniform(0.05, 0.3), 3)}

    fixture = {vid: entry() for vid in d.ids}
    for tag in ("merge", "arbiter", "lead:assign", "lead:reconcile", "default"):
        fixture[tag] = entry()
    fixture["v1"]["fail_times"] = fail_times  # transient failures, within the engine's 2 retries
    return fixture


def exec_mixed(rng: random.Random, work: str) -> tuple[dict, list[dict]]:
    """Two large mock execs, then 180 small ones.

    The large DAGs route hybrid at gamma0 = 0.5, escalate and re-route
    hierarchical twice, so quadratic context merging, embedding and three
    executions dominate them; they take most of a pass, so throughput and CPU
    per op follow them.  The small DAGs are most of the ops, so the median op
    is a small one, where fixed per-run costs dominate.
    """
    _exec_common(work)
    ops = [
        _exec_op(_large_dag(rng, n), k, f"large-{n}", work, "mock", task=_text(rng, 8, 16))
        for k, n in enumerate(EXEC_LARGE_SIZES)
    ]
    # every (shape, size, coupling profile) once on the mock backend and every
    # (shape, size) once on each scripted fixture, so the mix of topologies,
    # synthesis paths and re-executions is the same for every seed
    plan = [(shape, n, p, "mock") for shape in SHAPES for n in SMALL_SIZES for p in range(3)]
    plan += [(shape, n, (n + k) % 3, backend) for shape in SHAPES for n in SMALL_SIZES
             for k, backend in enumerate(("agree", "retry"))]
    for shape, n, profile, backend in plan:
        edges = shape_edges(shape, n)
        d = Dag(rng, n, edges, _couplings(rng, len(edges), COUPLING_PROFILES[profile]))
        fixture = None
        if backend == "agree":
            fixture = _agree_fixture(rng)
        elif backend == "retry":
            fixture = _retry_fixture(rng, d, 1 + n % 2)
        label = f"small-{backend}-{shape}-{n}"
        ops.append(_exec_op(d, len(ops), label, work, "mock", fixture, task=_text(rng, 4, 10)))
    warmup_dag = Dag(rng, 6, shape_edges("diamond", 6), _couplings(rng, 8, COUPLING_PROFILES[0]))
    warmup = _exec_op(warmup_dag, len(ops), "warmup-small-mock-diamond-6", work, "mock", task=_text(rng, 4, 10))
    return warmup, ops


def simulate(rng: random.Random, work: str) -> tuple[dict, list[dict]]:
    def op(kind: str, size: int, trials: int) -> dict:
        return {
            "kind": "simulate",
            "label": f"{kind}-{size}",
            "archetype": kind,
            "size": size,
            "archetype_seed": rng.randrange(2**31),
            "seed": rng.randrange(2**31),
            "epsilon": rng.choice((0.01, 0.02, 0.05)),
            "trials": trials,
        }

    ops = [op(kind, size, SIM_TRIALS) for kind in SHAPES for size in SIM_SIZES]
    return op("diamond", 6, 20), ops


GENERATORS = {
    "route-large": route_large,
    "exec": exec_mixed,
    "simulate": simulate,
}


def scripted_diamond(work: str) -> dict:
    """The four-vertex scripted diamond (a -> {b, c} -> d, weak then strong
    coupling) whose disagreeing outputs re-route twice: three hybrid
    executions of four calls plus three arbiter calls."""
    records = [
        {"id": "v0", "description": "survey the problem", "depends_on": [], "coupling": "none", "estimated_tokens": 400},
        {"id": "v1", "description": "explore option one", "depends_on": ["v0"], "coupling": "weak", "estimated_tokens": 600},
        {"id": "v2", "description": "explore option two", "depends_on": ["v0"], "coupling": "weak", "estimated_tokens": 500},
        {"id": "v3", "description": "combine findings", "depends_on": ["v1", "v2"], "coupling": "strong", "estimated_tokens": 700},
    ]
    texts = {
        "v0": "survey complete: two options identified",
        "v1": "option one analysis: viable approach with tradeoffs",
        "v2": "option two analysis: viable approach with tradeoffs",
        "v3": "combined findings: option one analysis viable approach recommended",
        "merge": "final synthesized answer",
        "arbiter": "option analysis viable approach with tradeoffs recommended findings",
        "lead:assign": "assignments made",
        "lead:reconcile": "reconciled output",
        "default": "generic output",
    }
    fixture = {tag: {"text": t, "prompt_tokens": 40 + 5 * i, "completion_tokens": 10 + 3 * i, "latency": 0.1}
               for i, (tag, t) in enumerate(texts.items())}
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    _exec_common(work)
    _write(os.path.join(inputs, "diamond.json"), records)
    _write(os.path.join(inputs, "diamond-fixture.json"), fixture)
    manifest = {
        "dag": "diamond.json",
        "backend": "scripted:diamond-fixture.json",
        "output_dir": os.path.join("..", "outputs", "diamond"),
        "task": "evaluate two options and recommend",
        "pricing": "pricing.json",
        "router_config": "router-approximate.json",
    }
    _write(os.path.join(inputs, "diamond-manifest.json"), manifest)
    return {
        "kind": "exec",
        "label": "scripted-diamond-4",
        "manifest": os.path.join(inputs, "diamond-manifest.json"),
        "out_dir": os.path.join(work, "outputs", "diamond"),
        "vertices": ["v0", "v1", "v2", "v3"],
        "expect": {"topology": "hybrid", "fired_rule": "hybrid_default"},
    }


def make_spec(workload: str, seed: int, work: str) -> dict:
    """Generate a workload's inputs under ``work`` and return its op list."""
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    os.makedirs(os.path.join(work, "outputs"), exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    warmup, ops = GENERATORS[workload](rng, work)
    return {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops}
