import hashlib
import itertools
import math
import random
import sys
from collections import deque
from fractions import Fraction

import pytest

from topoflow import convergence
from topoflow import dag as dag_module
from topoflow.archetypes import COUPLING_LEVELS, UNIFORM_WEIGHT, WEIGHT_RANGE, ArchetypeKind, DagArchetype
from topoflow.convergence import ARBITRATION_PENALTY, CONTEXT_LOSS_RATE, DEFAULT_C_TAU, S_STAR, BoundDiverges
from topoflow.dag import DagIndex, Subtask, TaskDag, ValidationReport, Violation
from topoflow.metrics import WidthMode, compute_metrics
from topoflow.routing import TopologyKind


def make_dag(n, edges, *, weights=None, couplings=None, default_coupling=0.3):
    """Small-DAG helper: vertices v0..v{n-1}, edges as index pairs."""
    weights = weights or [1.0] * n
    vertices = tuple(
        Subtask(id=f"v{i}", description=f"subtask {i}", weight=weights[i]) for i in range(n)
    )
    named = tuple((f"v{u}", f"v{v}") for u, v in edges)
    if couplings is None:
        coupling = {e: default_coupling for e in named}
    else:
        coupling = {named[i]: c for i, c in enumerate(couplings)}
    return TaskDag(vertices=vertices, edges=named, coupling=coupling)


def adjacency(dag):
    """Successor lists read from ``dag.edges`` alone, not from the DAG's index."""
    adj = {v.id: [] for v in dag.vertices}
    for u, v in dag.edges:
        adj[u].append(v)
    return adj


def reachability(dag):
    """reach[u] = vertices strictly reachable from u, by repeated squaring-free DFS."""
    adj = adjacency(dag)
    reach = {}
    for start in adj:
        seen = set()
        stack = list(adj[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adj[node])
        reach[start] = seen
    return reach


def brute_max_antichain(dag):
    """Maximum antichain size by enumerating all vertex subsets (|V| <= ~16)."""
    ids = list(dag.vertex_ids)
    reach = reachability(dag)
    best = 0
    for size in range(len(ids), best, -1):
        for subset in itertools.combinations(ids, size):
            ok = True
            for a, b in itertools.combinations(subset, 2):
                if b in reach[a] or a in reach[b]:
                    ok = False
                    break
            if ok:
                return size
    return 0 if not ids else 1


def brute_critical_depth(dag):
    """Maximum summed vertex weight over all directed paths, by enumeration."""
    weights = {v.id: v.weight for v in dag.vertices}
    adj = adjacency(dag)
    best = 0.0

    def walk(vid, total):
        nonlocal best
        total += weights[vid]
        best = max(best, total)
        for nxt in adj[vid]:
            walk(nxt, total)

    for vid in dag.vertex_ids:
        walk(vid, 0.0)
    return best


def brute_levels(dag):
    """Most vertices on any path ending at each vertex, by walking every path."""
    adj = adjacency(dag)
    best = {vid: 1 for vid in adj}

    def walk(vid, count):
        best[vid] = max(best[vid], count)
        for nxt in adj[vid]:
            walk(nxt, count + 1)

    for vid in adj:
        walk(vid, 1)
    return best


def random_small_dag(rng: random.Random, max_n=8):
    """Random acyclic digraph: forward edges over a shuffled vertex order."""
    n = rng.randint(1, max_n)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    p = rng.uniform(0.1, 0.6)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((order[i], order[j]))
    couplings = [rng.choice((0.0, 0.3, 0.7, 1.0)) for _ in edges]
    weights = [rng.uniform(1.0, 10.0) for _ in range(n)]
    return make_dag(n, edges, weights=weights, couplings=couplings)


# -- reference implementations of the dag layer's validation and index --------

def oracle_build_index(dag):
    """Reference for ``topoflow.dag._build_index``: the same index built on
    string keys, sorting a vertex's successors each time it is popped."""
    subtasks = {v.id: v for v in dag.vertices}
    adj: dict[str, list[str]] = {vid: [] for vid in subtasks}
    indeg = dict.fromkeys(subtasks, 0)
    for u, v in dag.edges:
        adj[u].append(v)
        indeg[v] += 1
    ready = deque(sorted(vid for vid, d in indeg.items() if d == 0))
    order: list[str] = []
    while ready:
        vid = ready.popleft()
        order.append(vid)
        for nxt in sorted(adj[vid]):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    position = {vid: i for i, vid in enumerate(order)}
    succ: list[list[int]] = [[] for _ in order]
    pred: list[list[int]] = [[] for _ in order]
    for u, v in dag.edges:
        i, j = position[u], position[v]
        succ[i].append(j)
        pred[j].append(i)
    level = [1] * len(order)
    for i, out in enumerate(succ):
        for j in out:
            if level[j] <= level[i]:
                level[j] = level[i] + 1
    layers: list[list[str]] = [[] for _ in range(max(level, default=0))]
    for vid, lv in zip(order, level):
        layers[lv - 1].append(vid)
    for layer in layers:
        layer.sort()
    return DagIndex(order, position, subtasks, succ, pred, layers)


def oracle_validate_dag(dag):
    """Reference for ``topoflow.dag.validate_dag``: the same checks in the same
    order, with the cycle DFS run on every DAG."""
    violations: list[Violation] = []

    seen: set[str] = set()
    for v in dag.vertices:
        if not v.id:
            violations.append(Violation("duplicate_id", "empty vertex id"))
        elif v.id in seen:
            violations.append(Violation("duplicate_id", f"duplicate vertex id {v.id!r}"))
        seen.add(v.id)
        if not 0 < v.weight < math.inf:
            violations.append(Violation("bad_weight", f"vertex {v.id!r} weight {v.weight} is not positive and finite"))

    ids = {v.id for v in dag.vertices}
    seen_edges: set[tuple[str, str]] = set()
    for edge in dag.edges:
        u, v = edge
        if u not in ids or v not in ids:
            violations.append(Violation("dangling_edge", f"edge {edge} references unknown vertex"))
            continue
        if u == v:
            violations.append(Violation("self_edge", f"self-edge on {u!r}"))
        if edge in seen_edges:
            violations.append(Violation("duplicate_edge", f"duplicate edge {edge}"))
        seen_edges.add(edge)
        if edge not in dag.coupling:
            violations.append(Violation("missing_coupling", f"edge {edge} has no coupling value"))
        else:
            c = dag.coupling[edge]
            if not (0.0 <= c <= 1.0):
                violations.append(Violation("coupling_range", f"edge {edge} coupling {c} out of [0, 1]"))

    cycle = oracle_find_cycle(ids, [e for e in dag.edges if e[0] in ids and e[1] in ids])
    if cycle is not None:
        violations.append(Violation("cycle", "cycle " + " -> ".join(cycle)))

    return ValidationReport(ok=not violations, violations=tuple(violations))


def oracle_find_cycle(ids, edges):
    """Return a witness cycle [a, ..., a] via iterative DFS, or None."""
    adj: dict[str, list[str]] = {i: [] for i in ids}
    for u, v in edges:
        if u == v:
            return [u, u]
        adj[u].append(v)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {i: WHITE for i in ids}
    parent: dict[str, str] = {}
    for root in sorted(ids):
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            node, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, idx + 1)
                nxt = adj[node][idx]
                if color[nxt] == GRAY:
                    # unwind the gray path to produce the witness
                    path = [nxt]
                    cur = node
                    while cur != nxt:
                        path.append(cur)
                        cur = parent[cur]
                    path.append(nxt)
                    path[1:-1] = path[1:-1][::-1]
                    return path
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return None


def oracle_width_exact(dag):
    """Reference for ``topoflow.metrics.width_exact``: Kuhn's search with one
    ``seen`` mask, complemented at every step, and no look-ahead for a free
    vertex."""
    index = dag.index
    n = len(index.order)
    if n == 0:
        return 0
    lower = max(map(len, index.layers))
    # greedy path cover: each vertex extends its path to the first successor
    # that no path has entered yet; match_l[u] = v pairs u with a later v
    match_l = [-1] * n
    match_r = [-1] * n
    matched = 0
    for u, out in enumerate(index.succ):
        for v in out:
            if match_r[v] < 0:
                match_l[u], match_r[v] = v, u
                matched += 1
                break
    if n - matched == lower:
        return lower

    # bit v of reach[u] is set when position v is reachable from u
    reach = [0] * n
    for u in range(n - 1, -1, -1):
        r = 0
        for v in index.succ[u]:
            r |= reach[v] | (1 << v)
        reach[u] = r

    # Kuhn's algorithm, one search per unmatched vertex, with an explicit
    # stack of alternating paths.  A vertex with no augmenting path never
    # gains one as others augment, so one pass is enough; and a right vertex
    # seen by a failed search cannot lie on an augmenting path until the
    # matching changes, so `seen` is cleared only after an augmentation.
    seen = 0
    for root in range(n):
        if n - matched == lower:
            break
        if match_l[root] >= 0:
            continue
        lefts, rights = [root], []
        while lefts:
            cand = reach[lefts[-1]] & ~seen
            if not cand:
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            bit = cand & -cand
            seen |= bit
            v = bit.bit_length() - 1
            rights.append(v)
            if match_r[v] < 0:
                for u, w in zip(lefts, rights):
                    match_l[u], match_r[w] = w, u
                matched += 1
                seen = 0
                break
            lefts.append(match_r[v])
    return n - matched


# -- reference implementations of the archetype generator and the simulator ---

def oracle_generate_archetype(spec, *, uniform_weights=False):
    """Reference for ``topoflow.archetypes.generate_archetype``: the size
    checks, the edge lists and the weight and coupling draws written out."""
    kind, size = spec.kind, spec.size
    if size < 1:
        raise ValueError(f"archetype size must be >= 1, got {size}")
    rng = random.Random(spec.seed)
    if kind is ArchetypeKind.CHAIN:
        edges_ix = [(i, i + 1) for i in range(size - 1)]
    elif kind is ArchetypeKind.WIDE_SHALLOW:
        edges_ix = [(0, i) for i in range(1, size)]
    elif kind is ArchetypeKind.DEEP_NARROW:
        spine = (size + 1) // 2
        edges_ix = [(i, i + 1) for i in range(spine - 1)]
        edges_ix += [(j, spine + j) for j in range(size - spine)]
    elif kind is ArchetypeKind.DIAMOND:
        if size < 3:
            raise ValueError(f"diamond archetype needs size >= 3, got {size}")
        edges_ix = [e for mid in range(1, size - 1) for e in ((0, mid), (mid, size - 1))]
    else:
        raise ValueError(f"unknown archetype kind {kind}")
    vertices = []
    for i in range(size):
        weight = UNIFORM_WEIGHT if uniform_weights else rng.uniform(*WEIGHT_RANGE)
        vertices.append(Subtask(id=f"v{i}", description=f"{kind.value} subtask {i}", weight=weight))
    edges = tuple((f"v{u}", f"v{v}") for u, v in edges_ix)
    coupling = {e: rng.choice(COUPLING_LEVELS) for e in edges}
    return TaskDag(vertices=tuple(vertices), edges=edges, coupling=coupling)


def oracle_variance_ratio_bound(p):
    """Reference for ``topoflow.convergence.variance_ratio_bound``: its body,
    the closed form and its exact fallback, written out."""
    if p.epsilon == 0:
        raise BoundDiverges("variance ratio diverges as epsilon -> 0")
    try:
        return (p.omega - 1) ** 2 * (1 - p.gamma) ** 2 / (4 * p.epsilon**2 * p.k)
    except (OverflowError, ZeroDivisionError):
        # a square left the float range: round the exact value once, and a
        # bound beyond the largest float is infinite
        exact = Fraction(p.omega - 1) ** 2 * Fraction(1 - p.gamma) ** 2 / (4 * Fraction(p.epsilon) ** 2 * p.k)
        try:
            return float(exact)
        except OverflowError:
            return math.inf


def oracle_assumption_one_qualities(dag, *, base=S_STAR, metrics=None):
    """Reference for ``topoflow.convergence.assumption_one_qualities``: the
    quality model's expressions written out."""
    m = compute_metrics(dag, mode=WidthMode.EXACT) if metrics is None else metrics
    gap = DEFAULT_C_TAU * (m.width_exact - 1) * (1 - m.coupling_density)
    total = sum(v.weight for v in dag.vertices)
    stage_factor = 1 - (m.depth / total if total else 1.0)
    parallel = base + (gap if m.coupling_density < 0.5 else -gap)
    parallel -= CONTEXT_LOSS_RATE * m.coupling_density
    return {
        TopologyKind.SEQUENTIAL: base,
        TopologyKind.PARALLEL: parallel,
        TopologyKind.HYBRID: base + gap * stage_factor,
        TopologyKind.HIERARCHICAL: base + 0.5 * gap - ARBITRATION_PENALTY,
    }


def oracle_simulate_variance(cfg):
    """Reference for ``topoflow.convergence.simulate_variance``: every trial
    regenerates its whole DAG, computes its metrics from scratch and goes
    through the reference quality model and bound."""
    rows = []
    var_m_sum = var_t_sum = bound_sum = omega_sum = gamma_sum = 0.0
    for t in range(cfg.trials):
        dag_seed = cfg.seed * 1_000_003 + t
        dag = oracle_generate_archetype(
            DagArchetype(cfg.archetype.kind, cfg.archetype.size, seed=dag_seed), uniform_weights=True
        )
        m = compute_metrics(dag, mode=WidthMode.EXACT)
        rng = random.Random(dag_seed ^ 0x5EED5C0E)
        scores = [convergence.S_STAR - cfg.epsilon * rng.random() for _ in range(convergence.POOL_SIZE)]
        var_m = convergence._variance(scores)
        quals = oracle_assumption_one_qualities(dag, base=scores[0], metrics=m)
        var_t = convergence._variance(list(quals.values()))
        try:
            bound = oracle_variance_ratio_bound(
                convergence.ConvergenceParams(
                    epsilon=cfg.epsilon, omega=m.width_exact, gamma=m.coupling_density, k=m.vertex_count
                )
            )
        except BoundDiverges:
            bound = float("inf")
        var_m_sum += var_m
        var_t_sum += var_t
        bound_sum += bound
        omega_sum += m.width_exact
        gamma_sum += m.coupling_density
        rows.append(
            {
                "trial": t,
                "omega": m.width_exact,
                "gamma": round(m.coupling_density, 6),
                "var_model": var_m,
                "var_topology": var_t,
                "ratio": var_t / var_m if var_m else float("inf"),
                "bound": bound,
            }
        )
    n = cfg.trials
    var_m_mean = var_m_sum / n
    var_t_mean = var_t_sum / n
    return convergence.SimResult(
        var_model=var_m_mean,
        var_topology=var_t_mean,
        ratio=var_t_mean / var_m_mean if var_m_mean else float("inf"),
        bound=bound_sum / n,
        mean_omega=omega_sum / n,
        mean_gamma=gamma_sum / n,
        k=cfg.archetype.size,
        trials=n,
        epsilon=cfg.epsilon,
        rows=rows,
    )


class DenseHashedEmbedder:
    """Reference for ``topoflow.synthesis.HashedEmbedder``: the dense ``embed``
    that its sparse vectors are defined by, a 256-float list per text."""

    def __init__(self, dimension: int = 256):
        self.dimension = dimension

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dimension
        for token in text.lower().split():
            ix = int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "big") % self.dimension
            vec[ix] += 1.0
        norm = math.sqrt(sum(x * x for x in vec))
        if norm > 0:
            vec = [x / norm for x in vec]
        return vec


@pytest.fixture
def diamond():
    # a -> {b, c} -> d, unit weights, weak coupling throughout
    return make_dag(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@pytest.fixture
def chain3():
    return make_dag(3, [(0, 1), (1, 2)], default_coupling=0.7)


@pytest.fixture
def isolated4():
    return make_dag(4, [])


@pytest.fixture
def validations(monkeypatch):
    """The DAGs passed to ``validate_dag``, patched in every topoflow module that binds it."""
    calls = []
    original = dag_module.validate_dag

    def counting(dag):
        calls.append(dag)
        return original(dag)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "topoflow" and getattr(module, "validate_dag", None) is original:
            monkeypatch.setattr(module, "validate_dag", counting)
    return calls
