"""Task dependency DAG model: subtasks, edges, coupling, validation, ingestion.

A task decomposes into a DAG of subtasks.  Each vertex carries an estimated
token weight; each edge carries a coupling strength in [0, 1] describing how
much shared context the dependent subtask needs from its prerequisite.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import sys
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

DEFAULT_WEIGHT = 500.0


class CouplingLabel(enum.Enum):
    """Discrete coupling levels declared by the task decomposer."""

    NONE = "none"
    WEAK = "weak"
    STRONG = "strong"
    CRITICAL = "critical"


_LABELS = {label.value: label for label in CouplingLabel}

_COUPLING_VALUES = {"none": 0.0, "weak": 0.3, "strong": 0.7, "critical": 1.0}  # by label value


class DagError(Exception):
    """Base error for DAG construction and ingestion problems."""


class ParseError(DagError):
    """A decomposition record is malformed or referentially broken, or an
    input file is not a JSON document its reader accepts."""


class ValidationError(DagError):
    """A DAG failed validation where a valid DAG is required."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("; ".join(v.detail for v in report.violations))


@dataclass(frozen=True)
class Subtask:
    id: str
    description: str = ""
    weight: float = DEFAULT_WEIGHT
    declared_coupling: CouplingLabel = CouplingLabel.NONE


class DagIndex(NamedTuple):
    """A valid DAG indexed by position in one topological order.

    The order is Kahn's, with ties broken by sorted id.  Successor and
    predecessor positions are listed in edge order.  ``layers`` holds the ids
    of each level (a vertex's longest-path depth, taken in the Kahn pass),
    sorted, sources first; each layer is an antichain.  Every caller shares
    one index and must not change it.  Its fields are plain lists and dicts:
    tuple copies made it about a third slower to build on the small DAGs
    that simulation builds by the thousand.
    """

    order: list[str]
    position: dict[str, int]
    subtasks: dict[str, Subtask]
    succ: list[list[int]]
    pred: list[list[int]]
    layers: list[list[str]]


@dataclass(frozen=True)
class TaskDag:
    """Immutable dependency DAG over subtasks.

    ``edges`` are (prerequisite, dependent) id pairs; ``coupling`` maps each
    edge to a strength in [0, 1].  Construct via :func:`parse_decomposition`,
    :func:`load_dag`, or directly; :func:`validate_dag` reports every
    violation, and :attr:`index` validates once and indexes once.
    """

    vertices: tuple[Subtask, ...]
    edges: tuple[tuple[str, str], ...] = ()
    coupling: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "coupling", dict(self.coupling))

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def index(self) -> DagIndex:
        """The DAG's index, built on first use and kept.

        Raises :class:`ValidationError` when the DAG is not valid.
        """
        report = validate_dag(self)
        if not report.ok:
            raise ValidationError(report)
        return report.index

    def subtask(self, vid: str) -> Subtask:
        return self.index.subtasks[vid]

    def predecessors(self, vid: str) -> list[str]:
        index = self.index
        return [index.order[p] for p in index.pred[index.position[vid]]]


@dataclass(frozen=True)
class Violation:
    kind: str  # duplicate_id | bad_weight | dangling_edge | self_edge | duplicate_edge | coupling_range | missing_coupling | cycle
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()
    index: DagIndex | None = field(default=None, compare=False, repr=False)  # set when ok


def validate_dag(dag: TaskDag) -> ValidationReport:
    """Check every structural invariant; violations are data, not exceptions.

    One pass numbers the distinct ids by sorted rank, builds one integer
    adjacency and runs Kahn's algorithm once, taking each level on the way.
    Kahn leaves a vertex unordered exactly when there is a cycle; only then is
    one named.  A valid DAG's report carries its index, built in that order.
    """
    violations: list[Violation] = []

    rank: dict[str, int] = {}  # each distinct id, then its sorted rank
    for v in dag.vertices:
        if not v.id:
            violations.append(Violation("duplicate_id", "empty vertex id"))
        elif v.id in rank:
            violations.append(Violation("duplicate_id", f"duplicate vertex id {v.id!r}"))
        rank[v.id] = 0
        if not 0 < v.weight < math.inf:
            violations.append(Violation("bad_weight", f"vertex {v.id!r} weight {v.weight} is not positive and finite"))

    ids = sorted(rank)
    n = len(ids)
    rank.update(zip(ids, range(n)))
    adj: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    loop = None  # the vertex of the first self-edge
    # only a DAG that repeats an edge names its duplicates edge by edge
    seen_edges: set[tuple[str, str]] | None = set() if len(set(dag.edges)) < len(dag.edges) else None
    coupling = dag.coupling
    for edge in dag.edges:
        u, v = edge
        try:
            i, j = rank[u], rank[v]
        except KeyError:
            violations.append(Violation("dangling_edge", f"edge {edge} references unknown vertex"))
            continue
        adj[i].append(j)
        indeg[j] += 1
        if u == v:
            violations.append(Violation("self_edge", f"self-edge on {u!r}"))
            loop = u if loop is None else loop
        if seen_edges is not None:
            if edge in seen_edges:
                violations.append(Violation("duplicate_edge", f"duplicate edge {edge}"))
            seen_edges.add(edge)
        try:
            c = coupling[edge]
        except KeyError:
            violations.append(Violation("missing_coupling", f"edge {edge} has no coupling value"))
            continue
        if not (0.0 <= c <= 1.0):
            violations.append(Violation("coupling_range", f"edge {edge} coupling {c} out of [0, 1]"))
    del rank, seen_edges

    # ranks order like ids, so a FIFO over rank-sorted batches is Kahn's
    # order with ties broken by sorted id; the DFS needs adj in edge order.
    # A vertex's level is final once all its predecessors have left the queue.
    ready = [i for i in range(n) if not indeg[i]]
    level = [1] * n
    for i in ready:
        up = level[i] + 1
        for j in sorted(adj[i]):
            if level[j] < up:
                level[j] = up
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    del indeg
    if len(ready) < n:
        cycle = [loop, loop] if loop is not None else _find_cycle(ids, adj)
        violations.append(Violation("cycle", "cycle " + " -> ".join(cycle)))
    if violations:
        return ValidationReport(ok=False, violations=tuple(violations))
    del adj
    return ValidationReport(ok=True, index=_build_index(dag, [ids[i] for i in ready], [level[i] for i in ready]))


def _build_index(dag: TaskDag, order: list[str], level: list[int]) -> DagIndex:
    """Index a valid DAG from its ids in ``order``, a topological order, and their levels."""
    n = len(order)
    position = dict(zip(order, range(n)))
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in dag.edges:
        p, q = position[u], position[v]
        succ[p].append(q)
        pred[q].append(p)
    layers: list[list[str]] = [[] for _ in range(max(level, default=0))]
    for vid, lv in zip(order, level):
        layers[lv - 1].append(vid)
    for layer in layers:
        layer.sort()
    subtasks = {v.id: v for v in dag.vertices}
    return DagIndex(order, position, subtasks, succ, pred, layers)


def _find_cycle(ids: list[str], adj: list[list[int]]) -> list[str]:
    """A witness cycle [a, ..., a] in a digraph without self-edges that has
    one: graphlib's, the first back edge of its iterative DFS from roots in
    rank order, successors in edge order."""
    import graphlib  # only an invalid DAG loads it

    sorter = graphlib.TopologicalSorter()
    for i in range(len(ids)):
        sorter.add(i)  # the DFS roots, in rank order
    for i, succ in enumerate(adj):
        for j in succ:
            sorter.add(j, i)  # appends j to i's successors
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        return [ids[i] for i in exc.args[1]]
    raise AssertionError("no cycle to name")


# ---------------------------------------------------------------------------
# Ingestion: decomposer records and the canonical serialized form
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("id", "description", "depends_on", "coupling")
_NUMBER_TYPES = (int, float)  # a number field's exact type in both loaders: no bool, no string


def parse_decomposition(records: Sequence[Mapping]) -> TaskDag:
    """Build a TaskDag from decomposer output records.

    Each record carries ``id``, ``description``, ``depends_on``, ``coupling``
    and ``estimated_tokens``.  Every (dep, id) pair becomes an edge whose
    coupling value comes from the *dependent* record's label.  Records
    missing ``estimated_tokens`` default to 500 with a logged warning.
    """
    vertices: list[Subtask] = []
    edges: list[tuple[str, str]] = []
    coupling: dict[tuple[str, str], float] = {}
    declared: set[str] = set()
    values: list[float] = []  # each record's coupling value

    for i, rec in enumerate(records):
        if not isinstance(rec, Mapping):
            raise ParseError(f"record {i} is not an object: {rec!r}")
        for f in _RECORD_FIELDS:
            if f not in rec:
                raise ParseError(f"record {i} ({rec.get('id', '?')!r}) missing field {f!r}")
        vid, description, tokens = rec["id"], rec["description"], rec.get("estimated_tokens")
        if not isinstance(vid, str) or not vid:
            raise ParseError(f"record {i} has invalid id {vid!r}")
        if not isinstance(description, str):
            raise ParseError(f"record {vid!r} has a description that is not a string: {description!r}")
        if not isinstance(rec["depends_on"], list):
            raise ParseError(f"record {vid!r} has depends_on that is not a list: {rec['depends_on']!r}")
        key = str(rec["coupling"]).lower()
        label = _LABELS.get(key)
        if label is None:
            raise ParseError(f"record {vid!r} has unknown coupling label {rec['coupling']!r}")
        if tokens is None:
            tokens = DEFAULT_WEIGHT
            print(f"record {vid!r} missing estimated_tokens; defaulting to {tokens}", file=sys.stderr)
        elif type(tokens) not in _NUMBER_TYPES:
            raise ParseError(f"record {vid!r} has estimated_tokens that is not a number: {tokens!r}")
        try:
            weight = float(tokens)
        except OverflowError as exc:
            raise ParseError(f"record {vid!r} has estimated_tokens too large for a float") from exc
        vertices.append(Subtask(vid, description, weight, label))
        declared.add(vid)
        values.append(_COUPLING_VALUES[key])

    for rec, sub, c in zip(records, vertices, values):
        vid = sub.id
        for dep in rec["depends_on"]:
            if not isinstance(dep, str) or dep not in declared:
                raise ParseError(f"record {vid!r} depends on undeclared id {dep!r}")
            edges.append((dep, vid))
            coupling[(dep, vid)] = c

    dag = TaskDag(vertices=tuple(vertices), edges=tuple(edges), coupling=coupling)
    dag.index  # validates, or raises ValidationError
    return dag


def serialize_dag(dag: TaskDag) -> dict:
    """Canonical JSON-ready form with explicit per-edge couplings."""
    return {
        "vertices": [
            {
                "id": v.id,
                "description": v.description,
                "weight": v.weight,
                "declared_coupling": v.declared_coupling.value,
            }
            for v in dag.vertices
        ],
        "edges": [
            {"source": u, "target": v, "coupling": dag.coupling[(u, v)]}
            for (u, v) in dag.edges
        ],
    }


def _declared_label(value) -> CouplingLabel:
    """``CouplingLabel(value)``, looked up in a dict first; a miss goes to the
    enum call, so it raises the enum's own ``ValueError``."""
    try:
        return _LABELS[value]
    except (KeyError, TypeError):
        return CouplingLabel(value)


def deserialize_dag(doc: Mapping) -> TaskDag:
    """Inverse of :func:`serialize_dag`; validates and indexes the result."""
    try:
        vertices: list[Subtask] = []
        for rec in doc["vertices"]:
            vid, description = rec["id"], rec.get("description", "")
            if not isinstance(vid, str):
                raise TypeError(f"vertex id {vid!r} is not a string")
            if not isinstance(description, str):
                raise TypeError(f"vertex {vid!r} has a description that is not a string: {description!r}")
            weight = rec.get("weight", DEFAULT_WEIGHT)
            if type(weight) is not float:  # a float is kept as it is, which float() would return
                if type(weight) not in _NUMBER_TYPES:
                    raise TypeError(f"vertex {vid!r} has a weight that is not a number: {weight!r}")
                weight = float(weight)
            vertices.append(Subtask(
                vid,
                description,
                weight,
                _declared_label(rec.get("declared_coupling", "none")),
            ))
        edges: list[tuple[str, str]] = []
        coupling: dict[tuple[str, str], float] = {}
        for e in doc["edges"]:
            edge, value = (e["source"], e["target"]), e["coupling"]
            if type(value) is not float:
                if type(value) not in _NUMBER_TYPES:
                    raise TypeError(f"edge {edge!r} has a coupling that is not a number: {value!r}")
                value = float(value)
            edges.append(edge)
            coupling[edge] = value
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed canonical DAG document: {exc}") from exc
    dag = TaskDag(vertices=tuple(vertices), edges=tuple(edges), coupling=coupling)
    dag.index  # validates, or raises ValidationError
    return dag


def load_json(path: str):
    """The JSON document in the file at ``path``; raises :class:`ParseError`
    when the file is not one."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # not JSON, not UTF-8, an integer past the conversion limit, or
        # nested deeper than the decoder recurses
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def load_dag(path: str) -> TaskDag:
    """Load either a decomposer-record array or a canonical DAG document."""
    return ingest(load_json(path))


def ingest(doc) -> TaskDag:
    """Dispatch on document shape: list of records vs canonical object."""
    if isinstance(doc, list):
        return parse_decomposition(doc)
    if isinstance(doc, Mapping) and "vertices" in doc:
        return deserialize_dag(doc)
    raise ParseError("document is neither a record array nor a canonical DAG object")
