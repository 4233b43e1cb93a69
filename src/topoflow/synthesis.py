"""Output synthesis: consistency scoring and the adaptive re-routing loop.

Parallel agent outputs are scored for semantic agreement by mean pairwise
embedding cosine similarity.  Consistent outputs go to a merge agent;
inconsistent ones to an arbiter, and if the arbiter's candidate still
disagrees with the originals the task is re-routed with the coupling
estimate raised by 0.2, which bounds the loop.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple

from .backends import AgentBackend, AgentOutput, BackendError
from .routing import TopologyKind
from .runlog import record_of

GAMMA_STEP = 0.2
DEFAULT_THETA_CS = 0.8


def _template(name: str) -> str:
    return resources.files("topoflow.templates").joinpath(name).read_text(encoding="utf-8")


MERGE_PREFIX = _template("merge.txt")
ARBITER_PREFIX = _template("arbiter.txt")


EMBED_CACHE_SIZE = 16384  # distinct texts an embedder keeps, the most recently used


class SparseVector(NamedTuple):
    """An embedding's non-zero entries, by ascending index, and its L2 norm
    summed exactly as :func:`cosine` sums it over the dense vector."""

    entries: dict[int, float]
    norm: float


class Embedder(ABC):
    @abstractmethod
    def build_sparse(self, text: str) -> SparseVector:
        """The text's deterministic, fixed-dimension embedding, as a :class:`SparseVector`."""

    @functools.cached_property
    def sparse(self) -> Callable[[str], SparseVector]:
        """:meth:`build_sparse` behind a memo of the ``EMBED_CACHE_SIZE`` most
        recently used texts.  Threads sharing an embedder may build a text
        twice, never read a wrong vector."""
        return functools.lru_cache(EMBED_CACHE_SIZE)(self.build_sparse)


class HashedEmbedder(Embedder):
    """Hashed bag-of-tokens embedding, L2-normalized; fully offline and
    deterministic (md5 token hashing, not the salted builtin hash)."""

    def __init__(self, dimension: int = 256):
        self.dimension = dimension

    def build_sparse(self, text: str) -> SparseVector:
        """The non-zero entries of the normalized token counts, straight from
        the counts, bit for bit the dense vector's.

        The squared counts are integers, so their sum is exact in any order
        and its square root is the dense norm; each entry is ``count / norm``
        as in the dense division, and the entries go in ascending index
        order, as the dense scan finds them.
        """
        counts: dict[int, int] = {}
        for token in text.lower().split():
            ix = int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "big") % self.dimension
            counts[ix] = counts.get(ix, 0) + 1
        norm = math.sqrt(sum(c * c for c in counts.values()))
        entries = {i: counts[i] / norm for i in sorted(counts)}
        return SparseVector(entries, math.sqrt(sum(x * x for x in entries.values())))

    def embed(self, text: str) -> list[float]:
        """The dense reference, not the contract: :meth:`sparse` with zeros off its entries."""
        vec = [0.0] * self.dimension
        for i, x in self.sparse(text).entries.items():
            vec[i] = x
        return vec


class FixtureEmbedder(Embedder):
    """Maps exact texts to preset vectors; for constructing known cosines in tests."""

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors

    def build_sparse(self, text: str) -> SparseVector:
        entries = {i: x for i, x in enumerate(self.vectors[text]) if x}
        # the dense sum adds only +0.0 beyond these squares, so the norm is cosine's
        return SparseVector(entries, math.sqrt(sum(x * x for x in entries.values())))


def cosine(a: list[float], b: list[float]) -> float:
    """The dense reference, not the contract: the cosine that :func:`_sparse_cosine` matches."""
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 or nb == 0:
        return 0.0
    return dot / (na * nb)


def _sparse_cosine(a: SparseVector, b: SparseVector) -> float:
    """:func:`cosine` of the dense vectors, bit for bit.

    The dense dot product adds the products over shared non-zero indices in
    ascending index order and exact zeros in between; adding a zero leaves a
    sum unchanged, so summing only those products in the same order gives
    the same float.
    """
    (ea, na), (eb, nb) = a, b
    if na == 0 or nb == 0:
        return 0.0
    if len(eb) < len(ea):
        ea, eb = eb, ea  # products commute exactly; the index order is the same
    # ``sum`` as in ``cosine``: from Python 3.12 it compensates, unlike ``+=``
    return sum(x * eb[i] for i, x in ea.items() if i in eb) / (na * nb)


def consistency_score(outputs: list[str], embedder: Embedder) -> float:
    """Mean pairwise cosine similarity; a single output is self-consistent (1.0).

    Bit for bit the mean of :func:`_sparse_cosine` over the pairs in (i, j)
    order, scoring only the pairs that share an index.  A postings map from
    each index to the later vectors that have it gives each pair's products
    in ascending index order, summed as ``_sparse_cosine`` sums them.  A
    skipped pair would add exactly 0.0, and the running total, starting at
    0.0, is never -0.0, so skipping it leaves the total as it was.  A NaN
    norm breaks that, and so is scored pairwise.
    """
    if not outputs:
        raise ValueError("outputs must be nonempty")
    if len(outputs) == 1:
        return 1.0
    vecs = [embedder.sparse(o) for o in outputs]
    n = len(vecs)
    total = 0.0
    if any(norm != norm for _, norm in vecs):  # 0 / NaN is NaN, not the 0.0 a skipped pair adds
        for i in range(n):
            for j in range(i + 1, n):
                total += _sparse_cosine(vecs[i], vecs[j])
        return total / (n * (n - 1) // 2)
    postings: dict[int, list[tuple[int, float]]] = {}
    for j, (entries, norm) in enumerate(vecs):
        if norm:  # a zero norm scores 0.0 with every vector
            for ix, y in entries.items():
                postings.setdefault(ix, []).append((j, y))
    passed = dict.fromkeys(postings, 0)  # per index, the rows that have reached it
    for i, (entries, norm) in enumerate(vecs):
        if not norm:
            continue
        products: dict[int, list[float]] = {}
        for ix, x in entries.items():
            later = passed[ix] = passed[ix] + 1  # past row i's own posting
            for j, y in postings[ix][later:]:
                if j in products:
                    products[j].append(x * y)
                else:
                    products[j] = [x * y]
        for j in sorted(products):
            total += sum(products[j]) / (norm * vecs[j].norm)
    return total / (n * (n - 1) // 2)


def consistency_of_candidate(candidate: str, originals: list[str], embedder: Embedder) -> float:
    """Mean cosine similarity between the candidate and each original output."""
    if not originals:
        raise ValueError("originals must be nonempty")
    cand = embedder.sparse(candidate)
    return sum(_sparse_cosine(cand, embedder.sparse(o)) for o in originals) / len(originals)


def iteration_bound(gamma0: float) -> int:
    """Re-routing raises gamma by 0.2 per pass, so passes are bounded by
    ceil((1 - gamma0) / 0.2); at least one pass always runs."""
    return max(1, math.ceil(round((1.0 - gamma0) / GAMMA_STEP, 9)))


@dataclass(frozen=True)
class SynthesisConfig:
    theta_cs: float = DEFAULT_THETA_CS
    gamma0: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.theta_cs <= 1.0):
            raise ValueError(f"theta_cs {self.theta_cs} out of [0, 1]")


class SynthesisPath(enum.Enum):
    SEQUENTIAL_LAST = "sequential_last"
    MERGE = "merge"
    ARBITER = "arbiter"
    ESCALATED = "escalated"


@dataclass(frozen=True)
class SynthesisResult:
    final_text: str
    consistency: float
    iterations: int
    route_trail: tuple[tuple[float, TopologyKind], ...]
    path: SynthesisPath

    def to_record(self) -> dict:
        return {
            **record_of(self, "final_text"),
            "route_trail": [[g, k.value] for g, k in self.route_trail],
            "escalated": self.path in (SynthesisPath.ARBITER, SynthesisPath.ESCALATED),
        }


class SynthesisError(Exception):
    """Merge or arbiter backend failure; carries the trail accumulated so far."""

    def __init__(self, message: str, route_trail: tuple[tuple[float, TopologyKind], ...]):
        super().__init__(message)
        self.route_trail = route_trail


RerouteFn = Callable[[float], tuple[list[str], TopologyKind]]


def synthesize(
    outputs: list[str],
    topology: TopologyKind,
    config: SynthesisConfig,
    agent: AgentBackend,
    reroute: RerouteFn | None = None,
    embedder: Embedder | None = None,
    calls: list[AgentOutput] | None = None,
) -> SynthesisResult:
    """Adaptive synthesis with bounded re-routing.

    Sequential topologies return their last output directly.  Otherwise a
    consistency check picks merge vs arbiter; an arbiter candidate that is
    still inconsistent with the originals triggers a re-route at
    gamma + 0.2 (capped at 1.0) until the iteration bound is exhausted.

    ``agent`` makes both the merge and the arbiter calls.  Each output is
    appended to ``calls`` as soon as its call returns, tagged ``merge`` or
    ``arbiter``, so the caller keeps every paid call even when a later call,
    or a re-route, raises.
    """
    if not outputs:
        raise ValueError("outputs must be nonempty")
    embedder = embedder or HashedEmbedder()
    calls = [] if calls is None else calls
    bound = iteration_bound(config.gamma0)
    gamma = config.gamma0
    trail: list[tuple[float, TopologyKind]] = []

    def call(role: str, prefix: str) -> str:
        try:
            out = agent.invoke(prefix + "\n---\n".join(outputs), "", tag=role)
        except BackendError as exc:
            raise SynthesisError(f"{role} agent failed: {exc}", tuple(trail)) from exc
        calls.append(out.with_subtask(role))
        return out.text

    while True:
        trail.append((gamma, topology))
        consistency = consistency_score(outputs, embedder)
        if topology is TopologyKind.SEQUENTIAL:
            text, path = outputs[-1], SynthesisPath.SEQUENTIAL_LAST
            break
        if consistency >= config.theta_cs:
            text, path = call("merge", MERGE_PREFIX), SynthesisPath.MERGE
            break
        text = call("arbiter", ARBITER_PREFIX)
        consistency = consistency_of_candidate(text, outputs, embedder)
        if consistency >= config.theta_cs:
            path = SynthesisPath.ARBITER
            break
        if len(trail) >= bound or gamma >= 1.0 or reroute is None:
            path = SynthesisPath.ESCALATED
            break
        gamma = min(round(gamma + GAMMA_STEP, 9), 1.0)
        outputs, topology = reroute(gamma)

    return SynthesisResult(
        final_text=text,
        consistency=consistency,
        iterations=len(trail),
        route_trail=tuple(trail),
        path=path,
    )
