"""Synthetic DAG archetypes: chain, wide-shallow, deep-narrow, diamond.

Weights are drawn uniformly from [100, 2000] tokens and couplings from the
four discrete levels, reproducibly from the given seed.  Simulation code can
force uniform weights to stay inside the scaling-law proof's hypothesis.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .dag import _COUPLING_VALUES, Subtask, TaskDag

COUPLING_LEVELS = tuple(_COUPLING_VALUES.values())  # (0.0, 0.3, 0.7, 1.0)
WEIGHT_RANGE = (100.0, 2000.0)
UNIFORM_WEIGHT = 500.0


class ArchetypeKind(enum.Enum):
    CHAIN = "chain"
    WIDE_SHALLOW = "wide_shallow"
    DEEP_NARROW = "deep_narrow"
    DIAMOND = "diamond"


@dataclass(frozen=True)
class DagArchetype:
    kind: ArchetypeKind
    size: int
    seed: int = 0


def archetype_edges(kind: ArchetypeKind, size: int) -> list[tuple[int, int]]:
    """The archetype's edges as vertex-number pairs, in the order that
    :func:`draw_couplings` follows; raises ``ValueError`` on a size the
    archetype cannot build (below 1, or below 3 for a diamond)."""
    if size < 1:
        raise ValueError(f"archetype size must be >= 1, got {size}")
    if kind is ArchetypeKind.CHAIN:
        return [(i, i + 1) for i in range(size - 1)]
    if kind is ArchetypeKind.WIDE_SHALLOW:
        return [(0, i) for i in range(1, size)]
    if kind is ArchetypeKind.DEEP_NARROW:
        spine = (size + 1) // 2
        edges = [(i, i + 1) for i in range(spine - 1)]
        for j in range(size - spine):
            edges.append((j, spine + j))
        return edges
    if kind is ArchetypeKind.DIAMOND:
        if size < 3:
            raise ValueError(f"diamond archetype needs size >= 3, got {size}")
        sink = size - 1
        edges = []
        for mid in range(1, sink):
            edges.append((0, mid))
            edges.append((mid, sink))
        return edges
    raise ValueError(f"unknown archetype kind {kind}")


def draw_couplings(rng: random.Random, count: int) -> list[float]:
    """One coupling level per edge, in edge order."""
    return [rng.choice(COUPLING_LEVELS) for _ in range(count)]


def generate_archetype(spec: DagArchetype, *, uniform_weights: bool = False) -> TaskDag:
    """Build the archetype shape with seeded random weights and couplings.

    The weights are drawn first, then the couplings; with uniform weights
    the couplings are the only draws."""
    edges_ix = archetype_edges(spec.kind, spec.size)
    rng = random.Random(spec.seed)
    vertices = []
    for i in range(spec.size):
        weight = UNIFORM_WEIGHT if uniform_weights else rng.uniform(*WEIGHT_RANGE)
        vertices.append(
            Subtask(
                id=f"v{i}",
                description=f"{spec.kind.value} subtask {i}",
                weight=weight,
            )
        )
    edges = tuple((f"v{u}", f"v{v}") for u, v in edges_ix)
    coupling = dict(zip(edges, draw_couplings(rng, len(edges))))
    return TaskDag(vertices=tuple(vertices), edges=edges, coupling=coupling)


def random_dag(n: int, edge_prob: float, seed: int) -> TaskDag:
    """Random DAG: forward edges over a seeded vertex order, weight 100-2000."""
    rng = random.Random(seed)
    vertices = tuple(
        Subtask(id=f"v{i}", weight=rng.uniform(*WEIGHT_RANGE)) for i in range(n)
    )
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                edges.append((f"v{i}", f"v{j}"))
    coupling = dict(zip(edges, draw_couplings(rng, len(edges))))
    return TaskDag(vertices=vertices, edges=tuple(edges), coupling=coupling)
