"""Token, cost, and topology-distribution accounting.

Token counts are provider-reported and never re-tokenized or normalized
across providers.  Currency is handled in integer picodollars (1e-12 USD) so
ledger arithmetic is exact; pricing lives in a versioned config file with an
as-of date, never in code.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import resources
from typing import TYPE_CHECKING

from .routing import TOPOLOGY_ORDER, TopologyKind

if TYPE_CHECKING:
    from .backends import AgentOutput

PICO_PER_DOLLAR = 10**12
MICRO_PER_DOLLAR = 10**6
# dollars per 1M tokens; with backends.MAX_TOKEN_COUNT a call costs at most
# 2e24 picodollars, so no run's cost comes near the float range of its reports
MAX_RATE_PER_1M = 10**6


class Phase(enum.Enum):
    EXECUTE = "execute"
    SYNTHESIZE = "synthesize"


class PricingError(Exception):
    """A ledger entry's backend has no pricing row."""


@dataclass(frozen=True)
class Rate:
    input_micro_per_1m: int  # micro-dollars per 1M input tokens
    output_micro_per_1m: int


def _micro_per_1m(value) -> int:
    """A pricing row's rate in micro-dollars; ``ValueError`` when it is out of
    [0, MAX_RATE_PER_1M] dollars per 1M tokens."""
    dollars = Decimal(str(value))
    if not 0 <= dollars <= MAX_RATE_PER_1M:
        raise ValueError(f"pricing rate {value!r} out of [0, {MAX_RATE_PER_1M}] dollars per 1M tokens")
    return int(dollars * MICRO_PER_DOLLAR)


@dataclass(frozen=True)
class PricingTable:
    as_of: str
    rates: dict[str, Rate]

    @classmethod
    def from_dict(cls, doc: dict) -> "PricingTable":
        """The table a pricing document holds; ``ValueError`` when a field is
        missing or a rate is not a decimal number in [0, MAX_RATE_PER_1M]."""
        try:
            rates = {
                name: Rate(
                    input_micro_per_1m=_micro_per_1m(row["input_per_1m"]),
                    output_micro_per_1m=_micro_per_1m(row["output_per_1m"]),
                )
                for name, row in doc["rates"].items()
            }
            return cls(as_of=doc["as_of"], rates=rates)
        except KeyError as exc:
            raise ValueError(f"pricing is missing field {exc}") from None
        except (TypeError, AttributeError, ArithmeticError) as exc:
            raise ValueError(f"malformed pricing: {exc!r}") from None

    @classmethod
    def default(cls) -> "PricingTable":
        doc = json.loads(
            resources.files("topoflow.data").joinpath("pricing.json").read_text(encoding="utf-8")
        )
        return cls.from_dict(doc)

    def rate_for(self, backend: str) -> Rate:
        # backend identity is "provider:model"; pricing rows key on either
        if backend in self.rates:
            return self.rates[backend]
        model = backend.rsplit(":", 1)[-1]
        if model in self.rates:
            return self.rates[model]
        raise PricingError(f"no pricing row for backend {backend!r} (as of {self.as_of})")


@dataclass(frozen=True)
class LedgerEntry:
    backend: str
    prompt_tokens: int
    completion_tokens: int
    phase: Phase


@dataclass
class CostLedger:
    pricing: PricingTable = field(default_factory=PricingTable.default)
    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, output: AgentOutput, phase: Phase) -> None:
        """Append exactly the provider-reported counts."""
        self.entries.append(
            LedgerEntry(
                backend=output.backend,
                prompt_tokens=output.prompt_tokens,
                completion_tokens=output.completion_tokens,
                phase=phase,
            )
        )

    @property
    def total_tokens(self) -> int:
        return sum(e.prompt_tokens + e.completion_tokens for e in self.entries)

    def cost_picodollars(self) -> int:
        """Exact total: sum of tokens x rate, in integer picodollars."""
        total = 0
        for e in self.entries:
            rate = self.pricing.rate_for(e.backend)
            total += e.prompt_tokens * rate.input_micro_per_1m
            total += e.completion_tokens * rate.output_micro_per_1m
        return total

    def cost_microdollars(self) -> int:
        return round(self.cost_picodollars() / MICRO_PER_DOLLAR)

    def cost_dollars(self) -> float:
        """Total ledger cost in dollars; raises PricingError on unpriced backends."""
        return self.cost_picodollars() / PICO_PER_DOLLAR

    def to_record(self) -> dict:
        return {
            "pricing_as_of": self.pricing.as_of,
            "entries": [
                {
                    "backend": e.backend,
                    "prompt_tokens": e.prompt_tokens,
                    "completion_tokens": e.completion_tokens,
                    "phase": e.phase.value,
                }
                for e in self.entries
            ],
            "total_tokens": self.total_tokens,
            "cost_microdollars": self.cost_microdollars(),
        }


@dataclass(frozen=True)
class RunReport:
    total_tokens: int
    cost_microdollars: int
    wall_clock: float
    topology: TopologyKind
    iterations: int

    def to_record(self) -> dict:
        return {
            "total_tokens": self.total_tokens,
            "cost_microdollars": self.cost_microdollars,
            "cost_dollars": self.cost_microdollars / MICRO_PER_DOLLAR,
            "wall_clock": round(self.wall_clock, 9),
            "topology": self.topology.value,
            "iterations": self.iterations,
        }


def topology_distribution(
    topologies: list[TopologyKind], grouping: list[str]
) -> dict[str, dict[TopologyKind, float]]:
    """Per-group percentage of runs routed to each topology, given each
    run's topology and group, plus an 'Average' row over groups.  Rows sum
    to 100 within rounding."""
    if not topologies:
        raise ValueError("topologies must be nonempty")
    if len(topologies) != len(grouping):
        raise ValueError("grouping must parallel topologies")
    groups: dict[str, list[TopologyKind]] = {}
    for topology, grp in zip(topologies, grouping):
        groups.setdefault(grp, []).append(topology)
    if "Average" in groups:
        raise ValueError("no group may be named 'Average', the mean row's name")
    table: dict[str, dict[TopologyKind, float]] = {}
    for grp in sorted(groups):
        runs = groups[grp]
        table[grp] = {k: 100.0 * runs.count(k) / len(runs) for k in TOPOLOGY_ORDER}
    table["Average"] = {k: sum(row[k] for row in table.values()) / len(groups) for k in TOPOLOGY_ORDER}
    return table


def format_distribution(table: dict[str, dict[TopologyKind, float]]) -> str:
    headers = [k.value for k in TOPOLOGY_ORDER]
    width = max(len(h) for h in headers) + 2
    name_w = max(len(g) for g in table) + 2
    lines = ["domain".ljust(name_w) + "".join(h.rjust(width) for h in headers)]
    for grp, row in table.items():
        lines.append(grp.ljust(name_w) + "".join(f"{row[k]:.1f}".rjust(width) for k in TOPOLOGY_ORDER))
    return "\n".join(lines)
