import pytest

from topoflow.accounting import (
    CostLedger,
    LedgerEntry,
    Phase,
    PricingError,
    PricingTable,
    RunReport,
    format_distribution,
    topology_distribution,
)
from topoflow.backends import AgentOutput
from topoflow.routing import TOPOLOGY_ORDER, TopologyKind


def out(backend, prompt, completion):
    return AgentOutput(
        text="x", prompt_tokens=prompt, completion_tokens=completion,
        latency=0.1, backend=backend,
    )


class TestPricingTable:
    def test_default_table_has_as_of(self):
        table = PricingTable.default()
        assert table.as_of == "2026-01-15"

    def test_rate_lookup_by_identity_or_model(self):
        table = PricingTable.default()
        assert table.rate_for("openai:gpt-4o-mini") == table.rate_for("gpt-4o-mini")

    def test_unknown_backend(self):
        with pytest.raises(PricingError):
            PricingTable.default().rate_for("nope:unknown-model")

    def test_from_dict_decimal_exactness(self):
        table = PricingTable.from_dict(
            {"as_of": "2026-01-01", "rates": {"m": {"input_per_1m": "0.15", "output_per_1m": 0.6}}}
        )
        rate = table.rate_for("m")
        assert rate.input_micro_per_1m == 150_000
        assert rate.output_micro_per_1m == 600_000

    @pytest.mark.parametrize(
        "doc",
        [
            {"rates": {}},
            {"as_of": "2026-01-01"},
            {"as_of": "2026-01-01", "rates": {"m": {"input_per_1m": "0.15"}}},
            {"as_of": "2026-01-01", "rates": {"m": {"input_per_1m": "cheap", "output_per_1m": 0}}},
            {"as_of": "2026-01-01", "rates": ["m"]},
        ],
    )
    def test_from_dict_rejects_malformed_documents(self, doc):
        with pytest.raises(ValueError, match="pricing"):
            PricingTable.from_dict(doc)


class TestCostLedger:
    def test_reference_costs_exact(self):
        # 1M input tokens of gpt-4o-mini -> $0.15; 1M output of haiku -> $4.00
        ledger = CostLedger()
        ledger.record(out("openai:gpt-4o-mini", 1_000_000, 0), Phase.EXECUTE)
        assert ledger.cost_microdollars() == 150_000
        assert ledger.cost_dollars() == pytest.approx(0.15)

        ledger2 = CostLedger()
        ledger2.record(out("anthropic:claude-3.5-haiku", 0, 1_000_000), Phase.SYNTHESIZE)
        assert ledger2.cost_microdollars() == 4_000_000
        assert ledger2.cost_dollars() == pytest.approx(4.0)

    def test_counts_pass_through_untouched(self):
        ledger = CostLedger()
        ledger.record(out("mock:mock", 123, 456), Phase.EXECUTE)
        [entry] = ledger.entries
        assert (entry.prompt_tokens, entry.completion_tokens) == (123, 456)
        assert ledger.total_tokens == 579

    def test_integer_arithmetic_no_drift(self):
        # many tiny entries must sum exactly
        ledger = CostLedger()
        for _ in range(1000):
            ledger.record(out("openai:gpt-4o-mini", 1, 1), Phase.EXECUTE)
        # 1000 * (0.15 + 0.60) micro$ per token / 1M = 750 micro-micro... exact pico math:
        assert ledger.cost_picodollars() == 1000 * (150_000 + 600_000)

    def test_mock_backend_is_free(self):
        ledger = CostLedger()
        ledger.record(out("mock:mock", 10_000, 10_000), Phase.EXECUTE)
        assert ledger.cost_picodollars() == 0

    def test_unpriced_backend_raises_at_total(self):
        ledger = CostLedger()
        ledger.record(out("alien:model-x", 10, 10), Phase.EXECUTE)
        with pytest.raises(PricingError):
            ledger.cost_dollars()

    def test_record_shape(self):
        ledger = CostLedger()
        ledger.record(out("mock:mock", 5, 7), Phase.SYNTHESIZE)
        rec = ledger.to_record()
        assert rec["total_tokens"] == 12
        assert rec["entries"][0]["phase"] == "synthesize"
        assert rec["pricing_as_of"] == "2026-01-15"


def report(topology):
    return RunReport(
        total_tokens=100, cost_microdollars=10, wall_clock=1.0,
        topology=topology, iterations=1,
    )


class TestTopologyDistribution:
    def test_rows_sum_to_100(self):
        topologies = [
            TopologyKind.PARALLEL, TopologyKind.PARALLEL,
            TopologyKind.SEQUENTIAL, TopologyKind.HYBRID,
        ]
        table = topology_distribution(topologies, ["code", "code", "code", "qa"])
        assert sum(table["code"].values()) == pytest.approx(100.0)
        assert sum(table["qa"].values()) == pytest.approx(100.0)
        assert table["code"][TopologyKind.PARALLEL] == pytest.approx(200 / 3)
        assert table["qa"][TopologyKind.HYBRID] == 100.0

    def test_average_row(self):
        topologies = [TopologyKind.PARALLEL, TopologyKind.HYBRID]
        table = topology_distribution(topologies, ["a", "b"])
        assert table["Average"][TopologyKind.PARALLEL] == 50.0
        assert table["Average"][TopologyKind.HYBRID] == 50.0

    def test_no_group_is_named_average(self):
        # the mean row's name: such a group's row would be overwritten by the mean
        with pytest.raises(ValueError, match="Average"):
            topology_distribution([TopologyKind.HYBRID, TopologyKind.PARALLEL], ["Average", "x"])

    def test_formatting(self):
        table = topology_distribution([TopologyKind.PARALLEL], ["a"])
        text = format_distribution(table)
        assert "parallel" in text and "Average" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            topology_distribution([], [])
        with pytest.raises(ValueError):
            topology_distribution([TopologyKind.PARALLEL], [])


class TestRunReport:
    def test_record(self):
        rec = report(TopologyKind.HYBRID).to_record()
        assert rec["topology"] == "hybrid"
        assert rec["cost_dollars"] == pytest.approx(1e-5)
        assert set(rec) == {
            "total_tokens", "cost_microdollars", "cost_dollars",
            "wall_clock", "topology", "iterations",
        }
