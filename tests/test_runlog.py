import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflow.accounting import CostLedger, Phase, PricingTable, RunReport
from topoflow.archetypes import ArchetypeKind, DagArchetype
from topoflow.backends import ScriptedBackend
from topoflow.convergence import SimConfig, simulate_variance
from topoflow.dag import load_dag, serialize_dag
from topoflow.execution import run_task
from topoflow.metrics import WidthMode
from topoflow.routing import RouterConfig, TopologyKind, route
from topoflow.runlog import (
    SCHEMA_VERSION,
    atomic_write,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)

from conftest import make_dag
from test_cli import FIXTURES, fixture_entries


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):  # as UTF-8 bytes, each "\n" as it is
        p = tmp_path / "a.txt"
        atomic_write(str(p), "héllo\nwörld\n")
        assert p.read_bytes() == b"h\xc3\xa9llo\nw\xc3\xb6rld\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_is_0600_whatever_the_umask(self, tmp_path, umask):
        p = tmp_path / "a.txt"
        old = os.umask(umask)
        try:
            atomic_write(str(p), "one")
            assert stat.S_IMODE(p.stat().st_mode) == 0o600
            atomic_write(str(p), "two")  # a replaced target too
            assert stat.S_IMODE(p.stat().st_mode) == 0o600
        finally:
            os.umask(old)

    def test_failed_replace_keeps_the_old_target_and_no_temp(self, tmp_path, monkeypatch):
        p = tmp_path / "a.txt"
        atomic_write(str(p), "old")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write(str(p), "new")
        assert p.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_overwrites_without_leftover_temps(self, tmp_path):
        p = tmp_path / "a.txt"
        atomic_write(str(p), "one")
        atomic_write(str(p), "two")
        assert p.read_text() == "two"
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_write_leaves_neither_target_nor_temp(self, tmp_path):
        with pytest.raises(UnicodeEncodeError):
            atomic_write(str(tmp_path / "a.txt"), "\ud800")  # a lone surrogate cannot be encoded
        assert os.listdir(tmp_path) == []

    def test_creates_parent_dirs(self, tmp_path):
        p = tmp_path / "deep" / "nested" / "a.txt"
        atomic_write(str(p), "x")
        assert p.read_text() == "x"


class TestJsonl:
    def test_schema_version_stamped(self, tmp_path):
        p = tmp_path / "log.jsonl"
        write_jsonl(str(p), [{"type": "run"}])
        [rec] = [json.loads(l) for l in p.read_text().splitlines()]
        assert rec["schema_version"] == SCHEMA_VERSION

    def test_round_trip(self, tmp_path):
        p = tmp_path / "log.jsonl"
        records = [{"type": "run", "n": i} for i in range(3)]
        write_jsonl(str(p), records)
        out, skipped = read_jsonl(str(p))
        assert skipped == 0
        assert [r["n"] for r in out] == [0, 1, 2]

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('{"ok": 1}\nnot json at all\n{"ok": 2}\n')
        out, skipped = read_jsonl(str(p))
        assert skipped == 1
        assert [r["ok"] for r in out] == [1, 2]

    def test_non_object_lines_skipped_and_counted(self, tmp_path):
        p = tmp_path / "log.jsonl"
        p.write_text('[1, 2]\n{"ok": 1}\n"text"\n3\nnull\n')
        out, skipped = read_jsonl(str(p))
        assert skipped == 4
        assert out == [{"ok": 1}]

    def test_empty_records(self, tmp_path):
        p = tmp_path / "log.jsonl"
        write_jsonl(str(p), [])
        assert p.read_text() == ""


class TestJsonAndCsv:
    def test_json_stable_key_order(self, tmp_path):
        p = tmp_path / "doc.json"
        write_json(str(p), {"b": 1, "a": 2})
        text = p.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_csv_header_and_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(str(p), ["x", "y"], [{"x": 1, "y": 2}])
        assert p.read_text() == "x,y\n1,2\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


def reordered(value, rng):
    """``value`` with the keys of every object in it, at any depth, inserted in a shuffled order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: reordered(value[k], rng) for k in keys}
    if isinstance(value, list):
        return [reordered(v, rng) for v in value]
    return value


@settings(max_examples=200, deadline=None)
@given(record=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=6), rng=st.randoms(use_true_random=False))
def test_written_bytes_do_not_follow_key_insertion_order(tmp_path_factory, record, rng):
    # records are built field by field from their dataclasses, so only the sorted keys keep a file's bytes
    shuffled = reordered(record, rng)
    out = tmp_path_factory.mktemp("keys")
    written = []
    for name, rec in (("a", record), ("b", shuffled)):
        write_json(str(out / f"{name}.json"), rec)
        write_jsonl(str(out / f"{name}.jsonl"), [rec, rec])
        written.append(((out / f"{name}.json").read_bytes(), (out / f"{name}.jsonl").read_bytes()))
    assert written[0] == written[1]


def every_record():
    """One record of each kind that topoflow writes, by name."""
    diamond = load_dag(os.path.join(FIXTURES, "diamond.json"))
    dags = {
        TopologyKind.PARALLEL: make_dag(3, []),
        TopologyKind.SEQUENTIAL: make_dag(3, [(0, 1), (1, 2)]),
        TopologyKind.HIERARCHICAL: make_dag(6, [(0, i) for i in range(1, 6)], default_coupling=1.0),
        TopologyKind.HYBRID: diamond,
    }
    records = {}
    for kind, dag in dags.items():
        decision = route(dag, RouterConfig(width_mode=WidthMode.EXACT))
        assert decision.topology is kind
        records[f"route-{kind.value}"] = decision.to_record()
    run = run_task(diamond, [ScriptedBackend(fixture_entries())])
    trace = run.traces[-1]
    trace.edge_violations.append(("v0", "v1"))  # a pair, which JSON reads back as a list
    ledger = CostLedger(PricingTable.default())
    for out in trace.ordered_outputs():
        ledger.record(out, Phase.EXECUTE)
    report = RunReport(total_tokens=1, cost_microdollars=2, wall_clock=0.1, topology=TopologyKind.HYBRID, iterations=3)
    sim = simulate_variance(SimConfig(archetype=DagArchetype(ArchetypeKind.DIAMOND, 6), epsilon=0.05, trials=3))
    return {
        **records,
        "trace": trace.to_record(),
        "ledger": ledger.to_record(),
        "run": report.to_record(),
        "synthesis": run.result.to_record(),
        "simulate-summary": sim.summary(),
        "frozen-config": RouterConfig(theta_gamma=0.4, width_mode=WidthMode.EXACT).to_dict(),
        "serialized-dag": serialize_dag(diamond),
    }


def test_every_record_is_plain_json_data():
    # an enum or a tuple left in a record would not read back equal
    records = every_record()
    for name, rec in records.items():
        assert json.loads(json.dumps(rec)) == rec, name
    for kind in TopologyKind:
        assert "elapsed" not in records[f"route-{kind.value}"]
