import json
import os

import pytest

from topoflow.runlog import (
    SCHEMA_VERSION,
    atomic_write,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        p = tmp_path / "a.txt"
        atomic_write(str(p), "hello\n")
        assert p.read_text() == "hello\n"

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
