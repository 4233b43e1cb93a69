import json
import os
import shutil

import pytest

from topoflow.cli import main
from topoflow.runlog import read_jsonl

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write_manifest(tmp_path, **overrides):
    manifest = {
        "dag": os.path.join(FIXTURES, "diamond.json"),
        "backend": "scripted:" + os.path.join(FIXTURES, "scripted.json"),
        "concurrency": 8,
        "task": "evaluate two options and recommend",
        "output_dir": str(tmp_path / "out"),
    }
    manifest.update(overrides)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return str(path)


class TestRoute:
    def test_route_diamond(self, tmp_path, capsys):
        rc = main(["route", os.path.join(FIXTURES, "diamond.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "topology: hybrid" in out
        assert "fired rule: hybrid_default" in out
        assert "omega_approx=2" in out

    def test_route_with_log(self, tmp_path, capsys):
        log = tmp_path / "route.jsonl"
        rc = main(["route", os.path.join(FIXTURES, "diamond.json"), "--log", str(log)])
        assert rc == 0
        records, skipped = read_jsonl(str(log))
        assert skipped == 0
        assert records[0]["type"] == "route"
        assert records[0]["topology"] == "hybrid"

    def test_route_missing_file(self, capsys):
        assert main(["route", "/nonexistent/dag.json"]) == 5

    def test_route_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["route", str(bad)]) == 3

    def test_route_cyclic_dag(self, tmp_path, capsys):
        cyc = tmp_path / "cyc.json"
        cyc.write_text(json.dumps([
            {"id": "a", "description": "", "depends_on": ["b"], "coupling": "weak"},
            {"id": "b", "description": "", "depends_on": ["a"], "coupling": "weak"},
        ]))
        assert main(["route", str(cyc)]) == 3


class TestExec:
    def test_exec_writes_artifacts(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path)
        rc = main(["exec", manifest])
        assert rc == 0
        out_dir = tmp_path / "out"
        for name in ("trace.json", "ledger.json", "report.json", "run.log.jsonl"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["topology"] in ("parallel", "sequential", "hierarchical", "hybrid")
        assert report["total_tokens"] > 0
        stdout = capsys.readouterr().out
        assert "topology:" in stdout and "cost:" in stdout

    def test_exec_byte_identical_reruns(self, tmp_path):
        m1 = write_manifest(tmp_path, output_dir=str(tmp_path / "o1"))
        assert main(["exec", m1]) == 0
        m2 = write_manifest(tmp_path, output_dir=str(tmp_path / "o2"))
        assert main(["exec", m2]) == 0
        for name in ("trace.json", "ledger.json", "report.json", "run.log.jsonl"):
            a = (tmp_path / "o1" / name).read_bytes()
            b = (tmp_path / "o2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_exec_mock_backend(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, backend="mock")
        assert main(["exec", manifest]) == 0

    def test_exec_missing_manifest_field(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dag": "x.json"}))
        assert main(["exec", str(path)]) == 2

    def test_exec_missing_dag_file(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, dag=str(tmp_path / "absent.json"))
        assert main(["exec", manifest]) == 2

    def test_exec_backend_failure_exits_4_with_partial_artifacts(self, tmp_path, capsys):
        fixture = json.loads(
            open(os.path.join(FIXTURES, "scripted.json"), encoding="utf-8").read()
        )
        fixture["v1"] = {"fail": True}
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(fixture))
        manifest = write_manifest(tmp_path, backend=f"scripted:{broken}")
        rc = main(["exec", manifest])
        assert rc == 4
        assert (tmp_path / "out" / "trace.json").exists()
        assert (tmp_path / "out" / "ledger.json").exists()
        assert not (tmp_path / "out" / "report.json").exists()


    def test_exec_failure_ledger_keeps_paid_calls(self, tmp_path, capsys):
        chain = [
            {"id": f"v{i}", "description": f"step {i}", "depends_on": [f"v{i - 1}"] if i else [],
             "coupling": "strong"}
            for i in range(3)
        ]
        (tmp_path / "chain.json").write_text(json.dumps(chain))
        fixture = {"v1": {"fail": True}, "default": {"text": "done", "prompt_tokens": 11, "completion_tokens": 4}}
        (tmp_path / "fixture.json").write_text(json.dumps(fixture))
        manifest = write_manifest(
            tmp_path, dag=str(tmp_path / "chain.json"), backend=f"scripted:{tmp_path / 'fixture.json'}"
        )
        assert main(["exec", manifest]) == 4
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        ledger = json.loads((tmp_path / "out" / "ledger.json").read_text())
        assert sorted(trace["outputs"]) == ["v0"]
        assert [(e["prompt_tokens"], e["completion_tokens"], e["phase"]) for e in ledger["entries"]] == [
            (11, 4, "execute")
        ]
        assert ledger["total_tokens"] == 15

class TestRatio:
    def test_reference_value(self, capsys):
        rc = main(["ratio", "--omega", "3.4", "--gamma", "0.35", "--k", "5", "--eps", "0.05"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "48.672"

    def test_second_reference(self, capsys):
        rc = main(["ratio", "--omega", "3", "--gamma", "0.4", "--k", "6", "--eps", "0.05"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "24.000"

    def test_eps_zero_diverges(self, capsys):
        rc = main(["ratio", "--omega", "3", "--gamma", "0.4", "--k", "6", "--eps", "0"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "diverges"

    def test_out_of_range_usage_error(self, capsys):
        rc = main(["ratio", "--omega", "0.5", "--gamma", "0.4", "--k", "6", "--eps", "0.05"])
        assert rc == 2


class TestSimulate:
    def test_writes_trials_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = main([
            "simulate", "--archetype", "diamond", "--size", "6",
            "--eps", "0.05", "--trials", "25", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "trials.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 25
        assert summary["satisfies_bound"] is True
        assert "OK" in capsys.readouterr().out


class TestCalibrate:
    def test_synthetic_corpus(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc = main(["calibrate", "--synthetic", "40", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "dev/test split: 6/34" in stdout
        frozen = json.loads((out / "frozen_config.json").read_text())
        assert frozen["theta_gamma"] in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        table = (out / "calibration_table.csv").read_text().splitlines()
        assert table[0] == "theta_gamma,mean_quality"
        assert len(table) == 7

    def test_tasks_dir(self, tmp_path, capsys):
        tasks = tmp_path / "tasks"
        tasks.mkdir()
        for i in range(10):
            doc = {
                "dag": [
                    {"id": "a", "description": "", "depends_on": [], "coupling": "none",
                     "estimated_tokens": 100},
                    {"id": "b", "description": "", "depends_on": ["a"], "coupling": "weak",
                     "estimated_tokens": 100},
                ],
                "scores": {"parallel": 0.5, "sequential": 0.9, "hierarchical": 0.4, "hybrid": 0.6},
            }
            (tasks / f"t{i}.json").write_text(json.dumps(doc))
        rc = main(["calibrate", "--tasks", str(tasks), "--out", str(tmp_path / "cal")])
        assert rc == 0

    def test_no_inputs(self, capsys):
        assert main(["calibrate"]) == 2


class TestReport:
    def _run_logs(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        records = [
            {"type": "run", "topology": "parallel", "iterations": 1, "group": "code",
             "oracle_topology": "parallel"},
            {"type": "run", "topology": "hybrid", "iterations": 2, "group": "code",
             "oracle_topology": "hybrid"},
            {"type": "run", "topology": "sequential", "iterations": 1, "group": "qa",
             "oracle_topology": "hybrid"},
        ]
        (logs / "runs.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        return logs

    def test_distribution_and_confusion(self, tmp_path, capsys):
        logs = self._run_logs(tmp_path)
        out = tmp_path / "rep"
        rc = main(["report", "--logs", str(logs), "--out", str(out)])
        assert rc == 0
        dist = (out / "topology_distribution.txt").read_text()
        assert "code" in dist and "Average" in dist
        cm = (out / "confusion_matrix.txt").read_text()
        assert "router \\ oracle" in cm
        assert "66.7%" in cm
        hist = (out / "iteration_histogram.csv").read_text().splitlines()
        assert hist == ["iterations,count", "1,2", "2,1"]

    def test_missing_logs_dir(self, capsys):
        assert main(["report", "--logs", "/nonexistent"]) == 2

    def test_corrupt_lines_warn_but_report(self, tmp_path, capsys):
        logs = self._run_logs(tmp_path)
        with open(logs / "runs.jsonl", "a") as fh:
            fh.write("garbage line\n")
        rc = main(["report", "--logs", str(logs), "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert "corrupt" in capsys.readouterr().err
