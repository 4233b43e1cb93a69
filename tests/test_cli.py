import argparse
import hashlib
import json
import os
import re
import shutil
import socket
import subprocess
import sys

import pytest

from topoflow import cli, convergence
from topoflow.backends import BackendError, HttpChatBackend, ScriptedBackend
from topoflow.cli import _make_pool, main
from topoflow.runlog import read_jsonl
from topoflow.synthesis import HashedEmbedder

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


def fixture_entries(**changes):
    """The diamond's scripted fixture, with some entries replaced."""
    with open(os.path.join(FIXTURES, "scripted.json"), encoding="utf-8") as fh:
        return {**json.load(fh), **changes}


def write_fixture(tmp_path, **entries):
    """The diamond's scripted fixture with some entries replaced; returns its path."""
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture_entries(**entries)))
    return str(path)


def hierarchical_manifest(tmp_path, backend):
    """8 strongly coupled vertices, which route hierarchical, on ``backend``."""
    dag = [{"id": "v0", "description": "plan", "depends_on": [], "coupling": "strong"}]
    dag += [
        {"id": f"v{i}", "description": f"part {i}", "depends_on": ["v0"], "coupling": "strong"}
        for i in range(1, 7)
    ]
    dag.append({"id": "v7", "description": "join", "depends_on": [f"v{i}" for i in range(1, 7)],
                "coupling": "strong"})
    (tmp_path / "dag.json").write_text(json.dumps(dag))
    return write_manifest(tmp_path, dag=str(tmp_path / "dag.json"), backend=backend)


def lead_failure_manifest(tmp_path):
    """The hierarchical DAG on a scripted backend whose lead reconcile call
    fails after assign and all 8 sub-agent calls."""
    fixture = {"lead:reconcile": {"fail": True},
               "default": {"text": "done", "prompt_tokens": 11, "completion_tokens": 4}}
    (tmp_path / "fixture.json").write_text(json.dumps(fixture))
    return hierarchical_manifest(tmp_path, f"scripted:{tmp_path / 'fixture.json'}")


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
        for _ in range(2):  # each run replaces the log
            rc = main(["route", os.path.join(FIXTURES, "diamond.json"), "--log", str(log)])
            assert rc == 0
        records, skipped = read_jsonl(str(log))
        assert skipped == 0
        assert len(records) == 1
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

    @pytest.mark.parametrize("doc", [[], {"vertices": [], "edges": []}])
    def test_route_empty_dag(self, doc, tmp_path, capsys):
        # exec refuses a DAG with no subtasks; route still routes it
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert main(["route", str(path)]) == 0
        assert capsys.readouterr().out.startswith("topology: parallel\nfired rule: empty_edge_set\n")

    def test_route_empty_config_path_is_a_usage_error(self, capsys):
        # an empty --config names no file; it does not mean the default config
        assert main(["route", os.path.join(FIXTURES, "diamond.json"), "--config", ""]) == 2
        assert capsys.readouterr().err == "usage error: router config not found or not a file: \n"

    def test_route_empty_dag_exact_width(self, tmp_path, capsys):
        (tmp_path / "empty.json").write_text("[]")
        (tmp_path / "config.json").write_text(json.dumps({"width_mode": "exact"}))
        assert main(["route", str(tmp_path / "empty.json"), "--config", str(tmp_path / "config.json")]) == 0
        assert "metrics: omega_exact=0 omega_approx=0 " in capsys.readouterr().out


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

    def test_null_task_is_no_task(self, tmp_path, capsys):
        # "task": null runs as a manifest without a task, not with the text "None"
        written = []
        for i, task in enumerate(({}, {"task": None})):
            out = tmp_path / f"o{i}"
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({
                "dag": os.path.join(FIXTURES, "diamond.json"), "backend": "mock", "output_dir": str(out), **task,
            }))
            assert main(["exec", str(manifest)]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(written[0]) == ["ledger.json", "report.json", "run.log.jsonl", "trace.json"]
        assert written[0] == written[1]

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

    @pytest.mark.parametrize("theta_cs", [0, 1])
    def test_integer_theta_cs_is_the_same_run(self, theta_cs, tmp_path, capsys):
        # run_task compares consistencies with an int threshold as with its float
        written = []
        for value in (theta_cs, float(theta_cs)):
            out = tmp_path / f"o{len(written)}"
            assert main(["exec", write_manifest(tmp_path, theta_cs=value, output_dir=str(out))]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(written[0]) == 4 and written[0] == written[1]

    def test_relative_fixture_path_resolves_against_the_manifest(self, tmp_path, capsys, monkeypatch):
        # the same run, once with the fixture's absolute path and once with
        # its name beside the manifest, from a working directory without it
        written = []
        for backend in ("scripted:" + write_fixture(tmp_path), "scripted:fixture.json"):
            out = tmp_path / f"o{len(written)}"
            manifest = write_manifest(tmp_path, backend=backend, output_dir=str(out))
            monkeypatch.chdir(tmp_path.parent)
            assert main(["exec", manifest]) == 0
            written.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(written[0]) == 4 and written[0] == written[1]

    def test_unset_api_key_exits_4_without_a_connection(self, tmp_path, capsys, monkeypatch):
        def no_connection(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        assert main(["exec", write_manifest(tmp_path, backend="openai:gpt-4o-mini")]) == 4
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert set(trace["failures"].values()) == {"missing API key: set OPENAI_API_KEY"}
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("theta_cs", 1.5), ("concurrency", 0), ("context_budget", 0),
        ("concurrency", "8"), ("context_budget", 2.5), ("theta_cs", True),
    ])
    def test_exec_bad_manifest_number_exits_2_before_any_call(self, tmp_path, capsys, monkeypatch, field, value):
        calls = []
        monkeypatch.setattr(ScriptedBackend, "invoke", lambda self, *args, **kwargs: calls.append(args))
        manifest = write_manifest(tmp_path, **{field: value})
        assert main(["exec", manifest]) == 2
        assert capsys.readouterr().err.startswith(f"usage error: manifest field {field!r} must be")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_exec_unknown_provider_exits_4(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, backend="nosuch:model")
        assert main(["exec", manifest]) == 4
        assert capsys.readouterr().err.startswith("backend error: unknown provider 'nosuch'")

    def test_provider_model_pool_is_one_unopened_http_backend(self, tmp_path, monkeypatch):
        def no_connection(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        pool = _make_pool("openai:gpt-4o-mini", lambda path: os.path.join(str(tmp_path), path))
        assert [type(b) for b in pool] == [HttpChatBackend]
        assert pool[0].identity == "openai:gpt-4o-mini"
        assert getattr(pool[0]._local, "conn", None) is None

    def test_exec_backend_failure_exits_4_with_partial_artifacts(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, backend="scripted:" + write_fixture(tmp_path, v1={"fail": True}))
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

    def test_exec_lead_failure_keeps_artifacts(self, tmp_path, capsys):
        manifest = lead_failure_manifest(tmp_path)
        assert main(["exec", manifest]) == 4
        out = tmp_path / "out"
        trace = json.loads((out / "trace.json").read_text())
        ledger = json.loads((out / "ledger.json").read_text())
        records, _ = read_jsonl(str(out / "run.log.jsonl"))
        assert records[0]["topology"] == "hierarchical"
        assert sorted(trace["outputs"]) == [f"v{i}" for i in range(8)]
        assert list(trace["lead"]) == ["assign"]
        assert list(trace["failures"]) == ["lead:reconcile"]
        assert len(ledger["entries"]) == 9 and ledger["total_tokens"] == 9 * 15
        assert not (out / "report.json").exists()

    def test_exec_synthesis_failure_writes_trace(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, backend="scripted:" + write_fixture(tmp_path, arbiter={"fail": True}))
        assert main(["exec", manifest]) == 4
        out = tmp_path / "out"
        for name in ("trace.json", "ledger.json", "run.log.jsonl"):
            assert (out / name).exists()
        trace = json.loads((out / "trace.json").read_text())
        assert sorted(trace["outputs"]) == ["v0", "v1", "v2", "v3"]
        assert not (out / "report.json").exists()

    def test_exec_synthesis_failure_keeps_paid_synthesis_calls(self, tmp_path, capsys, monkeypatch):
        # the diamond arbitrates and re-routes; the arbiter answers on the
        # first synthesis pass and fails on the second
        invoke = ScriptedBackend.invoke
        arbiter_calls = []

        def flaky_arbiter(self, instruction, context, *, tag=None):
            if tag == "arbiter":
                arbiter_calls.append(tag)
                if len(arbiter_calls) == 2:
                    raise BackendError("scripted arbiter outage")
            return invoke(self, instruction, context, tag=tag)

        monkeypatch.setattr(ScriptedBackend, "invoke", flaky_arbiter)
        assert main(["exec", write_manifest(tmp_path)]) == 4
        ledger = json.loads((tmp_path / "out" / "ledger.json").read_text())
        entries = [(e["prompt_tokens"], e["completion_tokens"], e["phase"]) for e in ledger["entries"]]
        assert len(arbiter_calls) == 2
        assert [phase for _, _, phase in entries] == ["execute"] * 8 + ["synthesize"]
        assert entries[-1] == (130, 30, "synthesize")

    def test_exec_reroute_failure_keeps_arbiter_call(self, tmp_path, capsys, monkeypatch):
        # the diamond arbitrates and re-routes; v1 fails on its second call,
        # in the re-route's execution, after the arbiter call was paid for
        invoke = ScriptedBackend.invoke
        v1_calls = []

        def flaky_v1(self, instruction, context, *, tag=None):
            if tag == "v1":
                v1_calls.append(tag)
                if len(v1_calls) == 2:
                    raise BackendError("scripted v1 outage")
            return invoke(self, instruction, context, tag=tag)

        monkeypatch.setattr(ScriptedBackend, "invoke", flaky_v1)
        assert main(["exec", write_manifest(tmp_path)]) == 4
        ledger = json.loads((tmp_path / "out" / "ledger.json").read_text())
        entries = [(e["prompt_tokens"], e["completion_tokens"], e["phase"]) for e in ledger["entries"]]
        assert len(v1_calls) == 2
        assert [phase for _, _, phase in entries] == ["execute"] * 6 + ["synthesize"]
        assert entries[-1] == (130, 30, "synthesize")

    def test_exec_wall_clock_counts_synthesis_calls(self, tmp_path, capsys):
        # three hybrid executions of 0.3 s each, and three 0.1 s arbiter calls
        assert main(["exec", write_manifest(tmp_path)]) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        ledger = json.loads((out / "ledger.json").read_text())
        records, _ = read_jsonl(str(out / "run.log.jsonl"))
        assert [e["phase"] for e in ledger["entries"]] == ["execute"] * 12 + ["synthesize"] * 3
        assert report["iterations"] == 3
        assert report["wall_clock"] == records[-1]["wall_clock"] == pytest.approx(3 * 0.3 + 3 * 0.1)

    @pytest.mark.parametrize("role", ["arbiter", "merge"])
    def test_a_transient_synthesis_failure_is_retried(self, role, tmp_path, capsys):
        # the diamond arbitrates; with every output the same it merges instead
        base = fixture_entries() if role == "arbiter" else {
            "default": {"text": "the same answer", "prompt_tokens": 10, "completion_tokens": 4, "latency": 0.1},
            "merge": {"text": "merged", "prompt_tokens": 20, "completion_tokens": 2, "latency": 0.1},
        }
        written = []
        for fail_times in (0, 1):
            fixture = tmp_path / f"fixture{fail_times}.json"
            fixture.write_text(json.dumps({**base, role: {**base[role], "fail_times": fail_times}}))
            out = tmp_path / f"o{fail_times}"
            assert main(["exec", write_manifest(tmp_path, backend=f"scripted:{fixture}", output_dir=str(out))]) == 0
            written.append({name: json.loads((out / name).read_text()) for name in ("ledger.json", "report.json")})
        assert "synthesize" in [e["phase"] for e in written[0]["ledger.json"]["entries"]]
        assert written[1]["ledger.json"] == written[0]["ledger.json"]
        wall_clock = [report.pop("wall_clock") for report in (w["report.json"] for w in written)]
        assert wall_clock[1] == pytest.approx(wall_clock[0] + 0.5)  # the one backoff
        assert written[1]["report.json"] == written[0]["report.json"]

    def test_exec_embeds_each_text_once(self, tmp_path, capsys, monkeypatch):
        # context merging and synthesis share one embedder and its memo
        build = HashedEmbedder.build_sparse
        texts = []

        def counting_build(self, text):
            texts.append(text)
            return build(self, text)

        monkeypatch.setattr(HashedEmbedder, "build_sparse", counting_build)
        assert main(["exec", write_manifest(tmp_path)]) == 0
        assert texts and len(texts) == len(set(texts))


# sha256 of the exec artefacts of each case.  The failure cases were recorded
# before the three exits of ``cmd_exec`` became one; the success case, whose
# synthesis escalates, was recorded after its ``wall_clock`` came to count the
# merge and arbiter calls.  The hierarchical mock case pins which of its three
# backends makes the lead and the synthesis calls.
EXEC_ARTEFACT_DIGESTS = {
    "arbiter-fail": {
        "trace.json": "b916e378789ead667c1fb6e7c4678076dccb05cacffd8089a30f8075023e342f",
        "ledger.json": "c80aacd9edbb8e7a660b658c53d95b0808319bec8d901f3ccdec46095abeac60",
        "run.log.jsonl": "4c4fea427a01302398cc603622e3963e1062e02af642dc9059cf430a5923ba9c",
    },
    "diamond": {
        "trace.json": "b916e378789ead667c1fb6e7c4678076dccb05cacffd8089a30f8075023e342f",
        "ledger.json": "1892c9946a1ff884a0817e2353b959cec348964ef77d49eab20df509763b6b8f",
        "report.json": "aa764e666d99ae3febb9db07afdfd3183e3f7e64a2d7efb3c4181b16aa13abb6",
        "run.log.jsonl": "b6a172c90c1a2f889688198fc76e40114a1e121e8d104ff1359eb110c04d33ce",
    },
    "execute-fail": {
        "trace.json": "846bef032ac9f374f841fa27a320b1cb6318507b6f6836e6044059b36f0eb7ce",
        "ledger.json": "a8248b80a74ddd662e5d3c27bc07e434f7796853659cf2aecfeb6bb3ad7f27fb",
        "run.log.jsonl": "4c4fea427a01302398cc603622e3963e1062e02af642dc9059cf430a5923ba9c",
    },
    "hierarchical-mock": {
        "trace.json": "883385f67f124506cc3da30720e0238035cce1e0534e7252aca708cca2bedc81",
        "ledger.json": "fd8f1d27e24e46489e332543e9466b5a2b0b6af205ea6079bdbccaf5d7012345",
        "report.json": "77ac44ddf68b348fcc8e562d931276b84addce2f66ac5f465cdcacd682808b7e",
        "run.log.jsonl": "250553f07bed91f57109b10cd2afe94efd376377aca9993158b4aa8875513799",
    },
    "lead-fail": {
        "trace.json": "35f4112a9f4115314b89bbdbf754d6f2edb9d0718a024e620e1362eb084d34fd",
        "ledger.json": "a685c539730371f96c02a010b025f032f78c7878b816afe435e3e707f512ce08",
        "run.log.jsonl": "77fd8be937dc16d74e3da294b76d0d54cc54ceba22982db23766c2022aaa8fa3",
    },
}


@pytest.mark.parametrize("case", sorted(EXEC_ARTEFACT_DIGESTS))
def test_exec_artefacts_pinned(case, tmp_path, capsys):
    if case == "lead-fail":
        manifest = lead_failure_manifest(tmp_path)
    elif case == "hierarchical-mock":
        manifest = hierarchical_manifest(tmp_path, "mock")
    else:
        entries = {"arbiter-fail": {"arbiter": {"fail": True}}, "execute-fail": {"v1": {"fail": True}}}
        manifest = write_manifest(tmp_path, backend="scripted:" + write_fixture(tmp_path, **entries.get(case, {})))
    assert main(["exec", manifest]) == (0 if case in ("diamond", "hierarchical-mock") else 4)
    pinned = EXEC_ARTEFACT_DIGESTS[case]
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in pinned}
    assert digests == pinned


# sha256 of ``topoflow simulate``'s outputs, 200 trials at the default epsilon,
# per archetype, size and seed; recorded when the variances were still
# computed by ``statistics.variance``
SIMULATE_DIGESTS = {
    "chain-10-1": {
        "trials.csv": "85731f5b26b7a97b4cb43e0930613d33681440152eb0e65197a24b727c36a2db",
        "summary.json": "246f393cdedf20eda6a3bfbdad7e2dc4b6f3ad3f6cd930f5b2c2da2a173ab446",
    },
    "chain-10-4242": {
        "trials.csv": "6516226cffa0ad66196e6cf2ff8248d0eb4fd2ff9d16189b17a1263f0bbe965d",
        "summary.json": "92290b5cb9646cc47012b4428101b35fd0efb456c97b0ded2eba420abf8895eb",
    },
    "chain-6-1": {
        "trials.csv": "56ef2ad5bb98245879159f78343124bde14fd80a2b666072ea53f30180057f95",
        "summary.json": "92c1e9d0be55aeba04a8273d66f795871d964c757f6bf63eea590a2b537ad7a2",
    },
    "chain-6-4242": {
        "trials.csv": "9a8909b59d1502c5745185e315dcea864e7fd900fb2afda60470e01255fc1621",
        "summary.json": "19a4633dc356afe84b38affd7ed63a47f4ed16f87860a1a4279ea7eda280d806",
    },
    "deep_narrow-10-1": {
        "trials.csv": "cd4c98a8c61013a89b95b37c9dabf695c796f49d8ae646edd8f80ab8e520c550",
        "summary.json": "0a90ead1a19abe30de8936d5ef8d259521b73fb36a05d05553f4830288d7f2ae",
    },
    "deep_narrow-10-4242": {
        "trials.csv": "9350dc9e9c6d8a0210565ef89d8d986f5685001b92a24926c41fda8d66df20cc",
        "summary.json": "3fe83f9447cae1c1e38a21b241955bd13475b05ad3f3bb4da2643d8ab812a514",
    },
    "deep_narrow-6-1": {
        "trials.csv": "bdd5089f898b2fb1794072e5df6918893ce72dd205f73625dd237a33d8de76c3",
        "summary.json": "8ea4067c5b1e355c4e174deb9b5842e576dc438e5752b1c00c1bf88c026308dd",
    },
    "deep_narrow-6-4242": {
        "trials.csv": "4e8f93cf06377db7b3be2182f211a18dc48ac9e1386868cdc8651557a09ac129",
        "summary.json": "8689d5658379782002dd40c83c1dc1788b50cbf358027844aad530df25c1f237",
    },
    "diamond-10-1": {
        "trials.csv": "26d424c086e6d0d4ae71fe3ee880accb9ced94556330b43596709bf6d9b2c933",
        "summary.json": "70268e9373e8a4f9f68820a00befa8fc385898b257764f743092fd63386d4b98",
    },
    "diamond-10-4242": {
        "trials.csv": "b48a4abdbade3078af4260818d464e472e25cb7a36978daec37a81f72239d110",
        "summary.json": "751a5e479481db02ad350951a83fccab4de5e2ebd3f16546954a1fb2413ff02e",
    },
    "diamond-6-1": {
        "trials.csv": "d732769b8be54ca16774f9fd9b6ef941c00514bf1fc4186034dd48ad90d35ebf",
        "summary.json": "058bc6444acb606873d5827bda043add09ceb0dd0808348f6d8c95717b215560",
    },
    "diamond-6-4242": {
        "trials.csv": "ce32312e81e71d5ccbe906f62af9442c7411a8f008f68a8a15ebb3cab9840287",
        "summary.json": "bb009f25ee80f36a35ab6b72c92d45a47e80534658ec5f73ad5f493df75b411a",
    },
    "wide_shallow-10-1": {
        "trials.csv": "4d856c27a89481628fb2b79ea916a1826ddf00709710e067bdeb19d571dd30c4",
        "summary.json": "698bde722193dfa063936d091552ca5850f4bd96c2b8ee07c754fa5b39137e0b",
    },
    "wide_shallow-10-4242": {
        "trials.csv": "bfcb8d177a2c6d4bd82f52580967826070d15a2af62a23e2dfb4f8837218a214",
        "summary.json": "2acc0b370a85dd8abcc487b082c14b5ea8e7db1c6040ed8bce42de0b9c41d121",
    },
    "wide_shallow-6-1": {
        "trials.csv": "b0dfdb4c383ae52cf36d128ff8c60c7da493855ae7d2f728dde6ab4d8b348e51",
        "summary.json": "46370cbe91e7bbaa20056e209d0e563bce1baee0ebb0a4898c60260fe548fd77",
    },
    "wide_shallow-6-4242": {
        "trials.csv": "bb83d8cc39c57372f63d050f1283740cdaaeb2ee836ab881af947f8678eddc54",
        "summary.json": "0e2b66d695bffdcc062290b7f4874ca2f668394591089be675ad0389cd37ec60",
    },
}


@pytest.mark.parametrize("case", sorted(SIMULATE_DIGESTS))
def test_simulate_outputs_pinned(case, tmp_path, capsys):
    kind, size, seed = case.rsplit("-", 2)
    out = tmp_path / "sim"
    argv = ["simulate", "--archetype", kind, "--size", size, "--trials", "200", "--seed", seed]
    assert main([*argv, "--out", str(out)]) == 0
    pinned = SIMULATE_DIGESTS[case]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in pinned} == pinned


# (id, depends_on, coupling) of a small DAG per topology it routes to
ROUTE_DAGS = {
    "parallel": [("a", [], "none"), *((f"b{i}", ["a"], "weak") for i in range(4))],
    "sequential": [("a", [], "none"), ("b", ["a"], "strong"), ("c", ["b"], "weak")],
    "hierarchical": [
        ("a", [], "none"),
        *((f"b{i}", ["a"], "strong") for i in range(5)),
        ("c", [f"b{i}" for i in range(5)], "strong"),
    ],
    "hybrid": [
        ("a", [], "none"), ("z", ["a"], "weak"), ("y", ["a"], "weak"),
        ("x", ["z", "y"], "strong"), ("w", ["x"], "weak"),
    ],
}

# sha256 of each DAG's ``route --log`` line and of its stdout without the
# ``elapsed:`` line, the one line that varies between runs
ROUTE_DIGESTS = {
    "hierarchical": {
        "log": "43fd93f96b7741a5357684f3a2a63a4b35bce8644b1752adb03c4e330d012f5e",
        "stdout": "62fc8b68fb28defbeb71548e553a977533c03a162e67a5e763f7057ec386ec69",
    },
    "hybrid": {
        "log": "cb95c0201a0fbafc61f0339f64f934a3dd0562d08a735a45c9e974cd7aada367",
        "stdout": "a7d659f31c61c5cd3859cab5f016909e33a7d60246ada2da4476f650c97f09d3",
    },
    "parallel": {
        "log": "b78fb0da17e742cef76a4783889a29ed216032cfb3d5aba7638d4ffc83d1bf52",
        "stdout": "9ec93db21836a7fd0278669e00c09a9f8f358d3d828e310b6c332f89e7d5fe72",
    },
    "sequential": {
        "log": "30a67cc690bebd1f19deab908ba882db721c13f1e75df3cb9895e3741aa68b2c",
        "stdout": "20cce3906ac346b127b37b952a7b205d110a294c783d01dd8ffc0e66c5ebecdb",
    },
}


@pytest.mark.parametrize("kind", sorted(ROUTE_DIGESTS))
def test_route_log_pinned(kind, tmp_path, capsys):
    dag = tmp_path / "dag.json"
    dag.write_text(json.dumps([
        {"id": vid, "description": f"do {vid}", "depends_on": deps, "coupling": coupling,
         "estimated_tokens": 100}
        for vid, deps, coupling in ROUTE_DAGS[kind]
    ]))
    log = tmp_path / "route.jsonl"
    assert main(["route", str(dag), "--log", str(log)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    stdout = "".join(line for line in lines if not line.startswith("elapsed:"))
    assert stdout.startswith(f"topology: {kind}")
    digests = {
        "log": hashlib.sha256(log.read_bytes()).hexdigest(),
        "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
    }
    assert digests == ROUTE_DIGESTS[kind]


# sha256 of what each command line prints, help to stdout with exit 0 and
# parse errors to stderr with exit 2, at 80 columns; recorded when every call
# built the parsers of all six subcommands
CLI_TEXT_DIGESTS = {
    "": (2, "db9c65c8da04502a06da7f220e6dc6cc9a16ba54497ff71b984207376ccd8d47"),
    "-h": (0, "8eedc499e6b22995a54906e5a2fa5e53e37c175c3627b7d36fe621dd92512f25"),
    "--help": (0, "8eedc499e6b22995a54906e5a2fa5e53e37c175c3627b7d36fe621dd92512f25"),
    "bogus": (2, "ea72e7783eb375e8accf06a91eef36f165193e903396f0f459eeefadc4c645e0"),
    "route -h": (0, "b32604961443f2b4d8607e1dddd27b9e5743e189412756d61b34d2f10459366d"),
    "exec -h": (0, "e17254545b3c4a2ad48e166c698dc1508b773d27f2d4a2ecc58b87da278f595c"),
    "ratio -h": (0, "baf44a13fcc31d342476bfac9fdfe83e8563c2cba0e516f04572d37d4276ef29"),
    "simulate -h": (0, "2f2e207ce43e7b0bfc10a359ced083dc38653adb9fb2ab91a83e8b1855da1772"),
    "calibrate -h": (0, "623740e894549d85f5878ab9dc2df722842c6de3ef68315277a2a061dfc0a461"),
    "report -h": (0, "cdc3887db2c29a6777516cedd8aaf58c6a6c5d8bfff72a9243027a3ef8b4db80"),
    "exec": (2, "4e9442caadea501d6154a5295430f630293c95933bc336fe67c0131aea507046"),
    "route": (2, "b73ee5506689e884448a97c55091c4616ac6fb7d6945db891e8cac7c0c241547"),
    "report": (2, "976e79121b15115f66d7f5ea4b489eec7893897c87e830a50075de9084f87333"),
    "simulate": (2, "8aaa31fd17154f81f88532b20d40dc17b2640664315a1df927571d6676e4907e"),
    "exec a b": (2, "ac7d36aa86e880523f31751b88209f53cc445f2e6dd675b4105c67836851bc05"),
    "route x --bogus": (2, "a0328a7a582637bf477ee706e553024cd04caf595223349882567150a4897d12"),
    "ratio --omega 2": (2, "ec7359086ba77997ec627b9c221190520922c53fbee2812718a40710340203c4"),
    "ratio --omega x --gamma 0.4 --k 6 --eps 0.05": (
        2, "9de97bb721e483e77ae0b8dda2608a832f402d119c7aedd8b0ebd5bf74e9e3a8"
    ),
    "simulate --archetype nope": (2, "a38d50673fb15248ebaa08e0046e9119e61be79387ee57d509bf333eab090364"),
    "exec --help extra": (0, "e17254545b3c4a2ad48e166c698dc1508b773d27f2d4a2ecc58b87da278f595c"),
}


@pytest.mark.parametrize("line", sorted(CLI_TEXT_DIGESTS))
def test_help_and_parse_error_texts_pinned(line, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(line.split())
    out, err = capsys.readouterr()
    printed, silent = (out, err) if stop.value.code == 0 else (err, out)
    assert (stop.value.code, hashlib.sha256(printed.encode()).hexdigest()) == CLI_TEXT_DIGESTS[line], printed
    assert silent == ""


def test_a_call_builds_only_its_subcommands_parser(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or build(only))
    assert main(["ratio", "--omega", "3", "--gamma", "0.4", "--k", "6", "--eps", "0.05"]) == 0
    with pytest.raises(SystemExit):
        main(["ratio", "--omega", "3"])  # the full parser reports a parse error
    for argv in ([], ["-h"], ["bogus"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built == ["ratio", "ratio", None, None, None, "bogus", None]


def test_the_module_entry_point_runs(tmp_path):
    # `python -m topoflow.cli` calls `main()`, which reads `sys.argv` itself
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def topoflow(*argv):
        return subprocess.run(
            [sys.executable, "-m", "topoflow.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    done = topoflow("--help")
    assert done.returncode == 0
    assert "{route,exec,ratio,simulate,calibrate,report}" in done.stdout
    done = topoflow("exec", write_manifest(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(os.listdir(tmp_path / "out")) == ["ledger.json", "report.json", "run.log.jsonl", "trace.json"]


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

    @pytest.mark.parametrize(
        "omega, eps", [("3", "1e-200"), ("1e308", "1e-300")]
    )
    def test_bound_beyond_the_float_range_prints_inf(self, omega, eps, capsys):
        rc = main(["ratio", "--omega", omega, "--gamma", "0", "--k", "1", "--eps", eps])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "inf"

    @pytest.mark.parametrize(
        "flag, value", [("--omega", "nan"), ("--eps", "nan")]
    )
    def test_non_finite_usage_error(self, flag, value, capsys):
        argv = {"--omega": "3", "--gamma": "0.4", "--k": "6", "--eps": "0.05", flag: value}
        rc = main(["ratio", *(x for item in argv.items() for x in item)])
        assert rc == 2
        assert capsys.readouterr().out == ""

    def test_c_tau_is_not_an_option(self, capsys):
        # the bound fixes c_tau at the quality model's 1/2
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--omega", "4", "--gamma", "0.2", "--k", "5", "--eps", "0.05", "--c-tau", "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_tiny_eps_writes_an_infinite_bound(self, tmp_path, capsys):
        out = tmp_path / "sim"
        argv = ["simulate", "--archetype", "diamond", "--size", "6", "--trials", "5", "--eps", "1e-200"]
        assert main([*argv, "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["bound"] == float("inf")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--eps", "-0.1"],
            ["--eps", "nan"],
            ["--eps", "inf"],
            ["--trials", "0"],
            ["--size", "1"],
            ["--size", "0", "--archetype", "chain"],
        ],
    )
    def test_bad_parameters_are_usage_errors(self, flags, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(convergence, "simulate_variance", fail)
        out = tmp_path / "sim"
        argv = ["simulate", "--archetype", "diamond", "--trials", "25", *flags, "--out", str(out)]
        assert main(argv) == 2
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


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

    def test_a_fraction_near_one_leaves_no_test_task(self, tmp_path, capsys):
        # the dev split takes ceil(fraction * n) tasks, so 0.999999 of 3 is all of them
        assert main(["calibrate", "--synthetic", "3", "--fraction", "0.999999", "--out", str(tmp_path / "cal")]) == 0
        assert "dev/test split: 3/0\n" in capsys.readouterr().out

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

    def test_tasks_dir_without_task_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no tasks here")
        (tmp_path / "a.json").mkdir()  # named like a task file, but a directory
        assert main(["calibrate", "--tasks", str(tmp_path), "--out", str(tmp_path / "cal")]) == 2
        assert capsys.readouterr().err == f"usage error: no task files in {tmp_path}\n"
        assert not (tmp_path / "cal").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--synthetic", "-3"],
            ["--synthetic", "20", "--fraction", "1.5"],
            ["--synthetic", "20", "--grid", "a,b"],
            ["--synthetic", "20", "--grid", "2.0"],
        ],
    )
    def test_bad_flags_are_usage_errors(self, flags, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()


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
        assert (out / "confusion_matrix.csv").read_bytes() == (
            b"router,parallel,sequential,hierarchical,hybrid\n"
            b"parallel,1,0,0,0\n"
            b"sequential,0,0,0,1\n"
            b"hierarchical,0,0,0,0\n"
            b"hybrid,0,0,0,1\n"
        )
        hist = (out / "iteration_histogram.csv").read_text().splitlines()
        assert hist == ["iterations,count", "1,2", "2,1"]

    def test_missing_logs_dir(self, capsys):
        assert main(["report", "--logs", "/nonexistent"]) == 2

    def test_logs_dir_without_jsonl_files(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        (tmp_path / "b.jsonl").mkdir()  # named like a log, but a directory
        assert main(["report", "--logs", str(tmp_path), "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == f"usage error: no .jsonl logs in {tmp_path}\n"
        assert not (tmp_path / "rep").exists()

    def test_exec_run_logs_report_without_warning(self, tmp_path, capsys):
        # route and synthesis records are not run records, and not corrupt
        logs = tmp_path / "logs"
        logs.mkdir()
        for i, backend in enumerate(("mock", "scripted:" + os.path.join(FIXTURES, "scripted.json"))):
            assert main(["exec", write_manifest(tmp_path, backend=backend, output_dir=str(tmp_path / "out"))]) == 0
            shutil.copy(tmp_path / "out" / "run.log.jsonl", logs / f"run{i}.jsonl")
        capsys.readouterr()
        assert main(["report", "--logs", str(logs), "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().err == ""
        hist = (tmp_path / "rep" / "iteration_histogram.csv").read_text().splitlines()
        assert hist[0] == "iterations,count" and sum(int(row.split(",")[1]) for row in hist[1:]) == 2

    def test_blank_lines_are_not_corrupt(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        good = json.dumps({"type": "run", "topology": "hybrid", "iterations": 2})
        (logs / "runs.jsonl").write_text(f"\n{good}\n\n  \n{good}\n\n")
        assert main(["report", "--logs", str(logs), "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "rep" / "iteration_histogram.csv").read_text().splitlines() == ["iterations,count", "2,2"]

    def test_run_records_without_a_known_topology_are_skipped(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        bad = [
            {"type": "run", "iterations": 1},
            {"type": "run", "topology": "star", "iterations": 1},
            {"type": "run", "topology": "parallel", "oracle_topology": "star"},
        ]
        (logs / "bad.jsonl").write_text("".join(json.dumps(r) + "\n" for r in bad))
        out = tmp_path / "rep"
        assert main(["report", "--logs", str(logs), "--out", str(out)]) == 2
        assert "no run records" in capsys.readouterr().err
        (logs / "good.jsonl").write_text(json.dumps({"type": "run", "topology": "hybrid", "iterations": 2}) + "\n")
        assert main(["report", "--logs", str(logs), "--out", str(out)]) == 0
        assert "warning: skipped 3 corrupt log line(s)" in capsys.readouterr().err
        hist = (out / "iteration_histogram.csv").read_text().splitlines()
        assert hist == ["iterations,count", "2,1"]
        assert not (out / "confusion_matrix.txt").exists()

    def test_non_object_lines_are_skipped(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        good = {"type": "run", "topology": "hybrid", "iterations": 2}
        (logs / "runs.jsonl").write_text("[1, 2]\n" + json.dumps(good) + "\n")
        out = tmp_path / "rep"
        assert main(["report", "--logs", str(logs), "--out", str(out)]) == 0
        assert "warning: skipped 1 corrupt log line(s)" in capsys.readouterr().err
        assert (out / "iteration_histogram.csv").read_text().splitlines() == ["iterations,count", "2,1"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("iterations", "x"),
            ("iterations", 2.0),
            ("iterations", True),
            ("total_tokens", "100"),
            ("total_tokens", None),
            ("cost_microdollars", [5]),
            ("cost_microdollars", False),
            ("wall_clock", "1.5"),
            ("group", ["a"]),
            ("group", {"a": 1}),
            ("group", 3),
            ("group", "Average"),  # the mean row's name: its row would overwrite this group's
        ],
    )
    def test_run_records_with_bad_field_types_are_skipped(self, field, value, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        bad = {"type": "run", "topology": "parallel", "iterations": 1, field: value}
        good = {"type": "run", "topology": "hybrid", "iterations": 2, "total_tokens": 10,
                "cost_microdollars": 3, "wall_clock": 0.5}
        (logs / "runs.jsonl").write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        out = tmp_path / "rep"
        assert main(["report", "--logs", str(logs), "--out", str(out)]) == 0
        assert "warning: skipped 1 corrupt log line(s)" in capsys.readouterr().err
        assert (out / "iteration_histogram.csv").read_text().splitlines() == ["iterations,count", "2,1"]
        assert "all,0.0,0.0,0.0,100.0" in (out / "topology_distribution.csv").read_text()

    def test_corrupt_lines_warn_but_report(self, tmp_path, capsys):
        logs = self._run_logs(tmp_path)
        with open(logs / "runs.jsonl", "a") as fh:
            fh.write("garbage line\n")
        rc = main(["report", "--logs", str(logs), "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert "corrupt" in capsys.readouterr().err

    def test_a_corrupt_line_is_reported_once(self, tmp_path):
        # a fresh interpreter, where no test harness has configured logging
        logs = tmp_path / "logs"
        logs.mkdir()
        good = {"type": "run", "topology": "hybrid", "iterations": 2}
        (logs / "runs.jsonl").write_text(json.dumps(good) + "\ngarbage line\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "topoflow.cli", "report", "--logs", str(logs), "--out", str(tmp_path / "rep")],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert done.stderr == "warning: skipped 1 corrupt log line(s)\n"


class TestInputFilesNamed:
    def test_a_bad_pricing_file_is_named(self, tmp_path, capsys):
        # the manifest names a router config, a pricing file and a fixture
        (tmp_path / "config.json").write_text("{}")
        (tmp_path / "pricing.json").write_bytes(b'{"as_of": "2026-01-01"}\xff')
        manifest = write_manifest(
            tmp_path, router_config=str(tmp_path / "config.json"), pricing=str(tmp_path / "pricing.json"),
            backend="scripted:" + write_fixture(tmp_path),
        )
        assert main(["exec", manifest]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'pricing.json'}: ")


def modules_loaded_by(code):
    """The modules that ``code``, run in a fresh interpreter, adds to ``sys.modules``."""
    script = f"import sys; before = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))"
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1].split()


def test_import_loads_only_the_stdlib_and_no_http(tmp_path):
    # an offline run must not pay for the HTTP stack, nor need any package but topoflow
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "topoflow")
    every = sorted(f"topoflow.{f[:-3]}" for f in os.listdir(src) if f.endswith(".py") and f != "__init__.py")
    loaded = modules_loaded_by(f"import {', '.join(every)}")
    assert set(every) <= set(loaded)
    assert sorted({m.split(".")[0] for m in loaded} - sys.stdlib_module_names - {"topoflow"}) == []
    assert "http.client" not in loaded and "ssl" not in loaded

    # and a process loads only the layers its subcommand runs
    assert [m for m in modules_loaded_by("import topoflow") if m.startswith("topoflow.")] == []
    run = "from topoflow.cli import main; main({!r})".format
    route = modules_loaded_by(run(["route", os.path.join(FIXTURES, "diamond.json")]))
    assert "topoflow.routing" in route
    assert "graphlib" not in route  # only an invalid DAG's cycle witness needs it
    assert "topoflow.archetypes" not in route  # simulate's parser alone needs its names
    engine = {f"topoflow.{m}" for m in ("accounting", "backends", "execution", "synthesis")}
    assert sorted(set(route) & (engine | {"topoflow.convergence"})) == []
    ratio = modules_loaded_by(run(["ratio", "--omega", "3", "--gamma", "0.4", "--k", "6", "--eps", "0.05"]))
    simulate = modules_loaded_by(
        run(["simulate", "--archetype", "diamond", "--trials", "5", "--out", str(tmp_path / "sim")])
    )
    for loaded in (ratio, simulate):
        assert "topoflow.convergence" in loaded
        assert sorted(set(loaded) & engine) == []
    assert "topoflow.archetypes" in simulate
    # an offline exec runs on the virtual clock: no thread pool, no HTTP stack
    offline = modules_loaded_by(run(["exec", write_manifest(tmp_path, backend="mock")]))
    assert "topoflow.execution" in offline
    assert "topoflow.archetypes" not in offline
    assert sorted(set(offline) & {"concurrent.futures", "http.client", "ssl"}) == []


def _diamond_records(**changes):
    """The diamond's decomposer records, with record v1's fields replaced."""
    with open(os.path.join(FIXTURES, "diamond.json"), encoding="utf-8") as fh:
        records = json.load(fh)
    records[1].update(changes)
    return records


_DEEP = b"[" * 100_000 + b"]" * 100_000  # deeper than the JSON decoder recurses
_TASK_SCORES = {"parallel": 0.5, "sequential": 0.9, "hierarchical": 0.4, "hybrid": 0.6}
_PRICING = {"as_of": "2026-01-01", "rates": {"scripted": {"input_per_1m": "0", "output_per_1m": "0"}}}


def _pricing_rates(**row):
    return {**_PRICING, "rates": {"scripted": {"input_per_1m": "0", "output_per_1m": "0", **row}}}


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# (where the document goes, the document, exit code); "exec-fields" documents
# are manifest fields
MALFORMED_INPUTS = {
    "canonical-id-not-string": ("route-dag", {"vertices": [{"id": 1}, {"id": "a"}], "edges": []}, 3),
    "canonical-description-not-string": ("route-dag", {"vertices": [{"id": "a", "description": 5}], "edges": []}, 3),
    "record-description-not-string": ("exec-dag", _diamond_records(description=5), 3),
    "estimated-tokens-not-number": ("route-dag", _diamond_records(estimated_tokens="many"), 3),
    "depends-on-not-list": ("route-dag", _diamond_records(depends_on=5), 3),
    "depends-on-a-string": ("route-dag", _diamond_records(depends_on="v0"), 3),
    "record-not-object": ("route-dag", [*_diamond_records(), "v4"], 3),
    "config-unknown-key": ("route-config", {"theta_gama": 0.5}, 2),
    "config-threshold-not-number": ("route-config", {"theta_delta": "5"}, 2),
    "config-threshold-out-of-range": ("route-config", {"theta_omega": 1.5}, 2),
    "manifest-config-unknown-key": ("exec-config", {"theta_gama": 0.5}, 2),
    "pricing-no-as-of": ("exec-pricing", {"rates": _PRICING["rates"]}, 2),
    "pricing-no-rates": ("exec-pricing", {"as_of": "2026-01-01"}, 2),
    "pricing-row-no-output": ("exec-pricing", {**_PRICING, "rates": {"scripted": {"input_per_1m": "0"}}}, 2),
    "manifest-backend-not-string": ("exec-fields", {"backend": 5}, 2),
    "manifest-dag-not-string": ("exec-fields", {"dag": None}, 2),
    "manifest-unknown-key": ("exec-fields", {"concurency": 2}, 2),
    "manifest-unknown-backend-mode": ("exec-fields", {"backend": "nonsense"}, 2),
    "dag-no-subtasks": ("exec-dag", [], 3),
    "canonical-dag-no-vertices": ("exec-dag", {"vertices": [], "edges": []}, 3),
    "manifest-not-object": ("exec-manifest", ["dag.json"], 2),
    "task-no-dag": ("calibrate", {"scores": _TASK_SCORES}, 3),
    "task-no-scores": ("calibrate", {"dag": _diamond_records()}, 3),
    "task-unknown-topology": ("calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "star": 1.0}}, 3),
    "task-topology-unscored": ("calibrate", {"dag": _diamond_records(), "scores": {"parallel": 0.5}}, 3),
    # a score must be a finite JSON number: not "0.5", true, NaN, Infinity or past the float range
    "task-score-string": ("calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "hybrid": "0.5"}}, 3),
    "task-score-true": ("calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "hybrid": True}}, 3),
    "task-score-nan": ("calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "hybrid": float("nan")}}, 3),
    "task-score-infinity": (
        "calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "hybrid": float("inf")}}, 3,
    ),
    "task-score-huge-int": ("calibrate", {"dag": _diamond_records(), "scores": {**_TASK_SCORES, "hybrid": 10**400}}, 3),
    "estimated-tokens-huge-int": ("route-dag", _diamond_records(estimated_tokens=10**400), 3),
    "canonical-weight-huge-int": ("route-dag", {"vertices": [{"id": "a", "weight": 10**400}], "edges": []}, 3),
    "canonical-coupling-huge-int": (
        "route-dag",
        {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "b", "coupling": 10**400}]},
        3,
    ),
    "estimated-tokens-infinite": ("route-dag", _diamond_records(estimated_tokens=float("inf")), 3),
    "canonical-weight-string": ("route-dag", {"vertices": [{"id": "a", "weight": "5"}], "edges": []}, 3),
    "canonical-weight-bool": ("route-dag", {"vertices": [{"id": "a", "weight": True}], "edges": []}, 3),
    "canonical-coupling-string": (
        "route-dag",
        {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "b", "coupling": "0.3"}]},
        3,
    ),
    "canonical-coupling-bool": (
        "route-dag",
        {"vertices": [{"id": "a"}, {"id": "b"}], "edges": [{"source": "a", "target": "b", "coupling": True}]},
        3,
    ),
    "canonical-weight-1e400": ("route-dag", b'{"vertices": [{"id": "a", "weight": 1e400}], "edges": []}', 3),
    "dag-int-past-digit-limit": ("route-dag", b'[{"id": "a", "estimated_tokens": 1' + b"0" * 4300 + b"}]", 3),
    "dag-not-utf8": ("route-dag", b'[{"id": "a", "description": "\xff"}]', 3),
    "pricing-no-row-for-pool": ("exec-pricing", {"as_of": "x", "rates": {}}, 2),
    # one good run record and one line that is not UTF-8, which is skipped
    "log-line-not-utf8": (
        "report-logs",
        b'{"type": "run", "topology": "parallel", "iterations": 1}\n\xff\xfe\n',
        0,
    ),
    "dag-nested-too-deep": ("route-dag", _DEEP, 3),
    "config-nested-too-deep": ("route-config", _DEEP, 3),
    "pricing-nested-too-deep": ("exec-pricing", _DEEP, 3),
    "manifest-nested-too-deep": ("exec-manifest", _DEEP, 3),
    "fixture-nested-too-deep": ("exec-fixture", _DEEP, 3),
    "task-nested-too-deep": ("calibrate", _DEEP, 3),
    "log-line-nested-too-deep": (
        "report-logs",
        b'{"type": "run", "topology": "parallel", "iterations": 1}\n' + _DEEP + b"\n",
        0,
    ),
    "config-not-utf8": ("route-config", b'{"theta_gamma": 0.5}\xff', 3),
    "pricing-not-utf8": ("exec-pricing", b'{"as_of": "2026-01-01"}\xff', 3),
    "manifest-not-utf8": ("exec-manifest", b'{"dag": "diamond.json"}\xff', 3),
    "fixture-not-object": ("exec-fixture", [fixture_entries()], 3),
    "fixture-entry-not-object": ("exec-fixture", fixture_entries(v1="option one"), 3),
    "fixture-fail-times-not-integer": ("exec-fixture", fixture_entries(v1={"fail_times": "x"}), 3),
    "fixture-text-not-string": ("exec-fixture", fixture_entries(v1={"text": 5}), 3),
    "fixture-prompt-tokens-1e400": ("exec-fixture", b'{"v1": {"prompt_tokens": 1e400}}', 3),
    "fixture-latency-nan": ("exec-fixture", b'{"v1": {"latency": NaN}}', 3),
    "fixture-latency-negative": ("exec-fixture", fixture_entries(v1={"latency": -1}), 3),
    "fixture-latency-huge-int": ("exec-fixture", fixture_entries(v1={"latency": 10**400}), 3),
    "fixture-latency-not-number": ("exec-fixture", fixture_entries(v1={"latency": "x"}), 3),
    # each latency finite, but their sum, the run's wall clock, past the float range
    "fixture-latency-sum-overflow": (
        "exec-fixture", fixture_entries(v0={"latency": 1e308}, v3={"latency": 1e308}), 3,
    ),
    # a cost past the float range would crash the ledger after every call was made
    "pricing-rate-1e308-string": ("exec-pricing", _pricing_rates(output_per_1m="1e308"), 2),
    "pricing-rate-1e308-number": ("exec-pricing", _pricing_rates(output_per_1m=1e308), 2),
    "pricing-rate-past-ceiling": ("exec-pricing", _pricing_rates(input_per_1m="1000000.000001"), 2),
    "pricing-rate-negative": ("exec-pricing", _pricing_rates(input_per_1m="-1"), 2),
    "fixture-completion-tokens-400-digits": ("exec-fixture-priced", fixture_entries(v1={"completion_tokens": 10**400}), 3),
    "fixture-prompt-tokens-past-ceiling": ("exec-fixture", fixture_entries(v1={"prompt_tokens": 10**12 + 1}), 3),
    # files named as options or in a manifest that do not exist
    "config-missing": ("route-config-missing", None, 2),
    "manifest-config-missing": ("exec-config-missing", None, 2),
    "manifest-pricing-missing": ("exec-pricing-missing", None, 2),
    # file paths that name a directory
    "config-a-directory": ("route-config-dir", None, 2),
    "manifest-dag-a-directory": ("exec-dag-dir", None, 2),
    "manifest-pricing-a-directory": ("exec-pricing-dir", None, 2),
    "fixture-a-directory": ("exec-fixture-dir", None, 2),
    # a directory named like a task file or a log is not one
    "task-file-a-directory": ("calibrate-dir", None, 2),
    "log-a-directory": ("report-logs-dir", None, 2),
    # a number flag whose pool variance leaves the float range
    "simulate-eps-variance-overflow": ("simulate-eps-1e155", None, 2),
}


def _dir_holding_dir(tmp_path, name):
    """A new directory under ``tmp_path`` whose one entry is a directory ``name``."""
    (tmp_path / "inputs" / name).mkdir(parents=True)
    return str(tmp_path / "inputs")


ERR_PREFIX = {0: "warning: skipped 1 corrupt", 2: "usage error: ", 3: "data error: "}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_inputs_exit_cleanly(case, tmp_path, capsys):
    where, doc, code = MALFORMED_INPUTS[case]
    path = tmp_path / ("input.jsonl" if where == "report-logs" else "input.json")
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    diamond = os.path.join(FIXTURES, "diamond.json")
    argv = {
        "route-dag": lambda: ["route", str(path)],
        "route-config": lambda: ["route", diamond, "--config", str(path)],
        "exec-dag": lambda: ["exec", write_manifest(tmp_path, dag=str(path))],
        "exec-manifest": lambda: ["exec", str(path)],
        "exec-config": lambda: ["exec", write_manifest(tmp_path, router_config=str(path))],
        "exec-pricing": lambda: ["exec", write_manifest(tmp_path, pricing=str(path))],
        "exec-fields": lambda: ["exec", write_manifest(tmp_path, **doc)],
        "exec-fixture": lambda: ["exec", write_manifest(tmp_path, backend="scripted:" + str(path))],
        "exec-fixture-priced": lambda: ["exec", write_manifest(
            tmp_path, backend="scripted:" + str(path),
            pricing=_write_json(tmp_path / "pricing.json", _pricing_rates(output_per_1m="2")),
        )],
        "route-config-missing": lambda: ["route", diamond, "--config", str(tmp_path / "nope.json")],
        "exec-config-missing": lambda: ["exec", write_manifest(tmp_path, router_config="nope.json")],
        "exec-pricing-missing": lambda: ["exec", write_manifest(tmp_path, pricing="nope.json")],
        "route-config-dir": lambda: ["route", diamond, "--config", str(tmp_path)],
        "exec-dag-dir": lambda: ["exec", write_manifest(tmp_path, dag=str(tmp_path))],
        "exec-pricing-dir": lambda: ["exec", write_manifest(tmp_path, pricing=".")],
        "exec-fixture-dir": lambda: ["exec", write_manifest(tmp_path, backend="scripted:" + str(tmp_path))],
        "calibrate": lambda: ["calibrate", "--tasks", str(tmp_path), "--out", str(tmp_path / "cal")],
        "report-logs": lambda: ["report", "--logs", str(tmp_path), "--out", str(tmp_path / "rep")],
        "calibrate-dir": lambda: [
            "calibrate", "--tasks", _dir_holding_dir(tmp_path, "a.json"), "--out", str(tmp_path / "cal"),
        ],
        "report-logs-dir": lambda: [
            "report", "--logs", _dir_holding_dir(tmp_path, "b.jsonl"), "--out", str(tmp_path / "rep"),
        ],
        "simulate-eps-1e155": lambda: [
            "simulate", "--archetype", "diamond", "--eps", "1e155", "--trials", "2", "--out", str(tmp_path / "out"),
        ],
    }[where]()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(ERR_PREFIX[code])
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "cal").exists()


def test_readme_cli_block_names_every_flag():
    # each subcommand's lines in README's CLI block, together, name exactly its flags
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("topoflow "):
            command = line.split()[1]
            documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line.split("#")[0]))
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: {s for a in sub._actions for s in a.option_strings if s.startswith("--") and s != "--help"}
        for command, sub in subparsers.choices.items()
    }
    assert documented == flags


def test_readme_manifest_example_names_every_field_and_runs(tmp_path, capsys):
    # README's run-manifest example names exactly the manifest fields that
    # exec checks, and exec accepts it with the files it names beside it
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = fh.read().split("### Run manifest", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    manifest = json.loads(block)
    assert sorted(manifest) == sorted(cli._MANIFEST_FIELDS)
    shutil.copy(os.path.join(FIXTURES, manifest["dag"]), tmp_path / manifest["dag"])
    write_fixture(tmp_path)
    assert manifest["backend"] == "scripted:fixture.json"
    _write_json(tmp_path / manifest["router_config"], {})
    _write_json(tmp_path / manifest["pricing"], _PRICING)
    assert main(["exec", _write_json(tmp_path / "manifest.json", manifest)]) == 0
    assert sorted(os.listdir(tmp_path / manifest["output_dir"])) == [
        "ledger.json", "report.json", "run.log.jsonl", "trace.json"
    ]
