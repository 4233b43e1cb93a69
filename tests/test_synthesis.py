import math
import random
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoflow import synthesis
from topoflow.backends import AgentOutput, ScriptedBackend
from topoflow.dag import Subtask
from topoflow.execution import merge_context
from topoflow.routing import TopologyKind
from topoflow.synthesis import (
    ARBITER_PREFIX,
    MERGE_PREFIX,
    Embedder,
    FixtureEmbedder,
    HashedEmbedder,
    SparseVector,
    SynthesisConfig,
    SynthesisError,
    SynthesisPath,
    consistency_of_candidate,
    consistency_score,
    cosine,
    iteration_bound,
    synthesize,
)

from conftest import DenseHashedEmbedder, oracle_merge_context

PARALLEL = TopologyKind.PARALLEL
SEQUENTIAL = TopologyKind.SEQUENTIAL


def scripted(**fixture):
    return ScriptedBackend({k: {"text": v} for k, v in fixture.items()})


class TestEmbeddings:
    def test_the_sparse_builder_is_the_one_contract(self):
        assert Embedder.__abstractmethods__ == {"build_sparse"}
        assert "embed" not in vars(FixtureEmbedder)
        assert typing.get_type_hints(merge_context)["embedder"] is Embedder

    def test_hashed_embedder_deterministic_and_normalized(self):
        emb = HashedEmbedder()
        a = emb.embed("alpha beta gamma")
        assert a == emb.embed("alpha beta gamma")
        assert math.isclose(sum(x * x for x in a), 1.0)
        assert len(a) == 256

    def test_identical_texts_cosine_one(self):
        emb = HashedEmbedder()
        assert cosine(emb.embed("same words"), emb.embed("same words")) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        emb = HashedEmbedder()
        assert cosine(emb.embed(""), emb.embed("thing")) == 0.0


class TestConsistencyScore:
    def test_single_output_is_one(self):
        assert consistency_score(["anything"], HashedEmbedder()) == 1.0

    def test_known_cosines(self):
        emb = FixtureEmbedder({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 0.0]})
        # pairs: (a,b)=0, (a,c)=1, (b,c)=0 -> mean 1/3
        assert consistency_score(["a", "b", "c"], emb) == pytest.approx(1.0 / 3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            consistency_score([], HashedEmbedder())

    @given(st.lists(st.sampled_from(["red fox", "blue sky", "green hill", "red sky"]),
                    min_size=2, max_size=5),
           st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, texts, seed):
        emb = HashedEmbedder()
        shuffled = list(texts)
        random.Random(seed).shuffle(shuffled)
        assert consistency_score(texts, emb) == pytest.approx(consistency_score(shuffled, emb))

    def test_candidate_score(self):
        emb = FixtureEmbedder({"cand": [1.0, 0.0], "o1": [1.0, 0.0], "o2": [0.0, 1.0]})
        assert consistency_of_candidate("cand", ["o1", "o2"], emb) == pytest.approx(0.5)

    def test_candidate_without_originals_raises(self):
        with pytest.raises(ValueError):
            consistency_of_candidate("cand", [], HashedEmbedder())


# The dense formulas the scores were defined by; the sparse path must match
# them bit for bit, because mock outputs tie on relevance and ties are broken
# by subtask id, so one ulp can reorder a context.  For hashed texts ``emb`` is
# ``conftest.DenseHashedEmbedder``, the dense reference.

def dense_consistency(outputs, emb):
    if len(outputs) == 1:
        return 1.0
    vecs = [emb.embed(o) for o in outputs]
    total = 0.0
    pairs = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            total += cosine(vecs[i], vecs[j])
            pairs += 1
    return total / pairs


def dense_candidate(candidate, originals, emb):
    cand = emb.embed(candidate)
    return sum(cosine(cand, emb.embed(o)) for o in originals) / len(originals)


def dense_relevance(emb):
    return lambda text, description: cosine(emb.embed(text), emb.embed(description))


def sparse_relevance(emb):
    """The relevance that ``merge_context`` ranks by."""
    return lambda text, description: synthesis._sparse_cosine(emb.sparse(text), emb.sparse(description))


TEXTS = st.lists(
    st.sampled_from(["red", "Fox", "fox", "blue", "sky", "the", "a", "x1", "[mock0]", "result"]),
    max_size=8,
).map(" ".join)  # "" included
# many repeats of a few tokens, in any case: counts above 1 on shared indices
LONG_TEXTS = st.lists(st.sampled_from(["Red", "RED", "red", "fox", "sky", "x1"]), max_size=300).map(" ".join)
ENTRY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(min_value=-1e3, max_value=1e3))


def fixture_vectors(dim):
    vector = st.one_of(st.lists(ENTRY, min_size=dim, max_size=dim), st.just([0.0] * dim))
    return st.lists(vector, min_size=2, max_size=7)


class TestSparseExactness:
    @given(st.integers(min_value=1, max_value=256), st.lists(TEXTS, min_size=1, max_size=6), TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_hashed_matches_dense(self, dim, texts, other):
        texts = texts + texts[:2]  # repeated texts
        emb, ref = HashedEmbedder(dim), DenseHashedEmbedder(dim)
        assert repr(consistency_score(texts, emb)) == repr(dense_consistency(texts, ref))
        assert repr(consistency_of_candidate(other, texts, emb)) == repr(dense_candidate(other, texts, ref))
        rel, dense = sparse_relevance(emb), dense_relevance(ref)
        assert [repr(rel(t, other)) for t in texts] == [repr(dense(t, other)) for t in texts]

    @given(st.integers(min_value=1, max_value=12).flatmap(fixture_vectors))
    @settings(max_examples=200, deadline=None)
    def test_fixture_matches_dense(self, vectors):
        names = [f"t{i}" for i in range(len(vectors))]
        emb = FixtureEmbedder(dict(zip(names, vectors)))
        ref = SimpleNamespace(embed=emb.vectors.__getitem__)
        texts = names[1:] + names[1:2]
        assert repr(consistency_score(texts, emb)) == repr(dense_consistency(texts, ref))
        assert repr(consistency_of_candidate(names[0], texts, emb)) == repr(dense_candidate(names[0], texts, ref))
        rel, dense = sparse_relevance(emb), dense_relevance(ref)
        assert [repr(rel(a, b)) for a in names for b in names] == [
            repr(dense(a, b)) for a in names for b in names
        ]

    @given(st.integers(min_value=1, max_value=64), st.lists(TEXTS, min_size=1, max_size=10), TEXTS,
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_merge_context_ties_match_dense(self, dim, texts, description, rnd):
        # repeated and reordered texts tie exactly; the tie is broken by id
        texts = texts + [" ".join(reversed(t.split())) for t in texts]
        ids = [f"v{i}" for i in range(len(texts))]
        rnd.shuffle(ids)
        outputs = [
            AgentOutput(text=t, prompt_tokens=1, completion_tokens=1, latency=0.1, backend="m", subtask_id=v)
            for t, v in zip(texts, ids)
        ]
        target = Subtask("t", description=description)
        sparse = merge_context(outputs, target, 10**6, HashedEmbedder(dim))
        assert sparse == oracle_merge_context(outputs, target, 10**6, dense_relevance(DenseHashedEmbedder(dim)))

    @given(st.integers(min_value=1, max_value=256), st.lists(st.one_of(TEXTS, LONG_TEXTS, st.text(max_size=40))))
    @settings(max_examples=200, deadline=None)
    def test_sparse_is_the_dense_reference(self, dim, texts):
        # one embedder for every text, so its token memo is reused across texts
        emb, ref = HashedEmbedder(dim), DenseHashedEmbedder(dim)
        for text in [*texts, "", *texts]:
            dense = ref.embed(text)
            entries = {i: x for i, x in enumerate(dense) if x}
            expected = SparseVector(entries, math.sqrt(sum(x * x for x in entries.values())))
            assert repr(emb.sparse(text)) == repr(expected)
            assert repr(emb.embed(text)) == repr(dense)

    def test_each_distinct_text_embedded_once(self, monkeypatch):
        emb = HashedEmbedder()
        texts = []
        build = emb.build_sparse
        monkeypatch.setattr(emb, "build_sparse", lambda text: texts.append(text) or build(text))
        consistency_score(["a b", "a b", "c"], emb)
        consistency_of_candidate("c", ["a b", "d"], emb)
        d = AgentOutput(text="d", prompt_tokens=1, completion_tokens=1, latency=0.1, backend="m", subtask_id="v")
        merge_context([d], Subtask("t", description="a b"), 10, emb)
        assert texts == ["a b", "c", "d"]

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(synthesis, "EMBED_CACHE_SIZE", 2)
        emb = FixtureEmbedder({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        texts = []
        build = emb.build_sparse
        monkeypatch.setattr(emb, "build_sparse", lambda text: texts.append(text) or build(text))
        for text in ("a", "b", "a", "c", "a"):
            emb.sparse(text)
        # the memo evicts the least recently used text: "b", which "c" replaces, not "a"
        assert texts == ["a", "b", "c"]


class TestIterationBound:
    @pytest.mark.parametrize(
        "gamma0,expected",
        [(0.0, 5), (0.2, 4), (0.3, 4), (0.4, 3), (0.5, 3), (0.6, 2), (0.8, 1), (1.0, 1)],
    )
    def test_bound_values(self, gamma0, expected):
        assert iteration_bound(gamma0) == expected

    def test_never_exceeds_five(self):
        for g in [i / 100 for i in range(101)]:
            assert 1 <= iteration_bound(g) <= 5


class TestSynthesize:
    def test_sequential_returns_last(self):
        result = synthesize(
            ["first", "last"], SEQUENTIAL, SynthesisConfig(), scripted(),
        )
        assert result.final_text == "last"
        assert result.path is SynthesisPath.SEQUENTIAL_LAST
        assert result.iterations == 1
        assert not result.to_record()["escalated"]

    def test_consistent_outputs_merged(self):
        merge = scripted(merge="merged text")
        result = synthesize(
            ["same words here", "same words here"], PARALLEL, SynthesisConfig(), merge,
        )
        assert result.final_text == "merged text"
        assert result.path is SynthesisPath.MERGE
        assert result.consistency == pytest.approx(1.0)
        assert result.route_trail == ((0.0, TopologyKind.PARALLEL),)

    def test_merge_prompt_carries_prefix_and_outputs(self):
        captured = {}

        class Spy(ScriptedBackend):
            def invoke(self, instruction, context, *, tag=None):
                captured["instruction"] = instruction
                return super().invoke(instruction, context, tag=tag)

        merge = Spy({"merge": {"text": "m"}})
        synthesize(["aaa bbb", "aaa bbb"], PARALLEL, SynthesisConfig(), merge)
        assert captured["instruction"].startswith(MERGE_PREFIX)
        assert "aaa bbb" in captured["instruction"]

    def test_inconsistent_goes_to_arbiter(self):
        emb = FixtureEmbedder({
            "alpha": [1.0, 0.0], "omega": [0.0, 1.0], "verdict": [1.0, 1.0],
        })
        arbiter = scripted(arbiter="verdict")
        result = synthesize(
            ["alpha", "omega"], PARALLEL, SynthesisConfig(theta_cs=0.6),
            arbiter, embedder=emb,
        )
        # candidate cosine to each original = cos(45 deg) ~= 0.707 >= 0.6
        assert result.final_text == "verdict"
        assert result.path is SynthesisPath.ARBITER
        assert result.to_record()["escalated"]

    def test_reroute_raises_gamma_by_step(self):
        emb = FixtureEmbedder({
            "alpha": [1.0, 0.0], "omega": [0.0, 1.0], "bad": [-1.0, 0.0],
            "resolved": [1.0, 0.0],
        })
        gammas = []

        def reroute(gamma):
            gammas.append(gamma)
            return ["resolved"], SEQUENTIAL

        result = synthesize(
            ["alpha", "omega"], PARALLEL, SynthesisConfig(theta_cs=0.8, gamma0=0.3),
            scripted(arbiter="bad"), reroute=reroute, embedder=emb,
        )
        assert gammas == [0.5]
        assert result.final_text == "resolved"
        assert result.iterations == 2
        assert result.route_trail == (
            (0.3, TopologyKind.PARALLEL), (0.5, TopologyKind.SEQUENTIAL),
        )

    def test_always_failing_arbiter_respects_bound(self):
        emb = FixtureEmbedder({
            "alpha": [1.0, 0.0], "omega": [0.0, 1.0], "bad": [-1.0, 0.0],
        })
        for gamma0 in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]:
            calls = []

            def reroute(gamma):
                calls.append(gamma)
                return ["alpha", "omega"], PARALLEL

            result = synthesize(
                ["alpha", "omega"], PARALLEL, SynthesisConfig(gamma0=gamma0),
                scripted(arbiter="bad"), reroute=reroute, embedder=emb,
            )
            assert result.path is SynthesisPath.ESCALATED
            assert result.to_record()["escalated"]
            assert result.iterations <= iteration_bound(gamma0)
            assert result.iterations <= 5

    def test_no_reroute_callback_escalates_immediately(self):
        emb = FixtureEmbedder({
            "alpha": [1.0, 0.0], "omega": [0.0, 1.0], "bad": [-1.0, 0.0],
        })
        result = synthesize(
            ["alpha", "omega"], PARALLEL, SynthesisConfig(gamma0=0.0),
            scripted(arbiter="bad"), embedder=emb,
        )
        assert result.iterations == 1
        assert result.path is SynthesisPath.ESCALATED

    def test_backend_failure_raises_synthesis_error(self):
        broken = ScriptedBackend({"merge": {"text": "x", "fail": True}})
        calls = []
        with pytest.raises(SynthesisError) as exc_info:
            synthesize(
                ["same", "same"], PARALLEL, SynthesisConfig(), broken, calls=calls,
            )
        assert exc_info.value.route_trail == ((0.0, TopologyKind.PARALLEL),)
        assert calls == []

    def test_empty_outputs_rejected(self):
        with pytest.raises(ValueError):
            synthesize([], PARALLEL, SynthesisConfig(), scripted())

    def test_theta_cs_range_checked(self):
        with pytest.raises(ValueError):
            SynthesisConfig(theta_cs=1.5)


class TestTemplates:
    def test_prefixes_loaded(self):
        assert MERGE_PREFIX == "Synthesize these consistent outputs: "
        assert ARBITER_PREFIX == "Resolve conflicts among: "
