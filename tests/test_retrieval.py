import collections
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmlab.corpus import corpus_from_pairs, synth_task
from tmlab.errors import DataError
from tmlab.retrieval import (
    brute_force_topk,
    build_index,
    candidates,
    edit_distance,
    load_index,
    rank_by_similarity,
    retrieve_topk,
    sample_tm_probs,
    save_index,
    similarity,
)
from tmlab.seeding import substream

token_seqs = st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=8)


def test_edit_distance_examples():
    assert edit_distance(["a", "b", "c"], ["a", "b", "c"]) == 0
    assert edit_distance([], ["a", "b"]) == 2
    assert edit_distance(["the", "cat", "sat"], ["the", "dog", "sat"]) == 1


def _dp_oracle(a, b):
    """Plain full-table Levenshtein used as an independent reference."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n][m]


# up to 80 tokens over 2..12 symbols: bit masks wider than 64 bits, tokens
# missing from one side, empty sides
wide_seq_pairs = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.sampled_from("abcdefghijkl"[:n]), max_size=80),
    st.lists(st.sampled_from("abcdefghijkl"[:n]), max_size=80),
))


@settings(max_examples=150)
@given(wide_seq_pairs)
def test_edit_distance_matches_full_table(ab):
    a, b = ab
    assert edit_distance(a, b) == _dp_oracle(a, b)


@settings(max_examples=50)
@given(token_seqs, token_seqs)
def test_edit_distance_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@settings(max_examples=50)
@given(token_seqs, token_seqs, token_seqs)
def test_edit_distance_triangle(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_similarity_examples():
    assert similarity(["x", "y"], ["x", "y"]) == 1.0
    assert similarity(["a"], ["b"]) == 0.0
    assert similarity(["the", "cat", "sat"], ["the", "dog", "sat"]) == pytest.approx(2 / 3)
    with pytest.raises(DataError):
        similarity([], [])


@settings(max_examples=50)
@given(token_seqs, token_seqs)
def test_similarity_symmetric_and_bounded(a, b):
    if not a and not b:
        return
    s = similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == similarity(b, a)


def _tiny_corpus():
    return corpus_from_pairs([
        (["the", "cat", "sat"], ["le", "chat"]),
        (["the", "dog", "sat"], ["le", "chien"]),
        (["a", "bird", "flew"], ["un", "oiseau"]),
        (["the", "cat", "sat"], ["le", "chat", "bis"]),
    ])


def test_build_index_posting_lists():
    idx = build_index(corpus_from_pairs([(["a", "b"], ["x"])]))
    assert idx.postings["a"].tolist() == [0]
    assert idx.postings["b"].tolist() == [0]
    with pytest.raises(DataError):
        build_index(corpus_from_pairs([]))


def test_duplicate_sources_both_indexed():
    idx = build_index(_tiny_corpus())
    hits = retrieve_topk(idx, ["the", "cat", "sat"], k=4)
    ids = [z.pair_id for z in hits]
    assert ids[:2] == [0, 3]
    assert hits[0].similarity == 1.0 and hits[1].similarity == 1.0


def test_candidates_overlap_and_padding():
    idx = build_index(_tiny_corpus())
    pool = candidates(idx, ["the", "zzz"], limit=100)
    # three pairs share "the"; the rest pads in ascending id order
    assert pool == [0, 1, 3, 2]
    assert candidates(idx, ["qqq"], limit=2) == [0, 1]
    assert candidates(idx, ["bird"], limit=1) == [2]


def test_candidates_brute_force_overlap_agreement():
    task = synth_task(200, 6, 15, seed=3)
    idx = build_index(task.corpus)
    rng = substream(0, "queries")
    for qi in rng.choice(len(task.corpus), size=10, replace=False):
        q = task.corpus[int(qi)].source
        got = candidates(idx, q, limit=25)
        counts = []
        for p in task.corpus:
            cq = collections.Counter(q)
            cp = collections.Counter(p.source)
            overlap = sum(min(cq[t], cp[t]) for t in cq)
            counts.append((-overlap, p.pair_id))
        want_scored = [pid for ov, pid in sorted(counts) if ov < 0][:25]
        assert got[: len(want_scored)] == want_scored[: len(got)]


def test_retrieve_topk_self_exclusion():
    idx = build_index(_tiny_corpus())
    q = ["the", "cat", "sat"]
    with_self = retrieve_topk(idx, q, k=2)
    assert with_self[0].pair_id == 0 and with_self[0].similarity == 1.0
    no_self = retrieve_topk(idx, q, k=4, exclude_pair_id=0, exclude_exact=True)
    assert all(z.pair_id != 0 for z in no_self)
    assert all(z.source != tuple(q) for z in no_self)


def test_retrieve_topk_is_pure():
    idx = build_index(_tiny_corpus())
    a = retrieve_topk(idx, ["the", "dog"], k=3)
    b = retrieve_topk(idx, ["the", "dog"], k=3)
    assert a == b


def test_retrieve_topk_ordering_invariant():
    idx = build_index(_tiny_corpus())
    out = retrieve_topk(idx, ["the", "cat", "sat"], k=4)
    sims = [z.similarity for z in out]
    assert sims == sorted(sims, reverse=True)
    ids = [z.pair_id for z in out]
    assert len(set(ids)) == len(ids)
    for z1, z2 in zip(out, out[1:]):
        if z1.similarity == z2.similarity:
            assert z1.pair_id < z2.pair_id


def test_retrieve_topk_matches_brute_force_on_synth():
    task = synth_task(400, 8, 20, seed=1)
    idx = build_index(task.corpus)
    rng = substream(7, "queries")
    misses = 0
    for qi in rng.choice(len(task.corpus), size=25, replace=False):
        q = task.corpus[int(qi)].source
        pooled = retrieve_topk(idx, q, k=5, exclude_pair_id=int(qi), exclude_exact=True)
        exact = brute_force_topk(idx, q, k=5, exclude_pair_id=int(qi), exclude_exact=True)
        pool_ids = set(candidates(idx, q, limit=100))
        if all(z.pair_id in pool_ids for z in exact):
            assert pooled == exact
        else:
            misses += 1
    assert misses <= 2


def _unpruned_topk(index, x, k, exclude_pair_id, exclude_exact, pool):
    """Rank the whole pool, filter, take the first k: no pruning."""
    xt = tuple(x)
    kept = [z for z in rank_by_similarity(index, x, candidates(index, x, pool))
            if z.pair_id != exclude_pair_id and not (exclude_exact and z.source == xt)]
    return tuple(kept[:k])


def _lexsort_pool(index, x, limit):
    """Pool rule by a full sort of every hit, then zero-overlap padding."""
    scores = np.zeros(len(index), dtype=np.int64)
    for tok, cx in collections.Counter(x).items():
        if tok in index.postings:
            scores[index.postings[tok]] += np.minimum(cx, index.counts[tok])
    hit_ids = np.flatnonzero(scores)
    pool = hit_ids[np.lexsort((hit_ids, -scores[hit_ids]))][:limit].tolist()
    pool += [pid for pid in range(len(index)) if scores[pid] == 0][: limit - len(pool)]
    return pool


# small stores over a 4-symbol alphabet: many duplicate sources, many ties
small_sources = st.lists(st.sampled_from("abcd"), min_size=1, max_size=6)


@settings(max_examples=300)
@given(st.lists(small_sources, min_size=1, max_size=24), small_sources, st.data())
def test_pruned_topk_equals_unpruned_reference(store, x, data):
    n = len(store)
    index = build_index(corpus_from_pairs([(s, ["t"]) for s in store]))
    k = data.draw(st.integers(1, n + 2), label="k")
    pool = data.draw(st.integers(1, 2 * n), label="pool")
    exclude = data.draw(st.none() | st.integers(0, n - 1), label="exclude_pair_id")
    exact = data.draw(st.booleans(), label="exclude_exact")
    assert candidates(index, x, pool) == _lexsort_pool(index, x, pool)
    assert retrieve_topk(index, x, k, exclude_pair_id=exclude, exclude_exact=exact, pool=pool) \
        == _unpruned_topk(index, x, k, exclude, exact, pool)


def test_index_roundtrip(tmp_path):
    task = synth_task(120, 4, 10, seed=2)
    idx = build_index(task.corpus)
    p = tmp_path / "tm.idx"
    save_index(idx, p)
    assert p.read_bytes().startswith(b"TMIDX1")
    idx2 = load_index(p)
    rng = substream(5, "queries")
    for qi in rng.choice(len(task.corpus), size=100, replace=True):
        q = task.corpus[int(qi)].source
        assert retrieve_topk(idx, q, k=5) == retrieve_topk(idx2, q, k=5)


def test_sample_tm_probabilities_closed_form():
    # pool sims {1.0, 0.5} at T=0.5 -> softmax of (2, 1) = (0.731059, 0.268941)
    corpus = corpus_from_pairs([
        (["a", "b"], ["x"]),
        (["a", "c"], ["y"]),
    ])
    idx = build_index(corpus)
    probs, pairs = sample_tm_probs(idx, ["a", "b"], temperature=0.5)
    assert [z.pair_id for z in pairs] == [0, 1]
    np.testing.assert_allclose(probs, [0.731059, 0.268941], atol=1e-6)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_sample_tm_low_temperature_is_argmax():
    corpus = corpus_from_pairs([
        (["a", "b", "c"], ["x"]),
        (["a", "b", "d"], ["y"]),
        (["q", "r", "s"], ["z"]),
    ])
    idx = build_index(corpus)
    probs, pairs = sample_tm_probs(idx, ["a", "b", "c"], 1e-6)
    assert pairs[0].pair_id == 0 and probs[0] > 0.999


def test_sample_tm_single_candidate_and_bad_temperature():
    idx = build_index(corpus_from_pairs([(["a"], ["x"])]))
    probs, pairs = sample_tm_probs(idx, ["a"], 1.0)
    assert [z.pair_id for z in pairs] == [0] and probs.tolist() == [1.0]
    with pytest.raises(DataError):
        sample_tm_probs(idx, ["a"], 0.0)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_index_corrupt_file_raises_data_error(tmp_path, data):
    good = tmp_path / "good.idx"
    save_index(build_index(_tiny_corpus()), good)
    raw = good.read_bytes()
    bad = tmp_path / "bad.idx"
    bad.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(DataError):
        load_index(bad)
    flipped = bytearray(raw)
    flipped[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(st.integers(1, 255))
    bad.write_bytes(bytes(flipped))
    try:
        idx = load_index(bad)
    except DataError:
        return
    # a flip the checksum cannot see (unused bits of the last deflate byte)
    assert idx.sources == load_index(good).sources


@pytest.mark.parametrize("body", [
    b"\xff\xfe", b"{not json", b"[]", b'{"sources": []}', b'{"sources": {}, "targets": {}}',
    b'{"sources": [["a"]], "targets": []}', b'{"sources": [1], "targets": [2]}',
    b'{"sources": [["a", ["b"]]], "targets": [["x"]]}',
])
def test_load_index_rejects_malformed_body(tmp_path, body):
    packed = zlib.compress(body)
    p = tmp_path / "bad.idx"
    p.write_bytes(b"TMIDX1\x00" + struct.pack("<I", len(packed)) + packed)
    with pytest.raises(DataError, match="corrupt TMIDX1 index"):
        load_index(p)
