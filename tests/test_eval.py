import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rows_as_sources
from tmlab.biasvar import decompose
from tmlab.corpus import EOS, SEP_TOKEN, build_vocab, encode_corpus, synth_task
from tmlab import ensemble, evalmetrics
from tmlab.ensemble import (
    batch_seq_probs,
    init_weightnet,
    mode_rows,
    mode_seq_probs,
    tm_ids,
)
from tmlab.errors import DataError
from tmlab.evalmetrics import BleuResult, corpus_bleu, token_ce, token_ce_from_dists
from tmlab.model import ModelConfig, TrainConfig, init_params, train, Checkpoint
from tmlab.corpus import BOS, subset
from tmlab.retrieval import build_index, retrieve_topk

sentences = st.lists(st.sampled_from("abcdef"), min_size=1, max_size=7)


def test_bleu_identity_is_100():
    h = [["the", "cat", "sat", "on", "the", "mat"]]
    r = corpus_bleu(h, h)
    assert r.score == pytest.approx(100.0, abs=1e-9)
    assert r.brevity_penalty == 1.0
    assert r.precisions == (1.0, 1.0, 1.0, 1.0)


@settings(max_examples=40)
@given(sentences)
def test_bleu_self_identity_any_sentence(s):
    assert corpus_bleu([s], [s]).score == pytest.approx(100.0, abs=1e-9)


def test_bleu_disjoint_is_tiny():
    # corpus-scale totals: smoothing of zero matches leaves a near-zero score
    hyps = [[f"a{i}_{j}" for j in range(8)] for i in range(30)]
    refs = [[f"b{i}_{j}" for j in range(8)] for i in range(30)]
    assert corpus_bleu(hyps, refs).score < 1.0


def test_bleu_hand_computed_fixture():
    """Three-sentence fixture with n-gram counts worked out by hand.

    matches/totals: p1 = 9/10, p2 = 6/7, p3 = 3/4, p4 = 1/1 (order-4 has
    one hypothesis 4-gram, which matches). hyp_len 10, ref_len 11, so
    BP = exp(1 - 11/10).
    """
    hyps = [
        ["the", "cat", "sat", "down"],
        ["a", "dog", "ran"],
        ["big", "red", "ball"],
    ]
    refs = [
        ["the", "cat", "sat", "down"],
        ["a", "dog", "ran", "away"],
        ["the", "red", "ball"],
    ]
    want = math.exp(1 - 11 / 10) * math.exp(
        (math.log(9 / 10) + math.log(6 / 7) + math.log(3 / 4) + math.log(1.0)) / 4
    ) * 100
    got = corpus_bleu(hyps, refs)
    assert got.score == pytest.approx(want, abs=0.01)
    assert got.precisions == pytest.approx((9 / 10, 6 / 7, 3 / 4, 1.0))
    assert got.hyp_len == 10 and got.ref_len == 11


def test_bleu_corpus_level_permutation_invariant():
    hyps = [["a", "b", "c"], ["d", "e"], ["f", "g", "h", "a"]]
    refs = [["a", "b", "x"], ["d", "e"], ["f", "h", "g", "a"]]
    a = corpus_bleu(hyps, refs)
    b = corpus_bleu(hyps[::-1], refs[::-1])
    assert a == b


def test_bleu_smoothing_only_on_zero_matches():
    # bigram matches exist, so p2 stays an exact ratio; 4-grams are absent
    hyps = [["a", "b", "c"]]
    refs = [["a", "b", "d"]]
    r = corpus_bleu(hyps, refs)
    assert r.precisions[0] == pytest.approx(2 / 3)
    assert r.precisions[1] == pytest.approx(1 / 2)
    assert r.precisions[2] == pytest.approx(1 / 2)  # 0 of 1, smoothed to 1/2
    assert r.precisions[3] == pytest.approx(1.0)    # vacuous order
    assert isinstance(r, BleuResult)


def test_bleu_length_mismatch():
    with pytest.raises(DataError):
        corpus_bleu([["a"]], [["a"], ["b"]])


# ---------------------------------------------------------------------------
# Token-level cross entropy
# ---------------------------------------------------------------------------

TINY = dict(d_model=16, n_heads=2, ffn_dim=24, n_src_layers=1, n_mem_layers=1,
            n_dec_layers=1, dropout=0.0, max_len=48)


@pytest.fixture(scope="module")
def tiny_task():
    task = synth_task(n_pairs=40, n_templates=2, lexicon_size=8, seed=6)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    return task, vocab


def test_token_ce_uniform_model_is_ln_vocab(tiny_task):
    task, vocab = tiny_task
    cfg = ModelConfig(vocab_size=len(vocab), arch="vanilla", **TINY)
    ckpt = Checkpoint(params=init_params(cfg, seed=0), config=cfg, meta={})
    nats, ppl = token_ce(ckpt, task.corpus, vocab)
    assert nats == pytest.approx(math.log(len(vocab)), abs=1e-5)
    assert ppl == pytest.approx(len(vocab), rel=1e-4)


def test_token_ce_peaked_dists_go_to_zero():
    dists = np.full((4, 6), 1e-9)
    golds = np.asarray([0, 3, 5, 2])
    dists[np.arange(4), golds] = 1.0
    assert token_ce_from_dists(dists / dists.sum(-1, keepdims=True), golds) < 1e-6


def test_token_ce_nonnegative_and_trained_is_low(tiny_task):
    task, vocab = tiny_task
    cfg = ModelConfig(vocab_size=len(vocab), arch="vanilla", d_model=32, n_heads=2,
                      ffn_dim=48, n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.0, max_len=48)
    ck = train("vanilla", task.corpus, "none", cfg,
               TrainConfig(epochs=60, batch_size=16, base_lr=3e-3, warmup=20,
                           label_smoothing=0.0),
               seed=0, vocab=vocab)
    nats, _ = token_ce(ck, task.corpus, vocab)
    assert 0.0 <= nats < 0.35


def test_token_ce_matches_biasvar_loss_exactly(tiny_task):
    """The likelihood metric and the estimator's loss term share definitions."""
    task, vocab = tiny_task
    cfg = ModelConfig(vocab_size=len(vocab), arch="dual_enc", **TINY)
    ck = train("dual_enc", task.corpus, "topk", cfg,
               TrainConfig(epochs=1, batch_size=16, base_lr=1e-3, warmup=5, k_retrieval=2),
               seed=1, vocab=vocab)
    enc = encode_corpus(task.corpus, vocab)
    index = build_index(enc)
    nats, _ = token_ce(ck, task.corpus, vocab, mode="vanilla")

    rows, golds = [], []
    for p in enc:
        rows.append(mode_seq_probs("vanilla", ck, vocab.sep_id, p.source, [], (BOS,) + p.target))
        golds.extend(p.target + (EOS,))
    entry = decompose([np.concatenate(rows)], np.asarray(golds), truncate=10_000)
    assert nats == pytest.approx(entry.loss, abs=1e-9)


def test_token_ce_vocab_guard(tiny_task):
    task, vocab = tiny_task
    cfg = ModelConfig(vocab_size=len(vocab), arch="vanilla", **TINY)
    ckpt = Checkpoint(params=init_params(cfg, seed=0), config=cfg,
                      meta={"vocab_hash": "not-the-right-hash"})
    with pytest.raises(DataError, match="vocab mismatch"):
        token_ce(ckpt, task.corpus, vocab)


# ---------------------------------------------------------------------------
# Batched teacher-forced scoring
# ---------------------------------------------------------------------------

ARCH_MODES = [("vanilla", "vanilla")] + [(a, m) for a in ("dual_enc", "single_enc")
                                          for m in ensemble.PREDICT_MODES]


@pytest.fixture(scope="module")
def mixed_task():
    """Test sentences of several lengths, most lengths shared by several."""
    task = synth_task(n_pairs=72, n_templates=5, lexicon_size=8, seed=3)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    test = subset(task.corpus, range(48, 72))
    index = build_index(encode_corpus(subset(task.corpus, range(48)), vocab))
    assert len({len(p.source) for p in test}) > 1
    ckpts = {}
    for arch in ("vanilla", "dual_enc", "single_enc"):
        cfg = ModelConfig(vocab_size=len(vocab), arch=arch, **{**TINY, "max_len": 128})
        params = init_params(cfg, seed=4)
        rng = np.random.default_rng(5)
        for name in ("out_w", "gate.w", "gate.b"):
            if name in params:
                params[name].data = rng.normal(scale=0.5, size=params[name].data.shape).astype(np.float32)
        ckpts[arch] = Checkpoint(params=params, config=cfg, meta={})
    wn = init_weightnet(TINY["d_model"], seed=2)
    wn["wn.score_w"].data = np.random.default_rng(6).normal(size=wn["wn.score_w"].data.shape).astype(np.float32)
    return test, vocab, index, ckpts, wn


def _k(mode):
    return {"vanilla": 0, "single": 1}.get(mode, 3)


@pytest.mark.parametrize("capped", [False, True], ids=["one_forward_per_shape", "row_cap"])
@pytest.mark.parametrize("arch, mode", ARCH_MODES)
def test_token_ce_batched_equals_per_sentence_bitwise(mixed_task, monkeypatch, arch, mode, capped):
    test, vocab, index, ckpts, wn = mixed_task
    ckpt, sep = ckpts[arch], vocab.sep_id if arch != "vanilla" else None
    wn = wn if mode == "weighted" else None
    total, count = 0.0, 0
    for p in encode_corpus(test, vocab):
        Z = [tm_ids(z) for z in retrieve_topk(index, p.source, _k(mode))]
        probs = mode_seq_probs(mode, ckpt, sep, p.source, Z, (BOS,) + p.target, wn)
        golds = np.asarray(p.target + (EOS,), dtype=np.int64)
        total += token_ce_from_dists(probs, golds) * len(golds)
        count += len(golds)

    batches = []
    real_forward = ensemble.forward_rows

    def counted(*args, **kwargs):
        batches.append(sum(len(rows) for rows in args[4]))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(ensemble, "forward_rows", counted)
    index_k = dict(index=index, k=_k(mode)) if mode != "vanilla" else {}
    nats, _ = token_ce(ckpt, test, vocab, mode=mode, weightnet=wn, **index_k)
    assert nats == total / count                      # bit for bit
    R = len(mode_rows(mode, ckpt, [((1,), (1,))] * 3, wn))
    assert len(batches) < len(test) and max(batches) > R
    if capped:
        # a cap that fits two of the longest sentences' rows splits some group,
        # and token_ce passes 2R sentences per call
        V, T = len(vocab), max(len(p.target) for p in test) + 1
        monkeypatch.setattr(ensemble, "MAX_FORWARD_FLOATS", 2 * R * T * V)
        monkeypatch.setattr(evalmetrics, "MAX_FORWARD_FLOATS", 2 * R * T * V)
        uncapped, batches[:] = len(batches), []
        assert token_ce(ckpt, test, vocab, mode=mode, weightnet=wn, **index_k)[0] == nats
        assert len(batches) > uncapped and max(batches) > R


@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_weighted_seq_probs_and_weights_unchanged_bitwise(mixed_task, arch):
    test, vocab, index, ckpts, wn = mixed_task
    ckpt, sep = ckpts[arch], vocab.sep_id
    items = [(p.source, [tm_ids(z) for z in retrieve_topk(index, p.source, 3)], (BOS,) + p.target)
             for p in encode_corpus(test, vocab)]
    batched = batch_seq_probs("weighted", ckpt, sep, items, wn)
    for (x, Z, y_in), (bp, bw) in zip(items, batched):
        probs, weights = batch_seq_probs("weighted", ckpt, sep, [(x, Z, y_in)], wn)[0]
        ref_p, ref_w = rows_as_sources("weighted", ckpt, sep, x, Z, y_in, wn)
        for got in ((probs, weights), (bp, bw)):
            np.testing.assert_array_equal(got[0], ref_p)
            np.testing.assert_array_equal(got[1], ref_w)
