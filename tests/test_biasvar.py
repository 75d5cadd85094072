import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab import biasvar
from tmlab.biasvar import (
    FULL_SCALE_REFERENCE,
    decompose,
    estimate_bias_variance,
    geometric_mean_dist,
    kl,
    mc_variance_check,
    truncate_top,
)
from tmlab.corpus import BOS, SEP_TOKEN, build_vocab, encode_corpus, subset, synth_task
from tmlab.ensemble import (
    PREDICT_MODES, Family, FinetuneResult, init_weightnet, mode_seq_probs, tm_ids,
)
from tmlab.errors import DataError
from tmlab.evalmetrics import token_ce_from_dists
from tmlab.model import Checkpoint, ModelConfig, TrainConfig, init_params
from tmlab.retrieval import build_index, retrieve_topk


def dirichlet_lists(size):
    return st.lists(st.floats(0.05, 10.0), min_size=size, max_size=size).map(
        lambda xs: np.asarray(xs) / np.sum(xs)
    )


# ---------------------------------------------------------------------------
# Distribution arithmetic
# ---------------------------------------------------------------------------

def test_geometric_mean_examples():
    p = np.asarray([0.3, 0.7])
    np.testing.assert_allclose(geometric_mean_dist([p, p, p]), p, atol=1e-12)
    np.testing.assert_allclose(
        geometric_mean_dist([np.asarray([0.8, 0.2]), np.asarray([0.2, 0.8])]),
        [0.5, 0.5],
        atol=1e-12,
    )
    np.testing.assert_allclose(geometric_mean_dist([p]), p, atol=1e-12)
    with pytest.raises(DataError):
        geometric_mean_dist([])


@settings(max_examples=30)
@given(dirichlet_lists(5), dirichlet_lists(5), dirichlet_lists(5))
def test_geometric_mean_permutation_invariant(a, b, c):
    x = geometric_mean_dist([a, b, c])
    y = geometric_mean_dist([c, a, b])
    np.testing.assert_allclose(x, y, atol=1e-12)


def test_truncate_top_examples():
    d = np.full(50, 1 / 50)
    np.testing.assert_array_equal(truncate_top(d, 100), d)
    np.testing.assert_allclose(truncate_top(np.asarray([0.5, 0.3, 0.2]), 2),
                               [0.625, 0.375, 0.0], atol=1e-12)
    out = truncate_top(np.random.default_rng(0).dirichlet(np.ones(300)), 100)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    assert (out > 0).sum() == 100
    # ties resolve toward the lower token id
    tied = truncate_top(np.asarray([0.25, 0.25, 0.25, 0.25]), 2)
    np.testing.assert_allclose(tied, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_kl_hand_values():
    p = np.asarray([0.8, 0.2])
    u = np.asarray([0.5, 0.5])
    assert kl(p, p) == pytest.approx(0.0, abs=1e-15)
    assert kl(p, u) == pytest.approx(0.192745, abs=1e-6)
    assert kl(u, p) == pytest.approx(0.223144, abs=1e-6)


@settings(max_examples=50)
@given(dirichlet_lists(6), dirichlet_lists(6))
def test_kl_nonnegative_zero_iff_equal(p, q):
    v = kl(p, q)
    assert v >= -1e-12
    if np.allclose(p, q, atol=1e-15):
        assert v == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def test_decompose_two_model_hand_case():
    dists = [np.asarray([[0.8, 0.2]]), np.asarray([[0.2, 0.8]])]
    golds = np.asarray([0])
    e = decompose(dists, golds, truncate=100)
    assert e.loss == pytest.approx(0.916291, abs=1e-6)
    assert e.var_forward == pytest.approx(0.192745, abs=1e-4)
    assert e.var_reverse == pytest.approx(0.223144, abs=1e-4)
    assert e.bias2_reverse == pytest.approx(math.log(2), abs=1e-6)
    assert e.loss == pytest.approx(e.bias2_reverse + e.var_reverse, abs=1e-9)
    assert abs(e.identity_gap) < 1e-9
    assert not e.negative_bias_flag


def test_decompose_identical_models_zero_variance():
    d = np.random.default_rng(1).dirichlet(np.ones(8), size=5)
    golds = np.random.default_rng(2).integers(0, 8, size=5)
    e = decompose([d, d.copy(), d.copy()], golds, truncate=100)
    assert e.var_forward == pytest.approx(0.0, abs=1e-12)
    assert e.var_reverse == pytest.approx(0.0, abs=1e-12)
    assert e.loss == pytest.approx(token_ce_from_dists(d, golds), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_exact_order_identity_on_random_ensembles(m, seed):
    """mean CE equals KL(gold || geomean) + mean KL(geomean || model) exactly."""
    rng = np.random.default_rng(seed)
    dists = [rng.dirichlet(np.ones(12), size=7) for _ in range(m)]
    golds = rng.integers(0, 12, size=7)
    e = decompose(dists, golds, truncate=100)
    assert abs(e.identity_gap) < 1e-9
    assert e.loss == pytest.approx(e.kl_gold_mean + e.var_reverse, abs=1e-9)


def test_full_scale_reference_orderings():
    ref = FULL_SCALE_REFERENCE
    assert ref["base"]["variance"] > ref["vanilla"]["variance"]
    assert ref["weighted"]["variance"] < ref["base"]["variance"]
    assert all(ref[m]["bias2"] < ref["vanilla"]["bias2"] for m in
               ("base", "single", "average", "weighted"))


# ---------------------------------------------------------------------------
# Monte-Carlo variance of sample means
# ---------------------------------------------------------------------------

def test_mc_variance_bernoulli():
    v1, vk = mc_variance_check([0.0, 1.0], [0.5, 0.5], k=5, n_samples=200_000, seed=0)
    assert v1 == pytest.approx(0.25, abs=0.005)
    assert vk / v1 == pytest.approx(0.2, rel=0.03)


def test_mc_variance_constant_and_k1():
    v1, vk = mc_variance_check([3.0, 3.0], [0.5, 0.5], k=4, n_samples=1000, seed=1)
    assert v1 == 0.0 and vk == 0.0
    v1, vk = mc_variance_check([0.0, 1.0], [0.3, 0.7], k=1, n_samples=5000, seed=2)
    assert v1 == vk  # same draws, same estimator


def test_mc_variance_ratio_trend():
    ratios = []
    for n in (1_000, 10_000, 100_000):
        v1, vk = mc_variance_check([0.0, 1.0], [0.5, 0.5], k=4, n_samples=n, seed=3)
        ratios.append(vk / v1)
    assert abs(ratios[-1] - 0.25) < abs(ratios[0] - 0.25) + 0.05


def test_mc_variance_validation():
    with pytest.raises(DataError):
        mc_variance_check([1.0], [1.0], k=0, n_samples=10)
    with pytest.raises(DataError):
        mc_variance_check([1.0, 2.0], [1.0], k=1, n_samples=10)


# ---------------------------------------------------------------------------
# Split-model estimator (desk-scale smoke)
# ---------------------------------------------------------------------------

TINY = dict(d_model=16, n_heads=2, ffn_dim=24, n_src_layers=1, n_mem_layers=1,
            n_dec_layers=1, dropout=0.0, max_len=48)


def test_estimate_bias_variance_smoke_and_determinism():
    task = synth_task(n_pairs=70, n_templates=4, lexicon_size=8, seed=4)
    corpus = subset(task.corpus, range(60))
    test_pairs = subset(task.corpus, range(60, 66))
    cfg = ModelConfig(vocab_size=0, arch="dual_enc", **TINY)
    tc = TrainConfig(epochs=2, batch_size=16, base_lr=2e-3, warmup=10, k_retrieval=3)
    modes = ["vanilla", "base"]
    rep1 = estimate_bias_variance(modes, corpus, test_pairs, config=cfg, train_cfg=tc,
                                  k_splits=2, seed=5)
    rep2 = estimate_bias_variance(modes, corpus, test_pairs, config=cfg, train_cfg=tc,
                                  k_splits=2, seed=5)
    for e1, e2 in zip(rep1.entries, rep2.entries):
        assert (e1.loss, e1.var_forward, e1.var_reverse) == (e2.loss, e2.var_forward, e2.var_reverse)
    for e in rep1.entries:
        assert e.loss > 0 and e.var_forward >= 0 and e.var_reverse >= 0
        assert e.bias2_forward == pytest.approx(e.loss - e.var_forward, abs=1e-12)
    assert rep1.n_points == sum(len(p.target) + 1 for p in test_pairs)
    rows = rep1.csv_rows()
    assert len(rows) == 4 and rows[0][1] == "forward_kl"
    assert "bias_variance_report" in rep1.to_text()


def test_estimator_dists_equal_the_per_sentence_loop_bitwise(monkeypatch):
    task = synth_task(n_pairs=60, n_templates=5, lexicon_size=8, seed=3)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    split, enc_test = subset(task.corpus, range(40)), encode_corpus(subset(task.corpus, range(40, 60)), vocab)
    cfg = ModelConfig(vocab_size=len(vocab), arch="dual_enc", **TINY)
    ckpts = {tm: Checkpoint(params=init_params(cfg, seed=s), config=cfg, meta={})
             for s, tm in enumerate(("none", "topk", "single_multi"))}
    wn = init_weightnet(cfg.d_model, seed=1)
    wn["wn.score_w"].data = np.random.default_rng(2).normal(size=(cfg.d_model, 1)).astype(np.float32)
    family = Family(ckpts, FinetuneResult(ckpts["single_multi"], wn, [], 0))
    monkeypatch.setattr(biasvar, "train_family", lambda *args: family)
    tc = TrainConfig(k_retrieval=3)
    out = biasvar._run_split_unit(PREDICT_MODES, split, vocab, enc_test, None, cfg, tc, 0, 0, None)
    index = build_index(encode_corpus(split, vocab))
    for mode in PREDICT_MODES:
        ckpt, w = family.member(mode)
        want = np.concatenate([
            mode_seq_probs(mode, ckpt, vocab.sep_id, p.source,
                           [tm_ids(z) for z in retrieve_topk(index, p.source, 3)],
                           (BOS,) + p.target, weightnet=w)
            for p in enc_test])
        np.testing.assert_array_equal(out[mode], want)


def test_estimate_bias_variance_validates():
    task = synth_task(n_pairs=10, n_templates=2, lexicon_size=5, seed=0)
    cfg = ModelConfig(vocab_size=0, arch="dual_enc", **TINY)
    with pytest.raises(DataError):
        estimate_bias_variance(
            ["vanilla"],
            task.corpus, task.corpus, config=cfg, train_cfg=TrainConfig(epochs=1),
            k_splits=11,
        )
    with pytest.raises(DataError):
        estimate_bias_variance(
            ["weighted"],
            task.corpus, task.corpus, config=cfg, train_cfg=TrainConfig(epochs=1),
            k_splits=2,
        )
    with pytest.raises(DataError, match="unknown prediction mode"):
        estimate_bias_variance(
            ["bogus"],
            task.corpus, task.corpus, config=cfg, train_cfg=TrainConfig(epochs=1),
            k_splits=2,
        )
