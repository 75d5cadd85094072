import numpy as np
import pytest

from helpers import check_gradients
from tmlab import autodiff as ad
from tmlab.corpus import (
    BOS,
    EOS,
    PAD,
    SEP_TOKEN,
    build_vocab,
    corpus_from_pairs,
    encode_corpus,
    synth_task,
)
from tmlab.errors import DataError, NumericError
from tmlab.model import (
    Checkpoint,
    ModelConfig,
    TrainConfig,
    build_concat_source,
    build_memory_batch,
    copy_distribution,
    dual_encode_memory,
    forward_dual,
    forward_rows,
    forward_vanilla,
    init_params,
    load_checkpoint,
    masked_attention,
    mix_gate,
    save_checkpoint,
    tm_attention_scores,
    train,
)

TINY = dict(d_model=16, n_heads=2, ffn_dim=24, n_src_layers=1, n_mem_layers=1,
            n_dec_layers=1, dropout=0.0, max_len=32)


def tiny_cfg(vocab_size=20, arch="dual_enc", **kw):
    return ModelConfig(vocab_size=vocab_size, arch=arch, **{**TINY, **kw})


def test_config_validates():
    with pytest.raises(DataError):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)
    with pytest.raises(DataError):
        ModelConfig(vocab_size=10, arch="mystery")


def test_untrained_vanilla_is_uniform():
    cfg = tiny_cfg(arch="vanilla")
    params = init_params(cfg, seed=0)
    x = np.asarray([[5, 6, 7]])
    y = np.asarray([[BOS, 8, 9]])
    p = forward_vanilla(params, cfg, x, y).p.data
    np.testing.assert_allclose(p, 1.0 / cfg.vocab_size, atol=1e-6)


def test_causality_future_tokens_do_not_leak():
    cfg = tiny_cfg(arch="vanilla")
    params = init_params(cfg, seed=1)
    rng = np.random.default_rng(0)
    for name in ("out_w", "out_b"):
        params[name].data = rng.normal(scale=0.3, size=params[name].data.shape).astype(np.float32)
    x = np.asarray([[4, 5, 6]])
    y1 = np.asarray([[BOS, 7, 8, 9]])
    y2 = np.asarray([[BOS, 7, 18, 19]])  # diverges from position 2 on
    p1 = forward_vanilla(params, cfg, x, y1).p.data
    p2 = forward_vanilla(params, cfg, x, y2).p.data
    np.testing.assert_allclose(p1[0, :2], p2[0, :2], atol=1e-6)
    assert not np.allclose(p1[0, 2], p2[0, 2], atol=1e-6)


def test_overlength_input_rejected():
    cfg = tiny_cfg(arch="vanilla")
    params = init_params(cfg, seed=0)
    x = np.zeros((1, cfg.max_len + 1), dtype=np.int64)
    with pytest.raises(DataError, match="max_len"):
        forward_vanilla(params, cfg, x, np.asarray([[BOS]]))


def test_single_enc_empty_tm_is_x_plus_sep():
    assert build_concat_source((5, 6), [], sep_id=4, max_len=10) == (5, 6, 4)
    got = build_concat_source((5,), [((6, 7), (8,))], sep_id=4, max_len=10)
    assert got == (5, 4, 6, 7, 4, 8, 4)
    with pytest.raises(DataError, match="exceeds max_len"):
        build_concat_source((5,) * 6, [((6,) * 4, (7,) * 4)], sep_id=4, max_len=10)


def test_single_enc_valid_distribution_and_permutation_sensitivity():
    cfg = tiny_cfg(arch="single_enc")
    params = init_params(cfg, seed=2)
    z1, z2 = ((5, 6), (7,)), ((8,), (9, 10))
    a = build_concat_source((11, 12), [z1, z2], 4, cfg.max_len)
    b = build_concat_source((11, 12), [z2, z1], 4, cfg.max_len)
    assert a != b
    y = np.asarray([[BOS, 7, 9]])
    p = forward_vanilla(params, cfg, np.asarray([list(a)]), y).p.data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)


def test_dual_encode_memory_counts():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    tms = [[((5, 6), (7, 8, 9)), ((10,), (11,))]]
    mem = build_memory_batch(tms, sep_id=4, max_len=32)
    enc = dual_encode_memory(params, cfg, mem)
    assert enc.shape == (1, 7, cfg.d_model)   # 5 + 2 tokens, separators dropped
    assert mem.pool_tok[0].tolist() == [5, 6, 7, 8, 9, 10, 11]
    assert mem.pool_is_tgt[0].tolist() == [False, False, True, True, True, False, True]

    empty = build_memory_batch([[]], sep_id=4, max_len=32)
    assert empty.empty and not empty.has_tm[0]


def test_dual_memory_deterministic():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=0)
    mem = build_memory_batch([[((5, 6), (7,))]], sep_id=4, max_len=32)
    a = dual_encode_memory(params, cfg, mem).data
    b = dual_encode_memory(params, cfg, mem).data
    np.testing.assert_array_equal(a, b)


def tm_attention(h, pool, w, valid):
    return masked_attention(tm_attention_scores(h, pool, w), valid)


def test_tm_attention_single_token_and_uniform():
    d = 6
    h = ad.Tensor(np.random.default_rng(0).normal(size=(1, 2, d)).astype(np.float32))
    w = ad.Tensor(np.eye(d, dtype=np.float32))
    one = ad.Tensor(np.random.default_rng(1).normal(size=(1, 1, d)).astype(np.float32))
    a = tm_attention(h, one, w, np.asarray([[True]]))
    np.testing.assert_allclose(a.data, 1.0, atol=1e-7)

    same = ad.Tensor(np.tile(one.data, (1, 4, 1)))
    a4 = tm_attention(h, same, w, np.asarray([[True] * 4]))
    np.testing.assert_allclose(a4.data, 0.25, atol=1e-6)


def test_tm_attention_hand_softmax():
    # two memory tokens with scores (ln 3, 0) -> attention (0.75, 0.25)
    d = 2
    h = ad.Tensor(np.asarray([[[1.0, 0.0]]], dtype=np.float32))
    w = ad.Tensor(np.eye(d, dtype=np.float32))
    pool = ad.Tensor(np.asarray([[[np.log(3.0), 0.0], [0.0, 0.0]]], dtype=np.float32))
    a = tm_attention(h, pool, w, np.asarray([[True, True]]))
    np.testing.assert_allclose(a.data[0, 0], [0.75, 0.25], atol=1e-6)


def test_copy_distribution_aggregates_duplicates():
    alpha = ad.Tensor(np.asarray([[[0.5, 0.3, 0.2]]], dtype=np.float64))
    ids = np.asarray([[7, 9, 7]])
    p = copy_distribution(alpha, ids, 12).data[0, 0]
    assert p[7] == pytest.approx(0.7)
    assert p[9] == pytest.approx(0.3)
    assert p.sum() == pytest.approx(1.0)


def test_copy_distribution_matches_brute_force_scatter():
    rng = np.random.default_rng(4)
    alpha_raw = rng.uniform(0.1, 1.0, size=(2, 3, 6))
    alpha_raw /= alpha_raw.sum(axis=-1, keepdims=True)
    ids = rng.integers(0, 9, size=(2, 6))
    p = copy_distribution(ad.Tensor(alpha_raw), ids, 9).data
    want = np.zeros((2, 3, 9))
    for b in range(2):
        for t in range(3):
            for m in range(6):
                want[b, t, ids[b, m]] += alpha_raw[b, t, m]
    np.testing.assert_allclose(p, want, atol=1e-12)


def test_copy_distribution_target_side_renormalizes():
    # the dual-encoder forward's copy weights: a second masked softmax of the
    # attention scores, over target-side slots only
    scores = ad.Tensor(np.log(np.asarray([[[0.5, 0.25, 0.25]]])))
    ids = np.asarray([[3, 5, 6]])
    alpha_copy = masked_attention(scores, np.asarray([[False, True, True]]))
    p = copy_distribution(alpha_copy, ids, 8).data[0, 0]
    assert p[3] == 0.0
    assert p[5] == pytest.approx(0.5)
    assert p[6] == pytest.approx(0.5)


def test_mix_gate_endpoints_exact():
    rng = np.random.default_rng(5)
    p_nmt = ad.Tensor(rng.dirichlet(np.ones(6), size=(1, 2)).astype(np.float32))
    p_tm = ad.Tensor(rng.dirichlet(np.ones(6), size=(1, 2)).astype(np.float32))
    zero = ad.Tensor(np.zeros((1, 2, 1), dtype=np.float32))
    one = ad.Tensor(np.ones((1, 2, 1), dtype=np.float32))
    np.testing.assert_array_equal(mix_gate(zero, p_nmt, p_tm).data, p_nmt.data)
    np.testing.assert_array_equal(mix_gate(one, p_nmt, p_tm).data, p_tm.data)
    half = ad.Tensor(np.full((1, 1, 1), 0.5, dtype=np.float32))
    a = ad.Tensor(np.asarray([[[0.6, 0.4]]], dtype=np.float32))
    b = ad.Tensor(np.asarray([[[0.2, 0.8]]], dtype=np.float32))
    np.testing.assert_allclose(mix_gate(half, a, b).data[0, 0], [0.4, 0.6], atol=1e-7)


def test_forward_dual_empty_equals_gate_zero():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=3)
    x = np.asarray([[5, 6]])
    y = np.asarray([[BOS, 7]])
    st = forward_dual(params, cfg, x, None, y)
    np.testing.assert_array_equal(st.p.data, st.p_nmt.data)
    assert st.lam is None and st.p_tm is None


def test_forward_dual_all_modes_normalized():
    cfg = tiny_cfg()
    params = init_params(cfg, seed=4)
    x = np.asarray([[5, 6, 7], [8, 9, PAD]])
    y = np.asarray([[BOS, 10, 11], [BOS, 12, PAD]])
    mem = build_memory_batch(
        [[((5,), (10, 11))], []], sep_id=4, max_len=32)  # second row has no TM
    st = forward_dual(params, cfg, x, mem, y)
    np.testing.assert_allclose(st.p.data.sum(axis=-1), 1.0, atol=1e-6)
    np.testing.assert_allclose(st.alpha.data.sum(axis=-1), 1.0, atol=1e-6)
    assert (st.lam.data >= 0).all() and (st.lam.data <= 1).all()
    np.testing.assert_allclose(st.lam.data[1], 0.0, atol=0)  # gate forced shut


def test_gradients_reach_copy_parameters():
    """Gate and attention parameters receive nonzero grads when the gold
    token sits in the TM, checked against finite differences."""
    cfg = tiny_cfg(vocab_size=14)
    params = init_params(cfg, seed=5, dtype=np.float64)
    rng = np.random.default_rng(0)
    # un-zero the heads: a zero gate head makes the gate constant and a
    # one-token TM target makes the copy distribution alpha-independent
    params["out_w"].data = rng.normal(scale=0.2, size=params["out_w"].data.shape)
    params["gate.w"].data = rng.normal(scale=0.3, size=params["gate.w"].data.shape)
    x = np.asarray([[5, 6]])
    y_in = np.asarray([[BOS, 9]])
    y_out = np.asarray([[9, EOS]])
    mem = build_memory_batch([[((5, 6), (9, 10))]], sep_id=4, max_len=32)

    def loss_fn():
        st = forward_dual(params, cfg, x, mem, y_in)
        return ad.nll_from_probs(st.p, y_out, 0.0, PAD)

    picked = {k: params[k] for k in ("tm.w", "gate.w", "gate.b", "tm.h")}
    assert check_gradients(loss_fn, picked, max_coords=40, seed=1) < 1e-6
    loss = loss_fn()
    ad.zero_grads(params.values())
    ad.backward(loss, params=params.values())
    assert np.abs(params["tm.w"].grad).max() > 0
    assert np.abs(params["gate.w"].grad).max() > 0


def test_train_vanilla_loss_decreases_and_deterministic():
    task = synth_task(n_pairs=60, n_templates=3, lexicon_size=10, seed=0)
    cfg = tiny_cfg(arch="vanilla")
    tc = TrainConfig(epochs=5, batch_size=16, base_lr=2e-3, warmup=20)
    ck1 = train("vanilla", task.corpus, "none", cfg, tc, seed=7)
    ck2 = train("vanilla", task.corpus, "none", cfg, tc, seed=7)
    hist = ck1.meta["history"]
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert hist == ck2.meta["history"]
    for k in ck1.params:
        np.testing.assert_array_equal(ck1.params[k].data, ck2.params[k].data)


@pytest.mark.parametrize("mode", ["topk", "single_multi"])
def test_train_vanilla_rejects_tm_modes_before_retrieval(mode, monkeypatch):
    from tmlab import model as model_mod

    def no_index(corpus):
        raise AssertionError("retrieval ran")

    monkeypatch.setattr(model_mod, "build_index", no_index)
    task = synth_task(n_pairs=12, n_templates=2, lexicon_size=6, seed=0)
    with pytest.raises(DataError, match="vanilla"):
        train("vanilla", task.corpus, mode, tiny_cfg(arch="vanilla"), TrainConfig(epochs=1), seed=0)


@pytest.mark.parametrize("arch, mode", [("vanilla", "none"), ("dual_enc", "topk")])
def test_train_stops_on_a_non_finite_loss_before_it_moves_a_parameter(monkeypatch, arch, mode):
    from tmlab import model as model_mod

    task = synth_task(n_pairs=40, n_templates=2, lexicon_size=6, seed=0)
    held = {}
    init = model_mod.init_params
    monkeypatch.setattr(model_mod, "init_params", lambda *a: held.setdefault("p", init(*a)))
    loss_name = "nll_from_probs" if arch == "dual_enc" else "cross_entropy_label_smoothed"
    loss_fn, calls = getattr(ad, loss_name), []

    def poisoned(*args):
        calls.append(1)
        if len(calls) < 3:
            return loss_fn(*args)
        held["before"] = {k: p.data.copy() for k, p in held["p"].items()}
        return ad.mul(loss_fn(*args), float("nan"))

    monkeypatch.setattr(ad, loss_name, poisoned)
    tc = TrainConfig(epochs=2, batch_size=8, base_lr=1e-3, warmup=5, k_retrieval=2)
    with pytest.raises(NumericError, match="non-finite loss at update 2"):
        train(arch, task.corpus, mode, tiny_cfg(arch=arch), tc, seed=0)
    for k, p in held["p"].items():
        np.testing.assert_array_equal(p.data, held["before"][k])


def test_forward_rows_rejects_empty_source_and_vanilla_tms():
    params = init_params(tiny_cfg(arch="dual_enc"), seed=0)
    y = np.asarray([[BOS, 7], [BOS, 7]])
    with pytest.raises(DataError, match="empty source"):
        forward_rows(params, tiny_cfg(arch="dual_enc"), 4, [(5, 6), ()], [[], []], y)
    van = tiny_cfg(arch="vanilla")
    with pytest.raises(DataError, match="vanilla"):
        forward_rows(init_params(van, seed=0), van, None, [(5,), (6,)], [[], [((5,), (7,))]], y)


def test_train_single_multi_epoch_size():
    task = synth_task(n_pairs=24, n_templates=2, lexicon_size=8, seed=1)
    cfg = tiny_cfg()
    tc = TrainConfig(epochs=1, batch_size=144, base_lr=1e-3, warmup=5, k_retrieval=5)
    seen = {}

    from tmlab import model as model_mod

    orig = model_mod._presentations

    def spy(mode, n_pairs, tms, k):
        out = orig(mode, n_pairs, tms, k)
        seen["n"] = len(out)
        return out

    model_mod._presentations = spy
    try:
        train("dual_enc", task.corpus, "single_multi", cfg, tc, seed=0)
    finally:
        model_mod._presentations = orig
    assert seen["n"] == 6 * len(task.corpus)


def test_checkpoint_roundtrip_and_vocab_guard(tmp_path):
    task = synth_task(n_pairs=20, n_templates=2, lexicon_size=6, seed=2)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    cfg = tiny_cfg(vocab_size=len(vocab), arch="vanilla")
    ck = train("vanilla", task.corpus, "none", cfg,
               TrainConfig(epochs=1, batch_size=8, base_lr=1e-3, warmup=5), seed=0, vocab=vocab)
    path = tmp_path / "m.tmlab"
    save_checkpoint(ck, path)
    back = load_checkpoint(path, vocab)
    assert back.config == ck.config
    for k in ck.params:
        np.testing.assert_array_equal(back.params[k].data, ck.params[k].data)

    other = build_vocab([(["zz"], ["qq"])], extra=(SEP_TOKEN,))
    with pytest.raises(DataError, match="vocab mismatch"):
        load_checkpoint(path, other)
