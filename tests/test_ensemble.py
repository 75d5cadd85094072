import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rows_as_sources
from tmlab.corpus import (
    BOS,
    EOS,
    SEP_TOKEN,
    build_vocab,
    corpus_from_pairs,
    encode_corpus,
    subset,
    synth_task,
)
from tmlab import ensemble, model
from tmlab.ensemble import (
    PREDICT_MODES,
    Family,
    FinetuneResult,
    batch_seq_probs,
    beam_decode,
    combine_rows,
    decode,
    finetune_weighted,
    greedy_decode,
    init_weightnet,
    load_weightnet,
    make_cached_step_fn,
    make_step_fn,
    mix_components,
    mode_rows,
    mode_seq_probs,
    save_weightnet,
    sequence_score,
    tm_ids,
    train_family,
    weightnet_scores,
)
from tmlab import autodiff as ad
from tmlab.errors import DataError, NumericError
from tmlab.evalmetrics import token_ce
from tmlab.model import DecodeCache, ModelConfig, TrainConfig, forward_rows, init_params, train, Checkpoint
from tmlab.retrieval import build_index, retrieve_topk
from tmlab.seeding import substream

TINY = dict(d_model=16, n_heads=2, ffn_dim=24, n_src_layers=1, n_mem_layers=1,
            n_dec_layers=1, dropout=0.0, max_len=48)


@pytest.fixture(scope="module")
def setup():
    task = synth_task(n_pairs=60, n_templates=4, lexicon_size=10, seed=11)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    cfg = ModelConfig(vocab_size=len(vocab), arch="dual_enc", **TINY)
    params = init_params(cfg, seed=9)
    rng = np.random.default_rng(2)
    for name in ("out_w", "gate.w", "gate.b"):
        params[name].data = rng.normal(scale=0.4, size=params[name].data.shape).astype(np.float32)
    ckpt = Checkpoint(params=params, config=cfg, meta={"arch": "dual_enc"})
    enc = encode_corpus(task.corpus, vocab)
    index = build_index(enc)
    return task, vocab, ckpt, enc, index


def _zs(index, x, k):
    return [tm_ids(z) for z in retrieve_topk(index, x, k)]


def test_predict_base_empty_tm_equals_vanilla(setup):
    _, vocab, ckpt, enc, _ = setup
    p = enc[0]
    a = mode_seq_probs("base", ckpt, vocab.sep_id, p.source, [], (BOS,) + p.target[:2])[-1]
    b = mode_seq_probs("vanilla", ckpt, vocab.sep_id, p.source, [], (BOS,) + p.target[:2])[-1]
    np.testing.assert_array_equal(a, b)
    assert a.sum() == pytest.approx(1.0, abs=1e-6)


def test_predict_base_deterministic(setup):
    _, vocab, ckpt, enc, index = setup
    p = enc[0]
    Z = _zs(index, p.source, 3)
    a = mode_seq_probs("base", ckpt, vocab.sep_id, p.source, Z, (BOS,) + p.target[:1])[-1]
    b = mode_seq_probs("base", ckpt, vocab.sep_id, p.source, Z, (BOS,) + p.target[:1])[-1]
    np.testing.assert_array_equal(a, b)


def test_predict_single_matches_base_with_one_tm(setup):
    _, vocab, ckpt, enc, index = setup
    p = enc[1]
    Z = _zs(index, p.source, 1)
    a = mode_seq_probs("single", ckpt, vocab.sep_id, p.source, Z, (BOS,) + p.target[:1])[-1]
    b = mode_seq_probs("base", ckpt, vocab.sep_id, p.source, Z[:1], (BOS,) + p.target[:1])[-1]
    np.testing.assert_array_equal(a, b)
    c = mode_seq_probs("single", ckpt, vocab.sep_id, p.source, [], (BOS,) + p.target[:1])[-1]
    assert c.sum() == pytest.approx(1.0, abs=1e-6)


def test_average_identities(setup):
    _, vocab, ckpt, enc, index = setup
    p = enc[2]
    Z = _zs(index, p.source, 3)
    y_in = (BOS,) + p.target[:2]
    # K identical TMs collapse to the single prediction, bit for bit
    same = [Z[0]] * 4
    avg = mode_seq_probs("average", ckpt, vocab.sep_id, p.source, same, y_in)[-1]
    one = mode_seq_probs("single", ckpt, vocab.sep_id, p.source, Z[:1], y_in)[-1]
    np.testing.assert_array_equal(avg, one)
    # K=1 average is the single prediction
    np.testing.assert_array_equal(
        mode_seq_probs("average", ckpt, vocab.sep_id, p.source, Z[:1], y_in)[-1], one
    )
    with pytest.raises(DataError):
        mode_seq_probs("average", ckpt, vocab.sep_id, p.source, [], y_in)
    with pytest.raises(DataError):
        decode("average", ckpt, p.source, index, k=0, sep_id=vocab.sep_id)


def test_average_hand_arithmetic():
    dists = np.asarray([[[0.8, 0.2]], [[0.4, 0.6]]])
    w = np.full((1, 2), 0.5)
    np.testing.assert_allclose(mix_components(dists, w)[0], [0.6, 0.4], atol=1e-12)
    w2 = np.asarray([[0.75, 0.25]])
    np.testing.assert_allclose(mix_components(dists, w2)[0], [0.7, 0.3], atol=1e-12)


def test_weighted_uniform_equals_average_bitwise(setup):
    _, vocab, ckpt, enc, index = setup
    p = enc[3]
    Z = _zs(index, p.source, 3)
    wn = init_weightnet(ckpt.config.d_model, seed=0)  # zero score head
    y_in = (BOS,) + p.target
    w_probs, weights = batch_seq_probs("weighted", ckpt, vocab.sep_id, [(p.source, Z, y_in)], wn)[0]
    a_probs = mode_seq_probs("average", ckpt, vocab.sep_id, p.source, Z, y_in)
    np.testing.assert_array_equal(w_probs, a_probs)
    np.testing.assert_array_equal(weights, np.full_like(weights, 1.0 / len(Z)))


def test_weighted_normalization_random_weightnet(setup):
    _, vocab, ckpt, enc, index = setup
    wn = init_weightnet(ckpt.config.d_model, seed=1)
    rng = np.random.default_rng(7)
    for k in ("wn.score_w", "wn.score_b"):
        wn[k].data = rng.normal(scale=0.5, size=wn[k].data.shape).astype(np.float32)
    for p in enc[:6]:
        Z = _zs(index, p.source, 3)
        probs, _ = batch_seq_probs("weighted", ckpt, vocab.sep_id,
                                   [(p.source, Z, (BOS,) + p.target)], wn)[0]
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert np.isfinite(probs).all()


def test_weighted_weights_permutation_equivariant(setup):
    _, vocab, ckpt, enc, index = setup
    wn = init_weightnet(ckpt.config.d_model, seed=1)
    rng = np.random.default_rng(8)
    for k in ("wn.score_w", "wn.score_b"):
        wn[k].data = rng.normal(scale=0.5, size=wn[k].data.shape).astype(np.float32)
    p = enc[4]
    Z = _zs(index, p.source, 3)
    _, w1 = batch_seq_probs("weighted", ckpt, vocab.sep_id, [(p.source, Z, (BOS,) + p.target)],
                            wn)[0]
    perm = [2, 0, 1]
    _, w2 = batch_seq_probs("weighted", ckpt, vocab.sep_id,
                            [(p.source, [Z[i] for i in perm], (BOS,) + p.target)], wn)[0]
    np.testing.assert_allclose(w2, w1[:, perm], atol=1e-6)


def test_weightnet_d_model_guard(setup):
    _, vocab, ckpt, enc, index = setup
    wn = init_weightnet(ckpt.config.d_model * 2, seed=0)
    Z = _zs(index, enc[0].source, 2)
    with pytest.raises(DataError, match="d_model"):
        mode_seq_probs("weighted", ckpt, vocab.sep_id, enc[0].source, Z,
                       (BOS,) + enc[0].target[:1], weightnet=wn)[-1]


def test_weightnet_roundtrip(tmp_path, setup):
    _, vocab, ckpt, _, _ = setup
    wn = init_weightnet(ckpt.config.d_model, seed=3)
    path = tmp_path / "wn.tmlab"
    save_weightnet(wn, path, {"d_model": ckpt.config.d_model})
    back, meta = load_weightnet(path, vocab)
    assert meta["d_model"] == ckpt.config.d_model
    for k in wn:
        np.testing.assert_array_equal(back[k].data, wn[k].data)


@pytest.mark.parametrize("arrays", [
    {"emb": np.zeros((4, 16), np.float32)},                        # a model checkpoint
    {},
    {k: v for k, v in init_weightnet(16, 0).items() if k != "wn.w2"},
    {**init_weightnet(16, 0), "wn.w2": init_weightnet(8, 0)["wn.w2"]},
    {**init_weightnet(16, 0), "wn.extra": np.zeros(1, np.float32)},
    {**init_weightnet(16, 0), "wn.b1": np.zeros((), np.float32)},
])
def test_load_weightnet_rejects_other_layouts(tmp_path, arrays):
    path = tmp_path / "wn.tmlab"
    ad.save_arrays(path, {k: getattr(v, "data", v) for k, v in arrays.items()}, {})
    with pytest.raises(DataError, match="not a weightnet file"):
        load_weightnet(path, build_vocab([(["a"], ["b"])]))


def test_finetune_weighted_contract():
    task = synth_task(n_pairs=90, n_templates=4, lexicon_size=10, seed=21)
    train_c = subset(task.corpus, range(60))
    valid_c = subset(task.corpus, range(60, 90))
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    cfg = ModelConfig(vocab_size=len(vocab), arch="dual_enc", **TINY)
    ck = train("dual_enc", train_c, "single_multi", cfg,
               TrainConfig(epochs=2, batch_size=32, base_lr=1.5e-3, warmup=20, k_retrieval=3),
               seed=0, vocab=vocab)
    before = {k: p.data.copy() for k, p in ck.params.items()}

    ft = finetune_weighted(ck, valid_c, vocab, train_c, updates=6, seed=0, k=3,
                           batch_size=8, eval_every=2)
    # the input checkpoint is untouched; the result carries its own params
    for k in before:
        np.testing.assert_array_equal(ck.params[k].data, before[k])
    assert ft.curve[0][0] == 0
    losses = dict(ft.curve)
    assert losses[ft.selected_update] <= ft.curve[0][1]
    assert ft.selected_update in losses

    # determinism
    ft2 = finetune_weighted(ck, valid_c, vocab, train_c, updates=6, seed=0, k=3,
                            batch_size=8, eval_every=2)
    assert ft2.curve == ft.curve
    for k in ft.weightnet:
        np.testing.assert_array_equal(ft2.weightnet[k].data, ft.weightnet[k].data)

    with pytest.raises(DataError):
        finetune_weighted(ck, subset(task.corpus, range(5)), vocab, train_c, updates=1, seed=0)


def test_finetune_stops_on_a_non_finite_loss_before_it_moves_a_parameter(setup, monkeypatch):
    task, vocab, ckpt, _, _ = setup
    held = {}
    forward, init_wn = ensemble.forward_rows, ensemble.init_weightnet

    def spy_forward(params, *args, **kwargs):
        held["params"] = params             # the fine-tune's private copy
        return forward(params, *args, **kwargs)

    monkeypatch.setattr(ensemble, "forward_rows", spy_forward)
    monkeypatch.setattr(ensemble, "init_weightnet", lambda *a: held.setdefault("wn", init_wn(*a)))
    loss_fn, train_calls = ad.nll_from_probs, []

    def poisoned(probs, *args):
        if not probs.requires_grad:         # held-out scoring
            return loss_fn(probs, *args)
        train_calls.append(1)
        if len(train_calls) < 3:
            return loss_fn(probs, *args)
        held["before"] = {k: p.data.copy() for k, p in {**held["params"], **held["wn"]}.items()}
        return ad.mul(loss_fn(probs, *args), float("nan"))

    monkeypatch.setattr(ad, "nll_from_probs", poisoned)
    with pytest.raises(NumericError, match="non-finite loss at update 2"):
        finetune_weighted(ckpt, subset(task.corpus, range(30)), vocab, task.corpus, updates=5,
                          seed=0, k=2, batch_size=8)
    for k, p in {**held["params"], **held["wn"]}.items():
        np.testing.assert_array_equal(p.data, held["before"][k])


def test_finetune_zero_updates_is_average(setup):
    task, vocab, ckpt, enc, index = setup
    valid_c = subset(task.corpus, range(20))
    ft = finetune_weighted(ckpt, valid_c, vocab, task.corpus, updates=0, seed=0, k=2)
    p = enc[5]
    Z = _zs(index, p.source, 2)
    w, _ = batch_seq_probs("weighted", ft.checkpoint, vocab.sep_id,
                           [(p.source, Z, (BOS,) + p.target)], ft.weightnet)[0]
    a = mode_seq_probs("average", ckpt, vocab.sep_id, p.source, Z, (BOS,) + p.target)
    np.testing.assert_array_equal(w, a)


def test_the_finetuned_checkpoint_records_the_k_it_mixed(setup):
    task, vocab, ckpt, _, _ = setup
    valid_c = subset(task.corpus, range(20))
    assert ckpt.trained("k_retrieval") == TrainConfig().k_retrieval    # the backbone records none
    ft = finetune_weighted(ckpt, valid_c, vocab, task.corpus, updates=0, seed=0, k=2)
    assert ft.checkpoint.meta["k_retrieval"] == ft.checkpoint.trained("k_retrieval") == 2
    again = finetune_weighted(ft.checkpoint, valid_c, vocab, task.corpus, updates=0, seed=0)
    assert again.checkpoint.trained("k_retrieval") == 2 and "k_retrieval" not in ckpt.meta


# ---------------------------------------------------------------------------
# Model family
# ---------------------------------------------------------------------------

def test_train_family_trains_each_backbone_once(monkeypatch):
    trained, tuned = [], []

    def fake_train(arch, corpus, mode, cfg, tc, seed, vocab=None):
        trained.append((arch, mode, tc.epochs, seed))
        return f"ckpt:{mode}"

    # the fine-tune reads k and smoothing from its backbone's own record
    def fake_finetune(ckpt, valid, vocab, datastore, updates, seed):
        tuned.append((ckpt, valid, datastore, updates, seed))
        return FinetuneResult(checkpoint="ckpt:tuned", weightnet="wn", curve=[],
                              selected_update=0)

    monkeypatch.setattr(ensemble, "train", fake_train)
    monkeypatch.setattr(ensemble, "finetune_weighted", fake_finetune)
    tc = TrainConfig(epochs=3, k_retrieval=4, label_smoothing=0.2)

    def recipe(train_mode):
        return "dual_enc", None, dataclasses.replace(tc, epochs=len(train_mode))

    fam = train_family(("single", "average", "weighted"), "corpus", "vocab", recipe, 7,
                       "valid", 11)
    assert trained == [("dual_enc", "single_multi", len("single_multi"), 7)]
    assert tuned == [("ckpt:single_multi", "valid", "corpus", 11, 7)]
    assert fam.member("average") == ("ckpt:single_multi", None)
    assert fam.member("weighted") == ("ckpt:tuned", "wn")

    trained.clear()
    tuned.clear()
    fam = train_family(PREDICT_MODES[::-1], "corpus", "vocab", recipe, 7, "valid", 11)
    assert sorted(m for _, m, _, _ in trained) == ["none", "single_multi", "topk"]
    assert len(tuned) == 1
    with pytest.raises(DataError, match="unknown prediction mode"):
        train_family(("vanilla", "bogus"), "corpus", "vocab", recipe, 7)


def test_family_member_follows_the_backbone_table():
    fam = Family(backbones={"none": "v", "topk": "b", "single_multi": "s"},
                 finetune=FinetuneResult(checkpoint="w", weightnet="wn", curve=[],
                                         selected_update=0))
    assert {m: fam.member(m) for m in PREDICT_MODES} == {
        "vanilla": ("v", None), "base": ("b", None), "single": ("s", None),
        "average": ("s", None), "weighted": ("w", "wn"),
    }
    with pytest.raises(DataError, match="unknown prediction mode"):
        fam.member("bogus")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _toy_step_fn(table, vocab_size):
    """Deterministic step function from a prefix->distribution table."""

    def step(prefix):
        probs = table.get(prefix)
        if probs is None:
            probs = np.zeros(vocab_size)
            probs[EOS] = 1.0
        return np.asarray(probs, dtype=np.float64)

    return step


def _batched(step):
    """A per-prefix step function in the batched signature decoding takes."""
    return lambda prefixes: np.stack([step(p) for p in prefixes])


def test_greedy_and_beam_on_toy_table():
    V = 6
    # greedy prefers token 4 first but its continuation is flat; the path
    # through token 5 ends confidently and wins under length-normalized score
    table = {
        (): [0.0, 0.0, 0.05, 0.0, 0.55, 0.4],
        (4,): [0.05, 0.05, 0.3, 0.2, 0.2, 0.2],
        (5,): [0.0, 0.0, 0.95, 0.0, 0.05, 0.0],
    }
    step = _toy_step_fn(table, V)
    g, _ = greedy_decode(_batched(step), max_new=8)
    assert g == (4,)
    b1 = beam_decode(_batched(step), width=1, max_new=8)
    assert b1[0] == g
    b4_tokens, b4_score = beam_decode(_batched(step), width=4, max_new=8)
    assert b4_score >= sequence_score(step, g) - 1e-9
    assert b4_tokens == (5,)


def test_decode_modes_on_trained_copy_model():
    task = synth_task(n_pairs=80, n_templates=2, lexicon_size=8, seed=5)
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    cfg = ModelConfig(vocab_size=len(vocab), arch="vanilla", d_model=32, n_heads=2,
                      ffn_dim=48, n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.0, max_len=48)
    ck = train("vanilla", task.corpus, "none", cfg,
               TrainConfig(epochs=30, batch_size=16, base_lr=3e-3, warmup=30),
               seed=1, vocab=vocab)
    enc = encode_corpus(task.corpus, vocab)
    index = build_index(enc)
    hits = 0
    for p in enc[:10]:
        toks, score = decode("vanilla", ck, p.source, index, k=0, sep_id=None)
        hits += toks == p.target
        bt, bs = decode("vanilla", ck, p.source, index, k=0, sep_id=None,
                        strategy="beam", beam_width=4)
        assert bs >= score - 1e-9
        b1t, _ = decode("vanilla", ck, p.source, index, k=0, sep_id=None,
                        strategy="beam", beam_width=1)
        assert b1t == toks
    assert hits >= 9  # greedy reproduces held-in targets


def test_mode_seq_probs_rejects_unknown(setup):
    _, vocab, ckpt, enc, index = setup
    with pytest.raises(DataError):
        mode_seq_probs("mystery", ckpt, vocab.sep_id, enc[0].source, [], (BOS,))
    with pytest.raises(DataError):
        mode_seq_probs("weighted", ckpt, vocab.sep_id, enc[0].source,
                       [tm_ids_stub()], (BOS,))
    with pytest.raises(DataError, match="weightnet"):
        decode("weighted", ckpt, enc[0].source, index, k=2, sep_id=vocab.sep_id)
    with pytest.raises(DataError):
        decode("weighted", ckpt, enc[0].source, index, k=0, sep_id=vocab.sep_id,
               weightnet=init_weightnet(ckpt.config.d_model, seed=0))


@pytest.mark.parametrize("mode", [m for m in PREDICT_MODES if m != "vanilla"])
def test_decode_in_a_tm_mode_needs_an_index(setup, mode):
    _, vocab, ckpt, enc, _ = setup
    wn = init_weightnet(ckpt.config.d_model, seed=0)
    with pytest.raises(DataError, match=f"mode '{mode}' needs a retrieval index"):
        decode(mode, ckpt, enc[0].source, None, k=2, sep_id=vocab.sep_id, weightnet=wn)
    assert decode("vanilla", ckpt, enc[0].source, None, k=2, sep_id=vocab.sep_id, max_new=2)


@pytest.fixture(scope="module")
def arch_ckpts(setup):
    _, vocab, dual, _, _ = setup
    # room for three TMs joined into one source; init_params does not read max_len
    cfg = ModelConfig(vocab_size=len(vocab), arch="single_enc", **{**TINY, "max_len": 96})
    params = init_params(cfg, seed=9)
    params["out_w"].data = np.random.default_rng(2).normal(
        scale=0.4, size=params["out_w"].data.shape).astype(np.float32)
    single = Checkpoint(params=params, config=cfg, meta={"arch": "single_enc"})
    wn = init_weightnet(cfg.d_model, seed=1)
    rng = np.random.default_rng(7)
    for k in ("wn.score_w", "wn.score_b"):
        wn[k].data = rng.normal(scale=0.5, size=wn[k].data.shape).astype(np.float32)
    return {"dual_enc": dual, "single_enc": single}, wn


@pytest.mark.parametrize("mode", PREDICT_MODES)
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_step_fn_and_decode_follow_mode_seq_probs(setup, arch_ckpts, arch, mode):
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts[arch], vocab.sep_id
    p = enc[6]
    k = {"vanilla": 0, "single": 1}.get(mode, 3)
    Z = _zs(index, p.source, k)
    y_in = (BOS,) + p.target
    step = make_step_fn(mode, ckpt, sep, p.source, Z, wn)
    for t in range(1, len(y_in) + 1):
        np.testing.assert_array_equal(
            step(y_in[1:t]), mode_seq_probs(mode, ckpt, sep, p.source, Z, y_in[:t], wn)[-1])
    toks, score = decode(mode, ckpt, p.source, index, k, sep, weightnet=wn, max_new=6)
    # a mean of float32 log-probs from one-token forwards, whose matmul shapes
    # differ from the teacher-forced ones: equal within 1e-5, not bitwise
    assert abs(score - sequence_score(step, toks)) <= 1e-5
    b1, _ = decode(mode, ckpt, p.source, index, k, sep, strategy="beam", beam_width=1,
                   weightnet=wn, max_new=6)
    assert b1 == toks


def test_finetune_weighted_single_enc(setup, arch_ckpts):
    task, vocab, _, enc, index = setup
    ckpt = arch_ckpts[0]["single_enc"]
    valid_c = subset(task.corpus, range(20))
    ft = finetune_weighted(ckpt, valid_c, vocab, task.corpus, updates=1, seed=0, k=2,
                           batch_size=8)
    assert [u for u, _ in ft.curve] == [0, 1]
    assert all(np.isfinite(loss) for _, loss in ft.curve)
    ft0 = finetune_weighted(ckpt, valid_c, vocab, task.corpus, updates=0, seed=0, k=2)
    p = enc[5]
    Z = _zs(index, p.source, 2)
    w = mode_seq_probs("weighted", ft0.checkpoint, vocab.sep_id, p.source, Z,
                       (BOS,) + p.target, weightnet=ft0.weightnet)
    a = mode_seq_probs("average", ckpt, vocab.sep_id, p.source, Z, (BOS,) + p.target)
    np.testing.assert_array_equal(w, a)


@pytest.mark.parametrize("store", ["k_or_more_pairs", "fewer_than_k_pairs", "heldout_of_two_batches"])
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_finetune_scores_what_inference_reads(setup, arch_ckpts, arch, store):
    # update 0's held-out loss is the weighted mode's token CE on the held-out split
    task, vocab, _, _, _ = setup
    ckpt, k = arch_ckpts[0][arch], 3
    # 200 pairs hold out 20, scored in batches of 16 and 4
    n_valid = 200 if store == "heldout_of_two_batches" else 30
    valid_c = subset(task.corpus, [i % len(task.corpus) for i in range(n_valid)])
    datastore = subset(task.corpus, range(30, 32)) if store == "fewer_than_k_pairs" else task.corpus
    # a backbone trained without smoothing: its fine-tune loss is the plain NLL
    unsmoothed = dataclasses.replace(ckpt, meta={**ckpt.meta, "label_smoothing": 0.0})
    ft = finetune_weighted(unsmoothed, valid_c, vocab, datastore, updates=0, seed=0, k=k)
    n_fit = int(round(0.9 * n_valid))
    held = subset(valid_c, substream(0, "valid_split").permutation(n_valid)[n_fit:])
    nats, _ = token_ce(ft.checkpoint, held, vocab, mode="weighted",
                       index=build_index(encode_corpus(datastore, vocab)), k=k,
                       weightnet=ft.weightnet)
    assert abs(ft.curve[0][1] - nats) <= 1e-5


@pytest.mark.parametrize("mode", PREDICT_MODES)
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_cached_step_follows_mode_seq_probs(setup, arch_ckpts, arch, mode):
    """Hypotheses reordered, duplicated and extended by any id (reserved ones
    too): every row of every step is the teacher-forced prediction."""
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts[arch], vocab.sep_id
    p = enc[6]
    Z = _zs(index, p.source, {"vanilla": 0, "single": 1}.get(mode, 3))
    step = make_cached_step_fn(mode, ckpt, sep, p.source, Z, wn)
    rng = np.random.default_rng(3)
    prefixes = [()]
    for t in range(7):
        got = step(prefixes)
        assert got.shape == (len(prefixes), len(vocab))
        for prefix, row in zip(prefixes, got):
            want = mode_seq_probs(mode, ckpt, sep, p.source, Z, (BOS,) + prefix, wn)[-1]
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-6)
        parents = rng.integers(0, len(prefixes), size=min(4, t + 2))
        prefixes = [prefixes[i] + (int(rng.integers(0, len(vocab))),) for i in parents]


@pytest.mark.parametrize("mode", PREDICT_MODES)
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_cached_beam_equals_teacher_forced_beam(setup, arch_ckpts, arch, mode):
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts[arch], vocab.sep_id
    k = {"vanilla": 0, "single": 1}.get(mode, 3)
    for p in enc[6:9]:
        ref = beam_decode(_batched(make_step_fn(mode, ckpt, sep, p.source, _zs(index, p.source, k),
                                                wn)), 4, 6)
        toks, score = decode(mode, ckpt, p.source, index, k, sep, strategy="beam",
                             beam_width=4, weightnet=wn, max_new=6)
        assert toks == ref[0]
        assert abs(score - ref[1]) <= 1e-5


def test_cached_steps_do_not_leak_between_sentences(setup, arch_ckpts):
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts["dual_enc"], vocab.sep_id
    pairs = [(p, _zs(index, p.source, 3)) for p in enc[6:8]]

    def steppers():
        return [make_cached_step_fn("weighted", ckpt, sep, p.source, Z, wn) for p, Z in pairs]

    # each sentence on its own, then both interleaved step by step
    alone = [[step([p.target[:t]]) for t in range(4)] for step, (p, _) in zip(steppers(), pairs)]
    interleaved = steppers()
    for t in range(4):
        for i, (step, (p, _)) in enumerate(zip(interleaved, pairs)):
            np.testing.assert_array_equal(step([p.target[:t]]), alone[i][t])
    a, b = enc[6].source, enc[7].source
    first = decode("base", ckpt, a, index, 3, sep, strategy="beam", max_new=5)
    decode("base", ckpt, b, index, 3, sep, strategy="beam", max_new=5)
    assert decode("base", ckpt, a, index, 3, sep, strategy="beam", max_new=5) == first


def _exhaustive_beam(step, width, max_new):
    """The beam search without its early stop, as it was written before it had one."""
    live, done = [((), 0.0)], []
    for _ in range(max_new):
        if not live:
            break
        cands = []
        for tokens, score in live:
            logp = np.log(np.maximum(step(tokens).astype(np.float64), 1e-300))
            for tok in np.lexsort((np.arange(logp.size), -logp))[:width]:
                cands.append((score + float(logp[tok]), tokens + (int(tok),)))
        cands.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, tokens in cands[:width]:
            if tokens[-1] == EOS:
                done.append((tokens[:-1], score / len(tokens)))
            else:
                live.append((tokens, score))
    for tokens, score in live:
        done.append((tokens, score / max(len(tokens) + 1, 1)))
    if not done:
        return (), float("-inf")
    done.sort(key=lambda c: (-c[1], c[0]))
    return done[0]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), V=st.integers(3, 6), width=st.integers(1, 4),
       max_new=st.integers(1, 8), scale=st.sampled_from([0.5, 2.0, 8.0]),
       eos_bias=st.floats(0.0, 3.0), over=st.sampled_from([1.0, 1.0 + 9e-6]))
def test_beam_stop_returns_the_exhaustive_result(seed, V, width, max_new, scale, eos_bias, over):
    """Random step tables, some peaked so that a float32 probability rounds above 1."""
    def step(prefix):
        rng = np.random.default_rng([seed, len(prefix), *prefix])
        logits = rng.normal(scale=scale, size=V)
        logits[EOS] += eos_bias
        e = np.exp(logits - logits.max())
        return (e / e.sum() * over).astype(np.float32)

    assert beam_decode(_batched(step), width, max_new) == _exhaustive_beam(step, width, max_new)


def tm_ids_stub():
    return ((5,), (6,))


# ---------------------------------------------------------------------------
# Grouped rows: a dual encoder's TM rows share one decoder pass
# ---------------------------------------------------------------------------

def _cached_rows_as_sources(mode, ckpt, sep, x, Z, wn):
    """`make_cached_step_fn` with every row a source of its own, as it was
    written before rows were grouped."""
    rows = mode_rows(mode, ckpt, Z, wn)
    R, cache, last = len(rows), DecodeCache(), {}

    def step(prefixes):
        nonlocal last
        if cache.steps:
            parents = np.asarray([last[p[:-1]] for p in prefixes])
            cache.select((parents[:, None] * R + np.arange(R)).ravel())
            y = np.repeat(np.asarray([p[-1] for p in prefixes], dtype=np.int64), R)[:, None]
        else:
            y = np.full((len(prefixes) * R, 1), BOS, dtype=np.int64)
        with ad.no_grad():
            st = forward_rows(ckpt.params, ckpt.config, sep, [tuple(x)] * len(y),
                              [[tms] for tms in rows] * len(prefixes), y, cache=cache)
        last = {p: i for i, p in enumerate(prefixes)}
        return combine_rows(mode, st, R, wn)[0][:, -1]

    return step


@pytest.mark.parametrize("mode", PREDICT_MODES)
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_grouped_rows_score_bitwise_as_rows_of_their_own(setup, arch_ckpts, arch, mode):
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts[arch], vocab.sep_id
    k = {"vanilla": 0, "single": 1}.get(mode, 3)
    items = [(p.source, _zs(index, p.source, k), (BOS,) + p.target) for p in enc[6:18]]
    for (x, Z, y_in), (probs, weights) in zip(items, batch_seq_probs(mode, ckpt, sep, items, wn)):
        ref_p, ref_w = rows_as_sources(mode, ckpt, sep, x, Z, y_in, wn)
        assert np.array_equal(probs, ref_p)
        assert (weights is None) == (ref_w is None)
        assert weights is None or np.array_equal(weights, ref_w)


@pytest.mark.parametrize("mode", PREDICT_MODES)
@pytest.mark.parametrize("arch", ["dual_enc", "single_enc"])
def test_grouped_cached_steps_bitwise_as_rows_of_their_own(setup, arch_ckpts, arch, mode):
    """Hypotheses reordered, duplicated and extended: every step equals the
    cached step whose rows are sources of their own."""
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts[arch], vocab.sep_id
    p = enc[6]
    Z = _zs(index, p.source, {"vanilla": 0, "single": 1}.get(mode, 3))
    step = make_cached_step_fn(mode, ckpt, sep, p.source, Z, wn)
    ref = _cached_rows_as_sources(mode, ckpt, sep, p.source, Z, wn)
    rng = np.random.default_rng(5)
    prefixes = [()]
    for t in range(7):
        assert np.array_equal(step(prefixes), ref(prefixes))
        parents = rng.integers(0, len(prefixes), size=min(4, t + 2))
        prefixes = [prefixes[i] + (int(rng.integers(0, len(vocab))),) for i in parents]


@pytest.fixture
def decoder_rows(monkeypatch):
    """(rows, train) of every decoder-stack call."""
    seen, real = [], model._decode_stack

    def recording(params, cfg, y_in, enc, src_ids, rng, train, cache=None):
        seen.append((y_in.shape[0], train))
        return real(params, cfg, y_in, enc, src_ids, rng, train, cache)

    monkeypatch.setattr(model, "_decode_stack", recording)
    return seen


@pytest.mark.parametrize("mode", ["average", "weighted"])
def test_a_dual_encoder_decodes_once_per_source_and_prefix(setup, arch_ckpts, decoder_rows, mode):
    _, vocab, _, enc, index = setup
    ckpts, wn = arch_ckpts
    ckpt, sep = ckpts["dual_enc"], vocab.sep_id
    items = [(p.source, _zs(index, p.source, 3), (BOS,) + p.target) for p in enc[6:18]]
    batch_seq_probs(mode, ckpt, sep, items, wn)
    assert sum(rows for rows, _ in decoder_rows) == len(items) > len(decoder_rows)

    decoder_rows.clear()
    decode(mode, ckpt, enc[6].source, index, 3, sep, weightnet=wn, max_new=6)
    assert decoder_rows and all(rows == 1 for rows, _ in decoder_rows)

    decoder_rows.clear()
    asked = []
    step = make_cached_step_fn(mode, ckpt, sep, enc[6].source, _zs(index, enc[6].source, 3), wn)
    beam_decode(lambda prefixes: asked.append(len(prefixes)) or step(prefixes), 4, 6)
    assert [rows for rows, _ in decoder_rows] == asked and max(asked) > 1


def test_the_finetune_updates_a_row_per_source_and_scores_grouped(setup, decoder_rows):
    task, vocab, ckpt, _, _ = setup
    K, B = 3, 8
    # 20 valid pairs: 18 fit, in batches of B, and 2 held out
    finetune_weighted(ckpt, subset(task.corpus, range(20)), vocab, task.corpus, updates=2,
                      seed=0, k=K, batch_size=B, eval_every=1)
    assert decoder_rows == [(2, False), (B * K, True), (2, False), (B * K, True), (2, False)]
