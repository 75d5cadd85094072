"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`. The suite trains real
models at desk scale; expect roughly 10-15 CPU-minutes end to end.
"""

import math
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import check_gradients
from tmlab import autodiff as ad
from tmlab.biasvar import (
    decompose,
    estimate_bias_variance,
    mc_variance_check,
)
from tmlab.cli import main as cli_main
from tmlab.corpus import (
    BOS,
    EOS,
    PAD,
    SEP_TOKEN,
    build_vocab,
    corpus_from_pairs,
    encode_corpus,
    subset,
    synth_task,
)
from tmlab.ensemble import (
    decode,
    init_weightnet,
    mode_seq_probs,
    tm_ids,
    weighted_seq_probs,
)
from tmlab.evalmetrics import corpus_bleu
from tmlab.experiments import ExperimentConfig, run_experiment
from tmlab.model import (
    Checkpoint,
    ModelConfig,
    TrainConfig,
    build_memory_batch,
    forward_dual,
    init_params,
    mix_gate,
    train,
)
from tmlab.retrieval import (
    brute_force_topk,
    build_index,
    candidates,
    retrieve_topk,
)


def report(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {n:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity():
    t0 = time.time()
    rng = np.random.default_rng(0)

    # each differentiable op, float64, against central differences
    worst_ops = 0.0
    a = ad.Tensor(rng.normal(size=(3, 4)) + 0.31, requires_grad=True, dtype=np.float64)
    b = ad.Tensor(rng.normal(size=(3, 4)) + 0.17, requires_grad=True, dtype=np.float64)
    g = ad.Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)
    c = ad.Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)
    w = ad.Tensor(np.asarray(rng.normal(size=(3, 4))))
    w33 = ad.Tensor(np.asarray(rng.normal(size=(3, 3))))
    w14 = ad.Tensor(np.asarray(rng.normal(size=(1, 4))))
    cases = {
        "add": (lambda: ad.tsum(ad.mul(ad.add(a, b), w)), {"a": a, "b": b}),
        "mul": (lambda: ad.tsum(ad.mul(ad.mul(a, b), w)), {"a": a, "b": b}),
        "div": (lambda: ad.tsum(ad.mul(ad.div(a, ad.add(ad.mul(b, b), 1.0)), w)), {"a": a, "b": b}),
        "matmul": (lambda: ad.tsum(ad.mul(ad.matmul(a, ad.swap_last(b)), w33)), {"a": a, "b": b}),
        "relu": (lambda: ad.tsum(ad.mul(ad.relu(a), w)), {"a": a}),
        "sigmoid": (lambda: ad.tsum(ad.mul(ad.sigmoid(a), w)), {"a": a}),
        "softmax": (lambda: ad.tsum(ad.mul(ad.softmax(a), w)), {"a": a}),
        "log_softmax": (lambda: ad.tsum(ad.mul(ad.log_softmax(a), w)), {"a": a}),
        "layer_norm": (lambda: ad.tsum(ad.mul(ad.layer_norm(a, g, c), w)), {"a": a, "g": g, "c": c}),
        "sum_mean": (lambda: ad.tsum(ad.mul(ad.tmean(a, axis=0, keepdims=True), w14)), {"a": a}),
        "log_clip": (lambda: ad.tsum(ad.mul(ad.tlog(ad.clip_min(ad.add(ad.mul(a, a), 0.1), 1e-12)), w)), {"a": a}),
    }
    for name, (fn, params) in cases.items():
        err = check_gradients(fn, params, h=1e-5)
        worst_ops = max(worst_ops, err)
        assert err < 1e-6, f"{name}: {err}"

    # full dual-encoder step: memory encoder, bilinear attention, copy
    # scatter with target-side renormalization, gate, mixture, smoothed NLL
    cfg = ModelConfig(vocab_size=13, d_model=8, n_heads=2, ffn_dim=12,
                      n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.0, max_len=16, arch="dual_enc")
    params = init_params(cfg, seed=1, dtype=np.float64)
    for name in ("out_w", "out_b", "gate.w", "gate.b"):
        params[name].data = rng.normal(scale=0.3, size=params[name].data.shape)
    x = np.asarray([[4, 5, 6, PAD], [7, 8, 9, 10]])
    y_in = np.asarray([[BOS, 11, 12], [BOS, 5, PAD]])
    y_out = np.asarray([[11, 12, EOS], [5, EOS, PAD]])
    mem = build_memory_batch(
        [[((4, 5), (11, 12)), ((6,), (12,))], [((7, 9), (5, 6))]], sep_id=3, max_len=16)

    def loss_fn():
        out = forward_dual(params, cfg, x, mem, y_in)
        return ad.nll_from_probs(out.p, y_out, smoothing=0.1, pad_id=PAD)

    err_full = check_gradients(loss_fn, params, h=1e-5, max_coords=25, seed=0)
    elapsed = time.time() - t0
    ok = err_full < 1e-6 and elapsed < 60
    report(1, "gradient fidelity", ok,
           f"per-op worst {worst_ops:.2e}, dual-encoder step worst {err_full:.2e}, "
           f"{elapsed:.1f}s (cap 60s)")
    assert err_full < 1e-6
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. Variance of the sample mean
# ---------------------------------------------------------------------------

def test_criterion_02_sample_mean_variance():
    t0 = time.time()
    v1, vk = mc_variance_check([0.0, 1.0], [0.5, 0.5], k=5, n_samples=1_000_000, seed=0)
    ratio = vk / v1
    s1, sk = mc_variance_check([0.0, 1.0], [0.5, 0.5], k=1, n_samples=100_000, seed=1)
    elapsed = time.time() - t0
    ok = abs(ratio / 0.2 - 1.0) <= 0.02 and s1 == sk and elapsed < 30
    report(2, "sample-mean variance bound", ok,
           f"V_single {v1:.5f}, V_mean {vk:.5f}, ratio {ratio:.5f} (target 0.2 +/- 2%), "
           f"k=1 exact equality {s1 == sk}, {elapsed:.1f}s (cap 30s)")
    assert abs(ratio / 0.2 - 1.0) <= 0.02
    assert s1 == sk
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 3. Decomposition hand oracle
# ---------------------------------------------------------------------------

def test_criterion_03_decomposition_hand_oracle():
    dists = [np.asarray([[0.8, 0.2]]), np.asarray([[0.2, 0.8]])]
    e = decompose(dists, np.asarray([0]), truncate=100)
    ok = (
        abs(e.var_forward - 0.192745) <= 1e-4
        and abs(e.var_reverse - 0.223144) <= 1e-4
        and abs(e.loss - (e.bias2_reverse + e.var_reverse)) <= 1e-9
        and abs(e.loss - 0.916291) <= 1e-6
        and abs(e.bias2_reverse - 0.693147) <= 1e-6
    )
    report(3, "decomposition hand oracle", ok,
           f"loss {e.loss:.6f} = bias2 {e.bias2_reverse:.6f} + var {e.var_reverse:.6f} "
           f"(forward-KL var {e.var_forward:.6f}); identity gap {e.identity_gap:.1e}")
    assert e.var_forward == pytest.approx(0.192745, abs=1e-4)
    assert e.var_reverse == pytest.approx(0.223144, abs=1e-4)
    assert e.loss == pytest.approx(e.bias2_reverse + e.var_reverse, abs=1e-9)


# ---------------------------------------------------------------------------
# 4. Retrieval against the brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_04_retrieval_oracle():
    t0 = time.time()
    task = synth_task(n_pairs=1000, n_templates=20, lexicon_size=30, seed=7)
    index = build_index(task.corpus)
    n_queries, misses, mismatches = 100, 0, 0
    for qid in range(n_queries):
        q = task.corpus[qid].source
        pooled = retrieve_topk(index, q, 5, exclude_pair_id=qid, exclude_exact=True)
        exact = brute_force_topk(index, q, 5, exclude_pair_id=qid, exclude_exact=True)
        pool_ids = set(candidates(index, q, limit=100))
        if all(z.pair_id in pool_ids for z in exact):
            if pooled != exact:
                mismatches += 1
        else:
            misses += 1
    elapsed = time.time() - t0
    miss_rate = misses / n_queries
    ok = mismatches == 0 and miss_rate < 0.05 and elapsed < 30
    report(4, "fuzzy-retrieval oracle", ok,
           f"{n_queries} queries over 1000 pairs: 0 expected mismatches "
           f"(got {mismatches}), pool-miss rate {miss_rate:.1%} (cap 5%), "
           f"{elapsed:.1f}s (cap 30s)")
    assert mismatches == 0
    assert miss_rate < 0.05
    assert elapsed < 30


# ---------------------------------------------------------------------------
# 5. Normalization fuzz across all inference modes
# ---------------------------------------------------------------------------

def test_criterion_05_normalization_fuzz():
    t0 = time.time()
    V = 30
    cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, ffn_dim=24,
                      n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.0, max_len=32, arch="dual_enc")
    rng = np.random.default_rng(42)
    models = []
    for seed in range(3):
        params = init_params(cfg, seed=seed)
        for name in ("out_w", "out_b", "gate.w", "gate.b", "tm.w", "tm.h"):
            params[name].data = rng.normal(scale=0.4, size=params[name].data.shape).astype(np.float32)
        models.append(Checkpoint(params=params, config=cfg, meta={}))
    wn = init_weightnet(cfg.d_model, seed=0)
    for name in ("wn.score_w", "wn.score_b"):
        wn[name].data = rng.normal(scale=0.5, size=wn[name].data.shape).astype(np.float32)

    sep = 4

    def rand_seq(lo=1, hi=6):
        return tuple(int(t) for t in rng.integers(5, V, size=rng.integers(lo, hi + 1)))

    def rand_tm(single_token=False):
        if single_token:
            return (rand_seq(1, 1), rand_seq(1, 1))
        return (rand_seq(), rand_seq())

    counts = {"base": 4000, "single": 3000, "average": 2000, "weighted": 1000}
    n_checked, worst = 0, 0.0
    for mode, n in counts.items():
        for i in range(n):
            ckpt = models[i % 3]
            x = rand_seq()
            y_in = (BOS,) + rand_seq(0, 4) if rng.random() < 0.9 else (BOS,)
            if mode == "base":
                Z = [] if i % 10 == 0 else [rand_tm(i % 7 == 0) for _ in range(int(rng.integers(1, 4)))]
                probs = mode_seq_probs("base", ckpt, sep, x, Z, y_in)
            elif mode == "single":
                z = None if i % 10 == 0 else rand_tm(i % 7 == 0)
                probs = mode_seq_probs("single", ckpt, sep, x, [] if z is None else [z], y_in)
            elif mode == "average":
                Z = [rand_tm(i % 7 == 0) for _ in range(int(rng.integers(1, 4)))]
                probs = mode_seq_probs("average", ckpt, sep, x, Z, y_in)
            else:
                Z = [rand_tm(i % 7 == 0) for _ in range(int(rng.integers(1, 4)))]
                probs = weighted_seq_probs(ckpt, wn, sep, x, Z, y_in)
            assert np.isfinite(probs).all(), f"{mode} forward {i}: non-finite"
            assert (probs >= 0).all(), f"{mode} forward {i}: negative mass"
            dev = float(np.abs(probs.sum(axis=-1) - 1.0).max())
            worst = max(worst, dev)
            assert dev <= 1e-6, f"{mode} forward {i}: sum deviation {dev}"
            n_checked += 1
    elapsed = time.time() - t0
    ok = n_checked == 10_000 and worst <= 1e-6
    report(5, "normalization fuzz", ok,
           f"{n_checked} randomized forwards over 4 modes (empty and single-token "
           f"TMs included); worst |sum-1| = {worst:.2e} (cap 1e-6); no NaN/Inf; "
           f"{elapsed:.0f}s")
    assert n_checked == 10_000


# ---------------------------------------------------------------------------
# 6. Ensemble identities
# ---------------------------------------------------------------------------

def test_criterion_06_ensemble_identities():
    V = 24
    cfg = ModelConfig(vocab_size=V, d_model=16, n_heads=2, ffn_dim=24,
                      n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.0, max_len=32, arch="dual_enc")
    rng = np.random.default_rng(3)
    params = init_params(cfg, seed=5)
    for name in ("out_w", "gate.w", "gate.b"):
        params[name].data = rng.normal(scale=0.4, size=params[name].data.shape).astype(np.float32)
    ckpt = Checkpoint(params=params, config=cfg, meta={})
    sep = 4
    x = (5, 6, 7)
    y_pre = (8, 9)
    Z = [((5, 6), (10, 11)), ((7,), (12,)), ((6, 7), (13, 10))]

    # weighted with uniform weights (zero-init score head) == average, bitwise
    wn = init_weightnet(cfg.d_model, seed=0)
    w_probs = weighted_seq_probs(ckpt, wn, sep, x, Z, (BOS,) + y_pre)
    a_probs = mode_seq_probs("average", ckpt, sep, x, Z, (BOS,) + y_pre)
    id1 = (w_probs == a_probs).all()

    # average over K identical TMs == single, bitwise
    same = [Z[0]] * 5
    avg = mode_seq_probs("average", ckpt, sep, x, same, (BOS,) + y_pre)[-1]
    one = mode_seq_probs("single", ckpt, sep, x, Z[:1], (BOS,) + y_pre)[-1]
    id2 = (avg == one).all()

    # gate endpoints return the component distributions exactly
    p_nmt = ad.Tensor(rng.dirichlet(np.ones(V), size=(1, 2)).astype(np.float32))
    p_tm = ad.Tensor(rng.dirichlet(np.ones(V), size=(1, 2)).astype(np.float32))
    zero = ad.Tensor(np.zeros((1, 2, 1), dtype=np.float32))
    onet = ad.Tensor(np.ones((1, 2, 1), dtype=np.float32))
    id3 = (mix_gate(zero, p_nmt, p_tm).data == p_nmt.data).all()
    id4 = (mix_gate(onet, p_nmt, p_tm).data == p_tm.data).all()

    ok = bool(id1 and id2 and id3 and id4)
    report(6, "ensemble identities", ok,
           f"uniform-weighted==average {bool(id1)}, K-identical-average==single {bool(id2)}, "
           f"gate 0 -> generator {bool(id3)}, gate 1 -> copy {bool(id4)} (all bitwise)")
    assert id1 and id2 and id3 and id4


# ---------------------------------------------------------------------------
# 7. End-to-end desk-scale training
# ---------------------------------------------------------------------------

def test_criterion_07_end_to_end_training():
    # 5600 pairs over 320 templates; 256 templates train the models, the
    # remaining 64 exist only in the retrieval datastore, so the vanilla
    # model has never seen their target-side arrangements
    task = synth_task(n_pairs=5600, n_templates=320, lexicon_size=60, seed=3)
    tids = task.template_ids
    train_c = subset(task.corpus, [i for i, t in enumerate(tids) if t < 256])
    held_idx = [i for i, t in enumerate(tids) if t >= 256]
    test_c = subset(task.corpus, held_idx[:50])
    dup_c = subset(task.corpus, held_idx[50:])
    vocab = build_vocab(((p.source, p.target) for p in task.corpus), extra=(SEP_TOKEN,))
    assert len(vocab) <= 300, f"vocab {len(vocab)} exceeds 300"

    mc = ModelConfig(vocab_size=len(vocab), d_model=64, n_heads=4, ffn_dim=128,
                     n_src_layers=2, n_mem_layers=2, n_dec_layers=2,
                     dropout=0.1, max_len=48)

    t0 = time.time()
    vk = train("vanilla", train_c, "none", mc,
               TrainConfig(epochs=32, batch_size=64, base_lr=1.5e-3, warmup=400),
               seed=0, vocab=vocab)
    enc_train = encode_corpus(train_c, vocab)
    enc_test = encode_corpus(test_c, vocab)
    store = corpus_from_pairs(
        [(p.source, p.target) for p in train_c] + [(p.source, p.target) for p in dup_c])
    index = build_index(encode_corpus(store, vocab))

    def bleu_of(ckpt, mode, pairs_enc, k):
        hyps = []
        for p in pairs_enc:
            toks, _ = decode(mode, ckpt, p.source, index, k,
                             vocab.sep_id if ckpt.config.arch != "vanilla" else None)
            hyps.append(list(toks))
        return corpus_bleu(hyps, [list(p.target) for p in pairs_enc]).score

    held_in = bleu_of(vk, "vanilla", enc_train[:100], 0)
    vanilla_time = time.time() - t0
    vanilla_ok = held_in >= 90.0 and vanilla_time < 900

    sk = train("dual_enc", train_c, "single_multi", mc,
               TrainConfig(epochs=8, batch_size=64, base_lr=2e-3, warmup=400,
                           k_retrieval=5),
               seed=0, vocab=vocab)
    vanilla_out = bleu_of(vk, "vanilla", enc_test, 0)
    single_out = bleu_of(sk, "single", enc_test, 1)
    gap = single_out - vanilla_out
    ok = vanilla_ok and gap >= 5.0
    report(7, "end-to-end desk-scale training", ok,
           f"vanilla held-in BLEU {held_in:.2f} (floor 90) in {vanilla_time / 60:.1f} min "
           f"(cap 15); held-out: single-TM {single_out:.2f} vs vanilla {vanilla_out:.2f}, "
           f"gap {gap:+.2f} (floor +5)")
    assert held_in >= 90.0
    assert vanilla_time < 900
    assert gap >= 5.0


# ---------------------------------------------------------------------------
# 8. Bias-variance direction across seeds
# ---------------------------------------------------------------------------

def test_criterion_08_bias_variance_direction():
    t0 = time.time()
    task = synth_task(n_pairs=800, n_templates=70, lexicon_size=30, seed=100)
    corpus = subset(task.corpus, range(700))
    valid = subset(task.corpus, range(700, 760))
    test = subset(task.corpus, range(760, 784))
    cfg = ModelConfig(vocab_size=0, d_model=32, n_heads=2, ffn_dim=64,
                      n_src_layers=1, n_mem_layers=1, n_dec_layers=1,
                      dropout=0.1, max_len=48, arch="dual_enc")
    tc = TrainConfig(epochs=3, batch_size=32, base_lr=2e-3, warmup=50, k_retrieval=5)
    modes = ["vanilla", "base", "weighted"]
    variances: dict[str, list[float]] = {m: [] for m in modes}
    wins_base, wins_weighted = 0, 0
    for seed in (0, 1, 2):
        rep = estimate_bias_variance(modes, corpus, test, valid_corpus=valid,
                                     config=cfg, train_cfg=tc, k_splits=4, seed=seed,
                                     finetune_updates=30)
        v = {e.model: e.var_forward for e in rep.entries}
        for name, val in v.items():
            variances[name].append(val)
        wins_base += v["base"] > v["vanilla"]
        wins_weighted += v["weighted"] < v["base"]
    med = {k: statistics.median(vs) for k, vs in variances.items()}
    elapsed = time.time() - t0
    ok = wins_base >= 2 and wins_weighted >= 2 and elapsed < 7200
    report(8, "bias-variance direction", ok,
           f"median Var: vanilla {med['vanilla']:.4f}, base {med['base']:.4f}, "
           f"weighted {med['weighted']:.4f}; Var(base)>Var(vanilla) in {wins_base}/3 seeds, "
           f"Var(weighted)<Var(base) in {wins_weighted}/3 seeds (need 2); "
           f"{elapsed / 60:.1f} min (cap 120)")
    assert wins_base >= 2
    assert wins_weighted >= 2
    assert elapsed < 7200


# ---------------------------------------------------------------------------
# 9. Plug-and-play trend
# ---------------------------------------------------------------------------

def test_criterion_09_plug_and_play_trend(tmp_path):
    cfg = ExperimentConfig(
        scenario="plug_and_play", out_dir=str(tmp_path / "pnp"), seed=0,
        synth_pairs=4500, synth_templates=320, synth_lexicon=50,
        n_valid=80, n_test=60,
        d_model=48, n_heads=4, ffn_dim=96, n_src_layers=1, n_mem_layers=1,
        n_dec_layers=1, max_len=48,
        epochs=15, tm_epochs=8, batch_size=64, base_lr=2e-3, warmup=150,
        topk=5, finetune_updates=150,
        modes=("vanilla", "weighted"),
    )
    rows = run_experiment(cfg, verbose=False)
    bleu = {(r["stage"], r["mode"]): float(r["bleu"]) for r in rows}
    # four transitions of the frozen weighted checkpoint: from the no-TM
    # baseline of the vanilla row, the separately trained vanilla-arch model,
    # into stage 1, then across growing stages
    path = [bleu[("1/4", "vanilla")]] + [bleu[(f"{j}/4", "weighted")] for j in range(1, 5)]
    ups = sum(b >= a for a, b in zip(path, path[1:]))
    ok = ups >= 3
    report(9, "plug-and-play trend", ok,
           "BLEU path " + " -> ".join(f"{b:.2f}" for b in path) +
           f"; {ups}/4 transitions non-decreasing (need 3)")
    assert ups >= 3


# ---------------------------------------------------------------------------
# 10. CLI determinism from manifests
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    small = ["--d-model", "16", "--heads", "2", "--ffn", "24", "--src-layers", "1",
             "--mem-layers", "1", "--dec-layers", "1", "--epochs", "2",
             "--batch-size", "16", "--warmup", "5", "--topk", "2"]

    assert cli_main(["corpus", "synth", "--pairs", "90", "--templates", "5",
                     "--lexicon", "8", "--seed", "3", "--out", "c.tsv"]) == 0
    assert cli_main(["corpus", "split", "--tsv", "c.tsv", "--parts", "3",
                     "--seed", "1", "--out-dir", "parts"]) == 0

    assert cli_main(["biasvar", "--tsv", "parts/part1.tsv", "--test-tsv",
                     "parts/part3.tsv", "--models", "vanilla,base", "--splits", "2",
                     "--seed", "4", "--out-csv", "bv.csv", "--quiet", *small]) == 0
    bv1 = Path("bv.csv").read_bytes()
    assert cli_main(["rerun", "--manifest", "bv.csv.manifest.json"]) == 0
    bv_same = Path("bv.csv").read_bytes() == bv1

    assert cli_main(["experiment", "low-resource", "--out-dir", "lr", "--seed", "2",
                     "--pairs", "140", "--templates", "6", "--lexicon", "8",
                     "--epochs", "2", "--tm-epochs", "1", "--finetune-updates", "2",
                     "--topk", "2", "--modes", "vanilla,single,weighted",
                     "--config", "cfg.json", "--quiet"]) == 2  # config file missing
    Path("cfg.json").write_text(
        '{"n_valid": 20, "n_test": 10, "d_model": 16, "n_heads": 2, "ffn_dim": 24,'
        ' "n_src_layers": 1, "n_mem_layers": 1, "n_dec_layers": 1,'
        ' "batch_size": 16, "warmup": 5}',
        encoding="utf-8")
    assert cli_main(["experiment", "low-resource", "--out-dir", "lr", "--seed", "2",
                     "--pairs", "140", "--templates", "6", "--lexicon", "8",
                     "--epochs", "2", "--tm-epochs", "1", "--finetune-updates", "2",
                     "--topk", "2", "--modes", "vanilla,single,weighted",
                     "--config", "cfg.json", "--quiet"]) == 0
    ex1 = Path("lr/results.csv").read_bytes()
    assert cli_main(["rerun", "--manifest", "lr/results.csv.manifest.json"]) == 0
    ex_same = Path("lr/results.csv").read_bytes() == ex1

    ok = bv_same and ex_same
    report(10, "CLI determinism", ok,
           f"biasvar CSV byte-identical on rerun: {bv_same}; "
           f"experiment CSV byte-identical on rerun: {ex_same}")
    assert bv_same and ex_same
