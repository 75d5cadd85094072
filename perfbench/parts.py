"""The three kinds of timed work the workloads are built from.

  retrieval_part  index build per datastore stage, plain and training-style
                  top-k, sample_tm_probs, repeated load_index of a TMIDX1 file
  training_part   train() per (arch, mode), then the weighted fine-tune
  decode_part     greedy and beam decode in five modes, token_ce scoring

Each part times its calls into named phases (seconds and work units) and
returns its outputs; each has a check that tests those outputs against
independent computations or properties of the method. Every workload
runs all three parts, so every run reports every end-to-end metric; a
workload's own part is large and the other two are small.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tmlab import autodiff, biasvar, corpus, ensemble, evalmetrics, model, retrieval

import refs

MODES = ("vanilla", "base", "single", "average", "weighted")
K = 5
TEMPERATURE = 0.1
BEAM = 4
TRAIN_SEED = 0              # model initialization, dropout and batch order
ORACLE_QUERIES = 4          # per stage, checked against brute_force_topk
SAMPLE_SIM_CHECKS = 10      # sampled pools per stage re-scored with refs.similarity
RELOAD_QUERIES = 50         # queries compared between the built and the reloaded index
LOAD_SAMPLES = 5            # timed groups of load_index calls per round, at most
# The model computes in float32 (unit roundoff 2**-24), so a distribution
# sums to 1, and a log-probability from a step-wise forward over a prefix
# equals the one from a teacher-forced forward over the whole sequence,
# only to a few float32 ulps: sums were seen up to 6.2e-7 off 1 and mean
# log-probabilities up to 1.04e-6 apart. 1e-5 is about 84 ulps of 1.0; a
# wrong token or a dropped EOS term moves a score by far more.
F32_TOL = 1e-5
WORK_DIR = Path(__file__).resolve().parent / ".work"


def save_store(index: retrieval.RetrievalIndex) -> Path:
    """Save the index as TMIDX1 in a directory removed when the process exits."""
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK_DIR)
    atexit.register(shutil.rmtree, tmp, True)
    path = Path(tmp) / "store.idx"
    retrieval.save_index(index, path)
    return path


def warm_up(vocab: corpus.Vocab, pair: corpus.Pair, tm: corpus.Pair) -> None:
    """One small forward per architecture, so that first-call costs and the
    positional-encoding cache stay out of every timed phase."""
    x = np.asarray([pair.source], dtype=np.int64)
    y = np.asarray([(corpus.BOS,) + pair.target], dtype=np.int64)
    with autodiff.no_grad():
        for arch in ("vanilla", "dual_enc"):
            cfg = model.ModelConfig(vocab_size=len(vocab), arch=arch)
            params = model.init_params(cfg, seed=0)
            if arch == "vanilla":
                model.forward_vanilla(params, cfg, x, y)
            else:
                mem = model.build_memory_batch([[(tm.source, tm.target)]], vocab.sep_id, cfg.max_len)
                model.forward_dual(params, cfg, x, mem, y)


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------

@dataclass
class RetrievalInputs:
    stages: list            # [(encoded store corpus, training-style query pair ids)]
    plain: list             # plain query sources, run at every stage
    sample: list            # sample_tm_probs query sources, run at every stage
    index_path: Path        # the last stage's store saved as TMIDX1
    loads: int              # load_index calls per round: a multiple of LOAD_SAMPLES, or fewer


def retrieval_part(r: RetrievalInputs, phases, ops) -> dict:
    out = {"plain": [], "train": [], "sample": [], "indexes": []}
    for j, (store, train_ids) in enumerate(r.stages):
        with phases.timed(f"index.build.{j}"):
            index = ops.call(retrieval.build_index, store)
        phases.units[f"index.build.{j}"] += len(store)
        with phases.timed(f"topk.plain.{j}"):
            plain = [ops.call(retrieval.retrieve_topk, index, q, K) for q in r.plain]
        with phases.timed(f"topk.train.{j}"):
            train = [ops.call(retrieval.retrieve_topk, index, store[i].source, K,
                              exclude_pair_id=i, exclude_exact=True) for i in train_ids]
        phases.units[f"topk.plain.{j}"] += len(plain)
        phases.units[f"topk.train.{j}"] += len(train)
        with phases.timed(f"sample.{j}"):
            sample = [ops.call(retrieval.sample_tm_probs, index, q, TEMPERATURE) for q in r.sample]
        phases.units[f"sample.{j}"] += len(sample)
        for key, value in (("plain", plain), ("train", train), ("sample", sample), ("indexes", index)):
            out[key].append(value)
    # the loads are identical, so they are timed in up to LOAD_SAMPLES groups
    group = max(1, r.loads // LOAD_SAMPLES)
    loaded = []
    for _ in range(r.loads // group):
        with phases.timed("index.load"):
            loaded += [ops.call(retrieval.load_index, r.index_path) for _ in range(group)]
    phases.units["index.load"] += sum(len(x) for x in loaded if x is not None)
    out["loaded"] = loaded[-1]
    return out


def retrieval_fingerprint(out: dict):
    def hits(sets):
        return [[None if h is None else tuple((z.pair_id, z.similarity) for z in h) for h in st]
                for st in sets]

    samples = [[None if r is None else (tuple(r[0].tolist()), tuple(z.pair_id for z in r[1]))
                for r in st] for st in out["sample"]]
    return hits(out["plain"]), hits(out["train"]), samples


def _check_hits(checks, store, q, hits, what, exclude=None) -> None:
    keys = [(-z.similarity, z.pair_id) for z in hits]
    checks.expect(len(hits) == min(K, len(store) - (exclude is not None)),
                  f"{what}: {len(hits)} hits")
    checks.expect(keys == sorted(keys) and len(set(keys)) == len(keys),
                  f"{what}: not ordered by (similarity desc, pair_id asc) without duplicates")
    for z in hits:
        pair = store[z.pair_id]
        checks.expect(z.source == pair.source and z.target == pair.target,
                      f"{what}: pair {z.pair_id} does not match the store")
        ref = refs.similarity(q, pair.source)
        checks.expect(abs(z.similarity - ref) <= 1e-12,
                      f"{what}: pair {z.pair_id} similarity {z.similarity!r} != {ref!r}")
        if exclude is not None:
            checks.expect(z.pair_id != exclude, f"{what}: excluded pair {exclude} returned")
            checks.expect(z.source != tuple(q), f"{what}: token-identical source returned")


def check_retrieval(r: RetrievalInputs, out: dict, checks) -> int:
    """Checks every returned set; returns the oracle queries whose exact
    top-k lies outside the candidate pool (pool misses)."""
    pool_miss = 0
    for j, (store, train_ids) in enumerate(r.stages):
        stage = f"stage {j + 1}/{len(r.stages)}"
        index = out["indexes"][j]
        for q, hits in zip(r.plain, out["plain"][j]):
            if hits is not None:
                _check_hits(checks, store, q, hits, f"{stage} plain")
        for i, hits in zip(train_ids, out["train"][j]):
            if hits is not None:
                _check_hits(checks, store, store[i].source, hits, f"{stage} train {i}", exclude=i)
        for n, (q, result) in enumerate(zip(r.sample, out["sample"][j])):
            if result is None:
                continue
            probs, pairs = result
            what = f"{stage} sample {n}"
            checks.expect(len(pairs) == min(retrieval.DEFAULT_POOL, len(store)),
                          f"{what}: pool of {len(pairs)}")
            checks.expect(abs(math.fsum(probs.tolist()) - 1.0) <= 1e-12, f"{what}: sum != 1")
            closed = refs.sampling_probs([z.similarity for z in pairs], TEMPERATURE)
            checks.expect(max(abs(a - b) for a, b in zip(probs.tolist(), closed)) <= 1e-12,
                          f"{what}: probabilities differ from exp(sim/T)/sum")
            if n < SAMPLE_SIM_CHECKS:
                checks.expect(all(abs(z.similarity - refs.similarity(q, store[z.pair_id].source))
                                  <= 1e-12 for z in pairs), f"{what}: a pool similarity differs")
        # oracle: pooled top-k equals the exhaustive ranking when the pool holds it
        half = ORACLE_QUERIES // 2
        cases = [(q, {}) for q in r.plain[:: max(1, len(r.plain) // half)][:half]]
        cases += [(store[i].source, {"exclude_pair_id": i, "exclude_exact": True})
                  for i in train_ids[:half]]
        for q, kw in cases:
            exact = retrieval.brute_force_topk(index, q, K, **kw)
            pool = set(retrieval.candidates(index, q, limit=retrieval.DEFAULT_POOL))
            if all(z.pair_id in pool for z in exact):
                checks.expect(retrieval.retrieve_topk(index, q, K, **kw) == exact,
                              f"{stage}: pooled top-k differs from brute_force_topk")
            else:
                pool_miss += 1
    loaded, built = out["loaded"], out["indexes"][-1]
    if loaded is not None and built is not None:
        checks.expect(len(loaded) == len(built), "reloaded index has another size")
        for q in r.plain[:RELOAD_QUERIES]:
            checks.expect(retrieval.retrieve_topk(loaded, q, K) == retrieval.retrieve_topk(built, q, K),
                          "reloaded TMIDX1 index returns another top-k")
    return pool_miss


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

TRAIN_RUNS = (("vanilla", "none"), ("dual_enc", "topk"), ("dual_enc", "single_multi"))
PREDICT_MODE = {"none": "vanilla", "topk": "base", "single_multi": "single"}
# default model config; batches of 16 and a short warm-up so that a few
# hundred pairs give enough updates to learn from
TRAIN_CONFIG = model.TrainConfig(batch_size=16, base_lr=5e-3, warmup=30)


@dataclass
class TrainingInputs:
    train: corpus.ParallelCorpus
    valid: corpus.ParallelCorpus
    vocab: corpus.Vocab
    config: model.TrainConfig = TRAIN_CONFIG
    epochs: dict = field(default_factory=lambda: {m: 1 for _, m in TRAIN_RUNS})
    ft_updates: int = 12
    ft_eval_every: int | None = None   # None: finetune_weighted's default

    def presentations(self, mode: str) -> int:
        passes = K + 1 if mode == "single_multi" else 1
        return self.epochs[mode] * len(self.train) * passes


def training_part(t: TrainingInputs, phases, ops) -> dict:
    out = {}
    for arch, mode in TRAIN_RUNS:
        tc = dataclasses.replace(t.config, epochs=t.epochs[mode], k_retrieval=K)
        with phases.timed(f"train.{mode}"):
            out[mode] = ops.call(model.train, arch, t.train, mode, None, tc, TRAIN_SEED, vocab=t.vocab)
        phases.units[f"train.{mode}"] += t.presentations(mode)
    with phases.timed("finetune"):
        out["finetune"] = ops.call(
            ensemble.finetune_weighted, out["single_multi"], t.valid, t.vocab, t.train,
            updates=t.ft_updates, seed=TRAIN_SEED, k=K, eval_every=t.ft_eval_every)
    phases.units["finetune"] += t.ft_updates
    return out


def family(trained: dict) -> dict:
    """Checkpoint and weightnet per prediction mode."""
    ft = trained["finetune"]
    return {
        "vanilla": (trained["none"], None),
        "base": (trained["topk"], None),
        "single": (trained["single_multi"], None),
        "average": (trained["single_multi"], None),
        "weighted": (ft.checkpoint, ft.weightnet),
    }


def init_family(vocab: corpus.Vocab) -> dict:
    """Untrained checkpoints for every mode. Their greedy and beam
    hypotheses never pick EOS, so each decode runs to its cap: a fixed
    amount of decoding work whatever the seed."""
    ckpts = {}
    for arch in ("vanilla", "dual_enc"):
        cfg = model.ModelConfig(vocab_size=len(vocab), arch=arch)
        ckpts[arch] = model.Checkpoint(params=model.init_params(cfg, seed=0), config=cfg, meta={})
    wn = ensemble.init_weightnet(ckpts["dual_enc"].config.d_model, seed=0)
    return {mode: (ckpts["vanilla" if mode == "vanilla" else "dual_enc"],
                   wn if mode == "weighted" else None) for mode in MODES}


def _digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def training_fingerprint(out: dict):
    ft = out["finetune"]
    return (tuple(_digest(out[m].params) if out[m] else None for _, m in TRAIN_RUNS),
            None if ft is None else (_digest(ft.checkpoint.params), _digest(ft.weightnet), ft.curve))


def check_training(t: TrainingInputs, out: dict, checks, heldout=None, index=None) -> dict:
    """Finite losses and the fine-tune's selection; given a held-out slice,
    also each checkpoint's teacher-forced CE on it below log V."""
    log_v = math.log(len(t.vocab))
    trained = [(PREDICT_MODE[m], out[m], None) for _, m in TRAIN_RUNS]
    ft = out["finetune"]
    if ft is not None:
        trained.append(("weighted", ft.checkpoint, ft.weightnet))
        checks.expect(all(math.isfinite(loss) for _, loss in ft.curve),
                      "fine-tune curve has a non-finite loss")
        best = min(ft.curve, key=lambda c: (c[1], c[0]))
        checks.expect(ft.selected_update == best[0],
                      f"fine-tune selected update {ft.selected_update}, lowest loss at {best[0]}")
    ces = {}
    for mode, ckpt, wn in trained:
        if ckpt is None:
            continue
        checks.expect(all(math.isfinite(x) for x in ckpt.meta.get("history", [])),
                      f"{mode}: non-finite training loss")
        if heldout is None:
            continue
        nats, _ = evalmetrics.token_ce(ckpt, heldout, t.vocab, mode=mode, index=index,
                                       k=1 if mode == "single" else K, weightnet=wn)
        ces[mode] = nats
        checks.expect(math.isfinite(nats) and nats < log_v,
                      f"{mode}: held-out CE {nats:.4f} is not below log V = {log_v:.4f}")
    return {"heldout_ce": ces, "log_v": log_v}


# ---------------------------------------------------------------------------
# Decoding and scoring
# ---------------------------------------------------------------------------

@dataclass
class DecodeInputs:
    vocab: corpus.Vocab
    index: retrieval.RetrievalIndex
    test: corpus.ParallelCorpus       # string tokens, as token_ce takes them
    greedy_n: int                     # greedy decodes the first greedy_n test sentences
    beam_n: int                       # beam decodes the first beam_n
    score_repeats: int                # token_ce passes over the test set per mode
    max_new: int | None = None        # None: the decoder's own cap, max_len - 1
    enc_test: corpus.ParallelCorpus = field(init=False)

    def __post_init__(self) -> None:
        self.enc_test = corpus.encode_corpus(self.test, self.vocab)
        self.gold_tokens = sum(len(p.target) + 1 for p in self.enc_test)


def _mode_args(fam: dict, d: DecodeInputs, mode: str):
    """(checkpoint, weightnet, separator id, k) as the CLI passes them."""
    ckpt, wn = fam[mode]
    sep = d.vocab.sep_id if mode != "vanilla" else None
    k = {"vanilla": 0, "single": 1}.get(mode, K)
    return ckpt, wn, sep, k


def _cap(fam: dict, d: DecodeInputs) -> int:
    return d.max_new or fam["vanilla"][0].config.max_len - 1


def decode_part(d: DecodeInputs, fam: dict, phases, ops) -> dict:
    cap = _cap(fam, d)
    out = {"greedy": {}, "beam": {}, "ce": {}}
    for kind, n, extra in (("greedy", d.greedy_n, {}),
                           ("beam", d.beam_n, {"strategy": "beam", "beam_width": BEAM})):
        for mode in MODES:
            ckpt, wn, sep, k = _mode_args(fam, d, mode)
            res = []
            for j, p in enumerate(d.enc_test[:n]):
                # one sample per sentence, so the calibration passes follow the host closely
                with phases.timed(f"{kind}.{mode}.{j}"):
                    res.append(ops.call(ensemble.decode, mode, ckpt, p.source, d.index, k, sep,
                                        weightnet=wn, max_new=d.max_new, **extra))
            # emitted tokens: the hypothesis plus its EOS, unless it hit the cap
            phases.units[f"{kind}.{mode}"] += sum(len(r[0]) + (len(r[0]) < cap)
                                                  for r in res if r is not None)
            out[kind][mode] = res
    for mode in MODES:
        ckpt, wn, sep, k = _mode_args(fam, d, mode)
        for _ in range(d.score_repeats):
            with phases.timed(f"score.{mode}"):
                ce = ops.call(evalmetrics.token_ce, ckpt, d.test, d.vocab, mode=mode,
                              index=d.index, k=k, weightnet=wn)
            if ce is not None:
                phases.units[f"score.{mode}"] += d.gold_tokens
        out["ce"][mode] = None if ce is None else ce[0]
    return out


def decode_fingerprint(out: dict):
    return out["greedy"], out["beam"], out["ce"]


def _tms(d: DecodeInputs, x, k: int) -> list:
    return [ensemble.tm_ids(z) for z in retrieval.retrieve_topk(d.index, x, k)] if k else []


def check_decode(d: DecodeInputs, fam: dict, out: dict, checks, require_eos: bool) -> dict:
    """Distributions, greedy paths, beam-1, token_ce, identities, decomposition, BLEU.

    With `require_eos`, most greedy hypotheses must end in EOS before the
    cap in every mode: decoding then measures real translation.
    """
    cap = _cap(fam, d)
    golds = np.concatenate([np.asarray(p.target + (corpus.EOS,)) for p in d.enc_test])
    refs_tok = [list(p.target) for p in d.enc_test]
    dists, lengths = {}, {}
    for mode in MODES:
        ckpt, wn, sep, k = _mode_args(fam, d, mode)
        greedy, beam, ce = out["greedy"][mode], out["beam"][mode], out["ce"][mode]
        if any(r is None for r in greedy + beam) or ce is None:
            continue  # failed operations are counted already
        ended = sum(len(t) < cap for t, _ in greedy)
        if require_eos:
            checks.expect(2 * ended > len(greedy),
                          f"{mode}: only {ended}/{len(greedy)} greedy hypotheses end in EOS")
        rows, stepwise_total = [], 0.0
        for n, p in enumerate(d.enc_test):
            what = f"{mode} sentence {p.pair_id}"
            Z = _tms(d, p.source, k)
            gold = ensemble.mode_seq_probs(mode, ckpt, sep, p.source, Z,
                                           (corpus.BOS,) + p.target, weightnet=wn)
            checks.expect(np.isfinite(gold).all() and (gold >= 0).all()
                          and np.abs(gold.sum(axis=-1) - 1.0).max() <= F32_TOL,
                          f"{what}: a distribution is not normalized")
            rows.append(gold)
            step_fn = ensemble.make_step_fn(mode, ckpt, sep, tuple(p.source), Z, wn)
            stepwise_total -= ensemble.sequence_score(step_fn, p.target) * (len(p.target) + 1)
            if n >= len(greedy):
                continue
            # the greedy path, step-wise, against one teacher-forced pass over it
            toks, score = greedy[n]
            hyp = ensemble.mode_seq_probs(mode, ckpt, sep, p.source, Z,
                                          (corpus.BOS,) + toks, weightnet=wn)
            picks = list(toks) + ([corpus.EOS] if len(toks) < cap else [])
            checks.expect(all(hyp[t, tok] >= hyp[t].max() - 1e-6 for t, tok in enumerate(picks)),
                          f"{what}: a greedy token is not the teacher-forced maximum")
            full = tuple(toks) + (corpus.EOS,)
            tf_score = float(np.mean([math.log(max(hyp[t, tok], 1e-12))
                                      for t, tok in enumerate(full)]))
            checks.expect(abs(tf_score - score) <= F32_TOL,
                          f"{what}: greedy score {score!r} != teacher-forced {tf_score!r}")
            one = ensemble.decode(mode, ckpt, p.source, d.index, k, sep, strategy="beam",
                                  beam_width=1, weightnet=wn, max_new=d.max_new)
            checks.expect(one[0] == toks, f"{what}: beam 1 != greedy")
        dists[mode] = np.concatenate(rows, axis=0)
        tf_total = ce * d.gold_tokens
        checks.expect(abs(tf_total - stepwise_total) <= 1e-6 * abs(tf_total),
                      f"{mode}: token_ce total {tf_total!r} != step-wise total {stepwise_total!r}")
        for kind, res in (("greedy", greedy), ("beam", beam)):
            hyps = [list(t) for t, _ in res]
            bleu = evalmetrics.corpus_bleu(hyps, refs_tok[: len(hyps)]).score
            checks.expect(abs(bleu - refs.corpus_bleu(hyps, refs_tok[: len(hyps)])) <= 1e-9,
                          f"{mode} {kind}: corpus_bleu disagrees with the n-gram count")
            lengths[f"{kind}.{mode}"] = {
                "hyp_len": sum(map(len, hyps)) / len(hyps),
                "ref_len": sum(map(len, refs_tok[: len(hyps)])) / len(hyps),
                "ended_in_eos": sum(len(h) < cap for h in hyps),
                "bleu": bleu,
            }
    _check_identities(d, fam, checks)
    if len(dists) == len(MODES):
        entry = biasvar.decompose([dists[m] for m in MODES], golds)
        checks.expect(abs(entry.identity_gap) <= 1e-9,
                      f"decompose: reverse-KL identity gap {entry.identity_gap!r}")
        mean_ce = float(np.mean([out["ce"][m] for m in MODES]))
        checks.expect(abs(entry.loss - mean_ce) <= 1e-9,
                      f"decompose: loss {entry.loss!r} != mean token_ce {mean_ce!r}")
    return lengths


def _check_identities(d: DecodeInputs, fam: dict, checks, pairs: int = 4) -> None:
    """average over K copies of one TM == single; a zero-score weightnet's weighted == average."""
    single_ckpt, _ = fam["single"]
    weighted_ckpt, _ = fam["weighted"]
    sep = d.vocab.sep_id
    zero_wn = ensemble.init_weightnet(weighted_ckpt.config.d_model, seed=0)
    for p in d.enc_test[:pairs]:
        Z = _tms(d, p.source, K)
        y = (corpus.BOS,) + p.target
        avg = ensemble.mode_seq_probs("average", single_ckpt, sep, p.source, [Z[0]] * K, y)
        one = ensemble.mode_seq_probs("single", single_ckpt, sep, p.source, [Z[0]], y)
        checks.expect(np.array_equal(avg, one),
                      f"sentence {p.pair_id}: average over {K} copies of one TM != single")
        wtd = ensemble.mode_seq_probs("weighted", weighted_ckpt, sep, p.source, Z, y,
                                      weightnet=zero_wn)
        avg = ensemble.mode_seq_probs("average", weighted_ckpt, sep, p.source, Z, y)
        checks.expect(np.array_equal(wtd, avg),
                      f"sentence {p.pair_id}: zero-initialized weighted != average")


# ---------------------------------------------------------------------------
# End-to-end metrics from the phases
# ---------------------------------------------------------------------------

def end_to_end(phases) -> dict:
    """The eight work metrics, from every workload's three parts."""
    return {
        "topk_queries_per_s": (phases.rate("topk"), "queries/s"),
        "sample_queries_per_s": (phases.rate("sample"), "queries/s"),
        "index_load_pairs_per_s": (phases.rate("index"), "pairs/s"),
        "train_presentations_per_s": (phases.rate("train"), "presentations/s"),
        "finetune_updates_per_s": (phases.rate("finetune"), "updates/s"),
        "greedy_tokens_per_s": (phases.rate("greedy"), "tokens/s"),
        "beam_tokens_per_s": (phases.rate("beam"), "tokens/s"),
        "score_tokens_per_s": (phases.rate("score"), "tokens/s"),
    }


def work(phases, training: TrainingInputs | None, pool_miss: int) -> dict:
    """Denominators for the per-layer ratios, from the traced round."""
    w = {
        "emitted_tokens": phases.total("greedy")[0] + phases.total("beam")[0],
        "scored_tokens": phases.total("score")[0],
        "pool_miss_queries": pool_miss,
    }
    if training is not None:
        w.update(presentations=phases.total("train")[0], updates=training.ft_updates)
    for kind in ("greedy", "beam", "score"):
        for mode in MODES:
            w[f"{kind}.{mode}"] = phases.rate(f"{kind}.{mode}")
    return w
