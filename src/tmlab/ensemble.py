"""Inference-time prediction modes, the weighted-ensemble fine-tune, and
the family of checkpoints the modes read.

Modes over a TM-augmented checkpoint:

  base      one forward conditioned jointly on all retrieved TMs.
  single    one forward conditioned on a single TM (or none).
  average   uniform mixture of the K single-TM forwards; reuses the
            single-TM checkpoint unchanged.
  weighted  softmax-weighted mixture; per-TM scores come from a small
            two-layer network over the plain decoder state and the
            TM-contextualized state, fine-tuned jointly with the backbone.

Mixtures anchor their summation on the first component, so K identical
components reproduce the single prediction bit for bit, and uniform
weights reproduce the average ensemble bit for bit. Components are
mixed in ascending k order; the result is renormalized only when the
total drifts past 1e-6.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from tmlab import autodiff as ad
from tmlab.corpus import BOS, EOS, PAD, ParallelCorpus, Vocab, encode_corpus
from tmlab.errors import DataError
from tmlab.fileio import atomic_write_text
from tmlab.model import (
    Checkpoint,
    DecodeCache,
    ModelConfig,
    TrainConfig,
    _pad_batch,
    draw_params,
    epoch_batches,
    forward_rows,
    save_checkpoint,
    train,
)
from tmlab.retrieval import RetrievalIndex, TmPair, build_index, retrieve_topk
from tmlab.seeding import substream

# The training mode of the backbone each prediction mode reads; `weighted`
# reads a fine-tuned copy of its backbone.
BACKBONE = {"vanilla": "none", "base": "topk", "single": "single_multi",
            "average": "single_multi", "weighted": "single_multi"}
PREDICT_MODES = tuple(BACKBONE)

TmIds = tuple[tuple[int, ...], tuple[int, ...]]  # (source ids, target ids)

# The weighted fine-tune's learning rate, constant over its updates.
FINETUNE_LR = 2e-4
# The fewest valid pairs the fine-tune takes: it fits on 90% of them and
# selects its checkpoint on the rest, which must not be empty.
FINETUNE_MIN_PAIRS = 10

# The floor under a probability before its log, wherever a sequence or a
# test set is scored, so that an exact zero costs a finite amount.
LOGP_FLOOR = 1e-12


def tm_ids(z: TmPair) -> TmIds:
    return tuple(z.source), tuple(z.target)


def mode_tms(mode: str, index: RetrievalIndex | None, x: Sequence[int], k: int) -> list[TmIds]:
    """The top-k TMs `mode` reads for source `x`: none for `vanilla`."""
    if mode == "vanilla":
        return []
    if index is None:
        raise DataError(f"mode '{mode}' needs a retrieval index")
    return [tm_ids(z) for z in retrieve_topk(index, tuple(x), k)]


# ---------------------------------------------------------------------------
# Prediction modes: the rows each reads, and how it combines them
# ---------------------------------------------------------------------------

def mode_rows(mode: str, ckpt: Checkpoint, Z: Sequence[TmIds], weightnet=None) -> list[list[TmIds]]:
    """The TM list of each forward row `mode` reads for one target prefix.

    The ensembles read one row per TM. `weighted` scores them from the
    TM-free decoder state too: a dual encoder reads its TMs after the
    decoder stack, so any of its rows has that state; any other
    architecture gets one more row, without TMs, last.
    """
    if mode in ("vanilla", "base", "single"):
        return [{"vanilla": [], "base": list(Z), "single": list(Z[:1])}[mode]]
    if mode not in ("average", "weighted"):
        raise DataError(f"unknown prediction mode '{mode}'")
    if mode == "weighted":
        if weightnet is None:
            raise DataError("weighted mode needs a weightnet")
        d_model = ckpt.config.d_model
        if weightnet["wn.w2"].data.shape[0] != d_model:
            raise DataError(
                f"weightnet d_model {weightnet['wn.w2'].data.shape[0]} does not match "
                f"checkpoint d_model {d_model}"
            )
    if not Z:
        raise DataError("an ensemble needs at least one TM; use vanilla mode instead")
    extra = [[]] if mode == "weighted" and ckpt.config.arch != "dual_enc" else []
    return [[z] for z in Z] + extra


def combine_rows(mode: str, st, n_rows: int, weightnet=None):
    """Distributions (H, T, V) from a forward over H groups of the `n_rows`
    rows `mode_rows` gave, and the mixture weights (H, T, K) of an ensemble
    mode (None otherwise)."""
    p = st.p.data
    if mode in ("vanilla", "base", "single"):
        return p.astype(np.float64), None
    H, T, V = p.shape[0] // n_rows, p.shape[1], p.shape[2]
    if mode == "average":
        weights = _softmax64(np.zeros((H, T, n_rows)))
    else:
        with ad.no_grad():
            weights = _softmax64(mixture_scores(weightnet, st, n_rows).data)
    K = weights.shape[-1]
    dists = p.reshape(H, n_rows, T, V)[:, :K].transpose(1, 0, 2, 3).reshape(K, H * T, V)
    return mix_components(dists.astype(np.float64), weights.reshape(H * T, K)).reshape(H, T, V), weights


def mixture_scores(weightnet, st, n_rows: int) -> ad.Tensor:
    """The weightnet's scores (H, T, K) over H groups of `weighted`'s `n_rows`
    rows, and the one rule for the states it reads: h_t is row 0's decoder
    state, or the TM-free row's when there is no h_tz (the TMs shaped h, so
    `mode_rows` added that row); each TM row gives its h_tz, else its h."""
    K = n_rows - (st.h_tz is None)
    H, T, D = st.h.shape[0] // n_rows, st.h.shape[1], st.h.shape[2]
    h = ad.reshape(st.h, (H, n_rows, T, D))
    h_tm = h if st.h_tz is None else ad.reshape(st.h_tz, (H, n_rows, T, D))
    return weightnet_scores(weightnet, h[:, K if K < n_rows else 0],
                            ad.permute(h_tm[:, :K], (0, 2, 1, 3)))     # h_tk: (H, T, K, D)


def _softmax64(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def mix_components(dists: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted mixture of K stacked distributions.

    dists: (K, T, V); weights: (T, K) summing to 1 per step. Summation
    is anchored on component 0, so identical components pass through
    untouched. Renormalizes defensively when the total drifts beyond
    what float32-normalized components can account for.
    """
    base = dists[0]
    out = base.copy()
    for k in range(dists.shape[0]):
        out = out + weights[:, k : k + 1] * (dists[k] - base)
    total = out.sum(axis=-1, keepdims=True)
    drift = np.abs(total - 1.0) > 1e-6
    if drift.any():
        rows = drift[:, 0]
        out[rows] = out[rows] / total[rows]
    return out


# ---------------------------------------------------------------------------
# Teacher-forced sequence distributions (no grad)
# ---------------------------------------------------------------------------

# Most floats in one teacher-forced forward's (rows, T, V) output; a larger
# group runs as several forwards, never splitting a sentence's rows.
MAX_FORWARD_FLOATS = 1 << 22


def batch_seq_probs(mode: str, ckpt, sep_id, items: Sequence[tuple], weightnet=None):
    """Each (x, Z, y_in) item's distributions (T, V) in `mode`, and its
    mixture weights (T, K) for an ensemble mode (else None), in input order.

    Items whose source, target prefix and row TMs have equal lengths share
    one forward. No row is padded beyond what it is alone, so every result
    is bitwise the single item's: numpy runs one GEMM per batch item and
    every reduction stays within a row.
    """
    rows = [mode_rows(mode, ckpt, Z, weightnet) for _, Z, _ in items]
    groups: dict[tuple, list[int]] = {}
    for i, ((x, _, y_in), rs) in enumerate(zip(items, rows)):
        shape = tuple(tuple((len(src), len(tgt)) for src, tgt in r) for r in rs)
        groups.setdefault((len(x), len(y_in), shape), []).append(i)
    out: list = [None] * len(items)
    for (_, T, shape), members in groups.items():
        R = len(shape)
        per_forward = max(1, MAX_FORWARD_FLOATS // (R * T * ckpt.config.vocab_size))
        for lo in range(0, len(members), per_forward):
            ids = members[lo : lo + per_forward]
            y = np.asarray([items[i][2] for i in ids], dtype=np.int64)
            with ad.no_grad():
                st = forward_rows(ckpt.params, ckpt.config, sep_id, [tuple(items[i][0]) for i in ids],
                                  [rows[i] for i in ids], y)
            probs, weights = combine_rows(mode, st, R, weightnet)
            for j, i in enumerate(ids):
                out[i] = (probs[j], None if weights is None else weights[j])
    return out


def mode_seq_probs(mode: str, ckpt, sep_id, x, Z: Sequence[TmIds], y_in,
                   weightnet=None) -> np.ndarray:
    """Next-token distributions (T, V) at every step of y_in, in one mode.

    A one-item `batch_seq_probs`, which scoring and the bias-variance
    estimator call with whole test sets; incremental decoding reads the
    same `mode_rows` and `combine_rows`.
    """
    return batch_seq_probs(mode, ckpt, sep_id, [(x, Z, y_in)], weightnet)[0][0]


# ---------------------------------------------------------------------------
# Weighting network
# ---------------------------------------------------------------------------

def weightnet_layout(d_model: int) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of the weightnet's parameters, as `draw_params` reads them:
    two linear layers with residual + layer norm, and a zero score head."""
    D = d_model
    return [("wn.w1", (2 * D, D), "xavier"), ("wn.b1", (D,), "zeros"),
            ("wn.w2", (D, D), "xavier"), ("wn.b2", (D,), "zeros"),
            ("wn.ln_g", (D,), "ones"), ("wn.ln_b", (D,), "zeros"),
            ("wn.score_w", (D, 1), "zeros"), ("wn.score_b", (1,), "zeros")]


def init_weightnet(d_model: int, seed: int, dtype=np.float32) -> dict[str, ad.Tensor]:
    """A fresh weightnet. Its zero scores make the initial weighted ensemble
    coincide exactly with the average ensemble."""
    return draw_params(weightnet_layout(d_model), substream(seed, "weightnet"), dtype)


def weightnet_scores(wn, h_t: ad.Tensor, h_tk: ad.Tensor) -> ad.Tensor:
    """Per-TM scalar scores: h_t (B,T,D) broadcast against h_tk (B,T,K,D)."""
    B, T, K, D = h_tk.shape
    ht = ad.broadcast_to(ad.reshape(h_t, (B, T, 1, D)), (B, T, K, D))
    u = ad.concat([ht, h_tk], axis=-1)
    h1 = ad.relu(ad.linear(u, wn["wn.w1"], wn["wn.b1"]))
    h2 = ad.linear(h1, wn["wn.w2"], wn["wn.b2"])
    o = ad.layer_norm(ad.add(h1, h2), wn["wn.ln_g"], wn["wn.ln_b"])
    s = ad.linear(o, wn["wn.score_w"], wn["wn.score_b"])
    return ad.reshape(s, (B, T, K))


def save_weightnet(wn, path: str | Path, meta: dict) -> None:
    ad.save_arrays(path, {k: v.data for k, v in wn.items()}, meta)


def load_weightnet(path: str | Path, vocab: Vocab) -> tuple[dict[str, ad.Tensor], dict]:
    """Load a weightnet for `vocab`; its tensors must be `init_weightnet`'s for one d_model."""
    arrays, meta = ad.load_arrays(path)
    b1 = arrays.get("wn.b1")
    d_model = b1.shape[0] if b1 is not None and b1.ndim == 1 else 0
    ad.check_tensor_set(path, "weightnet file", arrays, weightnet_layout(d_model))
    vocab.check_recorded(meta, path)
    return {k: ad.parameter(v, dtype=v.dtype) for k, v in arrays.items()}, meta


# ---------------------------------------------------------------------------
# Weighted-ensemble fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class FinetuneResult:
    checkpoint: Checkpoint
    weightnet: dict[str, ad.Tensor]
    curve: list[tuple[int, float]]   # (update, held-out loss)
    selected_update: int

    def save(self, ckpt_path: str | Path, weightnet_path: str | Path,
             curve_path: str | Path | None, vocab: Vocab) -> None:
        """Write the checkpoint, the weightnet and, unless None, the `update<TAB>loss` curve."""
        save_checkpoint(self.checkpoint, ckpt_path)
        save_weightnet(self.weightnet, weightnet_path,
                       {"d_model": self.checkpoint.config.d_model, "vocab_hash": vocab.content_hash()})
        if curve_path is not None:
            atomic_write_text(curve_path, "".join(f"{u}\t{l:.6f}\n" for u, l in self.curve))


def finetune_weighted(
    ckpt: Checkpoint,
    valid_corpus: ParallelCorpus,
    vocab: Vocab,
    datastore: ParallelCorpus,
    updates: int = 2000,
    seed: int = 0,
    k: int | None = None,
    batch_size: int = 16,
    eval_every: int | None = None,
) -> FinetuneResult:
    """Fine-tune backbone plus weighting network on 90% of the valid data,
    at the constant learning rate FINETUNE_LR.

    The remaining 10% selects the checkpoint: the parameters minimizing
    held-out loss over the recorded curve (update 0 included) win. Labels
    are smoothed as the backbone's training smoothed them, and `k` defaults
    to its training's (`Checkpoint.trained`). The fine-tuned checkpoint
    records the `k` it mixed as its `k_retrieval`.
    """
    k = ckpt.trained("k_retrieval") if k is None else k
    smoothing = ckpt.trained("label_smoothing")
    if len(valid_corpus) < FINETUNE_MIN_PAIRS:
        raise DataError(f"valid corpus has {len(valid_corpus)} pairs; the weighted fine-tune "
                        f"needs at least {FINETUNE_MIN_PAIRS}")
    if ckpt.config.arch not in ("dual_enc", "single_enc"):
        raise DataError("weighted ensemble needs a TM-capable checkpoint")
    if k < 1:
        raise DataError(f"the weighted fine-tune mixes k >= 1 TMs per query, got k={k}")
    sep = vocab.sep_id
    cfg = ckpt.config
    # fine-tune a private copy; the caller's single-TM checkpoint stays usable
    ckpt = Checkpoint(
        params={k_: ad.parameter(p.data.copy(), dtype=p.data.dtype) for k_, p in ckpt.params.items()},
        config=cfg,
        meta=dict(ckpt.meta),
    )
    enc_valid = encode_corpus(valid_corpus, vocab)
    index = build_index(encode_corpus(datastore, vocab))

    perm = substream(seed, "valid_split").permutation(len(enc_valid))
    n_fit = max(1, int(round(0.9 * len(enc_valid))))
    fit_ids = perm[:n_fit]
    held_ids = perm[n_fit:]            # not empty: there are at least FINETUNE_MIN_PAIRS

    tms = {int(i): mode_tms("weighted", index, enc_valid[int(i)].source, k) for i in perm}
    wn = init_weightnet(cfg.d_model, seed)
    all_params = {**ckpt.params, **wn}
    state = ad.adam_init(all_params, lr=FINETUNE_LR)
    drop_rng = substream(seed, "dropout")

    def batch_loss(ids: Sequence[int], train: bool) -> ad.Tensor:
        # one forward over the `weighted` rows of every sentence, weighed as inference weighs them
        pairs = [enc_valid[int(i)] for i in ids]
        rows = [mode_rows("weighted", ckpt, tms[int(i)], wn) for i in ids]
        R = len(rows[0])
        sources, y_in = [r.source for r in pairs], _pad_batch([(BOS,) + r.target for r in pairs])
        if train:
            # a row per source, so that every row draws its own dropout
            sources, rows = [x for x in sources for _ in range(R)], [[tm] for rs in rows for tm in rs]
            y_in = np.repeat(y_in, R, axis=0)
        st = forward_rows(ckpt.params, cfg, sep, sources, rows, y_in,
                          drop_rng if train else None, train)
        w = ad.softmax(mixture_scores(wn, st, R), axis=-1)                # (B, T, K)
        B, T, K = w.shape
        p = ad.reshape(st.p, (B, R, T, cfg.vocab_size))[:, :K]
        mixed = ad.tsum(ad.mul(ad.reshape(ad.permute(w, (0, 2, 1)), (B, K, T, 1)), p), axis=1)
        y_out = _pad_batch([r.target + (EOS,) for r in pairs])
        return ad.nll_from_probs(mixed, y_out, smoothing, PAD)

    def heldout_loss() -> float:
        # per target token over the whole held-out split, as `token_ce` counts
        with ad.no_grad():
            total, n = 0.0, 0
            for lo in range(0, len(held_ids), batch_size):
                ids = held_ids[lo : lo + batch_size]
                tokens = sum(len(enc_valid[int(i)].target) + 1 for i in ids)
                total += float(batch_loss(ids, train=False).data) * tokens
                n += tokens
        return total / n

    eval_every = eval_every or max(1, updates // 10)
    curve = [(0, heldout_loss())]
    best = (curve[0][1], 0, {kk: p.data.copy() for kk, p in all_params.items()})
    batches = itertools.chain.from_iterable(epoch_batches(fit_ids, batch_size, seed))
    for done, ids in zip(range(1, updates + 1), batches):
        # `loss` keeps this tape alive until the next batch's replaces it: freeing
        # it sooner measured ~10% fewer updates/s on perfbench's translate workload
        loss = batch_loss(ids, train=True)
        ad.update(loss, all_params, state, done - 1)
        if done % eval_every == 0 or done == updates:
            curve.append((done, heldout_loss()))
            if curve[-1][1] < best[0]:
                best = (curve[-1][1], done, {kk: p.data.copy() for kk, p in all_params.items()})

    for kk, p in all_params.items():
        p.data = best[2][kk]
    meta = dict(ckpt.meta)
    meta.update({"k_retrieval": k, "finetuned_updates": updates, "finetune_seed": seed,
                 "selected_update": best[1]})
    return FinetuneResult(
        checkpoint=Checkpoint(params=ckpt.params, config=cfg, meta=meta),
        weightnet=wn,
        curve=curve,
        selected_update=best[1],
    )


# ---------------------------------------------------------------------------
# The model family a set of prediction modes reads
# ---------------------------------------------------------------------------

@dataclass
class Family:
    backbones: dict[str, Checkpoint]      # keyed by training mode
    finetune: FinetuneResult | None       # the weighted member, when requested

    def member(self, mode: str) -> tuple[Checkpoint, dict[str, ad.Tensor] | None]:
        """The checkpoint and weightnet that `mode` predicts with."""
        if mode not in BACKBONE:
            raise DataError(f"unknown prediction mode '{mode}'")
        if mode == "weighted":
            return self.finetune.checkpoint, self.finetune.weightnet
        return self.backbones[BACKBONE[mode]], None


def train_family(
    modes: Sequence[str],
    corpus: ParallelCorpus,
    vocab: Vocab,
    recipe: Callable[[str], tuple[str, ModelConfig | None, TrainConfig]],
    seed: int,
    valid: ParallelCorpus | None = None,
    finetune_updates: int = 0,
) -> Family:
    """Train each backbone `modes` read once, then fine-tune `weighted`.

    `recipe(train_mode)` gives a backbone's (arch, model config, train
    config).
    """
    unknown = [m for m in modes if m not in BACKBONE]
    if unknown:
        raise DataError(f"unknown prediction modes {unknown}; choose from {PREDICT_MODES}")
    recipes = {tm: recipe(tm) for tm in dict.fromkeys(BACKBONE[m] for m in modes)}
    backbones = {tm: train(arch, corpus, tm, cfg, tc, seed, vocab=vocab)
                 for tm, (arch, cfg, tc) in recipes.items()}
    finetune = None
    if "weighted" in modes:
        finetune = finetune_weighted(backbones[BACKBONE["weighted"]], valid, vocab, corpus,
                                     updates=finetune_updates, seed=seed)
    return Family(backbones, finetune)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

StepFn = Callable[[tuple[int, ...]], np.ndarray]
BatchStepFn = Callable[[Sequence[tuple[int, ...]]], np.ndarray]   # H prefixes -> (H, V)
# The beam bound's allowance per step: a float32 probability may round
# above 1, here by up to 1e-5 (about 84 float32 ulps of 1).
LOGP_SLACK = math.log(1 + 1e-5)


def make_step_fn(mode: str, ckpt, sep_id, x, Z, weightnet=None) -> StepFn:
    """The teacher-forced step: one whole forward per prefix."""
    def step(prefix: tuple[int, ...]) -> np.ndarray:
        return mode_seq_probs(mode, ckpt, sep_id, x, Z, (BOS,) + prefix, weightnet)[-1]

    return step


def make_cached_step_fn(mode: str, ckpt, sep_id, x, Z, weightnet=None) -> BatchStepFn:
    """The incremental step: one forward over every prefix, each with every
    row the mode reads, reading only its newest token.

    The first call takes empty prefixes and encodes the source and the
    TMs once; each prefix of a later call extends one of the previous
    call's prefixes by one token, and the decoding cache's rows are
    selected from that prefix's.
    """
    rows = mode_rows(mode, ckpt, Z, weightnet)
    R = len(rows)
    cache = DecodeCache()
    last: dict[tuple[int, ...], int] = {}

    def step(prefixes: Sequence[tuple[int, ...]]) -> np.ndarray:
        nonlocal last
        if cache.steps:
            cache.select(np.asarray([last[p[:-1]] for p in prefixes]))
            y = np.asarray([p[-1:] for p in prefixes], dtype=np.int64)
        else:
            y = np.full((len(prefixes), 1), BOS, dtype=np.int64)
        with ad.no_grad():
            st = forward_rows(ckpt.params, ckpt.config, sep_id, [tuple(x)] * len(y),
                              [rows] * len(y), y, cache=cache)
        last = {p: i for i, p in enumerate(prefixes)}
        return combine_rows(mode, st, R, weightnet)[0][:, -1]

    return step


def sequence_score(step_fn: StepFn, tokens: tuple[int, ...]) -> float:
    """Length-normalized log-probability of `tokens` followed by EOS."""
    full = tuple(tokens) + (EOS,)
    total = 0.0
    for t, tok in enumerate(full):
        dist = step_fn(full[:t])
        total += math.log(max(float(dist[tok]), LOGP_FLOOR))
    return total / len(full)


def greedy_decode(step_fn: BatchStepFn, max_new: int) -> tuple[tuple[int, ...], float]:
    """Arg-max decoding; the score is `sequence_score`'s, summed on the same walk.

    Only a hypothesis cut at `max_new` takes one more step, for its EOS.
    """
    out: tuple[int, ...] = ()
    total = 0.0
    for _ in range(max_new):
        dist = step_fn([out])[0]
        tok = int(np.argmax(dist))
        total += math.log(max(float(dist[tok]), LOGP_FLOOR))
        if tok == EOS:
            return out, total / (len(out) + 1)
        out = out + (tok,)
    total += math.log(max(float(step_fn([out])[0][EOS]), LOGP_FLOOR))
    return out, total / (len(out) + 1)


def beam_decode(step_fn: BatchStepFn, width: int, max_new: int) -> tuple[tuple[int, ...], float]:
    """Beam search scored by length-normalized log-probability.

    Candidates are expanded in cumulative log-prob order with ties broken
    toward lower token ids, so beam(1) reproduces greedy decoding.

    The search stops early only when its result can no longer change. A
    live hypothesis with cumulative log-prob S and r steps left finishes
    with at most S + r·LOGP_SLACK over at most max_new + 1 tokens; while
    that is negative, their quotient bounds its score. Once the best
    finished score is strictly above every live bound, the exhaustive
    search would return that same hypothesis. Without the cap there is no
    such bound (Huang et al. 2017, "When to Finish?").
    """
    if width < 1:
        raise DataError(f"beam width must be >= 1, got {width}")
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    done: list[tuple[tuple[int, ...], float]] = []
    for t in range(max_new):
        if not live:
            break
        if done:
            top = max(score for _, score in live) + (max_new - t) * LOGP_SLACK
            if top < 0 and max(score for _, score in done) > top / (max_new + 1):
                break
        dists = step_fn([tokens for tokens, _ in live])
        logps = np.log(np.maximum(dists.astype(np.float64), 1e-300))
        cands: list[tuple[float, tuple[int, ...]]] = []
        for (tokens, score), logp in zip(live, logps):
            top_ids = np.lexsort((np.arange(logp.size), -logp))[:width]
            for tok in top_ids:
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


def decode(
    mode: str,
    ckpt: Checkpoint,
    x: Sequence[int],
    index: RetrievalIndex,
    k: int,
    sep_id: int | None,
    strategy: str = "greedy",
    beam_width: int = 4,
    weightnet=None,
    max_new: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Translate one encoded source; returns (token ids, normalized score)."""
    Z = mode_tms(mode, index, x, k)
    step_fn = make_cached_step_fn(mode, ckpt, sep_id, tuple(x), Z, weightnet)
    max_new = max_new or (ckpt.config.max_len - 1)
    if strategy == "greedy":
        return greedy_decode(step_fn, max_new)
    if strategy == "beam":
        return beam_decode(step_fn, beam_width, max_new)
    raise DataError(f"unknown decoding strategy '{strategy}'")


def decode_all(mode: str, ckpt: Checkpoint, sources: Sequence[Sequence[int]], vocab: Vocab,
               index: RetrievalIndex | None, k: int, beam: int = 1,
               weightnet=None) -> list[tuple[tuple[int, ...], float]]:
    """`decode` each encoded source in turn: greedily when `beam` <= 1, else by beam search."""
    sep = vocab.sep_id if ckpt.config.arch != "vanilla" else None
    strategy = "greedy" if beam <= 1 else "beam"
    return [decode(mode, ckpt, x, index, k, sep, strategy=strategy, beam_width=beam,
                   weightnet=weightnet) for x in sources]
