"""Bias-variance decomposition over data splits.

The estimator splits the training corpus into k equal parts, trains N
models per part, evaluates every model's next-token distribution at
each test point, and aggregates:

  loss      mean cross entropy against the gold token (raw dists),
  variance  mean KL between per-model dists and their normalized
            geometric mean (truncated to the top-n entries first),
  bias^2    loss - variance.

Two KL argument orders are carried side by side: forward takes the
mean of KL(model || geometric mean), the direction split-training
studies conventionally report; reverse takes KL(geometric mean ||
model), the order under which loss = bias^2 + variance holds as an
algebraic identity (the report records the residual gap). Negative
bias^2 values are flagged, never clipped.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tmlab.corpus import BOS, EOS, ParallelCorpus, SEP_TOKEN, Vocab, build_vocab, encode_corpus, split_equal
from tmlab.ensemble import FINETUNE_MIN_PAIRS, LOGP_FLOOR, batch_seq_probs, mode_tms, train_family
from tmlab.errors import DataError
from tmlab.evalmetrics import token_ce_from_dists
from tmlab.model import ModelConfig, TrainConfig
from tmlab.retrieval import build_index
from tmlab.seeding import subseed, substream


# Variance / squared-bias magnitudes observed when this family of models is
# trained at production scale on a large legal-domain corpus (dual-encoder
# backbone, 4-way split estimator). Desk-scale runs land elsewhere; these
# anchor expectations when reading reports.
FULL_SCALE_REFERENCE = {
    "vanilla": {"variance": 0.1573, "bias2": 1.9992},
    "base": {"variance": 0.2168, "bias2": 1.8460},
    "single": {"variance": 0.1944, "bias2": 1.9369},
    "average": {"variance": 0.1918, "bias2": 1.9395},
    "weighted": {"variance": 0.1814, "bias2": 1.9137},
}


# ---------------------------------------------------------------------------
# Distribution arithmetic
# ---------------------------------------------------------------------------

def geometric_mean_dist(dists: Sequence[np.ndarray]) -> np.ndarray:
    """Normalized geometric mean: P(y) proportional to exp(mean_i log P_i(y))."""
    if len(dists) == 0:
        raise DataError("geometric_mean_dist needs at least one distribution")
    stack = np.maximum(np.asarray(dists, dtype=np.float64), LOGP_FLOOR)
    g = np.exp(np.log(stack).mean(axis=0))
    return g / g.sum()


def truncate_top(dist: np.ndarray, n: int = 100) -> np.ndarray:
    """Keep the n largest entries (ties to the lower token id), renormalize."""
    if n < 1:
        raise DataError(f"truncate_top needs n >= 1, got {n}")
    dist = np.asarray(dist, dtype=np.float64)
    if dist.size <= n:
        return dist.copy()
    order = np.lexsort((np.arange(dist.size), -dist))
    keep = order[:n]
    out = np.zeros_like(dist)
    out[keep] = dist[keep]
    return out / out.sum()


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """Sum_y p(y) log(p(y)/q(y)) in nats; q is floored where p has mass."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], LOGP_FLOOR))))


# ---------------------------------------------------------------------------
# Split-model estimator
# ---------------------------------------------------------------------------

@dataclass
class BiasVarEntry:
    model: str
    loss: float
    var_forward: float         # mean KL(model || geometric mean)
    var_reverse: float         # mean KL(geometric mean || model); exact identity order
    bias2_forward: float
    bias2_reverse: float
    kl_gold_mean: float        # KL(one-hot gold || geomean), truncated dists
    identity_gap: float        # truncated loss minus (kl_gold_mean + var_reverse)
    negative_bias_flag: bool


@dataclass
class BiasVarReport:
    entries: list[BiasVarEntry]
    n_splits: int
    n_per_split: int
    seed: int
    truncate: int
    n_points: int

    def csv_rows(self) -> list[tuple]:
        rows = []
        for e in self.entries:
            rows.append((e.model, "forward_kl", f"{e.loss:.6f}", f"{e.var_forward:.6f}", f"{e.bias2_forward:.6f}"))
            rows.append((e.model, "reverse_kl", f"{e.loss:.6f}", f"{e.var_reverse:.6f}", f"{e.bias2_reverse:.6f}"))
        return rows

    def to_text(self) -> str:
        lines = [
            "bias_variance_report:",
            f"  n_splits: {self.n_splits}",
            f"  n_per_split: {self.n_per_split}",
            f"  seed: {self.seed}",
            f"  truncate: {self.truncate}",
            f"  n_points: {self.n_points}",
        ]
        for e in self.entries:
            lines += [
                f"  model: {e.model}",
                f"    loss_nats_per_token: {e.loss:.6f}",
                f"    variance_forward_kl: {e.var_forward:.6f}",
                f"    variance_reverse_kl: {e.var_reverse:.6f}",
                f"    bias2_forward_kl: {e.bias2_forward:.6f}",
                f"    bias2_reverse_kl: {e.bias2_reverse:.6f}",
                f"    kl_gold_to_mean: {e.kl_gold_mean:.6f}",
                f"    exact_identity_gap: {e.identity_gap:.2e}",
                f"    negative_bias_flag: {str(e.negative_bias_flag).lower()}",
            ]
        return "\n".join(lines) + "\n"


def decompose(dists_by_model: Sequence[np.ndarray], golds: np.ndarray,
              truncate: int = 100) -> BiasVarEntry:
    """Aggregate the decomposition given per-model point distributions.

    dists_by_model: list of (n_points, V) arrays, one per trained model.
    """
    M = len(dists_by_model)
    if M < 1:
        raise DataError("decompose needs at least one model")
    raw = [np.asarray(d, dtype=np.float64) for d in dists_by_model]
    n_points = raw[0].shape[0]
    loss = float(np.mean([token_ce_from_dists(d, golds) for d in raw]))

    trunc = [np.stack([truncate_top(row, truncate) for row in d]) for d in raw]
    var_forward = var_reverse = kl_gold = loss_trunc = 0.0
    for pt in range(n_points):
        per_model = [t[pt] for t in trunc]
        pbar = geometric_mean_dist(per_model)
        var_forward += sum(kl(pm, pbar) for pm in per_model) / M
        var_reverse += sum(kl(pbar, pm) for pm in per_model) / M
        gold_onehot = np.zeros_like(pbar)
        gold_onehot[golds[pt]] = 1.0
        kl_gold += kl(gold_onehot, pbar)
        loss_trunc += -float(np.mean([np.log(max(pm[golds[pt]], LOGP_FLOOR)) for pm in per_model]))
    var_forward /= n_points
    var_reverse /= n_points
    kl_gold /= n_points
    loss_trunc /= n_points

    return BiasVarEntry(
        model="",
        loss=loss,
        var_forward=var_forward,
        var_reverse=var_reverse,
        bias2_forward=loss - var_forward,
        bias2_reverse=loss - var_reverse,
        kl_gold_mean=kl_gold,
        identity_gap=loss_trunc - (kl_gold + var_reverse),
        negative_bias_flag=(loss - var_forward) < 0 or (loss - var_reverse) < 0,
    )


def _run_split_unit(modes: Sequence[str], split: ParallelCorpus, vocab: Vocab, enc_test: ParallelCorpus,
                    valid: ParallelCorpus | None, config: ModelConfig | None, tc: TrainConfig,
                    seed: int, finetune_updates: int, tag: str | None) -> dict[str, np.ndarray]:
    """Train and evaluate one (split, repetition) unit, announcing `tag` on
    stderr unless it is None; returns per-mode dists."""
    if tag is not None:
        print(f"[biasvar] unit {tag}: training on {len(split)} pairs", file=sys.stderr)
    index = build_index(encode_corpus(split, vocab))
    # every mode but vanilla reads these top-k TMs; vanilla's rows ignore them
    retrieved = [mode_tms("base", index, p.source, tc.k_retrieval) for p in enc_test]

    def recipe(train_mode: str) -> tuple[str, ModelConfig | None, TrainConfig]:
        # single_multi presents each pair k+1 times per epoch; scale the
        # other modes so every model sees the same optimizer-step budget
        passes = 1 if train_mode == "single_multi" else tc.k_retrieval + 1
        return "dual_enc", config, dataclasses.replace(tc, epochs=tc.epochs * passes)

    family = train_family(modes, split, vocab, recipe, seed, valid, finetune_updates)
    items = [(p.source, Z, (BOS,) + p.target) for p, Z in zip(enc_test, retrieved)]
    out: dict[str, np.ndarray] = {}
    for mode in modes:
        ckpt, wn = family.member(mode)
        out[mode] = np.concatenate(
            [probs for probs, _ in batch_seq_probs(mode, ckpt, vocab.sep_id, items, wn)], axis=0)
    return out


def estimate_bias_variance(
    modes: Sequence[str],
    corpus: ParallelCorpus,
    test_pairs: ParallelCorpus,
    valid_corpus: ParallelCorpus | None = None,
    config: ModelConfig | None = None,
    train_cfg: TrainConfig = TrainConfig(),
    k_splits: int = 4,
    n_per_split: int = 1,
    seed: int = 0,
    truncate: int = 100,
    finetune_updates: int = 150,
    verbose: bool = False,
) -> BiasVarReport:
    """Train k*N split models per prediction mode and decompose their test behavior.

    Every backbone is a dual encoder, trained as `train_cfg` says; each
    reads `train_cfg.k_retrieval` TMs per query. Each split model
    retrieves TMs from its own training split, both during training
    (self-excluded) and at evaluation (plain top-K), so the estimator
    sees exactly the fluctuation a different training sample would
    induce. Every model variant receives the same optimizer-step budget,
    compensating for the k+1 presentation passes of single-TM training.
    Units run one after another, split by split.
    """
    if k_splits > len(corpus):
        raise DataError(f"cannot split {len(corpus)} pairs into {k_splits} parts")
    if "weighted" in modes and valid_corpus is None:
        raise DataError("the weighted mode needs a valid_corpus for fine-tuning")
    if "weighted" in modes and len(valid_corpus) < FINETUNE_MIN_PAIRS:
        raise DataError(f"valid corpus has {len(valid_corpus)} pairs; the weighted fine-tune "
                        f"needs at least {FINETUNE_MIN_PAIRS}")

    vocab = build_vocab(((p.source, p.target) for p in corpus), extra=(SEP_TOKEN,))
    enc_test = encode_corpus(test_pairs, vocab)
    golds = np.concatenate([np.asarray(p.target + (EOS,), dtype=np.int64) for p in enc_test])
    splits = split_equal(corpus, k_splits, seed)

    results = [_run_split_unit(modes, splits[i], vocab, enc_test, valid_corpus, config, train_cfg,
                               subseed(seed, f"split{i}", f"rep{j}"), finetune_updates,
                               f"{i}.{j}" if verbose else None)
               for i in range(k_splits) for j in range(n_per_split)]

    entries = []
    for mode in modes:
        e = decompose([r[mode] for r in results], golds, truncate)
        e.model = mode
        entries.append(e)
    return BiasVarReport(
        entries=entries,
        n_splits=k_splits,
        n_per_split=n_per_split,
        seed=seed,
        truncate=truncate,
        n_points=int(golds.size),
    )


# ---------------------------------------------------------------------------
# Monte-Carlo verifier for the sample-mean variance bound
# ---------------------------------------------------------------------------

def mc_variance_check(
    values: Sequence[float],
    weights: Sequence[float],
    k: int,
    n_samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical variance of f(z) versus the mean of k i.i.d. draws.

    values are f evaluated on a finite support, weights its probability
    masses. Returns (V_single, V_mean_of_k); the second converges to
    V_single / k, with equality exactly at k = 1 since both estimators
    then read the same draws.
    """
    if k < 1 or n_samples < 1:
        raise DataError("mc_variance_check needs k >= 1 and n_samples >= 1")
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.shape != weights.shape:
        raise DataError("values and weights must align")
    rng = substream(seed, "mc")
    draws = rng.choice(values.size, size=(n_samples, k), p=weights / weights.sum())
    f = values[draws]
    v_single = float(f[:, 0].var())
    v_mean = float(f.mean(axis=1).var())
    return v_single, v_mean
