"""Translation quality and likelihood metrics: corpus BLEU and token cross entropy."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tmlab.corpus import BOS, EOS, ParallelCorpus, Vocab, encode_corpus
from tmlab.ensemble import MAX_FORWARD_FLOATS, batch_seq_probs, tm_ids
from tmlab.errors import DataError
from tmlab.model import Checkpoint
from tmlab.retrieval import RetrievalIndex, retrieve_topk

CE_FLOOR = 1e-12


@dataclass(frozen=True)
class BleuResult:
    score: float                      # 0..100
    precisions: tuple[float, ...]     # p_1..p_max_n
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngram_counts(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hyps: Sequence[Sequence], refs: Sequence[Sequence], max_n: int = 4) -> BleuResult:
    """Corpus-level BLEU with brevity penalty.

    Add-one smoothing applies only to orders with zero matches, so
    scores agree exactly with the unsmoothed statistic whenever every
    order matched at least once.
    """
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis count {len(hyps)} != reference count {len(refs)}")
    if len(hyps) == 0:
        raise DataError("corpus_bleu needs at least one sentence pair")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hc = _ngram_counts(hyp, n)
            rc = _ngram_counts(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    precisions = []
    for m, t in zip(matches, totals):
        if m > 0:
            precisions.append(m / t)
        else:
            precisions.append((m + 1) / (t + 1))
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n) * 100.0
    return BleuResult(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=bp,
        hyp_len=hyp_len,
        ref_len=ref_len,
    )


def token_ce_from_dists(dists: np.ndarray, golds: np.ndarray) -> float:
    """Mean -log P(gold) over rows; picked mass clipped into [1e-12, 1]."""
    picked = np.clip(dists[np.arange(len(golds)), golds], CE_FLOOR, 1.0)
    return float(-np.log(picked).mean())


def token_ce(
    ckpt: Checkpoint,
    corpus: ParallelCorpus,
    vocab: Vocab,
    mode: str = "vanilla",
    index: RetrievalIndex | None = None,
    k: int = 5,
    weightnet=None,
) -> tuple[float, float]:
    """Teacher-forced cross entropy in nats/token and its exp (perplexity).

    Every non-pad target position counts once, the closing EOS included.
    """
    if ckpt.meta.get("vocab_hash") not in (None, vocab.content_hash()):
        raise DataError("vocab mismatch between corpus vocab and checkpoint")
    if mode != "vanilla" and index is None:
        raise DataError(f"mode '{mode}' needs a retrieval index")
    enc = encode_corpus(corpus, vocab)
    if not len(enc):
        raise DataError("no sentence pairs to score")
    sep = vocab.sep_id if ckpt.config.arch != "vanilla" else None
    items = []
    for p in enc:
        zs = [tm_ids(z) for z in retrieve_topk(index, p.source, k)] if mode != "vanilla" else []
        items.append((p.source, zs, (BOS,) + p.target))
    # a slice of the test set per call keeps its distributions within one forward's cap
    T = max((len(p.target) + 1 for p in enc), default=1)
    per_call = max(1, MAX_FORWARD_FLOATS // (T * ckpt.config.vocab_size))
    total, count = 0.0, 0
    for lo in range(0, len(items), per_call):
        dists = batch_seq_probs(mode, ckpt, sep, items[lo : lo + per_call], weightnet)
        for p, (probs, _) in zip(enc.pairs[lo : lo + per_call], dists):
            golds = np.asarray(p.target + (EOS,), dtype=np.int64)
            total += token_ce_from_dists(probs, golds) * len(golds)
            count += len(golds)
    nats = total / count
    return nats, math.exp(nats)
