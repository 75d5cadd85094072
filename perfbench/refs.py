"""Independent reference computations for the benchmark's output checks.

Each function restates a definition from the method (not from tmlab's
code) so that a check compares two separate computations:

  levenshtein      token edit distance, full dynamic-programming table
  similarity       1 - lev / max(|x|, |z|)
  sampling_probs   exp(sim / T) / sum exp(sim / T), in closed form
  corpus_bleu      clipped n-gram precision counted from n-gram lists
"""

from __future__ import annotations

import math
from typing import Sequence


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost insert/delete/substitute distance over whole tokens."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


def similarity(x: Sequence, z: Sequence) -> float:
    """Fuzzy-match score in [0, 1]; 1 means token-identical."""
    return 1.0 - levenshtein(x, z) / max(len(x), len(z))


def sampling_probs(sims: Sequence[float], temperature: float) -> list[float]:
    """P(z) = exp(sim(z)/T) / sum over the pool, without a max shift."""
    weights = [math.exp(s / temperature) for s in sims]
    total = math.fsum(weights)
    return [w / total for w in weights]


def _ngrams(tokens: Sequence, n: int) -> list[tuple]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def corpus_bleu(hyps: Sequence[Sequence], refs: Sequence[Sequence], max_n: int = 4) -> float:
    """Corpus BLEU on a 0..100 scale.

    Matches are clipped by the reference count of each n-gram. An order
    with no match at all gets add-one smoothing, and the brevity penalty
    is exp(1 - r/h) when the hypotheses are shorter than the references.
    """
    matched = [0] * max_n
    possible = [0] * max_n
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            ref_left: dict[tuple, int] = {}
            for g in _ngrams(ref, n):
                ref_left[g] = ref_left.get(g, 0) + 1
            hyp_grams = _ngrams(hyp, n)
            possible[n - 1] += len(hyp_grams)
            for g in hyp_grams:
                if ref_left.get(g, 0) > 0:
                    ref_left[g] -= 1
                    matched[n - 1] += 1
    log_p = 0.0
    for m, t in zip(matched, possible):
        log_p += math.log(m / t if m else 1.0 / (t + 1))
    if hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / max(hyp_len, 1))
    return 100.0 * bp * math.exp(log_p / max_n)
