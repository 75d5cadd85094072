"""TM datastore: inverted-index candidate generation, edit-distance
re-ranking, top-K selection, and temperature-controlled sampling.

Candidate generation scores pairs by bag-of-tokens overlap with the
query (a reproducible, dependency-free stand-in for a full search
engine); the shortlist is then re-ranked by the normalized edit-distance
similarity. All tie-breaks are (similarity desc, pair_id asc) so results
are total-order deterministic.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from tmlab.corpus import ParallelCorpus, corpus_from_pairs
from tmlab.errors import DataError
from tmlab.fileio import atomic_write_bytes

DEFAULT_POOL = 100


@dataclass(frozen=True)
class TmPair:
    """One retrieved bilingual pair with its similarity to the query."""

    source: tuple
    target: tuple
    pair_id: int
    similarity: float = 0.0


TmSet = tuple[TmPair, ...]  # ordered by (similarity desc, pair_id asc), no dup ids


def edit_distance(a: Sequence, b: Sequence) -> int:
    """Token-level Levenshtein distance with unit costs."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        append = cur.append
        prev_jm1 = prev[0]
        for j, cb in enumerate(b, 1):
            pj = prev[j]
            best = prev_jm1 if ca == cb else prev_jm1 + 1
            if pj + 1 < best:
                best = pj + 1
            last = cur[j - 1] + 1
            if last < best:
                best = last
            append(best)
            prev_jm1 = pj
        prev = cur
    return prev[-1]


def similarity(x: Sequence, x_tm: Sequence) -> float:
    """Fuzzy-match score: 1 - dist(x, x_tm) / max(|x|, |x_tm|), clamped to [0, 1]."""
    if not x and not x_tm:
        raise DataError("similarity is undefined for two empty sequences")
    d = edit_distance(x, x_tm)
    s = 1.0 - d / max(len(x), len(x_tm))
    return min(1.0, max(0.0, s))


@dataclass(frozen=True)
class RetrievalIndex:
    """Immutable corpus store plus token -> posting-list map."""

    sources: tuple[tuple, ...]
    targets: tuple[tuple, ...]
    postings: dict           # token -> np.ndarray of pair_ids (unique, ascending)
    counts: dict             # token -> np.ndarray of per-pair source counts
    lengths: np.ndarray      # per-pair source length

    def __len__(self) -> int:
        return len(self.sources)

    def pair(self, pair_id: int, sim: float = 0.0) -> TmPair:
        return TmPair(self.sources[pair_id], self.targets[pair_id], pair_id, sim)


def build_index(corpus: ParallelCorpus) -> RetrievalIndex:
    if len(corpus) == 0:
        raise DataError("cannot index an empty corpus")
    post: dict = {}
    cnts: dict = {}
    for p in corpus:
        for tok, c in Counter(p.source).items():
            post.setdefault(tok, []).append(p.pair_id)
            cnts.setdefault(tok, []).append(c)
    return RetrievalIndex(
        sources=tuple(p.source for p in corpus),
        targets=tuple(p.target for p in corpus),
        postings={t: np.asarray(v, dtype=np.int64) for t, v in post.items()},
        counts={t: np.asarray(v, dtype=np.int64) for t, v in cnts.items()},
        lengths=np.asarray([len(p.source) for p in corpus], dtype=np.int64),
    )


def candidates(index: RetrievalIndex, x: Sequence, limit: int = DEFAULT_POOL) -> list[int]:
    """Top-`limit` pair ids by bag-of-tokens overlap with x.

    Ties break by ascending pair_id; if fewer than `limit` pairs share a
    token, the pool is padded with the remaining ids in ascending order.
    """
    if limit < 1:
        raise DataError(f"limit must be >= 1, got {limit}")
    n = len(index)
    scores = np.zeros(n, dtype=np.int64)
    for tok, cx in Counter(x).items():
        ids = index.postings.get(tok)
        if ids is not None:
            scores[ids] += np.minimum(cx, index.counts[tok])
    hit_ids = np.flatnonzero(scores)
    order = hit_ids[np.lexsort((hit_ids, -scores[hit_ids]))]
    pool = order[:limit].tolist()
    if len(pool) < limit:
        chosen = set(pool)
        for pid in range(n):
            if pid not in chosen:
                pool.append(pid)
                if len(pool) == limit:
                    break
    return pool


def rank_by_similarity(index: RetrievalIndex, x: Sequence, pair_ids: Sequence[int]) -> list[TmPair]:
    scored = [
        TmPair(index.sources[pid], index.targets[pid], pid, similarity(x, index.sources[pid]))
        for pid in pair_ids
    ]
    scored.sort(key=lambda z: (-z.similarity, z.pair_id))
    return scored


def retrieve_topk(
    index: RetrievalIndex,
    x: Sequence,
    k: int,
    exclude_pair_id: int | None = None,
    exclude_exact: bool = False,
    pool: int = DEFAULT_POOL,
) -> TmSet:
    """Re-rank the candidate pool by similarity and keep the top k.

    With `exclude_exact`, candidates whose source is token-identical to
    x are dropped (training-time self-exclusion). May return fewer than
    k pairs on small corpora.
    """
    if k < 0:
        raise DataError(f"k must be >= 0, got {k}")
    if k == 0:
        return ()
    xt = tuple(x)
    out = []
    for z in rank_by_similarity(index, x, candidates(index, x, limit=pool)):
        if exclude_pair_id is not None and z.pair_id == exclude_pair_id:
            continue
        if exclude_exact and z.source == xt:
            continue
        out.append(z)
        if len(out) == k:
            break
    return tuple(out)


def brute_force_topk(
    index: RetrievalIndex,
    x: Sequence,
    k: int,
    exclude_pair_id: int | None = None,
    exclude_exact: bool = False,
) -> TmSet:
    """Exact full-corpus ranking; the oracle the pooled path is checked against."""
    xt = tuple(x)
    out = []
    for z in rank_by_similarity(index, x, range(len(index))):
        if exclude_pair_id is not None and z.pair_id == exclude_pair_id:
            continue
        if exclude_exact and z.source == xt:
            continue
        out.append(z)
        if len(out) == k:
            break
    return tuple(out)


def sample_tm(
    index: RetrievalIndex,
    x: Sequence,
    temperature: float,
    rng: np.random.Generator,
    pool: int = DEFAULT_POOL,
) -> TmPair:
    """Sample one pair from the candidate pool with P(z) ∝ exp(sim(x,z)/T)."""
    probs, pairs = sample_tm_probs(index, x, temperature, pool=pool)
    choice = rng.choice(len(pairs), p=probs)
    return pairs[int(choice)]


def sample_tm_probs(
    index: RetrievalIndex,
    x: Sequence,
    temperature: float,
    pool: int = DEFAULT_POOL,
) -> tuple[np.ndarray, list[TmPair]]:
    if temperature <= 0:
        raise DataError(f"temperature must be > 0, got {temperature}")
    pairs = rank_by_similarity(index, x, candidates(index, x, limit=pool))
    sims = np.asarray([z.similarity for z in pairs], dtype=np.float64)
    logits = sims / temperature
    w = np.exp(logits - logits.max())
    return w / w.sum(), pairs


# ---------------------------------------------------------------------------
# Serialization: "TMIDX1" magic + zlib-compressed JSON body
# ---------------------------------------------------------------------------

_MAGIC = b"TMIDX1\x00"


def _encode_tokens(seqs) -> list[list]:
    return [list(s) for s in seqs]


def save_index(index: RetrievalIndex, path: str | Path) -> None:
    body = {
        "sources": _encode_tokens(index.sources),
        "targets": _encode_tokens(index.targets),
    }
    raw = zlib.compress(json.dumps(body, sort_keys=True).encode("utf-8"), level=6)
    atomic_write_bytes(path, _MAGIC + struct.pack("<I", len(raw)) + raw)


def load_index_corpus(path: str | Path) -> ParallelCorpus:
    """The datastore a TMIDX1 file stores, as pairs of string tokens."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise DataError(f"{path}: not a TMIDX1 index file")
    (n,) = struct.unpack("<I", raw[len(_MAGIC) : len(_MAGIC) + 4])
    body = json.loads(zlib.decompress(raw[len(_MAGIC) + 4 : len(_MAGIC) + 4 + n]).decode("utf-8"))
    return corpus_from_pairs(
        (tuple(s), tuple(t)) for s, t in zip(body["sources"], body["targets"])
    )


def load_index(path: str | Path) -> RetrievalIndex:
    return build_index(load_index_corpus(path))
