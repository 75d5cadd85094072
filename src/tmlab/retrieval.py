"""TM datastore: inverted-index candidate generation, edit-distance
re-ranking, top-K selection, and temperature-controlled sampling.

Candidate generation scores pairs by bag-of-tokens overlap with the
query (a reproducible, dependency-free stand-in for a full search
engine); the shortlist is then re-ranked by the normalized edit-distance
similarity. All tie-breaks are (similarity desc, pair_id asc) so results
are total-order deterministic.
"""

from __future__ import annotations

import heapq
import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from tmlab.corpus import ParallelCorpus, Vocab, corpus_from_pairs, encode_corpus
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
    """Token-level Levenshtein distance with unit costs: bit-parallel (Myers
    1999, Hyyro 2003) over the shorter side on unbounded Python ints, whose
    bits above the shorter length never carry down into the ones read."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if not m:
        return len(a)
    peq: dict = {}
    bit = 1
    for tok in b:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    high = bit >> 1
    pv, mv, dist = bit - 1, 0, m
    get = peq.get
    for tok in a:
        eq = get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            dist += 1
        elif mh & high:
            dist -= 1
        ph = (ph << 1) | 1
        pv = (mh << 1) | ~(xv | ph)
        mv = ph & xv
    return dist


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


def _scored_pool(index: RetrievalIndex, x: Sequence, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """`candidates` and their overlaps: the key -overlap*n + pair_id is unique
    and sorts zero-overlap padding last, so one partial selection does."""
    if limit < 1:
        raise DataError(f"limit must be >= 1, got {limit}")
    n = len(index)
    scores = np.zeros(n, dtype=np.int64)
    for tok, cx in Counter(x).items():
        ids = index.postings.get(tok)
        if ids is not None:
            scores[ids] += np.minimum(cx, index.counts[tok])
    key = np.arange(n, dtype=np.int64) - scores * n
    top = np.argpartition(key, min(limit, n) - 1)[:limit]
    ids = top[np.argsort(key[top])]
    return ids, scores[ids]


def candidates(index: RetrievalIndex, x: Sequence, limit: int = DEFAULT_POOL) -> list[int]:
    """Top-`limit` pair ids by bag-of-tokens overlap with x.

    Ties break by ascending pair_id; if fewer than `limit` pairs share a
    token, the pool is padded with the remaining ids in ascending order.
    """
    return _scored_pool(index, x, limit)[0].tolist()


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

    Exact pruning: dist(x, z) >= max(|x|, |z|) - overlap, so the similarity
    formula on that bound caps sim(x, z); candidates go by (bound desc,
    pair_id asc) until a bound is below the k-th best, as a tie may still win.
    """
    if k < 0:
        raise DataError(f"k must be >= 0, got {k}")
    if k == 0:
        return ()
    xt = tuple(x)
    ids, overlap = _scored_pool(index, x, pool)
    longest = np.maximum(index.lengths[ids], len(xt))
    # a zero length is only reached with two empty sides, which similarity rejects
    bound = 1.0 - (longest - overlap) / np.maximum(longest, 1)
    order = np.lexsort((ids, -bound))
    best: list = []  # min-heap of (sim, -pair_id): the root is the k-th best
    for b, pid in zip(bound[order].tolist(), ids[order].tolist()):
        if len(best) == k and b < best[0][0]:
            break
        src = index.sources[pid]
        sim = similarity(x, src)
        if (exclude_pair_id is not None and pid == exclude_pair_id) or (exclude_exact and src == xt):
            continue
        heapq.heappush(best, (sim, -pid))
        if len(best) > k:
            heapq.heappop(best)
    best.sort(reverse=True)
    return tuple(index.pair(-npid, sim) for sim, npid in best)


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


def sample_tm_probs(
    index: RetrievalIndex,
    x: Sequence,
    temperature: float,
    pool: int = DEFAULT_POOL,
) -> tuple[np.ndarray, list[TmPair]]:
    """The sampling law P(z) ∝ exp(sim(x,z)/T) over the candidate pool, and the pool ranked."""
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
    try:
        (n,) = struct.unpack_from("<I", raw, len(_MAGIC))
        packed = raw[len(_MAGIC) + 4 :]
        if len(packed) != n:
            raise ValueError(f"body is {len(packed)} bytes, header says {n}")
        body = json.loads(zlib.decompress(packed).decode("utf-8"))
        sources, targets = body["sources"], body["targets"]
        if not (type(sources) is list and type(targets) is list and len(sources) == len(targets)):
            raise ValueError("sources and targets must be lists of equal length")
        if not set(map(type, sources)).union(map(type, targets)) <= {list}:
            raise ValueError("every source and target must be a list of tokens")
        return corpus_from_pairs(zip(sources, targets))
    except (struct.error, zlib.error, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: corrupt TMIDX1 index ({type(e).__name__}: {e})") from None


def load_index(path: str | Path, vocab: Vocab | None = None) -> RetrievalIndex:
    """The index over a TMIDX1 file's pairs; as vocab ids when `vocab` is given."""
    corpus = load_index_corpus(path)
    try:
        return build_index(corpus if vocab is None else encode_corpus(corpus, vocab))
    except TypeError as e:  # a token that cannot be hashed
        raise DataError(f"{path}: corrupt TMIDX1 index ({type(e).__name__}: {e})") from None
