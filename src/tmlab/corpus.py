"""Corpus ingestion, vocabulary, deterministic splits, and synthetic task generation.

Tokenization is word-level: lowercase, whitespace-delimited. A corpus
pair holds token sequences; tokens are strings after ingestion and
integer ids after encoding with a Vocab (all operations downstream are
generic over the two).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from tmlab.errors import DataError
from tmlab.fileio import atomic_write_text, read_text
from tmlab.seeding import substream

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")
SEP_TOKEN = "<sep>"

# Hard cap on the synthetic lexicon; beyond this the "desk scale" premise breaks.
MAX_LEXICON = 10_000


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization; empty input yields an empty list."""
    return text.lower().split()


@dataclass(frozen=True)
class Vocab:
    """Bijection between token strings and dense ids; reserved ids come first."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        specials = set(RESERVED_TOKENS) | {
            t for t in self.tokens if t.startswith("<") and t.endswith(">")
        }
        object.__setattr__(self, "_specials", specials)
        if len(self._index) != len(self.tokens):
            raise DataError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def sep_id(self) -> int:
        if SEP_TOKEN not in self._index:
            raise DataError("vocab was built without a separator token")
        return self._index[SEP_TOKEN]

    def encode(self, tokens: Sequence[str]) -> tuple[int, ...]:
        """Map tokens to ids; unknown tokens and special literals map to UNK."""
        idx = self._index
        specials = self._specials
        return tuple(
            UNK if t in specials else idx.get(t, UNK) for t in tokens
        )

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def check_recorded(self, meta: dict, what: str | Path) -> None:
        """Reject `what`, whose `meta` records the hash of another vocab; a
        file that records none passes."""
        if meta.get("vocab_hash") not in (None, self.content_hash()):
            raise DataError(f"{what}: vocab mismatch (it records another vocab's hash)")

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, "\n".join(self.tokens) + "\n")

    @staticmethod
    def load(path: str | Path) -> "Vocab":
        lines = read_text(path).splitlines()
        if tuple(lines[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise DataError(f"{path}: reserved tokens missing or reordered")
        return Vocab(tokens=tuple(lines))


def build_vocab(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]],
    extra: Sequence[str] = (),
) -> Vocab:
    """Build a vocab from (source, target) token pairs.

    Ordering is deterministic: reserved ids, then descending count with
    lexicographic tie-break, then any `extra` special tokens.
    """
    counts: Counter[str] = Counter()
    n_pairs = 0
    for src, tgt in pairs:
        n_pairs += 1
        counts.update(src)
        counts.update(tgt)
    if n_pairs == 0:
        raise DataError("cannot build a vocab from an empty corpus")
    kept = sorted(
        (t for t in counts if t not in RESERVED_TOKENS),
        key=lambda t: (-counts[t], t),
    )
    tokens = RESERVED_TOKENS + tuple(kept) + tuple(extra)
    return Vocab(tokens=tokens)


@dataclass(frozen=True)
class Pair:
    source: tuple
    target: tuple
    pair_id: int


@dataclass(frozen=True)
class ParallelCorpus:
    """An immutable list of aligned pairs with dense pair ids 0..N-1."""

    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.pairs):
            if p.pair_id != i:
                raise DataError(f"pair_id {p.pair_id} at position {i} is not dense")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __getitem__(self, i: int) -> Pair:
        return self.pairs[i]


def corpus_from_pairs(items: Iterable[tuple[Sequence, Sequence]]) -> ParallelCorpus:
    return ParallelCorpus(
        pairs=tuple(
            Pair(source=tuple(s), target=tuple(t), pair_id=i)
            for i, (s, t) in enumerate(items)
        )
    )


def encode_corpus(corpus: ParallelCorpus, vocab: Vocab) -> ParallelCorpus:
    """Re-express a string-token corpus as vocab ids (OOV collapses to UNK)."""
    return corpus_from_pairs((vocab.encode(p.source), vocab.encode(p.target)) for p in corpus)


def load_tsv(path: str | Path) -> ParallelCorpus:
    """Load "source<TAB>target" lines; the line number becomes the pair_id."""
    items = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        cols = line.split("\t")
        if len(cols) != 2:
            raise DataError(f"{path}: line {lineno}: expected exactly one TAB")
        src, tgt = tokenize(cols[0]), tokenize(cols[1])
        if not src or not tgt:
            raise DataError(f"{path}: line {lineno}: empty source or target")
        items.append((src, tgt))
    return corpus_from_pairs(items)


def save_tsv(corpus: ParallelCorpus, path: str | Path) -> None:
    lines = [" ".join(map(str, p.source)) + "\t" + " ".join(map(str, p.target)) for p in corpus]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def split_equal(corpus: ParallelCorpus, parts: int, seed: int) -> list[ParallelCorpus]:
    """Seeded shuffle followed by a contiguous partition into `parts` subsets.

    Subset sizes differ by at most one; subsets are disjoint and jointly
    exhaustive. Pair ids are re-densified within each subset.
    """
    if parts < 1:
        raise DataError(f"parts must be >= 1, got {parts}")
    n = len(corpus)
    if parts > n:
        raise DataError(f"cannot split {n} pairs into {parts} parts")
    order = substream(seed, "split").permutation(n)
    base, rem = divmod(n, parts)
    out, start = [], 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        chunk = order[start : start + size]
        start += size
        out.append(
            corpus_from_pairs((corpus[j].source, corpus[j].target) for j in chunk)
        )
    return out


def merge_corpora(*corpora: ParallelCorpus) -> ParallelCorpus:
    """Concatenate corpora into one, re-assigning dense pair ids."""
    def gen():
        for c in corpora:
            for p in c:
                yield p.source, p.target
    return corpus_from_pairs(gen())


def subset(corpus: ParallelCorpus, indices: Sequence[int]) -> ParallelCorpus:
    return corpus_from_pairs((corpus[i].source, corpus[i].target) for i in indices)


@dataclass(frozen=True)
class SynthTask:
    """A generated corpus plus the template id behind each pair."""

    corpus: ParallelCorpus
    template_ids: tuple[int, ...]

    def save_manifest(self, path: str | Path) -> None:
        lines = [f"{i}\t{t}" for i, t in enumerate(self.template_ids)]
        atomic_write_text(path, "\n".join(lines) + "\n")


def synth_task(
    n_pairs: int,
    n_templates: int,
    lexicon_size: int,
    seed: int,
    frame_pool_size: int = 32,
    frame_len_range: tuple[int, int] = (4, 8),
    slot_range: tuple[int, int] = (1, 3),
) -> SynthTask:
    """Generate a templated parallel corpus.

    Each template is a frame of shared frame-words with slot positions;
    the target side applies a template-specific permutation and a fixed
    token-level translation lexicon. Pairs sharing a template therefore
    differ only in their slot fills, which keeps their edit-distance
    similarity strictly inside (0, 1); pairs from different templates
    share vocabulary but not word order.
    """
    if min(n_pairs, n_templates, lexicon_size) < 1:
        raise DataError("n_pairs, n_templates and lexicon_size must all be >= 1")
    if lexicon_size > MAX_LEXICON:
        raise DataError(f"lexicon_size {lexicon_size} exceeds the {MAX_LEXICON} bound")
    rng = substream(seed, "synth")

    src_words = [f"s{i}" for i in range(lexicon_size)]
    tgt_words = [f"t{i}" for i in range(lexicon_size)]
    src_frames = [f"fs{j}" for j in range(frame_pool_size)]
    tgt_frames = [f"ft{j}" for j in range(frame_pool_size)]

    templates = []
    for _ in range(n_templates):
        flen = int(rng.integers(frame_len_range[0], frame_len_range[1] + 1))
        nslots = int(rng.integers(slot_range[0], slot_range[1] + 1))
        nslots = min(nslots, flen)  # keeps same-template similarity >= 0.5
        frame_ids = rng.choice(frame_pool_size, size=flen, replace=frame_pool_size < flen).tolist()
        m = flen + nslots
        slot_pos = set(rng.choice(m, size=nslots, replace=False).tolist())
        items = []  # ("frame", j) or ("slot", k)
        fi, si = 0, 0
        for pos in range(m):
            if pos in slot_pos:
                items.append(("slot", si))
                si += 1
            else:
                items.append(("frame", frame_ids[fi]))
                fi += 1
        perm = rng.permutation(m).tolist()
        templates.append((items, perm, nslots))

    items_out: list[tuple[list[str], list[str]]] = []
    template_ids: list[int] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for i in range(n_pairs):
        t = i % n_templates
        items, perm, nslots = templates[t]
        for _ in range(8):
            fills = tuple(int(x) for x in rng.integers(0, lexicon_size, size=nslots))
            if (t, fills) not in seen:
                break
        seen.add((t, fills))
        src = [src_words[fills[k]] if kind == "slot" else src_frames[k]
               for kind, k in items]
        tgt_items = [items[p] for p in perm]
        tgt = [tgt_words[fills[k]] if kind == "slot" else tgt_frames[k]
               for kind, k in tgt_items]
        items_out.append((src, tgt))
        template_ids.append(t)
    return SynthTask(corpus=corpus_from_pairs(items_out), template_ids=tuple(template_ids))


def corpus_stats(corpus: ParallelCorpus) -> dict[str, int | float]:
    """Small deterministic summary used by the CLI."""
    src_tok = sum(len(p.source) for p in corpus)
    tgt_tok = sum(len(p.target) for p in corpus)
    vocab = {t for p in corpus for t in p.source} | {t for p in corpus for t in p.target}
    n = max(len(corpus), 1)
    return {
        "pairs": len(corpus),
        "source_tokens": src_tok,
        "target_tokens": tgt_tok,
        "distinct_tokens": len(vocab),
        "avg_source_len": round(src_tok / n, 4),
        "avg_target_len": round(tgt_tok / n, 4),
    }
