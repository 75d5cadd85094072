"""Trainable architectures and training loops.

Three backbones share one transformer toolkit:

  vanilla     encoder over x, decoder over y_<t, softmax head.
  single_enc  identical machinery; the encoder input is the source
              concatenated with retrieved TM sides, separator-joined.
  dual_enc    a second encoder embeds each TM pair as its own sequence
              "x_tm <sep> y_tm"; the decoder state attends over all TM
              token encodings with a bilinear score, producing a copy
              distribution over target-side TM tokens and a sigmoid gate
              that mixes it with the generator softmax.

Desk-scale defaults (64-dim, 4 heads, 2/2/2 layers) keep everything CPU
trainable; the production-scale lineage for this family is 512-dim,
8 heads, 2048 FFN with 6/4/6 layers, recorded here for reference only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from tmlab import autodiff as ad
from tmlab.corpus import (
    BOS,
    EOS,
    PAD,
    SEP_TOKEN,
    ParallelCorpus,
    Vocab,
    build_vocab,
    encode_corpus,
)
from tmlab.errors import DataError
from tmlab.retrieval import DEFAULT_POOL, RetrievalIndex, TmSet, build_index, retrieve_topk
from tmlab.seeding import substream

ARCHITECTURES = ("vanilla", "single_enc", "dual_enc")
TRAIN_MODES = ("none", "topk", "single_multi")
NEG_BIAS = -1e9


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    ffn_dim: int = 128
    n_src_layers: int = 2
    n_mem_layers: int = 2
    n_dec_layers: int = 2
    dropout: float = 0.1
    max_len: int = 64
    arch: str = "vanilla"

    def __post_init__(self) -> None:
        sizes = (self.vocab_size, self.d_model, self.n_heads, self.ffn_dim, self.max_len,
                 self.n_src_layers, self.n_mem_layers, self.n_dec_layers)
        if any(type(v) is not int for v in sizes):
            raise DataError("model sizes and layer counts must be integers")
        if min(self.d_model, self.n_heads, self.ffn_dim, self.max_len) < 1:
            raise DataError("d_model, n_heads, ffn_dim and max_len must all be >= 1")
        if min(self.n_src_layers, self.n_mem_layers, self.n_dec_layers) < 0:
            raise DataError("layer counts must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise DataError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.arch not in ARCHITECTURES:
            raise DataError(f"unknown architecture '{self.arch}'")
        if not 0.0 <= self.dropout < 1.0:
            raise DataError(f"dropout must be in [0, 1), got {self.dropout}")

    @classmethod
    def from_attrs(cls, obj, vocab_size: int, arch: str) -> "ModelConfig":
        return _from_attrs(cls, obj, {"vocab_size": vocab_size, "arch": arch})


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    base_lr: float = 7e-4
    warmup: int = 200
    label_smoothing: float = 0.1
    k_retrieval: int = 5

    def __post_init__(self) -> None:
        # warmup 1 is no warmup; at 0 the schedule's rate is 0 at every step
        if min(self.epochs, self.batch_size, self.warmup) < 1:
            raise DataError("epochs, batch_size and warmup must all be >= 1")
        if not self.base_lr > 0:
            raise DataError(f"the learning rate must be > 0, got {self.base_lr}")

    @classmethod
    def from_attrs(cls, obj, **given) -> "TrainConfig":
        return _from_attrs(cls, obj, given)


def _from_attrs(cls, obj, given: dict):
    """A `cls` with the fields in `given`, every other from the same-named attribute of `obj`."""
    return cls(**given, **{f.name: getattr(obj, f.name) for f in fields(cls) if f.name not in given})


@dataclass
class DecoderState:
    """Everything one forward produces at every step of every batch row."""

    p: ad.Tensor                  # (B, T, V) next-token distribution
    p_nmt: ad.Tensor              # (B, T, V) generator distribution
    h: ad.Tensor                  # (B, T, D) decoder state
    logits: ad.Tensor             # (B, T, V) generator logits
    p_tm: ad.Tensor | None = None   # (B, T, V) copy distribution
    lam: ad.Tensor | None = None    # (B, T, 1) effective gate
    h_tz: ad.Tensor | None = None   # (B, T, D) contextualized TM state
    alpha: ad.Tensor | None = None  # (B, T, M) attention over TM tokens


class DecodeCache:
    """What an incremental forward keeps between calls, every entry indexed
    by batch row: the decoder's cross-attention keys and values and the TM
    memory, computed on the first call, and each decoder self-attention
    layer's keys, values and key-pad bias for the positions read so far.
    Inference only; `select` reorders or duplicates rows, as a beam does
    with its hypotheses, in place."""

    def __init__(self) -> None:
        self.steps = 0                          # target positions read so far
        self.rows: dict[str, np.ndarray] = {}

    def extend(self, name: str, new: np.ndarray | None, axis: int) -> np.ndarray:
        """The entry `name`, extended along `axis` by `new` unless it is None."""
        if new is not None:
            old = self.rows.get(name)
            self.rows[name] = new if old is None else np.concatenate((old, new), axis=axis)
        return self.rows[name]

    def select(self, rows: np.ndarray) -> None:
        self.rows = {name: v[rows] for name, v in self.rows.items()}


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def param_layout(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of each parameter of `cfg`'s model, in the order
    `init_params` draws them; `draw_params` says what each init means."""
    D, F, V = cfg.d_model, cfg.ffn_dim, cfg.vocab_size
    norm = [("ln_g", (D,), "ones"), ("ln_b", (D,), "zeros")]
    attn = ([(w, (D, D), "xavier") for w in ("wq", "wk", "wv", "wo")]
            + [(b, (D,), "zeros") for b in ("bq", "bk", "bv", "bo")] + norm)
    ffn = [("w1", (D, F), "xavier"), ("b1", (F,), "zeros"), ("w2", (F, D), "xavier"),
           ("b2", (D,), "zeros")] + norm
    yield "emb", (V, D), "normal"
    # zero output head: an untrained model predicts the uniform distribution
    yield "out_w", (D, V), "zeros"
    yield "out_b", (V,), "zeros"
    stacks = [("src", cfg.n_src_layers, ("self", "ffn")),
              ("dec", cfg.n_dec_layers, ("self", "cross", "ffn"))]
    if cfg.arch == "dual_enc":
        stacks.insert(1, ("mem", cfg.n_mem_layers, ("self", "ffn")))
    for stack, n_layers, blocks in stacks:
        for i in range(n_layers):
            for blk in blocks:
                for name, shape, init in (ffn if blk == "ffn" else attn):
                    yield f"{stack}{i}.{blk}.{name}", shape, init
        yield f"{stack}.lnf_g", (D,), "ones"
        yield f"{stack}.lnf_b", (D,), "zeros"
    if cfg.arch == "dual_enc":
        yield "tm.w", (D, D), "xavier"      # bilinear attention map
        yield "tm.h", (D, D), "xavier"      # TM context projection
        yield "gate.w", (D, 1), "zeros"
        yield "gate.b", (1,), "zeros"


def draw_params(layout: Iterable[tuple[str, tuple[int, ...], str]], rng: np.random.Generator,
                dtype) -> dict[str, ad.Tensor]:
    """The parameters of a (name, shape, init) layout, drawn from `rng` in its
    order: "normal" is a standard normal over sqrt of the second axis,
    "xavier" is Xavier-uniform, and "zeros" and "ones" draw nothing."""
    def draw(shape, init):
        if init == "normal":
            return rng.standard_normal(shape) / math.sqrt(shape[1])
        if init == "xavier":
            lim = math.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-lim, lim, size=shape)
        return (np.ones if init == "ones" else np.zeros)(shape, dtype=dtype)

    return {name: ad.parameter(draw(shape, init), dtype=dtype) for name, shape, init in layout}


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict[str, ad.Tensor]:
    return draw_params(param_layout(cfg), substream(seed, "init"), dtype)


_pe_cache: dict[tuple[int, int, str], np.ndarray] = {}


def positional_encoding(max_len: int, d_model: int, dtype=np.float32) -> np.ndarray:
    key = (max_len, d_model, np.dtype(dtype).name)
    if key not in _pe_cache:
        pos = np.arange(max_len)[:, None]
        i = np.arange(0, d_model, 2)[None, :]
        angle = pos / np.power(10000.0, i / d_model)
        pe = np.zeros((max_len, d_model))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle)
        _pe_cache[key] = pe.astype(dtype)
    return _pe_cache[key]


# ---------------------------------------------------------------------------
# Transformer building blocks (pre-LN residual wiring)
# ---------------------------------------------------------------------------

def _embed(params, cfg, ids: np.ndarray, rng, train, start: int = 0) -> ad.Tensor:
    """Embeddings of `ids` at positions start, start + 1, ..."""
    end = start + ids.shape[-1]
    if end > cfg.max_len:
        raise DataError(f"sequence length {end} exceeds max_len {cfg.max_len}")
    dtype = params["emb"].data.dtype
    x = ad.mul(ad.embedding_lookup(params["emb"], ids), math.sqrt(cfg.d_model))
    x = ad.add(x, ad.Tensor(positional_encoding(cfg.max_len, cfg.d_model, dtype)[start:end]))
    return ad.dropout(x, cfg.dropout, rng, train)


def _heads_split(x: ad.Tensor, n_heads: int) -> ad.Tensor:
    B, T, D = x.shape
    return ad.permute(ad.reshape(x, (B, T, n_heads, D // n_heads)), (0, 2, 1, 3))


def _heads_merge(x: ad.Tensor) -> ad.Tensor:
    B, H, T, Dh = x.shape
    return ad.reshape(ad.permute(x, (0, 2, 1, 3)), (B, T, H * Dh))


def _mha(params, prefix, q_in, kv_in, mask_bias, cfg, rng, train, cache=None) -> ad.Tensor:
    """Multi-head attention of q_in over kv_in. With a cache, the keys and
    values of kv_in extend those kept under `prefix`, and a None kv_in reads
    the kept ones as they are."""
    def proj(w, b, t):
        return ad.linear(t, params[f"{prefix}.{w}"], params[f"{prefix}.{b}"])

    def kv(w, b):
        new = None if kv_in is None else _heads_split(proj(w, b, kv_in), cfg.n_heads)
        if cache is None:
            return new
        return ad.Tensor(cache.extend(f"{prefix}.{w}", None if new is None else new.data, axis=2))

    q = _heads_split(proj("wq", "bq", q_in), cfg.n_heads)
    ctx = _heads_merge(ad.scaled_dot_attention(q, kv("wk", "bk"), kv("wv", "bv"), mask_bias))
    return ad.dropout(proj("wo", "bo", ctx), cfg.dropout, rng, train)


def _ffn(params, prefix, x, cfg, rng, train) -> ad.Tensor:
    h = ad.relu(ad.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    h = ad.linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])
    return ad.dropout(h, cfg.dropout, rng, train)


def _ln(params, prefix, x) -> ad.Tensor:
    return ad.layer_norm(x, params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])


def _key_pad_bias(ids: np.ndarray, dtype) -> np.ndarray:
    # (B, 1, 1, S): blocks attention into PAD keys
    return (np.where(ids == PAD, NEG_BIAS, 0.0)[:, None, None, :]).astype(dtype)


def _encode_stack(params, cfg, stack: str, n_layers: int, ids: np.ndarray, rng, train) -> ad.Tensor:
    x = _embed(params, cfg, ids, rng, train)
    bias = _key_pad_bias(ids, x.data.dtype)
    for i in range(n_layers):
        pre = f"{stack}{i}"
        n = _ln(params, f"{pre}.self", x)
        x = ad.add(x, _mha(params, f"{pre}.self", n, n, bias, cfg, rng, train))
        x = ad.add(x, _ffn(params, f"{pre}.ffn", _ln(params, f"{pre}.ffn", x), cfg, rng, train))
    return ad.layer_norm(x, params[f"{stack}.lnf_g"], params[f"{stack}.lnf_b"])


def _decode_stack(params, cfg, y_in: np.ndarray, enc: ad.Tensor | None,
                  src_ids: np.ndarray | None, rng, train, cache=None) -> ad.Tensor:
    """The decoder over y_in; with a cache, y_in continues the positions it
    holds, and enc and src_ids are None once it holds their keys."""
    start = 0 if cache is None else cache.steps
    x = _embed(params, cfg, y_in, rng, train, start)
    T = y_in.shape[-1]
    dtype = x.data.dtype
    causal = np.where(np.arange(start + T)[None, :] > start + np.arange(T)[:, None], NEG_BIAS, 0.0)
    pad_bias = _key_pad_bias(y_in, dtype)
    cross_bias = None if src_ids is None else _key_pad_bias(src_ids, dtype)
    if cache is not None:
        pad_bias = cache.extend("self.pad", pad_bias, axis=-1)
        cross_bias = cache.extend("cross.pad", cross_bias, axis=-1)
    self_bias = (causal[None, None, :, :] + pad_bias).astype(dtype)
    for i in range(cfg.n_dec_layers):
        pre = f"dec{i}"
        n = _ln(params, f"{pre}.self", x)
        x = ad.add(x, _mha(params, f"{pre}.self", n, n, self_bias, cfg, rng, train, cache))
        x = ad.add(x, _mha(params, f"{pre}.cross", _ln(params, f"{pre}.cross", x),
                           enc, cross_bias, cfg, rng, train, cache))
        x = ad.add(x, _ffn(params, f"{pre}.ffn", _ln(params, f"{pre}.ffn", x), cfg, rng, train))
    return ad.layer_norm(x, params["dec.lnf_g"], params["dec.lnf_b"])


# ---------------------------------------------------------------------------
# TM memory batching
# ---------------------------------------------------------------------------

@dataclass
class MemoryBatch:
    """Per-TM token sequences plus flat per-example pools over their tokens."""

    seq_ids: np.ndarray       # (Nseq, L) "x_tm <sep> y_tm", PAD-padded
    pool_seq: np.ndarray      # (B, M) sequence index per pooled token
    pool_pos: np.ndarray      # (B, M) position within the sequence
    pool_tok: np.ndarray      # (B, M) token id (copy candidates)
    pool_valid: np.ndarray    # (B, M) bool
    pool_is_tgt: np.ndarray   # (B, M) bool, True on y_tm tokens
    has_tm: np.ndarray        # (B,) bool

    @property
    def empty(self) -> bool:
        return self.seq_ids.shape[0] == 0


def build_memory_batch(tm_lists: Sequence[Sequence[tuple[tuple, tuple]]], sep_id: int,
                       max_len: int) -> MemoryBatch:
    """Lay out each example's TM pairs as separate encoder sequences.

    Pools index every x_tm and y_tm token (the separator is excluded);
    invalid slots point at (0, 0) and are masked.
    """
    B = len(tm_lists)
    seqs: list[tuple[int, ...]] = []
    per_ex: list[list[tuple[int, int, int, bool]]] = []  # (seq, pos, tok, is_tgt)
    for tms in tm_lists:
        slots: list[tuple[int, int, int, bool]] = []
        for src, tgt in tms:
            seq = tuple(src) + (sep_id,) + tuple(tgt)
            if len(seq) > max_len:
                raise DataError(f"TM sequence length {len(seq)} exceeds max_len {max_len}")
            si = len(seqs)
            seqs.append(seq)
            for j, tok in enumerate(src):
                slots.append((si, j, tok, False))
            for j, tok in enumerate(tgt):
                slots.append((si, len(src) + 1 + j, tok, True))
        per_ex.append(slots)

    M = max((len(s) for s in per_ex), default=0)
    M = max(M, 1)
    L = max((len(s) for s in seqs), default=1)
    seq_ids = np.full((len(seqs), L), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        seq_ids[i, : len(s)] = s
    pool_seq = np.zeros((B, M), dtype=np.int64)
    pool_pos = np.zeros((B, M), dtype=np.int64)
    pool_tok = np.zeros((B, M), dtype=np.int64)
    pool_valid = np.zeros((B, M), dtype=bool)
    pool_is_tgt = np.zeros((B, M), dtype=bool)
    for b, slots in enumerate(per_ex):
        for m, (si, pos, tok, is_tgt) in enumerate(slots):
            pool_seq[b, m] = si
            pool_pos[b, m] = pos
            pool_tok[b, m] = tok
            pool_valid[b, m] = True
            pool_is_tgt[b, m] = is_tgt
    return MemoryBatch(
        seq_ids=seq_ids,
        pool_seq=pool_seq,
        pool_pos=pool_pos,
        pool_tok=pool_tok,
        pool_valid=pool_valid,
        pool_is_tgt=pool_is_tgt,
        has_tm=np.asarray([len(s) > 0 for s in per_ex], dtype=bool),
    )


def build_concat_source(x: Sequence[int], tms: Sequence[tuple[tuple, tuple]], sep_id: int,
                        max_len: int) -> tuple[int, ...]:
    """Input layout for the single-encoder model: x <sep> x_tm <sep> y_tm <sep> ..."""
    out = list(x) + [sep_id]
    for src, tgt in tms:
        out.extend(src)
        out.append(sep_id)
        out.extend(tgt)
        out.append(sep_id)
    if len(out) > max_len:
        raise DataError(
            f"concatenated input length {len(out)} exceeds max_len {max_len} "
            f"(source {len(x)}, {len(tms)} TMs)"
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# Forwards
# ---------------------------------------------------------------------------

def dual_encode_memory(params, cfg: ModelConfig, mem: MemoryBatch, rng=None, train=False) -> ad.Tensor:
    """Contextual encodings for every pooled TM token: (B, M, D)."""
    enc = _encode_stack(params, cfg, "mem", cfg.n_mem_layers, mem.seq_ids, rng, train)
    return ad.index_select2(enc, mem.pool_seq, mem.pool_pos)


def tm_attention_scores(h: ad.Tensor, pool: ad.Tensor, w_tm: ad.Tensor) -> ad.Tensor:
    """Bilinear attention scores of the decoder state over TM token encodings."""
    return ad.matmul(ad.matmul(h, w_tm), ad.swap_last(pool))  # (B, T, M)


def masked_attention(scores: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Softmax over the slots where mask holds."""
    bias = np.where(mask, 0.0, NEG_BIAS)[:, None, :].astype(scores.data.dtype)
    return ad.softmax(ad.add(scores, ad.Tensor(bias)), axis=-1)


def copy_distribution(alpha: ad.Tensor, token_ids: np.ndarray, vocab_size: int) -> ad.Tensor:
    """Scatter attention mass onto the vocabulary."""
    return ad.scatter_vocab(alpha, token_ids, vocab_size)


def mix_gate(lam: ad.Tensor, p_nmt: ad.Tensor, p_tm: ad.Tensor) -> ad.Tensor:
    """(1 - lam) * p_nmt + lam * p_tm; exact at the endpoints."""
    return ad.add(ad.mul(ad.sub(1.0, lam), p_nmt), ad.mul(lam, p_tm))


def gate_and_mix(h_tz: ad.Tensor, p_nmt: ad.Tensor, p_tm: ad.Tensor, gate_w: ad.Tensor,
                 gate_b: ad.Tensor, has_tm: np.ndarray) -> tuple[ad.Tensor, ad.Tensor]:
    """Mix generator and copy distributions through the learned gate.

    The gate is the sigmoid of a linear map of the contextualized TM
    state; rows flagged TM-less in `has_tm` have it forced to zero.
    Returns (mixture, gate).
    """
    lam = ad.sigmoid(ad.linear(h_tz, gate_w, gate_b))
    lam = ad.mul(lam, ad.Tensor(has_tm[:, None, None].astype(lam.data.dtype)))
    return mix_gate(lam, p_nmt, p_tm), lam


def _encode_source(params, cfg, x_ids: np.ndarray | None, rng, train) -> ad.Tensor | None:
    """The source encoder's output; None when a decoding cache already holds it."""
    if x_ids is None:
        return None
    return _encode_stack(params, cfg, "src", cfg.n_src_layers, x_ids, rng, train)


_TM_ROWS = ("tm.pool", "tm.valid", "tm.copy", "tm.tok", "tm.has_tm")


def _tm_memory(params, cfg, mem: MemoryBatch | None, rng, train, cache):
    """(pool encodings, valid slots, target-side slots, token ids, has_tm) of
    the TM tokens a dual-encoder forward reads, or None when no row has a TM.
    A cache keeps them from its first call on."""
    if cache is not None and cache.steps:
        pool, *rest = (cache.rows.get(name) for name in _TM_ROWS)
        return None if pool is None else (ad.Tensor(pool), *rest)
    if mem is None or mem.empty:
        return None
    pool = dual_encode_memory(params, cfg, mem, rng, train)
    parts = (pool, mem.pool_valid, mem.pool_valid & mem.pool_is_tgt, mem.pool_tok, mem.has_tm)
    if cache is not None:
        cache.rows.update(zip(_TM_ROWS, (pool.data,) + parts[1:]))
    return parts


def forward_vanilla(params, cfg: ModelConfig, x_ids: np.ndarray | None, y_in: np.ndarray,
                    rng=None, train=False, cache: DecodeCache | None = None) -> DecoderState:
    """Encoder over x_ids, decoder over y_in. With a cache, x_ids is None
    once the cache holds its encoding (see `forward_rows`)."""
    h = _decode_stack(params, cfg, y_in, _encode_source(params, cfg, x_ids, rng, train),
                      x_ids, rng, train, cache)
    logits = ad.linear(h, params["out_w"], params["out_b"])
    p = ad.softmax(logits, axis=-1)
    return DecoderState(p=p, p_nmt=p, h=h, logits=logits)


def forward_dual(params, cfg: ModelConfig, x_ids: np.ndarray | None, mem: MemoryBatch | None,
                 y_in: np.ndarray, rng=None, train=False,
                 cache: DecodeCache | None = None) -> DecoderState:
    """As `forward_vanilla`, then copy and gate over the TM memory `mem`."""
    h = _decode_stack(params, cfg, y_in, _encode_source(params, cfg, x_ids, rng, train),
                      x_ids, rng, train, cache)
    logits = ad.linear(h, params["out_w"], params["out_b"])
    p_nmt = ad.softmax(logits, axis=-1)
    tm = _tm_memory(params, cfg, mem, rng, train, cache)
    if tm is None:
        # no TM anywhere in the batch: the gate is forced shut
        return DecoderState(p=p_nmt, p_nmt=p_nmt, h=h, logits=logits)
    pool, valid, copy_slots, tok, has_tm = tm
    scores = tm_attention_scores(h, pool, params["tm.w"])
    alpha = masked_attention(scores, valid)
    h_tz = ad.matmul(ad.matmul(alpha, pool), params["tm.h"])
    # copy weights renormalize over target-side slots; a second masked softmax
    # of the same scores keeps that exact at any score magnitude
    alpha_copy = masked_attention(scores, copy_slots)
    p_tm = copy_distribution(alpha_copy, tok, cfg.vocab_size)
    p, lam = gate_and_mix(h_tz, p_nmt, p_tm, params["gate.w"], params["gate.b"], has_tm)
    return DecoderState(p=p, p_nmt=p_nmt, h=h, logits=logits, p_tm=p_tm, lam=lam,
                        h_tz=h_tz, alpha=alpha)


def forward_rows(params, cfg: ModelConfig, sep_id: int | None, sources: Sequence[Sequence[int]],
                 tm_lists: Sequence[Sequence[tuple[tuple, tuple]]], y_in: np.ndarray,
                 rng=None, train=False, cache: DecodeCache | None = None) -> DecoderState:
    """One forward over a batch of rows, each a source with its own TM pairs.

    The one place that knows how TMs enter each architecture: the dual
    encoder reads them as a memory batch (none when no row has a TM), the
    single encoder as a separator-joined source, and vanilla not at all.

    With a cache (inference only), the first call encodes the sources and
    TMs once; every later call continues each row's target with y_in, its
    newest tokens, and reads neither `sources` nor `tm_lists`.
    """
    if cache is not None and cache.steps:
        x = mem = None
    else:
        x, mem = _layout(cfg, sep_id, sources, tm_lists)
    if cfg.arch == "dual_enc":
        state = forward_dual(params, cfg, x, mem, y_in, rng, train, cache)
    else:
        state = forward_vanilla(params, cfg, x, y_in, rng, train, cache)
    if cache is not None:
        cache.steps += y_in.shape[-1]
    return state


def _layout(cfg: ModelConfig, sep_id, sources, tm_lists) -> tuple[np.ndarray, MemoryBatch | None]:
    """The padded encoder input and the TM memory batch of `forward_rows`' rows."""
    if not all(len(s) for s in sources):
        raise DataError("empty source sentence")
    if cfg.arch == "dual_enc":
        mem = build_memory_batch(tm_lists, sep_id, cfg.max_len) if any(tm_lists) else None
        return _pad_batch(sources), mem
    if cfg.arch == "single_enc":
        return _pad_batch([build_concat_source(s, tms, sep_id, cfg.max_len)
                           for s, tms in zip(sources, tm_lists)]), None
    if any(tm_lists):
        raise DataError("a vanilla checkpoint cannot condition on TMs")
    return _pad_batch(sources), None


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    params: dict[str, ad.Tensor]
    config: ModelConfig
    meta: dict


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    meta = dict(ckpt.meta)
    meta["config"] = asdict(ckpt.config)
    ad.save_arrays(path, {k: v.data for k, v in ckpt.params.items()}, meta)


def load_checkpoint(path: str | Path, vocab: Vocab) -> Checkpoint:
    """A checkpoint for `vocab` whose tensors are exactly those its config's model holds."""
    arrays, meta = ad.load_arrays(path)
    try:
        cfg = ModelConfig(**meta.pop("config"))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: not a model checkpoint (config: {type(e).__name__}: {e})") from None
    ad.check_tensor_set(path, "model checkpoint", arrays, param_layout(cfg))
    vocab.check_recorded(meta, path)
    params = {k: ad.parameter(v, dtype=v.dtype) for k, v in arrays.items()}
    return Checkpoint(params=params, config=cfg, meta=meta)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _pad_batch(seqs: Sequence[Sequence[int]]) -> np.ndarray:
    L = max(len(s) for s in seqs)
    out = np.full((len(seqs), L), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def retrieve_training_tms(
    enc_corpus: ParallelCorpus,
    index: RetrievalIndex,
    k: int,
    same_store: bool,
) -> list[TmSet]:
    """Top-k TMs per training pair with self-exclusion.

    The pair's own id (when the datastore is the training corpus) and
    any token-identical source are excluded so the model cannot read off
    its own target.
    """
    out = []
    for p in enc_corpus:
        out.append(
            retrieve_topk(
                index,
                p.source,
                k,
                exclude_pair_id=p.pair_id if same_store else None,
                exclude_exact=True,
            )
        )
    return out


def _presentations(mode: str, n_pairs: int, tms: list[TmSet] | None, k: int):
    """Expand pairs into per-epoch training presentations."""
    if mode == "none":
        return [(i, ()) for i in range(n_pairs)]
    assert tms is not None
    if mode == "topk":
        return [(i, tuple(range(len(tms[i])))) for i in range(n_pairs)]
    if mode == "single_multi":
        out = []
        for i in range(n_pairs):
            for r in range(k):
                out.append((i, (r,) if r < len(tms[i]) else ()))
            out.append((i, ()))
        return out
    raise DataError(f"unknown training mode '{mode}'")


def train(
    arch: str,
    corpus: ParallelCorpus,
    mode: str,
    config: ModelConfig | None,
    train_config: TrainConfig,
    seed: int,
    vocab: Vocab | None = None,
    datastore: ParallelCorpus | None = None,
    verbose: bool = False,
) -> Checkpoint:
    """Teacher-forced training with Adam and warmup + inverse-sqrt decay.

    mode "none" always presents an empty TM set, and is the only mode a
    vanilla model takes; "topk" conditions on all retrieved TMs jointly;
    "single_multi" presents each pair once per TM rank plus once with an
    empty TM (k_retrieval + 1 passes, so six per epoch at the default
    k=5; missing ranks fall back to empty).
    """
    if arch not in ARCHITECTURES:
        raise DataError(f"unknown architecture '{arch}'")
    if mode not in TRAIN_MODES:
        raise DataError(f"unknown training mode '{mode}'")
    if arch == "vanilla" and mode != "none":
        raise DataError(f"a vanilla model trains without TMs: mode 'none', not '{mode}'")
    if vocab is None:
        vocab = build_vocab(((p.source, p.target) for p in corpus), extra=(SEP_TOKEN,))
    cfg = config or ModelConfig(vocab_size=len(vocab), arch=arch)
    if cfg.vocab_size != len(vocab) or cfg.arch != arch:
        cfg = replace(cfg, vocab_size=len(vocab), arch=arch)

    tc = train_config
    enc = encode_corpus(corpus, vocab)
    tms: list[TmSet] | None = None
    if mode != "none":
        store = enc if datastore is None else encode_corpus(datastore, vocab)
        index = build_index(store)
        tms = retrieve_training_tms(enc, index, tc.k_retrieval, datastore is None)

    params = init_params(cfg, seed)
    state = ad.adam_init(params, lr=tc.base_lr)
    drop_rng = substream(seed, "dropout")
    sep = vocab.sep_id if arch != "vanilla" else None

    items = _presentations(mode, len(enc), tms, tc.k_retrieval)
    step = 0
    history: list[float] = []
    for epoch, batches in zip(range(tc.epochs), epoch_batches(items, tc.batch_size, seed)):
        total, count = 0.0, 0
        for chunk in batches:
            loss = _train_step(params, cfg, enc, tms, chunk, tc, state, step, sep, drop_rng)
            total += loss * len(chunk)
            count += len(chunk)
            step += 1
        history.append(total / max(count, 1))
        if verbose:
            print(f"epoch {epoch + 1}/{tc.epochs} loss {history[-1]:.4f}", file=sys.stderr)

    meta = {
        "arch": arch,
        "mode": mode,
        "vocab_hash": vocab.content_hash(),
        "seed": seed,
        "k_retrieval": tc.k_retrieval,
        "label_smoothing": tc.label_smoothing,
        "pool": DEFAULT_POOL,
        "self_exclusion": mode != "none",
        "history": history,
    }
    return Checkpoint(params=params, config=cfg, meta=meta)


def epoch_batches(items: Sequence, batch_size: int, seed: int) -> Iterator[list[list]]:
    """Epoch after epoch, `items` in batches of `batch_size`, each epoch in
    an order drawn from the seed's "order" substream."""
    rng = substream(seed, "order")
    while True:
        perm = rng.permutation(len(items))
        yield [[items[j] for j in perm[lo : lo + batch_size]] for lo in range(0, len(perm), batch_size)]


def _train_step(params, cfg, enc, tms, chunk, tc, state, step, sep, drop_rng) -> float:
    y_in = _pad_batch([(BOS,) + enc[i].target for i, _ in chunk])
    y_out = _pad_batch([enc[i].target + (EOS,) for i, _ in chunk])
    tm_sel = [
        [(tms[i][r].source, tms[i][r].target) for r in ranks] if tms is not None else []
        for i, ranks in chunk
    ]
    out = forward_rows(params, cfg, sep, [enc[i].source for i, _ in chunk], tm_sel, y_in,
                       rng=drop_rng, train=True)
    if cfg.arch == "dual_enc":
        loss_t = ad.nll_from_probs(out.p, y_out, tc.label_smoothing, PAD)
    else:
        loss_t = ad.cross_entropy_label_smoothed(out.logits, y_out, tc.label_smoothing, PAD)
    return ad.update(loss_t, params, state, step, ad.lr_inverse_sqrt(step + 1, tc.base_lr, tc.warmup))
