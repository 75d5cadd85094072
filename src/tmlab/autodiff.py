"""Minimal reverse-mode automatic differentiation on numpy arrays.

A Tensor wraps a dense float array; every op records its parents and a
vector-Jacobian product on a tape implied by the parent links.
`backward` walks the graph once in reverse topological order. Training
runs in float32; float64 is used for finite-difference gradient checks.

Calling backward twice on the same scalar raises: grads from separate
losses do not silently accumulate here.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import operator
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from tmlab.errors import DataError, NumericError
from tmlab.fileio import atomic_write_bytes

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable taping inside the block (inference fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_done")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype) if dtype is not None else np.asarray(data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def __getitem__(self, key):
        return tslice(self, key)


def parameter(data, dtype=np.float32) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _elementwise(op: str, fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fn(a, b), with numpy's broadcast failure reported as a DataError."""
    try:
        return fn(a, b)
    except ValueError:
        raise DataError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = _elementwise("add", operator.add, a.data, b.data)
    return _from_op(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = _elementwise("sub", operator.sub, a.data, b.data)
    return _from_op(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = _elementwise("mul", operator.mul, a.data, b.data)
    return _from_op(
        out, (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def div(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = _elementwise("div", operator.truediv, a.data, b.data)
    def vjp(g):
        ga = _unbroadcast(g / b.data, a.data.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
        return ga, gb
    return _from_op(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _from_op(-a.data, (a,), lambda g: (-g,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _from_op(a.data * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    s = s.astype(x.dtype)
    return _from_op(s, (a,), lambda g: (g * s * (1 - s),))


def tlog(a: Tensor) -> Tensor:
    out = np.log(a.data)
    return _from_op(out, (a,), lambda g: (g / a.data,))


def clip_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient is zero where the floor binds."""
    mask = a.data >= lo
    out = np.maximum(a.data, np.asarray(lo, dtype=a.data.dtype))
    return _from_op(out, (a,), lambda g: (g * mask,))


def broadcast_to(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape
    out = np.broadcast_to(a.data, shape)
    return _from_op(out.copy(), (a,), lambda g: (_unbroadcast(g, old),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape
    return _from_op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _from_op(np.transpose(a.data, axes), (a,), lambda g: (np.transpose(g, inv),))


def swap_last(a: Tensor) -> Tensor:
    """Transpose the trailing two axes."""
    return _from_op(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _from_op(data, tuple(tensors), lambda g: tuple(np.split(g, splits, axis=axis)))


def tslice(a: Tensor, key) -> Tensor:
    out = a.data[key]
    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[key] = g
        return (buf,)
    return _from_op(out, (a,), vjp)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).astype(a.data.dtype, copy=True),)
    return _from_op(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# ---------------------------------------------------------------------------
# Linear algebra, lookups, normalizations
# ---------------------------------------------------------------------------

def _matmul_data(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim < 2 or b.ndim < 2:
        raise DataError(f"{op}: operands must be >= 2-d, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DataError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    return a @ b


def _matmul_vjp(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of a @ b for the output gradient g."""
    return (_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
            _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _matmul_data("matmul", a.data, b.data)
    return _from_op(out, (a, b), lambda g: _matmul_vjp(g, a.data, b.data))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node, bitwise add(matmul(x, w), b) forward and back."""
    out = _matmul_data("linear", x.data, w.data)
    _elementwise("linear", operator.iadd, out, b.data)
    return _from_op(out, (x, w, b), lambda g: (*_matmul_vjp(g, x.data, w.data),
                                               _unbroadcast(g, b.data.shape)))


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise DataError(f"embedding_lookup: id out of range for table of {table.data.shape[0]} rows")
    out = table.data[ids]
    def vjp(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return (buf,)
    return _from_op(out, (table,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    s = np.exp(x - x.max(axis=axis, keepdims=True))
    s = s / s.sum(axis=axis, keepdims=True)
    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)
    return _from_op(s, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    shifted = x - x.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    def vjp(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)
    return _from_op(ls, (a,), vjp)


LN_EPS = 1e-5    # added to the variance under layer norm's square root


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply the learned affine map."""
    x = a.data
    D = x.shape[-1]
    def mean(t):    # np.mean's sum and division, without its Python layer
        return np.add.reduce(t, axis=-1, keepdims=True) / D
    xc = x - mean(x)
    inv = 1.0 / np.sqrt(mean(xc * xc) + LN_EPS)
    y = xc * inv
    out = y * gain.data + bias.data
    def vjp(g):
        dy = g * gain.data
        dx = inv * (dy - mean(dy) - y * mean(dy * y))
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * y).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        return dx.astype(x.dtype, copy=False), dgain, dbias
    return _from_op(out.astype(x.dtype, copy=False), (a, gain, bias), vjp)


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis per leading position."""
    idx = np.asarray(idx)
    expanded = np.expand_dims(idx, -1)
    out = np.take_along_axis(a.data, expanded, axis=-1).squeeze(-1)
    def vjp(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, expanded, np.expand_dims(g, -1), axis=-1)
        return (buf,)
    return _from_op(out, (a,), vjp)


def index_select2(a: Tensor, idx0: np.ndarray, idx1: np.ndarray) -> Tensor:
    """out[...] = a[idx0[...], idx1[...], :] with scatter-add backward."""
    out = a.data[idx0, idx1]
    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (idx0, idx1), g)
        return (buf,)
    return _from_op(out, (a,), vjp)


def scatter_vocab(alpha: Tensor, token_ids: np.ndarray, vocab_size: int) -> Tensor:
    """Scatter-add attention mass onto vocabulary slots.

    alpha: (B, T, M) weights over memory slots; token_ids: (B, M) slot
    token ids. Returns (B, T, V) with out[b,t,v] = sum of alpha over
    slots holding token v.
    """
    B, T, M = alpha.data.shape
    bb = np.arange(B)[:, None, None]
    tt = np.arange(T)[None, :, None]
    ids3 = np.broadcast_to(token_ids[:, None, :], (B, T, M))
    out = np.zeros((B, T, vocab_size), dtype=alpha.data.dtype)
    np.add.at(out, (bb, tt, ids3), alpha.data)
    def vjp(g):
        return (np.take_along_axis(g, ids3, axis=2),)
    return _from_op(out, (alpha,), vjp)


def dropout(a: Tensor, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Seeded inverted dropout; identity when not training or p == 0."""
    if not train or p <= 0.0:
        return a
    if rng is None:
        raise DataError("dropout in training mode needs an rng")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return _from_op(a.data * keep, (a,), lambda g: (g * keep,))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + mask_bias) v over the trailing two axes.

    q: (..., Tq, d), k: (..., Tk, d), v: (..., Tk, dv). mask_bias is an
    additive constant (0 where allowed, large negative where masked).
    One node that keeps only the probabilities, bitwise the unfused chain
    swap_last, matmul, mul, add, softmax and matmul forward and back.
    """
    scale = np.asarray(1.0 / math.sqrt(q.data.shape[-1]), dtype=q.data.dtype)
    kt = np.swapaxes(k.data, -1, -2)
    s = _matmul_data("scaled_dot_attention", q.data, kt)
    s *= scale
    if mask_bias is not None:
        _elementwise("scaled_dot_attention", operator.iadd, s, mask_bias.astype(s.dtype, copy=False))
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    def vjp(g):
        gs, gv = _matmul_vjp(g, s, v.data)
        ds = (gs - (gs * s).sum(axis=-1, keepdims=True)) * s * scale
        gq, gkt = _matmul_vjp(ds, q.data, kt)
        return gq, np.swapaxes(gkt, -1, -2), gv
    return _from_op(_matmul_data("scaled_dot_attention", s, v.data), (q, k, v), vjp)


# ---------------------------------------------------------------------------
# Backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Populate .grad along the graph below `loss`.

    Parameters listed in `params` that were never touched receive a
    zero grad. A second backward through the same root raises.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise DataError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._done:
        raise RuntimeError("backward already ran on this graph; rebuild the loss to differentiate again")
    loss._done = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for p, g in zip(node._parents, grads):
            if not p.requires_grad or g is None:
                continue
            g = np.asarray(g, dtype=p.data.dtype)
            p.grad = g if p.grad is None else p.grad + g
    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

# Probabilities are floored here before the log, so that exact zeros from
# copy distributions cannot produce infinities.
PROB_FLOOR = 1e-9


def smoothed_nll(logp: Tensor, targets: np.ndarray, smoothing: float, pad_id: int) -> Tensor:
    """Label-smoothed NLL of log-probabilities (..., V), averaged over non-pad targets.

    The smoothed target distribution is (1-eps) one-hot plus eps uniform
    over the whole vocabulary; smoothing 0 is plain NLL.
    """
    if not 0.0 <= smoothing < 1.0:
        raise DataError(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets)
    V = logp.data.shape[-1]
    if targets.size and targets.max() >= V:
        raise DataError(f"target id {int(targets.max())} out of range for vocab {V}")
    mask = (targets != pad_id)
    n = int(mask.sum())
    if n == 0:
        raise DataError("all targets are padding; nothing to average")
    nll = neg(gather_last(logp, targets))
    per_tok = nll if smoothing == 0.0 else add(
        mul(nll, 1.0 - smoothing), mul(neg(tmean(logp, axis=-1)), smoothing)
    )
    masked = mul(per_tok, Tensor(mask.astype(logp.data.dtype)))
    return mul(tsum(masked), 1.0 / n)


def cross_entropy_label_smoothed(logits: Tensor, targets: np.ndarray, smoothing: float = 0.0,
                                 pad_id: int = 0) -> Tensor:
    """`smoothed_nll` of the softmax of `logits`."""
    return smoothed_nll(log_softmax(logits, axis=-1), targets, smoothing, pad_id)


def nll_from_probs(probs: Tensor, targets: np.ndarray, smoothing: float = 0.0,
                   pad_id: int = 0) -> Tensor:
    """`smoothed_nll` of probabilities (mixtures), floored at PROB_FLOOR."""
    return smoothed_nll(tlog(clip_min(probs, PROB_FLOOR)), targets, smoothing, pad_id)


# ---------------------------------------------------------------------------
# Optimizer and schedule
# ---------------------------------------------------------------------------

# The one update rule: gradients clipped to a global norm of CLIP_NORM, then
# a bias-corrected Adam step with these moment decays and epsilon.
CLIP_NORM = 1.0
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter moments and the default learning rate; step count t starts at 0."""

    lr: float = 7e-4
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, Tensor], lr: float = 7e-4) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p.data)
        state.v[name] = np.zeros_like(p.data)
    return state


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float | None = None,
) -> dict[str, Tensor]:
    """One bias-corrected update; mutates params in place and returns them."""
    state.t += 1
    lr = state.lr if lr is None else lr
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape or state.m[name].shape != p.data.shape:
            raise DataError(f"adam_step: shape drift for '{name}'")
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data = p.data - lr * (m / c1) / np.sqrt(v / c2 + ADAM_EPS)
    return params


def update(loss: Tensor, params: dict[str, Tensor], state: AdamState, step: int,
           lr: float | None = None) -> float:
    """The one optimiser update: gradients of `loss` clipped to CLIP_NORM, then
    an Adam step at `lr` (default: the state's). A non-finite loss raises
    before any parameter moves. Returns the loss."""
    value = float(loss.data)
    if not math.isfinite(value):
        raise NumericError(f"non-finite loss at update {step}")
    zero_grads(params.values())
    backward(loss, params=params.values())
    adam_step(params, clip_global_norm({k: p.grad for k, p in params.items()}), state, lr)
    return value


def lr_inverse_sqrt(step: int, base_lr: float, warmup: int) -> float:
    """Linear warmup to base_lr, then inverse square-root decay."""
    step = max(step, 1)
    if step < warmup:
        return base_lr * step / warmup
    return base_lr * math.sqrt(warmup / step)


def clip_global_norm(grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`grads` scaled down to a global norm of CLIP_NORM when theirs is larger."""
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
    if total <= CLIP_NORM:
        return grads
    scale = CLIP_NORM / total
    return {k: g * scale for k, g in grads.items()}


# ---------------------------------------------------------------------------
# Checkpoint container: "TMLAB1" magic, a "<header length> <crc32>" line, JSON
# manifest, little-endian blob. The CRC-32 (8 lowercase hex digits) covers
# the length, a newline, the manifest and the blob: everything after the
# magic but the checksum itself. A file whose line holds no checksum, as
# earlier versions wrote them, loads unchecked.
# ---------------------------------------------------------------------------

_MAGIC = b"TMLAB1\n"
_DTYPES = {"float32": "<f4", "float64": "<f8"}


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    entries = []
    blob = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        if arr.dtype.name not in _DTYPES:
            raise DataError(f"save_arrays: unsupported dtype {arr.dtype} for '{name}'")
        raw = arr.astype(_DTYPES[arr.dtype.name]).tobytes()
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": arr.dtype.name,
            "offset": len(blob),
            "nbytes": len(raw),
        })
        blob.extend(raw)
    header = json.dumps({"tensors": entries, "meta": meta}, sort_keys=True).encode("utf-8")
    hlen = str(len(header)).encode("ascii")
    crc = zlib.crc32(b"\n".join((hlen, header + bytes(blob))))
    atomic_write_bytes(path, _MAGIC + hlen + f" {crc:08x}\n".encode("ascii") + header + bytes(blob))


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise DataError(f"{path}: not a TMLAB1 checkpoint")
    rest = raw[len(_MAGIC):]
    try:
        nl = rest.index(b"\n")
        fields = rest[:nl].split(b" ")
        if len(fields) > 2:
            raise ValueError("malformed length line")
        if len(fields) == 2:
            crc = zlib.crc32(b"\n".join((fields[0], rest[nl + 1 :])))
            if fields[1] != f"{crc:08x}".encode("ascii"):
                raise ValueError("checksum mismatch")
        hlen = int(fields[0])
        head = rest[nl + 1 : nl + 1 + hlen]
        if len(head) != hlen:
            raise ValueError("header is cut short")
        header = json.loads(head.decode("utf-8"))
        blob = rest[nl + 1 + hlen :]
        arrays = {}
        for e in header["tensors"]:
            buf = blob[e["offset"] : e["offset"] + e["nbytes"]]
            if len(buf) != e["nbytes"]:
                raise ValueError(f"tensor '{e['name']}' is cut short")
            arr = np.frombuffer(buf, dtype=_DTYPES[e["dtype"]]).reshape(e["shape"])
            arrays[e["name"]] = arr.astype(e["dtype"])
        meta = header["meta"]
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: corrupt TMLAB1 checkpoint ({type(e).__name__}: {e})") from None
    return arrays, meta


def check_tensor_set(path: str | Path, what: str, arrays: dict[str, np.ndarray],
                     layout: Iterable[tuple[str, tuple[int, ...], str]]) -> None:
    """Reject a loaded file whose tensor names and shapes are not those of
    `layout`'s (name, shape, init) entries. At most one entry more than the
    file holds is read, so no layout costs more than the file."""
    got = {k: v.shape for k, v in arrays.items()}
    shapes = {name: shape for name, shape, _ in itertools.islice(layout, len(got) + 1)}
    if got != shapes:
        bad = sorted(set(got) ^ set(shapes)) or [k for k in sorted(got) if got[k] != shapes[k]]
        raise DataError(f"{path}: not a {what} (tensor '{bad[0]}' is missing, unexpected "
                        f"or misshaped)")
