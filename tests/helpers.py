"""Shared test utilities: central finite differences, error norms, and the
teacher-forced reference in which every forward row is a source of its own."""

from __future__ import annotations

from typing import Callable

import numpy as np

from tmlab import autodiff as ad
from tmlab.ensemble import combine_rows, mode_rows
from tmlab.model import forward_rows


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative error with an absolute floor of 1 in the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def numeric_gradient(
    f: Callable[[], ad.Tensor],
    param: ad.Tensor,
    h: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite differences of a scalar-valued closure wrt `param`.

    Returns (flat coordinate indices, numeric gradient at those coords).
    When max_coords is set, a seeded random subset of coordinates is
    probed (large embedding tables would otherwise dominate runtime).
    """
    flat = param.data.reshape(-1)
    n = flat.size
    if max_coords is not None and n > max_coords:
        assert rng is not None
        coords = np.sort(rng.choice(n, size=max_coords, replace=False))
    else:
        coords = np.arange(n)
    grads = np.zeros(len(coords), dtype=np.float64)
    for out_i, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + h
        with ad.no_grad():
            up = float(f().data)
        flat[i] = orig - h
        with ad.no_grad():
            down = float(f().data)
        flat[i] = orig
        grads[out_i] = (up - down) / (2.0 * h)
    return coords, grads


def check_gradients(
    f: Callable[[], ad.Tensor],
    params: dict[str, ad.Tensor],
    h: float = 1e-5,
    max_coords: int | None = None,
    seed: int = 0,
) -> float:
    """Analytic-vs-numeric gradient comparison; returns the worst relative error."""
    loss = f()
    ad.zero_grads(params.values())
    ad.backward(loss, params=params.values())
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in params.items():
        coords, num = numeric_gradient(f, p, h=h, max_coords=max_coords, rng=rng)
        ana = p.grad.reshape(-1)[coords]
        err = max_rel_err(ana, num)
        worst = max(worst, err)
    return worst


def rows_as_sources(mode, ckpt, sep, x, Z, y_in, wn):
    """One sentence's distributions (T, V) and mixture weights (T, K), or
    None, with each of its rows run as a source of its own: the layout
    teacher-forced scoring had before a dual encoder's rows shared one
    decoder pass."""
    rows = mode_rows(mode, ckpt, Z, wn)
    y = np.repeat(np.asarray([y_in], dtype=np.int64), len(rows), axis=0)
    with ad.no_grad():
        st = forward_rows(ckpt.params, ckpt.config, sep, [tuple(x)] * len(rows),
                          [[tms] for tms in rows], y)
    probs, weights = combine_rows(mode, st, len(rows), wn)
    return probs[0], None if weights is None else weights[0]
