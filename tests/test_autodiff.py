import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import check_gradients, max_rel_err
from tmlab import autodiff as ad
from tmlab.errors import DataError, NumericError


def t64(x, grad=False):
    return ad.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# Forward-op contracts
# ---------------------------------------------------------------------------

def test_softmax_symmetry():
    out = ad.softmax(t64([0.0, 0.0])).data
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-12)


def test_layer_norm_constant_vector_zeros():
    g = t64(np.ones(6))
    b = t64(np.zeros(6))
    out = ad.layer_norm(t64(np.full((2, 6), 3.25)), g, b).data
    np.testing.assert_allclose(out, 0.0, atol=1e-3)


def test_matmul_identity():
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    out = ad.matmul(t64(np.eye(3)), t64(a)).data
    np.testing.assert_allclose(out, a)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DataError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_elementwise_shape_error_names_shapes(op):
    with pytest.raises(DataError, match=rf"{op.__name__}: incompatible shapes \(2, 3\) and \(4,\)"):
        op(t64(np.ones((2, 3))), t64(np.ones(4)))


def test_exp_log_softmax_normalized():
    rng = np.random.default_rng(0)
    x = t64(rng.normal(size=(4, 9)))
    total = np.exp(ad.log_softmax(x).data).sum(axis=-1)
    np.testing.assert_allclose(total, 1.0, atol=1e-6)


@settings(max_examples=40)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
def test_softmax_sums_to_one(vals):
    s = ad.softmax(t64(vals)).data
    assert abs(s.sum() - 1.0) < 1e-6
    assert (s >= 0).all()


# ---------------------------------------------------------------------------
# Backward contracts
# ---------------------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = t64([1.0, 2.0, 3.0], grad=True)
    ad.backward(ad.tsum(x))
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_square():
    x = t64(3.0, grad=True)
    ad.backward(ad.mul(x, x))
    np.testing.assert_allclose(x.grad, 6.0)


def test_backward_requires_scalar():
    x = t64([1.0, 2.0], grad=True)
    with pytest.raises(DataError):
        ad.backward(ad.mul(x, x))


def test_backward_visits_shared_nodes_once():
    # diamond: y = x*x + x; a double visit of the product node would
    # double-count its contribution
    x = t64(3.0, grad=True)
    y = ad.add(ad.mul(x, x), x)
    ad.backward(y)
    np.testing.assert_allclose(x.grad, 7.0)


def test_backward_twice_raises():
    x = t64(2.0, grad=True)
    loss = ad.mul(x, x)
    ad.backward(loss)
    with pytest.raises(RuntimeError):
        ad.backward(loss)


def test_off_path_parameter_gets_zero_grad():
    x = t64([1.0, 2.0], grad=True)
    unused = t64([5.0], grad=True)
    ad.backward(ad.tsum(x), params=[x, unused])
    np.testing.assert_allclose(unused.grad, [0.0])


def test_mlp_gradients_match_finite_differences():
    """Random 2-layer MLP in float64: worst relative error < 1e-6 at h=1e-5."""
    rng = np.random.default_rng(42)
    params = {
        "w1": t64(rng.normal(scale=0.5, size=(5, 7)), grad=True),
        "b1": t64(rng.normal(scale=0.1, size=7), grad=True),
        "w2": t64(rng.normal(scale=0.5, size=(7, 3)), grad=True),
        "b2": t64(rng.normal(scale=0.1, size=3), grad=True),
    }
    x = np.asarray(rng.normal(size=(4, 5)))
    y = np.asarray(rng.integers(0, 3, size=4))

    def loss_fn():
        h = ad.relu(ad.add(ad.matmul(ad.Tensor(x), params["w1"]), params["b1"]))
        logits = ad.add(ad.matmul(h, params["w2"]), params["b2"])
        return ad.cross_entropy_label_smoothed(logits, y, smoothing=0.0, pad_id=-1)

    assert check_gradients(loss_fn, params) < 1e-6


@pytest.mark.parametrize("op_name", [
    "add", "sub", "mul", "div", "matmul", "linear", "relu", "sigmoid", "softmax",
    "log_softmax", "layer_norm", "concat", "slice", "sum", "mean",
    "embedding", "gather", "scatter_vocab", "index_select2", "attention", "log", "repeat_rows",
])
def test_each_op_gradcheck(op_name):
    rng = np.random.default_rng(hash(op_name) % 2**32)
    a = t64(rng.normal(size=(3, 4)) + np.where(rng.normal(size=(3, 4)) > 0, 0.3, -0.3), grad=True)
    b = t64(rng.normal(size=(3, 4)) + 0.1, grad=True)

    if op_name == "add":
        f = lambda: ad.tsum(ad.add(a, b))
    elif op_name == "sub":
        f = lambda: ad.tsum(ad.sub(a, b))
    elif op_name == "mul":
        f = lambda: ad.tsum(ad.mul(a, b))
    elif op_name == "div":
        bb = t64(rng.uniform(1.0, 2.0, size=(3, 4)), grad=True)
        f = lambda: ad.tsum(ad.div(a, bb))
        assert check_gradients(f, {"a": a, "b": bb}) < 1e-6
        return
    elif op_name == "matmul":
        w = t64(rng.normal(size=(4, 2)), grad=True)
        # 2-D a, and batched a whose batch axes the weight gradient flattens
        for x in (a, t64(rng.normal(size=(2, 3, 4)), grad=True),
                  t64(rng.normal(size=(2, 2, 3, 4)), grad=True)):
            proj = ad.Tensor(rng.normal(size=x.shape[:-1] + (2,)))
            f = lambda: ad.tsum(ad.mul(ad.matmul(x, w), proj))
            assert check_gradients(f, {"x": x, "w": w}) < 1e-6
        return
    elif op_name == "linear":
        w = t64(rng.normal(size=(4, 2)), grad=True)
        c = t64(rng.normal(size=2), grad=True)
        # the weightnet's (B, K, T, D) input is the 4-D case
        for x in (a, t64(rng.normal(size=(2, 3, 4)), grad=True),
                  t64(rng.normal(size=(2, 2, 3, 4)), grad=True)):
            proj = ad.Tensor(rng.normal(size=x.shape[:-1] + (2,)))
            f = lambda: ad.tsum(ad.mul(ad.linear(x, w, c), proj))
            assert check_gradients(f, {"x": x, "w": w, "c": c}) < 1e-6
        return
    elif op_name == "relu":
        f = lambda: ad.tsum(ad.relu(a))
    elif op_name == "sigmoid":
        f = lambda: ad.tsum(ad.mul(ad.sigmoid(a), b))
    elif op_name == "softmax":
        f = lambda: ad.tsum(ad.mul(ad.softmax(a), b))
    elif op_name == "log_softmax":
        f = lambda: ad.tsum(ad.mul(ad.log_softmax(a), b))
    elif op_name == "layer_norm":
        g = t64(rng.normal(size=4), grad=True)
        c = t64(rng.normal(size=4), grad=True)
        f = lambda: ad.tsum(ad.mul(ad.layer_norm(a, g, c), b))
        assert check_gradients(f, {"a": a, "g": g, "c": c}) < 1e-6
        return
    elif op_name == "concat":
        w = ad.Tensor(np.asarray(rng.normal(size=(3, 8))))
        f = lambda: ad.tsum(ad.mul(ad.concat([a, b], axis=1), w))
    elif op_name == "slice":
        w = ad.Tensor(np.asarray(rng.normal(size=(2, 2))))
        f = lambda: ad.tsum(ad.mul(a[1:, :2], w))
    elif op_name == "sum":
        f = lambda: ad.tsum(ad.mul(ad.tsum(a, axis=1, keepdims=True), b))
    elif op_name == "mean":
        w = ad.Tensor(np.asarray(rng.normal(size=(1, 4))))
        f = lambda: ad.tsum(ad.mul(ad.tmean(a, axis=0, keepdims=True), w))
    elif op_name == "embedding":
        ids = rng.integers(0, 3, size=(2, 5))
        w = ad.Tensor(np.asarray(rng.normal(size=(2, 5, 4))))
        f = lambda: ad.tsum(ad.mul(ad.embedding_lookup(a, ids), w))
    elif op_name == "gather":
        ids = rng.integers(0, 4, size=3)
        f = lambda: ad.tsum(ad.gather_last(ad.softmax(a), ids))
    elif op_name == "scatter_vocab":
        alpha = t64(rng.uniform(0.1, 1.0, size=(2, 3, 4)), grad=True)
        tok = rng.integers(0, 6, size=(2, 4))
        w = ad.Tensor(np.asarray(rng.normal(size=(2, 3, 6))))
        f = lambda: ad.tsum(ad.mul(ad.scatter_vocab(alpha, tok, 6), w))
        assert check_gradients(f, {"alpha": alpha}) < 1e-6
        return
    elif op_name == "index_select2":
        x = t64(rng.normal(size=(4, 5, 3)), grad=True)
        i0 = rng.integers(0, 4, size=(2, 6))
        i1 = rng.integers(0, 5, size=(2, 6))
        w = ad.Tensor(np.asarray(rng.normal(size=(2, 6, 3))))
        f = lambda: ad.tsum(ad.mul(ad.index_select2(x, i0, i1), w))
        assert check_gradients(f, {"x": x}) < 1e-6
        return
    elif op_name == "attention":
        q = t64(rng.normal(size=(2, 3, 4)), grad=True)
        k = t64(rng.normal(size=(2, 5, 4)), grad=True)
        v = t64(rng.normal(size=(2, 5, 4)), grad=True)
        mask = np.zeros((2, 3, 5))
        mask[:, :, -1] = -1e9
        w = ad.Tensor(np.asarray(rng.normal(size=(2, 3, 4))))
        f = lambda: ad.tsum(ad.mul(ad.scaled_dot_attention(q, k, v, mask), w))
        assert check_gradients(f, {"q": q, "k": k, "v": v}) < 1e-6
        return
    elif op_name == "log":
        x = t64(rng.uniform(0.5, 2.0, size=(3, 4)), grad=True)
        f = lambda: ad.tsum(ad.mul(ad.tlog(ad.clip_min(x, 1e-12)), b))
        assert check_gradients(f, {"x": x}) < 1e-6
        return
    elif op_name == "repeat_rows":
        x = t64(rng.normal(size=(3, 2, 4)), grad=True)
        w = ad.Tensor(np.asarray(rng.normal(size=(9, 2, 4))))
        f = lambda: ad.tsum(ad.mul(ad.repeat_rows(x, 3), w))
        assert check_gradients(f, {"x": x}) < 1e-6
        return
    else:
        raise AssertionError(op_name)

    assert check_gradients(f, {"a": a, "b": b}) < 1e-6


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_a_constant_operand_costs_no_gradient(op):
    """The VJP computes no gradient for an operand that takes none, and the
    other operand's is the one it computed before."""
    p = t64([[1.5, -2.0, 0.5], [3.0, 1.0, -1.0]], grad=True)
    c = t64([2.0, 4.0, 0.5])
    g = np.arange(6.0).reshape(2, 3)
    for out, const, grad in ((op(p, c), 1, 0), (op(c, p), 0, 1)):
        grads = out._vjp(g)
        assert grads[const] is None
        both = op(*(t64(t.data, grad=True) for t in out._parents))._vjp(g)
        np.testing.assert_array_equal(grads[grad], both[grad])


def test_repeat_rows_copies_each_row_in_turn():
    x = t64(np.arange(12.0).reshape(3, 2, 2), grad=True)
    np.testing.assert_array_equal(ad.repeat_rows(x, 2).data, np.repeat(x.data, 2, axis=0))
    assert ad.repeat_rows(x, 1) is x


@pytest.mark.parametrize("axes", [(0, 2, 1, 3), (3, 0, 2, 1), (1, 0), (0, 1, 2)])
def test_permute_and_swap_last_are_the_same_views(axes):
    shape = (2, 3, 4, 5)[: len(axes)]
    x = t64(np.arange(float(np.prod(shape))).reshape(shape), grad=True)
    y = ad.permute(x, axes)
    assert np.shares_memory(y.data, x.data)
    np.testing.assert_array_equal(y.data, np.transpose(x.data, axes))
    g = np.ones(y.shape) * np.arange(y.shape[-1])
    np.testing.assert_array_equal(y._vjp(g)[0], np.transpose(g, np.argsort(axes)))
    s = ad.swap_last(x)
    assert np.shares_memory(s.data, x.data)
    np.testing.assert_array_equal(s.data, np.swapaxes(x.data, -1, -2))


# ---------------------------------------------------------------------------
# Fused ops: forward and gradients bitwise those of the ops they replace
# ---------------------------------------------------------------------------

def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


def _forward_and_grads(f, arrays):
    """f's output on `arrays` and every input's gradient of a fixed random
    projection of that output."""
    ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = f(*ts)
    proj = np.random.default_rng(99).normal(size=out.shape).astype(out.dtype)
    ad.backward(ad.tsum(ad.mul(out, ad.Tensor(proj))))
    return [out.data, *(t.grad for t in ts)]


def assert_bitwise(fused, unfused, *arrays):
    got, want = _forward_and_grads(fused, arrays), _forward_and_grads(unfused, arrays)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype == np.float32 and np.array_equal(g, w)


def unfused_attention(q, k, v, mask_bias=None):
    scores = ad.mul(ad.matmul(q, ad.swap_last(k)), 1.0 / math.sqrt(q.shape[-1]))
    if mask_bias is not None:
        scores = ad.add(scores, ad.Tensor(mask_bias.astype(q.dtype)))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


@pytest.mark.parametrize("x_shape, out_dim", [((24, 64), 1), ((8, 12, 64), 128),
                                              ((8, 12, 64), 202)], ids=["2d", "3d", "3d-vocab"])
def test_linear_is_bitwise_matmul_then_add(x_shape, out_dim):
    rng = np.random.default_rng(1)
    assert_bitwise(ad.linear, lambda x, w, b: ad.add(ad.matmul(x, w), b),
                   _f32(rng, *x_shape), _f32(rng, x_shape[-1], out_dim), _f32(rng, out_dim))


F32_TOL = 1e-5    # about 84 float32 ulps of 1.0, as the benchmark's checks use


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, F32_TOL)],
                         ids=["f64", "f32"])
@pytest.mark.parametrize("a_shape, out_dim", [((8, 12, 64), 128), ((8, 12, 128), 64),
                                              ((8, 12, 64), 202), ((4, 5, 12, 64), 64)],
                         ids=["3d", "3d-down", "3d-vocab", "4d"])
def test_flattened_matmul_gradients_match_the_per_item_products(a_shape, out_dim, dtype, tol):
    """With a 2-D weight, the batch axes are flattened into one GEMM per
    gradient: not bitwise the per-item products, but within rounding."""
    rng = np.random.default_rng(7)
    a = ad.Tensor(rng.normal(size=a_shape).astype(dtype), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(a_shape[-1], out_dim)).astype(dtype), requires_grad=True)
    g = rng.normal(size=a_shape[:-1] + (out_dim,)).astype(dtype)
    ad.backward(ad.tsum(ad.mul(ad.matmul(a, b), ad.Tensor(g))))
    batch_axes = tuple(range(len(a_shape) - 2))
    want_ga = g @ b.data.swapaxes(-1, -2)
    want_gb = (a.data.swapaxes(-1, -2) @ g).sum(axis=batch_axes)
    for got, want in ((a.grad, want_ga), (b.grad, want_gb)):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _heads(rng, B, T, H=4, Dh=16):
    # the model's layout: (B, T, H, Dh) permuted to (B, H, T, Dh), not contiguous
    return np.transpose(_f32(rng, B, T, H, Dh), (0, 2, 1, 3))


@pytest.mark.parametrize("Tq, Tk, masked", [(12, 12, False), (12, 12, True), (12, 15, True),
                                            (1, 15, True)],
                         ids=["self", "self-masked", "cross-masked", "decode-step"])
def test_attention_is_bitwise_its_unfused_chain(Tq, Tk, masked):
    rng = np.random.default_rng(2)
    q, k, v = _heads(rng, 8, Tq), _heads(rng, 8, Tk), _heads(rng, 8, Tk)
    assert not (k.flags.c_contiguous or v.flags.c_contiguous)
    mask = None
    if masked:
        mask = np.where(rng.random((8, 1, 1, Tk)) < 0.2, -1e9, 0.0)   # key padding
        if Tq == Tk:    # self-attention is also causal
            mask = mask + np.where(np.arange(Tk)[None, :] > np.arange(Tq)[:, None], -1e9, 0.0)
        mask = mask.astype(np.float32)
    assert_bitwise(lambda q, k, v: ad.scaled_dot_attention(q, k, v, mask),
                   lambda q, k, v: unfused_attention(q, k, v, mask), q, k, v)


def test_dropout_is_bitwise_a_mul_by_its_keep_mask():
    p = 0.1
    def unfused(a):
        keep = (np.random.default_rng(5).random(a.shape) >= p).astype(a.dtype) / (1.0 - p)
        return ad.mul(a, ad.Tensor(keep))
    assert_bitwise(lambda a: ad.dropout(a, p, np.random.default_rng(5), True), unfused,
                   _f32(np.random.default_rng(3), 8, 12, 64))


def test_layer_norm_is_bitwise_its_np_mean_formula():
    rng = np.random.default_rng(4)
    x, gain, bias = _f32(rng, 8, 12, 64), _f32(rng, 64), _f32(rng, 64)
    out, dx, dgain, dbias = _forward_and_grads(ad.layer_norm, (x, gain, bias))
    g = np.random.default_rng(99).normal(size=x.shape).astype(np.float32)  # the projection
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LN_EPS)
    y = xc * inv
    dy = g * gain
    want_dx = inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))
    for got, want in ((out, (y * gain + bias).astype(x.dtype)), (dx, want_dx.astype(x.dtype)),
                      (dgain, (g * y).sum(axis=(0, 1))), (dbias, g.sum(axis=(0, 1)))):
        assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)


def test_adam_in_place_moments_are_bitwise_the_out_of_place_formula():
    rng = np.random.default_rng(6)
    p = {"w": ad.parameter(_f32(rng, 64, 128))}
    w, m, v = p["w"].data.copy(), np.zeros_like(p["w"].data), np.zeros_like(p["w"].data)
    state = ad.adam_init(p, lr=1e-3)
    b1, b2 = ad.ADAM_BETA1, ad.ADAM_BETA2
    for t in (1, 2, 3):
        g = _f32(rng, 64, 128)
        ad.adam_step(p, {"w": g}, state, lr=5e-4 * t)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        w = w - 5e-4 * t * (m / (1.0 - b1 ** t)) / np.sqrt(v / (1.0 - b2 ** t) + ad.ADAM_EPS)
        for got, want in ((p["w"].data, w), (state.m["w"], m), (state.v["w"], v)):
            assert got.dtype == want.dtype == np.float32 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_ce_uniform_logits_is_ln2():
    logits = t64(np.zeros((1, 2)))
    loss = ad.cross_entropy_label_smoothed(logits, np.asarray([0]), smoothing=0.0, pad_id=-1)
    assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)
    # any smoothing level keeps ln 2 under a uniform prediction
    loss = ad.cross_entropy_label_smoothed(logits, np.asarray([0]), smoothing=0.1, pad_id=-1)
    assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)


def test_ce_rejects_out_of_range_target():
    with pytest.raises(DataError):
        ad.cross_entropy_label_smoothed(t64(np.zeros((1, 3))), np.asarray([3]))


def test_ce_rejects_all_pad_batch():
    with pytest.raises(DataError):
        ad.cross_entropy_label_smoothed(t64(np.zeros((2, 3))), np.asarray([0, 0]), pad_id=0)


def test_nll_from_probs_validates_like_cross_entropy():
    probs = t64(np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(DataError, match="out of range"):
        ad.nll_from_probs(probs, np.asarray([0, 3]))
    for eps in (1.0, -0.1):
        with pytest.raises(DataError, match="smoothing"):
            ad.nll_from_probs(probs, np.asarray([1, 2]), smoothing=eps)


def test_ce_smoothing_hand_value():
    # logits (0, ln3): softmax = (0.25, 0.75); target 1, eps = 0.2, V = 2
    # loss = 0.8 * (-ln .75) + 0.2 * (-(ln .25 + ln .75) / 2)
    logits = t64(np.asarray([[0.0, math.log(3.0)]]))
    want = 0.8 * -math.log(0.75) + 0.2 * -(math.log(0.25) + math.log(0.75)) / 2
    loss = ad.cross_entropy_label_smoothed(logits, np.asarray([1]), smoothing=0.2, pad_id=-1)
    assert math.isclose(loss.item(), want, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_adam_hand_step():
    p = {"w": ad.parameter(np.zeros(1), dtype=np.float64)}
    st_ = ad.adam_init(p, lr=1e-3)
    ad.adam_step(p, {"w": np.ones(1)}, st_)
    np.testing.assert_allclose(p["w"].data, [-0.000999999995], rtol=1e-9)
    assert st_.t == 1


def test_adam_zero_grad_no_move():
    p = {"w": ad.parameter(np.asarray([1.5, -2.0]), dtype=np.float64)}
    st_ = ad.adam_init(p, lr=1e-2)
    ad.adam_step(p, {"w": np.zeros(2)}, st_)
    np.testing.assert_allclose(p["w"].data, [1.5, -2.0])


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": ad.parameter(rng.normal(size=4), dtype=np.float64)}
        st_ = ad.adam_init(p, lr=1e-3)
        for _ in range(10):
            ad.adam_step(p, {"w": rng.normal(size=4)}, st_)
        return p["w"].data.tobytes()

    assert run() == run()


def test_adam_shape_drift_error():
    p = {"w": ad.parameter(np.zeros(2))}
    st_ = ad.adam_init(p)
    with pytest.raises(DataError):
        ad.adam_step(p, {"w": np.zeros(3)}, st_)


def test_update_refuses_a_non_finite_loss_before_any_move():
    p = {"w": ad.parameter(np.asarray([1.5, -2.0]), dtype=np.float64)}
    st_ = ad.adam_init(p, lr=1e-2)
    loss = ad.mul(ad.tsum(ad.mul(p["w"], p["w"])), float("nan"))
    with pytest.raises(NumericError, match="non-finite loss at update 4"):
        ad.update(loss, p, st_, 4)
    np.testing.assert_array_equal(p["w"].data, [1.5, -2.0])
    assert st_.t == 0 and p["w"].grad is None


def test_update_clips_then_steps():
    # grad of 3 * sum(w) is (3, 3, 3, 3), norm 6 > CLIP_NORM: Adam sees it scaled
    p = {"w": ad.parameter(np.zeros(4), dtype=np.float64)}
    q = {"w": ad.parameter(np.zeros(4), dtype=np.float64)}
    st_p, st_q = ad.adam_init(p, lr=1e-2), ad.adam_init(q, lr=1e-2)
    assert ad.update(ad.mul(ad.tsum(p["w"]), 3.0), p, st_p, 0, lr=5e-3) == 0.0
    ad.adam_step(q, {"w": np.full(4, 3.0 * ad.CLIP_NORM / 6.0)}, st_q, lr=5e-3)
    np.testing.assert_array_equal(p["w"].data, q["w"].data)


def test_lr_schedule():
    base, warm = 7e-4, 100
    assert ad.lr_inverse_sqrt(1, base, warm) == pytest.approx(base / 100)
    assert ad.lr_inverse_sqrt(100, base, warm) == pytest.approx(base)
    assert ad.lr_inverse_sqrt(400, base, warm) == pytest.approx(base / 2)


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "emb": rng.normal(size=(7, 4)).astype(np.float32),
        "w": rng.normal(size=(4, 4)).astype(np.float64),
    }
    meta = {"arch": "vanilla", "vocab_hash": "abc123"}
    path = tmp_path / "model.tmlab"
    ad.save_arrays(path, arrays, meta)
    assert path.read_bytes().startswith(b"TMLAB1\n")
    loaded, meta2 = ad.load_arrays(path)
    assert meta2 == meta
    for k in arrays:
        np.testing.assert_array_equal(loaded[k], arrays[k])
        assert loaded[k].dtype == arrays[k].dtype


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"NOTAMAGIC whatever")
    with pytest.raises(DataError):
        ad.load_arrays(p)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_load_arrays_corrupt_file_raises_data_error(tmp_path, data):
    good = tmp_path / "good.tmlab"
    ad.save_arrays(good, {"b": np.arange(3, dtype=np.float64),
                          "w": np.ones((2, 3), dtype=np.float32)}, {"arch": "vanilla"})
    raw = good.read_bytes()
    bad = tmp_path / "bad.tmlab"
    bad.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(DataError):
        ad.load_arrays(bad)
    flipped = bytearray(raw)
    flipped[data.draw(st.integers(0, len(raw) - 1), label="at")] ^= data.draw(st.integers(1, 255))
    bad.write_bytes(bytes(flipped))
    with pytest.raises(DataError):
        ad.load_arrays(bad)


def _small_file(tmp_path):
    good = tmp_path / "good.tmlab"
    ad.save_arrays(good, {"b": np.arange(3, dtype=np.float64),
                          "w": np.ones((2, 3), dtype=np.float32)}, {"arch": "vanilla"})
    return good.read_bytes()


def test_load_arrays_every_byte_flip_raises_data_error(tmp_path):
    # masks that turn digits into letters, case-fold hex, make spaces and newlines
    raw = _small_file(tmp_path)
    bad = tmp_path / "bad.tmlab"
    for at in range(len(raw)):
        for mask in (0x01, 0x10, 0x20, 0x80, 0xFF, raw[at] ^ 0x20, raw[at] ^ 0x0A):
            if mask == 0:
                continue
            flipped = bytearray(raw)
            flipped[at] ^= mask
            bad.write_bytes(bytes(flipped))
            with pytest.raises(DataError):
                ad.load_arrays(bad)


def test_load_arrays_reads_files_without_a_checksum(tmp_path):
    # the length line of earlier files holds the header length alone
    raw = _small_file(tmp_path)
    line_end = raw.index(b"\n", len(b"TMLAB1\n"))
    length, crc = raw[len(b"TMLAB1\n"):line_end].split(b" ")
    assert len(crc) == 8
    old = tmp_path / "old.tmlab"
    old.write_bytes(b"TMLAB1\n" + length + raw[line_end:])
    arrays, meta = ad.load_arrays(old)
    assert meta == {"arch": "vanilla"}
    np.testing.assert_array_equal(arrays["b"], np.arange(3, dtype=np.float64))


@pytest.mark.parametrize("after_magic", [b"", b"12", b"x\n{}", b"2\n{}", b'30\n{"tensors": [], "meta": {}}'])
def test_load_arrays_rejects_bad_header(tmp_path, after_magic):
    p = tmp_path / "bad.tmlab"
    p.write_bytes(b"TMLAB1\n" + after_magic)
    with pytest.raises(DataError, match="corrupt TMLAB1 checkpoint"):
        ad.load_arrays(p)
