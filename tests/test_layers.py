import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clseg import layers as L

from brute_force import (conv3d_backward_loops, conv3d_loops, maxpool3d_backward_loops,
                         maxpool3d_blocks, transposed_conv3d_backward_loops,
                         transposed_conv3d_loops)
from gradcheck import argmax_pattern, gradient_check, relu_pattern

rng = np.random.default_rng(20240917)


# --- conv3d ------------------------------------------------------------------


def test_conv_identity_kernel():
    x = rng.standard_normal((1, 1, 4, 4, 4)).astype(np.float32)
    w = np.ones((1, 1, 1, 1, 1), np.float32)
    b = np.zeros(1, np.float32)
    assert np.array_equal(L.conv3d_forward(x, w, b), x)


def test_conv_zero_input_gives_bias():
    x = np.zeros((1, 2, 5, 5, 5), np.float32)
    w = rng.standard_normal((3, 2, 3, 3, 3)).astype(np.float32)
    b = np.full(3, 0.7, np.float32)
    out = L.conv3d_forward(x, w, b)
    assert out.shape == (1, 3, 3, 3, 3)
    assert np.all(out == np.float32(0.7))


def test_conv_matches_nested_loop_oracle():
    x = rng.standard_normal((1, 2, 5, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    got = L.conv3d_forward(x, w, b)
    want = conv3d_loops(x, w, b)
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel < 1e-12


@settings(max_examples=15, deadline=None)
@given(ci=st.integers(1, 3), co=st.integers(1, 4),
       s=st.integers(3, 7), k=st.sampled_from([1, 3]), seed=st.integers(0, 2**31))
def test_conv_matches_oracle_random_shapes(ci, co, s, k, seed):
    r = np.random.default_rng(seed)
    x = r.standard_normal((1, ci, s, s, s))
    w = r.standard_normal((co, ci, k, k, k))
    b = r.standard_normal(co)
    got = L.conv3d_forward(x, w, b)
    want = conv3d_loops(x, w, b)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_shape_contract_errors():
    x = np.zeros((1, 2, 4, 4, 4), np.float32)
    w = np.zeros((3, 5, 3, 3, 3), np.float32)
    with pytest.raises(L.ContractError):
        L.conv3d_forward(x, w, np.zeros(3, np.float32))
    w = np.zeros((3, 2, 3, 3, 3), np.float32)
    with pytest.raises(L.ContractError):
        L.conv3d_forward(np.zeros((1, 2, 2, 2, 2), np.float32), w, np.zeros(3, np.float32))
    with pytest.raises(L.ContractError):
        L.conv3d_backward(x, w, np.zeros((1, 3, 4, 4, 4), np.float32))


def test_conv_backward_zero_grad_out():
    x = rng.standard_normal((1, 2, 4, 4, 4))
    w = rng.standard_normal((2, 2, 3, 3, 3))
    gx, gw, gb = L.conv3d_backward(x, w, np.zeros((1, 2, 2, 2, 2)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_single_voxel_grad_is_input_window():
    x = rng.standard_normal((1, 1, 5, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3, 3))
    g = np.zeros((1, 1, 3, 3, 3))
    g[0, 0, 1, 2, 0] = 1.0
    _, gw, gb = L.conv3d_backward(x, w, g)
    assert np.allclose(gw[0, 0], x[0, 0, 1:4, 2:5, 0:3])
    assert gb[0] == 1.0


def test_conv_backward_matches_finite_differences():
    x = rng.standard_normal((1, 2, 5, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((1, 3, 3, 3, 3))

    def loss():
        return float((L.conv3d_forward(x, w, b) * proj).sum())

    gx, gw, gb = L.conv3d_backward(x, w, proj)
    rep = gradient_check(loss, {"x": x, "w": w, "b": b},
                         {"x": gx, "w": gw, "b": gb},
                         rng=np.random.default_rng(0))
    assert rep.passed, rep.summary()


@pytest.mark.parametrize("budget", [None, 1, 5000], ids=["default", "one-plane", "two-plane"])
@pytest.mark.parametrize("k", [1, 3])
def test_conv_forward_and_backward_match_loop_oracles(monkeypatch, k, budget):
    # flat offsets depend on W and H*W separately and on slab edges: batch of
    # 2, non-cubic input, and budgets giving 1 or 2 planes per slab (with a
    # short last slab) as well as the default
    if budget is not None:
        monkeypatch.setattr(L, "SLAB_BUDGET_ELEMS", budget)
    r = np.random.default_rng(7 + k)
    x = r.standard_normal((2, 2, 7, 6, 9))
    w = r.standard_normal((3, 2, k, k, k))
    b = r.standard_normal(3)
    g = r.standard_normal((2, 3, 8 - k, 7 - k, 10 - k))
    got = (L.conv3d_forward(x, w, b),) + L.conv3d_backward(x, w, g)
    want = (conv3d_loops(x, w, b),) + conv3d_backward_loops(x, w, g)
    for name, a, e in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == e.shape, name
        assert np.abs(a - e).max() / np.abs(e).max() < 1e-12, name
    gx, gw, gb = L.conv3d_backward(x, w, g, need_grad_x=False)
    assert gx is None
    assert np.array_equal(gw, got[2]) and np.array_equal(gb, got[3])


def test_conv_backward_memory_within_one_slab():
    # paper-width enc1b backward: besides its outputs and the padded
    # gradient, only one slab (unrolled input plus full-grid output) and the
    # per-tap GEMM buffer of the grad_x pass are alive at any time
    Ci, Co, k, s = 16, 32, 3, 66
    r = np.random.default_rng(3)
    x = r.standard_normal((1, Ci, s, s, s), dtype=np.float32)
    w = r.standard_normal((Co, Ci, k, k, k), dtype=np.float32)
    g = r.standard_normal((1, Co, s - 2, s - 2, s - 2), dtype=np.float32)
    padded = Co * (s + k) * s * s * 4
    tap = Ci * L._slab_planes(Co, Ci, k, s, s, s) * s * s * 4
    tracemalloc.start()
    try:
        gx, gw, gb = L.conv3d_backward(x, w, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - gx.nbytes - gw.nbytes - gb.nbytes - padded <= L.SLAB_BUDGET_ELEMS * 4 + tap


def test_conv_deterministic():
    x = rng.standard_normal((1, 2, 6, 6, 6)).astype(np.float32)
    w = rng.standard_normal((4, 2, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    a = L.conv3d_forward(x, w, b)
    assert np.array_equal(a, L.conv3d_forward(x, w, b))


# --- max pooling -------------------------------------------------------------


def test_maxpool_basic_and_tie_break():
    x = np.arange(1, 9, dtype=np.float32).reshape(1, 1, 2, 2, 2)
    out, am = L.maxpool3d_forward(x)
    assert out.reshape(-1).tolist() == [8.0]
    const = np.full((1, 1, 4, 4, 4), 2.5, np.float32)
    out, am = L.maxpool3d_forward(const)
    assert np.all(out == 2.5)
    assert np.all(am == 0)  # ties break to the lowest linear index
    g = rng.standard_normal(out.shape).astype(np.float32)
    gx = L.maxpool3d_backward(am, g)
    assert np.allclose(gx[:, :, ::2, ::2, ::2], g)
    gx[:, :, ::2, ::2, ::2] = 0
    assert not gx.any()


def test_maxpool_signed_zero_ties_keep_first():
    x = np.zeros((1, 2, 2, 2, 2), np.float32)
    x[0, 0, 0, 0, 0] = -0.0          # -0 first, +0 after: -0 wins the tie
    x[0, 1] = -0.0
    x[0, 1, 0, 0, 0] = 0.0           # +0 first, -0 after: +0 wins
    out, am = L.maxpool3d_forward(x)
    assert am.reshape(-1).tolist() == [0, 0]
    assert np.signbit(out.reshape(-1)).tolist() == [True, False]


def test_maxpool_forward_temporaries_below_half_the_input():
    x = rng.standard_normal((1, 4, 32, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        out, am = L.maxpool3d_forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes - am.nbytes < x.nbytes / 2


def test_maxpool_backward_temporaries_below_a_quarter_of_the_input():
    x = np.random.default_rng(10).standard_normal((1, 4, 32, 32, 32), dtype=np.float32)
    out, am = L.maxpool3d_forward(x)
    tracemalloc.start()
    try:
        gx = L.maxpool3d_backward(am, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - gx.nbytes < x.nbytes / 4


def test_maxpool_matches_block_oracle():
    x = rng.standard_normal((2, 3, 6, 6, 6))
    out, _ = L.maxpool3d_forward(x)
    assert np.array_equal(out, maxpool3d_blocks(x))


def test_maxpool_backward_matches_loop_oracle_with_ties_and_signed_zeros():
    # values from a 5-level grid give ties inside most blocks, and the zero
    # level is drawn as +0 or -0
    r = np.random.default_rng(11)
    x = r.integers(-2, 3, (2, 3, 4, 6, 2)).astype(np.float32)
    x[x == 0] = np.where(r.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
    g = r.standard_normal((2, 3, 2, 3, 1)).astype(np.float32)
    _, am = L.maxpool3d_forward(x)
    got = L.maxpool3d_backward(am, g)
    want = maxpool3d_backward_loops(x, g)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_maxpool_odd_dims_rejected():
    with pytest.raises(L.ContractError):
        L.maxpool3d_forward(np.zeros((1, 1, 3, 4, 4), np.float32))


def test_maxpool_backward_finite_differences():
    x = rng.standard_normal((1, 2, 4, 4, 4))
    proj = rng.standard_normal((1, 2, 2, 2, 2))

    def loss():
        out, am = L.maxpool3d_forward(x)
        return float((out * proj).sum()), argmax_pattern(am)

    _, am = L.maxpool3d_forward(x)
    gx = L.maxpool3d_backward(am, proj)
    rep = gradient_check(loss, {"x": x}, {"x": gx}, rng=np.random.default_rng(1))
    assert rep.passed, rep.summary()


# --- transposed conv ---------------------------------------------------------


def test_tconv_single_voxel_paints_block():
    x = np.zeros((1, 1, 2, 2, 2), np.float32)
    x[0, 0, 1, 0, 1] = 1.0
    w = np.ones((1, 1, 2, 2, 2), np.float32)
    out = L.transposed_conv3d_forward(x, w, np.zeros(1, np.float32))
    assert out.shape == (1, 1, 4, 4, 4)
    assert np.all(out[0, 0, 2:4, 0:2, 2:4] == 1.0)
    assert out.sum() == 8.0


def test_tconv_zero_input_gives_bias():
    x = np.zeros((1, 2, 3, 3, 3), np.float32)
    w = rng.standard_normal((2, 3, 2, 2, 2)).astype(np.float32)
    b = np.array([0.1, -0.2, 0.3], np.float32)
    out = L.transposed_conv3d_forward(x, w, b)
    assert out.shape == (1, 3, 6, 6, 6)
    assert np.allclose(out[0, 1], -0.2)


def test_tconv_backward_finite_differences():
    x = rng.standard_normal((1, 2, 3, 3, 3))
    w = rng.standard_normal((2, 3, 2, 2, 2))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((1, 3, 6, 6, 6))

    def loss():
        return float((L.transposed_conv3d_forward(x, w, b) * proj).sum())

    gx, gw, gb = L.transposed_conv3d_backward(x, w, proj)
    rep = gradient_check(loss, {"x": x, "w": w, "b": b},
                         {"x": gx, "w": gw, "b": gb},
                         rng=np.random.default_rng(2))
    assert rep.passed, rep.summary()


def test_tconv_forward_and_backward_match_loop_oracles():
    # batch of 2, non-cubic input and Ci != Co
    r = np.random.default_rng(5)
    x = r.standard_normal((2, 3, 2, 3, 4))
    w = r.standard_normal((3, 2, 2, 2, 2))
    b = r.standard_normal(2)
    g = r.standard_normal((2, 2, 4, 6, 8))
    got = (L.transposed_conv3d_forward(x, w, b),) + L.transposed_conv3d_backward(x, w, g)
    want = (transposed_conv3d_loops(x, w, b),) + transposed_conv3d_backward_loops(x, w, g)
    for name, a, e in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        assert a.shape == e.shape, name
        assert np.allclose(a, e, rtol=1e-12, atol=1e-12), name


@pytest.mark.parametrize("i", range(8))
def test_octant_layout_shared_by_tconv_and_pooling(i):
    # octant i = dz*4 + dy*2 + dx is offset (dz, dy, dx) of every 2x2x2 block:
    # a one-hot tconv kernel at that tap paints it, argmax code i names it in
    # pooling, and the pooled gradient is routed back to it
    dz, dy, dx = i >> 2, (i >> 1) & 1, i & 1
    x = np.random.default_rng(i).standard_normal((1, 2, 2, 3, 2))
    assert np.shares_memory(L._octant(x, i), x)
    big = np.zeros((1, 2, 4, 6, 4))
    assert np.array_equal(L._octant(big, i), big[:, :, dz::2, dy::2, dx::2])

    w = np.zeros((2, 2, 2, 2, 2))
    w[[0, 1], [0, 1], dz, dy, dx] = 1.0
    out = L.transposed_conv3d_forward(x, w, np.zeros(2))
    assert np.array_equal(out[:, :, dz::2, dy::2, dx::2], x)
    out[:, :, dz::2, dy::2, dx::2] = 0
    assert not out.any()

    pool_in = np.zeros((1, 2, 4, 6, 4))
    pool_in[:, :, dz::2, dy::2, dx::2] = 1.0
    _, am = L.maxpool3d_forward(pool_in)
    assert np.all(am == i)
    gx = L.maxpool3d_backward(am, x)
    assert np.array_equal(gx[:, :, dz::2, dy::2, dx::2], x)
    gx[:, :, dz::2, dy::2, dx::2] = 0
    assert not gx.any()


def test_tconv_is_adjoint_of_strided_conv():
    # <tconv(x), y> == <x, conv-stride-2(y)> for zero bias
    x = rng.standard_normal((1, 2, 3, 3, 3))
    w = rng.standard_normal((2, 4, 2, 2, 2))
    y = rng.standard_normal((1, 4, 6, 6, 6))
    lhs = float((L.transposed_conv3d_forward(x, w, np.zeros(4)) * y).sum())
    gx, _, _ = L.transposed_conv3d_backward(x, w, y)  # adjoint applied to y
    rhs = float((x * gx).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --- relu / softmax ----------------------------------------------------------


def test_relu_and_subgradient_at_zero():
    x = np.array([[-1.0, 0.0, 2.0]])
    assert np.array_equal(L.relu_forward(x), [[0.0, 0.0, 2.0]])
    g = np.ones_like(x)
    assert np.array_equal(L.relu_backward(x, g), [[0.0, 0.0, 1.0]])


def test_softmax_uniform_logits():
    x = np.zeros((1, 3, 2, 2, 2))
    p = L.channel_softmax(x)
    assert np.allclose(p, 1.0 / 3.0)


def test_softmax_shift_invariance():
    x = rng.standard_normal((1, 3, 2, 2, 2))
    shifted = x + rng.standard_normal((1, 1, 2, 2, 2))
    assert np.allclose(L.channel_softmax(x), L.channel_softmax(shifted), atol=1e-12)


def test_softmax_extreme_logits_no_overflow():
    x = np.array([1000.0, 0.0, -1000.0]).reshape(1, 3, 1, 1, 1)
    p = L.channel_softmax(x)
    assert np.isfinite(p).all()
    assert np.allclose(p.reshape(-1), [1.0, 0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), channels=st.integers(2, 5))
def test_softmax_sums_to_one(seed, channels):
    r = np.random.default_rng(seed)
    x64 = 10 * r.standard_normal((1, channels, 3, 3, 3))
    p = L.channel_softmax(x64)
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12
    assert p.min() >= 0 and p.max() <= 1
    p32 = L.channel_softmax(x64.astype(np.float32))
    assert np.abs(p32.sum(axis=1) - 1.0).max() < 1e-6


# --- instance norm (optional flag) -------------------------------------------


def test_instance_norm_standardizes():
    x = 3.0 + 2.0 * rng.standard_normal((2, 3, 4, 4, 4))
    y, _ = L.instance_norm_forward(x)
    assert np.allclose(y.mean(axis=(2, 3, 4)), 0, atol=1e-12)
    assert np.allclose(y.std(axis=(2, 3, 4)), 1, atol=1e-3)


def test_instance_norm_backward_finite_differences():
    x = rng.standard_normal((1, 2, 3, 3, 3))
    proj = rng.standard_normal((1, 2, 3, 3, 3))

    def loss():
        y, _ = L.instance_norm_forward(x)
        return float((y * proj).sum())

    _, cache = L.instance_norm_forward(x)
    gx = L.instance_norm_backward(cache, proj)
    rep = gradient_check(loss, {"x": x}, {"x": gx}, rng=np.random.default_rng(4))
    assert rep.passed, rep.summary()


# --- crop --------------------------------------------------------------------


def test_crop_center():
    x = rng.standard_normal((1, 2, 8, 8, 8))
    c = L.crop_center3d(x, (4, 4, 4))
    assert np.array_equal(c, x[:, :, 2:6, 2:6, 2:6])
    assert np.shares_memory(c, x)  # skip gradients are added through it
    with pytest.raises(L.ContractError):
        L.crop_center3d(x, (3, 4, 4))  # odd offset
