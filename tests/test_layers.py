import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clseg import layers as L

from brute_force import (conv3d_backward_loops, conv3d_loops, maxpool3d_backward_loops,
                         maxpool3d_blocks, maxpool3d_loops, transposed_conv3d_backward_loops,
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


@pytest.mark.parametrize("budget", [None, 1, 5000, 6000],
                         ids=["default", "one-plane", "two-plane", "three-plane"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_conv_forward_and_backward_match_loop_oracles(monkeypatch, k, budget):
    # flat offsets depend on W and H*W separately and on slab edges: batch
    # of 2, non-cubic input, and budgets giving 1, 2 or 3 input planes per
    # slab at k=3 (1, 2 or 2 in the grad_x pass, with a short last slab: 7
    # input planes, 9 in the grad_x pass) as well as the default; at k=2
    # they give 1, 6 (4 in the grad_x pass) or 7 (5) planes. At k > 1 the
    # taps go to a ring of P + k - 1 planes, whose runs then wrap at
    # different offsets
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


def test_conv_float32_paper_enc1b_bytes_do_not_depend_on_the_slabs(monkeypatch):
    # paper enc1b: slabs of 3 input planes in the forward and 2 in the
    # grad_x pass, where ring runs wrap, against one slab of every plane.
    # These GEMMs are too large for OpenBLAS's small-matrix kernel, whose
    # bits depend on the column count, so how the columns are split changes
    # no byte
    Ci, Co, k, s = 16, 32, 3, 66
    r = np.random.default_rng(4)
    x = r.standard_normal((1, Ci, s, s, s), dtype=np.float32)
    w = (r.standard_normal((Co, Ci, k, k, k)) * 0.05).astype(np.float32)
    b = r.standard_normal(Co).astype(np.float32)
    g = r.standard_normal((1, Co, s - 2, s - 2, s - 2), dtype=np.float32)
    extra = Ci + Co  # the grad_x pass's partial sums and padded planes
    assert (L._slab_planes(Ci, Co, k, s, s, s), L._slab_planes(Co, Ci, k, s, s, s + 2, extra)) \
        == (3, 2)
    want = [L.conv3d_forward(x, w, b), L.conv3d_backward(x, w, g)[0]]
    monkeypatch.setattr(L, "SLAB_BUDGET_ELEMS", 2 ** 27)
    assert L._slab_planes(Ci, Co, k, s, s, s) == s
    assert L._slab_planes(Co, Ci, k, s, s, s + 2, extra) == s + 2
    assert L.conv3d_forward(x, w, b).tobytes() == want[0].tobytes()
    assert L.conv3d_backward(x, w, g)[0].tobytes() == want[1].tobytes()


def test_conv_float32_bytes_do_not_depend_on_the_split_of_the_input(monkeypatch):
    # 24 x 72 kernel rows over 90-column planes: products of fewer than
    # 1e6 multiply-adds, which OpenBLAS's small-matrix kernel takes and
    # whose last few columns it rounds differently from the rest. Every
    # product spans whole planes, so those are discarded columns however
    # the input is split: into slabs of 1, 2 or 3 planes, or into calls
    # that a ConvCarry links, which keeps no pending sums once its input's
    # last plane is in
    Ci, Co, k = 8, 8, 3
    r = np.random.default_rng(12)
    x = r.standard_normal((1, Ci, 12, 9, 10), dtype=np.float32)
    w = (r.standard_normal((Co, Ci, k, k, k)) * 0.1).astype(np.float32)
    b = r.standard_normal(Co).astype(np.float32)
    want = L.conv3d_forward(x, w, b).tobytes()
    for planes, budget in ((1, 12960), (2, 21600), (3, 30240)):
        monkeypatch.setattr(L, "SLAB_BUDGET_ELEMS", budget)
        assert L._slab_planes(Ci, Co, k, 9, 10, 12) == planes
        assert L.conv3d_forward(x, w, b).tobytes() == want, planes
    monkeypatch.undo()
    # and at k=2, also on planes 5 columns wide, whose 6 discarded columns
    # at a plane's end conv3d_forward lengthens with a zero row
    for x, w in ((x, w), (x, w[..., :2, :2, :2]), (x[..., :5], w[..., :2, :2, :2])):
        k = w.shape[2]
        want = L.conv3d_forward(x, w, b).tobytes()
        for pieces in ((1,) * 12, (2, 5, 5), (3, 3, 3, 3), (4, 1, 7), (12,)):
            carry, outs, z = L.ConvCarry(x.shape[2]), [], 0
            for n in pieces:
                outs.append(L.conv3d_forward(x[:, :, z:z + n], w, b, carry=carry))
                z += n
            assert carry.sums is None
            ends = np.cumsum(pieces)
            assert ([o.shape[2] for o in outs]
                    == list(np.diff(np.maximum(0, ends - (k - 1)), prepend=0)))
            assert np.concatenate(outs, axis=2).tobytes() == want, (x.shape, pieces)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("P", [1, 2])
def test_conv_carried_calls_in_small_slabs_give_the_one_pass_bytes(k, P):
    # a carry whose budget makes slabs of P planes, on a batch of 2: a
    # pending plane's sum is the first operand of taps from one or more
    # slabs of a call (at k=3 and P=1, its last tap comes in the call's
    # second slab), or it stays pending through a call of one plane and
    # takes that plane's tap in place
    Ci, Co, D, H, W = 8, 8, 11, 9, 10
    r = np.random.default_rng(30 + 2 * k + P)
    x = r.standard_normal((2, Ci, D, H, W), dtype=np.float32)
    w = (r.standard_normal((Co, Ci, k, k, k)) * 0.1).astype(np.float32)
    b = r.standard_normal(Co).astype(np.float32)
    want = L.conv3d_forward(x, w, b).tobytes()
    budget = (P * (Ci * k * k + k * Co) + k * Co * (k - 1)) * H * W
    assert L._slab_planes(Ci, Co, k, H, W, D, budget=budget) == P
    for pieces in ((1, 4, 1, 5), (2, 1, 3, 5), (3, 3, 3, 2), (1,) * D):
        carry, outs, z = L.ConvCarry(D, budget), [], 0
        for n in pieces:
            outs.append(L.conv3d_forward(x[:, :, z:z + n], w, b, carry=carry))
            z += n
        assert np.concatenate(outs, axis=2).tobytes() == want, pieces


def test_conv_carry_holds_nothing_once_its_last_plane_is_in():
    # between calls a carry holds its packed weight, made once, and per item
    # the k-1 pending sums, whose buffers the next call reuses; after the
    # input's last plane it holds neither, and a conv called once on its
    # whole input keeps nothing: a call without a carry is that call
    Ci, Co, k = 4, 6, 3
    r = np.random.default_rng(41)
    x = r.standard_normal((2, Ci, 7, 9, 10), dtype=np.float32)
    w = r.standard_normal((Co, Ci, k, k, k)).astype(np.float32)
    b = r.standard_normal(Co).astype(np.float32)
    carry = L.ConvCarry(7)
    L.conv3d_forward(x[:, :, :3], w, b, carry=carry)
    packed = carry.weight
    assert packed.tobytes() == w.transpose(2, 0, 1, 3, 4).tobytes()
    assert packed.shape == (k * Co, Ci * k * k)
    assert [len(s) for s in carry.sums] == [k - 1] * 2
    buffers = {id(s) for sums in carry.sums for s in sums}
    L.conv3d_forward(x[:, :, 3:5], w, b, carry=carry)
    assert carry.weight is packed
    assert {id(s) for sums in carry.sums for s in sums} == buffers
    L.conv3d_forward(x[:, :, 5:], w, b, carry=carry)
    assert carry.planes == 7 and carry.sums is None and carry.weight is None
    with pytest.raises(L.ContractError, match="past a carry"):
        L.conv3d_forward(x[:, :, :1], w, b, carry=carry)
    for kk in (1, 2, 3):
        for bias in (b, None):
            once = L.ConvCarry(7)
            got = L.conv3d_forward(x, w[..., :kk, :kk, :kk], bias, carry=once)
            assert got.tobytes() == L.conv3d_forward(x, w[..., :kk, :kk, :kk], bias).tobytes()
            assert once.planes == 7 and once.sums is None and once.weight is None
    # a carry's depth is the whole input's, which no conv may have below k
    with pytest.raises(L.ContractError, match="smaller than kernel"):
        L.conv3d_forward(x[:, :, :1], w, b, carry=L.ConvCarry(2))
    with pytest.raises(TypeError):
        L.ConvCarry()


def test_conv_backward_memory_within_one_slab():
    # paper-width enc1b backward: besides its outputs, only one slab's
    # unrolled input plus the ring of tap outputs, or in the grad_x pass
    # that plus its partial sums and its planes of the padded gradient, are
    # alive at any time: the slab budget, and the plane the padded slab's
    # last row reads into. With `out`, grad_x goes into the caller's array
    Ci, Co, k, s = 16, 32, 3, 66
    r = np.random.default_rng(3)
    x = r.standard_normal((1, Ci, s, s, s), dtype=np.float32)
    w = r.standard_normal((Co, Ci, k, k, k), dtype=np.float32)
    g = r.standard_normal((1, Co, s - 2, s - 2, s - 2), dtype=np.float32)
    want = L.conv3d_backward(x, w, g)
    tracemalloc.start()
    try:
        gx, gw, gb = L.conv3d_backward(x, w, g, out=x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gx is x and gx.tobytes() == want[0].tobytes()
    assert peak - gw.nbytes - gb.nbytes <= (L.SLAB_BUDGET_ELEMS + Co * s * s) * 4


def test_conv_backward_takes_the_gradient_by_slabs(monkeypatch):
    # grad_out as a function of (item, planes): each pass asks for every
    # plane once, in depth order, and the bytes of grad_x and grad_w are
    # those of the whole array; grad_b is summed per slab in float64. The
    # budgets give one slab of every plane, slabs of 3 planes (2 in the
    # grad_x pass) and of 1
    r = np.random.default_rng(5)
    x = r.standard_normal((2, 3, 9, 8, 7), dtype=np.float32)
    w = r.standard_normal((4, 3, 3, 3, 3), dtype=np.float32)
    g = r.standard_normal((2, 4, 7, 6, 5), dtype=np.float32)
    for budget in (L.SLAB_BUDGET_ELEMS, 8000, 60):
        monkeypatch.setattr(L, "SLAB_BUDGET_ELEMS", budget)
        asked = []

        def planes(b, z0, z1):
            asked.append((b, z0, z1))
            return g[b, :, z0:z1].copy()

        want = L.conv3d_backward(x, w, g)
        out = np.empty_like(x)
        got = L.conv3d_backward(x, w, planes, out=out)
        assert got[0] is out
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        assert np.abs(got[2] - want[2]).max() <= 1e-6 * np.abs(g).sum(axis=(0, 2, 3, 4)).max()
        for b in range(2):  # the grad_w pass, then the grad_x pass, each in order
            runs = [(z0, z1) for i, z0, z1 in asked if i == b]
            split = [z1 for _, z1 in runs].index(7) + 1
            for part in (runs[:split], runs[split:]):
                assert [z0 for z0, _ in part] == [0] + [z1 for _, z1 in part[:-1]], budget
                assert part[-1][1] == 7
    with pytest.raises(L.ContractError, match="grad_out have shape"):
        L.conv3d_backward(x, w, lambda b, z0, z1: g[b, 1:, z0:z1])
    with pytest.raises(L.ContractError, match="out shape"):
        L.conv3d_backward(x, w, g, out=x[:, :, 1:])


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


def test_maxpool_matches_block_oracle(monkeypatch):
    x = rng.standard_normal((2, 3, 6, 6, 6))
    out, _ = L.maxpool3d_forward(x)
    assert np.array_equal(out, maxpool3d_blocks(x))
    # ties from a 5-level grid, +-0 and NaN against the block loop in octant
    # order, whose argmax keeps the lowest octant of a tie and never names an
    # octant after a NaN; channel 0 of item 0 is all tied. The channels run
    # in one group, then in groups of two and one (192 elements each)
    r = np.random.default_rng(13)
    for dtype in (np.float32, np.float64):
        x = r.integers(-2, 3, (2, 3, 6, 4, 8)).astype(dtype)
        zero = x == 0
        x[zero] = np.where(r.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        x[r.random(x.shape) < 0.05] = np.nan
        x[0, 0] = 1.0
        want_out, want_am = maxpool3d_loops(x)
        assert not want_am[0, 0].any() and np.isnan(want_out).any()
        for group in (L.POOL_GROUP_ELEMS, 400):
            monkeypatch.setattr(L, "POOL_GROUP_ELEMS", group)
            out, am = L.maxpool3d_forward(x)
            assert out.tobytes() == want_out.tobytes()
            assert am.tobytes() == want_am.tobytes()


def test_maxpool_backward_matches_loop_oracle_with_ties_and_signed_zeros():
    # values from a 5-level grid give ties inside most blocks, and the zero
    # level is drawn as +0 or -0; channel 0 of item 0 is all tied. The
    # gradient holds NaN, +-inf and +-0, and is checked contiguous and as a
    # strided view
    r = np.random.default_rng(11)
    x = r.integers(-2, 3, (2, 3, 4, 6, 2)).astype(np.float32)
    x[x == 0] = np.where(r.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
    x[0, 0] = 1.0
    g = r.standard_normal((2, 3, 2, 3, 1)).astype(np.float32)
    g.flat[:6] = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]
    _, am = L.maxpool3d_forward(x)
    assert not am[0, 0].any()
    want = maxpool3d_backward_loops(x, g)
    strided = np.repeat(g, 2, axis=-1)[..., ::2]
    for grad in (g, strided):
        got = L.maxpool3d_backward(am, grad)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_maxpool_backward_planes_are_slices_of_the_whole():
    # any range of input planes, odd edges that split pooling pairs and
    # empty ranges included, is that slice of the whole routing
    r = np.random.default_rng(8)
    x = r.standard_normal((2, 3, 10, 6, 4), dtype=np.float32)
    _, am = L.maxpool3d_forward(x)
    g = r.standard_normal(am.shape, dtype=np.float32)
    whole = L.maxpool3d_backward(am, g)
    for z0, z1 in ((0, 10), (1, 10), (3, 4), (4, 5), (3, 8), (9, 10), (5, 5), (0, 1)):
        got = L._maxpool_grad_planes(am, g, z0, z1)
        assert got.tobytes() == whole[:, :, z0:z1].tobytes(), (z0, z1)
    for z0, z1 in ((-1, 2), (3, 11), (4, 3)):
        with pytest.raises(L.ContractError, match="outside"):
            L._maxpool_grad_planes(am, g, z0, z1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 3, 8, 6, 10), (1, 2, 4, 8, 256)],
                         ids=["short-rows", "long-rows"])
def test_maxpool_without_argmax_is_the_same_max(dtype, shape):
    # ties (a 5-level grid with +-0), NaN of both signs and every payload,
    # +-inf and random bit patterns, in short rows and in rows long enough
    # for vector loops: the max-only path returns the bytes of the first
    # output of the argmax path
    r = np.random.default_rng(12)
    x = r.integers(-2, 3, shape).astype(dtype)
    x[x == 0] = np.where(r.random(int((x == 0).sum())) < 0.5, -0.0, 0.0)
    special = r.random(x.shape) < 0.3
    x[special] = _special_values(r, int(special.sum()), dtype)
    want, _ = L.maxpool3d_forward(x)
    got, am = L.maxpool3d_forward(x, want_argmax=False)
    assert am is None
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
    assert np.array_equal(L.relu_backward(L.relu_mask(x), g), [[0.0, 0.0, 1.0]])


def _special_values(r, n, dtype):
    """n values of dtype: random bit patterns (every NaN payload, subnormals,
    both infinities and zeros can occur) with the specials planted too."""
    u = np.dtype(f"u{np.dtype(dtype).itemsize}")
    v = r.integers(0, np.iinfo(u).max, n, dtype=u, endpoint=True).view(dtype)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0], dtype)
    v[:min(n, 8)] = specials[:n]
    return v


# each n as a shape: rows of 3973, 25, 5, 15, 8 and 43 elements, of which
# all but 8 leave pad bits in the last byte of each packed row
_RELU_SHAPES = {5: (5,), 2 * L.MASK_CHUNK_ELEMS + 37: (3, 11, 3973), 300: (2, 3, 2, 25),
                15: (15,), 64: (8, 8), 301: (7, 43)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, chunk", [(5, None), (2 * L.MASK_CHUNK_ELEMS + 37, None),
                                      (300, 7), (15, 7), (64, 64), (301, 24)])
def test_relu_backward_is_the_select_bit_for_bit(monkeypatch, dtype, n, chunk):
    # chunks of whole rows: one row where a row is wider than the chunk
    # (chunk 7 or 24), 8 rows in one chunk (64), and 16-row chunks with a
    # last one of a single row (the default chunk)
    if chunk is not None:
        monkeypatch.setattr(L, "MASK_CHUNK_ELEMS", chunk)
    shape = _RELU_SHAPES[n]
    r = np.random.default_rng(n)
    x = _special_values(r, n, dtype)
    g = _special_values(r, n, dtype).reshape(shape)
    r.shuffle(x)
    x = x.reshape(shape)
    want = np.where(x > 0, g, 0)
    mask = L.relu_mask(x)  # np.packbits per row, its pad bits 0
    assert mask.dtype == np.uint8
    assert mask.tobytes() == np.packbits(x > 0, axis=-1).tobytes()
    assert mask.shape == shape[:-1] + (-(-shape[-1] // 8),)
    got = L.relu_backward(mask, g)
    assert got is g  # the caller's gradient, overwritten
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the ReLU output is positive exactly where its input is, so its mask
    # masks the same entries
    g2 = _special_values(np.random.default_rng(n), n, dtype).reshape(shape)
    want2 = np.where(x > 0, g2, 0)
    assert L.relu_backward(L.relu_mask(L.relu_forward(x)), g2).tobytes() == want2.tobytes()
    if len(shape) > 2:
        # a depth slice of a packed mask, a strided view, masks that slice
        # of planes
        g3 = np.ascontiguousarray(g2[:, 1:])
        want3 = np.where(x[:, 1:] > 0, g3, 0)
        assert not mask[:, 1:].flags.c_contiguous
        assert L.relu_backward(mask[:, 1:], g3).tobytes() == want3.tobytes()


def test_relu_backward_rejects_strided_and_mismatched_arrays():
    x = np.ones((4, 6), np.float32)
    with pytest.raises(L.ContractError):  # the gradient is masked in place
        L.relu_backward(L.relu_mask(x[:, ::2]), np.ones((4, 6), np.float32)[:, ::2])
    with pytest.raises(L.ContractError):
        L.relu_backward(L.relu_mask(x[:, :3]), np.ones((4, 6), np.float32)[:, :3])
    with pytest.raises(L.ContractError):
        L.relu_backward(L.relu_mask(x), np.ones((6, 4), np.float32))
    with pytest.raises(L.ContractError, match="float32 mask"):  # an activation, not its mask
        L.relu_backward(x, np.ones((4, 6), np.float32))
    with pytest.raises(L.ContractError):  # packed whole, not per row
        L.relu_backward(np.packbits(np.ones(24, bool)), np.ones((4, 6), np.float32))
    with pytest.raises(L.ContractError):  # rows of 8 elements, not 6
        L.relu_backward(np.packbits(np.ones((4, 8), bool), axis=-1)[:, :1].T,
                        np.ones((4, 6), np.float32))


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


# --- crop --------------------------------------------------------------------


def test_crop_center():
    x = rng.standard_normal((1, 2, 8, 8, 8))
    c = L.crop_center3d(x, (4, 4, 4))
    assert np.array_equal(c, x[:, :, 2:6, 2:6, 2:6])
    assert np.shares_memory(c, x)  # skip gradients are added through it
    with pytest.raises(L.ContractError):
        L.crop_center3d(x, (3, 4, 4))  # odd offset
