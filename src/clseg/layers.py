"""Differentiable layer set for the volumetric segmentation network.

All layers are pure functions over numpy arrays in (batch, channel, depth,
height, width) layout, with analytic backward passes derived by hand.
Convolutions are valid (no padding). Forward and backward are dtype
preserving, so the whole stack runs in float32 for training and float64
for gradient checking.

Convolution uses a flat-offset unrolling. Within one batch item's
contiguous (C, D, H, W) input, output column j = z*H*W + y*W + x runs over
the full (H, W) grid, and tap (dz, dy, dx) of column j reads flat input
j + dz*H*W + dy*W + dx. Only the k*k in-plane shifts are unrolled: input
plane q becomes C*k*k rows of H*W columns, row (c, dy, dx) reading channel
c from flat offset q*H*W + dy*W + dx on. Columns with y >= H-k+1 or
x >= W-k+1 wrap into the next row or plane and are discarded: the forward
crops the full-grid output to its valid corner, and the weight gradient
places grad_out on a zeroed full grid.

Work goes in depth slabs of P input planes, and each input plane is
unrolled once per pass. One GEMM per slab applies all k depth taps'
kernels at once, (k*Co, C*k*k) @ the unrolled slab, so the unrolled data
is read once. Tap dz of input plane q belongs to output plane q - dz; the
k tap outputs of plane q go to slot q mod R of a ring of R = P + k - 1
full-grid planes, enough to hold every tap that an output plane still
lacks. After each slab, output plane z is complete once plane z + k - 1
is in, and it sums tap dz of slot (z + dz) mod R in tap order,
((t0 + t1) + t2) + bias, on its valid corner. The up to P planes a slab
completes read, per tap, that many consecutive slots; they wrap past slot
R-1 at most once, so the planes split into at most k + 1 ranges with
contiguous slots for every tap. P is the largest count whose unrolled slab
plus tap ring, (C*k*k*P + k*Co*R)*H*W elements, fits SLAB_BUDGET_ELEMS, or
one plane if that is larger. The budget, 16 MiB in float32, sits under
glibc's 32 MiB mmap ceiling: freed buffers go back to the heap and the
next call reuses their pages, where larger ones would be mmap'd and
page-faulted afresh. The weight gradient unrolls each slab of the input
once the same way and contracts it, per tap, with grad_out laid
channel-last on a zeroed full grid in a ring of R planes, (C*k*k, Co) per
tap and run of slots, transposed once at the end; its sum over columns
splits where a slab or a run ends. The input gradient reuses the forward
path as a full correlation of the gradient with the flipped kernel: the
gradient is laid on the input's (H, W) grid after a front pad of
(k-1)*(H*W+W+1) zeros, where wrapped taps read zeros, so every full-grid
output column is an input gradient. That padded gradient is never built
whole: each slab of it is written into one reused (Co, P + 1, H, W)
buffer and unrolled from there; that pass's budget counts the buffer
too. Its output columns are all kept, so where
OpenBLAS's small-matrix kernel takes its products (under 1e6
multiply-adds), their bytes depend on the slab size; the budget cuts a
slab short only where the products are far larger.

Every forward pass runs on a ConvCarry, which links the conv3d_forward
calls that feed a conv its input in depth; a call on a whole input is
the one call of a fresh carry. The carry packs the weight as the GEMM
reads it, (k*Co, C*k*k), at its first call, and keeps the partial sums
of the k-1 output planes that the planes so far leave pending, on their
(oH, oW) corners: plane z in slot z mod (k-1) of one array, made at the
first call that leaves a plane pending. A later call reads such a sum in
place as the first term of the plane's remaining taps, so the sums run in
the order of one call, and writes the sums that it leaves pending into
the slots of those it completed. The carry drops its weight and sums at
its input's last plane.

conv3d_backward reads grad_out only a slab of planes at a time, so it
also takes a function that returns those planes, and a gradient that is
never whole costs one slab per pass: the network builds enc1b's output
gradient, and the octants of a decoder gradient, that way. Its input
gradient can go into a given buffer, x's own included: x is read only by
the weight gradient, which comes first.

The stride-2 layers see an even-sized volume as 8 octants: octant i =
dz*4 + dy*2 + dx is the strided view x[..., dz::2, dy::2, dx::2]
(`_octant`), the voxels at offset (dz, dy, dx) of every 2x2x2 block.
Pooling's argmax stores the winning octant index, and its backward routes
each gradient to that view, for any range of input planes
(`_maxpool_grad_planes`): each plane parity is written by the four
octants that hold it. The network's decoder reads octants too: it
never runs a 2x2x2 transposed convolution, but folds each into the conv
that reads it, and the resulting conv of the low-resolution input writes
one channel group per octant of the decoder's output (see unet). The
transposed convolution here, whose tap i paints octant i, is the
reference that decoder is tested against. A center crop is a view too;
the network adds each skip gradient into the cropped view of the pooled
gradient in place.

The ReLU and pooling gradients are masks, and both are applied bitwise: a
0/1 comparison result is negated into a 0/all-ones word of the gradient's
width and ANDed with the gradient's bits. A masked select (np.where, or
np.copyto with where=) branches per element, and on the random sign and
argmax patterns of real activations most of those branches mispredict;
the AND has no branch, and unlike multiplying by a 0/1 mask it keeps the
result bit-identical to the select, signed zeros and NaN included. The
ReLU mask has one form, bit-packed per row (relu_mask), so that a depth
slice of it masks a slab of planes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Upper bound on a conv pass's unrolled slab of input planes plus its ring
# of full-grid tap outputs, in elements (16 MiB in float32, under glibc's
# 32 MiB mmap ceiling).
SLAB_BUDGET_ELEMS = 4 * 1024 * 1024
# Input elements per channel group of max pooling (1 MiB in float32), so the
# group's pooled arrays stay in cache through the octant rounds.
POOL_GROUP_ELEMS = 256 * 1024
# Elements per chunk of the ReLU gradient mask (256 KiB in float32), so the
# chunk stays in cache across the mask's three passes.
MASK_CHUNK_ELEMS = 64 * 1024
# Trailing columns of a float32 product that OpenBLAS's small-matrix kernel
# may round differently from the rest: the last n % 16 of n columns, when
# that is 1 to 8 (measured on AVX-512; 16 columns fill one register).
PRODUCT_TAIL = 8


class ContractError(ValueError):
    """A layer precondition (shape, channel count, parity) is violated."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf crossed a checked boundary."""


# ---------------------------------------------------------------------------
# Valid 3-D convolution
# ---------------------------------------------------------------------------


def _slab_planes(Ci, Co, k, H, W, D, extra=0, budget=None):
    """Input planes P per slab: P unrolled planes of a (Ci, D, H, W) input
    plus a ring of R = P + k - 1 planes of the k taps' full-grid outputs,
    the planes from the oldest output plane a slab completes to the
    slab's last, and `extra` more elements per plane of the slab, fit
    `budget` elements (SLAB_BUDGET_ELEMS if None), or P is one plane if
    that is larger."""
    budget = SLAB_BUDGET_ELEMS if budget is None else budget
    room = budget // (H * W) - k * Co * (k - 1)
    return max(1, min(D, room // (Ci * k * k + k * Co + extra)))


def _runs(c, n, N):
    """(offset, start, count) runs of n consecutive ring positions from
    position c on, in a ring of N: one run, or two where they pass the
    ring's end."""
    m = min(n, N - c)
    return ((0, c, m),) if m == n else ((0, c, m), (m, 0, n - m))


def _unroll(U, x, m, k):
    """Unrolls planes 0..m-1 of one (C, D, H, W) item x in-plane into the
    (C*k*k, P*H*W) buffer U: U[(c, dy, dx), j*H*W + i] =
    x[c, j].flat[i + dy*W + dx], where reads past a plane's end run on into
    the next plane. x's planes must be C-contiguous (its channel stride is
    free, so x may be a depth slice of a larger item). When x has no plane
    m, the last (k-1)*(W+1) columns of plane m-1, which would read it, are
    zeroed: a cropped output reads none of them. Returns the number of
    columns, m*H*W: every product then spans whole planes, so its last
    PRODUCT_TAIL columns, which OpenBLAS's small-matrix kernel may round
    differently from the rest, fall on discarded columns whatever the depth
    of x, as long as (k-1)*(W+1) >= PRODUCT_TAIL; conv3d_forward adds zero
    rows to planes too narrow for that."""
    C, D, H, W = x.shape
    n = min(m * H * W, D * H * W - (k - 1) * (W + 1))
    s = x.itemsize
    flat = x.reshape(C, -1)
    cols = U.reshape(C, k, k, -1)
    np.copyto(cols[..., :n],
              as_strided(flat, (C, k, k, n), (flat.strides[0], W * s, s, s), writeable=False))
    cols[..., n:m * H * W] = 0
    return m * H * W


class ConvCarry:
    """What a conv keeps between the conv3d_forward calls that feed it its
    input of `depth` planes: how many planes it has had, its weight packed
    for the calls' GEMMs (made at the first call, so every call must pass
    the same weight), and the partial sums of the k-1 output planes those
    planes leave pending, as one (B, k-1, Co, 1, oH, oW) array that holds
    plane z in slot z % (k-1), or None. It drops the packed
    weight and the sums once the last plane is in, so a conv called once
    on its whole input keeps nothing. Its calls size their slabs to
    `budget` elements (SLAB_BUDGET_ELEMS if None), which changes no byte
    of the output."""

    def __init__(self, depth: int, budget: int | None = None):
        self.planes, self.depth, self.budget = 0, depth, budget
        self.weight = self.sums = None

    def outputs(self, n: int, k: int) -> tuple[int, int]:
        """The output planes (z0, z1) that n more input planes complete in
        a conv of kernel side k."""
        return max(0, self.planes - k + 1), max(0, self.planes + n - k + 1)


def _conv_slabs(planes, D, grid, weight, out, carry, bias=None, P=None):
    """out[b,o,z,y,x] = sum_{i,dz,dy,dx} x[b,i,z+dz,y+dy,x+dx] * w[o,i,dz,dy,dx]
    (+ bias[o])

    for the D planes x that follow the ConvCarry `carry`'s planes of an
    input on the (H, W) = grid, read in slabs of P input planes (from
    _slab_planes and the carry's budget unless given): planes(b, q0, q1)
    returns x[b, :, q0:] with C-contiguous planes, or at least planes
    q0..q1-1 of it. Each slab is unrolled once, and one GEMM per run of
    ring slots applies all k depth taps' kernels to it, (k*Co, Ci*k*k) @ U,
    writing input plane q's k tap outputs into slot q % R of a ring of
    R = P + k - 1 planes: the planes from the oldest output plane that a
    slab completes to the slab's last. Output plane z sums tap dz of slot
    (z + dz) % R in tap order, then the bias is added, on the (oH, oW)
    corner. A slab completes up to P output planes, whose taps each read
    that many consecutive slots; P <= R, so each tap's slots pass the
    ring's end at most once, and the completed planes split into at most
    k + 1 ranges over which every tap's slots are contiguous.

    Plane q of x is input plane carry.planes + q, out holds the output
    planes from the first one x completes, and the GEMMs read the carry's
    weight, packed at its first call. One routine, `add`, sums a plane's
    terms in order straight into its corner, as one np.add of the first
    two (a copy of one), then += of the rest. It serves the planes a slab
    completes, whose terms are their taps, then the bias; a pending plane
    that x completes, whose first term is its partial sum in carry.sums
    (its taps so far, in tap order), so the sums run in the one order; and,
    unless x ends the input, the planes still pending, each summed into
    its slot of carry.sums, in place where x continues it. Every product
    spans whole planes (see _unroll), so the split of the input into slabs
    or calls does not change a bit of the output. At k = 1 no column is
    discarded, and that holds where a plane has a multiple of 16 columns,
    as the network's heads have (every output side is a multiple of 4).
    """
    H, W = grid
    HW = H * W
    Co, Ci, k, _, _ = weight.shape
    B, _, _, oH, oW = out.shape
    Q, end = carry.planes, carry.planes + D  # input planes before and after x
    base = max(0, Q - k + 1)  # out's first plane
    done = end == carry.depth
    w, sums = carry.weight, carry.sums
    if w is None:
        w = np.ascontiguousarray(weight.transpose(2, 0, 1, 3, 4)).reshape(k * Co, -1)
    if sums is None and not done and k > 1:
        sums = np.empty((B, k - 1, Co, 1, oH, oW), dtype=out.dtype)
    P = _slab_planes(Ci, Co, k, H, W, D, budget=carry.budget) if P is None else max(1, min(D, P))
    R = P + k - 1
    # the unrolled slab and the tap ring in one block: as separate arrays,
    # the desk step page-faulted ~3,200 times (12 MiB) afresh in its first
    # two convs, against none as one
    work = np.empty((Ci * k * k * P + k * Co * R) * HW, dtype=out.dtype)
    U = work[:Ci * k * k * P * HW].reshape(Ci * k * k, P * HW)
    taps = work[U.size:].reshape(k, Co, R * HW)

    def tap(z, dz, j=1):  # the corners of tap dz of output planes z..z+j-1
        c = (z + dz) % R * HW
        return taps[dz, :, c:c + j * HW].reshape(Co, j, H, W)[:, :, :oH, :oW]

    def add(res, terms):  # res = ((t0 + t1) + t2) + ..., the terms in order
        if len(terms) > 1:
            np.add(terms[0], terms[1], out=res)
        else:
            np.copyto(res, terms[0])
        for t in terms[2:]:
            res += t

    last = [] if bias is None else [bias]  # a completed plane's term after its taps

    for b in range(B):
        for q0 in range(Q, end, P):
            q1 = min(q0 + P, end)
            for o, c, m in _runs(q0 % R * HW, _unroll(U, planes(b, q0 - Q, q1 - Q), q1 - q0, k),
                                 R * HW):
                np.matmul(w, U[:, o:o + m], out=taps.reshape(k * Co, -1)[:, c:c + m])
            z0, z1 = max(0, q0 - k + 1), q1 - k + 1  # the output planes completed
            for z in range(z0, min(z1, Q)):  # a pending sum, then its taps from x
                add(out[b, :, z - base:z - base + 1],
                    [sums[b, z % (k - 1)]] + [tap(z, dz) for dz in range(Q - z, k)] + last)
            z0 = max(z0, Q)
            if z1 <= z0:
                continue
            ends = sorted({z1 - z0} | {j for j in (R - (z0 + dz) % R for dz in range(k))
                                       if 0 < j < z1 - z0})
            for j0, j1 in zip([0] + ends, ends):
                add(out[b, :, z0 - base + j0:z0 - base + j1],
                    [tap(z0 + j0, dz, j1 - j0) for dz in range(k)] + last)
        if done:
            continue
        for z in range(max(0, end - k + 1), end):  # the planes left pending
            s = sums[b, z % (k - 1)]
            add(s, [s] * (z < Q) + [tap(z, dz) for dz in range(max(0, Q - z), end - z)])
    carry.planes, carry.sums, carry.weight = end, None if done else sums, None if done else w
    return out


def conv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                   carry: ConvCarry | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Valid convolution of x, plus `bias` unless it is None, into `out`
    when given (any strides) or a new array. With a `carry`, x is the next
    planes of an input fed in depth: the output holds the planes they
    complete, and each input plane is multiplied once over all calls.
    Without one, x is the one call of a fresh ConvCarry(D)."""
    B, Ci, D, H, W = x.shape
    carry = ConvCarry(D) if carry is None else carry
    Co, wCi, k, kh, kw = weight.shape
    if wCi != Ci:
        raise ContractError(f"conv3d: input has {Ci} channels, kernel expects {wCi}")
    if not (k == kh == kw):
        raise ContractError(f"conv3d: kernel must be cubic, got {weight.shape[2:]}")
    if min(H, W, carry.depth) < k:
        raise ContractError(f"conv3d: spatial dims {(carry.depth, H, W)} smaller than kernel {k}")
    if bias is not None and bias.shape != (Co,):
        raise ContractError(f"conv3d: bias shape {bias.shape} != ({Co},)")
    if carry.planes + D > carry.depth:
        raise ContractError(f"conv3d: {D} planes past a carry that has had {carry.planes} "
                            f"of {carry.depth}")

    z0, z1 = carry.outputs(D, k)
    shape = (B, Co, z1 - z0, H - k + 1, W - k + 1)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape:
        raise ContractError(f"conv3d: out shape {out.shape} != {shape}")
    short = PRODUCT_TAIL - (k - 1) * (W + 1)  # see _unroll
    if k > 1 and short > 0:  # planes under 7 columns wide at k = 2: add zero rows
        x = np.pad(x, ((0, 0), (0, 0), (0, 0), (0, -(-short // W)), (0, 0)))
    s = x.itemsize
    if x.strides[2:] != (x.shape[3] * x.shape[4] * s, x.shape[4] * s, s):
        x = np.ascontiguousarray(x)  # _unroll needs C-contiguous planes only
    _conv_slabs(lambda b, q0, q1: x[b, :, q0:], D, x.shape[3:], weight, out, carry,
                None if bias is None else bias.reshape(-1, 1, 1, 1).astype(x.dtype))
    return out


def conv3d_backward(x: np.ndarray, weight: np.ndarray, grad_out, need_grad_x: bool = True,
                    out: np.ndarray | None = None):
    """(grad_x, grad_w, grad_b); grad_x is None when need_grad_x is False.

    grad_out is the (B, Co, oD, oH, oW) gradient of the output, or a
    function planes(b, z0, z1) that returns planes z0..z1-1 of item b's
    gradient as a (Co, z1 - z0, oH, oW) array. Each pass below asks for
    the planes of one slab at a time, in depth order, so a function's
    gradient is never whole: each plane is built once per pass, and grad_b
    is then summed per slab in float64 where a whole array is summed in
    one call. grad_x goes into `out` when given, which may be x itself: x
    is read only by the weight gradient, which is done before grad_x is
    written.
    """
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = weight.shape
    oD, oH, oW = D - k + 1, H - k + 1, W - k + 1
    if out is not None and out.shape != x.shape:
        raise ContractError(f"conv3d backward: out shape {out.shape} != x {x.shape}")
    if callable(grad_out):
        def planes(b, z0, z1):
            g = grad_out(b, z0, z1)
            if g.shape != (Co, z1 - z0, oH, oW):
                raise ContractError(f"conv3d backward: planes {z0}..{z1 - 1} of grad_out have "
                                    f"shape {g.shape} != {(Co, z1 - z0, oH, oW)}")
            return g
        dtype, grad_bias = x.dtype, np.zeros(Co)
    else:
        if grad_out.shape != (B, Co, oD, oH, oW):
            raise ContractError(
                f"conv3d backward: grad_out shape {grad_out.shape} != {(B, Co, oD, oH, oW)}")

        def planes(b, z0, z1):
            return grad_out[b, :, z0:z1]
        dtype, grad_bias = grad_out.dtype, grad_out.sum(axis=(0, 2, 3, 4))

    # weight gradient: each slab of the input is unrolled once as in the
    # forward, and tap dz contracts its planes q with grad_out planes q - dz
    # on the full (H, W) grid, per run of slots of a ring of R such planes
    # (plane z in slot z % R), zero outside the valid corner; only the corner
    # is ever written, so the zeros outlive every slab. The ring is channel-
    # last, (R, H, W, Co), filled by one transposing copy per run of slots,
    # so each tap's GEMM reads a contiguous (columns, Co) operand
    x = np.ascontiguousarray(x)
    HW = H * W
    tail = (k - 1) * (W + 1)  # the junk columns after a plane's last valid one
    grad_w = np.zeros((k, Ci * k * k, Co), dtype=weight.dtype)
    tap = np.empty_like(grad_w[0])
    P = _slab_planes(Ci, Co, k, H, W, D)
    R = P + k - 1
    U = np.empty((Ci * k * k, P * HW), dtype=x.dtype)
    g = np.zeros((R, H, W, Co), dtype=dtype)
    gT = g.reshape(-1, Co)
    for b in range(B):
        for q0 in range(0, D, P):
            q1 = min(q0 + P, D)
            _unroll(U, x[b, :, q0:], q1 - q0, k)
            if q0 < oD:
                new = planes(b, q0, min(q1, oD))
                if callable(grad_out):
                    grad_bias += new.sum(axis=(1, 2, 3), dtype=np.float64)
                for o, c, m in _runs(q0 % R, new.shape[1], R):
                    g[c:c + m, :oH, :oW] = new[:, o:o + m].transpose(1, 2, 3, 0)
                del new
            for dz in range(k):
                z0, z1 = max(0, q0 - dz), min(oD, q1 - dz)
                if z0 >= z1:
                    continue
                u0 = (z0 + dz - q0) * HW  # U's column of plane z0 + dz
                for o, c, m in _runs(z0 % R * HW, (z1 - z0) * HW - tail, R * HW):
                    np.matmul(U[:, u0 + o:u0 + o + m], gT[c:c + m], out=tap)
                    grad_w[dz] += tap
    del U, g, gT  # free them before the grad_x pass allocates its own
    grad_w = np.ascontiguousarray(
        grad_w.reshape(k, Ci, k, k, Co).transpose(4, 1, 0, 2, 3))
    grad_bias = grad_bias.astype(dtype, copy=False)
    if not need_grad_x:
        return None, grad_w, grad_bias

    # input gradient: full correlation of grad_out with the flipped kernel
    # over the padded gradient of the module docstring, grad_out laid from
    # plane, row and column k-1 of the input's grid. Each slab of it is
    # written into one reused buffer: plane j holds padded plane q0 + j. Its
    # first k-1 rows and columns stay zero, which is all that the last
    # plane's reads into the next one see. The budget of a slab counts its
    # planes of the buffer and those a function hands over
    p = k - 1
    extra = Co + (Co if callable(grad_out) else 0)
    Px = _slab_planes(Co, Ci, k, H, W, D + p, extra)
    buf = np.zeros((Co, Px + 1, H, W), dtype=dtype)
    inner = buf[:, :, p:, p:]

    def padded(b, q0, q1):
        lo = min(q1, max(q0, p)) - q0  # planes before grad_out's first
        hi = max(lo, min(q1, p + oD) - q0)
        inner[:, :lo] = 0
        if hi > lo:
            inner[:, lo:hi] = planes(b, q0 + lo - p, q0 + hi - p)
        inner[:, hi:q1 - q0] = 0
        return buf

    grad_x = np.empty_like(x) if out is None else out
    _conv_slabs(padded, D + p, (H, W), weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4),
                grad_x, ConvCarry(D + p), P=Px)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling, stride 2
# ---------------------------------------------------------------------------


def _octant(x: np.ndarray, i: int) -> np.ndarray:
    """Strided view of offset i = dz*4 + dy*2 + dx of every 2x2x2 block of
    the last three (spatial) axes of x."""
    return x[..., i >> 2::2, (i >> 1) & 1::2, i & 1::2]


def _bits(x: np.ndarray) -> np.ndarray:
    """View of x as unsigned integers of its own width, for bitwise masks."""
    return x.view(f"u{x.itemsize}")


def maxpool3d_forward(x: np.ndarray,
                      want_argmax: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Max over the 8 octants of each 2x2x2 block, plus the uint8 octant
    index of the winner (None when `want_argmax` is False, which skips
    its work). Octants are taken in index order and replace the running max
    only when strictly greater, so ties keep the lowest index. The rounds
    run over groups of (item, channel) volumes of at most POOL_GROUP_ELEMS
    input elements (one volume if it is larger), so a group's pooled arrays
    stay in cache through all eight."""
    B, C, D, H, W = x.shape
    if D % 2 or H % 2 or W % 2:
        raise ContractError(f"maxpool3d: spatial dims {(D, H, W)} must be even")
    x = x.reshape((B * C, D, H, W))
    out = np.empty((B * C, D // 2, H // 2, W // 2), dtype=x.dtype)
    argmax = np.empty(out.shape, dtype=np.uint8) if want_argmax else None
    group = max(1, min(B * C, POOL_GROUP_ELEMS // (D * H * W)))
    v = np.empty((group,) + out.shape[1:], dtype=x.dtype)
    tag = np.empty(v.shape, dtype=np.uint8)
    for c in range(0, B * C, group):
        xs, m = x[c:c + group], out[c:c + group]
        np.copyto(m, _octant(xs, 0))
        if argmax is None:
            for i in range(1, 8):
                np.maximum(_octant(xs, i), m, out=m)  # same operands as below
            continue
        am, vs, ts = argmax[c:c + group], v[:len(m)], tag[:len(m)]
        am.fill(0)
        for i in range(1, 8):
            np.copyto(vs, _octant(xs, i))
            np.greater(vs, m, out=ts)
            np.maximum(vs, m, out=m)  # returns its second operand on ties (signed zeros)
            ts *= np.uint8(i)
            np.maximum(am, ts, out=am)  # i exceeds every earlier index
    shape = (B, C) + out.shape[1:]
    return out.reshape(shape), None if argmax is None else argmax.reshape(shape)


def maxpool3d_backward(argmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Routes each pooled gradient to the octant its argmax names; the input
    is twice argmax's shape in every spatial dim."""
    return _maxpool_grad_planes(argmax, grad_out, 0, 2 * argmax.shape[2])


def _maxpool_grad_planes(argmax, grad_out, z0, z1):
    """Planes z0..z1-1 of maxpool3d_backward's result. Each parity of plane
    is written by the four octants that hold it, each as the gradient
    ANDed with the mask argmax == i over every item and channel at once; a
    plane of the other parity costs nothing, so slabs that split pooling
    pairs cost no more than the whole."""
    if grad_out.shape != argmax.shape:
        raise ContractError(
            f"maxpool3d backward: grad_out shape {grad_out.shape} != argmax {argmax.shape}")
    B, C, D, H, W = argmax.shape
    if not 0 <= z0 <= z1 <= 2 * D:
        raise ContractError(f"maxpool3d backward: planes {z0}..{z1 - 1} outside 0..{2 * D - 1}")
    grad_x = np.empty((B, C, z1 - z0, 2 * H, 2 * W), dtype=grad_out.dtype)
    g, gx = _bits(grad_out), _bits(grad_x)
    masks = np.empty((B, C, (z1 - z0 + 1) // 2, H, W), dtype=g.dtype)
    for dz in range(2):
        j = (dz - z0) % 2  # grad_x's first plane of parity dz
        n = len(range(j, z1 - z0, 2))
        if not n:
            continue
        p = (z0 + j) // 2  # its pooled plane
        am, gs, mask = argmax[:, :, p:p + n], g[:, :, p:p + n], masks[:, :, :n]
        for i in range(4 * dz, 4 * dz + 4):
            np.equal(am, i, out=mask)
            np.negative(mask, out=mask)  # 1 -> all ones
            np.bitwise_and(gs, mask, out=_octant(gx[:, :, j:], i & 3))
    return grad_x


# ---------------------------------------------------------------------------
# 2x2x2 transposed convolution, stride 2 (doubles each spatial dim)
# ---------------------------------------------------------------------------


def transposed_conv3d_forward(x: np.ndarray, weight: np.ndarray,
                              bias: np.ndarray) -> np.ndarray:
    """weight layout (in_ch, out_ch, 2, 2, 2); each input voxel paints one
    disjoint 2x2x2 output block, the adjoint of a stride-2 valid conv.
    Octant i of the output is tap i of the kernel applied to x, one GEMM."""
    B, Ci, D, H, W = x.shape
    wCi, Co, k, kh, kw = weight.shape
    if wCi != Ci:
        raise ContractError(f"tconv3d: input has {Ci} channels, kernel expects {wCi}")
    if (k, kh, kw) != (2, 2, 2):
        raise ContractError(f"tconv3d: kernel must be 2x2x2, got {weight.shape[2:]}")
    if bias.shape != (Co,):
        raise ContractError(f"tconv3d: bias shape {bias.shape} != ({Co},)")
    taps = weight.reshape(Ci, Co, 8)
    xm = x.reshape(B, Ci, D * H * W)
    out = np.empty((B, Co, 2 * D, 2 * H, 2 * W), dtype=x.dtype)
    for i in range(8):
        _octant(out, i)[...] = np.matmul(taps[:, :, i].T, xm).reshape(B, Co, D, H, W)
    out += bias.reshape(1, -1, 1, 1, 1).astype(x.dtype)
    return out


def transposed_conv3d_backward(x: np.ndarray, weight: np.ndarray,
                               grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, Ci, D, H, W = x.shape
    _, Co, _, _, _ = weight.shape
    if grad_out.shape != (B, Co, 2 * D, 2 * H, 2 * W):
        raise ContractError(
            f"tconv3d backward: grad_out shape {grad_out.shape} != {(B, Co, 2*D, 2*H, 2*W)}")
    # the 8 octants of grad_out gathered once as rows (o, i), tap-minor like
    # the kernel's (Co, 2, 2, 2) axes, so that each gradient is one
    # contraction over all taps. Float32 rounding depends on the operand
    # order: a sum of 8 per-octant GEMMs, or grad_x as W @ g, rounds
    # differently from (g^T @ W^T)^T
    g = np.empty((B, Co, 8, D, H, W), dtype=grad_out.dtype)
    for i in range(8):
        g[:, :, i] = _octant(grad_out, i)
    g = g.reshape(B, Co * 8, D * H * W)
    grad_x = np.matmul(g.transpose(0, 2, 1), weight.reshape(Ci, Co * 8).T)
    grad_x = np.ascontiguousarray(grad_x.transpose(0, 2, 1)).reshape(B, Ci, D, H, W)
    grad_w = np.tensordot(x.reshape(B, Ci, -1), g, axes=([0, 2], [0, 2])).reshape(weight.shape)
    grad_b = grad_out.sum(axis=(0, 2, 3, 4))
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# Pointwise nonlinearities
# ---------------------------------------------------------------------------


def relu_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0, out=out)


def relu_mask(act: np.ndarray) -> np.ndarray:
    """np.packbits(act > 0, axis=-1), the ReLU mask of an activation (its
    input or output) packed per row, so that a depth slice of it masks that
    slice of planes. The rows are padded with zero bits to whole bytes,
    then packed at once, which is 2-3 times faster than np.packbits along
    a short last axis."""
    w = act.shape[-1]
    bits = np.zeros(act.shape[:-1] + (-(-w // 8) * 8,), dtype=bool)
    np.greater(act, 0, out=bits[..., :w])
    return np.packbits(bits.reshape(-1)).reshape(bits.shape[:-1] + (bits.shape[-1] // 8,))


def relu_backward(mask: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Zeroes grad_out in place wherever the ReLU `mask` of relu_mask has
    a 0 bit and returns it, bit for bit np.where(x > 0, grad_out, 0) for
    the x it was made from; the subgradient at exactly 0 is 0. Any strides
    do for the mask, such as a depth slice; grad_out must be C-contiguous.
    The mask is unpacked a chunk of rows at a time.
    """
    W = grad_out.shape[-1]
    if mask.dtype != np.uint8 or mask.shape != grad_out.shape[:-1] + (-(-W // 8),):
        raise ContractError(f"relu backward: {mask.dtype} mask of shape {mask.shape} is not "
                            f"the packed mask of grad_out {grad_out.shape}")
    if not grad_out.flags.c_contiguous:
        raise ContractError("relu backward: grad_out must be C-contiguous")
    mr, gr = mask.reshape(-1, mask.shape[-1]), _bits(grad_out).reshape(-1, W)
    rows = max(1, MASK_CHUNK_ELEMS // W)
    unpacked = np.empty((min(len(gr), rows), W), dtype=gr.dtype)
    for s in range(0, len(gr), rows):
        m = unpacked[:min(rows, len(gr) - s)]
        np.copyto(m, np.unpackbits(mr[s:s + len(m)], axis=-1, count=W))
        np.negative(m, out=m)  # 1 -> all ones
        np.bitwise_and(gr[s:s + len(m)], m, out=gr[s:s + len(m)])
    return grad_out


def channel_softmax(x: np.ndarray) -> np.ndarray:
    """Per-voxel softmax over the channel axis, stabilized by max subtraction."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Geometry helpers for skip connections
# ---------------------------------------------------------------------------


def crop_center3d(x: np.ndarray, target: tuple[int, int, int]) -> np.ndarray:
    """Center crop of the spatial axes, as a view of x; offsets must be integral."""
    _, _, D, H, W = x.shape
    tD, tH, tW = target
    if (D - tD) % 2 or (H - tH) % 2 or (W - tW) % 2 or tD > D or tH > H or tW > W:
        raise ContractError(f"crop_center3d: cannot center-crop {(D, H, W)} to {target}")
    oz, oy, ox = (D - tD) // 2, (H - tH) // 2, (W - tW) // 2
    return x[:, :, oz:oz + tD, oy:oy + tH, ox:ox + tW]
