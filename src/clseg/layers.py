"""Differentiable layer set for the volumetric segmentation network.

All layers are pure functions over numpy arrays in (batch, channel, depth,
height, width) layout, with analytic backward passes derived by hand.
Convolutions are valid (no padding). Forward and backward are dtype
preserving, so the whole stack runs in float32 for training and float64
for gradient checking.

Convolution uses a flat-offset unrolling. Within one batch item's
contiguous (C, D, H, W) input, output column j = z*H*W + y*W + x runs over
the full (H, W) grid, and tap (dz, dy, dx) of column j reads flat input
j + dz*H*W + dy*W + dx. Only the k*k in-plane shifts are unrolled, as C*k*k
contiguous rows; each depth tap dz is then a column window of that matrix,
shifted by dz*H*W, so a slab of output planes costs k GEMMs. Columns with
y >= H-k+1 or x >= W-k+1 wrap into the next row or plane and are discarded:
the forward crops the full-grid output to its valid corner, and the weight
gradient places grad_out on a zeroed full grid. Work is chunked over depth
slabs whose unrolled input plus full-grid output, (C*k*k + Co)*H*W*(planes
+ k-1) elements, fit SLAB_BUDGET_ELEMS, or one plane if that is larger.
The budget, 16 MiB in float32, sits under glibc's 32 MiB mmap ceiling: a
freed slab goes back to the heap and the next slab reuses its pages, where
a larger one would be mmap'd and page-faulted afresh, and streamed from
memory once per depth tap. Each depth tap's GEMM is written into one
buffer per call and added in place. The weight gradient is accumulated as
U_dz @ grad_out^T, (C*k*k, Co) per tap, and transposed once at the end. The
input gradient reuses the forward path as a full correlation of the
gradient with the flipped kernel: the gradient is laid on the input's
(H, W) grid after a front pad of (k-1)*(H*W+W+1) zeros, where wrapped taps
read zeros, so every full-grid output column is an input gradient.

The stride-2 layers (2x2x2 max pooling and the 2x2x2 transposed
convolution) see an even-sized volume as 8 octants: octant i = dz*4 +
dy*2 + dx is the strided view x[..., dz::2, dy::2, dx::2] (`_octant`), the
voxels at offset (dz, dy, dx) of every 2x2x2 block. Pooling's argmax stores
the winning octant index, and tap (dz, dy, dx) of a transposed-conv kernel
paints octant i, so both backward passes read and write the same views.
A center crop is a view too; the network adds each skip gradient into the
cropped view of the pooled gradient in place.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Upper bound on one conv slab's unrolled input plus its full-grid output, in
# elements (16 MiB in float32, under glibc's 32 MiB mmap ceiling).
SLAB_BUDGET_ELEMS = 4 * 1024 * 1024


class ContractError(ValueError):
    """A layer precondition (shape, channel count, parity) is violated."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf crossed a checked boundary."""


# ---------------------------------------------------------------------------
# Valid 3-D convolution
# ---------------------------------------------------------------------------


def _slab_planes(Ci, Co, k, H, W, oD):
    """Output planes per slab: the unrolled input plus the full-grid output
    of a slab fit SLAB_BUDGET_ELEMS, or one plane if that is larger."""
    return max(1, min(oD, SLAB_BUDGET_ELEMS // ((Ci * k * k + Co) * H * W) - (k - 1)))


def _unroll(x, k, z0, n):
    """In-plane unrolling of n full-grid output columns from plane z0 of one
    (C, D, H, W) item.

    x must be C-contiguous. Returns U of shape (C*k*k, n + (k-1)*H*W) with
    U[(c, dy, dx), j] = x[c].flat[z0*H*W + j + dy*W + dx], so depth tap dz
    of output column j is U[:, dz*H*W + j]. Raises ContractError if the
    last read falls past x[c].
    """
    C, D, H, W = x.shape
    HW = H * W
    if (z0 + k - 1) * HW + n + (k - 1) * (W + 1) > D * HW:
        raise ContractError(f"conv3d: {n} columns from plane {z0} read past {x.shape}")
    s = x.itemsize
    view = as_strided(x[:, z0:], (C, k, k, n + (k - 1) * HW),
                      (x.strides[0], W * s, s, s), writeable=False)
    return view.reshape(C * k * k, -1)


def _conv_slabs(x, weight, out):
    """out[b,o,z,y,x] = sum_{i,dz,dy,dx} x[b,i,z+dz,y+dy,x+dx] * w[o,i,dz,dy,dx]

    x must be C-contiguous. A slab's outputs are computed on the full (H, W)
    grid, one GEMM per depth tap accumulated in place, and the (oH, oW)
    corner is copied out.
    When out spans the whole grid, every column is an output; the last
    (k-1)*(W+1) of them then read one plane past oD + k - 1, which x must
    hold.
    """
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = weight.shape
    oD, oH, oW = out.shape[2:]
    HW = H * W
    # columns past the last valid output of a slab, when out is cropped
    tail = 0 if (oH, oW) == (H, W) else (k - 1) * (W + 1)
    w_dz = np.ascontiguousarray(weight.transpose(2, 0, 1, 3, 4)).reshape(k, Co, -1)
    slab = _slab_planes(Ci, Co, k, H, W, oD)
    full = np.empty((Co, slab * HW), dtype=out.dtype)
    tap = np.empty_like(full)
    for b in range(B):
        for z0 in range(0, oD, slab):
            z1 = min(z0 + slab, oD)
            n = (z1 - z0) * HW - tail
            U = _unroll(x[b], k, z0, n)
            np.matmul(w_dz[0], U[:, :n], out=full[:, :n])
            for dz in range(1, k):
                np.matmul(w_dz[dz], U[:, dz * HW:dz * HW + n], out=tap[:, :n])
                full[:, :n] += tap[:, :n]
            out[b, :, z0:z1] = full[:, :(z1 - z0) * HW].reshape(Co, z1 - z0, H, W)[:, :, :oH, :oW]
            del U  # free this slab before the next one is unrolled
    return out


def conv3d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    B, Ci, D, H, W = x.shape
    Co, wCi, k, kh, kw = weight.shape
    if wCi != Ci:
        raise ContractError(f"conv3d: input has {Ci} channels, kernel expects {wCi}")
    if not (k == kh == kw):
        raise ContractError(f"conv3d: kernel must be cubic, got {weight.shape[2:]}")
    if min(D, H, W) < k:
        raise ContractError(f"conv3d: spatial dims {(D, H, W)} smaller than kernel {k}")
    if bias.shape != (Co,):
        raise ContractError(f"conv3d: bias shape {bias.shape} != ({Co},)")

    out = np.empty((B, Co, D - k + 1, H - k + 1, W - k + 1), dtype=x.dtype)
    _conv_slabs(np.ascontiguousarray(x), weight, out)
    out += bias.reshape(1, -1, 1, 1, 1).astype(x.dtype)
    return out


def conv3d_backward(x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray,
                    need_grad_x: bool = True):
    """(grad_x, grad_w, grad_b); grad_x is None when need_grad_x is False."""
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = weight.shape
    oD, oH, oW = D - k + 1, H - k + 1, W - k + 1
    if grad_out.shape != (B, Co, oD, oH, oW):
        raise ContractError(
            f"conv3d backward: grad_out shape {grad_out.shape} != {(B, Co, oD, oH, oW)}")

    grad_bias = grad_out.sum(axis=(0, 2, 3, 4))

    # weight gradient: grad_out on the full (H, W) grid, zero outside the
    # valid corner, contracted with the forward's unrolled input per depth
    # tap; only the valid corner of the grid is ever written, so its zeros
    # outlive every slab
    x = np.ascontiguousarray(x)
    HW = H * W
    grad_w = np.zeros((k, Ci * k * k, Co), dtype=weight.dtype)
    tap = np.empty_like(grad_w[0])
    slab = _slab_planes(Ci, Co, k, H, W, oD)
    g = np.zeros((Co, slab, H, W), dtype=grad_out.dtype)
    for b in range(B):
        for z0 in range(0, oD, slab):
            z1 = min(z0 + slab, oD)
            n = (z1 - z0) * HW - (k - 1) * (W + 1)
            U = _unroll(x[b], k, z0, n)
            g[:, :z1 - z0, :oH, :oW] = grad_out[b, :, z0:z1]
            gT = g.reshape(Co, -1)[:, :n].T
            for dz in range(k):
                np.matmul(U[:, dz * HW:dz * HW + n], gT, out=tap)
                grad_w[dz] += tap
            del U, gT
    del g  # free the grid before the grad_x pass allocates its own
    grad_w = np.ascontiguousarray(
        grad_w.reshape(k, Ci, k, k, Co).transpose(4, 1, 0, 2, 3))
    if not need_grad_x:
        return None, grad_w, grad_bias

    # input gradient: full correlation of grad_out with the flipped kernel,
    # grad_out placed from plane, row and column k-1 of the input's grid (the
    # front pad of the module docstring); the last plane is spare, for the
    # reads of the last (k-1)*(W+1) columns
    p = k - 1
    padded = np.zeros((B, Co, D + k, H, W), dtype=grad_out.dtype)
    padded[:, :, p:p + oD, p:, p:] = grad_out
    grad_x = np.empty_like(x)
    _conv_slabs(padded, weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4), grad_x)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling, stride 2
# ---------------------------------------------------------------------------


def _octant(x: np.ndarray, i: int) -> np.ndarray:
    """Strided view of offset i = dz*4 + dy*2 + dx of every 2x2x2 block of
    the spatial axes of x."""
    return x[:, :, i >> 2::2, (i >> 1) & 1::2, i & 1::2]


def maxpool3d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max over the 8 octants of each 2x2x2 block, plus the uint8 octant
    index of the winner. Octants are taken in index order and replace the
    running max only when strictly greater, so ties keep the lowest index."""
    B, C, D, H, W = x.shape
    if D % 2 or H % 2 or W % 2:
        raise ContractError(f"maxpool3d: spatial dims {(D, H, W)} must be even")
    out = _octant(x, 0).copy()
    argmax = np.zeros(out.shape, dtype=np.uint8)
    v = np.empty_like(out)
    tag = np.empty(out.shape, dtype=np.uint8)
    for i in range(1, 8):
        np.copyto(v, _octant(x, i))
        np.greater(v, out, out=tag)
        np.maximum(v, out, out=out)  # returns its second operand on ties (signed zeros)
        tag *= np.uint8(i)
        np.maximum(argmax, tag, out=argmax)  # i exceeds every earlier index
    return out, argmax


def maxpool3d_backward(argmax: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Routes each pooled gradient to the octant its argmax names; the input
    is twice argmax's shape in every spatial dim."""
    if grad_out.shape != argmax.shape:
        raise ContractError(
            f"maxpool3d backward: grad_out shape {grad_out.shape} != argmax {argmax.shape}")
    B, C, D, H, W = argmax.shape
    grad_x = np.zeros((B, C, 2 * D, 2 * H, 2 * W), dtype=grad_out.dtype)
    for i in range(8):
        np.copyto(_octant(grad_x, i), grad_out, where=argmax == i)
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


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # subgradient at exactly 0 is defined as 0
    return np.where(x > 0, grad_out, 0)


def channel_softmax(x: np.ndarray) -> np.ndarray:
    """Per-voxel softmax over the channel axis, stabilized by max subtraction."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def instance_norm_forward(x: np.ndarray, eps: float = 1e-5):
    """Per-(batch, channel) standardization over the spatial axes."""
    axes = (2, 3, 4)
    mu = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    y = (x - mu) * inv_std
    return y, (y, inv_std)


def instance_norm_backward(cache, grad_out: np.ndarray) -> np.ndarray:
    y, inv_std = cache
    axes = (2, 3, 4)
    g_mean = grad_out.mean(axis=axes, keepdims=True)
    gy_mean = (grad_out * y).mean(axis=axes, keepdims=True)
    return inv_std * (grad_out - g_mean - y * gy_mean)


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
