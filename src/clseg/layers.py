"""Differentiable layer set for the volumetric segmentation network.

All layers are pure functions over numpy arrays in (batch, channel, depth,
height, width) layout, with analytic backward passes derived by hand.
Convolutions are valid (no padding). Forward and backward are dtype
preserving, so the whole stack runs in float32 for training and float64
for gradient checking.

Convolution is computed as an im2col-style matrix product, chunked over
depth slabs so that one unrolled-patch buffer is alive at a time, of at
most COL_BUDGET_ELEMS elements or one depth slice if that is larger; the
input gradient reuses the same path as a full correlation with the
flipped kernel.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Upper bound on the im2col buffer, in elements (64 MB in float32). Whole-
# subject inference sizes its tiles by the same bound.
COL_BUDGET_ELEMS = 16 * 1024 * 1024


class ContractError(ValueError):
    """A layer precondition (shape, channel count, parity) is violated."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf crossed a checked boundary."""


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Valid 3-D convolution
# ---------------------------------------------------------------------------


def _conv_slabs(x, weight, out):
    """out[b,o,z,y,x] = sum_{i,dz,dy,dx} x[b,i,z+dz,y+dy,x+dx] * w[o,i,dz,dy,dx]"""
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = weight.shape
    oD, oH, oW = D - k + 1, H - k + 1, W - k + 1
    wm = weight.reshape(Co, -1)
    ckk = Ci * k * k * k
    slab = max(1, min(oD, COL_BUDGET_ELEMS // max(1, ckk * oH * oW)))
    sB, sC, sD, sH, sW = x.strides
    for z0 in range(0, oD, slab):
        z1 = min(z0 + slab, oD)
        xz = x[:, :, z0:z1 + k - 1]
        view = as_strided(
            xz, (B, Ci, k, k, k, z1 - z0, oH, oW),
            (sB, sC, sD, sH, sW, sD, sH, sW), writeable=False)
        cols = view.reshape(B, ckk, (z1 - z0) * oH * oW)
        for b in range(B):
            out[b, :, z0:z1] = (wm @ cols[b]).reshape(Co, z1 - z0, oH, oW)
        del cols  # free this slab before the next one is unrolled
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

    if k == 1:
        out = np.tensordot(weight[:, :, 0, 0, 0], x, axes=([1], [1]))
        out = np.ascontiguousarray(out.transpose(1, 0, 2, 3, 4))
    else:
        out = np.empty((B, Co, D - k + 1, H - k + 1, W - k + 1), dtype=x.dtype)
        _conv_slabs(x, weight, out)
    out += bias.reshape(1, -1, 1, 1, 1).astype(x.dtype)
    return out


def conv3d_backward(x: np.ndarray, weight: np.ndarray,
                    grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = weight.shape
    oD, oH, oW = D - k + 1, H - k + 1, W - k + 1
    if grad_out.shape != (B, Co, oD, oH, oW):
        raise ContractError(
            f"conv3d backward: grad_out shape {grad_out.shape} != {(B, Co, oD, oH, oW)}")

    grad_bias = grad_out.sum(axis=(0, 2, 3, 4))

    if k == 1:
        g2 = grad_out.reshape(B, Co, -1)
        x2 = x.reshape(B, Ci, -1)
        grad_w = np.einsum("bon,bin->oi", g2, x2).reshape(weight.shape)
        grad_x = np.tensordot(weight[:, :, 0, 0, 0], grad_out, axes=([0], [1]))
        grad_x = np.ascontiguousarray(grad_x.transpose(1, 0, 2, 3, 4))
        return grad_x, grad_w.astype(weight.dtype), grad_bias

    # weight gradient: same unrolled patches as forward, contracted with grad_out
    ckk = Ci * k * k * k
    grad_w = np.zeros((Co, ckk), dtype=weight.dtype)
    slab = max(1, min(oD, COL_BUDGET_ELEMS // max(1, ckk * oH * oW)))
    sB, sC, sD, sH, sW = x.strides
    for z0 in range(0, oD, slab):
        z1 = min(z0 + slab, oD)
        xz = x[:, :, z0:z1 + k - 1]
        view = as_strided(
            xz, (B, Ci, k, k, k, z1 - z0, oH, oW),
            (sB, sC, sD, sH, sW, sD, sH, sW), writeable=False)
        cols = view.reshape(B, ckk, (z1 - z0) * oH * oW)
        g = grad_out[:, :, z0:z1].reshape(B, Co, -1)
        for b in range(B):
            grad_w += g[b] @ cols[b].T
        del cols
    grad_w = grad_w.reshape(weight.shape)

    # input gradient: full correlation of grad_out with the flipped kernel
    p = k - 1
    padded = np.zeros((B, Co, oD + 2 * p, oH + 2 * p, oW + 2 * p), dtype=grad_out.dtype)
    padded[:, :, p:p + oD, p:p + oH, p:p + oW] = grad_out
    w_flip = np.ascontiguousarray(
        weight[:, :, ::-1, ::-1, ::-1].transpose(1, 0, 2, 3, 4))
    grad_x = np.empty_like(x)
    _conv_slabs(padded, w_flip, grad_x)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# 2x2x2 max pooling, stride 2
# ---------------------------------------------------------------------------


def _pool_blocks(x):
    B, C, D, H, W = x.shape
    r = x.reshape(B, C, D // 2, 2, H // 2, 2, W // 2, 2)
    # flat block index dz*4 + dy*2 + dx is lexicographic in (dz, dy, dx),
    # so argmax's first-occurrence rule picks the lowest linear index on ties
    return r.transpose(0, 1, 2, 4, 6, 3, 5, 7).reshape(B, C, D // 2, H // 2, W // 2, 8)


def maxpool3d_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    B, C, D, H, W = x.shape
    if D % 2 or H % 2 or W % 2:
        raise ContractError(f"maxpool3d: spatial dims {(D, H, W)} must be even")
    blocks = _pool_blocks(x)
    argmax = blocks.argmax(axis=-1).astype(np.uint8)
    out = np.take_along_axis(blocks, argmax[..., None].astype(np.intp), axis=-1)[..., 0]
    return np.ascontiguousarray(out), argmax


def maxpool3d_backward(argmax: np.ndarray, grad_out: np.ndarray,
                       input_shape: tuple) -> np.ndarray:
    B, C, D, H, W = input_shape
    if grad_out.shape != (B, C, D // 2, H // 2, W // 2):
        raise ContractError(f"maxpool3d backward: grad_out shape {grad_out.shape}")
    blocks = np.zeros((B, C, D // 2, H // 2, W // 2, 8), dtype=grad_out.dtype)
    np.put_along_axis(blocks, argmax[..., None].astype(np.intp), grad_out[..., None], axis=-1)
    blocks = blocks.reshape(B, C, D // 2, H // 2, W // 2, 2, 2, 2)
    return np.ascontiguousarray(
        blocks.transpose(0, 1, 2, 5, 3, 6, 4, 7).reshape(B, C, D, H, W))


# ---------------------------------------------------------------------------
# 2x2x2 transposed convolution, stride 2 (doubles each spatial dim)
# ---------------------------------------------------------------------------


def transposed_conv3d_forward(x: np.ndarray, weight: np.ndarray,
                              bias: np.ndarray) -> np.ndarray:
    """weight layout (in_ch, out_ch, 2, 2, 2); each input voxel paints one
    disjoint 2x2x2 output block, the adjoint of a stride-2 valid conv."""
    B, Ci, D, H, W = x.shape
    wCi, Co, k, kh, kw = weight.shape
    if wCi != Ci:
        raise ContractError(f"tconv3d: input has {Ci} channels, kernel expects {wCi}")
    if (k, kh, kw) != (2, 2, 2):
        raise ContractError(f"tconv3d: kernel must be 2x2x2, got {weight.shape[2:]}")
    if bias.shape != (Co,):
        raise ContractError(f"tconv3d: bias shape {bias.shape} != ({Co},)")
    t = np.tensordot(x, weight, axes=([1], [0]))        # (B,D,H,W,Co,2,2,2)
    t = t.transpose(0, 4, 1, 5, 2, 6, 3, 7)             # (B,Co,D,dz,H,dy,W,dx)
    out = np.ascontiguousarray(t).reshape(B, Co, 2 * D, 2 * H, 2 * W)
    return out + bias.reshape(1, -1, 1, 1, 1).astype(x.dtype)


def transposed_conv3d_backward(x: np.ndarray, weight: np.ndarray,
                               grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    B, Ci, D, H, W = x.shape
    _, Co, _, _, _ = weight.shape
    if grad_out.shape != (B, Co, 2 * D, 2 * H, 2 * W):
        raise ContractError(
            f"tconv3d backward: grad_out shape {grad_out.shape} != {(B, Co, 2*D, 2*H, 2*W)}")
    g = grad_out.reshape(B, Co, D, 2, H, 2, W, 2).transpose(0, 1, 3, 5, 7, 2, 4, 6)
    # g: (B, Co, dz, dy, dx, D, H, W)
    grad_x = np.tensordot(g, weight, axes=([1, 2, 3, 4], [1, 2, 3, 4]))  # (B,D,H,W,Ci)
    grad_x = np.ascontiguousarray(grad_x.transpose(0, 4, 1, 2, 3))
    grad_w = np.tensordot(x, g, axes=([0, 2, 3, 4], [0, 5, 6, 7]))       # (Ci,Co,2,2,2)
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


def channel_softmax_backward(probs: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    dot = (grad_out * probs).sum(axis=1, keepdims=True)
    return probs * (grad_out - dot)


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
    """Center crop of the spatial axes; offsets must be integral."""
    _, _, D, H, W = x.shape
    tD, tH, tW = target
    if (D - tD) % 2 or (H - tH) % 2 or (W - tW) % 2 or tD > D or tH > H or tW > W:
        raise ContractError(f"crop_center3d: cannot center-crop {(D, H, W)} to {target}")
    oz, oy, ox = (D - tD) // 2, (H - tH) // 2, (W - tW) // 2
    return x[:, :, oz:oz + tD, oy:oy + tH, ox:ox + tW]


def crop_center3d_backward(grad_out: np.ndarray, input_shape: tuple) -> np.ndarray:
    B, C, D, H, W = input_shape
    _, _, tD, tH, tW = grad_out.shape
    g = np.zeros(input_shape, dtype=grad_out.dtype)
    oz, oy, ox = (D - tD) // 2, (H - tH) // 2, (W - tW) // 2
    g[:, :, oz:oz + tD, oy:oy + tH, ox:ox + tW] = grad_out
    return g
