"""Three-level volumetric U-Net with two softmax heads.

Valid convolutions only, so an input of shape (D, H, W), each side
divisible by 4 and at least 44, yields both head outputs at
(D-40, H-40, W-40) (68^3 -> 28^3 with the default patch). Each encoder
level applies two 3x3x3 convs (the second doubling the channel width),
followed by 2x2x2 max pooling; the decoder mirrors it with stride-2
transposed convs and center-cropped skip concatenations; both 1x1x1 heads
read the final full-resolution decoder features.

The decoder never builds a transposed conv's output. No ReLU lies between
a transposed conv (`up2`, `up1`) and the 3x3x3 conv that reads its
concatenation with the skip crop (`dec2a`, `dec1a`), so the two are one
linear map, run as the sum, before the ReLU, of two convs (the sub-pixel
convolution of Shi et al., CVPR 2016):
  - the skip part of the decoder kernel, kernel[:, c_up:], on the skip
    crop, with the bias b_dec + sum_t W_dec[:, :c_up, t] @ b_up;
  - per output parity p (the octant of layers._octant), a 2x2x2 conv of
    the low-resolution input: on each axis, output voxel 2y + p reads at
    decoder tap t the up-convolved voxel 2y + p + t, which is input voxel
    y + (p + t) // 2 through transposed-conv tap (p + t) % 2. The eight
    parities' kernels are the channel groups of one (8*Co, Ci, 2, 2, 2)
    kernel composed from both layers' kernels (`_compose`), applied in
    one conv whose channel group p is added onto octant p of the skip
    conv's output.
That replaces a 3x3x3 conv over c_up up-convolved channels at twice the
resolution with a 2x2x2 one over Ci input channels at the input's: about
a quarter fewer FLOPs in a paper-width whole-subject pass. The parameters,
their order and the checkpoint format stay those of the two layers.

The network is fixed but for its base width C and its training patch
side. It reads the three contrasts of CONTRAST_NAMES, and each head has
one output per class code of its label volume (volume_io.LABEL_CODES),
three each. Channel plan:
    enc1: 3->C, C->2C        dec2: (8C+4C)->4C, 4C->4C
    enc2: 2C->2C, 2C->4C     dec1: (4C+2C)->2C, 2C->2C
    enc3: 4C->4C, 4C->8C     heads: 2C->3 (x2)
    up2: 8C->8C, up1: 4C->4C (transposed)

`forward` runs the network as a DepthStream: its input is pushed in
depth, a few planes at a time, and each stage computes every output plane
as soon as the planes it reads are in, keeping only what later planes
need (fused-layer evaluation; Alwani et al., MICRO 2016):
  - a 3x3x3 conv keeps in a layers.ConvCarry the partial sums of the two
    output planes its input so far leaves pending, so each input plane is
    multiplied once, and its kernel packed for the GEMMs at its first
    push, so a later push neither repacks it nor copies a sum back;
  - a pooling keeps an odd trailing plane;
  - the decoder reads only the centre of the two pooled activations
    (enc1b, enc2b outputs): that crop is copied as their planes come out
    and waits in a FIFO until the decoder reads it, some 20 enc1b planes
    later;
  - a decoder unit's composed conv, a 2x2x2 one, keeps one pending plane
    in its own ConvCarry, beside the skip conv's; its kernel is made in
    the packed layout, so that carry holds no copy of it;
  - the heads keep nothing; level 1 of the decoder, the widest, runs on
    a quarter of the stream's depth of dec2b planes at a time.
A push runs level 1 in chunks of the stream's depth (_push_depth), then
the lower levels once on all the planes those pooled. Every ReLU runs in
place on its conv's output, and each array is freed once it is dead (a
carry's pending sums and packed kernel once its last input plane is in).
Every conv product spans whole planes, so the stream computes the bytes
of one whole pass however its input is pushed (see the equivalence
tests).

For training, forward pushes the whole patch into a stream with a cache:
level 1 runs through it before the lower levels make their arrays, which
at C=16 and 68^3 keeps the forward's peak at 58 MiB, against 70 MiB in
pushes of the depth. The cache keeps each conv unit's input and its ReLU
mask, bit-packed per row so that a depth slice of it masks that slice of
planes. A unit's output is cached once, as the input of what reads it:
the next unit, the heads ("heads"), or a transposed conv, whose entry is
(its input, the composed kernel). A decoder unit's input is its skip
crop, which the pooling writes there in place of the FIFO; the pooled
outputs are the inputs of enc2a and enc3a, and "pool" holds both
argmaxes. Each whole array is made at its first planes; enc1b's output,
twice enc1a's size, is never whole. Without a cache, pooling skips the
argmax.
`backward` pops every entry as it consumes it, so each array is released
as soon as its gradients are done, and writes each conv's input gradient
over that conv's input, which only its weight gradient reads. It maps
the gradient of a composed kernel back onto both layers' kernels, one
GEMM each, and reads the composed conv's output gradient from the
octants of the decoder gradient a slab at a time. enc1b's output gradient
is never whole either: its conv backward builds it a slab of planes at a
time from the pooled gradient, the skip gradient and the packed mask
(_enc1b_grad).

A whole subject is predicted as one pass over it, mirror-padded by the
network's 20-voxel valid-conv margin on every side and up to 3 voxels
more after, so that each side divides by 4. The pass runs as height
slices, each a multiple of 4 output rows, on as many threads as OpenBLAS
has, with OpenBLAS at one thread meanwhile: the overlap-tile strategy of
Ronneberger et al. (MICCAI 2015) along one axis. A slice streams the
padded rows it reads, its rows plus the 40 of the margin, through a
DepthStream of its own. Its output rows are those of the whole pass byte
for byte: a valid conv's output row reads only the rows it covers, a
slice starting on a multiple of 4 keeps both poolings' pairs, a forward
GEMM reduces over Ci*k*k, which OpenBLAS does not split between threads,
and every product spans whole planes of the slice. The slices' streams
share one stream's conv budget (sliding_window_inference). The padded
volume is never built: each push is gathered from the contrasts, and no
level-1 activation but the enc1b crop in its FIFO is held more than a
push deep.

Parameter serialization order is the order of `param_specs`, kernel then
bias per layer, little-endian float32. A decoder kernel's input channels
are in concatenation order [up-convolved features, cropped skip
features].
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from pathlib import Path

import numpy as np

from . import layers, volume_io
from .blas import blas_threads, set_blas_threads
from .layers import ContractError
from .losses import combined_loss
from .optim import AdamState, adam_step
from .volume_io import CONTRAST_NAMES, LABEL_CODES

SHRINK_PER_SIDE = 40  # total valid-conv shrinkage of the 3-level network
MIN_INPUT_SIDE = 44

CONTRAST_CHANNELS = {name: i for i, name in enumerate(CONTRAST_NAMES)}
DROPPABLE_CHANNELS = ("t2s_epi", "t2s_gre")  # MP2RAGE is never dropped
_SKIP_READERS = {"pool1": "dec1a", "pool2": "dec2a"}  # the decoder unit each crop feeds


@dataclass(frozen=True)
class NetworkConfig:
    base_channels: int = 16
    input_patch: int = 68

    def validate(self) -> None:
        if type(self.base_channels) is not int or type(self.input_patch) is not int:
            raise ContractError(f"network {asdict(self)} is not of integers")
        output_shape(self.input_patch)
        if self.base_channels < 1:
            raise ContractError("base_channels must be positive")


def output_shape(input_side: int) -> int:
    """Output side for an input side `input_side`.

    Every conv is a valid 3x3x3 one and loses 2 voxels: the two convs of
    level 1 cost 4 voxels at full resolution, those of level 2 cost 4 at
    half (8 at full) and the bottom two cost 4 at quarter (16); the
    decoder's level-2 and level-1 conv pairs cost 8 and 4 more. So the
    output is input - 40 for any side divisible by 4, which both 2x2x2
    pooling stages need. The smallest such side with a positive output
    is 44, which gives 4 voxels out.
    """
    if input_side % 4 != 0 or input_side < MIN_INPUT_SIDE:
        raise ContractError(
            f"input side {input_side} invalid: must be divisible by 4 "
            f"(two 2x pooling stages) and >= {MIN_INPUT_SIDE}")
    return input_side - SHRINK_PER_SIDE


def param_specs(cfg: NetworkConfig) -> list[tuple[str, str, tuple]]:
    """Fixed, documented layer order: (name, kind, kernel_shape)."""
    c = cfg.base_channels
    return [
        ("enc1a", "conv", (c, len(CONTRAST_NAMES), 3, 3, 3)),
        ("enc1b", "conv", (2 * c, c, 3, 3, 3)),
        ("enc2a", "conv", (2 * c, 2 * c, 3, 3, 3)),
        ("enc2b", "conv", (4 * c, 2 * c, 3, 3, 3)),
        ("enc3a", "conv", (4 * c, 4 * c, 3, 3, 3)),
        ("enc3b", "conv", (8 * c, 4 * c, 3, 3, 3)),
        ("up2", "tconv", (8 * c, 8 * c, 2, 2, 2)),
        ("dec2a", "conv", (4 * c, 12 * c, 3, 3, 3)),
        ("dec2b", "conv", (4 * c, 4 * c, 3, 3, 3)),
        ("up1", "tconv", (4 * c, 4 * c, 2, 2, 2)),
        ("dec1a", "conv", (2 * c, 6 * c, 3, 3, 3)),
        ("dec1b", "conv", (2 * c, 2 * c, 3, 3, 3)),
        ("head_cl", "conv", (len(LABEL_CODES["cl_labels"]), 2 * c, 1, 1, 1)),
        ("head_tissue", "conv", (len(LABEL_CODES["tissue_labels"]), 2 * c, 1, 1, 1)),
    ]


def param_shapes(cfg: NetworkConfig) -> dict[str, tuple]:
    """`name.kernel` / `name.bias` -> shape, in checkpoint payload order. A
    bias has one entry per output channel: dim 0 of a conv kernel, dim 1 of
    a transposed-conv kernel."""
    shapes = {}
    for name, kind, kshape in param_specs(cfg):
        shapes[f"{name}.kernel"] = kshape
        shapes[f"{name}.bias"] = (kshape[0] if kind == "conv" else kshape[1],)
    return shapes


@dataclass
class NetworkParams:
    config: NetworkConfig
    seed: int
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def astype(self, dtype) -> "NetworkParams":
        return NetworkParams(self.config, self.seed,
                             {k: t.astype(dtype) for k, t in self.tensors.items()})


def build_network(cfg: NetworkConfig, seed: int, dtype=np.float32) -> NetworkParams:
    """He-initialized parameters, deterministic from the seed; biases zero.

    Kernels are N(0, 2/fan_in); fan_in is in_ch * k^3 for convolutions and
    in_ch for the stride-2 transposed convolutions (each output voxel sees
    exactly one kernel tap per input channel). The two 1x1x1 heads start
    at zero so both outputs begin exactly uniform over the classes.
    """
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    shapes = param_shapes(cfg)
    tensors: dict[str, np.ndarray] = {}
    for name, kind, shape in param_specs(cfg):
        fan_in = int(np.prod(shape[1:])) if kind == "conv" else shape[0]
        std = 0.0 if name.startswith("head_") else np.sqrt(2.0 / fan_in)
        tensors[f"{name}.kernel"] = (rng.standard_normal(shape) * std).astype(dtype)
        tensors[f"{name}.bias"] = np.zeros(shapes[f"{name}.bias"], dtype=dtype)
    return NetworkParams(cfg, seed, tensors)


def _unit_backward(params, name, grad, cache, grads, need_grad_x=True):
    """Pops the unit's cache entry and masks `grad` in place (the caller's
    array); the input gradient overwrites the unit's input, which nothing
    reads after this unit's weight gradient."""
    x, mask = cache.pop(name)
    g = layers.relu_backward(mask, grad)
    del mask
    gx, gw, gb = layers.conv3d_backward(x, params.tensors[f"{name}.kernel"], g,
                                        need_grad_x=need_grad_x, out=x if need_grad_x else None)
    grads[f"{name}.kernel"] = gw
    grads[f"{name}.bias"] = gb
    return gx


def _tap_tables():
    """Which decoder tap each entry of a composed kernel sums.

    On each axis, output voxel 2y + p of a decoder conv reads at its tap t
    the up-convolved voxel 2y + p + t, which is input voxel y + l through
    transposed-conv tap a, l = (p + t) // 2 and a = (p + t) % 2: so
    t = 2l + a - p. In 3D, p, l and a are indices z*4 + y*2 + x, like an
    octant's, and t is a flat index into a 3x3x3 kernel. Returns
    dec_tap[p, l, a], that triple's t, or 27 where t leaves 0..2 on some
    axis; and parity[t, a], low_tap[t, a], the one (p, l) that each of the
    216 pairs (t, a) meets.
    """
    offsets = (np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1  # (z, y, x) of each index
    t = 2 * offsets[None, :, None] + offsets[None, None, :] - offsets[:, None, None]
    dec_tap = np.where(((t >= 0) & (t <= 2)).all(axis=-1), t @ (9, 3, 1), 27)
    p, low, a = np.nonzero(dec_tap < 27)
    parity, low_tap = np.empty((2, 27, 8), dtype=np.intp)
    parity[dec_tap[p, low, a], a], low_tap[dec_tap[p, low, a], a] = p, low
    return dec_tap, parity, low_tap


_DEC_TAP, _PARITY, _LOW_TAP = _tap_tables()


def _pair_factors(params, up, dec):
    """The two factors of the products of every pair (t, a): the up part
    of W_dec as rows (t, o) and W_up as rows (a, i), both over columns m."""
    t = params.tensors
    w_up, w_dec = t[f"{up}.kernel"], t[f"{dec}.kernel"]
    ci, cm = w_up.shape[:2]
    w_t = w_dec[:, :cm].reshape(-1, cm, 27).transpose(2, 0, 1).reshape(-1, cm)
    w_a = w_up.reshape(ci, cm, 8).transpose(2, 0, 1).reshape(-1, cm)
    return w_t, w_a


def _compose(params, up, dec):
    """Decoder unit `dec` and the transposed conv `up` it reads as two
    convs (module docstring): (skip kernel, bias, composed kernel).

    The skip kernel is the view kernel[:, c_up:] of `dec`'s kernel, and the
    bias is b_dec + sum_t W_dec[:, :c_up, t] @ b_up. Channel group p of the
    (8*Co, Ci, 2, 2, 2) composed kernel is the k = 2 conv of the
    low-resolution input that output parity p reads:
    K[p, o, i, l] = sum over m and over the pairs (t, a) that meet (p, l)
    of W_dec[o, m, t] * W_up[i, m, a]. One GEMM makes the products of all
    216 pairs, and a gather sums them per (p, l). The kernel is a view of
    those sums laid out as a conv's GEMMs read a kernel (layers.ConvCarry),
    so a carry packs it without a copy.
    """
    w_t, w_a = _pair_factors(params, up, dec)
    co, ci = w_t.shape[0] // 27, w_a.shape[0] // 8
    pairs = np.empty((28 * co, 8 * ci), dtype=w_t.dtype)  # rows (t, o); t = 27 is zero
    np.matmul(w_t, w_a.T, out=pairs[:27 * co])
    pairs[27 * co:] = 0
    k = pairs.reshape(28, co, 8, ci)[_DEC_TAP, :, np.arange(8)].sum(axis=2)  # (p, l, o, i)
    # laid out (l_z, p, o, i, l_y, l_x): (2 * 8 * co, ci * 4) as a conv packs it
    packed = np.ascontiguousarray(k.reshape(8, 2, 2, 2, co, ci).transpose(1, 0, 4, 5, 2, 3))
    composed = packed.reshape(2, 8 * co, ci, 2, 2).transpose(1, 2, 0, 3, 4)
    t = params.tensors
    bias = t[f"{dec}.bias"] + (w_t @ t[f"{up}.bias"]).reshape(27, co).sum(axis=0)
    return t[f"{dec}.kernel"][:, w_t.shape[1]:], bias, composed


def _dec_forward(composed, x, crop, low_carry=None, skip_carry=None, out=None):
    """The pre-activation of a decoder unit from _compose's `composed`: the
    skip conv of the skip crop, into `out` when given, with channel group p
    of the composed conv of x, the transposed conv's low-resolution input,
    added onto its octant p. Each conv takes its own conv3d_forward
    `carry`."""
    skip_kernel, bias, kernel = composed
    pre = layers.conv3d_forward(crop, skip_kernel, bias, carry=skip_carry, out=out)
    low = layers.conv3d_forward(x, kernel, None, carry=low_carry)
    co = skip_kernel.shape[0]
    for i in range(8):
        octant = layers._octant(pre, i)
        octant += low[:, i * co:(i + 1) * co]
    return pre


def _octant_planes(g, b, z0, z1):
    """Planes z0..z1-1 of batch item b's gradient at the composed conv's
    output: channel group i is octant i of the decoder unit's gradient g."""
    co = g.shape[1]
    out = np.empty((8 * co, z1 - z0) + tuple(n // 2 for n in g.shape[3:]), dtype=g.dtype)
    for i in range(8):
        out[i * co:(i + 1) * co] = layers._octant(g[b], i)[:, z0:z1]
    return out


def _dec_backward(params, up, dec, grad, cache, grads):
    """Pops the cache entries of unit `dec` and of `up`, (low-resolution
    input x, composed kernel), and returns the gradients of x and of the
    skip crop, written over them, with those of `dec`'s and `up`'s
    parameters in `grads`; masks `grad` in place.

    The composed conv's input gradient and dK come from its conv3d_backward
    on the eight octants of the masked gradient, gathered a slab of planes
    at a time; the skip conv's follow. dK goes back onto the up part of
    W_dec and onto W_up through the pairs (t, a) of each (p, l), one GEMM
    each, and the skip conv's bias gradient onto b_up and W_dec.
    """
    skip, mask = cache.pop(dec)
    x, composed = cache.pop(up)
    g = layers.relu_backward(mask, grad)
    del mask
    g_x, g_composed, _ = layers.conv3d_backward(x, composed, partial(_octant_planes, g), out=x)
    del composed
    t = params.tensors
    w_up, b_up = t[f"{up}.kernel"], t[f"{up}.bias"]
    ci, cm = w_up.shape[:2]
    g_skip, g_skip_kernel, g_bias = layers.conv3d_backward(skip, t[f"{dec}.kernel"][:, cm:], g,
                                                           out=skip)
    co = g.shape[1]
    del g

    w_t, w_a = _pair_factors(params, up, dec)
    # dK at every pair (t, a): rows (t, o), columns (a, i)
    pairs = g_composed.reshape(8, co, ci, 8)[
        _PARITY[:, None], np.arange(co)[:, None], :, _LOW_TAP[:, None]].reshape(27 * co, -1)
    g_t = (pairs @ w_a).reshape(27, co, cm)
    g_t += np.outer(g_bias, b_up)
    grads[f"{dec}.kernel"] = np.concatenate(
        [g_t.transpose(1, 2, 0).reshape(co, cm, 3, 3, 3), g_skip_kernel], axis=1)
    grads[f"{dec}.bias"] = g_bias
    grads[f"{up}.kernel"] = (pairs.T @ w_t).reshape(8, ci, cm).transpose(1, 2, 0).reshape(
        w_up.shape)
    grads[f"{up}.bias"] = g_bias @ w_t.reshape(27, co, cm).sum(axis=0)
    return g_x, g_skip


class _Fifo:
    """Skip planes waiting for the decoder, first in first out: a copy of
    the planes of each put, oldest first."""

    def __init__(self):
        self.parts = []

    def put(self, planes: np.ndarray) -> None:
        self.parts.append(planes.copy())

    def take(self, n: int) -> np.ndarray:
        """The first n planes, which leave the FIFO."""
        got = []
        while n:
            part = self.parts.pop(0)
            if part.shape[2] > n:
                self.parts.insert(0, part[:, :, n:])
                part = part[:, :, :n]
            got.append(part)
            n -= part.shape[2]
        return got[0] if len(got) == 1 else np.concatenate(got, axis=2)


class DepthStream:
    """A forward pass over an input of shape (D, H, W) fed in depth.

    `forward(params, x, stream=s)` pushes x's planes as the next input
    planes, and every stage computes each output plane that the planes in
    so far complete (see the module docstring). With `keep`, (cl labels
    u8, tissue labels u8, cl_prob f32) arrays of one (d, h, w) shape, the
    stream of a batch of 1 writes that corner of its output into them, and
    they are its `outputs`; without it, `outputs` are the two heads'
    (B, 3, ...) probability maps over the whole output. With `cache`,
    forward's, the stream writes its entries' planes into whole arrays and
    fills it once the last plane is in, all but enc1a's input. Its convs
    size their slabs to `budget` elements (layers.ConvCarry).
    """

    def __init__(self, params: NetworkParams, shape: tuple, batch: int = 1,
                 keep: tuple | None = None, cache: dict | None = None,
                 budget: int | None = None):
        self.out_shape = tuple(output_shape(s) for s in shape)
        self.params, self.shape, self.batch, self.cache = params, tuple(shape), batch, cache
        n = shape[0]
        # per pooling: the planes its input has in all, how many it has had,
        # an odd plane kept from the last push and the decoder's skip FIFO
        self.pool_planes = {"pool1": n - 4, "pool2": (n - 4) // 2 - 4}
        self.pool_got = {"pool1": 0, "pool2": 0}
        self.odd = {"pool1": None, "pool2": None}
        self.skips = {"pool1": _Fifo(), "pool2": _Fifo()}
        self.composed = {up: _compose(params, up, dec)
                         for up, dec in (("up2", "dec2a"), ("up1", "dec1a"))}
        # the shape of each array of a cache (each unit's input depth sizes its
        # carry), with a cache those made so far, and the input that each
        # unit's or pooling's output planes go to
        self.shapes, self.arrays, self.writes = {}, {}, {}
        self._shapes()
        self.carries = {name: layers.ConvCarry(self.shapes[name][2], budget)
                        for name, _, _ in param_specs(params.config)[:-2]}
        self.pushed = self.emitted = 0
        # without keep, allocated by the first head planes, in their dtype
        self.keep = self.outputs = keep
        self.depth = _push_depth(params.config.base_channels, shape)

    def push(self, x: np.ndarray) -> None:
        if x.shape[:2] != (self.batch, len(CONTRAST_NAMES)) or x.shape[3:] != self.shape[1:]:
            raise ContractError(f"planes {x.shape} do not fit a stream of "
                                f"{(self.batch, len(CONTRAST_NAMES)) + self.shape}")
        if not 0 < x.shape[2] <= self.shape[0] - self.pushed:
            raise ContractError(f"{x.shape[2]} planes pushed into a stream of depth "
                                f"{self.shape[0]} that has had {self.pushed}")
        self.pushed += x.shape[2]
        first = self.pool_got["pool1"] // 2  # the push's first pooled plane
        pooled = [p for z in range(0, x.shape[2], self.depth)
                  if (p := self._level1(x[:, :, z:z + self.depth])) is not None]
        if pooled and self.cache is not None:  # its planes of enc2a's whole input
            pooled = [self.arrays["enc2a"][:, :, first:self.pool_got["pool1"] // 2]]
        if pooled:
            self._lower(pooled[0] if len(pooled) == 1 else np.concatenate(pooled, axis=2))
        if self.pushed == self.shape[0] and self.cache is not None:
            a = self.arrays
            for name, kind, _ in param_specs(self.params.config)[:-2]:
                self.cache[name] = (a.get(name), self.composed[name][2] if kind == "tconv"
                                    else a[f"{name}.mask"])
            self.cache["heads"] = a["heads"]
            self.cache["pool"] = (a["pool1.argmax"], a["pool2.argmax"])

    def _shapes(self):
        """Sizes, from the stream's shape, the arrays of a cache: each
        unit's input (a decoder unit's is its skip crop) under its name,
        its row-packed ReLU mask (`unit.mask`), each pooling's argmax
        (`pooling.argmax`) and the heads' input ("heads"). `writes` names
        the input that each unit and pooling writes."""
        side, writer, up = np.array(self.shape), None, 0  # up: channels of a transposed conv
        for name, kind, k in param_specs(self.params.config)[:-2]:
            # a conv kernel is (out, in, ...), a transposed conv's (in, out, ...)
            channels = k[0] if kind == "tconv" else k[1] - up
            self.shapes[name] = (self.batch, channels) + tuple(side)
            if writer is not None:
                self.writes[writer] = name
            if kind == "tconv":
                side, writer, up = 2 * side, None, k[1]
                continue
            side, writer, up = side - 2, name, 0
            self.shapes[f"{name}.mask"] = (self.batch, k[0], *side[:2], -(-side[2] // 8))
            if name in ("enc1b", "enc2b"):
                side, writer = side // 2, "pool1" if name == "enc1b" else "pool2"
                self.shapes[f"{writer}.argmax"] = (self.batch, k[0]) + tuple(side)
        self.shapes["heads"] = (self.batch, k[0]) + tuple(side)  # dec1b's output
        self.writes[writer] = "heads"

    def _whole(self, key, z0, z1, dtype):
        """With a cache, planes z0..z1-1 of the whole array `key`, made at
        its first planes; None without one or for no key."""
        if self.cache is None or key is None:
            return None
        if key not in self.arrays:
            self.arrays[key] = np.empty(self.shapes[key], dtype)
        return self.arrays[key][:, :, z0:z1]

    def _level1(self, x):
        """enc1a, enc1b and pool1 on the next input planes x."""
        return self._pool("pool1", self._conv("enc1b", self._conv("enc1a", x)), 16)

    def _lower(self, p):
        """Levels 2 and 3 on the next pooled planes p, then level 1 of the
        decoder and the heads on depth // 4 dec2b planes at a time."""
        e = self._conv("enc2a", p)
        e = self._pool("pool2", self._conv("enc2b", e), 4)
        e = self._conv("enc3b", self._conv("enc3a", e))
        d = self._conv("dec2b", self._dec("up2", "dec2a", e, "pool2"))
        if d is None:
            return
        n = max(1, self.depth // 4)
        for z in range(0, d.shape[2], n):
            self._heads(self._conv("dec1b", self._dec("up1", "dec1a", d[:, :, z:z + n], "pool1")))

    def _conv(self, name, x):
        """Unit `name`, conv + ReLU in place, on the new planes x: the
        output planes they complete, or None. With a cache, they go into
        the input the unit writes, if any, and their mask into its entry."""
        if x is None:
            return None
        carry = self.carries[name]
        z0, z1 = carry.outputs(x.shape[2], 3)
        t = self.params.tensors
        act = layers.conv3d_forward(x, t[f"{name}.kernel"], t[f"{name}.bias"], carry=carry,
                                    out=self._whole(self.writes.get(name), z0, z1, x.dtype))
        layers.relu_forward(act, out=act)
        if self.cache is not None:
            self._whole(f"{name}.mask", z0, z1, np.uint8)[...] = layers.relu_mask(act)
        return act if act.shape[2] else None

    def _dec(self, up, name, x, skip):
        """Decoder unit `name` (_dec_forward) on the new planes x of the
        input of the transposed conv `up` and the next planes of skip FIFO
        `skip`: the output planes the new planes complete, or None. With a
        cache, the crop planes are those the pooling wrote into the unit's
        entry, and the output planes and their mask go into whole arrays."""
        if x is None:
            return None
        carry = self.carries[name]
        n = 2 * x.shape[2]
        z0, z1 = carry.outputs(n, 3)
        crop = (self.skips[skip].take(n) if self.cache is None
                else self._whole(name, carry.planes, carry.planes + n, x.dtype))
        act = _dec_forward(self.composed[up], x, crop, self.carries[up], carry,
                           self._whole(self.writes.get(name), z0, z1, x.dtype))
        layers.relu_forward(act, out=act)
        if self.cache is not None:
            self._whole(f"{name}.mask", z0, z1, np.uint8)[...] = layers.relu_mask(act)
        return act if act.shape[2] else None

    def _pool(self, name, x, m):
        """Pooling `name` of the new planes x, after an odd plane kept from
        the last push; keeps an odd trailing plane. Queues the decoder's
        crop of x first: a margin of m planes, rows and columns on every
        side of the pooling's input; with a cache, it goes straight into
        the crop of the decoder unit's entry. Returns the new pooled planes,
        or None; with a cache, they and their argmax go into whole arrays."""
        if x is None:
            return None
        z = self.pool_got[name]  # x's first plane
        self.pool_got[name] += x.shape[2]
        lo, hi = max(z, m), min(z + x.shape[2], self.pool_planes[name] - m)
        if lo < hi:
            crop = x[:, :, lo - z:hi - z, m:-m, m:-m]
            if self.cache is None:
                self.skips[name].put(crop)
            else:  # straight into the crop that the decoder reads
                self._whole(_SKIP_READERS[name], lo - m, hi - m, x.dtype)[...] = crop
        if self.odd[name] is not None:
            x = np.concatenate([self.odd[name], x], axis=2)
            z -= 1
        n = x.shape[2] // 2 * 2
        self.odd[name] = x[:, :, n:].copy() if n < x.shape[2] else None
        if n == 0:
            return None
        p, am = layers.maxpool3d_forward(x[:, :, :n], want_argmax=self.cache is not None)
        if self.cache is not None:
            z0, z1 = z // 2, (z + n) // 2
            self._whole(f"{name}.argmax", z0, z1, np.uint8)[...] = am
            out = self._whole(self.writes[name], z0, z1, p.dtype)
            out[...] = p
            p = out  # the planes are kept once
        return p

    def _heads(self, d1):
        if d1 is None:
            return
        t = self.params.tensors
        cl, tissue = (layers.channel_softmax(layers.conv3d_forward(
            d1, t[f"{head}.kernel"], t[f"{head}.bias"])) for head in ("head_cl", "head_tissue"))
        z0 = self.emitted
        self.emitted += d1.shape[2]
        if self.keep is None:
            if self.outputs is None:
                self.outputs = tuple(np.empty(p.shape[:2] + self.out_shape, dtype=p.dtype)
                                     for p in (cl, tissue))
            self.outputs[0][:, :, z0:self.emitted] = cl
            self.outputs[1][:, :, z0:self.emitted] = tissue
            return
        cl_labels, tissue_labels, prob = self.outputs
        d, h, w = prob.shape
        n = max(0, min(self.emitted, d) - z0)
        cl, tissue = cl[0, :, :n, :h, :w], tissue[0, :, :n, :h, :w]
        cl_labels[z0:z0 + n] = cl.argmax(axis=0)
        tissue_labels[z0:z0 + n] = tissue.argmax(axis=0)
        prob[z0:z0 + n] = cl[1] + cl[2]


def _push_depth(base_channels: int, shape: tuple) -> int:
    """The depth of a stream over an input of `shape`: the input planes of
    each push of inference, and of each level-1 chunk of a longer push. The
    most, in a multiple of 4 and at least 4, whose new planes of the six
    level-1 arrays (the enc1a and enc1b outputs; the skip crop, composed conv
    output, 2C channels a plane in octants, and dec1a output of `_dec`; the
    dec1b output) take a quarter of SLAB_BUDGET_ELEMS at most, so that a
    conv's slab stays the largest array of a push. A multiple of 4 keeps
    every push in whole pooling pairs down to level 3.
    """
    _, h, w = shape
    plane = sum(ch * base_channels * (h - m) * (w - m)
                for ch, m in ((1, 2), (2, 4), (2, 36), (2, 38), (2, 38), (2, 40)))
    return max(4, layers.SLAB_BUDGET_ELEMS // (4 * plane) // 4 * 4)


def forward(params: NetworkParams, x: np.ndarray, want_cache: bool = False,
            stream: DepthStream | None = None):
    """Run the network on a (B, 3, D, H, W) batch of the CONTRAST_NAMES,
    each side divisible by 4 and at least 44.

    Returns (cl_probs, tissue_probs, cache); both outputs are softmax
    probability maps of shape (B, 3, D-40, H-40, W-40). The cache maps
    each conv unit to (input, ReLU mask packed per row), each transposed
    conv to (input, composed kernel), "heads" to the heads' input and
    "pool" to both argmaxes; enc1a's input is a view of x.

    Every call runs a DepthStream. With a cache, x goes in as one push,
    which runs level 1 through it before the lower levels (module
    docstring); without one, in pushes of the stream's depth, so that no
    activation is held whole. With `stream`, x is instead the next planes
    of that stream's input, the outputs go to the stream, and forward
    returns None.
    """
    if x.ndim != 5 or x.shape[1] != len(CONTRAST_NAMES):
        raise ContractError(f"input shape {x.shape} != (B, {len(CONTRAST_NAMES)}, D, H, W)")
    if stream is not None:
        stream.push(x)
        return None
    cache = {} if want_cache else None
    stream = DepthStream(params, x.shape[2:], batch=x.shape[0], cache=cache)
    step = x.shape[2] if want_cache else stream.depth
    for z in range(0, x.shape[2], step):
        stream.push(x[:, :, z:z + step])
    if cache is not None:
        cache["enc1a"] = (x, cache["enc1a"][1])
    cl_probs, tissue_probs = stream.outputs
    return cl_probs, tissue_probs, cache


def backward(params: NetworkParams, cache: dict,
             grad_cl_logits: np.ndarray, grad_tissue_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given its gradients at both head logits.

    Consumes the cache: every entry is popped when backward is done with
    it, so each array is freed once its gradients are computed and the
    cache is empty on return. Each unit's gradient is masked by its
    row-packed ReLU mask, and each conv's input gradient is written over
    its input. Each skip gradient is the input gradient of its decoder
    unit's skip conv, added into the crop of the pooled gradient; at level
    1 that happens a slab of planes at a time (_enc1b_grad).
    """
    am1, am2 = cache.pop("pool")
    grads: dict[str, np.ndarray] = {}

    d1 = cache.pop("heads")
    g_cl, gw, gb = layers.conv3d_backward(d1, params.tensors["head_cl.kernel"], grad_cl_logits)
    grads["head_cl.kernel"], grads["head_cl.bias"] = gw, gb
    g, gw, gb = layers.conv3d_backward(
        d1, params.tensors["head_tissue.kernel"], grad_tissue_logits, out=d1)
    grads["head_tissue.kernel"], grads["head_tissue.bias"] = gw, gb
    g += g_cl
    del d1, g_cl

    g = _unit_backward(params, "dec1b", g, cache, grads)
    g, g_c1 = _dec_backward(params, "up1", "dec1a", g, cache, grads)
    g = _unit_backward(params, "dec2b", g, cache, grads)
    g, g_c2 = _dec_backward(params, "up2", "dec2a", g, cache, grads)
    g = _unit_backward(params, "enc3b", g, cache, grads)
    g = _unit_backward(params, "enc3a", g, cache, grads)
    g = layers.maxpool3d_backward(am2, g)
    layers.crop_center3d(g, g_c2.shape[2:])[...] += g_c2
    del g_c2
    g = _unit_backward(params, "enc2b", g, cache, grads)
    g = _unit_backward(params, "enc2a", g, cache, grads)
    # enc1b's output gradient is built a slab of planes at a time inside
    # its conv backward
    x, mask = cache.pop("enc1b")
    g, grads["enc1b.kernel"], grads["enc1b.bias"] = layers.conv3d_backward(
        x, params.tensors["enc1b.kernel"], partial(_enc1b_grad, am1, g, g_c1, mask), out=x)
    del x, mask, am1, g_c1
    _unit_backward(params, "enc1a", g, cache, grads, need_grad_x=False)
    return grads


def _enc1b_grad(argmax, grad, skip, mask, b, z0, z1):
    """Planes z0..z1-1 of batch item b's gradient at enc1b's output: the
    pooled gradient `grad` routed to the octants that `argmax` names, plus
    the skip gradient `skip` where the decoder's centre crop covers them,
    masked by enc1b's row-packed ReLU `mask`."""
    g = layers._maxpool_grad_planes(argmax[b:b + 1], grad[b:b + 1], z0, z1)
    _, _, d, h, w = skip.shape
    oz, oy, ox = ((2 * n - s) // 2 for n, s in zip(argmax.shape[2:], (d, h, w)))
    lo, hi = max(z0, oz), min(z1, oz + d)
    if lo < hi:
        g[0, :, lo - z0:hi - z0, oy:oy + h, ox:ox + w] += skip[b, :, lo - oz:hi - oz]
    return layers.relu_backward(mask[b:b + 1, :, z0:z1], g)[0]


@dataclass
class StepResult:
    total_loss: float
    cl_loss: float
    tissue_loss: float


def train_step(params: NetworkParams, state: AdamState, batch: dict,
               tissue_head: bool) -> StepResult:
    """One forward, combined weighted-CE loss, full backward, one Adam update.

    batch: input (B,3,s,s,s) float; cl/tissue/wml label crops (B,s-40,...)
    uint8; optional provenance (reported on non-finite failures). A
    non-finite loss or gradient raises NonFiniteError before the update, so
    the parameters and the Adam state are left as they were. Gradients are
    checked in backward order: the first one named is where a NaN arose.
    """
    prov = batch.get("provenance", "<unknown patch>")
    cl_probs, tissue_probs, cache = forward(params, batch["input"], want_cache=True)
    total, (cl_loss, tissue_loss), (g_cl, g_tissue) = combined_loss(
        cl_probs, tissue_probs,
        batch["cl_labels"], batch["tissue_labels"], batch["wml_labels"], tissue_head)
    if not np.isfinite(total):
        raise layers.NonFiniteError(f"non-finite loss at patch {prov}")
    grads = backward(params, cache, g_cl, g_tissue)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise layers.NonFiniteError(f"non-finite gradient of {name} at patch {prov}")
    adam_step(params.tensors, grads, state)
    return StepResult(total_loss=total, cl_loss=cl_loss, tissue_loss=tissue_loss)


# ---------------------------------------------------------------------------
# Whole-volume sliding-window inference
# ---------------------------------------------------------------------------


def reflect_indices(n: int, start: int, length: int) -> np.ndarray:
    """Mirror-boundary index map [start, start+length) into [0, n)."""
    idx = np.arange(start, start + length)
    if n == 1:
        return np.zeros(length, dtype=np.intp)
    period = 2 * n - 2
    m = np.mod(idx, period)
    return np.where(m < n, m, period - m).astype(np.intp)


def mirror_pad(vol: np.ndarray, before: tuple[int, int, int],
               after: tuple[int, int, int]) -> np.ndarray:
    """Mirror padding without the edge-repeat, any pad size: the gather by
    `reflect_indices` along each axis."""
    return np.pad(vol, tuple(zip(before, after)), mode="reflect")


def normalize_volume(vol: np.ndarray, name: str = "volume") -> np.ndarray:
    """A float32 copy of `vol` z-scored by the mean and standard deviation of
    its nonzero (brain) voxels, or of all voxels if none is nonzero; a
    standard deviation of 0 divides by 1. The brain voxels are gathered once
    for both statistics, and the copy is shifted and scaled in place, which
    gives the bytes of `(vol - mu) / sd`. A statistic that is not finite, as
    a NaN or infinite voxel makes it, raises NonFiniteError naming `name`."""
    vol = vol.astype(np.float32)
    brain = vol[vol != 0]
    if not brain.size:
        brain = vol.reshape(-1)
    with np.errstate(invalid="ignore", over="ignore"):  # an inf voxel: inf - inf
        mu, sd = float(brain.mean()), float(brain.std())
    if not (np.isfinite(mu) and np.isfinite(sd)):
        raise layers.NonFiniteError(f"{name}: non-finite mean {mu} or standard deviation "
                                    f"{sd} of its voxels")
    sd = sd or 1.0
    vol -= mu
    vol /= sd
    return vol


def _height_slices(out_height: int) -> int:
    """The height slices of an inference whose padded subject gives
    `out_height` output rows: one per BLAS thread of the process, but no
    more than leave every slice SHRINK_PER_SIDE rows, so that no slice
    computes more margin than output. So a 56^3 subject takes one slice,
    a 96^3 one two on two threads, and a process whose OpenBLAS runs at
    one thread, as a replication worker's does, one."""
    return max(1, min(blas_threads() or 1, out_height // SHRINK_PER_SIDE))


def sliding_window_inference(params: NetworkParams, contrasts: np.ndarray,
                             drop_channel: str | None = None):
    """Predict a whole subject with one forward pass over it, mirror-padded
    by 20 voxels before and 20 to 23 after on each axis (a multiple of 4).

    The pass is split along the height into n slices (_height_slices) of
    whole multiples of 4 output rows. Each slice streams the padded rows
    it reads, its rows plus 40, through a DepthStream of its own, one
    `forward` call per push of the stream's depth; each push is gathered
    from the contrasts through the index map of `mirror_pad`, so the
    padded volume is never built. The caller's thread runs the first
    slice and a worker thread each other one, with OpenBLAS at one thread
    for the whole call and at its count again after it, on an error too;
    a slice that raises stops the others at their next push, and its
    error is raised once all have ended. With n > 1 the streams' convs
    size their slabs to SLAB_BUDGET_ELEMS // n^2, so that at C=4 the n
    streams together peak no higher than one does (96^3: 31 MiB in two
    slices, 38 MiB in one). At C=16 a conv of a slice needs more than
    its share for one plane, and two slices of 96^3 peak at 113 MiB,
    against 101 MiB for one stream. The bytes are those of one pass however
    many slices run (module docstring). The name recalls the overlap tiles
    this pass replaced.

    contrasts: (3, D, H, W) already-normalized float32. Returns
    (cl_labels u8, tissue_labels u8, cl_prob f32, run): the first three at
    the input geometry, cl_prob the per-voxel probability of any lesion
    class, and run is {"padded_shape", "forward_calls", "slices"}, the
    calls summed over the slices. If drop_channel is set, that T2*
    channel is zeroed in every push.
    """
    if contrasts.ndim != 4 or contrasts.shape[0] != len(CONTRAST_NAMES):
        raise ContractError(f"contrasts shape {contrasts.shape} invalid")
    if drop_channel is not None:
        if drop_channel not in DROPPABLE_CHANNELS:
            raise ContractError(
                f"drop_channel must be one of {DROPPABLE_CHANNELS}, got {drop_channel!r}")
        drop = CONTRAST_CHANNELS[drop_channel]

    shape = contrasts.shape[1:]
    margin = SHRINK_PER_SIDE // 2
    padded = tuple(s + SHRINK_PER_SIDE + (-s) % 4 for s in shape)
    fours = output_shape(padded[1]) // 4  # output rows, in fours
    n = min(_height_slices(4 * fours), fours)
    rows = [4 * (fours * i // n) for i in range(n + 1)]  # slice i: output rows[i]:rows[i + 1]
    outputs = (np.empty(shape, np.uint8), np.empty(shape, np.uint8), np.empty(shape, np.float32))
    ix = reflect_indices(shape[2], -margin, padded[2])
    calls = [0] * n
    failed = threading.Event()

    def run(i):
        y0, y1 = rows[i], rows[i + 1]
        try:
            stream = DepthStream(params, (padded[0], y1 - y0 + SHRINK_PER_SIDE, padded[2]),
                                 keep=tuple(o[:, y0:y1] for o in outputs),
                                 budget=layers.SLAB_BUDGET_ELEMS // n ** 2)
            iy = reflect_indices(shape[1], y0 - margin, y1 - y0 + SHRINK_PER_SIDE)
            for z0 in range(0, padded[0], stream.depth):
                if failed.is_set():
                    return
                iz = reflect_indices(shape[0], z0 - margin, min(stream.depth, padded[0] - z0))
                chunk = np.take(np.take(contrasts[:, iz], iy, axis=2), ix, axis=3)
                if drop_channel is not None:
                    chunk[drop] = 0.0
                forward(params, chunk[None], stream=stream)
                calls[i] += 1
        except BaseException:
            failed.set()
            raise

    if n == 1:
        run(0)
    else:
        threads = blas_threads()
        set_blas_threads(1)
        try:
            with ThreadPoolExecutor(n - 1) as pool:
                workers = [pool.submit(run, i) for i in range(1, n)]
                run(0)
                for w in workers:
                    w.result()
        finally:
            set_blas_threads(threads)
    return (*outputs, {"padded_shape": list(padded), "forward_calls": sum(calls), "slices": n})


# ---------------------------------------------------------------------------
# Checkpointing: a volume_io record (see its module docstring) with a
# float32 payload
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    """A checkpoint is missing, unreadable, malformed or incomplete."""


class CheckpointMismatchError(CheckpointError):
    """A complete checkpoint of a network other than the one built here."""


def save_checkpoint(path: str | Path, params: NetworkParams, state: AdamState,
                    iteration: int, sampler_draws: int) -> None:
    """Parameters then Adam m then v, each in param_shapes order, float32 LE.

    Written as a volume_io record, so a header on disk implies its complete
    payload unless something later truncates it.
    """
    order = list(param_shapes(params.config))
    header = {
        "format": "clseg-checkpoint-v1",
        "config": asdict(params.config),
        "seed": params.seed,
        "iteration": iteration,
        "sampler_draws": sampler_draws,
        "adam": {
            "learning_rate": state.learning_rate,
            "beta1": state.beta1,
            "beta2": state.beta2,
            "epsilon": state.epsilon,
            "step_count": state.step_count,
        },
        "payload_order": order,
    }
    chunks = [params.tensors[k] for k in order]
    chunks += [state.m[k] for k in order]
    chunks += [state.v[k] for k in order]
    payload = np.concatenate([np.asarray(c, dtype="<f4").ravel() for c in chunks])
    volume_io.write_record(path, header, payload.tobytes())


def load_checkpoint(path: str | Path):
    """Returns (params, adam_state, iteration, sampler_draws).

    Raises CheckpointError, which resume skips, for a checkpoint that is not
    whole: a file missing or unreadable, a header field missing or
    unparsable (seed, iteration, sampler_draws and Adam's step_count are
    non-negative integers), or a payload whose size disagrees with the
    header. Raises
    CheckpointMismatchError, which resume refuses, for a whole header of
    another network: network keys other than NetworkConfig's fields, values
    that are not a valid network, or a payload_order other than
    param_shapes'. That holds whatever the payload of such a header holds.
    Raises NonFiniteError, which resume does not skip, for a NaN or an
    infinity in a whole payload, naming the first tensor that holds one.
    """
    try:
        header, raw = volume_io.read_record(path)
    except volume_io.VolumeError as e:
        raise CheckpointError(f"checkpoint {path}: {e}") from e
    if header.get("format") != "clseg-checkpoint-v1":
        raise CheckpointError(f"not a checkpoint: {path}")
    try:
        net, order, a = dict(header["config"]), list(header["payload_order"]), header["adam"]
        adam = {k: float(a[k]) for k in ("learning_rate", "beta1", "beta2", "epsilon")}
        counts = [header["seed"], header["iteration"], header["sampler_draws"], a["step_count"]]
        if any(type(n) is not int or n < 0 for n in counts):
            raise ValueError(f"seed, iteration, sampler_draws, adam step_count {counts} "
                             "are not all non-negative integers")
        seed, iteration, draws, adam["step_count"] = counts
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"malformed checkpoint header {path}: {e!r}") from e
    names = {f.name for f in fields(NetworkConfig)}
    if set(net) != names:
        raise CheckpointMismatchError(f"checkpoint {path} is of another network: its network "
                                      f"keys differ from this one's in {sorted(set(net) ^ names)}")
    cfg = NetworkConfig(**net)
    try:
        cfg.validate()
    except ContractError as e:
        raise CheckpointMismatchError(f"checkpoint {path} has {e}") from e
    shapes = param_shapes(cfg)
    want = list(shapes)
    if order != want:
        foreign = [k for k in order if k not in want] + [k for k in want if k not in order]
        raise CheckpointMismatchError(f"checkpoint {path} is of another network: its payload_"
                                      f"order differs from this one's in {foreign or 'order'}")
    expected = 3 * sum(int(np.prod(shape)) for shape in shapes.values())
    if len(raw) != 4 * expected:
        raise CheckpointError(
            f"checkpoint payload {path} has {len(raw)} bytes, expected {4 * expected}")
    payload = np.frombuffer(raw, dtype="<f4")
    params = NetworkParams(cfg, seed, {})

    def take(offset, what):
        tensors = {}
        for k in order:
            n = int(np.prod(shapes[k]))
            tensors[k] = payload[offset:offset + n].reshape(shapes[k]).copy()
            if not np.isfinite(tensors[k]).all():
                raise layers.NonFiniteError(f"checkpoint {path}: {what} {k} is not finite")
            offset += n
        return tensors, offset

    params.tensors, off = take(0, "parameter")
    m, off = take(off, "Adam moment m of")
    v, off = take(off, "Adam moment v of")
    return params, AdamState(**adam, m=m, v=v), iteration, draws
