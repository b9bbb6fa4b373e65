"""Three-level volumetric U-Net with two softmax heads.

Valid convolutions only, so a cubic input of side s yields both head
outputs at side s - 40 (68 -> 28 with the default patch). Each encoder
level applies two 3x3x3 convs (the second doubling the channel width),
followed by 2x2x2 max pooling; the decoder mirrors it with stride-2
transposed convs and center-cropped skip concatenations; both 1x1x1 heads
read the final full-resolution decoder features.

The network is fixed but for its base width C and its training patch
side. It reads the three contrasts of CONTRAST_NAMES, and each head has
one output per class code of its label volume (volume_io.LABEL_CODES),
three each. Channel plan:
    enc1: 3->C, C->2C        dec2: (8C+4C)->4C, 4C->4C
    enc2: 2C->2C, 2C->4C     dec1: (4C+2C)->2C, 2C->2C
    enc3: 4C->4C, 4C->8C     heads: 2C->3 (x2)
    up2: 8C->8C, up1: 4C->4C (transposed)

Every ReLU runs in place on its conv's output, and `forward` frees each
activation once it is dead. The decoder reads only the centre of the two
pooled activations (enc1b, enc2b outputs), so right after pooling
`forward` copies that crop and frees the activation.

Without a cache, the full-resolution level runs in depth chunks of the
pooled grid, ACTIVATION_BUDGET_ELEMS / SLAB_BUDGET_ELEMS (4) of them. An
encoder chunk runs enc1a and enc1b on its input planes plus a 4-plane
halo, pools them and copies its planes of the skip crop; a decoder chunk
up-convolves its planes of the dec2b output, concatenates them with its
planes of the skip crop plus a 4-plane halo and runs dec1a and dec1b. An
inference tile thus holds whole only its input, the pooled enc1b output,
both skip crops, levels 2 and 3, the dec1b output and the heads, never an
enc1b output or a dec1a input. The chunks compute the values of one pass;
the BLAS rounds them alike while each chunk's products stay large enough
for its general kernel (see the equivalence tests).

For training the chunk is the whole patch and the cache holds one array
per activation: a unit's entry is (input, activation), and its ReLU
output is the next unit's input too and doubles as the ReLU mask. The
pooled units are the exception: nothing else reads their activation, so
their entries keep the bit-packed ReLU mask in its place (one bit per
element). Without a cache, pooling skips the argmax. `backward` pops every
entry as it consumes it, so each activation is released as soon as its
gradients are done.

Whole subjects are predicted with overlap tiles (U-Net's overlap-tile
strategy): the largest cubic tile whose widest level-1 activation, were
it held whole, fits the activation budget, placed on a grid that keeps
pooling aligned, so the tiled prediction equals one forward pass over the
whole mirror-padded volume. Each tile gathers its own mirrored input; the
padded volume is never built.

Parameter serialization order is the order of `param_specs`, kernel then
bias per layer, little-endian float32. Decoder concatenation order is
[up-convolved features, cropped skip features].
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import layers, volume_io
from .layers import ContractError
from .losses import LossConfig, combined_loss
from .optim import AdamState, adam_step
from .volume_io import CONTRAST_NAMES, LABEL_CODES

SHRINK_PER_SIDE = 40  # total valid-conv shrinkage of the 3-level network
# Upper bound, in elements (64 MiB in float32), on the widest level-1
# activation an inference tile would hold if level 1 ran whole; see
# tile_grid. Level 1 runs in ACTIVATION_BUDGET_ELEMS / SLAB_BUDGET_ELEMS
# depth chunks, so a chunk of it spans at most one conv slab budget.
ACTIVATION_BUDGET_ELEMS = 16 * 1024 * 1024
MIN_INPUT_SIDE = 44

CONTRAST_CHANNELS = {name: i for i, name in enumerate(CONTRAST_NAMES)}
DROPPABLE_CHANNELS = ("t2s_epi", "t2s_gre")  # MP2RAGE is never dropped


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
    """Output side for a cubic input of side `input_side`.

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


def _unit_forward(params, name, x, cache, pack_mask=False):
    """conv + relu; with a cache, stores (x, activation) under `name` for
    backward.

    The ReLU overwrites the conv output in place. The activation is the
    ReLU mask of backward: it is positive exactly where its pre-activation
    is. With `pack_mask` the cache keeps that mask alone, bit-packed, in
    place of the activation.
    """
    k = params.tensors[f"{name}.kernel"]
    b = params.tensors[f"{name}.bias"]
    pre = layers.conv3d_forward(x, k, b)
    act = layers.relu_forward(pre, out=pre)
    if cache is not None:
        cache[name] = (x, np.packbits(act > 0) if pack_mask else act)
    return act


def _unit_backward(params, name, grad, cache, grads, need_grad_x=True):
    """Pops the unit's cache entry; masks `grad` in place (the caller's
    array) and frees the activation before the conv backward."""
    x, act = cache.pop(name)
    g = layers.relu_backward(act, grad)
    del act
    gx, gw, gb = layers.conv3d_backward(x, params.tensors[f"{name}.kernel"], g,
                                        need_grad_x=need_grad_x)
    grads[f"{name}.kernel"] = gw
    grads[f"{name}.bias"] = gb
    return gx


def _place(whole, part, z0, depth):
    """Writes `part` as planes [z0, z0 + its depth) of an array of `depth`
    planes, allocated on first use. A part that spans every plane is
    returned as is, so a single chunk copies nothing."""
    if part.shape[2] == depth:
        return part
    if whole is None:
        whole = np.empty(part.shape[:2] + (depth,) + part.shape[3:], dtype=part.dtype)
    whole[:, :, z0:z0 + part.shape[2]] = part
    return whole


def forward(params: NetworkParams, x: np.ndarray, want_cache: bool = False):
    """Run the network on a (B, 3, s, s, s) batch of the CONTRAST_NAMES.

    Returns (cl_probs, tissue_probs, cache); both outputs are softmax
    probability maps of shape (B, 3, s-40, s-40, s-40). The cache maps
    each conv unit to (input, activation), where enc1b and enc2b keep the
    np.packbits ReLU mask in place of the activation, and "pool" to both
    argmaxes; enc1a's input is a view of x.

    Without a cache, level 1 runs in the depth chunks of the module
    docstring: the enc1a, enc1b and dec1a activations and the dec1a input
    are never held whole. With one, a single chunk covers the patch and
    copies nothing beyond what the whole level would.
    """
    if x.ndim != 5 or x.shape[1] != len(CONTRAST_NAMES):
        raise ContractError(f"input shape {x.shape} != (B, {len(CONTRAST_NAMES)}, s, s, s)")
    if not (x.shape[2] == x.shape[3] == x.shape[4]):
        raise ContractError(f"input must be cubic, got {x.shape[2:]}")
    side = x.shape[2]
    out_side = output_shape(side)
    pooled = (side - 4) // 2
    cache: dict | None = {} if want_cache else None
    chunks = 1 if want_cache else max(1, ACTIVATION_BUDGET_ELEMS // layers.SLAB_BUDGET_ELEMS)
    step = -(-pooled // chunks)

    # Level 1, encoder: chunk [q0, q1) of the pooled grid reads input planes
    # [2*q0, 2*q1 + 4), pools enc1b's planes [2*q0, 2*q1) and copies the
    # planes of the decoder's centre crop (side s-36, from plane 16) among
    # them. Each activation is released as soon as it is dead (`del`); with
    # a cache the arrays stay alive through the cache until backward pops them
    p1 = c1 = None
    for q0 in range(0, pooled, step):
        q1 = min(q0 + step, pooled)
        e1 = _unit_forward(params, "enc1a", x[:, :, 2 * q0:2 * q1 + 4], cache)
        s1 = _unit_forward(params, "enc1b", e1, cache, pack_mask=True)
        del e1
        p, am1 = layers.maxpool3d_forward(s1, want_argmax=want_cache)
        p1 = _place(p1, p, q0, pooled)
        del p
        if c1 is None:
            c1 = np.empty(s1.shape[:2] + (side - 36,) * 3, dtype=s1.dtype)
        z0, z1 = max(2 * q0, 16), min(2 * q1, side - 20)
        if z0 < z1:
            c1[:, :, z0 - 16:z1 - 16] = s1[:, :, z0 - 2 * q0:z1 - 2 * q0, 16:-16, 16:-16]
        del s1

    # Levels 2 and 3, whole; of s2 the decoder reads only the centre crop
    # (side (s-4)/2-12), copied right after pooling
    e2 = _unit_forward(params, "enc2a", p1, cache)
    del p1
    s2 = _unit_forward(params, "enc2b", e2, cache, pack_mask=True)
    del e2
    p2, am2 = layers.maxpool3d_forward(s2, want_argmax=want_cache)
    c2 = layers.crop_center3d(s2, ((side - 4) // 2 - 12,) * 3).copy()
    del s2
    e3 = _unit_forward(params, "enc3a", p2, cache)
    del p2
    bottom = _unit_forward(params, "enc3b", e3, cache)
    del e3
    if want_cache:
        cache["pool"] = (am1, am2)

    u2 = layers.transposed_conv3d_forward(
        bottom, params.tensors["up2.kernel"], params.tensors["up2.bias"])
    del bottom
    cat2 = np.concatenate([u2, c2], axis=1)
    del u2, c2
    d2 = _unit_forward(params, "dec2a", cat2, cache)
    del cat2
    d2 = _unit_forward(params, "dec2b", d2, cache)

    # Level 1, decoder: output planes [o0, o1) read the concatenation's
    # planes [o0, o1 + 4), up-convolved from d2's planes [o0/2, o1/2 + 2)
    d1 = None
    for o0 in range(0, out_side, 2 * step):
        o1 = min(o0 + 2 * step, out_side)
        u1 = layers.transposed_conv3d_forward(
            d2[:, :, o0 // 2:o1 // 2 + 2], params.tensors["up1.kernel"],
            params.tensors["up1.bias"])
        cat1 = np.concatenate([u1, c1[:, :, o0:o1 + 4]], axis=1)
        del u1
        if o1 == out_side:
            del c1  # its last planes are read
        d = _unit_forward(params, "dec1a", cat1, cache)
        del cat1
        d1 = _place(d1, _unit_forward(params, "dec1b", d, cache), o0, out_side)
        del d

    cl_logits = layers.conv3d_forward(
        d1, params.tensors["head_cl.kernel"], params.tensors["head_cl.bias"])
    tissue_logits = layers.conv3d_forward(
        d1, params.tensors["head_tissue.kernel"], params.tensors["head_tissue.bias"])
    cl_probs = layers.channel_softmax(cl_logits)
    tissue_probs = layers.channel_softmax(tissue_logits)

    return cl_probs, tissue_probs, cache


def backward(params: NetworkParams, cache: dict,
             grad_cl_logits: np.ndarray, grad_tissue_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given its gradients at both head logits.

    Consumes the cache: every entry is popped when backward is done with
    it, so each activation is freed once its gradients are computed and the
    cache is empty on return. The skip gradients are copied out of the
    decoder gradient, which is then freed. enc1b and enc2b are masked by
    their packed ReLU masks.
    """
    c = params.config.base_channels
    am1, am2 = cache.pop("pool")
    grads: dict[str, np.ndarray] = {}

    d1 = cache["dec1b"][1]
    g, gw, gb = layers.conv3d_backward(d1, params.tensors["head_cl.kernel"], grad_cl_logits)
    grads["head_cl.kernel"], grads["head_cl.bias"] = gw, gb
    gx_t, gw, gb = layers.conv3d_backward(
        d1, params.tensors["head_tissue.kernel"], grad_tissue_logits)
    grads["head_tissue.kernel"], grads["head_tissue.bias"] = gw, gb
    g += gx_t
    del d1, gx_t

    g = _unit_backward(params, "dec1b", g, cache, grads)
    g = _unit_backward(params, "dec1a", g, cache, grads)
    g_c1 = g[:, 4 * c:].copy()
    g, gw, gb = layers.transposed_conv3d_backward(
        cache["dec2b"][1], params.tensors["up1.kernel"], g[:, :4 * c])
    grads["up1.kernel"], grads["up1.bias"] = gw, gb

    g = _unit_backward(params, "dec2b", g, cache, grads)
    g = _unit_backward(params, "dec2a", g, cache, grads)
    g_c2 = g[:, 8 * c:].copy()
    g, gw, gb = layers.transposed_conv3d_backward(
        cache["enc3b"][1], params.tensors["up2.kernel"], g[:, :8 * c])
    grads["up2.kernel"], grads["up2.bias"] = gw, gb

    g = _unit_backward(params, "enc3b", g, cache, grads)
    g = _unit_backward(params, "enc3a", g, cache, grads)
    g = layers.maxpool3d_backward(am2, g)
    layers.crop_center3d(g, g_c2.shape[2:])[...] += g_c2
    del g_c2
    g = _unit_backward(params, "enc2b", g, cache, grads)
    g = _unit_backward(params, "enc2a", g, cache, grads)
    g = layers.maxpool3d_backward(am1, g)
    layers.crop_center3d(g, g_c1.shape[2:])[...] += g_c1
    del g_c1
    g = _unit_backward(params, "enc1b", g, cache, grads)
    _unit_backward(params, "enc1a", g, cache, grads, need_grad_x=False)
    return grads


@dataclass
class StepResult:
    total_loss: float
    cl_loss: float
    tissue_loss: float


def train_step(params: NetworkParams, state: AdamState, batch: dict,
               loss_cfg: LossConfig) -> StepResult:
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
        batch["cl_labels"], batch["tissue_labels"], batch["wml_labels"], loss_cfg)
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


def normalize_volume(vol: np.ndarray) -> np.ndarray:
    """Z-score over nonzero (brain) voxels; falls back to the whole volume."""
    vol = vol.astype(np.float32)
    mask = vol != 0
    if not mask.any():
        mask = np.ones_like(vol, dtype=bool)
    mu = float(vol[mask].mean())
    sd = float(vol[mask].std())
    if sd == 0:
        sd = 1.0
    return (vol - mu) / sd


def tile_grid(shape: tuple[int, ...], base_channels: int) -> tuple[int, tuple[int, ...]]:
    """(t, tiles per axis): the output side of the overlap tiles that
    `sliding_window_inference` covers a subject of `shape` with, and how
    many it places along each axis.

    Takes the fewest tiles per axis, n, whose t = 4*ceil(max(shape)/(4n))
    keeps the widest level-1 activation of a (t+40)^3 input within the
    activation budget, ACTIVATION_BUDGET_ELEMS: the enc1b output,
    2C*(t+36)^3 elements, or for t > 68 the dec1a input, 6C*(t+4)^3.
    `forward` holds neither whole, only a depth chunk of each, about
    SLAB_BUDGET_ELEMS when the tile fills the budget. What a tile holds
    whole is far smaller: its (t+40)^3 input, the pooled enc1b output
    2C*((t+36)/2)^3, the skip crop 2C*(t+4)^3, levels 2 and 3 and the
    dec1b output 2C*t^3.
    """
    longest = max(shape)
    n = 1
    while True:
        t = 4 * -(-longest // (4 * n))
        widest = max(2 * base_channels * (t + 36) ** 3, 6 * base_channels * (t + 4) ** 3)
        if widest <= ACTIVATION_BUDGET_ELEMS or t == 4:
            return t, tuple(-(-s // t) for s in shape)
        n += 1


def sliding_window_inference(params: NetworkParams, contrasts: np.ndarray,
                             drop_channel: str | None = None):
    """Predict a whole subject with overlap tiles over a mirror-padded volume.

    The output side t comes from `tile_grid`; each tile reads a
    (t+40)^3 input that overlaps its neighbours by the 20-voxel margin of
    the valid convs on each side. The padded volume is never built: each
    tile gathers its input from the contrasts through the index map of
    `mirror_pad`. Tile origins are multiples of t, itself a
    multiple of 4, so both 2x2x2 pooling stages see the same voxel grid in
    every tile as in one forward pass over the whole padded volume, and
    valid convs read nothing outside a tile's input: the tiled prediction
    equals that single pass, whatever t is.

    contrasts: (3, D, H, W) already-normalized float32. Returns
    (cl_labels u8, tissue_labels u8, cl_prob f32) at the input geometry;
    cl_prob is the per-voxel probability of any lesion class. If
    drop_channel is set, that T2* channel is zeroed in every tile's input.
    """
    if contrasts.ndim != 4 or contrasts.shape[0] != len(CONTRAST_NAMES):
        raise ContractError(f"contrasts shape {contrasts.shape} invalid")
    if drop_channel is not None:
        if drop_channel not in DROPPABLE_CHANNELS:
            raise ContractError(
                f"drop_channel must be one of {DROPPABLE_CHANNELS}, got {drop_channel!r}")
        drop = CONTRAST_CHANNELS[drop_channel]

    shape = contrasts.shape[1:]
    tile, n_tiles = tile_grid(shape, params.config.base_channels)
    window = tile + SHRINK_PER_SIDE
    margin = SHRINK_PER_SIDE // 2

    covered = tuple(n * tile for n in n_tiles)
    cl_out = np.zeros(covered, dtype=np.uint8)
    tissue_out = np.zeros(covered, dtype=np.uint8)
    prob_out = np.zeros(covered, dtype=np.float32)
    for iz in range(n_tiles[0]):
        for iy in range(n_tiles[1]):
            for ix in range(n_tiles[2]):
                z0, y0, x0 = iz * tile, iy * tile, ix * tile
                patch = contrasts
                for a, origin in enumerate((z0, y0, x0)):
                    idx = reflect_indices(shape[a], origin - margin, window)
                    patch = np.take(patch, idx, axis=a + 1)
                if drop_channel is not None:
                    patch[drop] = 0.0
                cl_p, tissue_p, _ = forward(params, patch[None])
                blk = (slice(z0, z0 + tile), slice(y0, y0 + tile), slice(x0, x0 + tile))
                cl_out[blk] = cl_p[0].argmax(axis=0).astype(np.uint8)
                tissue_out[blk] = tissue_p[0].argmax(axis=0).astype(np.uint8)
                prob_out[blk] = cl_p[0, 1] + cl_p[0, 2]
    sl = tuple(slice(0, s) for s in shape)
    return cl_out[sl], tissue_out[sl], prob_out[sl]


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
    unparsable, or a payload whose size disagrees with the header. Raises
    CheckpointMismatchError, which resume refuses, for a whole header of
    another network: network keys other than NetworkConfig's fields, values
    that are not a valid network, or a payload_order other than
    param_shapes'. That holds whatever the payload of such a header holds.
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
        adam["step_count"] = int(a["step_count"])
        seed, iteration, draws = (header["seed"], int(header["iteration"]),
                                  int(header["sampler_draws"]))
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

    def take(offset):
        tensors = {}
        for k in order:
            n = int(np.prod(shapes[k]))
            tensors[k] = payload[offset:offset + n].reshape(shapes[k]).copy()
            offset += n
        return tensors, offset

    params.tensors, off = take(0)
    m, off = take(off)
    v, off = take(off)
    return params, AdamState(**adam, m=m, v=v), iteration, draws
