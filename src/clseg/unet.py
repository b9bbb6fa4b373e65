"""Three-level volumetric U-Net with two softmax heads.

Valid convolutions only, so a cubic input of side s yields both head
outputs at side s - 40 (68 -> 28 with the default patch). Each encoder
level applies two 3x3x3 convs (the second doubling the channel width),
followed by 2x2x2 max pooling; the decoder mirrors it with stride-2
transposed convs and center-cropped skip concatenations; both 1x1x1 heads
read the final full-resolution decoder features.

Channel plan for base width C (in channels 3):
    enc1: 3->C, C->2C        dec2: (8C+4C)->4C, 4C->4C
    enc2: 2C->2C, 2C->4C     dec1: (4C+2C)->2C, 2C->2C
    enc3: 4C->4C, 4C->8C     heads: 2C->3 (x2)
    up2: 8C->8C, up1: 4C->4C (transposed)

Without a cache, `forward` frees each activation once it is dead and
applies ReLU in place, so its memory peak stays near the widest single
activation plus one conv slab. Whole subjects are predicted with
overlap tiles (U-Net's overlap-tile strategy): the largest cubic tile
whose widest activation fits the activation budget, placed on a grid that
keeps pooling aligned, so the tiled prediction equals one forward pass
over the whole mirror-padded volume.

Parameter serialization order is the order of `param_specs`, kernel then
bias per layer, little-endian float32. Decoder concatenation order is
[up-convolved features, cropped skip features].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import layers
from .layers import ContractError
from .losses import LossConfig, combined_loss
from .optim import AdamState, adam_step
from .volume_io import write_atomic

SHRINK_PER_SIDE = 40  # total valid-conv shrinkage of the 3-level network
# Upper bound on the widest activation of an inference tile, in elements
# (64 MiB in float32); see _tile_side.
ACTIVATION_BUDGET_ELEMS = 16 * 1024 * 1024
MIN_INPUT_SIDE = 44

CONTRAST_CHANNELS = {"mp2rage": 0, "t2s_epi": 1, "t2s_gre": 2}
DROPPABLE_CHANNELS = ("t2s_epi", "t2s_gre")  # MP2RAGE is never dropped


@dataclass(frozen=True)
class NetworkConfig:
    in_channels: int = 3
    base_channels: int = 16
    levels: int = 3
    input_patch: int = 68
    cl_classes: int = 3
    tissue_classes: int = 3
    instance_norm: bool = False

    def validate(self) -> None:
        if self.levels != 3:
            raise ContractError("the network is fixed at 3 resolution levels")
        output_shape(self.input_patch)
        if self.in_channels < 1 or self.base_channels < 1:
            raise ContractError("channel counts must be positive")


def output_shape(input_side: int) -> int:
    """Output side for a cubic input, traced through the actual layer stack.

    Requires input_side >= 44 and divisible by 4 (two pooling stages must
    see even sizes and every conv must see at least its kernel).
    """
    if input_side % 4 != 0 or input_side < MIN_INPUT_SIDE:
        raise ContractError(
            f"input side {input_side} invalid: must be divisible by 4 "
            f"(two 2x pooling stages) and >= {MIN_INPUT_SIDE}")
    s = input_side
    sizes = []
    for _ in range(2):          # encoder levels 1-2
        s -= 4                  # two valid 3x3x3 convs
        sizes.append(s)
        s //= 2                 # 2x2x2 max pool
    s -= 4                      # bottom convs
    for skip in reversed(sizes):
        s *= 2                  # transposed conv
        if s > skip:
            raise ContractError(f"decoder size {s} exceeds skip size {skip}")
        s -= 4                  # two decoder convs
    if s < 1:
        raise ContractError(f"input side {input_side} leaves no output")
    assert s == input_side - SHRINK_PER_SIDE
    return s


# layer name -> (kind, in_ch multiplier expression resolved in param_specs)
_ENCODER = ("enc1a", "enc1b", "enc2a", "enc2b", "enc3a", "enc3b")
_DECODER = ("dec2a", "dec2b", "dec1a", "dec1b")


def param_specs(cfg: NetworkConfig) -> list[tuple[str, str, tuple]]:
    """Fixed, documented layer order: (name, kind, kernel_shape)."""
    c = cfg.base_channels
    return [
        ("enc1a", "conv", (c, cfg.in_channels, 3, 3, 3)),
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
        ("head_cl", "conv", (cfg.cl_classes, 2 * c, 1, 1, 1)),
        ("head_tissue", "conv", (cfg.tissue_classes, 2 * c, 1, 1, 1)),
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

    def n_parameters(self) -> int:
        return int(sum(t.size for t in self.tensors.values()))

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


def _unit_forward(params, name, x, cache, norm=False):
    """conv (+ optional instance norm) + relu, caching for backward.

    Without a cache the ReLU overwrites the pre-activation in place.
    """
    k = params.tensors[f"{name}.kernel"]
    b = params.tensors[f"{name}.bias"]
    pre = layers.conv3d_forward(x, k, b)
    norm_cache = None
    if norm:
        pre, norm_cache = layers.instance_norm_forward(pre)
    if cache is None:
        return layers.relu_forward(pre, out=pre)
    cache[name] = (x, pre, norm_cache)
    return layers.relu_forward(pre)


def _unit_backward(params, name, grad, cache, grads, need_grad_x=True):
    x, pre, norm_cache = cache[name]
    g = layers.relu_backward(pre, grad)
    if norm_cache is not None:
        g = layers.instance_norm_backward(norm_cache, g)
    gx, gw, gb = layers.conv3d_backward(x, params.tensors[f"{name}.kernel"], g,
                                        need_grad_x=need_grad_x)
    grads[f"{name}.kernel"] = gw
    grads[f"{name}.bias"] = gb
    return gx


def forward(params: NetworkParams, x: np.ndarray, want_cache: bool = False):
    """Run the network on a (B, in_channels, s, s, s) batch.

    Returns (cl_probs, tissue_probs, cache); both outputs are softmax
    probability maps of shape (B, 3, s-40, s-40, s-40).
    """
    cfg = params.config
    if x.ndim != 5 or x.shape[1] != cfg.in_channels:
        raise ContractError(f"input shape {x.shape} != (B, {cfg.in_channels}, s, s, s)")
    if not (x.shape[2] == x.shape[3] == x.shape[4]):
        raise ContractError(f"input must be cubic, got {x.shape[2:]}")
    output_shape(x.shape[2])
    norm = cfg.instance_norm
    cache: dict | None = {} if want_cache else None

    # Each activation is released as soon as it is dead (`del`); with a
    # cache the arrays stay alive through the cache for backward.
    e1 = _unit_forward(params, "enc1a", x, cache, norm)
    s1 = _unit_forward(params, "enc1b", e1, cache, norm)
    del e1
    p1, am1 = layers.maxpool3d_forward(s1)
    e2 = _unit_forward(params, "enc2a", p1, cache, norm)
    del p1
    s2 = _unit_forward(params, "enc2b", e2, cache, norm)
    del e2
    p2, am2 = layers.maxpool3d_forward(s2)
    e3 = _unit_forward(params, "enc3a", p2, cache, norm)
    del p2
    bottom = _unit_forward(params, "enc3b", e3, cache, norm)
    del e3
    if want_cache:
        cache["pool"] = (am1, am2)

    u2 = layers.transposed_conv3d_forward(
        bottom, params.tensors["up2.kernel"], params.tensors["up2.bias"])
    cat2 = np.concatenate([u2, layers.crop_center3d(s2, u2.shape[2:])], axis=1)
    del u2, s2
    d2 = _unit_forward(params, "dec2a", cat2, cache, norm)
    del cat2
    d2 = _unit_forward(params, "dec2b", d2, cache, norm)

    u1 = layers.transposed_conv3d_forward(
        d2, params.tensors["up1.kernel"], params.tensors["up1.bias"])
    cat1 = np.concatenate([u1, layers.crop_center3d(s1, u1.shape[2:])], axis=1)
    del u1, s1
    d1 = _unit_forward(params, "dec1a", cat1, cache, norm)
    del cat1
    d1 = _unit_forward(params, "dec1b", d1, cache, norm)

    cl_logits = layers.conv3d_forward(
        d1, params.tensors["head_cl.kernel"], params.tensors["head_cl.bias"])
    tissue_logits = layers.conv3d_forward(
        d1, params.tensors["head_tissue.kernel"], params.tensors["head_tissue.bias"])
    cl_probs = layers.channel_softmax(cl_logits)
    tissue_probs = layers.channel_softmax(tissue_logits)

    if want_cache:
        cache["skips"] = (bottom, d2, d1)
        cache["probs"] = (cl_probs, tissue_probs)
    return cl_probs, tissue_probs, cache


def backward(params: NetworkParams, cache: dict,
             grad_cl_logits: np.ndarray, grad_tissue_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given its gradients at both head logits."""
    c = params.config.base_channels
    am1, am2 = cache["pool"]
    bottom, d2, d1 = cache["skips"]
    grads: dict[str, np.ndarray] = {}

    gx_cl, gw, gb = layers.conv3d_backward(d1, params.tensors["head_cl.kernel"], grad_cl_logits)
    grads["head_cl.kernel"], grads["head_cl.bias"] = gw, gb
    gx_t, gw, gb = layers.conv3d_backward(
        d1, params.tensors["head_tissue.kernel"], grad_tissue_logits)
    grads["head_tissue.kernel"], grads["head_tissue.bias"] = gw, gb
    g = gx_cl + gx_t

    g = _unit_backward(params, "dec1b", g, cache, grads)
    g = _unit_backward(params, "dec1a", g, cache, grads)
    g_u1, g_c1 = g[:, :4 * c], g[:, 4 * c:]
    gx, gw, gb = layers.transposed_conv3d_backward(d2, params.tensors["up1.kernel"], g_u1)
    grads["up1.kernel"], grads["up1.bias"] = gw, gb

    g = gx
    g = _unit_backward(params, "dec2b", g, cache, grads)
    g = _unit_backward(params, "dec2a", g, cache, grads)
    g_u2, g_c2 = g[:, :8 * c], g[:, 8 * c:]
    gx, gw, gb = layers.transposed_conv3d_backward(bottom, params.tensors["up2.kernel"], g_u2)
    grads["up2.kernel"], grads["up2.bias"] = gw, gb

    g = gx
    g = _unit_backward(params, "enc3b", g, cache, grads)
    g = _unit_backward(params, "enc3a", g, cache, grads)
    g = layers.maxpool3d_backward(am2, g)
    layers.crop_center3d(g, g_c2.shape[2:])[...] += g_c2
    g = _unit_backward(params, "enc2b", g, cache, grads)
    g = _unit_backward(params, "enc2a", g, cache, grads)
    g = layers.maxpool3d_backward(am1, g)
    layers.crop_center3d(g, g_c1.shape[2:])[...] += g_c1
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
    uint8; optional provenance (reported on non-finite failures).
    """
    cl_probs, tissue_probs, cache = forward(params, batch["input"], want_cache=True)
    total, (cl_loss, tissue_loss), (g_cl, g_tissue) = combined_loss(
        cl_probs, tissue_probs,
        batch["cl_labels"], batch["tissue_labels"], batch["wml_labels"], loss_cfg)
    if not np.isfinite(total):
        prov = batch.get("provenance", "<unknown patch>")
        raise layers.NonFiniteError(f"non-finite loss at patch {prov}")
    grads = backward(params, cache, g_cl, g_tissue)
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
    """Mirror padding without the edge-repeat, any pad size."""
    out = vol
    for ax in range(3):
        n = out.shape[ax]
        idx = reflect_indices(n, -before[ax], before[ax] + n + after[ax])
        out = np.take(out, idx, axis=ax)
    return out


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


def _tile_side(shape: tuple[int, ...], base_channels: int) -> int:
    """Output side t of the cubic tiles that cover a subject of `shape`.

    Takes the fewest tiles per axis, n, whose t = 4*ceil(max(shape)/(4n))
    keeps the widest activation of a (t+40)^3 input within the activation
    budget, ACTIVATION_BUDGET_ELEMS. The widest is the enc1b output,
    2C*(t+36)^3 elements, or for t > 68 the dec1a input, 6C*(t+4)^3.
    """
    longest = max(shape)
    n = 1
    while True:
        t = 4 * -(-longest // (4 * n))
        widest = max(2 * base_channels * (t + 36) ** 3, 6 * base_channels * (t + 4) ** 3)
        if widest <= ACTIVATION_BUDGET_ELEMS or t == 4:
            return t
        n += 1


def sliding_window_inference(params: NetworkParams, contrasts: np.ndarray,
                             drop_channel: str | None = None):
    """Predict a whole subject with overlap tiles over a mirror-padded volume.

    The output side t comes from `_tile_side`; each tile reads a
    (t+40)^3 input that overlaps its neighbours by the 20-voxel margin of
    the valid convs on each side. Tile origins are multiples of t, itself a
    multiple of 4, so both 2x2x2 pooling stages see the same voxel grid in
    every tile as in one forward pass over the whole padded volume, and
    valid convs read nothing outside a tile's input: the tiled prediction
    equals that single pass, whatever t is.

    contrasts: (3, D, H, W) already-normalized float32. Returns
    (cl_labels u8, tissue_labels u8, cl_prob f32) at the input geometry;
    cl_prob is the per-voxel probability of any lesion class. If
    drop_channel is set, that T2* channel is zeroed before inference.
    """
    if contrasts.ndim != 4 or contrasts.shape[0] != params.config.in_channels:
        raise ContractError(f"contrasts shape {contrasts.shape} invalid")
    if drop_channel is not None:
        if drop_channel not in DROPPABLE_CHANNELS:
            raise ContractError(
                f"drop_channel must be one of {DROPPABLE_CHANNELS}, got {drop_channel!r}")
        contrasts = contrasts.copy()
        contrasts[CONTRAST_CHANNELS[drop_channel]] = 0.0

    shape = contrasts.shape[1:]
    tile = _tile_side(shape, params.config.base_channels)
    window = tile + SHRINK_PER_SIDE
    margin = SHRINK_PER_SIDE // 2
    n_tiles = [-(-s // tile) for s in shape]
    padded = np.stack([
        mirror_pad(contrasts[c],
                   (margin,) * 3,
                   tuple(n_tiles[a] * tile - shape[a] + margin for a in range(3)))
        for c in range(contrasts.shape[0])
    ])

    covered = tuple(n * tile for n in n_tiles)
    cl_out = np.zeros(covered, dtype=np.uint8)
    tissue_out = np.zeros(covered, dtype=np.uint8)
    prob_out = np.zeros(covered, dtype=np.float32)
    for iz in range(n_tiles[0]):
        for iy in range(n_tiles[1]):
            for ix in range(n_tiles[2]):
                z0, y0, x0 = iz * tile, iy * tile, ix * tile
                patch = padded[None, :, z0:z0 + window, y0:y0 + window, x0:x0 + window]
                cl_p, tissue_p, _ = forward(params, np.ascontiguousarray(patch))
                blk = (slice(z0, z0 + tile), slice(y0, y0 + tile), slice(x0, x0 + tile))
                cl_out[blk] = cl_p[0].argmax(axis=0).astype(np.uint8)
                tissue_out[blk] = tissue_p[0].argmax(axis=0).astype(np.uint8)
                prob_out[blk] = cl_p[0, 1] + cl_p[0, 2]
    sl = tuple(slice(0, s) for s in shape)
    return cl_out[sl], tissue_out[sl], prob_out[sl]


# ---------------------------------------------------------------------------
# Checkpointing: <path>.json header + <path>.raw float32 payload
# ---------------------------------------------------------------------------


class CheckpointError(ValueError):
    """A checkpoint is missing, unreadable, malformed or incomplete."""


def save_checkpoint(path: str | Path, params: NetworkParams, state: AdamState,
                    iteration: int, sampler_draws: int) -> None:
    """Parameters then Adam m then v, each in param_shapes order, float32 LE.

    The payload is written before the header, each atomically, so a header
    on disk implies its complete payload unless something later truncates it.
    """
    path = Path(path)
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
    write_atomic(path.with_suffix(path.suffix + ".raw"), payload.tobytes())
    write_atomic(path.with_suffix(path.suffix + ".json"),
                  (json.dumps(header, indent=2) + "\n").encode("utf-8"))


def load_checkpoint(path: str | Path):
    """Returns (params, adam_state, iteration, sampler_draws).

    Raises CheckpointError when either file is missing or unreadable, the
    header is malformed, or the payload size disagrees with the header.
    """
    path = Path(path)
    json_path = path.with_suffix(path.suffix + ".json")
    raw_path = path.with_suffix(path.suffix + ".raw")
    try:
        header = json.loads(json_path.read_text(encoding="utf-8"))
        raw = raw_path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint file {e.filename}: {e.strerror}") from e
    except ValueError as e:
        raise CheckpointError(f"malformed checkpoint header {json_path}: {e}") from e
    if not isinstance(header, dict) or header.get("format") != "clseg-checkpoint-v1":
        raise CheckpointError(f"not a checkpoint: {json_path}")
    try:
        cfg = NetworkConfig(**header["config"])
        order = header["payload_order"]
        shapes = param_shapes(cfg)
        expected = 3 * sum(int(np.prod(shapes[k])) for k in order)
    except (KeyError, TypeError) as e:
        raise CheckpointError(f"malformed checkpoint header {json_path}: {e!r}") from e
    if len(raw) != 4 * expected:
        raise CheckpointError(
            f"checkpoint payload {raw_path} has {len(raw)} bytes, expected {4 * expected}")
    payload = np.frombuffer(raw, dtype="<f4")
    params = NetworkParams(cfg, header["seed"], {})

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
    a = header["adam"]
    state = AdamState(learning_rate=a["learning_rate"], beta1=a["beta1"], beta2=a["beta2"],
                      epsilon=a["epsilon"], step_count=a["step_count"], m=m, v=v)
    return params, state, int(header["iteration"]), int(header["sampler_draws"])
