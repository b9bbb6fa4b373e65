import numpy as np
import pytest

from clseg import layers as L
from clseg.losses import combined_loss
from clseg.unet import NetworkConfig, backward, build_network, forward

from gradcheck import activation_pattern, gradient_check


def _randomize_heads(params, rng):
    # heads start at zero (uniform output); move them so every trunk
    # parameter has a nonzero gradient to check
    for name in ("head_cl", "head_tissue"):
        k = params.tensors[f"{name}.kernel"]
        b = params.tensors[f"{name}.bias"]
        k += 0.3 * rng.standard_normal(k.shape)
        b += 0.1 * rng.standard_normal(b.shape)


def _small_net_case(base_channels=1, side=44, seed=7):
    cfg = NetworkConfig(base_channels=base_channels, input_patch=side)
    params = build_network(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    _randomize_heads(params, rng)
    out = side - 40
    x = rng.standard_normal((1, 3, side, side, side))
    cl = rng.integers(0, 3, (1, out, out, out)).astype(np.uint8)
    tis = rng.integers(0, 3, (1, out, out, out)).astype(np.uint8)
    wml = (rng.random((1, out, out, out)) < 0.2).astype(np.uint8)

    def loss_fn():
        cp, tp, cache = forward(params, x, want_cache=True)
        total, _, _ = combined_loss(cp, tp, cl, tis, wml)
        return total, activation_pattern(cache)

    cp, tp, cache = forward(params, x, want_cache=True)
    _, _, (g_cl, g_t) = combined_loss(cp, tp, cl, tis, wml)
    grads = backward(params, cache, g_cl, g_t)
    return loss_fn, params, grads


def test_linear_layer_near_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 3, 3, 3))
    w = rng.standard_normal((3, 2, 1, 1, 1))
    b = rng.standard_normal(3)
    proj = rng.standard_normal((1, 3, 3, 3, 3))

    def loss():
        return float((L.conv3d_forward(x, w, b) * proj).sum())

    gx, gw, gb = L.conv3d_backward(x, w, proj)
    # exact for linear maps at any step size, so a big step drowns roundoff
    rep = gradient_check(loss, {"x": x, "w": w, "b": b},
                         {"x": gx, "w": gw, "b": gb}, rel_step=1e-3,
                         rng=np.random.default_rng(1))
    assert rep.max_rel_error < 1e-9, rep.summary()


def test_full_small_network_passes():
    loss_fn, params, grads = _small_net_case()
    rep = gradient_check(loss_fn, params.tensors, grads,
                         max_coords_per_group=3, rng=np.random.default_rng(2))
    assert rep.passed, rep.summary()
    assert rep.n_checked > 0


def test_corrupted_backward_detected():
    loss_fn, params, grads = _small_net_case()
    grads = dict(grads)
    grads["enc2b.kernel"] = 2.0 * grads["enc2b.kernel"]
    rep = gradient_check(loss_fn, params.tensors, grads,
                         max_coords_per_group=3, rng=np.random.default_rng(2))
    assert not rep.passed


def test_float32_rejected():
    x = np.zeros((2, 2), np.float32)
    with pytest.raises(TypeError):
        gradient_check(lambda: 0.0, {"x": x}, {"x": np.zeros((2, 2), np.float32)})


def test_instance_norm_variant_gradients():
    cfg = NetworkConfig(base_channels=1, input_patch=44, instance_norm=True)
    params = build_network(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    _randomize_heads(params, rng)
    x = rng.standard_normal((1, 3, 44, 44, 44))
    cl = rng.integers(0, 3, (1, 4, 4, 4)).astype(np.uint8)
    tis = rng.integers(0, 3, (1, 4, 4, 4)).astype(np.uint8)
    wml = np.zeros((1, 4, 4, 4), np.uint8)

    def loss_fn():
        cp, tp, cache = forward(params, x, want_cache=True)
        total, _, _ = combined_loss(cp, tp, cl, tis, wml)
        return total, activation_pattern(cache)

    cp, tp, cache = forward(params, x, want_cache=True)
    _, _, (g_cl, g_t) = combined_loss(cp, tp, cl, tis, wml)
    grads = backward(params, cache, g_cl, g_t)
    rep = gradient_check(loss_fn, params.tensors, grads,
                         max_coords_per_group=2, rng=np.random.default_rng(5))
    assert rep.passed, rep.summary()
