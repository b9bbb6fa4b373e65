import tracemalloc

import numpy as np
import pytest

from clseg import layers, unet
from clseg.layers import ContractError, NonFiniteError
from clseg.losses import LossConfig
from clseg.optim import AdamState

rng = np.random.default_rng(31)


# --- shape calculus ----------------------------------------------------------


def test_output_shape_values():
    assert unet.output_shape(68) == 28
    assert unet.output_shape(44) == 4
    assert unet.output_shape(48) == 8


def test_output_shape_is_minus_forty():
    for s in range(44, 100, 4):
        assert unet.output_shape(s) == s - 40


def test_output_shape_rejects_invalid_sides():
    for bad in (46, 43, 42, 40, 0):
        with pytest.raises(ContractError, match="divisible by 4|>="):
            unet.output_shape(bad)


@pytest.mark.parametrize("side", [44, 48])
def test_forward_spatial_shapes(side):
    cfg = unet.NetworkConfig(base_channels=2, input_patch=side)
    params = unet.build_network(cfg, seed=0)
    x = rng.standard_normal((1, 3, side, side, side)).astype(np.float32)
    cl, tis, _ = unet.forward(params, x)
    out = side - 40
    assert cl.shape == (1, 3, out, out, out)
    assert tis.shape == (1, 3, out, out, out)


# --- construction ------------------------------------------------------------


def test_build_deterministic_from_seed():
    cfg = unet.NetworkConfig(base_channels=2)
    a = unet.build_network(cfg, seed=9)
    b = unet.build_network(cfg, seed=9)
    c = unet.build_network(cfg, seed=10)
    for k in a.tensors:
        assert np.array_equal(a.tensors[k], b.tensors[k])
    assert any(not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors)


def test_channel_progression_and_parameter_count():
    cfg = unet.NetworkConfig(base_channels=16)
    specs = {name: shape for name, _, shape in unet.param_specs(cfg)}
    # encoder doubles within each level: 16/32, 32/64, 64/128
    assert specs["enc1a"][0] == 16 and specs["enc1b"][0] == 32
    assert specs["enc2a"][0] == 32 and specs["enc2b"][0] == 64
    assert specs["enc3a"][0] == 64 and specs["enc3b"][0] == 128
    params = unet.build_network(cfg, seed=0)
    expected = 0
    for name, kind, shape in unet.param_specs(cfg):
        out_ch = shape[0] if kind == "conv" else shape[1]
        expected += int(np.prod(shape)) + out_ch
    assert params.n_parameters() == expected
    # independent recount from the doubling rule, kernels 3^3/2^3/1^3
    c = 16
    by_rule = 0
    for ci, co in [(3, c), (c, 2*c), (2*c, 2*c), (2*c, 4*c), (4*c, 4*c), (4*c, 8*c)]:
        by_rule += ci * co * 27 + co
    for ci, co in [(8*c, 8*c), (4*c, 4*c)]:
        by_rule += ci * co * 8 + co
    for ci, co in [(12*c, 4*c), (4*c, 4*c), (6*c, 2*c), (2*c, 2*c)]:
        by_rule += ci * co * 27 + co
    by_rule += 2 * (2*c * 3 + 3)
    assert params.n_parameters() == by_rule


def test_forward_outputs_are_distributions():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=1)
    x = rng.standard_normal((1, 3, 44, 44, 44)).astype(np.float32)
    cl, tis, _ = unet.forward(params, x)
    for p in (cl, tis):
        assert p.min() >= 0 and p.max() <= 1
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6
    cl2, tis2, _ = unet.forward(params, x)
    assert np.array_equal(cl, cl2) and np.array_equal(tis, tis2)


def test_fresh_network_mean_probability_near_uniform():
    cfg = unet.NetworkConfig(base_channels=4, input_patch=48)
    means = []
    for seed in (0, 1, 2):
        params = unet.build_network(cfg, seed=seed)
        x = np.random.default_rng(seed).standard_normal((1, 3, 48, 48, 48)).astype(np.float32)
        cl, _, _ = unet.forward(params, x)
        means.append(cl.mean(axis=(0, 2, 3, 4)))
    mean_prob = np.mean(means, axis=0)
    assert np.all(np.abs(mean_prob - 1 / 3) < 0.15)


def test_forward_shape_contracts():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    with pytest.raises(ContractError):
        unet.forward(params, np.zeros((1, 2, 44, 44, 44), np.float32))
    with pytest.raises(ContractError):
        unet.forward(params, np.zeros((1, 3, 44, 44, 46), np.float32))
    with pytest.raises(ContractError):
        unet.forward(params, np.zeros((1, 3, 46, 46, 46), np.float32))


# --- receptive-field locality -------------------------------------------------


def test_impulse_response_stays_in_receptive_field():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=68)
    params = unet.build_network(cfg, seed=3)
    x = rng.standard_normal((1, 3, 68, 68, 68)).astype(np.float32)
    base, _, _ = unet.forward(params, x)
    for v in ((60, 60, 60), (10, 30, 50)):
        x2 = x.copy()
        x2[0, :, v[0], v[1], v[2]] += 3.0
        out, _, _ = unet.forward(params, x2)
        diff = np.abs(out - base).sum(axis=(0, 1))
        nz = np.argwhere(diff > 1e-7)
        # output voxel o reads inputs [o-3, o+43]; center offset 20 makes
        # the reach |o + 20 - v| <= 23 per axis
        for o in nz:
            assert np.all(np.abs(o + 20 - np.array(v)) <= 23), (v, o)


# --- train step ---------------------------------------------------------------


def _batch(side=44, lesions=True, seed=0):
    r = np.random.default_rng(seed)
    out = side - 40
    x = r.standard_normal((1, 3, side, side, side)).astype(np.float32)
    cl = r.integers(0, 3, (1, out, out, out)).astype(np.uint8) if lesions \
        else np.zeros((1, out, out, out), np.uint8)
    tis = r.integers(0, 3, (1, out, out, out)).astype(np.uint8)
    wml = np.zeros((1, out, out, out), np.uint8)
    return {"input": x, "cl_labels": cl, "tissue_labels": tis, "wml_labels": wml,
            "provenance": [{"draw_index": 0}]}


def test_train_step_all_zero_weights_leaves_params():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    state = AdamState.for_params(params.tensors)
    batch = _batch()
    batch["cl_labels"] = np.zeros_like(batch["cl_labels"])
    batch["wml_labels"] = np.ones_like(batch["wml_labels"])  # zero weight everywhere
    before = {k: v.copy() for k, v in params.tensors.items()}
    result = unet.train_step(params, state, batch, LossConfig())
    assert result.total_loss == 0.0
    assert state.step_count == 1
    for k in before:
        assert np.array_equal(before[k], params.tensors[k])


def test_train_step_reduces_loss_on_fixed_batch():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    state = AdamState.for_params(params.tensors, learning_rate=3e-3)
    batch = _batch(seed=5)
    first = unet.train_step(params, state, batch, LossConfig()).total_loss
    last = first
    for _ in range(60):
        last = unet.train_step(params, state, batch, LossConfig()).total_loss
    assert last < 0.5 * first


def test_train_step_nonfinite_loss_names_patch():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    params.tensors["enc1a.kernel"][:] = np.inf
    state = AdamState.for_params(params.tensors)
    batch = _batch()
    batch["provenance"] = ["patch-xyz"]
    # the infinite kernel turns into NaN inside the first conv's matmul
    with pytest.warns(RuntimeWarning, match="invalid value"), \
            pytest.raises(NonFiniteError, match="patch-xyz"):
        unet.train_step(params, state, batch, LossConfig())


# --- checkpointing ------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=4)
    state = AdamState.for_params(params.tensors, learning_rate=2e-3)
    for i in range(3):
        unet.train_step(params, state, _batch(seed=i), LossConfig())
    unet.save_checkpoint(tmp_path / "ck", params, state, iteration=3, sampler_draws=3)
    p2, s2, it, draws = unet.load_checkpoint(tmp_path / "ck")
    assert (it, draws) == (3, 3)
    assert p2.config == cfg
    for k in params.tensors:
        assert np.array_equal(p2.tensors[k], params.tensors[k])
        assert np.array_equal(s2.m[k], state.m[k])
        assert np.array_equal(s2.v[k], state.v[k])
    assert s2.step_count == state.step_count
    # identical continuation
    b = _batch(seed=9)
    r1 = unet.train_step(params, state, b, LossConfig())
    r2 = unet.train_step(p2, s2, b, LossConfig())
    assert r1.total_loss == r2.total_loss
    for k in params.tensors:
        assert np.array_equal(p2.tensors[k], params.tensors[k])
    # byte-identical re-save
    unet.save_checkpoint(tmp_path / "ck2", p2, s2, 4, 4)
    unet.save_checkpoint(tmp_path / "ck3", params, state, 4, 4)
    assert (tmp_path / "ck2.raw").read_bytes() == (tmp_path / "ck3.raw").read_bytes()


# --- sliding window -----------------------------------------------------------


def _toy_contrasts(side=56, seed=0):
    r = np.random.default_rng(seed)
    return r.standard_normal((3, side, side, side)).astype(np.float32)


@pytest.mark.parametrize("base, shape, n_tiles, side", [
    (4, (96, 96, 96), 8, 88),
    (4, (56, 56, 56), 1, 96),
    (16, (56, 56, 56), 8, 68),
    (16, (96, 96, 96), 27, 72),
    (4, (96, 56, 40), 4, 88),
], ids=["C4-96", "C4-56", "C16-56", "C16-96", "C4-96x56x40"])
def test_overlap_tiles_fewest_within_budget(monkeypatch, base, shape, n_tiles, side):
    # the fewest tiles per axis whose widest activation fits the activation budget
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=0)
    calls = []

    def shape_only(params_, x, want_cache=False):
        calls.append(x.shape)
        out = np.full((x.shape[0], 3) + tuple(s - 40 for s in x.shape[2:]), 1 / 3, np.float32)
        return out, out, None

    monkeypatch.setattr(unet, "forward", shape_only)
    contrasts = np.zeros((3,) + shape, np.float32)
    cl, tis, prob = unet.sliding_window_inference(params, contrasts)
    assert len(calls) == n_tiles
    assert all(s == (1, 3, side, side, side) for s in calls)
    assert cl.shape == tis.shape == prob.shape == shape


@pytest.mark.parametrize("budget", [unet.ACTIVATION_BUDGET_ELEMS, 2 ** 20],
                         ids=["one-tile", "many-tiles"])
@pytest.mark.parametrize("base, shape", [
    (2, (50, 50, 50)),   # side not a multiple of 4
    (2, (56, 44, 30)),   # non-cubic
    (3, (40, 52, 36)),
], ids=["C2-50", "C2-56x44x30", "C3-40x52x36"])
def test_sliding_window_matches_single_big_forward(monkeypatch, budget, base, shape):
    # valid convs and pooling-aligned tile origins make the tiled prediction
    # equal to one pass over the whole padded volume, for any tile side; the
    # small budget forces many small tiles
    monkeypatch.setattr(unet, "ACTIVATION_BUDGET_ELEMS", budget)
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=1)
    r = np.random.default_rng(8)
    params.tensors["head_cl.kernel"] += (0.5 * r.standard_normal(
        params.tensors["head_cl.kernel"].shape)).astype(np.float32)
    contrasts = r.standard_normal((3,) + shape).astype(np.float32)
    cl, tis, prob = unet.sliding_window_inference(params, contrasts)
    # pad to a cube whose side is a multiple of 4; mirror padding is defined
    # per index, so the extra far padding leaves the subject's voxels alone
    cube = 4 * -(-max(shape) // 4)
    padded = np.stack([unet.mirror_pad(c, (20, 20, 20), tuple(20 + cube - s for s in shape))
                       for c in contrasts])
    cl_p, tis_p, _ = unet.forward(params, padded[None])
    crop = tuple(slice(0, s) for s in shape)
    assert np.allclose(prob, (cl_p[0, 1] + cl_p[0, 2])[crop], atol=1e-5)
    assert np.array_equal(cl, cl_p[0].argmax(axis=0).astype(np.uint8)[crop])
    assert np.array_equal(tis, tis_p[0].argmax(axis=0).astype(np.uint8)[crop])


def test_forward_without_cache_frees_dead_activations():
    # A no-cache forward keeps one conv slab and its tap buffer plus a few
    # activations alive: at C=4 and a 68^3 input the widest activation
    # (enc1b output) is 8 * 64^3 float32 = 8 MiB and the slab at most
    # SLAB_BUDGET_ELEMS floats, 16 MiB. Holding every activation to the end,
    # as a cached forward does, peaks near 120 MiB.
    params = unet.build_network(unet.NetworkConfig(base_channels=4), seed=0)
    x = np.random.default_rng(2).standard_normal((1, 3, 68, 68, 68)).astype(np.float32)
    widest = 2 * 4 * 64 ** 3 * 4
    slab = layers.SLAB_BUDGET_ELEMS * 4
    tracemalloc.start()
    try:
        unet.forward(params, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= slab + 3 * widest


def test_sliding_window_non_multiple_side():
    cfg = unet.NetworkConfig(base_channels=2)
    params = unet.build_network(cfg, seed=1)
    contrasts = _toy_contrasts(50, seed=3)
    cl, tis, prob = unet.sliding_window_inference(params, contrasts)
    assert cl.shape == (50, 50, 50)


def test_drop_channel_rules():
    cfg = unet.NetworkConfig(base_channels=2)
    params = unet.build_network(cfg, seed=1)
    r = np.random.default_rng(8)
    params.tensors["head_cl.kernel"] += (0.5 * r.standard_normal(
        params.tensors["head_cl.kernel"].shape)).astype(np.float32)
    contrasts = _toy_contrasts(56, seed=4)
    with pytest.raises(ContractError):
        unet.sliding_window_inference(params, contrasts, drop_channel="mp2rage")
    a1 = unet.sliding_window_inference(params, contrasts, drop_channel="t2s_gre")
    a2 = unet.sliding_window_inference(params, contrasts, drop_channel="t2s_gre")
    full = unet.sliding_window_inference(params, contrasts)
    assert np.array_equal(a1[2], a2[2])
    assert not np.array_equal(a1[2], full[2])
    # the input array itself is untouched
    assert contrasts[2].any()


def test_normalize_volume_zscore_over_nonzero():
    vol = np.zeros((6, 6, 6), np.float32)
    vol[2:5, 2:5, 2:5] = np.random.default_rng(0).uniform(1, 2, (3, 3, 3)).astype(np.float32)
    out = unet.normalize_volume(vol)
    inside = out[2:5, 2:5, 2:5]
    assert abs(float(inside.mean())) < 1e-5
    assert abs(float(inside.std()) - 1.0) < 1e-4
