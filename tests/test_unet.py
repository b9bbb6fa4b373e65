import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest

from clseg import layers, unet
from clseg.blas import blas_threads, set_blas_threads
from clseg.layers import ContractError, NonFiniteError
from clseg.losses import combined_loss
from clseg.optim import AdamState
from clseg.volume_io import CONTRAST_NAMES, LABEL_CODES

from brute_force import (conv3d_backward_loops, conv3d_loops, transposed_conv3d_backward_loops,
                         transposed_conv3d_loops)
from conftest import edit_header, write_old_network_keys

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
    n_parameters = sum(t.size for t in params.tensors.values())
    expected = 0
    for name, kind, shape in unet.param_specs(cfg):
        out_ch = shape[0] if kind == "conv" else shape[1]
        expected += int(np.prod(shape)) + out_ch
    assert n_parameters == expected
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
    assert n_parameters == by_rule


def test_network_widths_come_from_the_volume_format(monkeypatch):
    assert [f.name for f in dataclasses.fields(unet.NetworkConfig)] == \
        ["base_channels", "input_patch"]
    cfg = unet.NetworkConfig(base_channels=4)

    def widths():
        specs = {name: shape for name, _, shape in unet.param_specs(cfg)}
        return specs["enc1a"][1], specs["head_cl"][0], specs["head_tissue"][0]

    assert widths() == (len(CONTRAST_NAMES), len(LABEL_CODES["cl_labels"]),
                        len(LABEL_CODES["tissue_labels"])) == (3, 3, 3)
    monkeypatch.setattr(unet, "CONTRAST_NAMES", CONTRAST_NAMES + ("flair",))
    monkeypatch.setitem(LABEL_CODES, "cl_labels", (0, 1, 2, 3))
    monkeypatch.setitem(LABEL_CODES, "tissue_labels", (0, 1))
    assert widths() == (4, 4, 2)


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


# --- decoder stage: transposed conv folded into the conv that reads it --------


def _decoder_params(ci, cm, cs, co, seed, dtype=np.float64):
    r = np.random.default_rng(seed)
    tensors = {"up1.kernel": r.standard_normal((ci, cm, 2, 2, 2)),
               "up1.bias": r.standard_normal(cm),
               "dec1a.kernel": r.standard_normal((co, cm + cs, 3, 3, 3)),
               "dec1a.bias": r.standard_normal(co)}
    return unet.NetworkParams(unet.NetworkConfig(), 0,
                              {k: t.astype(dtype) for k, t in tensors.items()})


@pytest.mark.parametrize("batch, low", [(1, (4, 4, 4)), (1, (3, 3, 3)), (2, (3, 4, 5))],
                         ids=["even", "odd", "non-cubic"])
def test_composed_decoder_stage_matches_loop_oracles(batch, low):
    # the skip conv plus the composed conv, as the network runs dec2a and
    # dec1a, against the transposed conv, the concatenation [up-convolved,
    # skip] and the 3x3x3 conv in loops, forward and every gradient
    ci, cm, cs, co = 3, 2, 2, 3
    params = _decoder_params(ci, cm, cs, co, seed=sum(low))
    t = params.tensors
    r = np.random.default_rng(batch)
    x = r.standard_normal((batch, ci) + low)
    crop = r.standard_normal((batch, cs) + tuple(2 * n for n in low))
    cat = np.concatenate([transposed_conv3d_loops(x, t["up1.kernel"], t["up1.bias"]), crop],
                         axis=1)
    want = conv3d_loops(cat, t["dec1a.kernel"], t["dec1a.bias"])
    composed = unet._compose(params, "up1", "dec1a")
    got = unet._dec_forward(composed, x, crop)
    assert got.shape == want.shape
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    g = r.standard_normal(want.shape)
    g_cat, g_dec, g_dec_bias = conv3d_backward_loops(cat, t["dec1a.kernel"], g)
    g_x, g_up, g_up_bias = transposed_conv3d_backward_loops(x, t["up1.kernel"], g_cat[:, :cm])
    # an all-positive activation: the ReLU mask passes the gradient whole
    cache = {"dec1a": (crop.copy(), layers.relu_mask(np.ones_like(g))),
             "up1": (x.copy(), composed[2])}
    grads = {}
    got = unet._dec_backward(params, "up1", "dec1a", g.copy(), cache, grads)
    assert cache == {}
    expected = {"x": g_x, "skip": g_cat[:, cm:], "dec1a.kernel": g_dec,
                "dec1a.bias": g_dec_bias, "up1.kernel": g_up, "up1.bias": g_up_bias}
    for name, a in zip(expected, got + tuple(grads[k] for k in list(expected)[2:])):
        e = expected[name]
        assert a.shape == e.shape, name
        assert np.abs(a - e).max() / np.abs(e).max() < 1e-12, name


def test_composed_decoder_stage_float32_tolerance():
    # paper-width dec1a (C=16: up1 64->64, dec1a 96->32) at a 30^3
    # low-resolution side, on ReLU-like inputs: the composed stage in
    # float32 against the transposed conv, concatenation and conv that it
    # replaced, and against the float64 stage. Measured over three seeds:
    # 5.8-6.9e-7 and 3.6-4.5e-7 of the largest output magnitude (the
    # replaced path: 5.0-5.3e-7 from float64)
    params = _decoder_params(64, 64, 32, 32, seed=3, dtype=np.float32)
    t = params.tensors
    t["up1.kernel"] *= np.float32(np.sqrt(2 / 64))
    t["dec1a.kernel"] *= np.float32(np.sqrt(2 / (96 * 27)))
    t["up1.bias"] *= np.float32(0.1)
    t["dec1a.bias"] *= np.float32(0.1)
    r = np.random.default_rng(0)
    x = np.maximum(r.standard_normal((1, 64, 30, 30, 30), dtype=np.float32), 0)
    crop = np.maximum(r.standard_normal((1, 32, 60, 60, 60), dtype=np.float32), 0)
    got = unet._dec_forward(unet._compose(params, "up1", "dec1a"), x, crop)
    cat = np.concatenate([layers.transposed_conv3d_forward(x, t["up1.kernel"], t["up1.bias"]),
                          crop], axis=1)
    replaced = layers.conv3d_forward(cat, t["dec1a.kernel"], t["dec1a.bias"])
    del cat
    exact = unet._dec_forward(unet._compose(params.astype(np.float64), "up1", "dec1a"),
                              x.astype(np.float64), crop.astype(np.float64))
    scale = np.abs(exact).max()
    assert np.abs(got - replaced).max() <= 1.5e-6 * scale
    assert np.abs(got - exact).max() <= 1e-6 * scale


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
    result = unet.train_step(params, state, batch, True)
    assert result.total_loss == 0.0
    assert state.step_count == 1
    for k in before:
        assert np.array_equal(before[k], params.tensors[k])


def test_train_step_reduces_loss_on_fixed_batch():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    state = AdamState.for_params(params.tensors, learning_rate=3e-3)
    batch = _batch(seed=5)
    first = unet.train_step(params, state, batch, True).total_loss
    last = first
    for _ in range(60):
        last = unet.train_step(params, state, batch, True).total_loss
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
        unet.train_step(params, state, batch, True)


def test_train_step_nonfinite_gradient_names_layer_and_leaves_state(monkeypatch):
    # a NaN gradient under a finite loss is caught before Adam: named by its
    # parameter and patch, with the parameters and the Adam state untouched
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=0)
    state = AdamState.for_params(params.tensors)
    unet.train_step(params, state, _batch(seed=2), True)
    backward = unet.backward

    def nan_grad_w(*args):
        grads = backward(*args)
        grads["dec2a.kernel"][0, 0, 0, 0, 0] = np.nan
        return grads

    monkeypatch.setattr(unet, "backward", nan_grad_w)
    before = {k: v.copy() for k, v in params.tensors.items()}
    m, v = ({k: a.copy() for k, a in d.items()} for d in (state.m, state.v))
    batch = _batch(seed=3)
    batch["provenance"] = ["patch-xyz"]
    with pytest.raises(NonFiniteError, match=r"dec2a\.kernel at patch \['patch-xyz'\]"):
        unet.train_step(params, state, batch, True)
    assert state.step_count == 1
    for k in before:
        assert np.array_equal(params.tensors[k], before[k])
        assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])


# --- checkpointing ------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=4)
    state = AdamState.for_params(params.tensors, learning_rate=2e-3)
    for i in range(3):
        unet.train_step(params, state, _batch(seed=i), True)
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
    r1 = unet.train_step(params, state, b, True)
    r2 = unet.train_step(p2, s2, b, True)
    assert r1.total_loss == r2.total_loss
    for k in params.tensors:
        assert np.array_equal(p2.tensors[k], params.tensors[k])
    # byte-identical re-save
    unet.save_checkpoint(tmp_path / "ck2", p2, s2, 4, 4)
    unet.save_checkpoint(tmp_path / "ck3", params, state, 4, 4)
    assert (tmp_path / "ck2.raw").read_bytes() == (tmp_path / "ck3.raw").read_bytes()


def test_incomplete_checkpoint_raises_checkpoint_error(tmp_path):
    # resume skips a checkpoint only on CheckpointError, so every way a
    # killed or damaged run leaves one must raise it
    params = unet.build_network(unet.NetworkConfig(base_channels=2, input_patch=44), seed=4)
    state = AdamState.for_params(params.tensors)
    damages = {
        "no payload": lambda ck: ck.with_suffix(".raw").unlink(),
        "no header": lambda ck: ck.with_suffix(".json").unlink(),
        "garbled header": lambda ck: ck.with_suffix(".json").write_text("{not json"),
        "header not an object": lambda ck: ck.with_suffix(".json").write_text("[]\n"),
        "unreadable payload": lambda ck: (ck.with_suffix(".raw").unlink(),
                                          ck.with_suffix(".raw").mkdir()),
        "truncated payload": lambda ck: ck.with_suffix(".raw").write_bytes(
            ck.with_suffix(".raw").read_bytes()[:-4]),
    }
    for field in ("config", "seed", "iteration", "sampler_draws", "adam", "payload_order"):
        damages[f"no {field}"] = lambda ck, field=field: edit_header(ck, lambda h: h.pop(field))
    damages["no adam epsilon"] = lambda ck: edit_header(ck, lambda h: h["adam"].pop("epsilon"))
    damages["adam not an object"] = lambda ck: edit_header(ck, lambda h: h.update(adam=[]))
    for field in ("seed", "iteration", "sampler_draws", "step_count"):
        for value in ("four", None, [1], -3, 2.5, True):
            damages[f"{field} {value!r}"] = lambda ck, field=field, value=value: edit_header(
                ck, lambda h: (h["adam"] if field == "step_count" else h).update({field: value}))
    damages["learning rate not a number"] = lambda ck: edit_header(
        ck, lambda h: h["adam"].update(learning_rate=[1e-4]))
    for i, (name, damage) in enumerate(damages.items()):
        ck = tmp_path / f"ck{i}"  # names may hold a dot, which a suffix would replace
        unet.save_checkpoint(ck, params, state, iteration=0, sampler_draws=0)
        damage(ck)
        with pytest.raises(unet.CheckpointError) as caught:
            unet.load_checkpoint(ck)
        assert not isinstance(caught.value, unet.CheckpointMismatchError), name


def test_checkpoint_with_old_network_keys(tmp_path):
    # headers written while NetworkConfig had these as settings carry them;
    # whatever their values, such a header is of another network, as is one
    # with an unknown key, an invalid network or a foreign payload order
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=4)
    state = AdamState.for_params(params.tensors)
    unet.save_checkpoint(tmp_path / "ck", params, state, iteration=1, sampler_draws=1)
    old_keys = "['cl_classes', 'in_channels', 'instance_norm', 'levels', 'tissue_classes']"
    write_old_network_keys(tmp_path / "ck")
    with pytest.raises(unet.CheckpointMismatchError) as caught:
        unet.load_checkpoint(tmp_path / "ck")
    assert str(caught.value).endswith(f"its network keys differ from this one's in {old_keys}")
    for key, value in [("instance_norm", True), ("in_channels", 4), ("levels", 4),
                       ("cl_classes", 2), ("tissue_classes", 4), ("bogus", 1)]:
        write_old_network_keys(tmp_path / "ck", **{key: value})
        with pytest.raises(unet.CheckpointMismatchError, match=key):
            unet.load_checkpoint(tmp_path / "ck")
    for edit, named in [
        (lambda h: h.update(config={"base_channels": 2}), "input_patch"),
        (lambda h: h.update(config={"base_channels": 2, "input_patch": 44, "bogus": 1}),
         "bogus"),
        (lambda h: h.update(config={"base_channels": 2.0, "input_patch": 44}), "not of integers"),
        (lambda h: h.update(config={"base_channels": 2, "input_patch": 45}), "input side 45"),
        (lambda h: h["payload_order"].append("enc1a.gamma"), "enc1a.gamma"),
        (lambda h: h["payload_order"].reverse(), "in order"),
    ]:
        unet.save_checkpoint(tmp_path / "ck", params, state, iteration=1, sampler_draws=1)
        edit_header(tmp_path / "ck", edit)
        with pytest.raises(unet.CheckpointMismatchError, match=named):
            unet.load_checkpoint(tmp_path / "ck")


# --- sliding window -----------------------------------------------------------


def _toy_contrasts(side=56, seed=0):
    r = np.random.default_rng(seed)
    return r.standard_normal((3, side, side, side)).astype(np.float32)


def _pin_slices(monkeypatch, n):
    """Inference in n height slices, whatever the machine's BLAS threads."""
    monkeypatch.setattr(unet, "_height_slices", lambda out_height: n)


@pytest.mark.parametrize("base, shape", [
    (4, (96, 96, 96)),
    (4, (56, 56, 56)),
    (16, (56, 56, 56)),
    (16, (96, 96, 96)),
    (4, (96, 56, 40)),
], ids=["C4-96", "C4-56", "C16-56", "C16-96", "C4-96x56x40"])
def test_inference_feeds_the_padded_subject_through_forward(monkeypatch, base, shape):
    # perfbench's tracer times the unet.forward calls made inside
    # sliding_window_inference and divides their input voxels by the
    # subject's. An inference that does not reach unet.forward through the
    # module global with (1, 3, d, h, w) arrays leaves its per-call time a
    # NaN, and the benchmark's result line is then not strict JSON. In two
    # height slices, each call feeds one slice's padded rows, its output
    # rows plus 40, so the calls' voxels are the two slices' padded volumes
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=0)
    calls = []
    forward = unet.forward

    def recorder(params_, x, *args, **kwargs):
        calls.append(x.shape if isinstance(x, np.ndarray) else type(x))
        return forward(params_, x, *args, **kwargs)

    monkeypatch.setattr(unet, "forward", recorder)
    _pin_slices(monkeypatch, 2)
    cl, tis, prob, run = unet.sliding_window_inference(params, np.zeros((3,) + shape, np.float32))
    padded = tuple(s + 40 + (-s) % 4 for s in shape)
    rows = padded[1] - 40
    heights = {rows // 8 * 4 + 40, rows - rows // 8 * 4 + 40}  # each slice's padded rows
    assert calls, "sliding_window_inference never called unet.forward"
    bad = [c for c in calls if not isinstance(c, tuple) or c[:2] != (1, 3)
           or c[3] not in heights or c[4] != padded[2]]
    assert not bad, f"unet.forward got {bad}, not (1, 3, d, h, {padded[2]}) arrays, h in {heights}"
    voxels = sum(int(np.prod(c[2:])) for c in calls)
    assert voxels == padded[0] * (rows + 2 * 40) * padded[2], \
        f"unet.forward got {voxels} input voxels, not the two slices' padded volumes"
    assert run == {"padded_shape": list(padded), "forward_calls": len(calls), "slices": 2}
    assert cl.shape == tis.shape == prob.shape == shape


def _padded_subject(contrasts, drop_channel=None):
    """The input of one pass over the whole subject: each side mirror-padded
    by 20 before and 20 to 23 after, to a multiple of 4."""
    shape = contrasts.shape[1:]
    padded = np.stack([unet.mirror_pad(c, (20, 20, 20), tuple(20 + (-s) % 4 for s in shape))
                       for c in contrasts])
    if drop_channel is not None:
        padded[unet.CONTRAST_CHANNELS[drop_channel]] = 0.0
    return padded[None]


def _assert_predicts(got, cl_p, tis_p):
    crop = (0,) + tuple(slice(0, s) for s in got[0].shape)
    assert got[0].tobytes() == cl_p.argmax(axis=1).astype(np.uint8)[crop].tobytes()
    assert got[1].tobytes() == tis_p.argmax(axis=1).astype(np.uint8)[crop].tobytes()
    assert got[2].tobytes() == (cl_p[:, 1] + cl_p[:, 2])[crop].tobytes()


@pytest.mark.parametrize("depth", [10 ** 6, 4], ids=["one-tile", "many-tiles"])
@pytest.mark.parametrize("base, shape", [
    (2, (50, 50, 50)),   # side not a multiple of 4
    (2, (56, 44, 30)),   # non-cubic
    (3, (40, 52, 36)),
], ids=["C2-50", "C2-56x44x30", "C3-40x52x36"])
def test_sliding_window_matches_single_big_forward(monkeypatch, depth, base, shape):
    # the streamed prediction is one forward pass over the whole padded
    # subject, byte for byte, whether the subject goes in as one push
    # ("one-tile") or in pushes of 4 planes
    monkeypatch.setattr(unet, "_push_depth", lambda base_channels, shape: depth)
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=1)
    r = np.random.default_rng(8)
    params.tensors["head_cl.kernel"] += (0.5 * r.standard_normal(
        params.tensors["head_cl.kernel"].shape)).astype(np.float32)
    contrasts = r.standard_normal((3,) + shape).astype(np.float32)
    got = unet.sliding_window_inference(params, contrasts)
    padded = _padded_subject(contrasts)
    assert got[3]["forward_calls"] == -(-padded.shape[2] // depth)
    cl_p, tis_p, _ = unet.forward(params, padded)
    _assert_predicts(got, cl_p, tis_p)


@pytest.mark.parametrize("base, shape, drop", [
    (2, (50, 44, 30), None),
    (4, (40, 52, 36), "t2s_gre"),
    (2, (96, 56, 40), "t2s_epi"),
], ids=["C2-50x44x30", "C4-40x52x36-gre", "C2-96x56x40-epi"])
def test_streamed_inference_is_the_cached_pass_over_the_padded_subject(
        monkeypatch, base, shape, drop):
    # pushes of one plane and of an odd count give the labels and cl_prob
    # of the cached forward, which takes the padded subject (its dropped
    # channel zeroed) in one push, byte for byte
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=2)
    r = np.random.default_rng(base)
    for k in ("head_cl.kernel", "head_tissue.kernel"):
        params.tensors[k] += (0.5 * r.standard_normal(params.tensors[k].shape)).astype(np.float32)
    contrasts = r.standard_normal((3,) + shape).astype(np.float32)
    cl_p, tis_p, _ = unet.forward(params, _padded_subject(contrasts, drop), want_cache=True)
    for depth in (1, 7):
        monkeypatch.setattr(unet, "_push_depth", lambda base_channels, shape: depth)
        _assert_predicts(unet.sliding_window_inference(params, contrasts, drop_channel=drop),
                         cl_p, tis_p)


@pytest.mark.parametrize("side", range(1, 12))
def test_mirror_pad_is_the_reflect_indices_gather(side):
    # sliding_window_inference gathers each push by reflect_indices, and
    # the checks above pad the whole subject with mirror_pad: the two are
    # one map, for pads smaller and far larger than the side
    rng = np.random.default_rng(side)
    for axis in range(3):
        shape = [2, 3, 4]
        shape[axis] = side
        vol = rng.standard_normal(shape).astype(np.float32)
        for before in range(45):
            for after in (before, 44 - before):
                pads = [[0, 0, 0], [0, 0, 0]]
                pads[0][axis], pads[1][axis] = before, after
                got = unet.mirror_pad(vol, tuple(pads[0]), tuple(pads[1]))
                idx = unet.reflect_indices(side, -before, before + side + after)
                want = np.take(vol, idx, axis=axis)
                assert got.dtype == want.dtype and np.array_equal(got, want), (axis, before, after)


def test_forward_without_cache_frees_dead_activations():
    # A no-cache forward keeps one conv slab and its tap buffer plus a few
    # activations alive, and level 1 only a push of planes at a time: at
    # C=4 and a 68^3 input the enc1b output is 8 * 64^3 float32 = 8 MiB and
    # the slab at most SLAB_BUDGET_ELEMS floats, 16 MiB. Holding every
    # activation to the end, as a cached forward does, peaks near 120 MiB;
    # freeing each once dead but running level 1 whole, at 30 MiB (the
    # enc1b output beside its enc1a input and a slab); streamed in pushes
    # of 12 planes, at 19 MiB
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
    assert peak <= slab + widest


def _arrays(cache):
    """The bytes of every array of a cache, by entry."""
    return {k: tuple(None if a is None else a.tobytes() for a in
                     (v if isinstance(v, tuple) else (v,))) for k, v in cache.items()}


@pytest.mark.parametrize("base", [2, 4])
@pytest.mark.parametrize("side, chunks", [(44, (1, 5, 45)), (48, (1, 3, 100)),
                                          (68, (1, 7, 69)), (88, (2, 9, 89)),
                                          (96, (1, 11, 97)),
                                          pytest.param((52, 44, 60), (1, 5, 53), id="52x44x60")])
def test_chunked_forward_equals_one_pass(base, side, chunks):
    # A stream pushed one plane, an odd number of planes or more planes
    # than the input has at a time, and forward without a cache, which
    # pushes the stream's depth, give the probabilities of the cached
    # forward, which pushes the whole input, byte for byte. Each conv
    # multiplies every input plane once, and every product spans whole
    # planes: its last columns, which OpenBLAS's small-matrix kernel
    # rounds differently from the rest, are discarded ones. (Products that
    # ended on the last valid columns of a chunk made the level-1 chunks
    # this replaced differ at one and three pooled planes per chunk.)
    # A stream with a cache pushed so, or in pushes of its depth, also
    # records the cached forward's entries and so gives its gradients
    shape = (side,) * 3 if isinstance(side, int) else side
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=1)
    r = np.random.default_rng(side)
    for k in ("head_cl.kernel", "head_tissue.kernel"):
        params.tensors[k] += (0.5 * r.standard_normal(params.tensors[k].shape)).astype(np.float32)
    x = r.standard_normal((1, 3) + shape).astype(np.float32)
    out = (1, 3) + tuple(n - 40 for n in shape)
    g = [r.standard_normal(out).astype(np.float32) for _ in range(2)]
    cl, tis, cache = unet.forward(params, x, want_cache=True)
    entries = _arrays(cache)
    grads = unet.backward(params, cache, *(a.copy() for a in g))
    cl_c, tis_c, cache = unet.forward(params, x)
    assert cache is None and cl.shape == out
    assert cl_c.tobytes() == cl.tobytes() and tis_c.tobytes() == tis.tobytes()
    for depth in chunks:
        stream = unet.DepthStream(params, shape)
        for z in range(0, shape[0], depth):
            assert unet.forward(params, x[:, :, z:z + depth], stream=stream) is None
        cl_s, tis_s = stream.outputs
        assert cl_s.tobytes() == cl.tobytes() and tis_s.tobytes() == tis.tobytes(), depth
    for depth in chunks + (unet._push_depth(base, shape),):
        stream = unet.DepthStream(params, shape, cache={})
        for z in range(0, shape[0], depth):
            stream.push(x[:, :, z:z + depth])
        cl_s, tis_s = stream.outputs
        assert cl_s.tobytes() == cl.tobytes() and tis_s.tobytes() == tis.tobytes(), depth
        stream.cache["enc1a"] = (x, stream.cache["enc1a"][1])
        assert _arrays(stream.cache) == entries, depth
        got = unet.backward(params, stream.cache, *(a.copy() for a in g))
        assert {k: v.tobytes() for k, v in got.items()} == \
            {k: v.tobytes() for k, v in grads.items()}, depth


def test_stream_refuses_planes_that_do_not_fit():
    params = unet.build_network(unet.NetworkConfig(base_channels=2), seed=0)
    stream = unet.DepthStream(params, (44, 48, 52))
    with pytest.raises(ContractError, match="do not fit"):
        unet.forward(params, np.zeros((1, 3, 4, 48, 48), np.float32), stream=stream)
    unet.forward(params, np.zeros((1, 3, 40, 48, 52), np.float32), stream=stream)
    with pytest.raises(ContractError, match="has had 40"):
        unet.forward(params, np.zeros((1, 3, 5, 48, 52), np.float32), stream=stream)
    with pytest.raises(ContractError, match="divisible by 4"):
        unet.DepthStream(params, (44, 46, 44))


_UNIT_CHAINS = (("enc1a", "enc1b"), ("enc2a", "enc2b"), ("enc3a", "enc3b"),
                ("dec2a", "dec2b"), ("dec1a", "dec1b"))


def test_cache_holds_each_activation_once_and_backward_consumes_it():
    cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    params = unet.build_network(cfg, seed=3)
    batch = _batch(seed=6)
    cl, tis, cache = unet.forward(params, batch["input"], want_cache=True)
    convs = [name for name, kind, _ in unet.param_specs(cfg)
             if kind == "conv" and not name.startswith("head_")]
    assert sorted(cache) == sorted(convs + ["up1", "up2", "heads", "pool"])
    # a transposed conv's entry is its low-resolution input and the
    # decoder's composed kernel
    for up, c_in, c_out in (("up2", 8, 4), ("up1", 4, 2)):
        assert cache[up][1].shape == (8 * c_out * cfg.base_channels,
                                      c_in * cfg.base_channels, 2, 2, 2)
    # each unit keeps its input and its ReLU mask packed per row; a unit's
    # output is cached once, as the input of what reads it, so each mask
    # is the packed sign of that input
    readers = dict(_UNIT_CHAINS, enc3b="up2", dec2b="up1")
    for name in convs:
        x, mask = cache[name]
        assert mask.dtype == np.uint8 and mask.flags.c_contiguous
        out = tuple(n - 2 for n in x.shape[2:])  # a decoder unit's x is its skip crop
        width = params.tensors[f"{name}.kernel"].shape[0]
        assert mask.shape == (1, width) + out[:2] + (-(-out[2] // 8),)
        if name in readers or name == "dec1b":
            act = cache["heads"] if name == "dec1b" else cache[readers[name]][0]
            assert (act >= 0).all() and act.shape[2:] == out
            assert np.array_equal(mask, np.packbits(act > 0, axis=-1)), name
    x = cache["enc1a"][0]
    assert x.shape == batch["input"].shape and np.shares_memory(x, batch["input"])

    _, _, (g_cl, g_t) = combined_loss(cl, tis, batch["cl_labels"], batch["tissue_labels"],
                                      batch["wml_labels"], True)
    grads = unet.backward(params, cache, g_cl, g_t)
    assert cache == {}
    assert sorted(grads) == sorted(unet.param_shapes(cfg))


@pytest.mark.parametrize("base, side", [(2, 44), (4, 48), (16, 68)])
def test_enc1b_gradient_by_slabs_is_the_whole_composition(base, side):
    # enc1b's output gradient built a slab of planes at a time, against the
    # whole composition it replaced: the pooled gradient routed to the
    # octant its argmax names (here a select over the 2x2x2 blocks), the
    # skip gradient added into its crop, the ReLU mask, then
    # conv3d_backward on the whole array. Slabs of 3 planes split pooling
    # pairs and end in a shorter one; in the conv backward, the weight
    # gradient's slabs are 3 planes at C=16 and one or two elsewhere.
    # grad_x and grad_w are the same bytes; grad_b, summed per slab in
    # float64, is within 1e-6 of the channel's absolute sum
    r = np.random.default_rng(base * side)
    n = side - 4
    x = np.maximum(r.standard_normal((1, base) + (n + 2,) * 3, dtype=np.float32), 0)
    w = (r.standard_normal((2 * base, base, 3, 3, 3)) * 0.2).astype(np.float32)
    act = np.maximum(r.standard_normal((1, 2 * base) + (n,) * 3, dtype=np.float32), 0)
    _, argmax = layers.maxpool3d_forward(act)
    g_pool = r.standard_normal(argmax.shape, dtype=np.float32)
    g_skip = r.standard_normal((1, 2 * base) + (n - 32,) * 3, dtype=np.float32)
    blocks = (slice(None), slice(None), slice(None), None, slice(None), None, slice(None), None)
    octant = np.arange(8).reshape(1, 1, 1, 2, 1, 2, 1, 2)  # dz*4 + dy*2 + dx
    g = np.where(argmax[blocks] == octant, g_pool[blocks], np.float32(0)).reshape(act.shape)
    layers.crop_center3d(g, g_skip.shape[2:])[...] += g_skip
    g = np.where(act > 0, g, np.float32(0))
    want = layers.conv3d_backward(x, w, g)

    planes = functools.partial(unet._enc1b_grad, argmax, g_pool, g_skip,
                               np.packbits(act > 0, axis=-1))
    slabs = [planes(0, z, min(z + 3, n)) for z in range(0, n, 3)]
    assert slabs[-1].shape[1] < 3
    assert np.concatenate(slabs, axis=1).tobytes() == g[0].tobytes()
    got = layers.conv3d_backward(x, w, planes, out=x)
    assert got[0] is x
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert np.all(np.abs(got[2] - want[2]) <= 1e-6 * np.abs(g).sum(axis=(0, 2, 3, 4)))


def _step_peaks(base, side):
    """tracemalloc peaks of a cached forward and of a train_step."""
    params = unet.build_network(unet.NetworkConfig(base_channels=base, input_patch=side), seed=0)
    state = AdamState.for_params(params.tensors)
    batch = _batch(side=side, seed=4)
    tracemalloc.start()
    try:
        cl, tis, cache = unet.forward(params, batch["input"], want_cache=True)
        forward = tracemalloc.get_traced_memory()[1]
        del cl, tis, cache
        tracemalloc.reset_peak()
        unet.train_step(params, state, batch, True)
        step = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward, step


def test_train_step_peak_memory_holds_each_activation_once():
    # C=16, 48^3: the widest activation (enc1b, 32 x 44^3 float32) is
    # 10.4 MiB and a conv slab at most 16 MiB. Caching pre- and
    # post-activations and freeing nothing before backward returned peaked
    # at 90 MiB; one array per activation, freed as backward consumes it,
    # at 55 MiB; with the skips cropped at pooling, packed masks for the
    # pooled units and the padded gradient built one slab at a time, at
    # 44 MiB; with level 1 in depth chunks, every mask packed and each
    # input gradient written over its input, at 31.1 MiB
    assert _step_peaks(16, 48)[1] <= 36 * 2 ** 20


def test_paper_width_train_step_peak_memory():
    # C=16, 68^3, batch 1. Level 1 held whole made the cached forward peak
    # at 82.6 MiB beside enc1b's 32 MiB output, and the step at 88.6 MiB
    # in enc1b's conv backward beside its 32 MiB output gradient. With the
    # full-resolution units run in depth chunks and enc1b's gradient built
    # by slabs, the forward peaks at 57.9 MiB in dec2b's conv, and the step
    # at 62.6 MiB in dec1b's conv backward: enc1a's 17.5 MiB activation, the
    # other cached arrays and one conv's work block
    forward, step = _step_peaks(16, 68)
    assert forward <= 60 * 2 ** 20
    assert step <= 64 * 2 ** 20


def _inference_peak(monkeypatch, base, side, slices=1):
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=0)
    contrasts = _toy_contrasts(side, seed=5)
    _pin_slices(monkeypatch, slices)
    tracemalloc.start()
    try:
        unet.sliding_window_inference(params, contrasts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sliding_window_inference_builds_no_padded_subject(monkeypatch):
    # C=4, 96^3, padded to 136^3. A mirror-padded copy of the subject
    # (3 x 136^3 float32, 29 MiB) beside the forward of an 88^3 overlap
    # tile peaked at 89 MiB; streamed in pushes of 4 planes gathered from
    # the contrasts, with a 16 MiB conv slab, the skip FIFOs and the conv
    # carries beside them, at 38 MiB
    assert _inference_peak(monkeypatch, 4, 96) <= 50 * 2 ** 20


def test_sliding_window_inference_at_paper_width_chunks_level_one(monkeypatch):
    # C=16, 56^3, padded to 96^3. Level 1 whole, the enc1b output of a
    # 68^3 overlap tile (32 x 64^3 float32, 32 MiB) made the peak 70 MiB;
    # streamed in pushes of 4 planes, 42 MiB: a 16 MiB conv slab, 8 MiB of
    # conv carries and 10.5 MiB of skip FIFOs (about 19 enc1b crop planes);
    # 46 MiB with every carry's packed kernel (2.7 MiB) held for the stream
    assert _inference_peak(monkeypatch, 16, 56) <= 50 * 2 ** 20


def test_sliced_inference_keeps_one_streams_memory(monkeypatch):
    # C=4, 96^3 in two height slices of 48 output rows, each streaming its
    # 88 padded rows on a thread of its own, its conv slabs sized to a
    # quarter of SLAB_BUDGET_ELEMS: the two streams together peak at 32.5
    # MiB, under one stream's 36 MiB. With half the budget each they
    # peaked at 36 MiB, with the whole budget each at 51 MiB
    assert _inference_peak(monkeypatch, 4, 96, slices=2) <= 40 * 2 ** 20


@pytest.fixture
def blas_threads_kept():
    """The process's BLAS thread count, set again after the test."""
    threads = blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS is not the OpenBLAS whose threads clseg.blas sets")
    yield threads
    set_blas_threads(threads)


@pytest.mark.parametrize("base, shape, drop", [
    (2, (52, 92, 84), None),        # 92 rows: slices of 44 + 48 and of 28 + 32 + 32
    (3, (48, 61, 48), "t2s_epi"),   # 61 rows, padded to 64: the last slice is cut short
    (4, (44, 88, 56), "t2s_gre"),
], ids=["C2-52x92x84", "C3-48x61x48-epi", "C4-44x88x56-gre"])
def test_inference_bytes_do_not_depend_on_blas_threads_or_slices(
        monkeypatch, blas_threads_kept, base, shape, drop):
    # The labels and cl_prob are those of one cached pass over the padded
    # subject, byte for byte, at 1 and 2 BLAS threads and in 1, 2 or 3
    # height slices: a forward GEMM reduces over Ci*k*k, which OpenBLAS does
    # not split between threads, and every product spans whole planes of a
    # slice. Each call leaves the BLAS thread count as it found it
    params = unet.build_network(unet.NetworkConfig(base_channels=base), seed=3)
    r = np.random.default_rng(base)
    for k, t in params.tensors.items():
        if k.endswith(".bias") or k.startswith("head_"):
            t += (0.3 * r.standard_normal(t.shape)).astype(np.float32)
    contrasts = r.standard_normal((3,) + shape).astype(np.float32)
    cl_p, tis_p, _ = unet.forward(params, _padded_subject(contrasts, drop), want_cache=True)
    for threads in (1, 2):
        set_blas_threads(threads)
        for n in (1, 2, 3):
            _pin_slices(monkeypatch, n)
            got = unet.sliding_window_inference(params, contrasts, drop_channel=drop)
            assert got[3]["slices"] == n and blas_threads() == threads, (threads, n)
            _assert_predicts(got, cl_p, tis_p)


def test_sliding_window_non_multiple_side():
    cfg = unet.NetworkConfig(base_channels=2)
    params = unet.build_network(cfg, seed=1)
    contrasts = _toy_contrasts(50, seed=3)
    cl, tis, prob, run = unet.sliding_window_inference(params, contrasts)
    assert cl.shape == tis.shape == prob.shape == (50, 50, 50)
    assert run["padded_shape"] == [92, 92, 92]


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


def _normalize_two_gathers(vol):
    """normalize_volume as it was: one gather per statistic, then a new
    array from (vol - mu) / sd."""
    vol = vol.astype(np.float32)
    mask = vol != 0
    if not mask.any():
        mask = np.ones_like(vol, dtype=bool)
    mu = float(vol[mask].mean())
    sd = float(vol[mask].std())
    if sd == 0:
        sd = 1.0
    return (vol - mu) / sd


def test_normalize_volume_matches_two_gathers_bit_for_bit():
    r = np.random.default_rng(12)
    brain = np.zeros((9, 10, 11), np.float32)
    brain[2:7, 1:9, 3:10] = r.uniform(0.2, 1.3, (5, 8, 7))
    constant = np.where(brain != 0, np.float32(0.55), np.float32(0))
    volumes = [brain, brain.astype(np.float64), np.zeros((5, 6, 7), np.float32), constant,
               r.standard_normal((8, 8, 8))]
    for vol in volumes:
        before = vol.copy()
        got, want = unet.normalize_volume(vol), _normalize_two_gathers(vol)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(vol, before)  # the input is not normalized in place
    assert not unet.normalize_volume(volumes[2]).any()
    # sd 0: the volume is shifted by the brain's mean and divided by 1
    assert np.array_equal(unet.normalize_volume(constant), constant - np.float32(0.55))


def test_normalize_volume_zscore_over_nonzero():
    vol = np.zeros((6, 6, 6), np.float32)
    vol[2:5, 2:5, 2:5] = np.random.default_rng(0).uniform(1, 2, (3, 3, 3)).astype(np.float32)
    out = unet.normalize_volume(vol)
    inside = out[2:5, 2:5, 2:5]
    assert abs(float(inside.mean())) < 1e-5
    assert abs(float(inside.std()) - 1.0) < 1e-4
