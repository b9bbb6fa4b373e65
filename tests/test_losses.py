import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clseg import losses
from clseg.layers import ContractError, channel_softmax

from gradcheck import gradient_check

rng = np.random.default_rng(5)


def test_uniform_probs_give_ln3():
    probs = np.full((1, 3, 2, 2, 2), 1.0 / 3.0)
    labels = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    loss, _ = losses.weighted_cross_entropy(probs, labels, np.ones((1, 2, 2, 2)))
    assert loss == pytest.approx(np.log(3.0), abs=1e-12)


def test_perfect_prediction_zero_loss():
    labels = rng.integers(0, 3, (1, 3, 3, 3)).astype(np.uint8)
    probs = np.zeros((1, 3, 3, 3, 3))
    np.put_along_axis(probs, labels[:, None].astype(np.intp), 1.0, axis=1)
    loss, grad = losses.weighted_cross_entropy(probs, labels, np.ones(labels.shape))
    assert loss <= 1e-10


def test_weight_scaling_invariance():
    probs = channel_softmax(rng.standard_normal((1, 3, 2, 2, 2)))
    labels = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    w = rng.random((1, 2, 2, 2))
    l1, g1 = losses.weighted_cross_entropy(probs, labels, w)
    l2, g2 = losses.weighted_cross_entropy(probs, labels, 2.0 * w)
    assert l1 == pytest.approx(l2, rel=1e-12)
    assert np.allclose(g1, g2, atol=1e-15)


def test_all_zero_weights_zero_loss_and_grad():
    probs = channel_softmax(rng.standard_normal((1, 3, 2, 2, 2)))
    labels = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    loss, grad = losses.weighted_cross_entropy(probs, labels, np.zeros((1, 2, 2, 2)))
    assert loss == 0.0
    assert not grad.any()


def test_zero_weight_voxels_have_exactly_zero_gradient():
    probs = channel_softmax(rng.standard_normal((1, 3, 2, 2, 2)))
    labels = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    w = np.ones((1, 2, 2, 2))
    w[0, 0, 1, 0] = 0.0
    w[0, 1, 1, 1] = 0.0
    _, grad = losses.weighted_cross_entropy(probs, labels, w)
    assert not grad[0, :, 0, 1, 0].any()
    assert not grad[0, :, 1, 1, 1].any()
    assert grad[0, :, 0, 0, 0].any()


def test_gradient_matches_finite_differences():
    logits = rng.standard_normal((1, 3, 2, 2, 2))
    labels = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    w = rng.random((1, 2, 2, 2))

    def loss():
        return losses.weighted_cross_entropy(channel_softmax(logits), labels, w)[0]

    _, grad = losses.weighted_cross_entropy(channel_softmax(logits), labels, w)
    rep = gradient_check(loss, {"logits": logits}, {"logits": grad},
                         rng=np.random.default_rng(0))
    assert rep.passed, rep.summary()


def test_label_out_of_range_rejected():
    probs = np.full((1, 3, 1, 1, 1), 1 / 3)
    labels = np.full((1, 1, 1, 1), 3, np.uint8)
    with pytest.raises(ContractError):
        losses.weighted_cross_entropy(probs, labels, np.ones((1, 1, 1, 1)))


# --- weight maps -------------------------------------------------------------


def test_cl_weight_map_places_15_1_0():
    cl = np.zeros((2, 2, 2), np.uint8)
    wml = np.zeros((2, 2, 2), np.uint8)
    cl[0, 0, 0] = 1
    wml[1, 1, 1] = 1
    w = losses.build_cl_weight_map(cl, wml)
    assert w[0, 0, 0] == 15.0
    assert w[1, 1, 1] == 0.0
    assert (w == 1.0).sum() == 6
    assert sorted(np.unique(w)) == [0.0, 1.0, 15.0]


def test_cl_and_wml_same_voxel_takes_cl_weight():
    cl = np.array([[[2]]], np.uint8)
    wml = np.array([[[1]]], np.uint8)
    w = losses.build_cl_weight_map(cl, wml)
    assert w[0, 0, 0] == 15.0


def test_cl_weight_map_no_lesions_all_ones():
    z = np.zeros((3, 3, 3), np.uint8)
    assert np.all(losses.build_cl_weight_map(z, z) == 1.0)


def test_tissue_weight_map_zero_on_lesion_union():
    rng_ = np.random.default_rng(1)
    cl = (rng_.random((4, 4, 4)) < 0.3).astype(np.uint8) * 2
    wml = (rng_.random((4, 4, 4)) < 0.3).astype(np.uint8)
    w = losses.build_tissue_weight_map(cl, wml)
    union = (cl != 0) | (wml != 0)  # set-union oracle
    assert np.array_equal(w == 0.0, union)
    assert np.array_equal(w == 1.0, ~union)
    z = np.zeros((2, 2, 2), np.uint8)
    assert np.all(losses.build_tissue_weight_map(z, z) == 1.0)
    ones = np.ones((2, 2, 2), np.uint8)
    assert np.all(losses.build_tissue_weight_map(z, ones) == 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_weight_maps_contain_only_configured_values(seed):
    r = np.random.default_rng(seed)
    cl = r.integers(0, 3, (3, 3, 3)).astype(np.uint8)
    wml = r.integers(0, 2, (3, 3, 3)).astype(np.uint8)
    wc = losses.build_cl_weight_map(cl, wml)
    wt = losses.build_tissue_weight_map(cl, wml)
    assert set(np.unique(wc)) <= {0.0, 1.0, 15.0}
    assert set(np.unique(wt)) <= {0.0, 1.0}
    # idempotent: rebuilding gives the same maps
    assert np.array_equal(wc, losses.build_cl_weight_map(cl, wml))
    assert np.array_equal(wt, losses.build_tissue_weight_map(cl, wml))


def test_shape_mismatch():
    with pytest.raises(ContractError):
        losses.build_cl_weight_map(np.zeros((2, 2, 2), np.uint8),
                                   np.zeros((2, 2, 3), np.uint8))


# --- combined loss -----------------------------------------------------------


def _random_case(tissue_enabled=True, seed=0):
    r = np.random.default_rng(seed)
    cl_logits = r.standard_normal((1, 3, 2, 2, 2))
    t_logits = r.standard_normal((1, 3, 2, 2, 2))
    cl = r.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    tis = r.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    wml = (r.random((1, 2, 2, 2)) < 0.3).astype(np.uint8)
    cfg = losses.LossConfig(tissue_head_enabled=tissue_enabled)
    return cl_logits, t_logits, cl, tis, wml, cfg


def test_combined_tissue_disabled_is_half_cl_loss():
    cl_logits, t_logits, cl, tis, wml, cfg = _random_case(tissue_enabled=False)
    cp, tp = channel_softmax(cl_logits), channel_softmax(t_logits)
    total, (l_cl, l_t), (g_cl, g_t) = losses.combined_loss(cp, tp, cl, tis, wml, cfg)
    assert l_t == 0.0
    assert total == pytest.approx(l_cl / 2.0, rel=1e-12)
    assert not g_t.any()


def test_combined_perfect_predictions_near_zero():
    cl = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    tis = rng.integers(0, 3, (1, 2, 2, 2)).astype(np.uint8)
    wml = np.zeros((1, 2, 2, 2), np.uint8)
    cp = np.zeros((1, 3, 2, 2, 2))
    np.put_along_axis(cp, cl[:, None].astype(np.intp), 1.0, axis=1)
    tp = np.zeros((1, 3, 2, 2, 2))
    np.put_along_axis(tp, tis[:, None].astype(np.intp), 1.0, axis=1)
    total, _, _ = losses.combined_loss(cp, tp, cl, tis, wml)
    assert total <= 1e-10


def test_combined_gradient_matches_finite_differences():
    cl_logits, t_logits, cl, tis, wml, cfg = _random_case(seed=3)

    def loss():
        total, _, _ = losses.combined_loss(
            channel_softmax(cl_logits), channel_softmax(t_logits), cl, tis, wml, cfg)
        return total

    _, _, (g_cl, g_t) = losses.combined_loss(
        channel_softmax(cl_logits), channel_softmax(t_logits), cl, tis, wml, cfg)
    rep = gradient_check(loss, {"cl": cl_logits, "t": t_logits},
                         {"cl": g_cl, "t": g_t}, rng=np.random.default_rng(1))
    assert rep.passed, rep.summary()


def test_loss_decreases_toward_perfect():
    # loss is non-increasing to 0 as the true-class probability rises
    labels = np.zeros((1, 1, 1, 1), np.uint8)
    w = np.ones((1, 1, 1, 1))
    prev = np.inf
    for p_true in (0.4, 0.6, 0.8, 0.99, 1.0):
        probs = np.array([p_true, (1 - p_true) / 2, (1 - p_true) / 2]).reshape(1, 3, 1, 1, 1)
        loss, _ = losses.weighted_cross_entropy(probs, labels, w)
        assert loss <= prev
        prev = loss
    assert prev == 0.0
