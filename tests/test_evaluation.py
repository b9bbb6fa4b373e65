import numpy as np
import pytest

from clseg import evaluation as ev

from brute_force import detection_metrics_reference, flood_fill_components

rng = np.random.default_rng(77)


def _random_labels(shape=(16, 16, 16), density=0.2, classes=(1, 2), seed=0):
    r = np.random.default_rng(seed)
    lab = np.zeros(shape, np.uint8)
    mask = r.random(shape) < density
    lab[mask] = r.choice(classes, size=int(mask.sum()))
    return lab


# --- connected components ----------------------------------------------------


def test_cross_is_one_component():
    lab = np.zeros((5, 5, 5), np.uint8)
    lab[2, 2, 2] = 1
    for d in range(3):
        idx = [2, 2, 2]
        for off in (-1, 1):
            idx[d] = 2 + off
            lab[tuple(idx)] = 1
    comps = ev.connected_components(lab)
    assert len(comps) == 1
    assert comps[0].size_voxels == 7
    assert comps[0].cl_class == 1


def test_corner_touch_merges_under_26():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[0, 0, 0] = 1
    lab[1, 1, 1] = 1
    assert len(ev.connected_components(lab, connectivity=26)) == 1
    assert len(ev.connected_components(lab, connectivity=6)) == 2


def test_components_never_span_classes():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[1, 1, 1] = 1
    lab[1, 1, 2] = 2
    comps = ev.connected_components(lab)
    assert len(comps) == 2
    assert {c.cl_class for c in comps} == {1, 2}


def test_ids_ordered_by_min_linear_index():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[3, 3, 3] = 1
    lab[0, 0, 1] = 2
    lab[2, 0, 0] = 1
    comps = ev.connected_components(lab)
    assert [c.id for c in comps] == [0, 1, 2]
    assert [c.min_linear_index for c in comps] == sorted(c.min_linear_index for c in comps)
    assert comps[0].cl_class == 2  # voxel (0,0,1) comes first in x-fastest order


def test_volume_ul_at_half_mm():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[0, 0, 0:3] = 1
    comps = ev.connected_components(lab, spacing_mm=(0.5, 0.5, 0.5))
    assert comps[0].volume_ul == pytest.approx(3 * 0.125)


@pytest.mark.parametrize("seed", range(25))
def test_components_match_flood_fill_oracle(seed):
    lab = _random_labels(density=0.15 + 0.03 * (seed % 5), seed=seed)
    comps = ev.connected_components(lab)
    oracle = flood_fill_components(lab)
    assert len(comps) == len(oracle)
    for got, (cls, voxels) in zip(comps, oracle):
        assert got.cl_class == cls
        assert set(map(tuple, got.voxels)) == voxels


# --- size filter ---------------------------------------------------------------


def test_filter_min_size():
    lab = np.zeros((8, 8, 8), np.uint8)
    lab[0, 0, 0:6] = 1   # 6 voxels
    lab[4, 4, 0:5] = 2   # 5 voxels
    comps = ev.connected_components(lab)
    kept = ev.filter_min_size(comps, 6)
    assert len(kept) == 1
    assert kept[0].size_voxels == 6
    assert kept[0].volume_ul == pytest.approx(0.75)
    assert ev.filter_min_size(comps, 1) == comps
    assert ev.filter_min_size(ev.filter_min_size(comps, 6), 6) == kept


# --- matching and metrics -------------------------------------------------------


def test_identical_masks_fully_matched():
    lab = _random_labels(seed=3)
    ref = ev.connected_components(lab)
    pred = ev.connected_components(lab)
    m = ev.match_lesions(ref, pred, lab.shape)
    assert m.detected_ref_ids == {c.id for c in ref}
    assert not m.fp_pred_ids
    metrics = ev.lesion_metrics(m, ref, pred)
    assert metrics["ltpr"] == 1.0 and metrics["lfpr"] == 0.0 and metrics["accuracy"] == 1.0


def test_one_prediction_covering_two_refs():
    ref_lab = np.zeros((8, 8, 8), np.uint8)
    ref_lab[2, 2, 1] = 1
    ref_lab[2, 2, 5] = 1
    pred_lab = np.zeros((8, 8, 8), np.uint8)
    pred_lab[2, 2, 0:7] = 1
    ref = ev.connected_components(ref_lab)
    pred = ev.connected_components(pred_lab)
    m = ev.match_lesions(ref, pred, ref_lab.shape)
    assert len(m.detected_ref_ids) == 2
    assert not m.fp_pred_ids


def test_partial_detection_rates():
    ref_lab = np.zeros((10, 10, 10), np.uint8)
    ref_lab[0, 0, 0] = 1
    ref_lab[5, 5, 5] = 1
    pred_lab = np.zeros((10, 10, 10), np.uint8)
    pred_lab[0, 0, 0] = 1      # hits ref 1
    pred_lab[2, 9, 9] = 1      # FP
    pred_lab[9, 2, 0] = 2      # FP
    pred_lab[9, 9, 9] = 2      # FP
    ref = ev.connected_components(ref_lab)
    pred = ev.connected_components(pred_lab)
    m = ev.match_lesions(ref, pred, ref_lab.shape)
    metrics = ev.lesion_metrics(m, ref, pred)
    assert metrics["ltpr"] == 0.5        # 2 refs, 1 detected
    assert metrics["lfpr"] == 0.75       # 4 predictions, 3 unmatched
    assert metrics["accuracy"] == 1.0


def test_class_mismatch_counts_in_ltpr_not_accuracy():
    ref_lab = np.zeros((6, 6, 6), np.uint8)
    ref_lab[2, 2, 2:4] = 1               # leukocortical reference
    pred_lab = np.zeros((6, 6, 6), np.uint8)
    pred_lab[2, 2, 2:4] = 2              # predicted subpial/intracortical
    ref = ev.connected_components(ref_lab)
    pred = ev.connected_components(pred_lab)
    m = ev.match_lesions(ref, pred, ref_lab.shape)
    metrics = ev.lesion_metrics(m, ref, pred)
    assert metrics["ltpr"] == 1.0
    assert metrics["accuracy"] == 0.0


def test_majority_tie_breaks_to_class_1():
    ref_lab = np.zeros((6, 6, 6), np.uint8)
    ref_lab[1, 1, 1:3] = 2               # subpial reference, 2 voxels
    pred_lab = np.zeros((6, 6, 6), np.uint8)
    pred_lab[1, 1, 1] = 1
    pred_lab[1, 1, 2] = 2                # tie 1:1 over the ref support
    ref = ev.connected_components(ref_lab)
    pred = ev.connected_components(pred_lab)
    m = ev.match_lesions(ref, pred, ref_lab.shape)
    assert m.majority_pred_class[ref[0].id] == 1
    assert ev.lesion_metrics(m, ref, pred)["accuracy"] == 0.0


def test_empty_denominator_conventions_flagged():
    empty = np.zeros((4, 4, 4), np.uint8)
    some = np.zeros((4, 4, 4), np.uint8)
    some[0, 0, 0] = 1
    ref = ev.connected_components(empty)
    pred = ev.connected_components(some)
    m = ev.match_lesions(ref, pred, empty.shape)
    metrics = ev.lesion_metrics(m, ref, pred)
    assert metrics["ltpr"] == 1.0 and "ltpr_empty_reference" in metrics["flags"]
    m2 = ev.match_lesions(pred, ref, empty.shape)
    metrics2 = ev.lesion_metrics(m2, pred, ref)
    assert metrics2["lfpr"] == 0.0 and "lfpr_empty_prediction" in metrics2["flags"]


@pytest.mark.parametrize("seed", range(20))
def test_metrics_match_brute_force(seed):
    shape = (12, 12, 12)
    ref_lab = _random_labels(shape, density=0.08, seed=seed)
    pred_lab = _random_labels(shape, density=0.08, seed=seed + 1000)
    ref = ev.connected_components(ref_lab)
    pred = ev.connected_components(pred_lab)
    m = ev.match_lesions(ref, pred, shape)
    got = ev.lesion_metrics(m, ref, pred)
    want = detection_metrics_reference(
        [set(map(tuple, c.voxels)) for c in ref], [c.cl_class for c in ref],
        [set(map(tuple, c.voxels)) for c in pred], [c.cl_class for c in pred],
        pred_lab)
    for k in ("ltpr", "lfpr", "accuracy", "n_detected", "n_fp"):
        assert got[k] == pytest.approx(want[k]), (k, got, want)


# --- avd -----------------------------------------------------------------------


def test_avd_values():
    assert ev.avd(100.0, 64.0) == pytest.approx(0.36)
    assert ev.avd(42.0, 42.0) == 0.0
    assert ev.avd(10.0, 0.0) == 1.0
    assert ev.avd(0.0, 5.0) is None


# --- per-patient evaluation and report ------------------------------------------


def _phantom_like_pair(seed=0):
    """Reference labels plus a prediction that misses some lesions."""
    r = np.random.default_rng(seed)
    ref = np.zeros((20, 20, 20), np.uint8)
    blobs = []
    for i in range(6):
        z, y, x = r.integers(2, 17, 3)
        cls = int(r.integers(1, 3))
        size = int(r.integers(6, 12))
        ref[z - 1:z + 1, y - 1:y + 1, x - 1:x + 1] = cls
        blobs.append((z, y, x, cls, size))
    pred = ref.copy()
    # drop one component, add one spurious blob
    comps = ev.connected_components(ref)
    if comps:
        vz, vy, vx = comps[0].voxels.T
        pred[vz, vy, vx] = 0
    pred[18, 18, 18] = 1
    return ref, pred


def test_evaluate_patient_and_report_identity_row():
    ref, _ = _phantom_like_pair()
    pe = ev.evaluate_patient("s0", ref, ref.copy(), ev.EvalConfig(min_lesion_voxels=1))
    assert pe.metrics["ltpr"] == 1.0
    assert pe.metrics["lfpr"] == 0.0
    assert pe.avd == 0.0
    report = ev.build_report({"self": [pe]})
    row = report["models"]["self"]["table1"]
    assert (row["ltpr"], row["lfpr"], row["avd"], row["accuracy"]) == (1.0, 0.0, 0.0, 1.0)
    ba = report["models"]["self"]["bland_altman"]
    assert ba["bias"] == 0.0
    assert ba["lower_limit"] == ba["upper_limit"] == 0.0


def test_size_curves_recomputed_per_threshold():
    ref, pred = _phantom_like_pair(seed=4)
    cfg = ev.EvalConfig(min_lesion_voxels=1)
    pe = ev.evaluate_patient("s0", ref, pred, cfg, thresholds=(1, 2, 4, 8))
    for t, data in pe.by_threshold.items():
        # recomputation oracle: re-derive detection flags independently
        ref_comps = ev.filter_min_size(ev.connected_components(ref), t)
        pred_comps = ev.filter_min_size(ev.connected_components(pred), t)
        want = detection_metrics_reference(
            [set(map(tuple, c.voxels)) for c in ref_comps],
            [c.cl_class for c in ref_comps],
            [set(map(tuple, c.voxels)) for c in pred_comps],
            [c.cl_class for c in pred_comps],
            pred)
        got_detected = sum(1 for rec in data["records"] if rec["detected"])
        assert got_detected == want["n_detected"]
        assert data["n_fp"] == want["n_fp"]


def test_record_centroids_outside_the_grid_take_the_nearest_component():
    # A sits at the origin corner, B at the far corner; a centroid at -1 must
    # not wrap around into B, and one past the end must not index out of range
    ref = np.zeros((10, 10, 10), np.uint8)
    ref[:2, :2, :2] = 1
    ref[8:, 8:, 8:] = 2
    records = [{"centroid": [-1.0, -1.0, -1.0], "type": 3},
               {"centroid": [10.2, 10.0, 9.6], "type": 4}]
    pe = ev.evaluate_patient("s0", ref, ref.copy(), lesion_records=records)
    assert [(r["class"], r["type"]) for r in pe.by_threshold[6]["records"]] == [(1, 3), (2, 4)]


def test_pooled_ltpr_equals_cohort_counts():
    pats = []
    for s in range(4):
        ref, pred = _phantom_like_pair(seed=s)
        pats.append(ev.evaluate_patient(f"s{s}", ref, pred, ev.EvalConfig(min_lesion_voxels=1)))
    report = ev.build_report({"m": pats})
    row = report["models"]["m"]["table1"]
    n_ref = sum(p.metrics["n_ref"] for p in pats)
    n_det = sum(p.metrics["n_detected"] for p in pats)
    assert row["ltpr"] == pytest.approx(n_det / n_ref)
    assert row["n_ref"] == n_ref


def test_report_rejects_mismatched_cohorts():
    ref, pred = _phantom_like_pair()
    cfg = ev.EvalConfig(min_lesion_voxels=1)
    a = [ev.evaluate_patient("s0", ref, pred, cfg)]
    b = [ev.evaluate_patient("s1", ref, pred, cfg)]
    with pytest.raises(ValueError, match="cover"):
        ev.build_report({"a": a, "b": b})


def test_report_files_written(tmp_path):
    pats = {}
    for name in ("model_a", "model_b"):
        rows = []
        for s in range(6):
            ref, pred = _phantom_like_pair(seed=s + (7 if name == "model_b" else 0))
            if name == "model_b":
                pred = ref.copy()
            rows.append(ev.evaluate_patient(
                f"s{s}", ref, pred, ev.EvalConfig(min_lesion_voxels=1)))
        pats[name] = rows
    report = ev.build_report(pats)
    assert len(report["wilcoxon"]) == 2  # 1 pair x 2 metrics
    ev.write_report_files(report, tmp_path)
    for name in ("report.json", "table1.csv", "ltpr_by_size.csv",
                 "bland_altman.csv", "wilcoxon.csv"):
        assert (tmp_path / name).exists()
    header = (tmp_path / "table1.csv").read_text().splitlines()[0]
    assert header == "model,ltpr,lfpr,avd,accuracy"
