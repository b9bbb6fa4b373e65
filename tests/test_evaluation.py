import numpy as np
import pytest

from scipy import ndimage

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


def _assert_labels_match_flood_fill(lab):
    """label_lesions(lab) against the flood-fill oracle: component k is the
    oracle's k-th component (both ordered by first voxel), with its class
    and size; entry 0 is the background."""
    ids, classes, sizes = ev.label_lesions(lab)
    oracle = flood_fill_components(lab)
    assert ids.dtype == np.int32 and ids.shape == lab.shape
    assert len(classes) == len(sizes) == len(oracle) + 1
    assert classes[0] == 0 and sizes[0] == int((lab == 0).sum())
    assert not ids[lab == 0].any()
    for k, (cls, voxels) in enumerate(oracle, start=1):
        assert classes[k] == cls
        assert sizes[k] == len(voxels)
        assert set(map(tuple, np.argwhere(ids == k))) == voxels
    return ids, classes, sizes


def test_cross_is_one_component():
    lab = np.zeros((5, 5, 5), np.uint8)
    lab[2, 2, 2] = 1
    for d in range(3):
        idx = [2, 2, 2]
        for off in (-1, 1):
            idx[d] = 2 + off
            lab[tuple(idx)] = 1
    _, classes, sizes = _assert_labels_match_flood_fill(lab)
    assert list(classes) == [0, 1]
    assert list(sizes) == [125 - 7, 7]


def test_corner_touch_merges_under_26():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[0, 0, 0] = 1
    lab[1, 1, 1] = 1
    assert len(_assert_labels_match_flood_fill(lab)[1]) == 1 + 1


def test_components_never_span_classes():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[1, 1, 1] = 1
    lab[1, 1, 2] = 2
    ids, classes, _ = _assert_labels_match_flood_fill(lab)
    assert sorted(classes[1:]) == [1, 2]
    assert ids[1, 1, 1] != ids[1, 1, 2]


def test_ids_ordered_by_min_linear_index():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[3, 3, 3] = 1
    lab[0, 0, 1] = 2
    lab[2, 0, 0] = 1
    ids, classes, _ = _assert_labels_match_flood_fill(lab)
    assert (ids[0, 0, 1], ids[2, 0, 0], ids[3, 3, 3]) == (1, 2, 3)
    assert classes[1] == 2  # voxel (0,0,1) comes first in x-fastest order


def test_all_lesion_volume_is_labelled():
    # no background voxel at all: each class must still be labelled
    lab = np.ones((4, 5, 6), np.uint8)
    lab[2:, :, :] = 2
    ids, classes, sizes = _assert_labels_match_flood_fill(lab)
    assert list(classes) == [0, 1, 2] and list(sizes) == [0, 60, 60]
    ids, classes, sizes = _assert_labels_match_flood_fill(np.full((3, 3, 3), 2, np.uint8))
    assert list(classes) == [0, 2] and list(sizes) == [0, 27]


def test_empty_volume_has_only_background():
    ids, classes, sizes = _assert_labels_match_flood_fill(np.zeros((3, 4, 5), np.uint8))
    assert not ids.any()
    assert list(classes) == [0] and list(sizes) == [60]


def _label_whole_volume(lab):
    """label_lesions as it was before it labelled the lesions' bounding box:
    each class labelled over the whole volume, components numbered by
    their first voxel in C order."""
    structure = np.ones((3, 3, 3), bool)
    comps = []
    for cls in np.unique(lab[lab != 0]).tolist():
        comp, n = ndimage.label(lab == cls, structure=structure)
        first = [int(np.flatnonzero(comp == k)[0]) for k in range(1, n + 1)]
        comps += [(f, cls, comp == k) for f, k in zip(first, range(1, n + 1))]
    ids = np.zeros(lab.shape, np.int32)
    classes, sizes = [0], [int((lab == 0).sum())]
    for k, (_, cls, mask) in enumerate(sorted(comps, key=lambda c: c[0]), start=1):
        ids[mask] = k
        classes.append(cls)
        sizes.append(int(mask.sum()))
    return ids, np.array(classes, np.int64), np.array(sizes, np.int64)


@pytest.mark.parametrize("case", ["faces", "edges", "corners", "inner", "empty", "all"])
def test_bounding_box_labelling_equals_whole_volume(case):
    # lesions touching the volume's faces, running along its edges or
    # sitting in its corners put the bounding box on the volume's border
    lab = np.zeros((9, 10, 11), np.uint8)
    if case == "faces":
        lab[0, 3:5, 4:6] = 1
        lab[4, 9, 2:4] = 2
        lab[5:7, 5, 10] = 1
    elif case == "edges":
        lab[0, 0, :] = 2
        lab[3:8, 9, 10] = 1
        lab[8, 2:5, 0] = 2
    elif case == "corners":
        for z, y, x in np.ndindex(2, 2, 2):
            lab[z * 8, y * 9, x * 10] = 1 + (z + y + x) % 2
        lab[1, 1, 1] = 1  # 26-touches the corner at the origin
    elif case == "inner":
        lab[3:6, 4:7, 5] = 2
        lab[4, 2, 7:9] = 1
    elif case == "all":
        lab[:] = 1
        lab[:, :, 5:] = 2
    got = ev.label_lesions(lab)
    want = _label_whole_volume(lab)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("density", [0.01, 0.05, 0.1, 0.2, 0.3])
def test_components_match_scipy_label_at_densities(density):
    # two codes, random at 1-30% density, plus slabs and lines on faces,
    # edges and corners of a non-cubic volume: the same bytes as scipy's
    # per-class labelling, and the flood-fill oracle's components
    lab = _random_labels((13, 17, 21), density=density, seed=int(density * 100))
    lab[0, :4, :] = 1
    lab[-1, -1, :] = 2
    lab[5:9, 0, -1] = 2
    lab[-1, 0, 0] = 1
    got = ev.label_lesions(lab)
    want = _label_whole_volume(lab)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    _assert_labels_match_flood_fill(lab)


def test_volume_ul_at_half_mm():
    lab = np.zeros((4, 4, 4), np.uint8)
    lab[0, 0, 0:3] = 1
    pe = ev.evaluate_patient("s0", lab, lab.copy(), ev.EvalConfig(min_lesion_voxels=1),
                             spacing_mm=(0.5, 0.5, 0.5))
    assert pe.ref_total_ul == pytest.approx(3 * 0.125)
    assert pe.pred_total_ul == pytest.approx(3 * 0.125)


@pytest.mark.parametrize("seed", range(25))
def test_components_match_flood_fill_oracle(seed):
    lab = _random_labels(density=0.15 + 0.03 * (seed % 5), seed=seed)
    _assert_labels_match_flood_fill(lab)


# --- size filter ---------------------------------------------------------------


def test_filter_min_size():
    lab = np.zeros((8, 8, 8), np.uint8)
    lab[0, 0, 0:6] = 1   # 6 voxels
    lab[4, 4, 0:5] = 2   # 5 voxels
    pe = ev.evaluate_patient("s0", lab, lab.copy(), ev.EvalConfig(min_lesion_voxels=6),
                             thresholds=(1, 6, 7))
    assert pe.metrics["n_ref"] == pe.metrics["n_pred"] == 1
    assert pe.ref_total_ul == pytest.approx(0.75)
    assert [r["size_voxels"] for r in pe.by_threshold[6]["records"]] == [6]
    assert [r["size_voxels"] for r in pe.by_threshold[1]["records"]] == [6, 5]
    assert pe.by_threshold[7] == {"records": [], "n_pred": 0, "n_fp": 0}


# --- matching and metrics -------------------------------------------------------


def _eval1(ref_lab, pred_lab):
    """Metrics with every component kept (min size 1)."""
    return ev.evaluate_patient("s0", ref_lab, pred_lab,
                               ev.EvalConfig(min_lesion_voxels=1)).metrics


def test_identical_masks_fully_matched():
    lab = _random_labels(seed=3)
    metrics = _eval1(lab, lab)
    assert metrics["n_detected"] == metrics["n_ref"] == len(flood_fill_components(lab))
    assert metrics["n_fp"] == 0
    assert metrics["ltpr"] == 1.0 and metrics["lfpr"] == 0.0 and metrics["accuracy"] == 1.0


def test_one_prediction_covering_two_refs():
    ref_lab = np.zeros((8, 8, 8), np.uint8)
    ref_lab[2, 2, 1] = 1
    ref_lab[2, 2, 5] = 1
    pred_lab = np.zeros((8, 8, 8), np.uint8)
    pred_lab[2, 2, 0:7] = 1
    metrics = _eval1(ref_lab, pred_lab)
    assert metrics["n_detected"] == 2
    assert metrics["n_fp"] == 0


def test_partial_detection_rates():
    ref_lab = np.zeros((10, 10, 10), np.uint8)
    ref_lab[0, 0, 0] = 1
    ref_lab[5, 5, 5] = 1
    pred_lab = np.zeros((10, 10, 10), np.uint8)
    pred_lab[0, 0, 0] = 1      # hits ref 1
    pred_lab[2, 9, 9] = 1      # FP
    pred_lab[9, 2, 0] = 2      # FP
    pred_lab[9, 9, 9] = 2      # FP
    metrics = _eval1(ref_lab, pred_lab)
    assert metrics["ltpr"] == 0.5        # 2 refs, 1 detected
    assert metrics["lfpr"] == 0.75       # 4 predictions, 3 unmatched
    assert metrics["accuracy"] == 1.0


def test_class_mismatch_counts_in_ltpr_not_accuracy():
    ref_lab = np.zeros((6, 6, 6), np.uint8)
    ref_lab[2, 2, 2:4] = 1               # leukocortical reference
    pred_lab = np.zeros((6, 6, 6), np.uint8)
    pred_lab[2, 2, 2:4] = 2              # predicted subpial/intracortical
    metrics = _eval1(ref_lab, pred_lab)
    assert metrics["ltpr"] == 1.0
    assert metrics["accuracy"] == 0.0


def test_majority_tie_breaks_to_class_1():
    ref_lab = np.zeros((6, 6, 6), np.uint8)
    ref_lab[1, 1, 1:3] = 2               # subpial reference, 2 voxels
    pred_lab = np.zeros((6, 6, 6), np.uint8)
    pred_lab[1, 1, 1] = 1
    pred_lab[1, 1, 2] = 2                # tie 1:1 over the ref support
    assert _eval1(ref_lab, pred_lab)["accuracy"] == 0.0
    # the same tie on a leukocortical reference is a correct class
    assert _eval1(np.where(ref_lab > 0, 1, 0).astype(np.uint8), pred_lab)["accuracy"] == 1.0


def test_empty_denominator_conventions_flagged():
    empty = np.zeros((4, 4, 4), np.uint8)
    some = np.zeros((4, 4, 4), np.uint8)
    some[0, 0, 0] = 1
    metrics = _eval1(empty, some)
    assert metrics["ltpr"] == 1.0 and "ltpr_empty_reference" in metrics["flags"]
    metrics2 = _eval1(some, empty)
    assert metrics2["lfpr"] == 0.0 and "lfpr_empty_prediction" in metrics2["flags"]
    assert metrics2["accuracy"] == 1.0 and "accuracy_no_detections" in metrics2["flags"]
    assert ev.rates(0, 0, 0, 0, 0)["flags"] == [
        "ltpr_empty_reference", "lfpr_empty_prediction", "accuracy_no_detections"]


@pytest.mark.parametrize("seed", range(20))
def test_metrics_match_brute_force(seed):
    shape = (12, 12, 12)
    ref_lab = _random_labels(shape, density=0.08, seed=seed)
    pred_lab = _random_labels(shape, density=0.08, seed=seed + 1000)
    got = _eval1(ref_lab, pred_lab)
    ref = flood_fill_components(ref_lab)
    pred = flood_fill_components(pred_lab)
    want = detection_metrics_reference(
        [v for _, v in ref], [c for c, _ in ref],
        [v for _, v in pred], [c for c, _ in pred],
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
    comps = flood_fill_components(ref)
    if comps:
        pred[tuple(np.array(sorted(comps[0][1])).T)] = 0
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
        ref_comps = [(c, v) for c, v in flood_fill_components(ref) if len(v) >= t]
        pred_comps = [(c, v) for c, v in flood_fill_components(pred) if len(v) >= t]
        want = detection_metrics_reference(
            [v for _, v in ref_comps], [c for c, _ in ref_comps],
            [v for _, v in pred_comps], [c for c, _ in pred_comps],
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
