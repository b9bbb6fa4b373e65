import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from clseg import phantom
from clseg.evaluation import EvalConfig, evaluate_patient, label_lesions
from clseg.phantom import PhantomSpec, counts_from_mix, generate_cohort, generate_subject

from conftest import TINY_SPEC

FULL = np.ones((3, 3, 3), bool)


def test_counts_from_mix_exact_at_100():
    assert counts_from_mix(100) == (38, 7, 44, 11)
    assert sum(counts_from_mix(12)) == 12
    assert sum(counts_from_mix(7)) == 7


def test_generation_is_deterministic():
    vols1, recs1 = generate_subject(TINY_SPEC, 31337)
    vols2, recs2 = generate_subject(TINY_SPEC, 31337)
    assert recs1 == recs2
    for k in vols1:
        assert np.array_equal(vols1[k], vols2[k]), k


def test_zero_lesion_spec_gives_clean_shells():
    spec = dataclasses.replace(TINY_SPEC, lesion_counts=(0, 0, 0, 0), wml_count=0)
    vols, recs = generate_subject(spec, 5)
    assert recs == []
    assert not vols["cl_labels"].any()
    assert not vols["wml_labels"].any()
    tissue = vols["tissue_labels"]
    assert set(np.unique(tissue)) == {0, 1, 2}
    # WM strictly interior to GM shell: no WM voxel touches background
    wm_dilated = ndimage.binary_dilation(tissue == 1, structure=FULL)
    assert not (wm_dilated & (tissue == 0)).any()


@pytest.fixture(scope="module")
def subject():
    vols, recs = generate_subject(TINY_SPEC, 2024)
    return vols, recs


def test_type_constraints_hold(subject):
    vols, recs = subject
    tissue = vols["tissue_labels"]
    cl = vols["cl_labels"]
    gm, wm = tissue == 2, tissue == 1
    bg_adjacent = ndimage.binary_dilation(tissue == 0, structure=FULL)
    lab, n = ndimage.label(cl > 0, structure=FULL)
    assert n == len(recs)
    for rec in recs:
        c = tuple(int(round(v)) for v in rec["centroid"])
        comp = lab == lab[c]
        assert lab[c] > 0
        if rec["type"] == 1:
            assert (comp & gm).any() and (comp & wm).any()
            assert rec["class"] == 1
        elif rec["type"] == 2:
            assert not (comp & bg_adjacent).any()
            assert rec["class"] == 2
        else:
            assert (comp & bg_adjacent).any()
            assert rec["class"] == 2
        assert rec["size_voxels"] >= 6


def test_components_recover_planted_records(subject):
    vols, recs = subject
    cl = vols["cl_labels"]
    _, classes, sizes = label_lesions(cl)
    assert len(classes) - 1 == len(recs)
    got = sorted(zip(sizes[1:].tolist(), classes[1:].tolist()))
    want = sorted((r["size_voxels"], r["class"]) for r in recs)
    assert got == want
    pe = evaluate_patient("s", cl, cl, EvalConfig(min_lesion_voxels=1),
                          spacing_mm=TINY_SPEC.spacing_mm)
    assert pe.ref_total_ul == pytest.approx(int(sizes[1:].sum()) * 0.125)


def test_cl_and_wml_disjoint(subject):
    vols, _ = subject
    assert not ((vols["cl_labels"] > 0) & (vols["wml_labels"] > 0)).any()
    # WMLs strictly inside WM
    assert not ((vols["wml_labels"] > 0) & (vols["tissue_labels"] != 1)).any()


def test_background_is_exactly_zero_and_finite(subject):
    vols, _ = subject
    brain = vols["tissue_labels"] != 0
    for name in ("mp2rage", "t2s_epi", "t2s_gre"):
        assert np.isfinite(vols[name]).all()
        assert not vols[name][~brain].any()


def test_noise_sigma_within_five_percent():
    noiseless = dataclasses.replace(TINY_SPEC, noise_sigma=(0.0, 0.0, 0.0))
    v0, _ = generate_subject(noiseless, 77)
    v1, _ = generate_subject(TINY_SPEC, 77)
    brain = v0["tissue_labels"] != 0
    for ci, name in enumerate(("mp2rage", "t2s_epi", "t2s_gre")):
        resid = (v1[name] - v0[name])[brain]
        ratio = float(resid.std()) / TINY_SPEC.noise_sigma[ci]
        assert 0.95 <= ratio <= 1.05, (name, ratio)


def test_type_mix_over_100_lesion_subject():
    spec = dataclasses.replace(
        TINY_SPEC, side_voxels=96, lesion_counts=counts_from_mix(100),
        lesion_size_range=(6, 40), wml_count=0)
    _, recs = generate_subject(spec, 11)
    counts = [sum(1 for r in recs if r["type"] == t) for t in (1, 2, 3, 4)]
    assert counts == [38, 7, 44, 11]


def test_infeasible_spec_raises():
    spec = dataclasses.replace(TINY_SPEC, side_voxels=32,
                               lesion_counts=(40, 40, 40, 40))
    with pytest.raises(phantom.PhantomError):
        generate_subject(spec, 1)


def test_validation_errors():
    with pytest.raises(phantom.PhantomError):
        dataclasses.replace(TINY_SPEC, lesion_size_range=(3, 50)).validate()
    with pytest.raises(phantom.PhantomError):
        dataclasses.replace(TINY_SPEC, cortex_thickness_voxels=2).validate()


# --- artifacts -------------------------------------------------------------------


def test_artifacts_off_is_identity_twin():
    base, _ = generate_subject(TINY_SPEC, 99)
    again, _ = generate_subject(TINY_SPEC, 99)
    for k in base:
        assert np.array_equal(base[k], again[k])


def test_gre_missing_chunk():
    clean, _ = generate_subject(TINY_SPEC, 99)
    spec = dataclasses.replace(TINY_SPEC, gre_missing_chunk=True)
    vols, _ = generate_subject(spec, 99)
    brain = vols["tissue_labels"] != 0
    assert np.array_equal(vols["mp2rage"], clean["mp2rage"])
    assert np.array_equal(vols["t2s_epi"], clean["t2s_epi"])
    assert np.array_equal(vols["cl_labels"], clean["cl_labels"])
    zero_in_brain = (vols["t2s_gre"] == 0) & brain
    frac = zero_in_brain.sum() / brain.sum()
    assert 0.04 <= frac <= 0.16
    lab, n = ndimage.label(zero_in_brain, structure=FULL)
    assert n == 1  # one connected missing region


# --- cohort ----------------------------------------------------------------------


def test_make_tissue_peak_memory():
    # 96^3: an int64 meshgrid of the voxel coordinates and float64
    # distances kept through the distance transform peaked at 69 MiB; open
    # grids, with only the inside mask kept, at 43 MiB, most of it in
    # distance_transform_edt (41 MiB alone)
    tracemalloc.start()
    try:
        phantom._make_tissue(PhantomSpec(side_voxels=96), np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2 ** 20


def test_generate_cohort_files_and_manifest(tmp_path):
    manifest = generate_cohort(TINY_SPEC, 3, tmp_path / "c", seed=5)
    assert len(manifest["subjects"]) == 3
    files = sorted(p.name for p in (tmp_path / "c" / "subject_00").iterdir())
    assert len(files) == 12  # six volumes x (json + raw)
    total = sum(len(s["lesions"]) for s in manifest["subjects"])
    assert manifest["total_lesions"] == total
    on_disk = json.loads((tmp_path / "c" / "cohort_manifest.json").read_text())
    assert on_disk["total_lesions"] == total


def test_cohort_regeneration_byte_identical(tmp_path):
    generate_cohort(TINY_SPEC, 2, tmp_path / "a", seed=5)
    generate_cohort(TINY_SPEC, 2, tmp_path / "b", seed=5)
    for rel in ("subject_00/mp2rage.raw", "subject_01/t2s_gre.raw",
                "subject_00/cl_labels.raw", "subject_01/wml_labels.raw"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    ma = json.loads((tmp_path / "a" / "cohort_manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "cohort_manifest.json").read_text())
    ma["subjects"] = [dict(s, directory="") for s in ma["subjects"]]
    mb["subjects"] = [dict(s, directory="") for s in mb["subjects"]]
    assert ma == mb
