import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from clseg import phantom, volume_io
from clseg.evaluation import EvalConfig, evaluate_patient, label_lesions
from clseg.config import load_config
from clseg.phantom import PhantomSpec, counts_from_mix, generate_cohort, generate_subject

from brute_force import beyond_distance_reference, dilate_reference
from conftest import ROOT, TINY_SPEC

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


def test_noise_is_one_in_brain_block_per_contrast_drawn_before_scaling():
    # the residual of each contrast over the noiseless subject, over the
    # brain voxels in C order and divided by sigma, is the next block of
    # n_brain standard normals of the noise stream, for any sigma
    seed = 77
    noiseless = dataclasses.replace(TINY_SPEC, noise_sigma=(0.0, 0.0, 0.0))
    v0, _ = generate_subject(noiseless, seed)
    brain = v0["tissue_labels"] != 0
    n_brain = int(brain.sum())
    rng = phantom._child_rng(seed, 2)
    blocks = [rng.standard_normal(n_brain) for _ in phantom.CONTRAST_NAMES]
    for factor in (1.0, 2.0):
        sigma = tuple(factor * s for s in TINY_SPEC.noise_sigma)
        v1, _ = generate_subject(dataclasses.replace(TINY_SPEC, noise_sigma=sigma), seed)
        for ci, name in enumerate(phantom.CONTRAST_NAMES):
            resid = (v1[name].astype(np.float64) - v0[name])[brain] / sigma[ci]
            np.testing.assert_allclose(resid, blocks[ci], rtol=0, atol=1e-5, err_msg=name)
            assert not v1[name][~brain].any()


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


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_make_tissue_peak_memory():
    # 96^3: an int64 meshgrid of the voxel coordinates and float64
    # distances kept through the distance transform peaked at 69 MiB; open
    # grids, with only the inside mask kept, at 43 MiB, most of it in a
    # whole-volume distance_transform_edt; the ellipsoid on its own box and
    # the transform on the brain box at 24.4 MiB; the windowed uint8 shell
    # test in place of the transform at 6.3 MiB, most of it the smoothed
    # float32 ellipsoid box
    peak = _traced_peak(lambda: phantom._make_tissue(PhantomSpec(side_voxels=96),
                                                     np.random.default_rng(0)))
    assert peak <= 7.5 * 2 ** 20


def test_generate_subject_peak_memory():
    # 96^3: 43 MiB while _make_tissue ran its transform on the whole volume;
    # 26.0 MiB with brain-box geometry and one whole-volume float64 noise
    # buffer reused by the three contrasts; 20.1 MiB with the noise drawn
    # for the brain voxels only
    peak = _traced_peak(lambda: generate_subject(PhantomSpec(side_voxels=96), 0))
    assert peak <= 22 * 2 ** 20


def test_generate_cohort_files_and_manifest(tmp_path):
    manifest = generate_cohort(TINY_SPEC, 3, tmp_path / "c", seed=5)
    assert len(manifest["subjects"]) == 3
    files = sorted(p.name for p in (tmp_path / "c" / "subject_00").iterdir())
    assert len(files) == 12  # six volumes x (json + raw)
    total = sum(len(s["lesions"]) for s in manifest["subjects"])
    assert manifest["total_lesions"] == total
    on_disk = json.loads((tmp_path / "c" / "cohort_manifest.json").read_text())
    assert on_disk["total_lesions"] == total


def test_cohort_manifest_spec_is_the_generated_cohort(tmp_path):
    # the arguments, not the spec's own n_subjects and seed, make the cohort
    assert (TINY_SPEC.n_subjects, TINY_SPEC.seed) != (2, 5)
    generate_cohort(TINY_SPEC, 2, tmp_path, seed=5)
    manifest = json.loads((tmp_path / "cohort_manifest.json").read_text())
    assert manifest["spec"]["seed"] == manifest["seed"] == 5
    assert manifest["spec"]["n_subjects"] == len(manifest["subjects"]) == 2


def test_cohort_regeneration_byte_identical(tmp_path):
    # the same cohort written under two directories: every file, the
    # manifest included, is byte-identical
    a, b = tmp_path / "a", tmp_path / "elsewhere" / "b"
    generate_cohort(TINY_SPEC, 2, a, seed=5)
    generate_cohort(TINY_SPEC, 2, b, seed=5)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert len(files) == 2 * 12 + 1
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_regenerating_a_smaller_cohort_refuses_stray_subjects(tmp_path):
    out = tmp_path / "c"
    generate_cohort(TINY_SPEC, 4, out, seed=1)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    with pytest.raises(phantom.PhantomError, match="subject_02, subject_03$"):
        generate_cohort(TINY_SPEC, 2, out, seed=2)
    # nothing written, nothing deleted
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # the same or a larger cohort may overwrite
    assert len(generate_cohort(TINY_SPEC, 4, out, seed=2)["subjects"]) == 4


# --- golden output ---------------------------------------------------------------

# sha256 of the six .raw payloads and of json.dumps(records) of one subject,
# pinned from the generator that placed lesions with whole-volume masks; the
# "paper" entries (96^3) from the generator that still ran the distance
# transform, dilations and seed pools on the whole volume, before they moved
# to the brain box. The four intensity payloads ("mp2rage", "t2s_epi",
# "t2s_gre", "t2s_gre_chunk") were re-pinned in every row when the noise
# moved from whole-volume draws to one draw per contrast over the brain
# voxels only; the label payloads and records were unchanged by that move.
# "t2s_gre_chunk" is the GRE payload of the gre_missing_chunk twin, which
# differs from the clean subject in that volume only. The "desk" spec is the
# phantom section of configs/replication.json, so these rows pin that file.
GOLDEN = {
    ("tiny", 7): {
        "mp2rage": "d0753f1db984ae42688c5f1a1e03a7216231b813a298092d91cd382559118cde",
        "t2s_epi": "0b7e641b0deb2f83f0f12e78d016d887c210c42d4904c2999ee6317cd3773a19",
        "t2s_gre": "8ed9ea5cac26b9d933b13ba3c49bac1be4982f921963b223d2d7bef323a09e46",
        "cl_labels": "37e92060057aa99c509f53024256bda9992e99036332909f34474db30aeb20fa",
        "tissue_labels": "ea807979786e9adfef03f30b5b493cbb0c44f62181af30ae628d9b0bc62c96a1",
        "wml_labels": "cc0a980e1918b53b4b53fc1e7420e6e7ade6cb3bc34cfcbc6bdfec4cad2a2409",
        "lesions": "443ced465e3f7d9e1758a12cc220a2a605514165814c48ebe92bba74179dc6be",
        "t2s_gre_chunk": "f5cb66b6971d95010c8cafae39cf5c24839d82d3bc835d825809f24091ed5a4c",
    },
    ("tiny", 31337): {
        "mp2rage": "b3449865c8b576d3ba42482c4abc7a0f977c1bfdbca6de6fafb73971d4a74c42",
        "t2s_epi": "d5e9e151805322e13e3dde143d1600d706ad6454c5c0f6f5a25f3c397fd1a71e",
        "t2s_gre": "398012af0a6b17663c5733dc35bf7be635b40463718d91abc00a8d7a01df258b",
        "cl_labels": "95f1dabac7b7f2b4fbb6a752a627ef3aefd942ec28c6be018c561b81aee48732",
        "tissue_labels": "482ced32068393066f356cd0842fb00c8c9e4e4bc16761f730bca3de661e0f6d",
        "wml_labels": "3780372c0dd8f5f7400f9ec63274d0434935288ff166c35f9d5d69cc8740bc7b",
        "lesions": "0a2a774f7017a990ab2f4945e7714d6776eba97e5d97a4ec7c81c5d529ee2ade",
        "t2s_gre_chunk": "fd271e8f633d3e2aad3039281d653211634866e59b38ae8b59f55045f72e3452",
    },
    ("desk", 7): {
        "mp2rage": "3b343c548e90302030f332d883a2d356dcc8a4cd7ad1803a9addcb32e865eeb1",
        "t2s_epi": "de613f6117106690493b5a25a6010b41f889688ad7ba8562ff91fd466f1ba991",
        "t2s_gre": "29bcaf1d0b2b68456c69b2eea98c2d44f353de3fc6a4dc51ae1d1b3923024db2",
        "cl_labels": "27299346e14b51ff5a14f1935b6d3d37c375f19afba54727f85bd97aac73291a",
        "tissue_labels": "a40f4542a47ade2dda8260ee23adce645cdb24ddc0eed578319dfe39319452d4",
        "wml_labels": "7fb9c5ff52eb1e6cb1c5ef9b9ada5e196acb41e8ad8ca3635b922a00cea5ee85",
        "lesions": "8ae8ced53bd2af0d63db576bbd059f3db2c06fefd7ae0b1c1db6105a6afbd031",
        "t2s_gre_chunk": "da6031d631f33a44ce697cdfdb5e6d427d5fd5ecc22afbe2945ac6b100c8e77a",
    },
    ("desk", 31337): {
        "mp2rage": "3717f24cfe403bc9fce3dc307eda6b93e7cb4cacad51ab858cfc71d364b2e0f5",
        "t2s_epi": "696dd6d8037225cc654eee41782f3c19df10093e11d42ad3217f5ff45f0713a6",
        "t2s_gre": "0acbbb36fb5930347866876444e96ed82dc9a3ae160dfe91d04230e0506fb0e3",
        "cl_labels": "70f0cc98f3a19ce3ec2a5251bf465e2313647216d351cc3748616f88fb6f5087",
        "tissue_labels": "70ff07de76b75708072536cd21507b484ee6d18c9795437fcb96fa39dc69c367",
        "wml_labels": "8dcba2aabfd465cf52793f5b34d550d15d2f86cc30545a9497c581ff929dbf25",
        "lesions": "d453dc457530fafabd046e48c7984832c6e1774edb7dbf10bed734dfe587cc45",
        "t2s_gre_chunk": "a3b853ba7feb7e4310d31cb41331d3e6a9747de8fc20a848aad870b5e3e6cfeb",
    },
    ("paper", 7): {
        "mp2rage": "4535e53f84ae27f452a18e9fbaa6ca3bc82e5687540cd5d195bf7343db1e7987",
        "t2s_epi": "4d3231ad3b210b1d104440087eae831dd0a92a585cd227adf25fda797237e839",
        "t2s_gre": "aa53b69183bc35ee763945f85cdf5fa2e920a3f0f678f91c9b2cb6a310726454",
        "cl_labels": "a5c6410f972e9be971289056c1c3e9d5a9af1d1fdea02d4fadd65b9d427fddf3",
        "tissue_labels": "a82b1506b37afec55e59ec6e5e63e6a0650a530341555ff7fc13e74a46cdbf46",
        "wml_labels": "d2c236d4ddfd2a060b020ffd23a827f2100e80ae80901ad0b68bcba15d297631",
        "lesions": "c3ef7b574820ee99947a0c1f4be4e056fec768b7c394c0bc7b33205d293b177f",
        "t2s_gre_chunk": "f020cf3763ce99ec7ec34d740446fb4ac6a4de7cb049c41f6d9e9f276cabb2a1",
    },
    ("paper", 31337): {
        "mp2rage": "30b51b789a1514b470533a53e13d5d9a8718aaa85322cfff8d180c30609fa9be",
        "t2s_epi": "32afdd9e1fc925893602eae18bba564d5331ccf3a9ce3cd65ebe8406509cd220",
        "t2s_gre": "685516fb8d03c36031df491181fe8e462647250b95faac580505198393e1fc33",
        "cl_labels": "9907c227d2bdee4c83243032c30f038046cf64dc2bd83f3f358dc143e9055abd",
        "tissue_labels": "95357c38009409d6a86e27ff52f6126838238b4e23ea60dfa23d6dcaf515f666",
        "wml_labels": "52ba29b3ef7df4996851e2749bb904351866b8062a229e08d9f9862176ecc1a1",
        "lesions": "ef20803618483f3d211fb08ddbb8366ba43196c1c1ffcbbd955576f164e47a64",
        "t2s_gre_chunk": "061c15c281d785458c1de695a38c9685d0bb8593ccd89102ca880bbd4e579b05",
    },
}


@pytest.mark.parametrize("gre_missing_chunk", [False, True])
@pytest.mark.parametrize("name,seed", list(GOLDEN))
def test_phantom_matches_golden_hashes(name, seed, gre_missing_chunk):
    spec = {"tiny": TINY_SPEC, "desk": load_config(ROOT / "configs" / "replication.json").phantom,
            "paper": PhantomSpec(side_voxels=96)}[name]
    vols, recs = generate_subject(
        dataclasses.replace(spec, gre_missing_chunk=gre_missing_chunk), seed)
    got = {k: hashlib.sha256(volume_io.make_volume(
        v, k if k in volume_io.LABEL_CODES else "intensity").data.tobytes()).hexdigest()
        for k, v in vols.items()}
    got["lesions"] = hashlib.sha256(json.dumps(recs).encode()).hexdigest()
    want = dict(GOLDEN[name, seed])
    chunk = want.pop("t2s_gre_chunk")
    if gre_missing_chunk:
        want["t2s_gre"] = chunk
    assert got == want


# --- local placement at the volume border ----------------------------------------

BORDER_SHAPE = (20, 24, 28)


def _border_seeds():
    """Every seed voxel whose index on each axis is 0, the middle or n-1,
    and on at least one axis 0 or n-1."""
    middle = tuple(n // 2 for n in BORDER_SHAPE)
    return [v for v in itertools.product(*((0, n // 2, n - 1) for n in BORDER_SHAPE))
            if v != middle]


@pytest.mark.parametrize("seed_voxel", _border_seeds())
def test_local_blob_and_halo_match_whole_volume_ops(seed_voxel):
    rng = np.random.default_rng(sum(seed_voxel))
    allowed = rng.random(BORDER_SHAPE) < 0.55  # several pieces within one box
    allowed[seed_voxel] = True
    radii = (3.2, 4.1, 5.3)
    draw = rng.bit_generator.state

    def blob_with(mask):
        rng.bit_generator.state = draw
        return phantom._ellipsoid_blob(BORDER_SHAPE, seed_voxel, radii, mask, rng)

    box, blob = blob_with(allowed)
    # the whole ellipsoid: convex, so allowing every voxel keeps all of it
    ebox, ellipsoid = blob_with(np.ones(BORDER_SHAPE, bool))
    assert box == ebox
    assert any(s.start == 0 or s.stop == n for s, n in zip(box, BORDER_SHAPE))
    want = np.zeros(BORDER_SHAPE, bool)
    want[box] = ellipsoid
    lab, _ = ndimage.label(want & allowed, structure=FULL)
    want = lab == lab[seed_voxel]
    got = np.zeros(BORDER_SHAPE, bool)
    got[box] = blob
    assert np.array_equal(got, want)

    occupied = np.zeros(BORDER_SHAPE, bool)
    occupied[0, 0, -1] = True  # what is there already stays
    phantom._mark_halo(occupied, box, blob)
    halo = ndimage.binary_dilation(want, structure=FULL)
    halo[0, 0, -1] = True
    assert np.array_equal(occupied, halo)


def test_max_filter_dilation_matches_iterated_binary_dilation():
    rng = np.random.default_rng(3)
    tissue = phantom._make_tissue(PhantomSpec(side_voxels=32), rng)
    masks = [tissue == 0, tissue == 1, tissue == 2, rng.random(BORDER_SHAPE) < 0.02]
    masks[-1][0, :, -1] = True  # a whole edge of the volume
    for mask in masks:
        for r in (1, 2, 3):
            want = ndimage.binary_dilation(mask, structure=FULL, iterations=r)
            assert np.array_equal(phantom._dilate(mask, r), want), r


# --- windowed shell and shifted-OR dilation against scipy -------------------------


def _oracle_masks(shape, rng):
    """Masks that fill their array, so they touch every face, edge and
    corner: sparse and denser interior holes, and one lone False voxel in a
    corner or in the middle, whose distance reaches every thickness."""
    masks = [rng.random(shape) > p for p in (0.003, 0.02, 0.1)]
    for at in ((0, 0, 0), tuple(n - 1 for n in shape), tuple(n // 2 for n in shape)):
        lone = np.ones(shape, bool)
        lone[at] = False
        masks.append(lone)
    return masks


@pytest.mark.parametrize("shape", [(17, 17, 17), (9, 14, 23), (21, 6, 12), (3, 19, 16)])
def test_windowed_shell_matches_distance_transform(shape):
    rng = np.random.default_rng(sum(shape))
    for mask in _oracle_masks(shape, rng):
        for t in range(1, 9):
            want = beyond_distance_reference(mask, t)
            assert np.array_equal(phantom._beyond(mask, t), want), t
            # the shell itself: the brain box is the whole array here
            tissue = phantom._label_shell(mask, t)
            assert np.array_equal(tissue == 1, want), t
            assert np.array_equal(tissue == 2, mask & ~want), t


def test_label_shell_without_background_is_all_wm():
    # a brain filling its volume touches all six faces and has no hole; its
    # distance to a non-brain voxel is infinite (scipy's transform reads
    # 1..11 here, as if voxel (-1, 0, 0) were background)
    brain = np.ones((6, 7, 8), bool)
    for t in (1, 3, 5):
        assert (phantom._label_shell(brain, t) == 1).all()


@pytest.mark.parametrize("shape", [(1, 9, 6), (2, 5, 7), (11, 3, 13), (8, 12, 2)])
def test_dilate_matches_maximum_filter(shape):
    # includes axes shorter than r, where every shift runs off both faces
    rng = np.random.default_rng(sum(shape))
    masks = [rng.random(shape) < p for p in (0.03, 0.15)]
    corners = np.zeros(shape, bool)
    corners[0, 0, 0] = corners[-1, -1, -1] = corners[0, -1, 0] = True
    masks.append(corners)
    for mask in masks:
        for r in (1, 2):
            assert np.array_equal(phantom._dilate(mask, r), dilate_reference(mask, r)), r


# --- brain-box geometry at the volume faces ----------------------------------------


def _whole_volume_tissue(spec, rng):
    """The phantom's tissue labels with every pass on the whole volume."""
    n = spec.side_voxels
    center = n / 2.0 + rng.uniform(-1.5, 1.5, size=3)
    semi = n * rng.uniform(0.36, 0.42, size=3)
    zz, yy, xx = np.ogrid[:n, :n, :n]
    inside = (((zz - center[0]) / semi[0]) ** 2
              + ((yy - center[1]) / semi[1]) ** 2
              + ((xx - center[2]) / semi[2]) ** 2) <= 1.0
    brain = ndimage.gaussian_filter(inside.astype(np.float32), sigma=1.0) > 0.5
    return _whole_volume_shell(brain, spec.cortex_thickness_voxels)


def _whole_volume_shell(brain, thickness):
    tissue = np.where(brain, np.uint8(2), np.uint8(0))
    tissue[ndimage.distance_transform_edt(brain) > thickness] = 1
    return tissue


@pytest.mark.parametrize("side", [32, 37, 56, 96])
def test_make_tissue_matches_whole_volume_geometry(side):
    # at 32-56 the ellipsoid's smoothing box meets the volume faces, at 96 not
    for seed in range(3):
        spec = PhantomSpec(side_voxels=side, cortex_thickness_voxels=3 + seed)
        got = phantom._make_tissue(spec, np.random.default_rng(seed))
        assert np.array_equal(got, _whole_volume_tissue(spec, np.random.default_rng(seed)))


def _whole_volume_masks(tissue):
    """Placement masks by whole-volume binary dilations (outside is False)."""
    brain, gm, wm = tissue != 0, tissue == 2, tissue == 1
    bg_adjacent = ndimage.binary_dilation(~brain, structure=FULL)
    gm_adjacent = ndimage.binary_dilation(gm, structure=FULL)
    return {
        "brain": brain, "gm": gm, "wm": wm,
        "pial": brain & bg_adjacent,
        "pial_gm": gm & bg_adjacent,
        "safe_gm": gm & ~bg_adjacent,
        "interface_wm": wm & gm_adjacent,
        "deep_wm": wm & ~ndimage.binary_dilation(gm_adjacent, structure=FULL, iterations=2),
        "juxta_wm": wm & ndimage.binary_dilation(gm, structure=FULL, iterations=2),
    }


@pytest.mark.parametrize("radius", [7, 11])
@pytest.mark.parametrize("anchor", _border_seeds())
def test_brain_box_geometry_matches_whole_volume_ops(anchor, radius):
    # a ball centred on a face, edge or corner voxel, with interior holes;
    # radius 11 also reaches both faces of the axes it is centred on
    rng = np.random.default_rng(sum(anchor) + radius)
    offsets = np.indices(BORDER_SHAPE) - np.reshape(anchor, (3, 1, 1, 1))
    brain = ((offsets ** 2).sum(axis=0) <= radius ** 2) & (rng.random(BORDER_SHAPE) < 0.97)
    box = phantom._brain_box(brain)
    assert any(s.start == 0 or s.stop == n for s, n in zip(box, BORDER_SHAPE))
    assert not brain.sum() - brain[box].sum()
    for thickness in (3, 2, 1):  # the thinnest shell, which leaves WM, is kept
        tissue = phantom._label_shell(brain, thickness)
        assert np.array_equal(tissue, _whole_volume_shell(brain, thickness)), thickness
    assert (tissue == 1).any()

    want = _whole_volume_masks(tissue)
    got = phantom._placement_masks(tissue[box])
    assert sorted(got) == sorted(want)
    offset = [s.start for s in box]
    for name, mask in got.items():
        whole = np.zeros(BORDER_SHAPE, bool)
        whole[box] = mask
        assert np.array_equal(whole, want[name]), name
        # seed pools: box coordinates plus the offset, in the same order
        assert np.array_equal(np.argwhere(mask) + offset, np.argwhere(want[name])), name
