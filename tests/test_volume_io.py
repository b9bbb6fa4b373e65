import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clseg import volume_io as vio

from brute_force import flood_fill_components


def test_zero_volume_payload_is_all_zero_bytes(tmp_path):
    v = vio.make_volume(np.zeros((2, 2, 2), np.float32), "intensity", "s0")
    vio.write_volume(v, tmp_path / "vol")
    raw = (tmp_path / "vol.raw").read_bytes()
    assert raw == b"\x00" * 32


def test_single_voxel_roundtrip(tmp_path):
    (tmp_path / "one.json").write_text(json.dumps({
        "dims": [1, 1, 1], "spacing_mm": [0.5, 0.5, 0.5],
        "dtype": "f32", "kind": "intensity", "subject_id": "s"}))
    (tmp_path / "one.raw").write_bytes(np.float32(1.0).tobytes())
    v = vio.read_volume(tmp_path / "one")
    assert v.data.shape == (1, 1, 1)
    assert v.data[0, 0, 0] == 1.0


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(*(st.integers(1, 5),) * 3),
    kind=st.sampled_from(vio.KINDS),
    seed=st.integers(0, 2**31),
)
def test_write_read_roundtrip_byte_identical(tmp_path_factory, dims, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "intensity":
        data = rng.standard_normal(dims).astype(np.float32)
    else:
        data = rng.integers(0, max(vio.LABEL_CODES[kind]) + 1, dims).astype(np.uint8)
    tmp = tmp_path_factory.mktemp("rt")
    v = vio.make_volume(data, kind, "subj", spacing_mm=(0.5, 0.4, 1.0))
    vio.write_volume(v, tmp / "a")
    back = vio.read_volume(tmp / "a")
    assert back.header == v.header
    assert np.array_equal(back.data, v.data)
    vio.write_volume(back, tmp / "b")
    assert (tmp / "a.raw").read_bytes() == (tmp / "b.raw").read_bytes()
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


def test_label_code_out_of_range_rejected():
    bad = np.zeros((2, 2, 2), np.uint8)
    bad[0, 0, 0] = 3
    with pytest.raises(vio.VolumeValidationError):
        vio.make_volume(bad, "cl_labels")


def test_intensity_requires_f32():
    h = vio.VolumeHeader((2, 2, 2), (0.5,) * 3, "u8", "intensity", "s")
    v = vio.Volume(h, np.zeros((2, 2, 2), np.uint8))
    with pytest.raises(vio.VolumeValidationError):
        vio.validate_volume(v)


def _write_header(tmp_path, **overrides):
    doc = {"dims": [4, 4, 4], "spacing_mm": [0.5, 0.5, 0.5],
           "dtype": "f32", "kind": "intensity", "subject_id": "s"}
    doc.update(overrides)
    (tmp_path / "v.json").write_text(json.dumps(doc))


def test_payload_length_mismatch(tmp_path):
    _write_header(tmp_path)
    (tmp_path / "v.raw").write_bytes(b"\x00" * 255)  # 4*4*4*4 = 256 expected
    with pytest.raises(vio.PayloadSizeError, match="256"):
        vio.read_volume(tmp_path / "v")


@pytest.mark.parametrize("failing", [".raw", ".json"])
def test_interrupted_write_leaves_no_header_over_short_payload(tmp_path, monkeypatch, failing):
    replace = vio.os.replace

    def fail_on(src, dst):
        if str(dst).endswith(failing):
            raise OSError("interrupted")
        replace(src, dst)

    monkeypatch.setattr(vio.os, "replace", fail_on)
    v = vio.make_volume(np.ones((3, 4, 5), np.float32), "intensity", "s0")
    with pytest.raises(vio.VolumeError, match="interrupted"):
        vio.write_volume(v, tmp_path / "vol")
    monkeypatch.undo()
    assert not (tmp_path / "vol.json").exists()
    with pytest.raises(vio.MissingVolumeFileError):
        vio.read_volume(tmp_path / "vol")
    vio.write_volume(v, tmp_path / "vol")  # a rerun replaces what was left
    assert np.array_equal(vio.read_volume(tmp_path / "vol").data, v.data)


def test_missing_files_distinct_error(tmp_path):
    with pytest.raises(vio.MissingVolumeFileError):
        vio.read_volume(tmp_path / "nope")
    _write_header(tmp_path)
    with pytest.raises(vio.MissingVolumeFileError):
        vio.read_volume(tmp_path / "v")  # header exists, raw missing


def test_malformed_json(tmp_path):
    (tmp_path / "v.json").write_text("{not json")
    (tmp_path / "v.raw").write_bytes(b"")
    with pytest.raises(vio.HeaderParseError):
        vio.read_volume(tmp_path / "v")


def test_wrong_header_keys(tmp_path):
    (tmp_path / "v.json").write_text(json.dumps({"dims": [1, 1, 1]}))
    (tmp_path / "v.raw").write_bytes(b"\x00" * 4)
    with pytest.raises(vio.HeaderParseError):
        vio.read_volume(tmp_path / "v")


def test_unknown_dtype_and_kind(tmp_path):
    _write_header(tmp_path, dtype="f64")
    (tmp_path / "v.raw").write_bytes(b"\x00" * 256)
    with pytest.raises(vio.UnknownDtypeError):
        vio.read_volume(tmp_path / "v")
    _write_header(tmp_path, kind="mask")
    with pytest.raises(vio.UnknownKindError):
        vio.read_volume(tmp_path / "v")


def test_header_json_key_order_stable(tmp_path):
    v = vio.make_volume(np.zeros((1, 2, 3), np.float32), "intensity", "s9")
    vio.write_volume(v, tmp_path / "v")
    text = (tmp_path / "v.json").read_text()
    keys = list(json.loads(text))
    assert keys == ["dims", "spacing_mm", "dtype", "kind", "subject_id"]
    vio.write_volume(v, tmp_path / "w")
    assert (tmp_path / "w.json").read_text() == text


def test_nonisotropic_spacing_accepted():
    v = vio.make_volume(np.zeros((2, 2, 2), np.float32), "intensity",
                        spacing_mm=(0.5, 0.7, 1.0))
    assert v.header.spacing_mm == (0.5, 0.7, 1.0)


# --- cohort checking -------------------------------------------------------


def _write_subject(root, subject_id, dims=(8, 8, 8), cl=None):
    sdir = root / subject_id
    sdir.mkdir(parents=True, exist_ok=True)
    for name in vio.CONTRAST_NAMES:
        vio.write_volume(
            vio.make_volume(np.zeros(dims, np.float32), "intensity", subject_id),
            sdir / name)
    cl_data = cl if cl is not None else np.zeros(dims, np.uint8)
    vio.write_volume(vio.make_volume(cl_data, "cl_labels", subject_id), sdir / "cl_labels")
    vio.write_volume(vio.make_volume(np.ones(dims, np.uint8), "tissue_labels", subject_id),
                     sdir / "tissue_labels")
    vio.write_volume(vio.make_volume(np.zeros(dims, np.uint8), "wml_labels", subject_id),
                     sdir / "wml_labels")
    return sdir


def test_check_cohort_geometry_mismatch(tmp_path):
    sdir = _write_subject(tmp_path, "s0")
    vio.write_volume(vio.make_volume(np.zeros((6, 8, 8), np.float32), "intensity", "s0"),
                     sdir / "mp2rage")
    with pytest.raises(vio.GeometryMismatchError):
        vio.check_cohort([sdir])


def test_check_cohort_missing_volume(tmp_path):
    sdir = _write_subject(tmp_path, "s0")
    (sdir / "t2s_epi.raw").unlink()
    with pytest.raises(vio.MissingVolumeFileError):
        vio.check_cohort([sdir])


def test_check_cohort_counts_match_flood_fill(tmp_path):
    # three class-1 blobs and two class-2 blobs, mutually non-adjacent
    cl = np.zeros((8, 8, 8), np.uint8)
    cl[0, 0, 0] = 1
    cl[3, 3, 3:5] = 1
    cl[6, 0, 0:2] = 1
    cl[0, 6, 6] = 2
    cl[6, 6, 0] = 2
    sdir = _write_subject(tmp_path, "s0", cl=cl)
    manifest = vio.check_cohort([sdir])
    oracle = flood_fill_components(cl)
    assert manifest.subjects[0].lesion_counts == {
        "leukocortical": sum(1 for c, _ in oracle if c == 1),
        "subpial_intracortical": sum(1 for c, _ in oracle if c == 2),
    }
    assert manifest.subjects[0].lesion_counts == {
        "leukocortical": 3, "subpial_intracortical": 2}
    assert manifest.total_lesions == 5


def test_check_cohort_many_subjects(tmp_path):
    dirs = [_write_subject(tmp_path, f"s{i:02d}") for i in range(12)]
    manifest = vio.check_cohort(dirs)
    assert len(manifest.subjects) == 12
    assert manifest.total_lesions == 0
