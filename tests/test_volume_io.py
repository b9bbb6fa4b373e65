import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clseg import volume_io as vio


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


def test_label_code_sets_are_ranges_from_zero():
    # validate_volume checks a label volume by its largest voxel alone
    for kind, codes in vio.LABEL_CODES.items():
        assert codes == tuple(range(len(codes))), kind


BAD_LABEL_CODES = [("wml_labels", 2), ("tissue_labels", 255), ("cl_labels", 3)]


@pytest.mark.parametrize("kind,code", BAD_LABEL_CODES)
def test_make_volume_rejects_a_code_outside_the_kind(kind, code):
    data = np.ones((3, 4, 5), np.uint8)
    data[2, 3, 4] = code
    with pytest.raises(vio.VolumeValidationError, match=rf"{kind} .*: \[{code}\]$"):
        vio.make_volume(data, kind)


@pytest.mark.parametrize("kind,code", BAD_LABEL_CODES)
def test_read_volume_rejects_a_code_outside_the_kind(tmp_path, kind, code):
    data = np.zeros((3, 4, 5), np.uint8)
    data[0, 0, 0] = code
    _write_header(tmp_path, dims=[3, 4, 5], dtype="u8", kind=kind)
    (tmp_path / "v.raw").write_bytes(data.tobytes())
    with pytest.raises(vio.VolumeValidationError, match=rf"{kind} .*: \[{code}\]$"):
        vio.read_volume(tmp_path / "v")


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


def test_volume_io_imports_no_other_clseg_module():
    # the modules whose files volume_io writes import it, so it must import
    # none of them; a function-local import would hide such a cycle
    code = "import sys, clseg.volume_io; print(*sorted(m for m in sys.modules if 'clseg' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(vio.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == ["clseg", "clseg.volume_io"]
