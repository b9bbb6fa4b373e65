import dataclasses
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from clseg import pipeline
from clseg import volume_io as vio
from clseg.config import ConfigError, RunConfig
from clseg.evaluation import EvalConfig, build_report, evaluate_patient, write_report_files
from clseg.phantom import generate_cohort
from clseg.unet import CheckpointMismatchError
from clseg.volume_io import read_volume

from brute_force import flood_fill_components
from conftest import ROOT, TINY_SPEC, edit_header, write_old_network_keys


def _cfg(cohort_dir, out_dir, iterations=4, variant="multitask_icd", **tr):
    cfg = RunConfig(
        variant=variant,
        network=dataclasses.replace(RunConfig().network, base_channels=2, input_patch=44),
        sampler=dataclasses.replace(RunConfig().sampler, jitter_voxels=2, seed=5,
                                    icd_probability=0.5 if variant == "multitask_icd" else 0.0),
        phantom=TINY_SPEC,
        training=dataclasses.replace(RunConfig().training, iterations=iterations,
                                     checkpoint_every=2, seed=5, **tr),
        paths=dataclasses.replace(RunConfig().paths, cohort_dir=str(cohort_dir),
                                  out_dir=str(out_dir)),
    )
    return cfg.validate()


def test_training_writes_log_and_checkpoints(tmp_path, tiny_cohort):
    cfg = _cfg(tiny_cohort, tmp_path)
    ckpt = pipeline.run_training(cfg, tmp_path)
    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "iteration,cl_loss,tissue_loss,total_loss"
    assert len(lines) == 5
    assert ckpt.with_suffix(".json").exists()
    # iteration-1 loss from zero-initialized heads is exactly ln 3
    first = [float(v) for v in lines[1].split(",")[1:]]
    assert first[0] == pytest.approx(np.log(3.0), rel=1e-5)


@pytest.mark.parametrize("axes", [{}, {"batch_size": 2}], ids=["batch1", "batch2"])
def test_resume_reproduces_uninterrupted_run(tmp_path, tiny_cohort, axes):
    full = _cfg(tiny_cohort, tmp_path / "full", iterations=6, **axes)
    pipeline.run_training(full, tmp_path / "full")

    part = _cfg(tiny_cohort, tmp_path / "part", iterations=4, **axes)
    pipeline.run_training(part, tmp_path / "part")
    cont = _cfg(tiny_cohort, tmp_path / "part", iterations=6, **axes)
    pipeline.run_training(cont, tmp_path / "part")

    assert (tmp_path / "full" / "loss.csv").read_bytes() == \
        (tmp_path / "part" / "loss.csv").read_bytes()
    assert (tmp_path / "full" / "checkpoint_00000006.raw").read_bytes() == \
        (tmp_path / "part" / "checkpoint_00000006.raw").read_bytes()


def test_resume_from_checkpoint_header_in_the_v1_bytes(tmp_path, tiny_cohort):
    # the header bytes of a checkpoint written before checkpoints became
    # volume_io records: the writer still writes them, and a run resumed
    # from them reproduces the uninterrupted one
    full = _cfg(tiny_cohort, tmp_path / "full", iterations=4)
    pipeline.run_training(full, tmp_path / "full")

    part = _cfg(tiny_cohort, tmp_path / "part", iterations=2)
    pipeline.run_training(part, tmp_path / "part")
    header = {
        "format": "clseg-checkpoint-v1",
        "config": {"base_channels": 2, "input_patch": 44},
        "seed": 5,
        "iteration": 2,
        "sampler_draws": 2,
        "adam": {"learning_rate": part.training.learning_rate, "beta1": 0.9, "beta2": 0.999,
                 "epsilon": 1e-08, "step_count": 2},
        "payload_order": [f"{layer}.{p}" for layer in (
            "enc1a", "enc1b", "enc2a", "enc2b", "enc3a", "enc3b", "up2", "dec2a", "dec2b",
            "up1", "dec1a", "dec1b", "head_cl", "head_tissue") for p in ("kernel", "bias")],
    }
    v1 = (json.dumps(header, indent=2) + "\n").encode("utf-8")
    path = tmp_path / "part" / "checkpoint_00000002.json"
    assert path.read_bytes() == v1
    path.write_bytes(v1)
    cont = _cfg(tiny_cohort, tmp_path / "part", iterations=4)
    pipeline.run_training(cont, tmp_path / "part")

    for name in ("loss.csv", "checkpoint_00000004.raw", "checkpoint_00000004.json"):
        assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "part" / name).read_bytes()


@pytest.mark.parametrize("rewrite, named", [
    (write_old_network_keys, "instance_norm"),
    (lambda ck: write_old_network_keys(ck, instance_norm=True), "instance_norm"),
    (lambda ck: write_old_network_keys(ck, dropout=0.0), "dropout"),
    (lambda ck: edit_header(ck, lambda h: h["payload_order"].insert(0, "enc1a.weight")),
     "enc1a.weight"),
], ids=["instance_norm_false", "instance_norm_true", "unknown_key", "foreign_payload_order"])
def test_resume_refuses_checkpoint_of_another_network(tmp_path, tiny_cohort, rewrite, named):
    # a header of an older format or of another network is refused: skipping
    # it like an incomplete checkpoint would restart the run and overwrite
    # its loss.csv and checkpoints
    pipeline.run_training(_cfg(tiny_cohort, tmp_path, iterations=4), tmp_path)
    ckpt = tmp_path / "checkpoint_00000004"
    rewrite(ckpt)
    files = [tmp_path / "loss.csv", ckpt.with_suffix(".json"), ckpt.with_suffix(".raw")]
    before = [f.read_bytes() for f in files]
    with pytest.raises(CheckpointMismatchError, match=named):
        pipeline.run_training(_cfg(tiny_cohort, tmp_path, iterations=6), tmp_path)
    assert [f.read_bytes() for f in files] == before
    assert sorted(p.name for p in tmp_path.glob("checkpoint_*.json")) == \
        ["checkpoint_00000002.json", "checkpoint_00000004.json"]


def test_resume_skips_truncated_checkpoint(tmp_path, tiny_cohort):
    # a kill while the newest payload was written leaves it short; resume
    # falls back to the previous checkpoint and still matches the full run
    full = _cfg(tiny_cohort, tmp_path / "full", iterations=6)
    pipeline.run_training(full, tmp_path / "full")

    part = _cfg(tiny_cohort, tmp_path / "part", iterations=4)
    pipeline.run_training(part, tmp_path / "part")
    raw = tmp_path / "part" / "checkpoint_00000004.raw"
    raw.write_bytes(raw.read_bytes()[:100])
    cont = _cfg(tiny_cohort, tmp_path / "part", iterations=6)
    pipeline.run_training(cont, tmp_path / "part")

    assert (tmp_path / "full" / "loss.csv").read_bytes() == \
        (tmp_path / "part" / "loss.csv").read_bytes()
    for it in (4, 6):
        name = f"checkpoint_{it:08d}.raw"
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "part" / name).read_bytes()


def test_resume_drops_loss_row_cut_mid_write(tmp_path, tiny_cohort):
    # rows reach the disk through a buffer that is flushed only at
    # checkpoints, so a run killed between them can leave a row cut short;
    # here row 11 is cut to "1", which reads as an iteration before the
    # checkpoint at 10
    full = _cfg(tiny_cohort, tmp_path / "full", iterations=12)
    pipeline.run_training(full, tmp_path / "full")
    full_log = (tmp_path / "full" / "loss.csv").read_bytes()

    part = _cfg(tiny_cohort, tmp_path / "part", iterations=10)
    pipeline.run_training(part, tmp_path / "part")
    log = tmp_path / "part" / "loss.csv"
    row11 = full_log.splitlines(keepends=True)[11]
    assert row11.startswith(b"11,")
    log.write_bytes(log.read_bytes() + row11[:1])
    cont = _cfg(tiny_cohort, tmp_path / "part", iterations=12)
    pipeline.run_training(cont, tmp_path / "part")

    assert log.read_bytes() == full_log


def test_loss_rows_on_disk_when_each_checkpoint_lands(tmp_path, tiny_cohort, monkeypatch):
    # a run killed right after a checkpoint lands resumes from it, so every
    # row up to that iteration must already be in loss.csv on disk
    on_disk = {}
    save = pipeline.save_checkpoint

    def save_then_read_log(*args):
        save(*args)
        on_disk[args[3]] = (tmp_path / "loss.csv").read_text().splitlines()

    monkeypatch.setattr(pipeline, "save_checkpoint", save_then_read_log)
    pipeline.run_training(_cfg(tiny_cohort, tmp_path, iterations=4), tmp_path)
    assert sorted(on_disk) == [2, 4]
    for it, lines in on_disk.items():
        assert lines[0] == "iteration,cl_loss,tissue_loss,total_loss"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, it + 1))


def test_baseline_variant_tissue_loss_zero(tmp_path, tiny_cohort):
    cfg = _cfg(tiny_cohort, tmp_path, variant="baseline")
    pipeline.run_training(cfg, tmp_path)
    rows = (tmp_path / "loss.csv").read_text().splitlines()[1:]
    tissue = [float(r.split(",")[2]) for r in rows]
    assert tissue == [0.0] * len(rows)


def test_inference_outputs(tmp_path, tiny_cohort):
    cfg = _cfg(tiny_cohort, tmp_path)
    ckpt = pipeline.run_training(cfg, tmp_path)
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    pipeline.run_inference(ckpt, tiny_cohort / "subject_00", out1)
    pipeline.run_inference(ckpt, tiny_cohort / "subject_00", out2)
    for name in ("cl_pred", "tissue_pred", "cl_prob"):
        assert (out1 / f"{name}.raw").read_bytes() == (out2 / f"{name}.raw").read_bytes()
    pred = read_volume(out1 / "cl_pred")
    ref = read_volume(tiny_cohort / "subject_00" / "cl_labels")
    assert pred.header.dims == ref.header.dims
    assert pred.header.subject_id == "subject_00"
    prob = read_volume(out1 / "cl_prob")
    assert prob.header.kind == "intensity"
    assert float(prob.data.min()) >= 0.0 and float(prob.data.max()) <= 1.0
    dropped = pipeline.run_inference(ckpt, tiny_cohort / "subject_00",
                                     tmp_path / "p3", drop_channel="t2s_epi")
    assert (tmp_path / "p3" / "cl_prob.json").exists()


def test_fold_split_properties():
    ids = [f"s{i:02d}" for i in range(12)]
    folds = pipeline.make_fold_split(ids, 3, seed=7)
    assert [len(f) for f in folds] == [4, 4, 4]
    assert sorted(sum(folds, [])) == ids
    assert pipeline.make_fold_split(ids, 3, seed=7) == folds
    assert pipeline.make_fold_split(list(reversed(ids)), 3, seed=7) == folds
    assert pipeline.make_fold_split(ids, 3, seed=8) != folds
    with pytest.raises(ConfigError):
        pipeline.make_fold_split(ids, 13, seed=0)
    folds5 = pipeline.make_fold_split(ids, 5, seed=1)
    assert sorted(len(f) for f in folds5) == [2, 2, 2, 3, 3]


@pytest.fixture(scope="module")
def xval_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("xval_cohort")
    generate_cohort(TINY_SPEC, 4, root, seed=9)
    return root


def test_xval_pools_all_subjects(tmp_path, xval_cohort):
    cfg = _cfg(xval_cohort, tmp_path, iterations=2)
    cfg = dataclasses.replace(cfg, xval_folds=2)
    report = pipeline.run_xval(cfg, tmp_path)
    folds = json.loads((tmp_path / "folds.json").read_text())
    assert sorted(sum(folds, [])) == [f"subject_{i:02d}" for i in range(4)]
    per_patient = report["models"]["multitask_icd"]["per_patient"]
    assert sorted(p["subject_id"] for p in per_patient) == \
        [f"subject_{i:02d}" for i in range(4)]
    # pooled counts equal the sum of per-patient counts
    row = report["models"]["multitask_icd"]["table1"]
    assert row["n_ref"] == sum(p["n_ref"] for p in per_patient)
    manifest = json.loads((xval_cohort / "cohort_manifest.json").read_text())
    assert row["n_ref"] == manifest["total_lesions"]  # min size 6 == generated floor
    assert (tmp_path / "report" / "table1.csv").exists()
    for fi in range(2):
        assert (tmp_path / f"fold_{fi}" / "loss.csv").exists()


def _write_report(out_dir):
    ref = np.zeros((8, 8, 8), np.uint8)
    ref[2:4, 2:4, 2:4] = 1
    write_report_files(build_report({"m": [evaluate_patient("s0", ref, ref, EvalConfig())]}),
                       out_dir)


@pytest.mark.parametrize("document", ["folds.json", "report.json", "table1.csv",
                                      "cohort_manifest.json"])
def test_failed_replace_keeps_previous_document(tmp_path, xval_cohort, monkeypatch, document):
    # a run killed while it writes a document leaves the previous one whole,
    # and a write that fails leaves no temporary file beside it
    writers = {
        "folds.json": lambda: pipeline.run_xval(
            dataclasses.replace(_cfg(xval_cohort, tmp_path), xval_folds=2), tmp_path),
        "report.json": lambda: _write_report(tmp_path),
        "table1.csv": lambda: _write_report(tmp_path),
        "cohort_manifest.json": lambda: generate_cohort(TINY_SPEC, 1, tmp_path, seed=1),
    }
    previous = b"previous\n"
    (tmp_path / document).write_bytes(previous)
    replace = os.replace

    def fail_on_document(src, dst):
        if Path(dst).name == document:
            raise OSError(errno.EIO, "injected failure", str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_document)
    with pytest.raises(OSError, match="injected failure"):
        writers[document]()
    assert (tmp_path / document).read_bytes() == previous
    assert not list(tmp_path.rglob("*.tmp"))


def test_evaluate_predictions_coverage_mismatch(tmp_path, xval_cohort):
    from clseg.volume_io import MissingVolumeFileError
    with pytest.raises(MissingVolumeFileError, match="coverage"):
        pipeline.evaluate_predictions(xval_cohort, tmp_path / "empty", EvalConfig())


def test_size_curve_groups_include_types(tmp_path, xval_cohort):
    # self-prediction: perfect detection in every by-type group
    pred_dir = tmp_path / "selfpred"
    for i in range(4):
        sid = f"subject_{i:02d}"
        ref = read_volume(xval_cohort / sid / "cl_labels")
        (pred_dir / sid).mkdir(parents=True)
        from clseg.volume_io import write_volume, make_volume
        write_volume(make_volume(ref.data, "cl_labels", sid), pred_dir / sid / "cl_pred")
    pats = pipeline.evaluate_predictions(xval_cohort, pred_dir, EvalConfig())
    from clseg.evaluation import build_report
    rep = build_report({"self": pats})
    rows = rep["models"]["self"]["ltpr_by_size"]
    groups = {r["group"] for r in rows}
    assert {"overall", "class_1", "class_2"} <= groups
    assert any(g.startswith("type_") for g in groups)
    for r in rows:
        if r["min_voxels"] == 6:
            assert r["ltpr"] == 1.0


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
        pipeline.check_cohort([sdir])


def test_check_cohort_missing_volume(tmp_path):
    sdir = _write_subject(tmp_path, "s0")
    (sdir / "t2s_epi.raw").unlink()
    with pytest.raises(vio.MissingVolumeFileError):
        pipeline.check_cohort([sdir])


def test_check_cohort_counts_match_flood_fill(tmp_path):
    # three class-1 blobs and two class-2 blobs, mutually non-adjacent
    cl = np.zeros((8, 8, 8), np.uint8)
    cl[0, 0, 0] = 1
    cl[3, 3, 3:5] = 1
    cl[6, 0, 0:2] = 1
    cl[0, 6, 6] = 2
    cl[6, 6, 0] = 2
    sdir = _write_subject(tmp_path, "s0", cl=cl)
    manifest = pipeline.check_cohort([sdir])
    oracle = flood_fill_components(cl)
    assert manifest["subjects"][0]["lesion_counts"] == {
        "leukocortical": sum(1 for c, _ in oracle if c == 1),
        "subpial_intracortical": sum(1 for c, _ in oracle if c == 2),
    }
    assert manifest["subjects"][0]["lesion_counts"] == {
        "leukocortical": 3, "subpial_intracortical": 2}
    assert manifest["total_lesions"] == 5


def test_check_cohort_many_subjects(tmp_path):
    dirs = [_write_subject(tmp_path, f"s{i:02d}") for i in range(12)]
    manifest = pipeline.check_cohort(dirs)
    assert len(manifest["subjects"]) == 12
    assert manifest["total_lesions"] == 0


# phantom -> train -> infer -> report through the command line, then the
# scipy modules loaded: clseg labels, smooths and resamples in numpy, and
# imports scipy only for the run manifest's version
NO_SCIPY_RUN = """
import json
import sys
from pathlib import Path

from clseg.cli import main

tmp = Path(sys.argv[1])
doc = {"network": {"base_channels": 2, "input_patch": 44},
       "phantom": {"side_voxels": 48, "cortex_thickness_voxels": 4,
                   "lesion_counts": [3, 1, 4, 1], "lesion_size_range": [6, 50]},
       "training": {"iterations": 1, "checkpoint_every": 1},
       "paths": {"cohort_dir": str(tmp / "cohort"), "out_dir": str(tmp / "out")}}
config = tmp / "run.json"
config.write_text(json.dumps(doc))
args = ["--config", str(config)]
assert main(["phantom", *args, "--n-subjects", "2"]) == 0
assert main(["train", *args]) == 0
for subject in ("subject_00", "subject_01"):
    assert main(["infer", *args, "--checkpoint", str(tmp / "out" / "checkpoint_00000001"),
                 "--subject", str(tmp / "cohort" / subject), "--out", str(tmp / "pred")]) == 0
assert main(["report", *args, "--out", str(tmp / "rep"), "--pred", f"m={tmp / 'pred'}"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_no_scipy_ndimage_or_special_in_a_run(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    loaded = json.loads(r.stdout.splitlines()[-1])
    assert not [m for m in loaded if m.startswith(("scipy.ndimage", "scipy.special"))], loaded
    assert (tmp_path / "pred" / "subject_01" / "cl_pred.raw").exists()
    assert (tmp_path / "rep" / "table1.csv").exists()
