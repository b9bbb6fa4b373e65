import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from clseg import unet
from clseg import volume_io as vio
from clseg.blas import blas_threads
from clseg.cli import build_parser, main
from clseg.config import ConfigError, RunConfig, config_from_dict, load_config
from clseg.layers import NonFiniteError
from clseg.optim import AdamState
from clseg.phantom import generate_cohort

from conftest import ROOT, TINY_SPEC, tiny_replication_config, write_old_network_keys

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def _fast_config(tmp_path, cohort_dir, **overrides):
    cfg = RunConfig(
        variant="multitask_icd",
        network=dataclasses.replace(RunConfig().network, base_channels=2, input_patch=44),
        sampler=dataclasses.replace(RunConfig().sampler, jitter_voxels=2, seed=3),
        phantom=TINY_SPEC,
        training=dataclasses.replace(RunConfig().training, iterations=3,
                                     checkpoint_every=3, seed=3),
        paths=dataclasses.replace(RunConfig().paths, cohort_dir=str(cohort_dir),
                                  out_dir=str(tmp_path / "out")),
    )
    cfg = dataclasses.replace(cfg, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2) + "\n", encoding="utf-8")
    return cfg, path


def test_config_round_trip(tmp_path):
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    loaded = load_config(path)
    assert loaded == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"nonsense": 1})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"network": {"bogus_field": 2}})
    with pytest.raises(ConfigError, match=r"config: unknown keys \['loss'\]"):
        config_from_dict({"loss": {"tissue_head_enabled": True}})  # the variant sets it


def _exit_1_naming(tmp_path, capsys, doc, name):
    """Runs train on `doc` and checks that it exits 1 with one line naming
    `name`, writing nothing."""
    doc = {"paths": {"cohort_dir": str(tmp_path / "cohort"),
                     "out_dir": str(tmp_path / "out")}, **doc}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("in_channels", 3), ("levels", 3), ("cl_classes", 3),
                                        ("tissue_classes", 3), ("instance_norm", False)])
def test_old_network_keys_exit_1(tmp_path, capsys, key, value):
    # configs written while the network had these as settings carry them,
    # at this network's values too; they are refused, naming the key
    doc = {"network": {"base_channels": 2, "input_patch": 44, key: value}}
    _exit_1_naming(tmp_path, capsys, doc, repr(key))


def test_settable_config_keys():
    # a new setting has to be added here, on purpose
    doc = RunConfig().to_dict()
    keys = sorted(f"{name}.{key}" if isinstance(value, dict) else name
                  for name, value in doc.items()
                  for key in (value if isinstance(value, dict) else [None]))
    assert keys == sorted([
        "version", "variant", "xval_folds",
        "network.base_channels", "network.input_patch",
        "sampler.lesion_fraction", "sampler.jitter_voxels", "sampler.rotation_max_deg",
        "sampler.flip_probability", "sampler.icd_probability", "sampler.seed",
        "eval.min_lesion_voxels",
        "phantom.side_voxels", "phantom.spacing_mm", "phantom.cortex_thickness_voxels",
        "phantom.lesion_counts", "phantom.lesion_size_range", "phantom.wml_count",
        "phantom.noise_sigma", "phantom.gre_missing_chunk", "phantom.n_subjects",
        "phantom.seed",
        "training.iterations", "training.checkpoint_every", "training.batch_size",
        "training.learning_rate", "training.seed",
        "paths.cohort_dir", "paths.out_dir",
    ])
    assert len(keys) == 29


# A baseline config as written while the loss weights, the tissue head, the
# evaluation connectivity and significance level and EPI banding were settings
OLD_BASELINE_DOC = {
    "version": 1, "variant": "baseline", "xval_folds": 3,
    "network": {"base_channels": 16, "input_patch": 68},
    "loss": {"cl_lesion_weight": 15.0, "cl_background_weight": 1.0, "cl_wml_weight": 0.0,
             "tissue_head_enabled": False},
    "sampler": {"lesion_fraction": 0.5, "jitter_voxels": 8, "rotation_max_deg": 180.0,
                "flip_probability": 0.5, "icd_probability": 0.0, "seed": 0},
    "eval": {"min_lesion_voxels": 6, "connectivity": 26, "significance_alpha": 0.05},
    "phantom": {"side_voxels": 96, "spacing_mm": [0.5, 0.5, 0.5],
                "cortex_thickness_voxels": 5, "lesion_counts": [5, 1, 5, 1],
                "lesion_size_range": [6, 200], "wml_count": 2,
                "noise_sigma": [0.02, 0.03, 0.03], "gre_missing_chunk": False,
                "epi_banding": False, "n_subjects": 12, "seed": 0},
    "training": {"iterations": 2000, "checkpoint_every": 500, "batch_size": 1,
                 "learning_rate": 0.0001, "seed": 0},
    "paths": {"cohort_dir": "cohort", "out_dir": "out"},
}


def test_old_config_exits_1(tmp_path, capsys):
    _exit_1_naming(tmp_path, capsys, OLD_BASELINE_DOC, "['loss']")
    # without its loss section, the next old keys are named
    doc = {k: v for k, v in OLD_BASELINE_DOC.items() if k != "loss"}
    _exit_1_naming(tmp_path, capsys, doc, "['connectivity', 'significance_alpha']")


@pytest.mark.parametrize("section, key, value", [
    ("loss", "cl_lesion_weight", 10.0),
    ("loss", "cl_background_weight", 2.0),
    ("loss", "cl_wml_weight", 0.5),
    ("loss", "tissue_head_enabled", True),   # the baseline has no tissue head
    ("eval", "significance_alpha", 0.01),
    ("phantom", "epi_banding", True),
    ("eval", "connectivity", 6),
], ids=lambda v: str(v))
def test_old_config_keys_at_other_values_exit_1(tmp_path, capsys, section, key, value):
    # the loss section is unknown as a whole; the others name the old key
    _exit_1_naming(tmp_path, capsys, {section: {key: value}},
                   repr("loss" if section == "loss" else key))


@pytest.mark.parametrize("section, key, value", [
    ("training", "iterations", 2.5),
    ("network", "input_patch", 68.0),
    ("phantom", "side_voxels", 32.5),
    ("training", "batch_size", True),
    ("phantom", "gre_missing_chunk", 1),
    ("sampler", "icd_probability", "0.5"),
    ("paths", "out_dir", 3),
    ("phantom", "lesion_size_range", [6]),
    ("phantom", "noise_sigma", [0.02]),
    ("phantom", "noise_sigma", 0.02),
    ("phantom", "lesion_counts", [1, 0, 1]),
    ("phantom", "lesion_counts", [1, 0, 1, 0.5]),
    ("phantom", "spacing_mm", [0.5, 0.5]),
], ids=lambda v: str(v))
def test_config_values_of_wrong_type_or_length_exit_1(tmp_path, capsys, section, key, value):
    _exit_1_naming(tmp_path, capsys, {section: {key: value}}, f"{section}.{key}")


def test_config_values_keep_their_defaults_types():
    # a float setting takes an integer, as a float; every default
    # round-trips through JSON
    cfg = config_from_dict({"training": {"learning_rate": 1},
                            "phantom": {"spacing_mm": [1, 1, 1]}})
    assert [type(v) for v in (cfg.training.learning_rate, *cfg.phantom.spacing_mm)] == [float] * 4
    assert config_from_dict(json.loads(json.dumps(RunConfig().to_dict()))) == RunConfig()
    with pytest.raises(ConfigError, match=r"config.xval_folds: expected int, got 2.0"):
        config_from_dict({"xval_folds": 2.0})
    with pytest.raises(ConfigError, match=r"phantom.lesion_counts\[3\]: expected int, got 0.5"):
        config_from_dict({"phantom": {"lesion_counts": [1, 0, 1, 0.5]}})
    with pytest.raises(ConfigError, match="config: expected an object, got list"):
        config_from_dict([])


def test_version_mismatch_rejected():
    with pytest.raises(ConfigError, match="version"):
        config_from_dict({"version": 99})
    with pytest.raises(ConfigError, match="variant must be one of"):
        config_from_dict({"variant": "Baseline"})


def test_variant_wiring_validation():
    # icd_probability > 0 exactly for multitask_icd; the loss follows the variant
    base = RunConfig()
    no_icd = dataclasses.replace(base.sampler, icd_probability=0.0)
    for variant in ("baseline", "multitask"):
        with pytest.raises(ConfigError, match=f"{variant} variant"):
            dataclasses.replace(base, variant=variant).validate()  # icd still 0.5
        cfg = dataclasses.replace(base, variant=variant, sampler=no_icd).validate()
        assert cfg.loss is (variant != "baseline")
    with pytest.raises(ConfigError, match="multitask_icd"):
        dataclasses.replace(base, variant="multitask_icd", sampler=no_icd).validate()
    assert base.validate() is base
    assert base.loss is True


def test_apply_variant_rewires():
    cfg = RunConfig()
    b = cfg.apply_variant("baseline")
    assert not b.loss and b.sampler.icd_probability == 0.0
    b.validate()
    m = cfg.apply_variant("multitask")
    assert m.loss and m.sampler.icd_probability == 0.0
    m.validate()
    i = m.apply_variant("multitask_icd")
    assert i.sampler.icd_probability == 0.5
    i.validate()


def test_master_seed_override():
    cfg = RunConfig().with_master_seed(42)
    assert cfg.training.seed == 42
    assert cfg.sampler.seed == 42
    assert cfg.phantom.seed == 42


# --- CLI -------------------------------------------------------------------------


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["phantom"]) == 1  # --config required
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    assert main(["phantom", "--config", str(path), "--n-subjects", "0"]) == 1
    assert main(["infer", "--config", str(path), "--checkpoint", "x",
                 "--subject", "y", "--drop-channel", "mp2rage"]) == 1
    assert main(["xval", "--config", str(path), "--k", "2"]) == 1  # folds are xval_folds


def test_cli_bad_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["train", "--config", str(bad)]) == 1
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    assert main(["train", "--config", str(tmp_path)]) == 1  # a directory
    # a phantom spacing that is not positive and finite, a noise sigma that
    # is not finite and >= 0, a lesion size range out of order and a
    # learning rate that is not finite and > 0 (json reads NaN and
    # Infinity) are refused before the cohort or loss.csv is written
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    for section, key, value, command in [
            ("phantom", "spacing_mm", [0.0, 0.5, 0.5], "phantom"),
            ("phantom", "spacing_mm", [0.5, -0.5, 0.5], "phantom"),
            ("phantom", "spacing_mm", [0.5, 0.5, float("inf")], "phantom"),
            ("phantom", "noise_sigma", [float("nan"), 0.03, 0.03], "phantom"),
            ("phantom", "noise_sigma", [0.02, -0.03, 0.03], "phantom"),
            ("phantom", "noise_sigma", [0.02, 0.03, float("inf")], "phantom"),
            ("phantom", "lesion_size_range", [80, 6], "phantom"),
            ("training", "learning_rate", float("nan"), "train"),
            ("training", "learning_rate", float("inf"), "train"),
            ("training", "learning_rate", 0.0, "train")]:
        doc = cfg.to_dict()
        doc[section][key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(path)]) == 1, (key, value)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0], err
        assert not (tmp_path / "cohort").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train"],
    ["infer", "--checkpoint", "ck", "--subject", "subject_00"],
    ["xval"],
    ["report", "--pred", "model=pred"],
], ids=lambda argv: argv[0])
def test_cli_uncreatable_out_exit_2(tmp_path, tiny_cohort, capsys, command):
    # the out directory would sit under a regular file
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    capsys.readouterr()
    assert main(command + ["--config", str(path), "--out", str(blocker / "sub")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and str(blocker) in err[0]


def test_cli_phantom_takes_no_out(tmp_path, capsys):
    # phantom writes to paths.cohort_dir; an --out it would ignore is refused
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    capsys.readouterr()
    assert main(["phantom", "--config", str(path), "--n-subjects", "1",
                 "--out", str(tmp_path / "elsewhere")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--out" in err[0]
    assert not (tmp_path / "cohort").exists() and not (tmp_path / "elsewhere").exists()


def test_cli_missing_cohort_exit_2(tmp_path):
    cfg, path = _fast_config(tmp_path, tmp_path / "nope")
    assert main(["train", "--config", str(path)]) == 2


def test_cli_lesion_free_cohort_exit_2(tmp_path, capsys):
    spec = dataclasses.replace(TINY_SPEC, lesion_counts=(0, 0, 0, 0))
    generate_cohort(spec, 1, tmp_path / "cohort", seed=spec.seed)
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and "no lesions" in err[0]
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 2 and manifest["elapsed_s"] > 0


def _truncate_raw(ckpt, subject):
    raw = ckpt.with_suffix(".raw")
    raw.write_bytes(raw.read_bytes()[:65])


def _garble_json(ckpt, subject):
    ckpt.with_suffix(".json").write_text("{not json")


def _remove_checkpoint(ckpt, subject):
    ckpt.with_suffix(".json").unlink()


def _remove_subject(ckpt, subject):
    shutil.rmtree(subject)


def _unreadable_volume(ckpt, subject):
    raw = subject / "t2s_epi.raw"
    raw.unlink()
    raw.mkdir()   # exists, but reading it fails with an OSError


@pytest.mark.parametrize("damage", [_remove_checkpoint, _truncate_raw, _garble_json,
                                    _remove_subject, _unreadable_volume],
                         ids=["missing-checkpoint", "truncated-checkpoint",
                              "malformed-checkpoint", "missing-subject",
                              "unreadable-subject"])
def test_cli_infer_bad_inputs_exit_2(tmp_path, tiny_cohort, capsys, damage):
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    assert main(["train", "--config", str(path)]) == 0
    ckpt = tmp_path / "out" / "checkpoint_00000003"
    subject = tmp_path / "subject_00"
    shutil.copytree(tiny_cohort / "subject_00", subject)
    damage(ckpt, subject)
    capsys.readouterr()
    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt),
                 "--subject", str(subject), "--out", str(tmp_path / "pred")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")


def _wrong_dims_prediction(cohort, pred):
    vio.write_volume(vio.make_volume(np.zeros((8, 8, 8), np.uint8), "cl_labels", "subject_01"),
                     pred / "subject_01" / "cl_pred")


def _malformed_manifest(cohort, pred):
    (cohort / "cohort_manifest.json").write_text("{not json")


def _manifest_entry_without_id(cohort, pred):
    path = cohort / "cohort_manifest.json"
    doc = json.loads(path.read_text())
    del doc["subjects"][0]["subject_id"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("damage", [_wrong_dims_prediction, _malformed_manifest,
                                    _manifest_entry_without_id],
                         ids=["prediction-dims", "malformed-manifest",
                              "manifest-entry-without-id"])
def test_cli_report_bad_data_exit_2(tmp_path, tiny_cohort, capsys, damage):
    cohort = tmp_path / "cohort"
    shutil.copytree(tiny_cohort, cohort)
    pred = tmp_path / "pred"
    for sid in ("subject_00", "subject_01"):
        ref = vio.read_volume(cohort / sid / "cl_labels")
        (pred / sid).mkdir(parents=True)
        vio.write_volume(ref, pred / sid / "cl_pred")
    cfg, path = _fast_config(tmp_path, cohort)
    argv = ["report", "--config", str(path), "--out", str(tmp_path / "rep"),
            "--pred", f"model={pred}"]
    assert main(argv) == 0
    damage(cohort, pred)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")


def test_cli_phantom_deterministic(tmp_path, capsys):
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    assert main(["phantom", "--config", str(path), "--n-subjects", "2"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert len(manifest["subjects"]) == 2
    raw1 = (tmp_path / "cohort" / "subject_00" / "mp2rage.raw").read_bytes()
    assert main(["phantom", "--config", str(path), "--n-subjects", "2"]) == 0
    assert (tmp_path / "cohort" / "subject_00" / "mp2rage.raw").read_bytes() == raw1


def test_cli_phantom_refuses_stray_subjects(tmp_path, capsys):
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    assert main(["phantom", "--config", str(path), "--n-subjects", "3"]) == 0
    capsys.readouterr()
    assert main(["phantom", "--config", str(path), "--n-subjects", "2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and err[0].endswith("subject_02")
    assert (tmp_path / "cohort" / "subject_02" / "mp2rage.raw").exists()


def test_cli_train_infer_report_flow(tmp_path, tiny_cohort, capsys):
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "loss.csv").exists()
    assert (out / "run_manifest.json").exists()
    ckpt = out / "checkpoint_00000003"
    assert ckpt.with_suffix(".json").exists()

    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt),
                 "--subject", str(tiny_cohort / "subject_00"),
                 "--out", str(tmp_path / "pred")]) == 0
    pred = vio.read_volume(tmp_path / "pred" / "subject_00" / "cl_pred")
    ref = vio.read_volume(tiny_cohort / "subject_00" / "cl_labels")
    assert pred.header.dims == ref.header.dims

    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt),
                 "--subject", str(tiny_cohort / "subject_01"),
                 "--out", str(tmp_path / "pred")]) == 0
    # each infer call leaves its own manifest beside its predictions
    assert not (tmp_path / "pred" / "run_manifest.json").exists()
    for sid in ("subject_00", "subject_01"):
        doc = json.loads((tmp_path / "pred" / sid / "run_manifest.json").read_text())
        assert doc["subject_dir"] == str((tiny_cohort / sid).resolve())
        assert doc["checkpoint"] == str(ckpt.resolve())
        # a 48^3 subject is streamed through the network mirror-padded to
        # 88^3, at C=2 in pushes of 12 planes, in one height slice: its 48
        # output rows leave no second slice its 40
        assert (doc["padded_shape"], doc["forward_calls"], doc["slices"]) == \
            ([88, 88, 88], 8, 1)
    assert main(["report", "--config", str(path),
                 "--out", str(tmp_path / "rep"),
                 "--pred", f"model={tmp_path / 'pred'}"]) == 0
    table = (tmp_path / "rep" / "table1.csv").read_text().splitlines()
    assert len(table) == 2  # header + one model row


def test_cli_finished_runs_record_time_and_peak_rss(tmp_path, tiny_cohort, capsys):
    from clseg.pipeline import run_inference, run_training

    cfg, path = _fast_config(tmp_path, tiny_cohort, xval_folds=2)
    out = tmp_path / "out"
    ckpt = out / "checkpoint_00000003"
    subject = tiny_cohort / "subject_00"
    runs = {
        "train": (["train", "--config", str(path)], out),
        "infer": (["infer", "--config", str(path), "--checkpoint", str(ckpt),
                   "--subject", str(subject), "--out", str(tmp_path / "pred")],
                  tmp_path / "pred" / "subject_00"),
        "xval": (["xval", "--config", str(path), "--out", str(tmp_path / "xv")],
                 tmp_path / "xv"),
    }
    for command, (argv, run_dir) in runs.items():
        assert main(argv) == 0
        doc = json.loads((run_dir / "run_manifest.json").read_text())
        assert doc["command"] == command
        assert doc["elapsed_s"] > 0 and doc["peak_rss_mib"] > 0 and doc["exit_code"] == 0
        env = doc["environment"]
        assert env["numpy"] == np.__version__ and env["scipy"]
        assert env["nproc"] >= 1 and env["blas_threads"] >= 1
        assert not list(run_dir.glob("*.tmp"))

    # the telemetry leaves every output as the pipeline alone writes it
    ref_ckpt = run_training(cfg, tmp_path / "ref")
    run_inference(ref_ckpt, subject, tmp_path / "ref_pred")
    for name in ("loss.csv", "checkpoint_00000003.raw", "checkpoint_00000003.json"):
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
    for name in ("cl_pred.raw", "tissue_pred.raw", "cl_prob.raw"):
        assert (tmp_path / "pred" / "subject_00" / name).read_bytes() == \
            (tmp_path / "ref_pred" / name).read_bytes()


def test_inference_needs_no_label_volumes(tmp_path, tiny_cohort):
    from clseg.pipeline import run_inference, run_training

    cfg, path = _fast_config(tmp_path, tiny_cohort)
    ckpt = run_training(cfg, tmp_path / "out")
    unlabelled = tmp_path / "unlabelled" / "subject_00"
    shutil.copytree(tiny_cohort / "subject_00", unlabelled)
    for name in vio.LABEL_NAMES:
        for suffix in (".json", ".raw"):
            (unlabelled / name).with_suffix(suffix).unlink()
    run_inference(ckpt, tiny_cohort / "subject_00", tmp_path / "labelled")
    run_inference(ckpt, unlabelled, tmp_path / "api")
    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt),
                 "--subject", str(unlabelled), "--out", str(tmp_path / "cli")]) == 0
    for name in ("cl_pred.raw", "tissue_pred.raw", "cl_prob.raw"):
        want = (tmp_path / "labelled" / name).read_bytes()
        assert (tmp_path / "api" / name).read_bytes() == want
        assert (tmp_path / "cli" / "subject_00" / name).read_bytes() == want


def test_cli_report_needs_pred(tmp_path, tiny_cohort, capsys):
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    assert main(["report", "--config", str(path), "--pred", "noequals"]) == 1
    assert main(["report", "--config", str(path)]) == 1
    # a repeated name would silently drop the first directory
    capsys.readouterr()
    assert main(["report", "--config", str(path), "--pred", f"m={tmp_path / 'a'}",
                 "--pred", f"m={tmp_path / 'b'}"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: --pred m given twice"]
    assert not (tmp_path / "out").exists()


def test_cli_nonfinite_training_exit_3(tmp_path, tiny_cohort):
    # one poisoned voxel in a contrast makes the first loss non-finite
    import shutil
    bad_cohort = tmp_path / "bad_cohort"
    shutil.copytree(tiny_cohort, bad_cohort)
    v = vio.read_volume(bad_cohort / "subject_00" / "mp2rage")
    v.data[0, 0, 0] = np.nan
    vio.write_volume(v, bad_cohort / "subject_00" / "mp2rage")
    cfg, path = _fast_config(tmp_path, bad_cohort)
    assert main(["train", "--config", str(path)]) == 3


def _nan_voxel_cohort(tmp_path, tiny_cohort, contrast):
    cohort = tmp_path / "nan_cohort"
    shutil.copytree(tiny_cohort, cohort)
    v = vio.read_volume(cohort / "subject_00" / contrast)
    v.data[3, 4, 5] = np.nan
    vio.write_volume(v, cohort / "subject_00" / contrast)
    return cohort


def test_cli_train_refuses_a_nan_voxel_in_one_line(tmp_path, tiny_cohort, capsys):
    # the contrast's mean and standard deviation are NaN: normalization
    # names it, before any step, instead of training on NaN inputs
    cohort = _nan_voxel_cohort(tmp_path, tiny_cohort, "t2s_gre")
    cfg, path = _fast_config(tmp_path, cohort)
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: subject_00 t2s_gre: non-finite mean nan or standard deviation nan "
        "of its voxels"]
    out = tmp_path / "out"
    assert not list(out.glob("checkpoint_*"))
    assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 3


def test_cli_infer_refuses_a_nan_voxel_in_one_line(tmp_path, tiny_cohort, capsys):
    # one NaN voxel used to give an all-NaN cl_prob and exit 0
    cohort = _nan_voxel_cohort(tmp_path, tiny_cohort, "t2s_epi")
    cfg, path = _fast_config(tmp_path, cohort)
    ckpt = tmp_path / "ck"
    params = unet.build_network(cfg.network, seed=0)
    unet.save_checkpoint(ckpt, params, AdamState.for_params(params.tensors), 0, 0)
    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt), "--subject",
                 str(cohort / "subject_00"), "--out", str(tmp_path / "pred")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: subject_00 t2s_epi: non-finite mean nan or standard deviation nan "
        "of its voxels"]
    out = tmp_path / "pred" / "subject_00"
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 3


def test_cli_refuses_a_nonfinite_checkpoint_in_one_line(tmp_path, tiny_cohort, capsys):
    # NaN kernel values in a checkpoint used to give an all-NaN cl_prob and
    # exit 0; a resume must not skip such a checkpoint as incomplete and
    # train on from an older one, so it too exits 3 before writing anything
    training = dataclasses.replace(RunConfig().training, iterations=2, checkpoint_every=1, seed=3)
    cfg, path = _fast_config(tmp_path, tiny_cohort, training=training)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    ckpt = out / "checkpoint_00000002"
    params, state, it, draws = unet.load_checkpoint(ckpt)
    params.tensors["enc1a.kernel"].flat[:10] = np.nan
    unet.save_checkpoint(ckpt, params, state, it, draws)
    capsys.readouterr()
    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt), "--subject",
                 str(tiny_cohort / "subject_00"), "--out", str(tmp_path / "pred")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure: checkpoint {ckpt}: parameter enc1a.kernel is not finite"]
    pred = tmp_path / "pred" / "subject_00"
    assert sorted(p.name for p in pred.iterdir()) == ["run_manifest.json"]
    assert json.loads((pred / "run_manifest.json").read_text())["exit_code"] == 3

    params, state, it, draws = unet.load_checkpoint(out / "checkpoint_00000001")
    state.v["dec2b.bias"][1] = np.inf
    unet.save_checkpoint(ckpt, params, state, 2, draws)
    kept = sorted(p for p in out.iterdir() if p.name != "run_manifest.json")
    before = [p.read_bytes() for p in kept]
    _fast_config(tmp_path, tiny_cohort, training=dataclasses.replace(training, iterations=4))
    assert main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"numerical failure: checkpoint {ckpt}: Adam moment v of dec2b.bias is not finite"]
    assert sorted(p for p in out.iterdir() if p.name != "run_manifest.json") == kept
    assert [p.read_bytes() for p in kept] == before
    assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 3


def test_cli_nonfinite_gradient_exit_3(tmp_path, tiny_cohort, monkeypatch, capsys):
    # a NaN gradient under a finite loss stops training before the update
    backward = unet.backward

    def nan_grad_w(*args):
        grads = backward(*args)
        grads["dec1a.kernel"][...] = np.nan
        return grads

    monkeypatch.setattr(unet, "backward", nan_grad_w)
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    assert main(["train", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "non-finite gradient of dec1a.kernel at patch" in err
    assert not list((tmp_path / "out").glob("checkpoint_*"))
    manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 3


def test_cli_infer_failure_in_a_slice_exits_in_one_line(tmp_path, tiny_cohort, monkeypatch,
                                                        capsys):
    # a slice that raises on its worker thread ends `clseg infer` as an
    # error on the caller's thread does: the exit code of its class, one
    # stderr line, no prediction volume, and the BLAS thread count as it was
    cfg, path = _fast_config(tmp_path, tiny_cohort)
    ckpt = tmp_path / "ck"
    params = unet.build_network(cfg.network, seed=0)
    unet.save_checkpoint(ckpt, params, AdamState.for_params(params.tensors), 0, 0)
    forward = unet.forward

    def second_slice_fails(params_, x, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise NonFiniteError("non-finite activation in the second slice")
        return forward(params_, x, *args, **kwargs)

    monkeypatch.setattr(unet, "forward", second_slice_fails)
    monkeypatch.setattr(unet, "_height_slices", lambda out_height: 2)
    before = blas_threads()
    assert main(["infer", "--config", str(path), "--checkpoint", str(ckpt), "--subject",
                 str(tiny_cohort / "subject_00"), "--out", str(tmp_path / "pred")]) == 3
    assert blas_threads() == before
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: non-finite activation in the second slice"]
    out = tmp_path / "pred" / "subject_00"
    assert sorted(p.name for p in out.iterdir()) == ["run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["exit_code"] == 3 and "slices" not in manifest


def test_cli_resume_refuses_a_changed_learning_rate(tmp_path, tiny_cohort, capsys):
    # Adam's learning rate is resumed from the checkpoint: a run resumed
    # under another rate would train at the old one while its manifest
    # records the new
    training = dataclasses.replace(RunConfig().training, iterations=2, checkpoint_every=1,
                                   seed=3, learning_rate=1e-4)
    cfg, path = _fast_config(tmp_path, tiny_cohort, training=training)
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "out"
    kept = sorted(p for p in out.iterdir() if p.name != "run_manifest.json")
    before = [p.read_bytes() for p in kept]
    capsys.readouterr()
    _fast_config(tmp_path, tiny_cohort, training=dataclasses.replace(
        training, iterations=4, learning_rate=1e-2))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "learning_rate 0.0001" in err and "sets 0.01" in err
    assert sorted(p for p in out.iterdir() if p.name != "run_manifest.json") == kept
    assert [p.read_bytes() for p in kept] == before


def test_cli_no_resume_run_resumes_as_itself(tmp_path, tiny_cohort):
    # --no-resume removes the out dir's checkpoints: a resume of its run
    # used to continue the older run's newest one, its rows in between lost
    training = dataclasses.replace(RunConfig().training, iterations=4, checkpoint_every=2)
    cfg, path = _fast_config(tmp_path, tiny_cohort, training=training)
    assert main(["train", "--config", str(path), "--seed", "0"]) == 0
    _fast_config(tmp_path, tiny_cohort, training=dataclasses.replace(training, iterations=2))
    assert main(["train", "--config", str(path), "--seed", "7", "--no-resume"]) == 0
    _fast_config(tmp_path, tiny_cohort, training=dataclasses.replace(training, iterations=6))
    assert main(["train", "--config", str(path), "--seed", "7"]) == 0
    assert main(["train", "--config", str(path), "--seed", "7",
                 "--out", str(tmp_path / "fresh")]) == 0
    files = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == files
    for name in files:
        if name != "run_manifest.json":
            assert (tmp_path / "out" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes(), name


def test_cli_faults_exit_in_one_line_as_a_process(tmp_path, tiny_cohort):
    # as a user runs it: a wrong-typed config and an old-format checkpoint
    # each end in one line and their exit code, never a traceback
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "clseg.cli", *argv], capture_output=True,
                              text=True, env=ENV, timeout=300)

    cfg, path = _fast_config(tmp_path, tiny_cohort)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"training": {"iterations": 2.5}}), encoding="utf-8")
    r = run("train", "--config", str(bad))
    assert r.returncode == 1 and "Traceback" not in r.stderr
    assert r.stderr.splitlines() == ["error: training.iterations: expected int, got 2.5"]

    ckpt = tmp_path / "ck"
    params = unet.build_network(cfg.network, seed=0)
    unet.save_checkpoint(ckpt, params, AdamState.for_params(params.tensors), 0, 0)
    write_old_network_keys(ckpt)
    r = run("infer", "--config", str(path), "--checkpoint", str(ckpt),
            "--subject", str(tiny_cohort / "subject_00"), "--out", str(tmp_path / "pred"))
    assert r.returncode == 2 and "Traceback" not in r.stderr
    err = r.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ") and "instance_norm" in err[0]


def _commands():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return sorted(subparsers.choices)


@pytest.mark.parametrize("command", _commands())
def test_cli_command_help_exits_0(command):
    # --help runs after every import of the package, so a command left
    # importing deleted code fails here
    r = subprocess.run([sys.executable, "-m", "clseg.cli", command, "--help"],
                       capture_output=True, text=True, env=ENV, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: ")


@pytest.mark.parametrize("argv, section", [
    (["phantom", "--n-subjects", "1", "--seed", "-1"], None),
    (["train", "--seed", "-1"], None),
    (["xval", "--seed", "-1"], None),
    (["train"], "training"),
    (["train"], "sampler"),
    (["phantom", "--n-subjects", "1"], "phantom"),
], ids=["phantom-flag", "train-flag", "xval-flag", "training-seed", "sampler-seed",
        "phantom-seed"])
def test_cli_negative_seed_exits_1(tmp_path, capsys, argv, section):
    # numpy's SeedSequence takes no negative seed; the config refuses it
    # before a cohort, run directory or manifest is written
    cfg, path = _fast_config(tmp_path, tmp_path / "cohort")
    if section is not None:
        doc = json.loads(path.read_text())
        doc[section]["seed"] = -1
        path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(argv + ["--config", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "seed must be >= 0" in err[0], err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("argv, changes", [
    (["--seeds", "0", "0"], {}),  # a seed's row would be counted twice
    (["--seeds", "-1"], {}),  # numpy's SeedSequence takes no negative seed
    ([], {"xval_folds": 1}),
    ([], {"xval_folds": 3}),  # more folds than phantom.n_subjects
    (["--workers", "0"], {}),
    ([], {"training": {"iterations": 0}}),
], ids=["repeated-seed", "negative-seed", "k-1", "k-above-subjects", "no-workers",
        "no-iterations"])
def test_cli_replicate_refuses_bad_arguments(tmp_path, capsys, argv, changes):
    doc = tiny_replication_config().to_dict()
    for key, value in changes.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    path = tmp_path / "replication.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "work"
    capsys.readouterr()
    assert main(["replicate", "--config", str(path), "--out", str(out), *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    # no cohort or run; at most the manifest of the failed run
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written in ([], ["run_manifest.json"]), written
    if written:
        assert json.loads((out / "run_manifest.json").read_text())["exit_code"] == 1
