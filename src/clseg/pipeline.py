"""Pipeline plumbing: cohort loading, the training loop with checkpoints
and a loss log, whole-subject inference, k-fold cross-validation, and
report emission. `run_report` is the one scoring path: `clseg report`,
`run_xval` and the replication experiment (`clseg replicate --config
configs/replication.json`) all turn prediction directories into report
files through it. Every step is a pure function of (config,
input files, seed). Predictions from a given checkpoint are byte-identical
at any BLAS thread count (unet.sliding_window_inference). Training bytes
are so only at the same count: another count reorders the float32 sums of
the weight gradients, and the rounding differences grow through training.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, volume_io
from .blas import blas_threads
from .config import ConfigError, RunConfig
from .evaluation import (EvalConfig, PatientEval, build_report, evaluate_patient, label_lesions,
                         write_report_files)
from .optim import AdamState
from .sampling import PatchSampler, TrainingSubject
from .unet import (CheckpointError, CheckpointMismatchError, build_network, load_checkpoint,
                   normalize_volume, save_checkpoint, sliding_window_inference, train_step)

PREDICTION_NAMES = ("cl_pred", "tissue_pred", "cl_prob")


def derive_seed(*keys: int) -> int:
    """Deterministic child seed from a tuple of integers."""
    return int(np.random.SeedSequence(entropy=list(keys)).generate_state(1)[0])


def discover_subjects(cohort_dir: str | Path) -> list[str]:
    cohort_dir = Path(cohort_dir)
    if not cohort_dir.is_dir():
        raise volume_io.VolumeError(f"cohort directory not found: {cohort_dir}")
    ids = sorted(d.name for d in cohort_dir.iterdir()
                 if d.is_dir() and (d / "mp2rage.json").exists())
    if not ids:
        raise volume_io.VolumeError(f"no subjects found under {cohort_dir}")
    return ids


def check_cohort(subject_dirs: list[str | Path]) -> dict:
    """Validate a cohort on disk and count its lesions per class, per
    subject and in all: the document `clseg phantom` prints."""
    subjects = []
    for d in subject_dirs:
        cl = volume_io.read_subject(d)["cl_labels"]
        classes = label_lesions(cl.data)[1][1:]
        subjects.append({
            "subject_id": cl.header.subject_id,
            "directory": str(d),
            "dims": list(cl.header.dims),
            "spacing_mm": list(cl.header.spacing_mm),
            "lesion_counts": {name: int((classes == code).sum())
                              for code, name in volume_io.CL_CLASS_NAMES.items()},
            "n_lesions": len(classes),
        })
    return {"subjects": subjects, "total_lesions": sum(s["n_lesions"] for s in subjects)}


def _normalized_contrasts(vols: dict[str, volume_io.Volume]) -> np.ndarray:
    """(3, D, H, W) normalized contrasts in CONTRAST_NAMES order."""
    return np.stack([normalize_volume(vols[n].data, f"{vols[n].header.subject_id} {n}")
                     for n in volume_io.CONTRAST_NAMES])


def load_training_subject(cohort_dir: str | Path, subject_id: str) -> TrainingSubject:
    vols = volume_io.read_subject(Path(cohort_dir) / subject_id)
    return TrainingSubject(
        subject_id=subject_id,
        contrasts=_normalized_contrasts(vols),
        cl_labels=vols["cl_labels"].data,
        tissue_labels=vols["tissue_labels"].data,
        wml_labels=vols["wml_labels"].data,
    )


def load_training_data(cohort_dir: str | Path,
                       subject_ids: list[str] | None = None) -> list[TrainingSubject]:
    ids = subject_ids if subject_ids is not None else discover_subjects(cohort_dir)
    return [load_training_subject(cohort_dir, sid) for sid in sorted(ids)]


def write_run_manifest(out_dir: Path, cfg: RunConfig, command: str,
                       started: float | None = None, exit_code: int | None = None,
                       **inputs) -> None:
    """Write run_manifest.json atomically, with the given `inputs` (such as
    the paths a command read, or how its inference ran) and the
    environment that produced the run.
    Given `started`, the time.perf_counter() reading taken when the command
    began, the command has ended with `exit_code`: its wall time, the
    process's peak resident set size and the exit code are added."""
    doc = {
        "command": command,
        **inputs,
        "package_version": __version__,
        "config_hash": cfg.config_hash(),
        "config": cfg.to_dict(),
        "environment": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
        },
    }
    if started is not None:
        doc["elapsed_s"] = round(time.perf_counter() - started, 3)
        # ru_maxrss is in KiB on Linux
        doc["peak_rss_mib"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        doc["exit_code"] = exit_code
    volume_io.write_json(out_dir / "run_manifest.json", doc)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _load_latest_checkpoint(out_dir: Path):
    """(path, load_checkpoint result) of the newest checkpoint that loads,
    or None. A checkpoint that is not whole (a file missing or unreadable, a
    header field missing or unparsable, a truncated payload) is skipped: a
    killed or damaged run leaves one. A whole header of another network, an
    older format's included, raises CheckpointMismatchError before anything
    is written: resuming past it would overwrite its run's loss.csv and
    checkpoints; so does NonFiniteError, for a NaN or an infinity in one."""
    found = []
    for p in out_dir.glob("checkpoint_*.json"):
        stem = p.name[len("checkpoint_"):-len(".json")]
        if stem.isdigit():
            found.append((int(stem), p.with_suffix("")))
    for _, path in sorted(found, reverse=True):
        try:
            return path, load_checkpoint(path)
        except CheckpointMismatchError:
            raise
        except CheckpointError:
            continue
    return None


def _stack_batch(patches) -> dict:
    return {
        "input": np.stack([p.input for p in patches]),
        "cl_labels": np.stack([p.cl_labels for p in patches]),
        "tissue_labels": np.stack([p.tissue_labels for p in patches]),
        "wml_labels": np.stack([p.wml_labels for p in patches]),
        "provenance": [p.provenance for p in patches],
    }


class LossLogError(ValueError):
    """loss.csv does not hold the rows that its run's checkpoint covers."""


def _truncate_loss_log(log_path: Path, keep_iterations: int) -> list[str]:
    """The header and rows 1..`keep_iterations` of loss.csv, which must
    hold them in order, each followed only by the next row. Rows past
    `keep_iterations`, and a last line without its newline, which a killed
    run cut, are dropped; any other line raises LossLogError."""
    header = "iteration,cl_loss,tissue_loss,total_loss\n"
    if keep_iterations == 0:
        return [header]
    covered = f"the checkpoint covers rows 1..{keep_iterations}"
    if not log_path.exists():
        raise LossLogError(f"{log_path} is missing, and {covered}")
    lines = log_path.read_text(errors="replace").splitlines(keepends=True)
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    if lines[:1] != [header]:
        raise LossLogError(f"{log_path} line 1 is not the header {header.strip()}")
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(i):
            raise LossLogError(f"{log_path} line {i + 1} is not row {i}, and {covered}")
    if len(lines) <= keep_iterations:
        raise LossLogError(f"{log_path} ends after row {len(lines) - 1}, and {covered}")
    return lines[:keep_iterations + 1]


def run_training(cfg: RunConfig, out_dir: str | Path,
                 subject_ids: list[str] | None = None, resume: bool = True) -> Path:
    """Train per the config; emits loss.csv and periodic checkpoints.

    Resumable: with `resume`, continues from the newest complete
    checkpoint in out_dir and reproduces the uninterrupted run exactly (the
    sampler is draw-indexed, so only the draw counter is state). Without
    it, out_dir's checkpoints are removed first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tr = cfg.training
    subjects = load_training_data(cfg.paths.cohort_dir, subject_ids)
    sampler = PatchSampler(cfg.sampler, cfg.network.input_patch, subjects)

    start_iter = 0
    draws = 0
    if not resume:  # another run's checkpoints, which a later resume would continue
        for header in out_dir.glob("checkpoint_*.json"):
            header.unlink()  # first, so that no header outlives its payload
            header.with_suffix(".raw").unlink(missing_ok=True)
    latest = _load_latest_checkpoint(out_dir) if resume else None
    if latest is not None:
        ckpt, (params, state, start_iter, draws) = latest
        if params.config != cfg.network:
            raise ConfigError(f"checkpoint {ckpt} config differs from run config")
        if state.learning_rate != tr.learning_rate:
            raise ConfigError(f"checkpoint {ckpt} trained at learning_rate "
                              f"{state.learning_rate!r}, the run config sets {tr.learning_rate!r}")
    else:
        params = build_network(cfg.network, seed=tr.seed)
        state = AdamState.for_params(params.tensors, learning_rate=tr.learning_rate)

    log_path = out_dir / "loss.csv"
    log_lines = _truncate_loss_log(log_path, start_iter)
    with open(log_path, "w") as log:
        log.writelines(log_lines)
        for it in range(start_iter + 1, tr.iterations + 1):
            patches = [sampler.draw(draws + i) for i in range(tr.batch_size)]
            draws += tr.batch_size
            result = train_step(params, state, _stack_batch(patches), cfg.loss)
            log.write(f"{it},{result.cl_loss!r},{result.tissue_loss!r},"
                      f"{result.total_loss!r}\n")
            if it % tr.checkpoint_every == 0 or it == tr.iterations:
                # rows first: a run killed once the checkpoint lands must
                # find every row up to it on disk
                log.flush()
                save_checkpoint(out_dir / f"checkpoint_{it:08d}", params, state, it, draws)
    return out_dir / f"checkpoint_{tr.iterations:08d}"


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def run_inference(checkpoint: str | Path, subject_dir: str | Path, out_dir: str | Path,
                  drop_channel: str | None = None) -> tuple[dict[str, Path], dict]:
    """Predict one subject and write cl_pred/tissue_pred/cl_prob volumes.
    Only the three contrasts are read, so the subject needs no labels.

    Returns the written volumes by name and what the inference did:
    `padded_shape`, the mirror-padded input streamed through the network,
    `forward_calls`, the depth chunks it was fed in, and `slices`, the
    height slices those streamed as."""
    params, _, _, _ = load_checkpoint(checkpoint)
    vols = volume_io.read_subject(subject_dir, volume_io.CONTRAST_NAMES)
    header = vols["mp2rage"].header
    contrasts = _normalized_contrasts(vols)
    del vols  # the raw volumes
    cl_pred, tissue_pred, cl_prob, run = sliding_window_inference(
        params, contrasts, drop_channel=drop_channel)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, arr, kind in zip(PREDICTION_NAMES, (cl_pred, tissue_pred, cl_prob),
                               ("cl_labels", "tissue_labels", "intensity")):
        v = volume_io.make_volume(arr, kind, header.subject_id, header.spacing_mm)
        volume_io.write_volume(v, out_dir / name)
        written[name] = out_dir / name
    return written, run


# ---------------------------------------------------------------------------
# Cross-validation and reporting
# ---------------------------------------------------------------------------


def make_fold_split(subject_ids: list[str], k: int, seed: int) -> list[list[str]]:
    """Deterministic k folds from (seed, subject ids); sizes differ by <= 1."""
    if k < 2 or k > len(subject_ids):
        raise ConfigError(f"k={k} invalid for cohort of {len(subject_ids)}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xF01D,)))
    order = rng.permutation(sorted(subject_ids))
    return [sorted(chunk.tolist()) for chunk in np.array_split(order, k)]


def _lesion_records_by_subject(cohort_dir: Path) -> dict[str, list[dict]]:
    manifest_path = cohort_dir / "cohort_manifest.json"
    if not manifest_path.exists():
        return {}
    try:
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        return {s["subject_id"]: s["lesions"] for s in doc.get("subjects", [])}
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise volume_io.VolumeError(
            f"malformed cohort manifest {manifest_path}: {type(e).__name__}: {e}") from e


def evaluate_predictions(cohort_dir: str | Path, pred_dir: str | Path,
                         eval_cfg: EvalConfig) -> list[PatientEval]:
    """Per-patient evaluation of a prediction directory against the cohort."""
    cohort_dir = Path(cohort_dir)
    pred_dir = Path(pred_dir)
    records = _lesion_records_by_subject(cohort_dir)
    patients = []
    for sid in discover_subjects(cohort_dir):
        ref = volume_io.read_volume(cohort_dir / sid / "cl_labels")
        pred_path = pred_dir / sid / "cl_pred"
        if not pred_path.with_suffix(".json").exists():
            raise volume_io.MissingVolumeFileError(
                f"no prediction for {sid} under {pred_dir} (cohort coverage mismatch)")
        pred = volume_io.read_volume(pred_path)
        if pred.header.dims != ref.header.dims:
            raise volume_io.GeometryMismatchError(
                f"prediction {pred_path} has dims {pred.header.dims}, "
                f"reference has {ref.header.dims}")
        patients.append(evaluate_patient(
            sid, ref.data, pred.data, eval_cfg,
            spacing_mm=ref.header.spacing_mm,
            lesion_records=records.get(sid)))
    return patients


def run_fold(cfg: RunConfig, fold_idx: int, train_ids: list[str], test_ids: list[str],
             out_dir: str | Path,
             test_sets: dict[str, tuple[str | Path, str | None]]) -> Path:
    """Train fold i into out_dir/fold_<i>, seeded from (seed, fold_idx), then
    predict every held-out subject into out_dir/<set>/<subject> for each set
    of `test_sets`: set name -> (cohort_dir, drop_channel or None)."""
    out_dir = Path(out_dir)
    fold_cfg = dataclasses.replace(
        cfg,
        training=dataclasses.replace(cfg.training, seed=derive_seed(cfg.training.seed, fold_idx)),
        sampler=dataclasses.replace(cfg.sampler, seed=derive_seed(cfg.sampler.seed, fold_idx)),
    )
    ckpt = run_training(fold_cfg, out_dir / f"fold_{fold_idx}", subject_ids=train_ids)
    for sid in test_ids:
        for name, (cohort_dir, drop_channel) in test_sets.items():
            run_inference(ckpt, Path(cohort_dir) / sid, out_dir / name / sid,
                          drop_channel=drop_channel)
    return ckpt


def run_xval(cfg: RunConfig, out_dir: str | Path) -> dict:
    """Train/test each of the config's xval_folds folds, then pool every
    held-out prediction into one report."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    subject_ids = discover_subjects(cfg.paths.cohort_dir)
    folds = make_fold_split(subject_ids, cfg.xval_folds, cfg.training.seed)
    volume_io.write_json(out_dir / "folds.json", folds)

    for fi, test_ids in enumerate(folds):
        train_ids = sorted(set(subject_ids) - set(test_ids))
        run_fold(cfg, fi, train_ids, test_ids, out_dir,
                 {"predictions": (cfg.paths.cohort_dir, None)})

    return run_report(cfg.paths.cohort_dir, {cfg.variant: out_dir / "predictions"},
                      out_dir / "report", cfg.eval)


def run_report(cohort_dir: str | Path, pred_dirs: dict[str, str | Path],
               out_dir: str | Path, eval_cfg: EvalConfig) -> dict:
    """Evaluate one or more variants' prediction dirs into one report in out_dir."""
    model_patients = {
        name: evaluate_predictions(cohort_dir, pdir, eval_cfg)
        for name, pdir in sorted(pred_dirs.items())
    }
    report = build_report(model_patients, eval_cfg)
    write_report_files(report, out_dir)
    return report
