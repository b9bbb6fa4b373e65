"""Desk-scale experiment drivers.

Two experiments back the end-to-end claims:

* overfit_experiment: train the multitask_icd variant on a tiny cohort and
  score it on its own training subjects; a correct pipeline drives the
  lesion-wise detection rate toward 1 with few false positives.
* icd_robustness_experiment: 3-fold cross-validation of all three model
  variants over several seeds on a 12-subject cohort, scored on a clean
  test set plus an artifact twin (GRE missing chunk at test time, with and
  without zeroing a T2* channel at inference). Reports directional
  comparisons: the multi-task variant's lesion-wise FPR against the
  baseline's, and the dropout-trained variant's LTPR degradation under
  channel loss against the plain multi-task one.

Every (variant, fold) job runs `pipeline.run_fold` in a process pool and
writes its own directory; all variants see the same fold split. Each pool
worker runs numpy's bundled OpenBLAS at one thread, so the workers do not
oversubscribe the cores. Results are byte-deterministic in (config, seeds)
for a fixed BLAS thread count.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import VARIANTS, RunConfig
from .evaluation import EvalConfig, pooled_row
from .phantom import PhantomSpec, generate_cohort
from .pipeline import (derive_seed, discover_subjects, evaluate_predictions,
                       make_fold_split, run_fold, run_inference, run_training)
from .losses import LossConfig
from .sampling import SamplerConfig
from .unet import NetworkConfig

DESK_PHANTOM = PhantomSpec(
    side_voxels=56,
    cortex_thickness_voxels=5,
    lesion_counts=(4, 1, 5, 1),
    lesion_size_range=(6, 80),
    wml_count=2,
)


def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS bundled with numpy's wheels, or None for another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    path = next(libs.glob("libscipy_openblas64_*.so"), None)
    if path is None:
        return None
    lib = ctypes.CDLL(str(path))  # the copy numpy already loaded
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads64_.restype = None
    return lib


def blas_threads() -> int | None:
    """numpy's OpenBLAS thread count, or None if numpy uses another BLAS."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _one_blas_thread() -> None:
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)


def worker_pool(n_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers each run numpy's OpenBLAS at one thread."""
    return ProcessPoolExecutor(max_workers=n_workers, initializer=_one_blas_thread)


def _desk_config(cohort_dir, out_dir, variant, iterations, seed,
                 base_channels=4, input_patch=48, learning_rate=1e-3,
                 rotation_max_deg=180.0, jitter_voxels=4) -> RunConfig:
    cfg = RunConfig(
        variant="multitask_icd",
        network=NetworkConfig(base_channels=base_channels, input_patch=input_patch),
        loss=LossConfig(),
        sampler=SamplerConfig(jitter_voxels=jitter_voxels,
                              rotation_max_deg=rotation_max_deg,
                              icd_probability=0.5, seed=seed),
        training=dataclasses.replace(
            RunConfig().training, iterations=iterations,
            checkpoint_every=max(1, iterations), learning_rate=learning_rate, seed=seed),
        paths=dataclasses.replace(RunConfig().paths, cohort_dir=str(cohort_dir),
                                  out_dir=str(out_dir)),
    )
    return cfg.apply_variant(variant).validate()


def overfit_experiment(workdir: str | Path, iterations: int = 2000, seed: int = 7,
                       n_subjects: int = 2, phantom: PhantomSpec = DESK_PHANTOM,
                       base_channels: int = 4, input_patch: int = 48,
                       learning_rate: float = 1e-3) -> dict:
    """Train multitask_icd on a tiny cohort, score on the training subjects."""
    workdir = Path(workdir)
    cohort = workdir / "cohort"
    t0 = time.time()
    generate_cohort(phantom, n_subjects, cohort, seed=seed)
    cfg = _desk_config(cohort, workdir / "train", "multitask_icd",
                       iterations, seed, base_channels=base_channels,
                       input_patch=input_patch, learning_rate=learning_rate)
    ckpt = run_training(cfg, workdir / "train")
    pred = workdir / "pred"
    for sid in discover_subjects(cohort):
        run_inference(ckpt, cohort / sid, pred / sid)
    result = {
        "iterations": iterations,
        "seed": seed,
        "pooled": pooled_row(evaluate_predictions(cohort, pred, EvalConfig())),
        "elapsed_s": round(time.time() - t0, 1),
    }
    (workdir / "overfit_result.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def icd_robustness_experiment(workdir: str | Path, seeds=(0, 1, 2),
                              iterations: int = 400, n_subjects: int = 12,
                              k: int = 3, phantom: PhantomSpec = DESK_PHANTOM,
                              base_channels: int = 4, input_patch: int = 48,
                              learning_rate: float = 1e-3,
                              n_workers: int = 2) -> dict:
    """Cross-validated three-variant comparison over seeds; see module doc."""
    workdir = Path(workdir)
    t0 = time.time()
    per_seed = []
    for seed in seeds:
        sdir = workdir / f"seed_{seed}"
        clean_dir = sdir / "cohort"
        art_dir = sdir / "cohort_artifact"
        generate_cohort(phantom, n_subjects, clean_dir, seed=seed)
        # artifact twin: identical geometry/labels, GRE chunk zeroed at test
        generate_cohort(dataclasses.replace(phantom, gre_missing_chunk=True),
                        n_subjects, art_dir, seed=seed)
        ids = discover_subjects(clean_dir)
        folds = make_fold_split(ids, k, seed)
        test_sets = {"pred_clean": (clean_dir, None),
                     "pred_art_full": (art_dir, None),
                     "pred_art_drop": (art_dir, "t2s_gre")}

        with worker_pool(n_workers) as pool:
            jobs = []
            for vi, variant in enumerate(VARIANTS):
                vdir = sdir / variant
                cfg = _desk_config(clean_dir, vdir, variant, iterations,
                                   derive_seed(seed, vi),
                                   base_channels=base_channels, input_patch=input_patch,
                                   learning_rate=learning_rate)
                for fi, test_ids in enumerate(folds):
                    train_ids = sorted(set(ids) - set(test_ids))
                    jobs.append(pool.submit(run_fold, cfg, fi, train_ids, test_ids,
                                            vdir, test_sets))
            for job in jobs:
                job.result()

        row = {"seed": seed, "variants": {}}
        for variant in VARIANTS:
            row["variants"][variant] = {
                key: pooled_row(evaluate_predictions(cohort, sdir / variant / name, EvalConfig()))
                for key, (name, (cohort, _)) in zip(("clean", "artifact_full", "artifact_drop"),
                                                    test_sets.items())
            }
        per_seed.append(row)

    def count(predicate):
        return sum(1 for row in per_seed if predicate(row["variants"]))

    summary = {
        "seeds": list(seeds),
        "iterations": iterations,
        "per_seed": per_seed,
        "multitask_lfpr_le_baseline": count(
            lambda v: v["multitask"]["clean"]["lfpr"] <= v["baseline"]["clean"]["lfpr"]),
        "icd_degradation_le_multitask": count(
            lambda v: (v["multitask_icd"]["artifact_full"]["ltpr"]
                       - v["multitask_icd"]["artifact_drop"]["ltpr"])
            <= (v["multitask"]["artifact_full"]["ltpr"]
                - v["multitask"]["artifact_drop"]["ltpr"])),
        "elapsed_s": round(time.time() - t0, 1),
    }
    (workdir / "replication_result.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return summary
