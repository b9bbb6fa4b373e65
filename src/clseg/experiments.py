"""Desk-scale replication experiment.

One experiment backs the end-to-end claims: icd_robustness_experiment,
3-fold cross-validation of all three model variants over several seeds on
a 12-subject cohort, scored on a clean test set plus an artifact twin (GRE
missing chunk at test time, with and without zeroing a T2* channel at
inference). It reports directional comparisons: the multi-task variant's
lesion-wise FPR against the baseline's, and the dropout-trained variant's
LTPR degradation under channel loss against the plain multi-task one.

Fold splits, job configs and the worker pool are built first, so a bad
argument is refused before anything is written. Then every seed's cohorts
are generated, and every (seed, variant, fold) job runs `pipeline.run_fold`
in one pool of one-BLAS-thread workers, so no core idles while a seed's
last jobs finish; all variants of a seed share its fold split. Each seed's
test sets are scored by `pipeline.run_report` into seed_<s>/report/<clean|
artifact_full|artifact_drop>/, whose table1 rows make its per_seed cells.
Results are byte-deterministic in (config, seeds) at fixed BLAS threads.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .blas import set_blas_threads
from .config import VARIANTS, ConfigError, RunConfig
from .evaluation import EvalConfig
from .phantom import PhantomSpec, cohort_subject_ids, generate_cohort
from .pipeline import derive_seed, make_fold_split, run_fold, run_report
from .sampling import SamplerConfig
from .unet import NetworkConfig
from .volume_io import write_json

DESK_PHANTOM = PhantomSpec(
    side_voxels=56,
    cortex_thickness_voxels=5,
    lesion_counts=(4, 1, 5, 1),
    lesion_size_range=(6, 80),
    wml_count=2,
)

# per_seed key -> (prediction directory, cohort, channel zeroed at inference)
TEST_SETS = {
    "clean": ("pred_clean", "cohort", None),
    "artifact_full": ("pred_art_full", "cohort_artifact", None),
    "artifact_drop": ("pred_art_drop", "cohort_artifact", "t2s_gre"),
}


def worker_pool(n_workers: int) -> ProcessPoolExecutor:
    """A process pool whose workers each run numpy's OpenBLAS at one thread."""
    return ProcessPoolExecutor(max_workers=n_workers, initializer=set_blas_threads,
                               initargs=(1,))


def _desk_config(cohort_dir, out_dir, variant, iterations, seed,
                 base_channels=4, input_patch=48, learning_rate=1e-3) -> RunConfig:
    return RunConfig(
        variant="multitask_icd",
        network=NetworkConfig(base_channels=base_channels, input_patch=input_patch),
        sampler=SamplerConfig(jitter_voxels=4, rotation_max_deg=180.0,
                              icd_probability=0.5, seed=seed),
        training=dataclasses.replace(
            RunConfig().training, iterations=iterations,
            checkpoint_every=max(1, iterations), learning_rate=learning_rate, seed=seed),
        paths=dataclasses.replace(RunConfig().paths, cohort_dir=str(cohort_dir),
                                  out_dir=str(out_dir)),
    ).apply_variant(variant).validate()


def icd_robustness_experiment(workdir: str | Path, seeds=(0, 1, 2),
                              iterations: int = 400, n_subjects: int = 12,
                              k: int = 3, phantom: PhantomSpec = DESK_PHANTOM,
                              base_channels: int = 4, input_patch: int = 48,
                              learning_rate: float = 1e-3,
                              n_workers: int = 2) -> dict:
    """Cross-validated three-variant comparison over seeds; see module doc."""
    workdir = Path(workdir)
    t0 = time.time()
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds {list(seeds)} repeat a seed")
    ids = cohort_subject_ids(n_subjects)
    sdirs = {seed: workdir / f"seed_{seed}" for seed in seeds}
    jobs = []  # run_fold's arguments per (seed, variant, fold)
    for seed, sdir in sdirs.items():
        folds = make_fold_split(ids, k, seed)
        test_sets = {pred: (sdir / cohort, drop) for pred, cohort, drop in TEST_SETS.values()}
        for vi, variant in enumerate(VARIANTS):
            vdir = sdir / variant
            cfg = _desk_config(sdir / "cohort", vdir, variant, iterations,
                               derive_seed(seed, vi),
                               base_channels=base_channels, input_patch=input_patch,
                               learning_rate=learning_rate)
            for fi, test_ids in enumerate(folds):
                train_ids = sorted(set(ids) - set(test_ids))
                jobs.append((cfg, fi, train_ids, test_ids, vdir, test_sets))

    with worker_pool(n_workers) as pool:
        for seed, sdir in sdirs.items():
            generate_cohort(phantom, n_subjects, sdir / "cohort", seed=seed)
            # artifact twin: identical geometry/labels, GRE chunk zeroed at test
            generate_cohort(dataclasses.replace(phantom, gre_missing_chunk=True),
                            n_subjects, sdir / "cohort_artifact", seed=seed)
        for job in [pool.submit(run_fold, *args) for args in jobs]:
            job.result()

    per_seed = []
    for seed, sdir in sdirs.items():
        reports = {
            key: run_report(sdir / cohort, {v: sdir / v / pred for v in VARIANTS},
                            sdir / "report" / key, EvalConfig())["models"]
            for key, (pred, cohort, _) in TEST_SETS.items()
        }
        per_seed.append({"seed": seed, "variants": {
            v: {key: models[v]["table1"] for key, models in reports.items()} for v in VARIANTS}})

    summary = {
        "seeds": list(seeds),
        "iterations": iterations,
        "per_seed": per_seed,
        **count_claims(per_seed),
        "elapsed_s": round(time.time() - t0, 1),
    }
    write_json(workdir / "replication_result.json", summary)
    return summary


def count_claims(per_seed: list[dict]) -> dict:
    """Per claim, the seeds that support it: (a) multitask's clean LFPR <= the
    baseline's; (b) multitask_icd's artifact-set LTPR drop when a T2* channel
    is zeroed <= multitask's. A run predicting nothing reads LFPR 0 and LTPR
    0 by convention, so a seed with such a compared run counts under the
    claim's *_no_prediction key, not as support."""
    def count(runs, holds):
        scored = [row["variants"] for row in per_seed
                  if all(row["variants"][m][s]["n_pred"] for m, s in runs)]
        return sum(1 for v in scored if holds(v)), len(per_seed) - len(scored)

    def degradation(v, variant):
        return v[variant]["artifact_full"]["ltpr"] - v[variant]["artifact_drop"]["ltpr"]

    a, a_none = count([("multitask", "clean"), ("baseline", "clean")],
                      lambda v: v["multitask"]["clean"]["lfpr"] <= v["baseline"]["clean"]["lfpr"])
    b, b_none = count([(m, s) for m in ("multitask_icd", "multitask")
                       for s in ("artifact_full", "artifact_drop")],
                      lambda v: degradation(v, "multitask_icd") <= degradation(v, "multitask"))
    return {"multitask_lfpr_le_baseline": a, "multitask_lfpr_no_prediction": a_none,
            "icd_degradation_le_multitask": b, "icd_degradation_no_prediction": b_none}
