"""Desk-scale replication experiment.

One experiment backs the end-to-end claims: icd_robustness_experiment,
k-fold cross-validation of all three model variants over several seeds on
generated phantom cohorts, scored on a clean test set plus an artifact twin
(GRE missing chunk at test time, with and without zeroing a T2* channel at
inference). It reports directional comparisons: the multi-task variant's
lesion-wise FPR against the baseline's, and the dropout-trained variant's
LTPR degradation under channel loss against the plain multi-task one. Its
entry point is `clseg replicate --config configs/replication.json`; the
config sets the network, sampler, training, phantom and k (xval_folds).

Fold splits and job configs are built and the arguments checked first, so
a bad argument is refused before anything is written. Then every seed's
cohorts are generated, and every (seed, variant, fold) job runs
`pipeline.run_fold` in one pool of one-BLAS-thread workers, so no core
idles while a seed's last jobs finish; all variants of a seed share its
fold split. Each seed's test sets are scored by `pipeline.run_report` into
seed_<s>/report/<clean|artifact_full|artifact_drop>/, whose table1 rows
make its per_seed cells. Results are byte-deterministic in (config, seeds)
at fixed BLAS threads: the workers' training depends on their count,
though inference from a given checkpoint does not.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .blas import set_blas_threads
from .config import VARIANTS, ConfigError, PathsConfig, RunConfig
from .phantom import cohort_subject_ids, generate_cohort
from .pipeline import derive_seed, make_fold_split, run_fold, run_report
from .volume_io import write_json

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


def icd_robustness_experiment(cfg: RunConfig, workdir: str | Path, seeds,
                              n_workers: int) -> dict:
    """Cross-validated three-variant comparison over seeds; see module doc.
    Each (seed, variant) trains `cfg.apply_variant(variant)` with its
    training and sampler seeds set to derive_seed(seed, variant index)."""
    workdir = Path(workdir)
    t0 = time.time()
    if len(set(seeds)) != len(seeds) or min(seeds, default=0) < 0:
        raise ConfigError(f"seeds {list(seeds)} must be distinct and >= 0")
    if n_workers < 1:
        raise ConfigError(f"workers must be >= 1, got {n_workers}")
    n_subjects = cfg.phantom.n_subjects
    ids = cohort_subject_ids(n_subjects)
    sdirs = {seed: workdir / f"seed_{seed}" for seed in seeds}
    jobs = []  # run_fold's arguments per (seed, variant, fold)
    for seed, sdir in sdirs.items():
        folds = make_fold_split(ids, cfg.xval_folds, seed)
        test_sets = {pred: (sdir / cohort, drop) for pred, cohort, drop in TEST_SETS.values()}
        for vi, variant in enumerate(VARIANTS):
            vdir = sdir / variant
            job_cfg = dataclasses.replace(
                cfg.with_master_seed(derive_seed(seed, vi)).apply_variant(variant),
                paths=PathsConfig(cohort_dir=str(sdir / "cohort"), out_dir=str(vdir)),
            ).validate()
            for fi, test_ids in enumerate(folds):
                train_ids = sorted(set(ids) - set(test_ids))
                jobs.append((job_cfg, fi, train_ids, test_ids, vdir, test_sets))

    with worker_pool(n_workers) as pool:
        for seed, sdir in sdirs.items():
            generate_cohort(cfg.phantom, n_subjects, sdir / "cohort", seed=seed)
            # artifact twin: identical geometry/labels, GRE chunk zeroed at test
            generate_cohort(dataclasses.replace(cfg.phantom, gre_missing_chunk=True),
                            n_subjects, sdir / "cohort_artifact", seed=seed)
        for job in [pool.submit(run_fold, *args) for args in jobs]:
            job.result()

    per_seed = []
    for seed, sdir in sdirs.items():
        reports = {
            key: run_report(sdir / cohort, {v: sdir / v / pred for v in VARIANTS},
                            sdir / "report" / key, cfg.eval)["models"]
            for key, (pred, cohort, _) in TEST_SETS.items()
        }
        per_seed.append({"seed": seed, "variants": {
            v: {key: models[v]["table1"] for key, models in reports.items()} for v in VARIANTS}})

    summary = {
        "seeds": list(seeds),
        "iterations": cfg.training.iterations,
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
