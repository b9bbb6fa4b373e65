import dataclasses
import json

import pytest

from clseg import experiments, pipeline
from clseg.blas import blas_threads
from clseg.cli import main
from clseg.config import VARIANTS, ConfigError
from clseg.evaluation import EvalConfig, pooled_row
from clseg.experiments import TEST_SETS, count_claims, icd_robustness_experiment, worker_pool

from conftest import tiny_replication_config


def _tiny_experiment(workdir, seeds):
    return icd_robustness_experiment(tiny_replication_config(), workdir, seeds, 2)


def _tree_bytes(root):
    """Every file under `root` by relative path."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_icd_robustness_experiment_tiny(tmp_path, monkeypatch):
    pools = []

    def counting_pool(n_workers):
        pools.append(n_workers)
        return worker_pool(n_workers)

    monkeypatch.setattr(experiments, "worker_pool", counting_pool)
    res = _tiny_experiment(tmp_path, (0, 1))
    assert pools == [2]  # one pool runs every seed's jobs
    assert [row["seed"] for row in res["per_seed"]] == [0, 1]
    # a seed's files do not depend on the seeds run beside it, nor on whether
    # `clseg replicate` runs the experiment
    path = tmp_path / "replication.json"
    path.write_text(json.dumps(tiny_replication_config().to_dict()), encoding="utf-8")
    assert main(["replicate", "--config", str(path), "--out", str(tmp_path / "alone"),
                 "--seeds", "1"]) == 0
    manifest = json.loads((tmp_path / "alone" / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["seeds"], manifest["exit_code"]) == \
        ("replicate", [1], 0)
    seed_1 = _tree_bytes(tmp_path / "seed_1")
    assert seed_1 == _tree_bytes(tmp_path / "alone" / "seed_1")
    assert {"cohort/cohort_manifest.json", "baseline/fold_1/loss.csv",
            "multitask_icd/pred_art_drop/subject_01/cl_prob.raw",
            "report/artifact_drop/report.json", "report/clean/wilcoxon.csv"} <= set(seed_1)

    # each seed's test sets are scored by run_report over the three variants;
    # the per_seed cells are its table1 rows, which pool its per-patient rows
    for row in res["per_seed"]:
        sdir = tmp_path / f"seed_{row['seed']}"
        for key, (pred, cohort, _) in TEST_SETS.items():
            report = json.loads((sdir / "report" / key / "report.json").read_text())
            assert sorted(report["models"]) == sorted(VARIANTS)
            for variant in VARIANTS:
                model = report["models"][variant]
                assert model["table1"] == pooled_row(pipeline.evaluate_predictions(
                    sdir / cohort, sdir / variant / pred, EvalConfig()))
                assert row["variants"][variant][key] == model["table1"]
                for count in ("n_ref", "n_detected", "n_pred", "n_fp"):
                    assert sum(p[count] for p in model["per_patient"]) == model["table1"][count]

    sdir = tmp_path / "seed_0"
    ids = pipeline.discover_subjects(sdir / "cohort")
    assert len(ids) == 2

    # every variant predicts every subject in all three test sets
    for variant in VARIANTS:
        for name, _, _ in TEST_SETS.values():
            pred_dir = sdir / variant / name
            assert sorted(d.name for d in pred_dir.iterdir()) == ids
            for sid in ids:
                for vol in pipeline.PREDICTION_NAMES:
                    assert (pred_dir / sid / f"{vol}.json").exists()

    # pooled reference counts cover the whole cohort (min size 6 == generated floor)
    totals = {cohort: json.loads((sdir / cohort / "cohort_manifest.json").read_text())
              ["total_lesions"] for cohort in ("cohort", "cohort_artifact")}
    for variant in VARIANTS:
        rows = res["per_seed"][0]["variants"][variant]
        assert rows["clean"]["n_ref"] == totals["cohort"]
        assert rows["artifact_full"]["n_ref"] == totals["cohort_artifact"]
        assert rows["artifact_drop"]["n_ref"] == totals["cohort_artifact"]
        assert set(rows["clean"]) >= {"ltpr", "lfpr", "avd", "accuracy", "n_pred", "n_fp"}

    # all variants hold out the same subjects per fold: fold i's checkpoint
    # reproduces the stored clean prediction of exactly its held-out subjects
    folds = pipeline.make_fold_split(ids, 2, 0)
    ckpt = "checkpoint_00000002"

    def predict(variant, fi, sid):
        out = tmp_path / "again" / variant / f"fold_{fi}" / sid
        pipeline.run_inference(sdir / variant / f"fold_{fi}" / ckpt, sdir / "cohort" / sid, out)
        return (out / "cl_prob.raw").read_bytes()

    def stored(variant, sid):
        return (sdir / variant / "pred_clean" / sid / "cl_prob.raw").read_bytes()

    for variant in VARIANTS:
        for fi, test_ids in enumerate(folds):
            for sid in test_ids:
                assert predict(variant, fi, sid) == stored(variant, sid), (variant, fi, sid)
    # and the other fold's network predicts differently, so the check can fail
    assert predict(VARIANTS[0], 1, folds[0][0]) != stored(VARIANTS[0], folds[0][0])


def _tiny_with(section, **changes):
    cfg = tiny_replication_config()
    return dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section),
                                                                    **changes)})


@pytest.mark.parametrize("cfg, seeds, n_workers", [
    (tiny_replication_config(), (0, 1, 0), 1),  # a seed's row would be counted twice
    (tiny_replication_config(xval_folds=1), (0, 1), 1),
    (tiny_replication_config(xval_folds=3), (0, 1), 1),  # more folds than subjects
    (_tiny_with("training", iterations=0), (0, 1), 1),
    (_tiny_with("network", input_patch=46), (0, 1), 1),
    (tiny_replication_config(), (0, 1), 0),
], ids=["repeated-seed", "k-1", "k-above-subjects", "no-iterations", "bad-patch", "no-workers"])
def test_bad_arguments_refused_before_anything_is_written(tmp_path, cfg, seeds, n_workers):
    # the configs are built unvalidated, so each is the function's own check
    with pytest.raises(ConfigError):
        icd_robustness_experiment(cfg, tmp_path / "work", seeds, n_workers)
    assert not (tmp_path / "work").exists()


def test_pool_workers_run_one_blas_thread():
    before = blas_threads()
    assert before is not None and before >= 1
    with worker_pool(2) as pool:
        assert [f.result() for f in [pool.submit(blas_threads) for _ in range(4)]] == [1] * 4
    assert blas_threads() == before


def _seed_row(baseline_clean, multitask_clean, multitask_drop, icd_drop):
    """A per_seed row. The clean runs of the baseline and multitask are given
    as (lfpr, n_pred), the artifact runs of multitask and multitask_icd as
    (ltpr without the drop, ltpr with a T2* channel dropped, n_pred with it)."""
    def run(ltpr, lfpr, n_pred):
        return {"ltpr": ltpr, "lfpr": lfpr, "n_pred": n_pred}

    def variant(clean, drop):
        full_ltpr, drop_ltpr, drop_n_pred = drop
        return {"clean": run(0.5, *clean), "artifact_full": run(full_ltpr, 0.2, 5),
                "artifact_drop": run(drop_ltpr, 0.2, drop_n_pred)}

    return {"variants": {"baseline": variant(baseline_clean, (0.5, 0.5, 5)),
                         "multitask": variant(multitask_clean, multitask_drop),
                         "multitask_icd": variant((0.3, 5), icd_drop)}}


def test_count_claims_sets_empty_predictions_apart():
    per_seed = [
        # both claims hold
        _seed_row((0.4, 5), (0.3, 5), (0.8, 0.4, 5), (0.8, 0.6, 5)),
        # both fail
        _seed_row((0.2, 5), (0.3, 5), (0.8, 0.7, 5), (0.8, 0.4, 5)),
        # multitask predicts nothing on clean (LFPR 0 by convention) and
        # multitask_icd nothing with the channel dropped (LTPR 0): neither is
        # a win, however the numbers compare
        _seed_row((0.4, 5), (0.0, 0), (0.8, 0.4, 5), (0.0, 0.0, 0)),
        # the baseline predicts nothing on clean; multitask nothing when dropped
        _seed_row((0.0, 0), (0.3, 5), (0.0, 0.0, 0), (0.8, 0.6, 5)),
    ]
    assert count_claims(per_seed) == {
        "multitask_lfpr_le_baseline": 1, "multitask_lfpr_no_prediction": 2,
        "icd_degradation_le_multitask": 1, "icd_degradation_no_prediction": 2,
    }
