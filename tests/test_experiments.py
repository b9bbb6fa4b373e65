import json

from clseg import pipeline
from clseg.config import VARIANTS
from clseg.experiments import blas_threads, icd_robustness_experiment, worker_pool

from conftest import TINY_SPEC

TEST_SETS = ("pred_clean", "pred_art_full", "pred_art_drop")


def test_icd_robustness_experiment_tiny(tmp_path):
    res = icd_robustness_experiment(tmp_path, seeds=(0,), iterations=2, n_subjects=2, k=2,
                                    phantom=TINY_SPEC, base_channels=2, input_patch=44,
                                    n_workers=2)
    sdir = tmp_path / "seed_0"
    ids = pipeline.discover_subjects(sdir / "cohort")
    assert len(ids) == 2

    # every variant predicts every subject in all three test sets
    for variant in VARIANTS:
        for name in TEST_SETS:
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


def test_pool_workers_run_one_blas_thread():
    before = blas_threads()
    assert before is not None and before >= 1
    with worker_pool(2) as pool:
        assert [f.result() for f in [pool.submit(blas_threads) for _ in range(4)]] == [1] * 4
    assert blas_threads() == before
