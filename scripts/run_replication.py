#!/usr/bin/env python3
"""Directional replication of the three-variant comparison: cross-validate
baseline / multitask / multitask_icd over several seeds on 12-subject
phantom cohorts, score clean and GRE-artifact test sets, and count the
seeds where (a) the multi-task variant's lesion-wise FPR is at most the
baseline's and (b) the dropout-trained variant degrades less when a T2*
channel is zeroed at inference. Seeds where a compared run predicted no
lesion support neither claim and are counted apart."""

import argparse
import json

from clseg.experiments import icd_robustness_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="out/replication")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--iterations", type=int, default=400)
    ap.add_argument("--subjects", type=int, default=12)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    res = icd_robustness_experiment(
        args.workdir, seeds=tuple(args.seeds), iterations=args.iterations,
        n_subjects=args.subjects, k=args.k, n_workers=args.workers)
    print(json.dumps({k: v for k, v in res.items() if k != "per_seed"}, indent=2))
    n = len(res["seeds"])
    print(f"(a) multitask LFPR <= baseline LFPR in {res['multitask_lfpr_le_baseline']}/{n} "
          f"seeds; {res['multitask_lfpr_no_prediction']} without a prediction to compare")
    print(f"(b) ICD degradation <= multitask degradation in "
          f"{res['icd_degradation_le_multitask']}/{n} seeds; "
          f"{res['icd_degradation_no_prediction']} without a prediction to compare")


if __name__ == "__main__":
    main()
