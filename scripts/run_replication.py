#!/usr/bin/env python3
"""Directional replication of the three-variant comparison: cross-validate
baseline / multitask / multitask_icd over several seeds on 12-subject
phantom cohorts, score clean and GRE-artifact test sets, and count the
seeds where (a) the multi-task variant's lesion-wise FPR is at most the
baseline's and (b) the dropout-trained variant degrades less when a T2*
channel is zeroed at inference. Seeds where a compared run predicted no
lesion support neither claim and are counted apart. Each seed's test sets
are scored into <workdir>/seed_<s>/report/<clean|artifact_full|artifact_drop>/
(per-patient rows, size curves, Bland-Altman limits, Wilcoxon tests), and
the summary goes to <workdir>/replication_result.json. Invalid arguments
(a repeated seed, k outside [2, subjects]) exit 1 with one line on stderr
before anything is written."""

import argparse
import json
import sys

from clseg.config import ConfigError
from clseg.experiments import TEST_SETS, icd_robustness_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="out/replication")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--iterations", type=int, default=400)
    ap.add_argument("--subjects", type=int, default=12)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    try:
        res = icd_robustness_experiment(
            args.workdir, seeds=tuple(args.seeds), iterations=args.iterations,
            n_subjects=args.subjects, k=args.k, n_workers=args.workers)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({k: v for k, v in res.items() if k != "per_seed"}, indent=2))
    n = len(res["seeds"])
    print(f"(a) multitask LFPR <= baseline LFPR in {res['multitask_lfpr_le_baseline']}/{n} "
          f"seeds; {res['multitask_lfpr_no_prediction']} without a prediction to compare")
    print(f"(b) ICD degradation <= multitask degradation in "
          f"{res['icd_degradation_le_multitask']}/{n} seeds; "
          f"{res['icd_degradation_no_prediction']} without a prediction to compare")
    print(f"per-seed reports: {args.workdir}/seed_<s>/report/<{'|'.join(TEST_SETS)}>/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
