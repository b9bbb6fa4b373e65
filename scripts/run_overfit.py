#!/usr/bin/env python3
"""Train the multitask_icd variant on a tiny phantom cohort and score it
lesion-wise on its own training subjects; prints the result JSON.

This is a sanity check of the training loop, not a proof of convergence:
at the defaults (2000 iterations, seed 7, 2 subjects, C=4, 48^3 patch) it detects
about a quarter of the training lesions (LTPR 0.27, LFPR 0.33)."""

import argparse
import json

from clseg.experiments import overfit_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", default="out/overfit")
    ap.add_argument("--iterations", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--subjects", type=int, default=2)
    ap.add_argument("--base-channels", type=int, default=4)
    ap.add_argument("--input-patch", type=int, default=48)
    args = ap.parse_args()
    res = overfit_experiment(
        args.workdir, iterations=args.iterations, seed=args.seed,
        n_subjects=args.subjects, base_channels=args.base_channels,
        input_patch=args.input_patch)
    print(json.dumps(res, indent=2))


if __name__ == "__main__":
    main()
