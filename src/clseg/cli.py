"""Command-line entry points: phantom | train | infer | xval | report | replicate.

Exit codes: 0 success, 1 usage/config error, 2 data error (including an
output that cannot be created or written), 3 numerical failure. phantom
writes the cohort to paths.cohort_dir and takes no --out. The other
commands' outputs land under the out directory together with a
run-manifest JSON recording the config hash, package version and
environment (numpy and scipy versions, usable cores, BLAS threads); infer
writes its outputs and manifest to <out>/<subject>/, naming the subject
directory and checkpoint, and the padded shape, forward calls and height
slices of its pass (pipeline.run_inference). replicate runs the
three-variant replication (`clseg replicate --config
configs/replication.json`) over --seeds in a pool of --workers processes.
Each rewrites its manifest when it ends, whether it succeeded or failed,
adding the wall time, the peak resident set size and `exit_code`, the
process's exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

from .config import VARIANTS, ConfigError, RunConfig, load_config
from .experiments import TEST_SETS, icd_robustness_experiment
from .layers import ContractError, NonFiniteError
from .phantom import PhantomError, cohort_subject_ids, generate_cohort
from .pipeline import (LossLogError, check_cohort, run_inference, run_report, run_training,
                       run_xval, write_run_manifest)
from .sampling import CohortError
from .unet import DROPPABLE_CHANNELS, CheckpointError
from .volume_io import VolumeError


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="clseg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=True):
        sp.add_argument("--config", required=True, help="run config JSON")
        sp.add_argument("--seed", type=int, help="override every seed (training/sampler/phantom)")
        if out:
            sp.add_argument("--out", help="override paths.out_dir")
        sp.add_argument("--variant", choices=VARIANTS,
                        help="override the model variant (rewires icd/tissue head)")

    sp = sub.add_parser("phantom", help="generate a synthetic cohort into paths.cohort_dir")
    common(sp, out=False)
    sp.add_argument("--n-subjects", type=int, help="override phantom.n_subjects")

    sp = sub.add_parser("train", help="train on the configured cohort")
    common(sp)
    sp.add_argument("--no-resume", action="store_true", help="ignore existing checkpoints")

    sp = sub.add_parser("infer", help="predict one subject from a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--subject", required=True, help="subject directory")
    sp.add_argument("--drop-channel", choices=DROPPABLE_CHANNELS,
                    help="zero one T2* channel before inference")

    sp = sub.add_parser("xval", help="k-fold cross-validation (k = config xval_folds) "
                                     "with a pooled report")
    common(sp)

    sp = sub.add_parser("report", help="evaluate prediction dirs against the cohort")
    common(sp)
    sp.add_argument("--pred", action="append", default=[], metavar="NAME=DIR",
                    help="prediction directory per variant; repeatable")

    sp = sub.add_parser("replicate", help="cross-validate every variant over seeds on "
                                          "generated cohorts and count the paper's claims")
    sp.add_argument("--config", required=True, help="run config JSON")
    sp.add_argument("--out", help="override paths.out_dir")
    sp.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                    help="one cohort pair and fold split per seed")
    sp.add_argument("--workers", type=int, default=2, help="training processes")
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "variant", None):
        cfg = cfg.apply_variant(args.variant)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_master_seed(args.seed)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, paths=dataclasses.replace(cfg.paths, out_dir=args.out))
    return cfg.validate()


# The exceptions reported in one line, matched in this order, with the exit
# code and message prefix of each
_FAILURES = (
    (ConfigError, 1, "error"),
    ((VolumeError, PhantomError, CheckpointError, CohortError, LossLogError), 2, "data error"),
    (NonFiniteError, 3, "numerical failure"),
    (ContractError, 1, "error"),
    (OSError, 2, "data error"),  # creating or writing outputs
)


def _failure(e: Exception) -> tuple[int, str | None]:
    """(exit code, message prefix) of `e`. The prefix is None for an
    exception of none of _FAILURES' classes, which ends the process with a
    traceback and exit code 1."""
    for types, code, prefix in _FAILURES:
        if isinstance(e, types):
            return code, prefix
    return 1, None


@contextlib.contextmanager
def _run_manifest(out: Path, cfg: RunConfig, command: str, **inputs):
    """Creates `out` and writes its run manifest, then rewrites it when the
    block ends, normally or by an exception, with the wall time, peak RSS
    and exit code. The block may add to the dict it is given inputs that it
    learns as it runs."""
    started = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(out, cfg, command, **inputs)
    learned = {}
    try:
        yield learned
    except Exception as e:
        write_run_manifest(out, cfg, command, started, _failure(e)[0], **inputs, **learned)
        raise
    write_run_manifest(out, cfg, command, started, 0, **inputs, **learned)


def _cmd_phantom(args) -> int:
    cfg = _load(args)
    spec = cfg.phantom
    n = args.n_subjects if args.n_subjects is not None else spec.n_subjects
    if n < 1:
        raise _UsageError("--n-subjects must be >= 1")
    out = Path(cfg.paths.cohort_dir)
    generate_cohort(spec, n, out, seed=spec.seed)
    print(json.dumps(check_cohort([out / sid for sid in cohort_subject_ids(n)]), indent=2))
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    out = Path(cfg.paths.out_dir)
    with _run_manifest(out, cfg, "train"):
        ckpt = run_training(cfg, out, resume=not args.no_resume)
    print(f"final checkpoint: {ckpt}")
    return 0


def _cmd_infer(args) -> int:
    cfg = _load(args)
    subject = Path(args.subject)
    out = Path(cfg.paths.out_dir) / subject.name
    with _run_manifest(out, cfg, "infer", subject_dir=str(subject.resolve()),
                       checkpoint=str(Path(args.checkpoint).resolve())) as learned:
        written, run = run_inference(args.checkpoint, subject, out,
                                     drop_channel=args.drop_channel)
        learned.update(run)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def _cmd_xval(args) -> int:
    cfg = _load(args)
    out = Path(cfg.paths.out_dir)
    with _run_manifest(out, cfg, "xval"):
        report = run_xval(cfg, out)
    row = report["models"][cfg.variant]["table1"]
    print(f"{cfg.variant}: LTPR={row['ltpr']:.3f} LFPR={row['lfpr']:.3f} "
          f"AVD={row['avd'] if row['avd'] is not None else 'n/a'} "
          f"Accuracy={row['accuracy']:.3f}")
    return 0


def _cmd_report(args) -> int:
    cfg = _load(args)
    pred_dirs = {}
    for item in args.pred:
        if "=" not in item:
            raise _UsageError(f"--pred expects NAME=DIR, got {item!r}")
        name, pdir = item.split("=", 1)
        if name in pred_dirs:
            raise _UsageError(f"--pred {name} given twice")
        pred_dirs[name] = pdir
    if not pred_dirs:
        raise _UsageError("report needs at least one --pred NAME=DIR")
    out = Path(cfg.paths.out_dir)
    with _run_manifest(out, cfg, "report"):
        report = run_report(cfg.paths.cohort_dir, pred_dirs, out, cfg.eval)
    for name in sorted(report["models"]):
        row = report["models"][name]["table1"]
        print(f"{name}: LTPR={row['ltpr']:.3f} LFPR={row['lfpr']:.3f}")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load(args)
    out = Path(cfg.paths.out_dir)
    with _run_manifest(out, cfg, "replicate", seeds=args.seeds, workers=args.workers):
        res = icd_robustness_experiment(cfg, out, args.seeds, args.workers)
    n = len(res["seeds"])
    print(f"(a) multitask LFPR <= baseline LFPR in {res['multitask_lfpr_le_baseline']}/{n} "
          f"seeds; {res['multitask_lfpr_no_prediction']} without a prediction to compare")
    print(f"(b) ICD degradation <= multitask degradation in "
          f"{res['icd_degradation_le_multitask']}/{n} seeds; "
          f"{res['icd_degradation_no_prediction']} without a prediction to compare")
    print(f"summary: {out / 'replication_result.json'}")
    print(f"per-seed reports: {out}/seed_<s>/report/<{'|'.join(TEST_SETS)}>/")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "xval": _cmd_xval,
    "report": _cmd_report,
    "replicate": _cmd_replicate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except Exception as e:
        code, prefix = _failure(e)
        if prefix is None:
            raise
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
