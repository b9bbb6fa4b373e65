"""Command-line entry points: phantom | train | infer | xval | report.

Exit codes: 0 success, 1 usage/config error, 2 data error (including an
output that cannot be created or written), 3 numerical failure. phantom
writes the cohort to paths.cohort_dir and takes no --out. The other
commands' outputs land under the out directory together with a
run-manifest JSON recording the config hash, package version and
environment (numpy and scipy versions, usable cores, BLAS threads); infer
writes its outputs and manifest to <out>/<subject>/, naming the subject
directory and checkpoint. Train, infer and xval rewrite the manifest when
they finish, adding the wall time and the peak resident set size.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from .config import VARIANTS, ConfigError, RunConfig, load_config
from .layers import ContractError, NonFiniteError
from .phantom import PhantomError, generate_cohort
from .pipeline import run_inference, run_report, run_training, run_xval, write_run_manifest
from .sampling import CohortError
from .unet import DROPPABLE_CHANNELS, CheckpointError
from .volume_io import VolumeError, check_cohort


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

    sp = sub.add_parser("xval", help="k-fold cross-validation with a pooled report")
    common(sp)
    sp.add_argument("--k", type=int, help="number of folds (default config.xval_folds)")

    sp = sub.add_parser("report", help="evaluate prediction dirs against the cohort")
    common(sp)
    sp.add_argument("--pred", action="append", default=[], metavar="NAME=DIR",
                    help="prediction directory per variant; repeatable")
    return p


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.variant:
        cfg = cfg.apply_variant(args.variant)
    if args.seed is not None:
        cfg = cfg.with_master_seed(args.seed)
    if getattr(args, "out", None):
        cfg = dataclasses.replace(cfg, paths=dataclasses.replace(cfg.paths, out_dir=args.out))
    return cfg.validate()


def _cmd_phantom(args) -> int:
    cfg = _load(args)
    spec = cfg.phantom
    n = args.n_subjects if args.n_subjects is not None else spec.n_subjects
    if n < 1:
        raise _UsageError("--n-subjects must be >= 1")
    out = Path(cfg.paths.cohort_dir)
    generate_cohort(spec, n, out, seed=spec.seed)
    manifest = check_cohort([out / f"subject_{i:02d}" for i in range(n)])
    print(json.dumps(manifest.to_dict(), indent=2))
    return 0


def _cmd_train(args) -> int:
    started = time.perf_counter()
    cfg = _load(args)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(out, cfg, "train")
    ckpt = run_training(cfg, out, resume=not args.no_resume)
    write_run_manifest(out, cfg, "train", started)
    print(f"final checkpoint: {ckpt}")
    return 0


def _cmd_infer(args) -> int:
    started = time.perf_counter()
    cfg = _load(args)
    subject = Path(args.subject)
    out = Path(cfg.paths.out_dir) / subject.name
    out.mkdir(parents=True, exist_ok=True)
    inputs = {"subject_dir": str(subject.resolve()),
              "checkpoint": str(Path(args.checkpoint).resolve())}
    write_run_manifest(out, cfg, "infer", **inputs)
    written, tiling = run_inference(args.checkpoint, subject, out,
                                    drop_channel=args.drop_channel)
    write_run_manifest(out, cfg, "infer", started, **inputs, **tiling)
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


def _cmd_xval(args) -> int:
    started = time.perf_counter()
    cfg = _load(args)
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(out, cfg, "xval")
    report = run_xval(cfg, out, k=args.k)
    write_run_manifest(out, cfg, "xval", started)
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
        pred_dirs[name] = pdir
    if not pred_dirs:
        raise _UsageError("report needs at least one --pred NAME=DIR")
    out = Path(cfg.paths.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_manifest(out, cfg, "report")
    report = run_report(cfg.paths.cohort_dir, pred_dirs, out, cfg.eval)
    for name in sorted(report["models"]):
        row = report["models"][name]["table1"]
        print(f"{name}: LTPR={row['ltpr']:.3f} LFPR={row['lfpr']:.3f}")
    return 0


_COMMANDS = {
    "phantom": _cmd_phantom,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "xval": _cmd_xval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (VolumeError, PhantomError, CheckpointError, CohortError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (NonFiniteError,) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:  # creating or writing outputs
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
