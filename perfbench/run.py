"""Outside-in benchmark of clseg: one workload per run.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the package is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs the session once untraced and once with the
per-layer wrappers of `tracer.py`, checks that both give byte-identical
`loss.csv` and predictions, and reports the per-layer metrics. Either way
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A record with the
environment and every check goes to `.perfbench_work/results/`.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train_desk", "train_paper", "infer_subject")
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="shrink the workload to run in seconds (smoke test)")
    return ap.parse_args(argv)


def blas_threads() -> int:
    """One process with one caller: BLAS may use every core, no more."""
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def traced(w, args, work: Path, ledger):
    """Untraced then traced session; per-layer metrics of the traced one."""
    from checks import check_session
    from tracer import Tracer
    from workloads import run_session, toy

    # the first session of a process pays one-off costs; keep them out of both
    run_session(toy(w), args.seed, 1.0, work / "warmup", n_setups=1)
    plain = run_session(w, args.seed, args.seconds, work / "plain", n_setups=1)
    tracer = Tracer()
    tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    try:
        with tracer.root():
            trac = run_session(w, args.seed, args.seconds, work / "traced", n_setups=1)
    finally:
        tracer.uninstall()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    user, system = ru1.ru_utime - ru0.ru_utime, ru1.ru_stime - ru0.ru_stime

    check_session(ledger, plain, w)
    for a, b in zip(plain.loss_logs, trac.loss_logs):
        ledger.record(same_bytes(a, b), "loss.csv differs with the tracer installed")
    for sid in plain.infer_s:
        ledger.record(all(same_bytes(plain.pred_dir / sid / f"{n}.raw",
                                     trac.pred_dir / sid / f"{n}.raw")
                          for n in ("cl_pred", "tissue_pred", "cl_prob")),
                      f"subject {sid}: predictions differ with the tracer installed")
    out = tracer.metrics()
    out["proc.cpu_util"] = ((user + system) / trac.wall_s, "ratio")
    return out, {"untraced": plain.samples(), "traced": trac.samples()}


def untraced(w, args, work: Path, ledger):
    from checks import check_session
    from workloads import run_session

    session = run_session(w, args.seed, args.seconds, work,
                          n_setups=1 if args.toy else SETUP_REPEATS)
    session.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check_session(ledger, session, w)
    return session.end_to_end(), session.samples()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "clseg" / "__init__.py").is_file():
        print(f"perfbench: no clseg source at {ROOT / 'src' / 'clseg'}; "
              "run from the root of a clseg source tree", file=sys.stderr)
        return 2
    # fixed before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads())
    sys.path.insert(0, str(ROOT / "src"))
    import clseg
    if Path(clseg.__file__).resolve().parent != ROOT / "src" / "clseg":
        print(f"perfbench: clseg imported from {clseg.__file__}, not from this tree",
              file=sys.stderr)
        return 2

    from checks import Ledger
    from workloads import WORKLOADS, toy

    w = WORKLOADS[args.workload]
    if args.toy:
        w = toy(w)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    ledger = Ledger()
    try:
        metrics, raw = (traced if args.trace else untraced)(w, args, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(ROOT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "plan": w.plan(args.seconds),
              "environment": env, "failures": ledger.notes, "checks": ledger.details,
              "samples": raw,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    iterations, subjects = w.plan(args.seconds)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {iterations}  held-out subjects {subjects}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:14.6g} {unit}")
    print(f"  {'failed_ops_frac':<40s} {ledger.failed / ledger.attempted:14.6g} frac "
          f"({ledger.failed}/{ledger.attempted})")
    for note in ledger.notes:
        print(f"  FAILED: {note}")
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
