"""Workloads of the clseg benchmark and the session each run executes.

Every workload is a closed loop: one process, one caller, the program's
public pipeline functions called in sequence. A session is set-up (phantom
cohorts written to disk and loaded back, plus the checkpoint training on
`infer_subject`), a training phase, an inference phase over held-out
subjects and their evaluation. The workload decides which phase gets the
run's time budget; the other phase is kept small but still runs, so every
end-to-end metric is measured on every workload.

The amount of work is fixed by (workload, --seconds), never by the clock:
the iteration and subject counts come from nominal per-operation times
measured when the benchmark was written (2-vCPU Xeon VM, numpy path). The
same seed and seconds therefore give the same work, the same `loss.csv`
and the same predictions on every commit, and a faster commit simply
finishes sooner.

Training runs as a few resumed `run_training` calls, each checkpointing at
its end, so that a run yields several throughput samples and reports their
median: on a shared 2-vCPU VM a step slows down by 10-30% for seconds at a
time, and one aggregate over the whole phase would carry every such
slowdown. Resuming reproduces the uninterrupted `loss.csv` byte for byte.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from clseg import config, phantom, pipeline

# Per-run seeds drive the cohorts only; the run config (network init,
# sampler stream) is part of the workload definition, as in a config file.
# The learning rate is the config default (1e-4): with it the train_desk
# loss tail differs by ~6% between cohort seeds, at the desk experiments'
# 1e-3 by ~10%.
CONFIG_SEED = 0
MIN_ITERATIONS = 4
# Checkpoint training in the set-up of the inference workload.
SETUP_ITERATIONS = 8
# Held-out subjects of the training workloads: three, so that their
# inference time is a median, not one sample taken at one moment.
TRAIN_HELDOUT = 3
TRAIN_CHUNKS = 5

DESK_PHANTOM = {"side_voxels": 56, "cortex_thickness_voxels": 5,
                "lesion_counts": [4, 1, 5, 1], "lesion_size_range": [6, 80],
                "wml_count": 2}
PAPER_PHANTOM = {"side_voxels": 96}     # the PhantomSpec defaults are the paper scale
TOY_PHANTOM = {"side_voxels": 32, "cortex_thickness_voxels": 4,
               "lesion_counts": [1, 0, 1, 0], "lesion_size_range": [6, 30],
               "wml_count": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    measured: str                 # "train" or "infer": the phase given the time budget
    base_channels: int
    input_patch: int
    n_train_subjects: int
    train_phantom: dict
    heldout_phantom: dict
    op_s: float                   # nominal seconds per measured operation
    # How far below ln 3 the loss tail must lie (checks.check_learning):
    # about a third of the smallest drop seen over 50-60 cohort seeds. A run
    # that never updates its parameters logs ln 3 to within 1e-6.
    learn_margin: float

    def plan(self, seconds: float) -> tuple[int, int]:
        """(training iterations, held-out subjects) for a run of `seconds`."""
        n_ops = max(1, round(seconds / self.op_s))
        if self.measured == "train":
            return max(MIN_ITERATIONS, n_ops), TRAIN_HELDOUT
        return SETUP_ITERATIONS, n_ops

    def run_config(self, cohort_dir: Path, out_dir: Path, iterations: int,
                   checkpoint_every: int) -> config.RunConfig:
        return config.config_from_dict({
            "variant": "multitask_icd",
            "network": {"base_channels": self.base_channels, "input_patch": self.input_patch},
            "sampler": {"rotation_max_deg": 180.0, "jitter_voxels": 4,
                        "icd_probability": 0.5, "seed": CONFIG_SEED},
            "training": {"iterations": iterations, "checkpoint_every": checkpoint_every,
                         "batch_size": 1, "seed": CONFIG_SEED},
            "paths": {"cohort_dir": str(cohort_dir), "out_dir": str(out_dir)},
        })

    def train_spec(self) -> phantom.PhantomSpec:
        return config.config_from_dict({"phantom": self.train_phantom}).phantom

    def heldout_spec(self) -> phantom.PhantomSpec:
        return config.config_from_dict({"phantom": self.heldout_phantom}).phantom


WORKLOADS = {w.name: w for w in (
    # why each workload exists: perfbench/README.md and BENCHMARK.json
    Workload("train_desk", "train", 4, 48, 3, DESK_PHANTOM, DESK_PHANTOM, op_s=0.25,
             learn_margin=0.025),
    Workload("train_paper", "train", 16, 68, 2, PAPER_PHANTOM, DESK_PHANTOM, op_s=2.9,
             learn_margin=0.006),
    Workload("infer_subject", "infer", 4, 48, 2, DESK_PHANTOM, PAPER_PHANTOM, op_s=12.8,
             learn_margin=0.0003),
)}


def toy(w: Workload) -> Workload:
    """The same workload shrunk to run in about a second, for the smoke test."""
    return dataclasses.replace(w, base_channels=2, input_patch=44, n_train_subjects=1,
                               train_phantom=TOY_PHANTOM, heldout_phantom=TOY_PHANTOM,
                               op_s=1.0, learn_margin=5e-5)


@dataclass
class Session:
    """Timings and output locations of one session."""
    iterations: int
    train_cohort: Path = None
    heldout_dir: Path = None
    pred_dir: Path = None
    checkpoint: Path = None
    setup_s: list = dataclasses.field(default_factory=list)
    train_rates: list = dataclasses.field(default_factory=list)  # it/s per resumed chunk
    loss_logs: list = dataclasses.field(default_factory=list)
    infer_s: dict = dataclasses.field(default_factory=dict)      # subject id -> wall time
    patients: list = dataclasses.field(default_factory=list)
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "train_it_per_s": (statistics.median(self.train_rates), "1/s"),
            "train_loss_tail": (loss_tail(self.loss_logs[-1], self.iterations), "nat"),
            "infer_s_per_subject": (statistics.median(self.infer_s.values()), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
        }

    def samples(self) -> dict:
        """The raw timings behind the medians, for the run record."""
        return {"setup_s": self.setup_s, "train_it_per_s": self.train_rates,
                "infer_s": self.infer_s, "session_wall_s": self.wall_s}


def loss_tail(path: Path, iterations: int) -> float:
    """Mean total_loss over the last half of the iterations, and over at
    least the last 8. One patch's loss swings by a factor of two with its
    lesion content, so a shorter tail depends on which patches the cohort
    gives: over the last quarter the desk value differs by ~10% between
    cohort seeds, over the last half by ~7%."""
    n = min(iterations, max(iterations // 2, 8))
    total = [float(r.split(",")[3]) for r in path.read_text().splitlines()[1:]]
    return sum(total[-n:]) / n


def _train(w: Workload, setup_dir: Path, s: Session) -> Path:
    """Train s.iterations in TRAIN_CHUNKS resumed calls; one rate per call."""
    chunk = max(1, round(s.iterations / TRAIN_CHUNKS))
    ends = list(range(chunk, s.iterations, chunk)) + [s.iterations]
    done = 0
    for end in ends:
        cfg = w.run_config(setup_dir / "train_cohort", setup_dir / "train", end, chunk)
        t0 = time.perf_counter()
        ckpt = pipeline.run_training(cfg, setup_dir / "train")
        s.train_rates.append((end - done) / (time.perf_counter() - t0))
        done = end
    s.loss_logs.append(setup_dir / "train" / "loss.csv")
    return ckpt


def run_session(w: Workload, seed: int, seconds: float, work: Path,
                n_setups: int) -> Session:
    """Set up `n_setups` times (the last one is used), train, infer, evaluate."""
    iterations, n_heldout = w.plan(seconds)
    s = Session(iterations=iterations)
    t_start = time.perf_counter()
    for r in range(n_setups):
        d = work / f"setup{r}"
        t0 = time.perf_counter()
        phantom.generate_cohort(w.train_spec(), w.n_train_subjects, d / "train_cohort",
                                seed=pipeline.derive_seed(seed, 0))
        phantom.generate_cohort(w.heldout_spec(), n_heldout, d / "heldout",
                                seed=pipeline.derive_seed(seed, 1))
        pipeline.load_training_data(d / "train_cohort")
        if w.measured == "infer":
            s.checkpoint = _train(w, d, s)
        s.setup_s.append(time.perf_counter() - t0)
    s.train_cohort = d / "train_cohort"
    s.heldout_dir = d / "heldout"
    if w.measured == "train":
        s.checkpoint = _train(w, d, s)

    s.pred_dir = work / "pred"
    for sid in pipeline.discover_subjects(s.heldout_dir):
        t0 = time.perf_counter()
        pipeline.run_inference(s.checkpoint, s.heldout_dir / sid, s.pred_dir / sid)
        s.infer_s[sid] = time.perf_counter() - t0
    s.patients = pipeline.evaluate_predictions(s.heldout_dir, s.pred_dir,
                                               config.config_from_dict({}).eval)
    s.wall_s = time.perf_counter() - t_start
    return s
