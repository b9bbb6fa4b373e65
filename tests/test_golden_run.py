"""Golden run hashes: the bytes that a tiny training and inference write.

A change to training or inference bytes (the sampler, the network, the
loss, Adam, the checkpoint or volume format) fails here. A change that
alters them on purpose re-pins GOLDEN_RUN and states the drift."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT

# multitask_icd at C=4 with the patch side given, so the composed decoder,
# the slab code, the rotation and input-channel dropout are all on the
# path: 4 iterations on subject_00 of the tiny cohort, then subject_01
# inferred.
# It prints the sha256 of 256 more sampled patches: a change that rounds
# one float32 weight in one draw of 60-100 (as a one-ulp change of the
# rotation does) would rarely touch the run's own 4 draws.
RUN = """
import hashlib
import sys
from pathlib import Path

from clseg.blas import blas_threads
from clseg.config import config_from_dict
from clseg.pipeline import load_training_data, run_inference, run_training
from clseg.sampling import PatchSampler

assert blas_threads() == 1, blas_threads()
cohort, out = map(Path, sys.argv[1:3])
cfg = config_from_dict({
    "network": {"base_channels": 4, "input_patch": int(sys.argv[3])},
    "sampler": {"jitter_voxels": 4, "rotation_max_deg": 180.0, "seed": 5},
    "training": {"iterations": 4, "checkpoint_every": 4, "learning_rate": 1e-3, "seed": 5},
    "paths": {"cohort_dir": str(cohort)},
})
ckpt = run_training(cfg, out / "train", subject_ids=["subject_00"])
run_inference(ckpt, cohort / "subject_01", out / "pred")
sampler = PatchSampler(cfg.sampler, cfg.network.input_patch,
                       load_training_data(cohort, ["subject_00"]))
draws = hashlib.sha256()
for i in range(256):
    patch = sampler.draw(i)
    for a in (patch.input, patch.cl_labels, patch.tissue_labels, patch.wml_labels):
        draws.update(a.tobytes())
print(draws.hexdigest())
"""

FILES = ("train/loss.csv", "train/checkpoint_00000004.raw", "pred/cl_prob.raw",
         "pred/cl_pred.raw", "pred/tissue_pred.raw")

# sha256 of FILES and of the draws per environment: (numpy's BLAS, by np.show_config's name
# and version; the highest SIMD extension numpy found on the CPU). OpenBLAS
# picks its kernels by the CPU, so another environment may round otherwise.
# Re-pinned when enc1b's bias gradient came to be summed per slab of its
# depth-sliced output gradient: loss.csv moved by up to 1.2e-7, the
# checkpoint by up to 6.0e-8 and cl_prob by up to 2.4e-7; both label maps
# and the draws kept their bytes. Re-pinned, with GOLDEN_RUN_48, when
# SLAB_BUDGET_ELEMS fell from 4 Mi to 1 Mi elements, which splits the
# weight gradients' column sums at other slab ends: loss.csv moved by up
# to 1.2e-7, the checkpoint by up to 1.2e-7 and cl_prob by up to 2.4e-7
# (48^3: loss.csv kept its bytes, the checkpoint moved by up to 6.7e-8 and
# cl_prob by up to 2.4e-7); both label maps and the draws kept their bytes.
GOLDEN_RUN = {
    ("scipy-openblas 0.3.31.188.0", "AVX512_SPR"): {
        "train/loss.csv": "caf422ebbbc64280221c3e6f1f7373aa63ab1cf0d7a66c0b733961b588f78ede",
        "train/checkpoint_00000004.raw":
            "a4e6f4a91ad7110ccc0084e91c323dfa87b881d67ee02400ad6f5847caade08a",
        "pred/cl_prob.raw": "15f6a39ff7778c339c7f6a0a356270b960520675a06577221ca46fdcaa59c9b9",
        "pred/cl_pred.raw": "7c98d2da7afa2bdee9765910c81cb588e14781b77538fb54df84f7e7039e4348",
        "pred/tissue_pred.raw": "1dd10919c137683ead3b0ded59413138f85147117937a896167682b1b57644be",
        "draws": "ea503c72c6119f01a6a7df263feb80188e0682a4e94f2b4f79c21f49534e17bd",
    },
}

# Pinned, like GOLDEN_RUN, on the code whose cached forward took its whole
# input in one push.
GOLDEN_RUN_48 = {
    ("scipy-openblas 0.3.31.188.0", "AVX512_SPR"): {
        "train/loss.csv": "1a4a75a2616c8b99928ba6c83df8e6f7631b44d7a0ef7e286c5d57c1f3c7acf7",
        "train/checkpoint_00000004.raw":
            "ddd2ecf0cbbc34d0129865377c31b66208060a939fe755a07ed9fd9dd244184b",
        "pred/cl_prob.raw": "5b4dc9e7b771b4a6ccf2ff015a15b57e14740bb2ff715cd01707d0fb6e8f2f47",
        "pred/cl_pred.raw": "7c98d2da7afa2bdee9765910c81cb588e14781b77538fb54df84f7e7039e4348",
        "pred/tissue_pred.raw": "5db84cabae2af66b7b9961eeaa2cc74075fe9a5dc77bda3126b1e5d1f8d5d04d",
        "draws": "29d7c0d11f3d30675071e1d9708b137a87570319b94fdbbe1c1e86ba7ec2008a",
    },
}


def environment_key() -> tuple[str, str]:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]["found"] or ["none"]
    return f"{blas['name']} {blas['version']}", simd[-1]


def _check_run(golden, patch, tmp_path, cohort):
    key = environment_key()
    if key not in golden:
        pytest.skip(f"no golden run hashes pinned for {key}")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-c", RUN, str(cohort), str(tmp_path), str(patch)],
                       capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES}
    got["draws"] = r.stdout.strip()
    assert got == golden[key]


def test_tiny_run_matches_golden_hashes(tmp_path, tiny_cohort):
    _check_run(GOLDEN_RUN, 44, tmp_path, tiny_cohort)


def test_two_push_run_matches_golden_hashes(tmp_path, tiny_cohort):
    # the training forward pushes the whole patch into its cached stream,
    # which runs level 1 in chunks of its depth (_push_depth): at C=4 a
    # 44^3 patch in 12 + 12 + 12 + 8 planes, a 48^3 one in 6 x 8
    _check_run(GOLDEN_RUN_48, 48, tmp_path, tiny_cohort)
