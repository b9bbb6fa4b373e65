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
# and the draws kept their bytes.
GOLDEN_RUN = {
    ("scipy-openblas 0.3.31.188.0", "AVX512_SPR"): {
        "train/loss.csv": "1e9e66585bc0201da516220f20ccd0b6b22d652f60d253c3ff74e915c9c20b33",
        "train/checkpoint_00000004.raw":
            "8de132fedc6616cdca681a7fe53b1536542f1d07a38f7c046b0dd5c437144110",
        "pred/cl_prob.raw": "cbf5b144d60abe87e34093242361e070c95c9d83f499b00caf98e63d66d5bf22",
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
            "cbaf56164381660fb02da770160e863c6c39c57a536b6b4e04d588c64696c7b2",
        "pred/cl_prob.raw": "799e2453e535c091e5aa8d9113de3bb8e4d5f6645592e6eaec50e331cacae956",
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
    # a 48^3 patch at C=4 is 48 planes in pushes of 36 (_push_depth): the
    # training forward feeds its cached stream twice, 36 planes and 12,
    # where a 44^3 patch goes in one push
    _check_run(GOLDEN_RUN_48, 48, tmp_path, tiny_cohort)
