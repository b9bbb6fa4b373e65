import dataclasses
import json
import tracemalloc
from pathlib import Path

import pytest

from clseg.config import RunConfig, load_config
from clseg.phantom import PhantomSpec, generate_cohort

ROOT = Path(__file__).resolve().parent.parent

TINY_SPEC = PhantomSpec(
    side_voxels=48,
    cortex_thickness_voxels=4,
    lesion_counts=(3, 1, 4, 1),
    lesion_size_range=(6, 50),
    wml_count=2,
    seed=402,
)


def tiny_replication_config(**overrides) -> RunConfig:
    """configs/replication.json at a tiny scale: two-subject TINY_SPEC
    cohorts in 2 folds, C=2, a 44^3 patch and 2 iterations; then
    `overrides`, without validation."""
    cfg = load_config(ROOT / "configs" / "replication.json")
    cfg = dataclasses.replace(
        cfg, xval_folds=2,
        network=dataclasses.replace(cfg.network, base_channels=2, input_patch=44),
        training=dataclasses.replace(cfg.training, iterations=2, checkpoint_every=2),
        phantom=dataclasses.replace(TINY_SPEC, n_subjects=2))
    return dataclasses.replace(cfg, **overrides)


def traced_peak(fn):
    """(fn(), the peak in bytes of the memory that tracemalloc traced while
    fn ran); tracing stops on an error too."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def edit_header(ckpt: Path, edit) -> None:
    """Rewrite a checkpoint header as `edit` changes its document."""
    path = ckpt.with_suffix(".json")
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header, indent=2) + "\n")


def write_old_network_keys(ckpt: Path, **changes) -> None:
    """Rewrite a checkpoint header's network as headers written while
    NetworkConfig had seven fields carry it: in that key order, with the
    values every such run had, then `changes`."""
    def old(header):
        net = header["config"]
        header["config"] = {"in_channels": 3, "base_channels": net["base_channels"],
                            "levels": 3, "input_patch": net["input_patch"], "cl_classes": 3,
                            "tissue_classes": 3, "instance_norm": False, **changes}
    edit_header(ckpt, old)


@pytest.fixture(scope="session")
def tiny_cohort(tmp_path_factory) -> Path:
    """Two small phantom subjects on disk, shared across the suite."""
    root = tmp_path_factory.mktemp("tiny_cohort")
    generate_cohort(TINY_SPEC, 2, root, seed=TINY_SPEC.seed)
    return root


@pytest.fixture(scope="session")
def tiny_subjects(tiny_cohort):
    from clseg.pipeline import load_training_data
    return load_training_data(tiny_cohort)
