"""Lesion-balanced patch sampling and training-time augmentation.

A draw picks a lesion-centered window with probability lesion_fraction
(uniform over every lesion in the cohort regardless of size, plus center
jitter) and a brain-mask window otherwise, extracts a mirror-boundary
super-patch large enough to contain any rotation of the target window,
applies a random 3-axis rotation (trilinear for intensities, nearest for
labels), independent axis flips, and finally input-channel dropout on one
of the two T2* contrasts.

Every random decision of draw d comes from a generator seeded by
(seed, worker_id, d), so the patch stream is bit-reproducible and
independent of worker scheduling, and a resumed run continues the exact
stream from its draw counter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .evaluation import LesionComponent, connected_components
from .unet import CONTRAST_CHANNELS, SHRINK_PER_SIDE, reflect_indices


class CohortError(ValueError):
    """The cohort cannot supply the patches the sampler is asked to draw."""


@dataclass(frozen=True)
class SamplerConfig:
    lesion_fraction: float = 0.5
    jitter_voxels: int = 8
    rotation_max_deg: float = 180.0
    flip_probability: float = 0.5
    icd_probability: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        for name in ("lesion_fraction", "flip_probability", "icd_probability"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.jitter_voxels < 0:
            raise ValueError("jitter_voxels must be >= 0")
        if not (0.0 <= self.rotation_max_deg <= 180.0):
            raise ValueError("rotation_max_deg must be in [0, 180]")


@dataclass
class TrainingSubject:
    subject_id: str
    contrasts: np.ndarray            # (3, D, H, W) float32, already normalized
    cl_labels: np.ndarray            # uint8
    tissue_labels: np.ndarray
    wml_labels: np.ndarray
    brain_voxels: np.ndarray = field(init=False)  # (n, 3) where tissue != 0

    def __post_init__(self):
        self.brain_voxels = np.argwhere(self.tissue_labels != 0)
        if len(self.brain_voxels) == 0:
            raise CohortError(f"{self.subject_id}: empty brain mask")


@dataclass
class LesionIndex:
    per_subject: list[list[LesionComponent]]
    pooled: list[tuple[int, int]] = field(init=False)  # (subject idx, lesion idx)

    def __post_init__(self):
        self.pooled = [(si, li) for si, comps in enumerate(self.per_subject)
                       for li in range(len(comps))]

    @property
    def n_lesions(self) -> int:
        return len(self.pooled)


def build_lesion_index(subjects: list[TrainingSubject]) -> LesionIndex:
    """26-connectivity components of each subject's cl_labels."""
    if not subjects:
        raise CohortError("empty cohort")
    return LesionIndex([connected_components(s.cl_labels) for s in subjects])


@dataclass
class TrainingPatch:
    input: np.ndarray                  # (3, s, s, s) float32
    cl_labels: np.ndarray              # (s-40,)*3 uint8
    tissue_labels: np.ndarray
    wml_labels: np.ndarray
    provenance: dict


def draw_rng(seed: int, worker_id: int, draw_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(worker_id, draw_index)))


def _extract(vol: np.ndarray, center, side: int) -> np.ndarray:
    """Cube of `side` around center with mirror boundary handling."""
    half = side // 2
    idx = [reflect_indices(vol.shape[a], int(center[a]) - half, side) for a in range(3)]
    return vol[np.ix_(*idx)]


def _center_crop(vol: np.ndarray, side: int) -> np.ndarray:
    off = [(s - side) // 2 for s in vol.shape[-3:]]
    sl = tuple(slice(o, o + side) for o in off)
    return vol[(Ellipsis,) + sl]


class PatchSampler:
    def __init__(self, cfg: SamplerConfig, input_patch: int,
                 subjects: list[TrainingSubject], index: LesionIndex | None = None):
        cfg.validate()
        self.cfg = cfg
        self.input_patch = input_patch
        self.label_patch = input_patch - SHRINK_PER_SIDE
        self.subjects = subjects
        self.index = index if index is not None else build_lesion_index(subjects)
        if self.index.n_lesions == 0 and cfg.lesion_fraction > 0:
            raise CohortError("lesion_fraction > 0 but the cohort has no lesions")

    # -- center selection (cheap, separable for sampling statistics) --------

    def choose_center(self, rng: np.random.Generator):
        """Returns (subject idx, center zyx, lesion pooled-index or None)."""
        if self.index.n_lesions > 0 and rng.random() < self.cfg.lesion_fraction:
            pick = int(rng.integers(self.index.n_lesions))
            si, li = self.index.pooled[pick]
            comp = self.index.per_subject[si][li]
            voxel = comp.voxels[int(rng.integers(len(comp.voxels)))]
            j = self.cfg.jitter_voxels
            jitter = rng.integers(-j, j + 1, size=3)
            side = self.subjects[si].cl_labels.shape
            center = np.clip(voxel + jitter, 0, np.array(side) - 1)
            return si, center.astype(int), pick
        si = int(rng.integers(len(self.subjects)))
        bv = self.subjects[si].brain_voxels
        center = bv[int(rng.integers(len(bv)))]
        return si, center.astype(int), None

    # -- pipeline stages ------------------------------------------------------

    def sample_patch(self, rng: np.random.Generator) -> TrainingPatch:
        """Raw window around a chosen center, mirror-extended at the edges."""
        si, center, pick = self.choose_center(rng)
        subj = self.subjects[si]
        inp = np.stack([_extract(subj.contrasts[c], center, self.input_patch)
                        for c in range(subj.contrasts.shape[0])])
        return TrainingPatch(
            input=inp,
            cl_labels=_extract(subj.cl_labels, center, self.label_patch),
            tissue_labels=_extract(subj.tissue_labels, center, self.label_patch),
            wml_labels=_extract(subj.wml_labels, center, self.label_patch),
            provenance={"subject_id": subj.subject_id, "subject_index": si,
                        "center": [int(c) for c in center], "lesion_pick": pick,
                        "angles_deg": None, "flips": None, "dropped_channel": None},
        )

    def augment_rotate_flip(self, patch: TrainingPatch,
                            rng: np.random.Generator) -> TrainingPatch:
        """Random Euler rotation (trilinear / nearest) then independent flips.

        Resampling reads straight from the subject volumes with a mirror
        boundary, which is exactly equivalent to resampling the mirror
        padded super-patch around the window center.
        """
        a = self.cfg.rotation_max_deg
        angles = rng.uniform(-a, a, size=3)
        if np.any(angles != 0.0):
            subj = self.subjects[patch.provenance["subject_index"]]
            center = np.asarray(patch.provenance["center"])
            inp = np.stack([
                _rotate_window(subj.contrasts[c], center, angles, self.input_patch, order=1)
                for c in range(subj.contrasts.shape[0])])
            cl = _rotate_window(subj.cl_labels, center, angles, self.label_patch, order=0)
            tissue = _rotate_window(subj.tissue_labels, center, angles, self.label_patch, order=0)
            wml = _rotate_window(subj.wml_labels, center, angles, self.label_patch, order=0)
        else:
            inp, cl = patch.input, patch.cl_labels
            tissue, wml = patch.tissue_labels, patch.wml_labels

        flips = rng.random(3) < self.cfg.flip_probability
        axes = tuple(int(a) for a in np.flatnonzero(flips))
        if axes:
            inp = np.flip(inp, axis=tuple(a + 1 for a in axes))
            cl = np.flip(cl, axis=axes)
            tissue = np.flip(tissue, axis=axes)
            wml = np.flip(wml, axis=axes)
        prov = dict(patch.provenance,
                    angles_deg=[float(x) for x in angles],
                    flips=[bool(f) for f in flips])
        return TrainingPatch(
            input=np.ascontiguousarray(inp, dtype=np.float32),
            cl_labels=np.ascontiguousarray(cl),
            tissue_labels=np.ascontiguousarray(tissue),
            wml_labels=np.ascontiguousarray(wml),
            provenance=prov,
        )

    def input_channel_dropout(self, patch: TrainingPatch,
                              rng: np.random.Generator) -> TrainingPatch:
        dropped = choose_icd(rng, self.cfg.icd_probability)
        if dropped is not None:
            patch.input = patch.input.copy()
            patch.input[CONTRAST_CHANNELS[dropped]] = 0.0
            patch.provenance = dict(patch.provenance, dropped_channel=dropped)
        return patch

    def draw(self, draw_index: int, worker_id: int = 0) -> TrainingPatch:
        rng = draw_rng(self.cfg.seed, worker_id, draw_index)
        patch = self.sample_patch(rng)
        patch = self.augment_rotate_flip(patch, rng)
        patch = self.input_channel_dropout(patch, rng)
        patch.provenance["draw_index"] = draw_index
        return patch


def choose_icd(rng: np.random.Generator, icd_probability: float) -> str | None:
    """With probability icd_probability pick exactly one T2* channel to zero;
    never MP2RAGE, never both."""
    if rng.random() < icd_probability:
        return "t2s_epi" if rng.integers(2) == 0 else "t2s_gre"
    return None


def rotation_matrix(angles_deg) -> np.ndarray:
    """Intrinsic rotations about the z, y, x volume axes, R = Rz @ Ry @ Rx."""
    az, ay, ax = np.deg2rad(angles_deg)
    cz, sz = np.cos(az), np.sin(az)
    cy, sy = np.cos(ay), np.sin(ay)
    cx, sx = np.cos(ax), np.sin(ax)
    rz = np.array([[1, 0, 0], [0, cz, -sz], [0, sz, cz]])   # rotates (y, x)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])   # rotates (z, x)
    rx = np.array([[cx, -sx, 0], [sx, cx, 0], [0, 0, 1]])   # rotates (z, y)
    r = rz @ ry @ rx
    # snap multiples of 90 degrees onto the lattice so that e.g. a 180
    # rotation is exactly a double flip, free of interpolation residue
    for v in (0.0, 1.0, -1.0):
        r[np.abs(r - v) < 1e-12] = v
    return r


@lru_cache(maxsize=8)
def _centered_grid(out_side: int) -> np.ndarray:
    offs = np.arange(out_side) - (out_side - 1) / 2.0
    grid = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"))
    return grid.reshape(3, -1)


def _rotate_window(vol: np.ndarray, center: np.ndarray, angles_deg,
                   out_side: int, order: int) -> np.ndarray:
    """Rotated out_side^3 window about the window center, mirror boundary.

    The continuous rotation center is center - 0.5 per axis, i.e. the
    midpoint of the even-sided window starting at center - out_side//2,
    so zero angles reproduce the plain window exactly.
    """
    rot = rotation_matrix(angles_deg)
    src = rot @ _centered_grid(out_side) \
        + (np.asarray(center, dtype=float) - 0.5)[:, None]
    out = ndimage.map_coordinates(vol, src, order=order, mode="mirror",
                                  prefilter=False)
    return out.reshape((out_side,) * 3)
