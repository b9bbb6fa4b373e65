"""Lesion-balanced patch sampling and training-time augmentation.

A draw picks a lesion-centered window with probability lesion_fraction
(uniform over every lesion in the cohort regardless of size, plus center
jitter) and a brain-mask window otherwise, applies a random 3-axis
rotation about the window's midpoint, independent axis flips, and
finally input-channel dropout on one of the two T2* contrasts.

The rotated window is resampled once, straight from the subject volumes
with a mirror boundary. The three contrasts share one trilinear pass:
floor indices, mirror-mapped corner offsets and the eight corner weights
are computed once per draw and used for every channel. The weights are
float32, so intensities differ from scipy's float64 interpolation by up
to about 2e-6 on normalized contrasts (the tests allow 1e-5), and not at
all where the source coordinates are integral (zero angles, or multiples
of 90 degrees), since the weights are then exactly (1, 0). Labels are
resampled nearest-neighbour by scipy, with one coordinate array shared
by the three label volumes.

The lesions are the 26-connected components of each subject's
cl_labels (evaluation.label_lesions), listed subject by subject in their
label order, each with its voxels in C order.

Every random decision of draw d comes from a generator seeded by
(seed, d), so the patch stream is bit-reproducible, and a resumed run
continues the exact stream from its draw counter. A draw reads its
generator in a fixed order: center, rotation angles, flips, dropped
channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import ndimage

from .evaluation import label_lesions
from .unet import CONTRAST_CHANNELS, DROPPABLE_CHANNELS, SHRINK_PER_SIDE, reflect_indices


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
        if self.seed < 0:
            raise ValueError(f"sampler.seed must be >= 0, got {self.seed}")


@dataclass
class TrainingSubject:
    subject_id: str
    contrasts: np.ndarray            # (3, D, H, W) float32, already normalized
    cl_labels: np.ndarray            # uint8
    tissue_labels: np.ndarray
    wml_labels: np.ndarray
    # flat C-order indices of the voxels where tissue != 0: the k-th is the
    # k-th row of np.argwhere(tissue_labels), at a third of its bytes
    brain_voxels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.brain_voxels = np.flatnonzero(self.tissue_labels)
        if len(self.brain_voxels) == 0:
            raise CohortError(f"{self.subject_id}: empty brain mask")


@dataclass
class TrainingPatch:
    input: np.ndarray                  # (3, s, s, s) float32
    cl_labels: np.ndarray              # (s-40,)*3 uint8
    tissue_labels: np.ndarray
    wml_labels: np.ndarray
    provenance: dict


def draw_rng(seed: int, draw_index: int) -> np.random.Generator:
    # the leading 0 of the spawn key keeps every recorded stream byte-identical
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, draw_index)))


class PatchSampler:
    def __init__(self, cfg: SamplerConfig, input_patch: int,
                 subjects: list[TrainingSubject]):
        cfg.validate()
        if not subjects:
            raise CohortError("empty cohort")
        self.cfg = cfg
        self.input_patch = input_patch
        self.label_patch = input_patch - SHRINK_PER_SIDE
        self.subjects = subjects
        # (subject idx, (n, 3) voxels in C order) per lesion of the cohort
        self.lesions: list[tuple[int, np.ndarray]] = []
        for si, subj in enumerate(subjects):
            ids, _, sizes = label_lesions(subj.cl_labels)
            at = np.flatnonzero(ids)
            at = at[np.argsort(ids.reshape(-1)[at], kind="stable")]
            voxels = np.stack(np.unravel_index(at, ids.shape), axis=1)
            self.lesions += [(si, v) for v in np.split(voxels, np.cumsum(sizes[1:]))[:-1]]
        if not self.lesions and cfg.lesion_fraction > 0:
            raise CohortError("lesion_fraction > 0 but the cohort has no lesions")

    # -- center selection (cheap, separable for sampling statistics) --------

    def choose_center(self, rng: np.random.Generator):
        """Returns (subject idx, center zyx, index into self.lesions or None)."""
        if self.lesions and rng.random() < self.cfg.lesion_fraction:
            pick = int(rng.integers(len(self.lesions)))
            si, voxels = self.lesions[pick]
            voxel = voxels[int(rng.integers(len(voxels)))]
            j = self.cfg.jitter_voxels
            jitter = rng.integers(-j, j + 1, size=3)
            side = self.subjects[si].cl_labels.shape
            center = np.clip(voxel + jitter, 0, np.array(side) - 1)
            return si, center.astype(int), pick
        si = int(rng.integers(len(self.subjects)))
        subj = self.subjects[si]
        at = subj.brain_voxels[int(rng.integers(len(subj.brain_voxels)))]
        return si, np.array(np.unravel_index(at, subj.tissue_labels.shape)), None

    # -- pipeline stages ------------------------------------------------------

    def sample_patch(self, rng: np.random.Generator) -> TrainingPatch:
        """Window around a chosen center, rotated by random Euler angles about
        its midpoint: trilinear for the contrasts, nearest for the labels,
        mirror boundary."""
        si, center, pick = self.choose_center(rng)
        a = self.cfg.rotation_max_deg
        angles = rng.uniform(-a, a, size=3)
        rot = rotation_matrix(angles)
        subj = self.subjects[si]
        s, ls = self.input_patch, self.label_patch
        # rotation center: the midpoint of the even-sided window starting at
        # center - side//2, so zero angles give the plain window exactly
        origin = (center - 0.5)[:, None]
        inp = _trilinear_window(subj.contrasts, origin, rot, s)
        coords = rot @ _centered_grid(ls) + origin
        cl, tissue, wml = (
            ndimage.map_coordinates(v, coords, order=0, mode="mirror",
                                    prefilter=False).reshape((ls,) * 3)
            for v in (subj.cl_labels, subj.tissue_labels, subj.wml_labels))
        return TrainingPatch(
            input=inp.reshape(-1, s, s, s),
            cl_labels=cl, tissue_labels=tissue, wml_labels=wml,
            provenance={"subject_id": subj.subject_id, "subject_index": si,
                        "center": [int(c) for c in center], "lesion_pick": pick,
                        "angles_deg": [float(x) for x in angles], "flips": None,
                        "dropped_channel": None},
        )

    def augment_rotate_flip(self, patch: TrainingPatch,
                            rng: np.random.Generator) -> TrainingPatch:
        """Independent axis flips; the rotation is applied by sample_patch."""
        inp, cl = patch.input, patch.cl_labels
        tissue, wml = patch.tissue_labels, patch.wml_labels
        flips = rng.random(3) < self.cfg.flip_probability
        axes = tuple(int(a) for a in np.flatnonzero(flips))
        if axes:
            inp = np.flip(inp, axis=tuple(a + 1 for a in axes))
            cl = np.flip(cl, axis=axes)
            tissue = np.flip(tissue, axis=axes)
            wml = np.flip(wml, axis=axes)
        prov = dict(patch.provenance, flips=[bool(f) for f in flips])
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
            # in place: the input is sample_patch's or the flip's fresh array
            patch.input[CONTRAST_CHANNELS[dropped]] = 0.0
            patch.provenance = dict(patch.provenance, dropped_channel=dropped)
        return patch

    def draw(self, draw_index: int) -> TrainingPatch:
        rng = draw_rng(self.cfg.seed, draw_index)
        patch = self.sample_patch(rng)
        patch = self.augment_rotate_flip(patch, rng)
        patch = self.input_channel_dropout(patch, rng)
        patch.provenance["draw_index"] = draw_index
        return patch


def choose_icd(rng: np.random.Generator, icd_probability: float) -> str | None:
    """With probability icd_probability pick exactly one T2* channel to zero;
    never MP2RAGE, never both."""
    if rng.random() < icd_probability:
        return DROPPABLE_CHANNELS[int(rng.integers(2))]
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


# Output points per trilinear chunk: the chunk's index and weight arrays
# stay in cache, which takes 35-45% off the time of a 48^3 or 68^3 window
# against one pass over all points.
_CHUNK_POINTS = 16384


@lru_cache(maxsize=8)
def _centered_grid(out_side: int) -> np.ndarray:
    offs = np.arange(out_side) - (out_side - 1) / 2.0
    grid = np.stack(np.meshgrid(offs, offs, offs, indexing="ij"))
    return grid.reshape(3, -1)


def _trilinear_window(vols: np.ndarray, origin: np.ndarray, rot: np.ndarray,
                      side: int) -> np.ndarray:
    """(C, side**3) trilinear samples of every channel of vols (C, D, H, W)
    at rot @ _centered_grid(side) + origin, origin of shape (3, 1), mirror
    boundary (reflection about the edge voxels).

    The window's floor indices span a small range per axis, bounded by its
    rotated corners, so the two corners per axis are mapped through one
    mirror lookup table over that range, scaled to flat offsets. The eight
    corner indices and weights (float32) of a chunk of _CHUNK_POINTS points
    are computed once into reused buffers and shared by the channels, each
    of which then gathers and adds its eight corners in turn.
    """
    C, *shape = vols.shape
    grid = _centered_grid(side)
    reach = (side - 1) / 2 * np.abs(rot).sum(axis=1, keepdims=True)
    lo = np.floor(origin - reach).astype(np.intp) - 1  # a voxel of slack for rounding
    hi = np.floor(origin + reach).astype(np.intp) + 1
    strides = (shape[1] * shape[2], shape[2], 1)
    luts = [reflect_indices(shape[a], lo[a, 0], hi[a, 0] - lo[a, 0] + 2) * strides[a]
            for a in range(3)]
    flat = vols.reshape(C, -1)
    out = np.zeros((C, grid.shape[1]), dtype=np.result_type(vols, np.float32))
    idx = np.empty((8, _CHUNK_POINTS), dtype=np.intp)
    wts = np.empty((8, _CHUNK_POINTS), dtype=np.float32)
    val = np.empty(_CHUNK_POINTS, dtype=np.result_type(flat, wts))
    for j in range(0, grid.shape[1], _CHUNK_POINTS):
        coords = rot @ grid[:, j:j + _CHUNK_POINTS] + origin
        n = coords.shape[1]
        base = np.floor(coords)
        frac = (coords - base).astype(np.float32)
        base = base.astype(np.intp) - lo
        # indices are in range by construction: mode="clip" skips the check
        offsets = [(np.take(lut[:-1], b, mode="clip"), np.take(lut[1:], b, mode="clip"))
                   for lut, b in zip(luts, base)]
        weights = [(1 - f, f) for f in frac]
        for dz in (0, 1):
            for dy in (0, 1):
                zy = offsets[0][dz] + offsets[1][dy]
                wzy = weights[0][dz] * weights[1][dy]
                for dx in (0, 1):
                    i = dz * 4 + dy * 2 + dx
                    np.add(zy, offsets[2][dx], out=idx[i, :n])
                    np.multiply(wzy, weights[2][dx], out=wts[i, :n])
        v = val[:n]
        for c in range(C):
            acc = out[c, j:j + n]
            for i in range(8):
                np.take(flat[c], idx[i, :n], mode="clip", out=v)
                v *= wts[i, :n]
                acc += v
    return out
