"""Deterministic synthetic multi-contrast brain phantoms.

Each subject is a smoothed ellipsoid brain with a gray-matter shell of
uniform voxel thickness over a white-matter core, three intensity
contrasts with per-tissue means, planted cortical lesions of four
geometric types, white-matter lesions, Gaussian noise inside the brain
(background stays exactly zero), and one optional artifact: a GRE chunk
zeroed out.

Lesion types and their geometric contracts:
    type 1 (leukocortical)        straddles the GM/WM interface: the
                                  component contains both GM and WM voxels
    type 2 (intracortical)        strictly inside GM: no voxel 26-adjacent
                                  to background
    types 3, 4 (subpial)          at least one voxel 26-adjacent to
                                  background; type 4 is a larger-extent
                                  blob, recorded only as metadata
Types 2-4 map to lesion class 2, type 1 to class 1. Planted lesions are
pairwise non-adjacent (26-connectivity), so connected-component analysis
recovers exactly the planted records.

Geometry runs on boxes, never on the whole volume. The ellipsoid and its
smoothing run on the ellipsoid's bounding box grown by the filter's reach;
the cortex depth, the placement masks (tissue classes, their dilations, the
flat seed indices of each pool) and all lesion placement run on the brain
box, the brain's bounding box grown by one voxel and clipped at the volume
faces. Each result equals the whole-volume operation's, so cohorts are the
same bytes. The cortex depth and the dilations are exact small-integer and
boolean passes along each axis, not a distance transform or a filter.
Placement is local to each blob: a candidate is built, labelled and checked
inside its own bounding box, and its 1-voxel occupancy halo is dilated in
that box grown by one voxel.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import volume_io
from .evaluation import DEFAULT_MIN_LESION_VOXELS
from .volume_io import (CONTRAST_NAMES, DEFAULT_SPACING_MM, TISSUE_GM,
                        TISSUE_WM, make_volume, write_volume)

# Fraction of lesions per type observed in the reference cohort.
LESION_TYPE_MIX = (0.38, 0.07, 0.44, 0.11)
TYPE_TO_CLASS = {1: 1, 2: 2, 3: 2, 4: 2}

# Per-contrast tissue means; background is exactly 0 so the brain mask is
# recoverable as the nonzero support.
TISSUE_MEANS = {
    "mp2rage": {"wm": 0.85, "gm": 0.55},
    "t2s_epi": {"wm": 0.45, "gm": 0.70},
    "t2s_gre": {"wm": 0.50, "gm": 0.72},
}
# Intensity a lesion voxel is pulled toward, per contrast.
LESION_TARGETS = {"mp2rage": 0.30, "t2s_epi": 0.95, "t2s_gre": 0.95}
WML_TARGETS = {"mp2rage": 0.45, "t2s_epi": 0.95, "t2s_gre": 0.95}
# How far a lesion voxel moves toward the target (0 invisible, 1 full).
# Subpial/intracortical lesions are faint on MP2RAGE and strong on the two
# T2* contrasts, which is what makes multi-contrast input and channel
# dropout measurable.
LESION_VISIBILITY = {
    1: {"mp2rage": 0.90, "t2s_epi": 0.70, "t2s_gre": 0.70},
    2: {"mp2rage": 0.25, "t2s_epi": 0.90, "t2s_gre": 0.90},
}
WML_VISIBILITY = {"mp2rage": 0.80, "t2s_epi": 0.90, "t2s_gre": 0.90}

_PLACEMENT_RETRIES = 60


class PhantomError(Exception):
    """Infeasible spec: lesions cannot be placed within bounded retries."""


def counts_from_mix(total: int, mix=LESION_TYPE_MIX) -> tuple[int, int, int, int]:
    """Apportion `total` lesions to the four types by largest remainder."""
    raw = [total * m for m in mix]
    base = [int(np.floor(r)) for r in raw]
    rem = total - sum(base)
    order = sorted(range(4), key=lambda i: raw[i] - base[i], reverse=True)
    for i in order[:rem]:
        base[i] += 1
    return tuple(base)


@dataclass(frozen=True)
class PhantomSpec:
    side_voxels: int = 96
    spacing_mm: tuple[float, float, float] = DEFAULT_SPACING_MM
    cortex_thickness_voxels: int = 5
    lesion_counts: tuple[int, int, int, int] = counts_from_mix(12)
    lesion_size_range: tuple[int, int] = (6, 200)
    wml_count: int = 2
    noise_sigma: tuple[float, float, float] = (0.02, 0.03, 0.03)
    gre_missing_chunk: bool = False
    n_subjects: int = 12
    seed: int = 0

    def validate(self) -> None:
        if self.side_voxels < 32:
            raise PhantomError("side_voxels must be >= 32")
        if not all(np.isfinite(s) and s > 0 for s in self.spacing_mm):
            raise PhantomError(f"spacing_mm must be 3 positive finite reals, got {self.spacing_mm}")
        if self.cortex_thickness_voxels < 3:
            raise PhantomError("cortex thickness must be >= 3 voxels")
        if min(self.lesion_counts) < 0 or self.wml_count < 0:
            raise PhantomError("lesion counts must be nonnegative")
        lo, hi = self.lesion_size_range
        if not DEFAULT_MIN_LESION_VOXELS <= lo <= hi:
            raise PhantomError(f"lesion_size_range must be (low, high) with low at least the "
                               f"evaluation floor, {DEFAULT_MIN_LESION_VOXELS}; got {(lo, hi)}")
        if not all(np.isfinite(s) and s >= 0 for s in self.noise_sigma):
            raise PhantomError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.n_subjects < 1:
            raise PhantomError("n_subjects must be >= 1")
        if self.seed < 0:
            raise PhantomError(f"phantom.seed must be >= 0, got {self.seed}")


def _child_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def _brain_box(brain: np.ndarray) -> tuple[slice, ...]:
    """The brain box: the bounding slices of `brain`'s True voxels grown by
    one voxel per side and clipped at the volume faces. Every voxel outside
    it is background, and every voxel within 1 of the brain is inside it."""
    box = []
    for axis, n in enumerate(brain.shape):
        hit = np.flatnonzero(brain.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(max(int(hit[0]) - 1, 0), min(int(hit[-1]) + 2, n)))
    return tuple(box)


# ndimage.gaussian_filter reads int(truncate * sigma + 0.5) voxels to each side
_SMOOTH_SIGMA = 1.0
_SMOOTH_REACH = int(4.0 * _SMOOTH_SIGMA + 0.5)


def _make_tissue(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    """Brain geometry: 0 background, 1 WM core, 2 GM shell.

    The ellipsoid is built and smoothed on its bounding box grown by the
    filter's reach, whose outer layers are zero as in the whole volume (at a
    clipped face the filter reflects the same voxels either way). The only
    whole-volume arrays are the boolean brain and the uint8 labels:
    `_label_shell` splits the shell on the brain box with small-integer
    passes, never a float distance map."""
    n = spec.side_voxels
    center = n / 2.0 + rng.uniform(-1.5, 1.5, size=3)
    semi = n * rng.uniform(0.36, 0.42, size=3)
    # |z - c| <= s for every inside voxel, so floor/ceil bound the ellipsoid
    lo = np.maximum(np.floor(center - semi).astype(int) - _SMOOTH_REACH, 0)
    hi = np.minimum(np.ceil(center + semi).astype(int) + 1 + _SMOOTH_REACH, n)
    box = tuple(slice(lo[a], hi[a]) for a in range(3))
    zz, yy, xx = np.ogrid[box]
    inside = (((zz - center[0]) / semi[0]) ** 2
              + ((yy - center[1]) / semi[1]) ** 2
              + ((xx - center[2]) / semi[2]) ** 2) <= 1.0
    brain = np.zeros((n, n, n), dtype=bool)
    brain[box] = ndimage.gaussian_filter(inside.astype(np.float32), sigma=_SMOOTH_SIGMA) > 0.5
    tissue = _label_shell(brain, spec.cortex_thickness_voxels)
    if not (tissue == TISSUE_WM).any():
        raise PhantomError("brain too small for the requested cortex thickness")
    return tissue


def _label_shell(brain: np.ndarray, thickness: int) -> np.ndarray:
    """GM on `brain`, WM where the Euclidean distance to the nearest non-brain
    voxel of the volume exceeds `thickness`, 0 elsewhere.

    Runs on the brain box, whose outer layers are non-brain wherever the box
    does not meet a volume face, so no voxel outside it is nearer. Voxels
    beyond the volume faces are not non-brain, as in scipy's
    `distance_transform_edt`; so a brain without a single non-brain voxel in
    the volume (one filling it) is all WM, its distance being infinite."""
    tissue = np.zeros(brain.shape, dtype=np.uint8)
    box = _brain_box(brain)
    sub, out = brain[box], tissue[box]
    out[sub] = TISSUE_GM
    out[_beyond(sub, thickness)] = TISSUE_WM
    return tissue


_FULL = np.ones((3, 3, 3), dtype=bool)


def _beyond(mask: np.ndarray, t: int) -> np.ndarray:
    """Voxels of `mask` whose squared Euclidean distance to every False voxel
    of the array exceeds t*t; voxels beyond the faces count as True.

    The squared distance separates per axis (Saito & Toriwaki, 1994): pass a
    takes, for each voxel, the least of s*s plus the previous pass's value s
    voxels along axis a. Only |s| <= t can bring a sum to t*t or less, and
    every value is capped at t*t + 1 ("farther"), which keeps the test exact
    and the sums within a small unsigned type."""
    far = t * t + 1
    d = mask.astype(np.min_scalar_type(2 * far))
    d *= far
    for axis in range(3):
        prev, d = d, d.copy()
        p, q = np.moveaxis(prev, axis, 0), np.moveaxis(d, axis, 0)
        for s in range(1, t + 1):
            np.minimum(q[:-s], p[s:] + s * s, out=q[:-s])
            np.minimum(q[s:], p[:-s] + s * s, out=q[s:])
    return d == far


def _dilate(mask: np.ndarray, r: int) -> np.ndarray:
    """`r` iterations of the 3x3x3 binary dilation: the (2r+1)^3 box, as the
    OR of shifts by -r..r along each axis in turn; voxels beyond the volume
    faces read False."""
    for axis in range(3):
        prev, mask = mask, mask.copy()
        p, q = np.moveaxis(prev, axis, 0), np.moveaxis(mask, axis, 0)
        for s in range(1, r + 1):
            q[:-s] |= p[s:]
            q[s:] |= p[:-s]
    return mask


def _ellipsoid_blob(shape, seed_voxel, radii, allowed,
                    rng) -> tuple[tuple[slice, ...], np.ndarray] | None:
    """Random-orientation ellipsoid around seed_voxel, clipped to `allowed`
    and to the seed's connected piece. Returns (box, mask): the bounding
    slices of the ellipsoid within the volume and the mask inside them
    (zero outside), or None if the seed is not allowed."""
    r = np.asarray(radii, dtype=float)
    ext = int(np.ceil(r.max())) + 1
    lo = np.maximum(np.asarray(seed_voxel) - ext, 0)
    hi = np.minimum(np.asarray(seed_voxel) + ext + 1, shape)
    box = tuple(slice(lo[a], hi[a]) for a in range(3))
    grids = np.meshgrid(*(np.arange(lo[a], hi[a]) for a in range(3)), indexing="ij")
    rel = np.stack([g - seed_voxel[a] for a, g in enumerate(grids)])
    # random rotation from QR keeps blob orientation varied
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = np.einsum("ab,bzyx->azyx", q, rel.astype(float))
    mask = ((rot / r[:, None, None, None]) ** 2).sum(axis=0) <= 1.0
    mask &= allowed[box]
    seed_local = tuple(np.asarray(seed_voxel) - lo)
    if not mask[seed_local]:
        return None
    # keep only the piece connected to the seed
    lab, _ = ndimage.label(mask, structure=_FULL)
    return box, lab == lab[seed_local]


def _mark_halo(occupied: np.ndarray, box, blob: np.ndarray) -> None:
    """OR the 3x3x3 dilation of `blob` (the mask inside `box`) into
    `occupied`, dilating only within the box grown by one voxel per side."""
    # numpy clips a stop beyond the volume face; a negative start would wrap
    grown = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
    region = np.zeros(occupied[grown].shape, dtype=bool)
    region[tuple(slice(s.start - g.start, s.stop - g.start) for s, g in zip(box, grown))] = blob
    occupied[grown] |= _dilate(region, 1)


def _radii_for_size(target: int, flatten_axis: int | None, max_flat: float,
                    rng: np.random.Generator) -> np.ndarray:
    r0 = (3.0 * target / (4.0 * np.pi)) ** (1.0 / 3.0)
    radii = r0 * rng.uniform(0.75, 1.35, size=3)
    if flatten_axis is not None and radii[flatten_axis] > max_flat:
        scale = radii[flatten_axis] / max_flat
        radii[flatten_axis] = max_flat
        other = [a for a in range(3) if a != flatten_axis]
        radii[other] = radii[other] * np.sqrt(scale)
    return np.maximum(radii, 1.1)


def _placement_masks(tissue: np.ndarray) -> dict[str, np.ndarray]:
    """The masks that lesion placement reads, by name. Each lies in the brain
    and is read from voxels within 3 of it, so computed on the brain box it
    equals the whole-volume mask restricted to the box."""
    brain = tissue != 0
    gm = tissue == TISSUE_GM
    wm = tissue == TISSUE_WM
    # a brain voxel's 3x3x3 window stays in the brain box or meets a volume
    # face, beyond which _dilate reads False as on the whole volume
    pial = brain & _dilate(~brain, 1)               # brain touching background
    gm_adjacent = _dilate(gm, 1)
    return {
        "brain": brain,
        "gm": gm,
        "wm": wm,
        "pial": pial,
        "pial_gm": gm & pial,
        "safe_gm": gm & ~pial,                      # GM not touching background
        "interface_wm": wm & gm_adjacent,           # WM touching GM
        "deep_wm": wm & ~_dilate(gm_adjacent, 2),
        "juxta_wm": wm & _dilate(gm, 2),
    }


def inject_lesions(tissue: np.ndarray, spec: PhantomSpec, rng: np.random.Generator):
    """Plant CLs of all four types plus WMLs; returns (cl, wml, records).

    Placement runs in the coordinates of the brain box: every lesion, halo
    and seed voxel lies in it, and C order within it is the whole volume's,
    so the same seeds are drawn. Centroids add the box offset."""
    voxel_ul = float(np.prod(spec.spacing_mm))
    brain_box = _brain_box(tissue != 0)
    offset = [s.start for s in brain_box]
    masks = _placement_masks(tissue[brain_box])
    brain, gm, wm, pial = (masks[k] for k in ("brain", "gm", "wm", "pial"))
    shape = brain.shape

    cl = np.zeros(shape, dtype=np.uint8)
    wml = np.zeros(shape, dtype=np.uint8)
    occupied_dil = np.zeros(shape, dtype=bool)  # 1-voxel halo keeps lesions non-adjacent
    records: list[dict] = []

    lo_sz, hi_sz = spec.lesion_size_range
    cl_sizes = (np.log(lo_sz), np.log(hi_sz + 1))

    def touches_bg(box, blob):
        return (blob & pial[box]).any()

    # per kind (CL type 1-4, or WML): log-size range, size clamp, allowed
    # mask, flattened axis, smallest size, and a test the blob must pass
    rules = {
        1: (cl_sizes, (0, np.inf), brain, None, lo_sz,
            lambda box, blob: (blob & gm[box]).any() and (blob & wm[box]).any()),
        # a thin shell cannot hold big blobs
        2: (cl_sizes, (0, 40), masks["safe_gm"], 0, lo_sz,
            lambda box, blob: not touches_bg(box, blob)),
        3: (cl_sizes, (0, np.inf), gm, None, lo_sz, touches_bg),
        4: (cl_sizes, (2 * lo_sz, np.inf), gm, None, lo_sz, touches_bg),
        "wml": ((np.log(8), np.log(120)), (0, np.inf), wm, None, 6, lambda box, blob: True),
    }

    def place(kind, pool: np.ndarray):
        """(box, mask) of a new lesion of `kind` seeded from `pool`, its
        halo marked."""
        sizes, clamp, allowed, flatten, min_size, accept = rules[kind]
        for _ in range(_PLACEMENT_RETRIES):
            # log-uniform sizes so small lesions dominate, as in real cohorts
            target = int(np.clip(int(np.exp(rng.uniform(*sizes))), *clamp))
            radii = _radii_for_size(target, flatten, (spec.cortex_thickness_voxels - 2) / 2, rng)
            seed_voxel = np.unravel_index(pool[rng.integers(len(pool))], shape)
            placed = _ellipsoid_blob(shape, seed_voxel, radii, allowed, rng)
            if placed is None:
                continue
            box, blob = placed
            if (not (blob & occupied_dil[box]).any() and blob.sum() >= min_size
                    and accept(box, blob)):
                _mark_halo(occupied_dil, box, blob)
                return box, blob
        raise PhantomError(
            f"could not place a lesion of kind {kind!r} after {_PLACEMENT_RETRIES} retries")

    # seed pools: the flat C-order indices of a mask's voxels, so the k-th
    # entry is the k-th voxel of the mask as on the whole volume and a draw
    # picks the same seed; types 3 and 4 share theirs
    pools = {name: np.flatnonzero(masks[name])
             for name in ("interface_wm", "safe_gm", "pial_gm", "deep_wm", "juxta_wm")}
    seed_pools = {1: "interface_wm", 2: "safe_gm", 3: "pial_gm", 4: "pial_gm"}
    for lesion_type, count in zip((1, 2, 3, 4), spec.lesion_counts):
        pool = pools[seed_pools[lesion_type]]
        if count and not len(pool):
            raise PhantomError("no candidate seed voxels for a lesion type")
        for _ in range(count):
            box, blob = place(lesion_type, pool)
            cls = TYPE_TO_CLASS[lesion_type]
            cl[box][blob] = cls
            size = int(blob.sum())
            # the offsets are added before the mean, so the float sums are
            # those of whole-volume coordinates
            centroid = (np.argwhere(blob) + [s.start + o for s, o in zip(box, offset)]).mean(axis=0)
            records.append({
                "type": lesion_type,
                "class": cls,
                "size_voxels": size,
                "volume_ul": size * voxel_ul,
                "centroid": [float(c) for c in centroid],
            })

    # WMLs: strictly in WM; odd indices juxtacortical (within 2 voxels of GM)
    # to exercise the zero-weight confusion case, the rest deep
    deep_pool = pools["deep_wm"]
    if not len(deep_pool):
        deep_pool = np.flatnonzero(wm)
    juxta_pool = pools["juxta_wm"]
    if not len(juxta_pool):
        juxta_pool = deep_pool
    for i in range(spec.wml_count):
        box, blob = place("wml", juxta_pool if i % 2 == 1 else deep_pool)
        wml[box][blob] = 1
    cl_whole = np.zeros(tissue.shape, dtype=np.uint8)
    wml_whole = np.zeros(tissue.shape, dtype=np.uint8)
    cl_whole[brain_box] = cl
    wml_whole[brain_box] = wml
    return cl_whole, wml_whole, records


def _render_contrasts(tissue, cl, wml, spec: PhantomSpec, rng: np.random.Generator):
    """Tissue means + lesion pulls + in-brain Gaussian noise per contrast.

    Every voxel set is a C-order flat index: the brain's, its WM and GM
    subsets and each lesion class's, so each assignment, gather and add
    touches only its voxels, and the brain is found in one scan. The noise
    is drawn for the brain voxels only: per contrast, in `CONTRAST_NAMES`
    order, one block of `brain.size` standard normals from `rng`, the k-th
    normal added to the k-th brain voxel in C order. The background stays
    exactly zero."""
    brain = np.flatnonzero(tissue != 0)  # scans a bool mask ~4x faster than uint8 labels
    in_brain = tissue.reshape(-1)[brain]
    wm, gm = brain[in_brain == TISSUE_WM], brain[in_brain == TISSUE_GM]
    lesions = [(np.flatnonzero(cl == cls), LESION_VISIBILITY[cls], LESION_TARGETS)
               for cls in (1, 2)]
    lesions.append((np.flatnonzero(wml == 1), WML_VISIBILITY, WML_TARGETS))
    # one buffer reused by the three draws; each draw is taken before
    # scaling, so a change of sigma never shifts the stream
    noise = np.empty(brain.size)
    out = {}
    for ci, name in enumerate(CONTRAST_NAMES):
        means = TISSUE_MEANS[name]
        img = np.zeros(tissue.size, dtype=np.float32)
        img[wm] = means["wm"]
        img[gm] = means["gm"]
        for m, visibility, targets in lesions:
            vis = visibility[name]
            img[m] = (1 - vis) * img[m] + vis * targets[name]
        rng.standard_normal(out=noise)
        img[brain] += spec.noise_sigma[ci] * noise.astype(np.float32)
        out[name] = img.reshape(tissue.shape)
    return out


def apply_artifacts(volumes: dict[str, np.ndarray], spec: PhantomSpec,
                    rng: np.random.Generator) -> dict[str, np.ndarray]:
    """GRE missing chunk; labels and the other contrasts are never touched.

    `rng` is the artifact stream, which nothing else draws from, so a spec
    differing only in gre_missing_chunk yields an identical subject
    otherwise (used to build clean/artifacted twin cohorts).
    """
    if not spec.gre_missing_chunk:
        return volumes
    brain = volumes["tissue_labels"] != 0
    axis = int(rng.integers(3))
    high_side = bool(rng.integers(2))
    frac = float(rng.uniform(0.05, 0.15))
    per_plane = brain.sum(axis=tuple(a for a in range(3) if a != axis))
    cum = np.cumsum(per_plane[::-1] if high_side else per_plane)
    total = int(cum[-1])
    n_planes = int(np.searchsorted(cum, frac * total) + 1)
    gre = volumes["t2s_gre"].copy()
    sl = [slice(None)] * 3
    sl[axis] = slice(-n_planes, None) if high_side else slice(0, n_planes)
    gre[tuple(sl)] = 0.0
    return {**volumes, "t2s_gre": gre}


def generate_subject(spec: PhantomSpec, subject_seed: int):
    """All six volumes plus ground-truth lesion records, pure in (spec, seed)."""
    spec.validate()
    rng_geo = _child_rng(subject_seed, 0)
    rng_les = _child_rng(subject_seed, 1)
    rng_noise = _child_rng(subject_seed, 2)
    rng_art = _child_rng(subject_seed, 3)

    tissue = _make_tissue(spec, rng_geo)
    cl, wml, records = inject_lesions(tissue, spec, rng_les)
    volumes = _render_contrasts(tissue, cl, wml, spec, rng_noise)
    volumes["cl_labels"] = cl
    volumes["tissue_labels"] = tissue
    volumes["wml_labels"] = wml
    volumes = apply_artifacts(volumes, spec, rng_art)
    return volumes, records


def subject_seeds(cohort_seed: int, n: int) -> list[int]:
    ss = np.random.SeedSequence(entropy=cohort_seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def cohort_subject_ids(n_subjects: int) -> list[str]:
    """The ids of the subjects generate_cohort writes for n_subjects, in order."""
    return [f"subject_{i:02d}" for i in range(n_subjects)]


def generate_cohort(spec: PhantomSpec, n_subjects: int, out_dir: str | Path,
                    seed: int) -> dict:
    """Write n subjects plus a ground-truth manifest whose spec holds this n
    and seed; byte-stable in the seed. Refuses, before writing anything, a
    directory that holds subjects beyond the n to be written."""
    spec = replace(spec, n_subjects=n_subjects, seed=seed)
    spec.validate()
    out_dir = Path(out_dir)
    subject_ids = cohort_subject_ids(n_subjects)
    # subjects of an older, larger cohort would be discovered alongside the
    # new ones while the manifest lists only the new ones
    stray = sorted(p.parent.name for p in out_dir.glob("*/mp2rage.json")
                   if p.parent.name not in subject_ids)
    if stray:
        raise PhantomError(f"{out_dir} holds subjects outside the {n_subjects}-subject "
                           f"cohort to be written: {', '.join(stray)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"spec": asdict(spec), "seed": seed, "subjects": [], "total_lesions": 0}
    for subject_id, sseed in zip(subject_ids, subject_seeds(seed, n_subjects)):
        volumes, records = generate_subject(spec, sseed)
        sdir = out_dir / subject_id
        sdir.mkdir(exist_ok=True)
        for name, arr in volumes.items():
            kind = name if name in volume_io.LABEL_CODES else "intensity"
            write_volume(make_volume(arr, kind, subject_id, spec.spacing_mm), sdir / name)
        manifest["subjects"].append({
            "subject_id": subject_id,
            "subject_seed": sseed,
            "lesions": records,
        })
        manifest["total_lesions"] += len(records)
    volume_io.write_json(out_dir / "cohort_manifest.json", manifest)
    return manifest
