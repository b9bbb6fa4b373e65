import numpy as np
import pytest
from scipy import stats

from clseg import sampling
from clseg.evaluation import label_lesions
from clseg.sampling import (CohortError, PatchSampler, SamplerConfig, TrainingSubject,
                            choose_icd, draw_rng, rotation_matrix)
from clseg.unet import reflect_indices

from brute_force import flood_fill_components, rotate_window_reference


def _subject(cl=None, side=32, subject_id="s0", seed=0):
    r = np.random.default_rng(seed)
    tissue = np.zeros((side,) * 3, np.uint8)
    tissue[4:side - 4, 4:side - 4, 4:side - 4] = 1
    cl_arr = cl if cl is not None else np.zeros((side,) * 3, np.uint8)
    return TrainingSubject(
        subject_id=subject_id,
        contrasts=r.standard_normal((3, side, side, side)).astype(np.float32),
        cl_labels=cl_arr,
        tissue_labels=tissue,
        wml_labels=np.zeros((side,) * 3, np.uint8),
    )


def _lesion_at(side, voxels, cls=1):
    cl = np.zeros((side,) * 3, np.uint8)
    for v in voxels:
        cl[v] = cls
    return cl


# --- lesion index --------------------------------------------------------------


def test_lesion_index_matches_flood_fill():
    r = np.random.default_rng(5)
    cl = np.zeros((16, 16, 16), np.uint8)
    mask = r.random(cl.shape) < 0.1
    cl[mask] = r.choice([1, 2], size=int(mask.sum()))
    subjects = [_subject(side=16, subject_id="empty"), _subject(cl=cl, side=16)]
    sampler = PatchSampler(SamplerConfig(), 44, subjects)
    oracle = flood_fill_components(cl)
    assert len(sampler.lesions) == len(oracle)
    for (si, voxels), (cls, want) in zip(sampler.lesions, oracle):
        assert si == 1
        assert set(map(tuple, voxels)) == want
        assert {int(cl[tuple(v)]) for v in voxels} == {cls}
        # voxels in C order
        flat = np.ravel_multi_index(voxels.T, cl.shape)
        assert (np.diff(flat) > 0).all()


def test_empty_subject_still_sampled_for_background():
    subj = _subject()
    assert len(label_lesions(subj.cl_labels)[1]) == 1   # background only
    sampler = PatchSampler(SamplerConfig(lesion_fraction=0.0, seed=1), 44, [subj])
    assert sampler.lesions == []
    p = sampler.draw(0)
    assert p.input.shape == (3, 44, 44, 44)
    with pytest.raises(ValueError, match="no lesions"):
        PatchSampler(SamplerConfig(lesion_fraction=0.5, seed=1), 44, [subj])
    with pytest.raises(CohortError, match="empty cohort"):
        PatchSampler(SamplerConfig(lesion_fraction=0.0), 44, [])


def test_face_touching_blobs_merge():
    cl = _lesion_at(16, [(5, 5, 5), (5, 5, 6)])
    sampler = PatchSampler(SamplerConfig(), 44, [_subject(cl=cl, side=16)])
    assert len(sampler.lesions) == 1
    assert len(sampler.lesions[0][1]) == 2


# --- center selection -----------------------------------------------------------


def test_lesion_fraction_one_centers_near_lesion():
    target = (10, 12, 14)
    subj = _subject(cl=_lesion_at(32, [target]))
    cfg = SamplerConfig(lesion_fraction=1.0, jitter_voxels=8, seed=3)
    sampler = PatchSampler(cfg, 44, [subj])
    for i in range(50):
        _, center, pick = sampler.choose_center(draw_rng(cfg.seed, i))
        assert pick is not None
        assert np.abs(center - np.array(target)).max() <= 8


def test_size_unbiased_lesion_choice():
    # one 6-voxel and one 600-voxel lesion: equal pick probability
    cl = np.zeros((32, 32, 32), np.uint8)
    cl[2, 2, 2:8] = 1
    cl[16:26, 16:26, 16:22] = 2
    assert (cl == 2).sum() == 600
    subj = _subject(cl=cl)
    cfg = SamplerConfig(lesion_fraction=1.0, seed=5)
    sampler = PatchSampler(cfg, 44, [subj])
    assert len(sampler.lesions) == 2
    picks = np.array([sampler.choose_center(draw_rng(cfg.seed, i))[2]
                      for i in range(10_000)])
    frac_small = float((picks == 0).mean())
    assert abs(frac_small - 0.5) <= 0.03
    chi = stats.chisquare([int((picks == 0).sum()), int((picks == 1).sum())])
    assert chi.pvalue > 0.01


def test_pick_uniformity_chi_square_many_lesions():
    r = np.random.default_rng(9)
    cl = np.zeros((32, 32, 32), np.uint8)
    centers = [(4 + 6 * i % 24, 4 + (7 * i) % 24, 4 + (11 * i) % 24) for i in range(10)]
    for j, c in enumerate(centers):
        size = int(r.integers(1, 30))
        z, y, x = c
        cl[z, y, x:min(32, x + size)] = 1 + (j % 2)
    subj = _subject(cl=cl)
    sampler = PatchSampler(SamplerConfig(lesion_fraction=1.0, seed=6), 44, [subj])
    n = len(sampler.lesions)
    picks = np.array([sampler.choose_center(draw_rng(6, i))[2] for i in range(10_000)])
    counts = np.bincount(picks, minlength=n)
    assert stats.chisquare(counts).pvalue > 0.01


def test_background_centers_inside_brain_mask():
    subj = _subject()
    sampler = PatchSampler(SamplerConfig(lesion_fraction=0.0, seed=2), 44, [subj])
    for i in range(30):
        si, center, pick = sampler.choose_center(draw_rng(2, i))
        assert pick is None
        assert subj.tissue_labels[tuple(center)] != 0


def test_background_pick_is_argwhere_row():
    # the k-th brain voxel in C order, k the generator's integers(n) draw: a
    # replay of choose_center would not catch a pool in another order
    r = np.random.default_rng(8)
    subjects = []
    for side in (16, 20):
        tissue = np.where(r.random((side,) * 3) < 0.6, r.integers(1, 3, (side,) * 3), 0)
        subjects.append(TrainingSubject(
            subject_id=f"s{side}", contrasts=np.zeros((3,) + (side,) * 3, np.float32),
            cl_labels=_lesion_at(side, [(8, 8, 8)]), tissue_labels=tissue.astype(np.uint8),
            wml_labels=np.zeros((side,) * 3, np.uint8)))
    cfg = SamplerConfig(lesion_fraction=0.0, seed=4)
    sampler = PatchSampler(cfg, 44, subjects)
    assert sampler.lesions
    for i in range(50):
        si, center, pick = sampler.choose_center(draw_rng(cfg.seed, i))
        rng = draw_rng(cfg.seed, i)
        rng.random()  # the lesion-or-background draw, made while lesions exist
        want_si = int(rng.integers(len(subjects)))
        voxels = np.argwhere(subjects[want_si].tissue_labels != 0)
        assert (si, pick) == (want_si, None)
        assert np.array_equal(center, voxels[int(rng.integers(len(voxels)))]), i


# --- patch geometry --------------------------------------------------------------


def test_label_crop_is_window_center():
    subj = _subject(cl=_lesion_at(64, [(32, 30, 34)]), side=64, seed=4)
    cfg = SamplerConfig(lesion_fraction=1.0, jitter_voxels=0, rotation_max_deg=0.0,
                        flip_probability=0.0, icd_probability=0.0, seed=7)
    sampler = PatchSampler(cfg, 44, [subj])
    p = sampler.draw(0)
    c = p.provenance["center"]
    # interior center: crops are plain numpy windows
    lo = [c[a] - 2 for a in range(3)]
    want = subj.cl_labels[lo[0]:lo[0] + 4, lo[1]:lo[1] + 4, lo[2]:lo[2] + 4]
    assert np.array_equal(p.cl_labels, want)
    lo_in = [c[a] - 22 for a in range(3)]
    for ch in range(3):
        want_in = subj.contrasts[ch][lo_in[0]:lo_in[0] + 44,
                                     lo_in[1]:lo_in[1] + 44,
                                     lo_in[2]:lo_in[2] + 44]
        assert np.array_equal(p.input[ch], want_in)


def test_zero_angles_no_flips_is_identity():
    subj = _subject(cl=_lesion_at(32, [(16, 16, 16)]))
    cfg = SamplerConfig(lesion_fraction=1.0, jitter_voxels=0, rotation_max_deg=0.0,
                        flip_probability=0.0, icd_probability=0.0, seed=8)
    sampler = PatchSampler(cfg, 44, [subj])
    rng = draw_rng(8, 0)
    raw = sampler.sample_patch(rng)
    before = raw.input.copy()
    out = sampler.augment_rotate_flip(raw, rng)
    assert np.array_equal(out.input, before)
    assert out.provenance["angles_deg"] == [0.0, 0.0, 0.0]
    assert out.provenance["flips"] == [False, False, False]


def _plain_window(vol, center, side):
    """Unrotated side^3 window starting at center - side//2, mirror boundary."""
    idx = [reflect_indices(vol.shape[a], int(center[a]) - side // 2, side) for a in range(3)]
    return vol[np.ix_(*idx)]


@pytest.mark.parametrize("angles,flips,center", [
    ((180.0, 0.0, 0.0), (1, 2), (16, 16, 16)),
    ((0.0, 180.0, 0.0), (0, 2), (16, 16, 16)),
    ((0.0, 0.0, 180.0), (0, 1), (16, 16, 16)),
    ((180.0, 0.0, 0.0), (1, 2), (0, 31, 5)),
    ((0.0, 0.0, 0.0), (), (0, 0, 0)),
    ((0.0, 0.0, 0.0), (), (31, 31, 31)),
    ((0.0, 0.0, 0.0), (), (0, 17, 31)),
], ids=["z180", "y180", "x180", "z180-edge", "zero-corner-lo", "zero-corner-hi",
        "zero-faces"])
def test_180_rotation_equals_double_flip(angles, flips, center):
    # integral source coordinates give weights of exactly (1, 0): a 180
    # degree turn is a double flip and zero angles the plain window, bit
    # for bit, on every channel and at the mirror boundary
    subj = _subject(seed=11)
    origin = (np.asarray(center) - 0.5)[:, None]
    got = sampling._trilinear_window(subj.contrasts, origin, rotation_matrix(angles), 12)
    for ch in range(3):
        want = _plain_window(subj.contrasts[ch], center, 12)
        for f in flips:
            want = np.flip(want, axis=f)
        assert np.array_equal(got[ch].reshape(12, 12, 12), want), ch


class _FixedAngles:
    """Stands in for the generator inside sample_patch: fixed angles."""

    def __init__(self, angles):
        self.angles = np.asarray(angles, dtype=float)

    def uniform(self, low, high, size):
        return self.angles


def _labelled_subject(shape, seed):
    r = np.random.default_rng(seed)
    return TrainingSubject(
        subject_id="s", contrasts=r.standard_normal((3,) + shape).astype(np.float32),
        cl_labels=r.integers(0, 3, shape).astype(np.uint8),
        tissue_labels=r.integers(1, 3, shape).astype(np.uint8),
        wml_labels=r.integers(0, 2, shape).astype(np.uint8))


def _poses(shape, kind, seed):
    r = np.random.default_rng(seed)
    hi = np.array(shape) - 1
    if kind == "boundary":
        centers = [np.array(c) * hi for c in np.ndindex(2, 2, 2)]
        centers += [np.where(np.arange(3) == a, e * hi[a], hi // 2)
                    for a in range(3) for e in (0, 1)]
    else:
        centers = [r.integers(0, hi + 1) for _ in range(8)]
    return [(c, r.uniform(-180, 180, 3)) for c in centers]


@pytest.mark.parametrize("shape,side,kind", [
    ((32, 32, 32), 44, "random"),
    ((32, 32, 32), 44, "boundary"),
    ((24, 30, 36), 44, "random"),
    ((20, 20, 20), 44, "boundary"),      # the mirror spans more than one period
    ((20, 20, 20), 44, "random"),
], ids=["random-poses", "corners-faces", "non-cubic", "multi-period-edges",
        "multi-period"])
def test_resampling_matches_per_channel_reference(shape, side, kind):
    # one trilinear pass over all contrasts with float32 weights agrees with
    # scipy's float64 per-channel interpolation; labels stay nearest and exact
    subj = _labelled_subject(shape, seed=1)
    sampler = PatchSampler(SamplerConfig(lesion_fraction=0.0), side, [subj])
    ls = sampler.label_patch
    for center, angles in _poses(shape, kind, seed=2):
        sampler.choose_center = lambda rng, c=center: (0, c, None)
        p = sampler.sample_patch(_FixedAngles(angles))
        rot = rotation_matrix(angles)
        want = np.stack([rotate_window_reference(subj.contrasts[c], center, rot, side, 1)
                         for c in range(3)])
        assert p.input.shape == want.shape
        assert np.abs(p.input - want).max() <= 1e-5, (center, angles)
        for got, vol in ((p.cl_labels, subj.cl_labels), (p.tissue_labels, subj.tissue_labels),
                         (p.wml_labels, subj.wml_labels)):
            assert np.array_equal(got, rotate_window_reference(vol, center, rot, ls, 0))


def test_draw_stream_replays_reference_in_rng_order():
    # the generator is read as center, angles, flips, dropped channel: a
    # replay in that order through the per-channel reference gives every draw
    cl = np.zeros((32, 32, 32), np.uint8)
    cl[14:18, 10:13, 15:20] = 1
    cl[3:5, 25:28, 2:4] = 2
    subj = _subject(cl=cl, seed=17)
    cfg = SamplerConfig(seed=23)
    sampler = PatchSampler(cfg, 44, [subj])
    s, ls = 44, sampler.label_patch
    for i in range(20):
        got = sampler.draw(i)
        rng = draw_rng(cfg.seed, i)
        si, center, pick = sampler.choose_center(rng)
        a = cfg.rotation_max_deg
        angles = rng.uniform(-a, a, size=3)
        flips = rng.random(3) < cfg.flip_probability
        dropped = choose_icd(rng, cfg.icd_probability)
        rot = rotation_matrix(angles)
        inp = np.stack([rotate_window_reference(subj.contrasts[c], center, rot, s, 1)
                        for c in range(3)])
        labels = [rotate_window_reference(v, center, rot, ls, 0)
                  for v in (subj.cl_labels, subj.tissue_labels, subj.wml_labels)]
        axes = tuple(int(x) for x in np.flatnonzero(flips))
        if axes:
            inp = np.flip(inp, axis=tuple(x + 1 for x in axes))
            labels = [np.flip(v, axis=axes) for v in labels]
        if dropped is not None:
            inp = inp.copy()
            inp[{"t2s_epi": 1, "t2s_gre": 2}[dropped]] = 0.0
        assert got.provenance == {
            "subject_id": subj.subject_id, "subject_index": si,
            "center": [int(c) for c in center], "lesion_pick": pick,
            "angles_deg": [float(x) for x in angles], "flips": [bool(f) for f in flips],
            "dropped_channel": dropped, "draw_index": i}
        for g, w in zip((got.cl_labels, got.tissue_labels, got.wml_labels), labels):
            assert np.array_equal(g, w), i
        assert np.abs(got.input - inp).max() <= 1e-5, i


def test_rotation_preserves_label_codes():
    r = np.random.default_rng(13)
    cl = np.zeros((32, 32, 32), np.uint8)
    cl[10:20, 10:20, 10:20] = r.choice([0, 1, 2], (10, 10, 10))
    subj = _subject(cl=cl)
    cfg = SamplerConfig(lesion_fraction=1.0, rotation_max_deg=180.0,
                        flip_probability=0.5, icd_probability=0.0, seed=12)
    sampler = PatchSampler(cfg, 44, [subj])
    for i in range(10):
        p = sampler.draw(i)
        assert set(np.unique(p.cl_labels)) <= {0, 1, 2}
        assert set(np.unique(p.tissue_labels)) <= {0, 1, 2}
        assert set(np.unique(p.wml_labels)) <= {0, 1}
        assert p.input.dtype == np.float32


def test_flips_preserve_lesion_voxel_count():
    subj = _subject(cl=_lesion_at(32, [(16, 16, 16), (16, 16, 17), (16, 17, 16)]))
    cfg = SamplerConfig(lesion_fraction=1.0, jitter_voxels=0, rotation_max_deg=0.0,
                        flip_probability=1.0, icd_probability=0.0, seed=14)
    sampler = PatchSampler(cfg, 44, [subj])
    rng = draw_rng(14, 0)
    raw = sampler.sample_patch(rng)
    count_before = int((raw.cl_labels != 0).sum())
    out = sampler.augment_rotate_flip(raw, rng)
    assert out.provenance["flips"] == [True, True, True]
    assert int((out.cl_labels != 0).sum()) == count_before


# --- input channel dropout --------------------------------------------------------


def test_icd_probability_zero_is_identity():
    for i in range(200):
        assert choose_icd(draw_rng(0, i), 0.0) is None


def test_icd_statistics_at_probability_one():
    counts = {"t2s_epi": 0, "t2s_gre": 0}
    for i in range(10_000):
        ch = choose_icd(draw_rng(1, i), 1.0)
        assert ch in counts  # never None, never mp2rage
        counts[ch] += 1
    assert counts["t2s_epi"] + counts["t2s_gre"] == 10_000
    assert abs(counts["t2s_epi"] - 5000) <= 150
    assert abs(counts["t2s_gre"] - 5000) <= 150


def test_icd_zeroes_exactly_one_channel():
    subj = _subject(cl=_lesion_at(32, [(16, 16, 16)]))
    cfg = SamplerConfig(lesion_fraction=1.0, rotation_max_deg=0.0,
                        flip_probability=0.0, icd_probability=1.0, seed=15)
    sampler = PatchSampler(cfg, 44, [subj])
    rng = draw_rng(15, 0)
    raw = sampler.sample_patch(rng)
    before = raw.input.copy()
    out = sampler.augment_rotate_flip(raw, rng)
    out = sampler.input_channel_dropout(out, rng)
    dropped = out.provenance["dropped_channel"]
    assert dropped in ("t2s_epi", "t2s_gre")
    di = {"t2s_epi": 1, "t2s_gre": 2}[dropped]
    assert not out.input[di].any()
    for ch in range(3):
        if ch != di:
            assert np.array_equal(out.input[ch], before[ch])


# --- stream reproducibility --------------------------------------------------------


def test_fixed_seed_stream_is_bit_reproducible():
    subj = _subject(cl=_lesion_at(32, [(16, 16, 16)]), seed=21)
    cfg = SamplerConfig(seed=99)
    s1 = PatchSampler(cfg, 44, [subj])
    s2 = PatchSampler(cfg, 44, [subj])
    for i in (0, 1, 5):
        a = s1.draw(i)
        b = s2.draw(i)
        assert np.array_equal(a.input, b.input)
        assert np.array_equal(a.cl_labels, b.cl_labels)
        assert a.provenance == b.provenance
