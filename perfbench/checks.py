"""Correctness checks of a session's outputs.

Each check is one operation of the run: it passes or it counts as failed.
A training iteration counts as an operation that failed when its logged
losses are not all finite; a held-out subject fails when its predictions
are missing, malformed or unevaluated. Two checks guard against a speed-up
that breaks learning: the loss tail of the session must lie below ln 3,
and a small network must overfit one fixed patch.
"""

from __future__ import annotations

import math

import numpy as np

from clseg import layers, optim, pipeline, sampling, unet, volume_io
from workloads import loss_tail

# float32 tolerance on cl_prob between tiled inference and one whole-volume
# pass; labels must agree exactly. The two differ only in summation order.
PROB_ATOL = 1e-5
CONV_RTOL = 1e-9    # float64 layer against the float64 tap-sum reference
# Cross-entropy of a uniform prediction over 3 classes. The output heads
# start at zero, so every loss of an untrained network is exactly this, and
# a run whose parameters never change logs it at every iteration.
LN3 = math.log(3.0)
# Overfitting one patch: a C=2 network takes OVERFIT_STEPS Adam steps at
# OVERFIT_LR on the same batch and must bring its loss below
# OVERFIT_MAX_FRAC * ln 3. Measured after 20 steps over 125 cohort seeds of
# the three workloads: 0.0-0.51 ln 3. A no-op step stays at ln 3 and a
# wrong-signed gradient goes above it.
OVERFIT_STEPS = 20
OVERFIT_LR = 1e-3
OVERFIT_MAX_FRAC = 0.75


class Ledger:
    """Counts operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.details: dict = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def check_loss_log(ledger: Ledger, path, iterations: int) -> None:
    """One operation per iteration: its row exists and every loss is finite."""
    rows = path.read_text().splitlines()[1:]
    for it in range(1, iterations + 1):
        row = rows[it - 1].split(",") if it <= len(rows) else []
        ok = (len(row) == 4 and int(row[0]) == it
              and all(math.isfinite(float(v)) for v in row[1:]))
        ledger.record(ok, f"{path}: iteration {it} missing or non-finite")


def check_learning(ledger: Ledger, session, margin: float) -> None:
    """The loss tail of every log lies at least `margin` below ln 3."""
    for path in session.loss_logs:
        tail = loss_tail(path, session.iterations)
        ledger.details.setdefault("loss_tail_below_ln3", []).append(LN3 - tail)
        ledger.record(tail <= LN3 - margin,
                      f"{path}: loss tail {tail:.5f} is not {margin} below ln 3; "
                      "the run did not learn")


def check_overfit(ledger: Ledger, session, w) -> None:
    """A C=2 network overfits the first patch of the session's cohort.

    Covers unet.forward/backward, combined_loss and adam_step with a signal
    far above any cohort-to-cohort spread, on every workload.
    """
    cfg = w.run_config(session.train_cohort, session.train_cohort, 1, 1)
    net_cfg = unet.NetworkConfig(base_channels=2, input_patch=44)
    subjects = pipeline.load_training_data(session.train_cohort)
    patch = sampling.PatchSampler(cfg.sampler, net_cfg.input_patch, subjects).draw(0)
    batch = {k: getattr(patch, k)[None]
             for k in ("input", "cl_labels", "tissue_labels", "wml_labels")}
    params = unet.build_network(net_cfg, seed=0)
    state = optim.AdamState.for_params(params.tensors, learning_rate=OVERFIT_LR)
    for _ in range(OVERFIT_STEPS):
        loss = unet.train_step(params, state, batch, cfg.loss).total_loss
    ledger.details["overfit_loss_over_ln3"] = loss / LN3
    ledger.record(loss <= OVERFIT_MAX_FRAC * LN3,
                  f"one patch not overfit: loss {loss:.4f} after {OVERFIT_STEPS} steps")


def check_subjects(ledger: Ledger, session) -> None:
    """One operation per held-out subject: predictions well formed and evaluated."""
    evaluated = {p.subject_id for p in session.patients}
    for sid in session.infer_s:
        ok = sid in evaluated
        try:
            ref = volume_io.read_volume(session.heldout_dir / sid / "cl_labels").data
            cl = volume_io.read_volume(session.pred_dir / sid / "cl_pred").data
            tissue = volume_io.read_volume(session.pred_dir / sid / "tissue_pred").data
            prob = volume_io.read_volume(session.pred_dir / sid / "cl_prob").data
        except volume_io.VolumeError:
            ok = False
        else:
            ok = (ok and cl.shape == tissue.shape == prob.shape == ref.shape
                  and int(cl.max()) <= 2 and int(tissue.max()) <= 2
                  and bool(np.isfinite(prob).all())
                  and float(prob.min()) >= 0.0 and float(prob.max()) <= 1.0 + 1e-6)
        ledger.record(ok, f"subject {sid}: predictions malformed or not evaluated")


def whole_volume_reference(checkpoint, subject_dir):
    """One unet.forward over the mirror-padded subject: (cl, tissue, prob).

    The padding puts the network's 20-voxel valid-conv margin on each side
    and rounds the far side up to a multiple of 4, so pooling sees the same
    grid as every tile of the sliding-window inference.
    """
    params, _, _, _ = unet.load_checkpoint(checkpoint)
    vols = volume_io.read_subject(subject_dir)
    contrasts = np.stack([unet.normalize_volume(vols[n].data)
                          for n in volume_io.CONTRAST_NAMES])
    shape = contrasts.shape[1:]
    margin = unet.SHRINK_PER_SIDE // 2
    after = tuple(margin + (-s) % 4 for s in shape)
    padded = np.stack([unet.mirror_pad(c, (margin,) * 3, after) for c in contrasts])
    cl_p, tissue_p, _ = unet.forward(params, padded[None])
    crop = (slice(0, shape[0]), slice(0, shape[1]), slice(0, shape[2]))
    return (cl_p[0].argmax(axis=0).astype(np.uint8)[crop],
            tissue_p[0].argmax(axis=0).astype(np.uint8)[crop],
            (cl_p[0, 1] + cl_p[0, 2])[crop])


def check_tiled_inference(ledger: Ledger, session) -> None:
    """Tiled predictions of the first held-out subject equal one whole pass."""
    sid = sorted(session.infer_s)[0]
    cl, tissue, prob = whole_volume_reference(session.checkpoint, session.heldout_dir / sid)
    pred = {name: volume_io.read_volume(session.pred_dir / sid / name).data
            for name in ("cl_pred", "tissue_pred", "cl_prob")}
    diff = float(np.max(np.abs(pred["cl_prob"] - prob)))
    ledger.details["tiled_vs_whole_prob_max_abs_diff"] = diff
    ledger.details["tiled_vs_whole_prob_atol"] = PROB_ATOL
    ledger.record(np.array_equal(pred["cl_pred"], cl)
                  and np.array_equal(pred["tissue_pred"], tissue) and diff <= PROB_ATOL,
                  f"subject {sid}: tiled inference differs from one whole-volume pass "
                  f"(max |d cl_prob| = {diff:.3g})")


def tap_sum_conv3d(x, w, b):
    """Valid 3-D convolution as a sum over the k^3 kernel taps."""
    k = w.shape[2]
    oD, oH, oW = (s - k + 1 for s in x.shape[2:])
    out = np.zeros((x.shape[0], w.shape[0], oD, oH, oW))
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                xs = x[:, :, dz:dz + oD, dy:dy + oH, dx:dx + oW]
                out += np.einsum("bizyx,oi->bozyx", xs, w[:, :, dz, dy, dx])
    return out + b[None, :, None, None, None]


def tap_sum_conv3d_backward(x, w, g):
    """(grad_x, grad_w, grad_b) of tap_sum_conv3d for upstream gradient g."""
    k = w.shape[2]
    oD, oH, oW = g.shape[2:]
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for dz in range(k):
        for dy in range(k):
            for dx in range(k):
                sl = (slice(None), slice(None),
                      slice(dz, dz + oD), slice(dy, dy + oH), slice(dx, dx + oW))
                gx[sl] += np.einsum("bozyx,oi->bizyx", g, w[:, :, dz, dy, dx])
                gw[:, :, dz, dy, dx] = np.einsum("bozyx,bizyx->oi", g, x[sl])
    return gx, gw, g.sum(axis=(0, 2, 3, 4))


def check_conv_reference(ledger: Ledger) -> None:
    """layers.conv3d_forward/backward against the tap-sum reference, float64."""
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 3, 7, 6, 5))
    w = rng.standard_normal((4, 3, 3, 3, 3))
    b = rng.standard_normal(4)
    g = rng.standard_normal((2, 4, 5, 4, 3))
    got = (layers.conv3d_forward(x, w, b),) + tuple(layers.conv3d_backward(x, w, g))
    want = (tap_sum_conv3d(x, w, b),) + tap_sum_conv3d_backward(x, w, g)
    for name, a, r in zip(("out", "grad_x", "grad_w", "grad_b"), got, want):
        ledger.record(a.shape == r.shape and np.allclose(a, r, rtol=CONV_RTOL, atol=CONV_RTOL),
                      f"conv3d {name} differs from the tap-sum reference")


def check_session(ledger: Ledger, session, w) -> None:
    """Every check of one session of workload `w`: losses, learning,
    subjects, tiling, conv reference."""
    for path in session.loss_logs:
        check_loss_log(ledger, path, session.iterations)
    check_learning(ledger, session, w.learn_margin)
    check_overfit(ledger, session, w)
    check_subjects(ledger, session)
    check_tiled_inference(ledger, session)
    check_conv_reference(ledger)
