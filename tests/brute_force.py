"""Brute-force reference implementations used as test oracles.

Deliberately naive and independent of the package implementations:
nested loops, recursive region growing, exhaustive enumeration. Kept
separate so the production path and the oracle can only agree by both
being right.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import ndimage


def conv3d_loops(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid 3-D convolution via six nested spatial/channel loops."""
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = w.shape
    out = np.zeros((B, Co, D - k + 1, H - k + 1, W - k + 1), dtype=x.dtype)
    for b in range(B):
        for o in range(Co):
            for z in range(D - k + 1):
                for y in range(H - k + 1):
                    for xx in range(W - k + 1):
                        acc = bias[o]
                        for i in range(Ci):
                            for dz in range(k):
                                for dy in range(k):
                                    for dx in range(k):
                                        acc += x[b, i, z + dz, y + dy, xx + dx] \
                                            * w[o, i, dz, dy, dx]
                        out[b, o, z, y, xx] = acc
    return out


def conv3d_backward_loops(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """(grad_x, grad_w, grad_b) of conv3d_loops for upstream gradient g,
    scattering each output voxel's gradient back tap by tap."""
    B, Ci, D, H, W = x.shape
    Co, _, k, _, _ = w.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    gb = np.zeros(Co, dtype=g.dtype)
    for b in range(B):
        for o in range(Co):
            for z in range(D - k + 1):
                for y in range(H - k + 1):
                    for xx in range(W - k + 1):
                        go = g[b, o, z, y, xx]
                        gb[o] += go
                        for i in range(Ci):
                            for dz in range(k):
                                for dy in range(k):
                                    for dx in range(k):
                                        gx[b, i, z + dz, y + dy, xx + dx] += \
                                            go * w[o, i, dz, dy, dx]
                                        gw[o, i, dz, dy, dx] += \
                                            go * x[b, i, z + dz, y + dy, xx + dx]
    return gx, gw, gb


def maxpool3d_blocks(x: np.ndarray) -> np.ndarray:
    """2x2x2 stride-2 max pooling via explicit block loops."""
    B, C, D, H, W = x.shape
    out = np.empty((B, C, D // 2, H // 2, W // 2), dtype=x.dtype)
    for b in range(B):
        for c in range(C):
            for z in range(D // 2):
                for y in range(H // 2):
                    for xx in range(W // 2):
                        out[b, c, z, y, xx] = x[b, c, 2*z:2*z+2, 2*y:2*y+2, 2*xx:2*xx+2].max()
    return out


def maxpool3d_backward_loops(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of maxpool3d_blocks for upstream gradient g: each block's
    gradient goes to its first maximum in (dz, dy, dx) order, found by
    strict comparison, so ties (signed zeros too) keep the earlier voxel."""
    B, C, D, H, W = x.shape
    gx = np.zeros_like(g, shape=x.shape)
    for b in range(B):
        for c in range(C):
            for z in range(D // 2):
                for y in range(H // 2):
                    for xx in range(W // 2):
                        best = None
                        for dz, dy, dx in itertools.product((0, 1), repeat=3):
                            pos = (b, c, 2 * z + dz, 2 * y + dy, 2 * xx + dx)
                            if best is None or x[pos] > x[best]:
                                best = pos
                        gx[best] = g[b, c, z, y, xx]
    return gx


def transposed_conv3d_loops(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Stride-2 2x2x2 transposed convolution, w of shape (Ci, Co, 2, 2, 2):
    every input voxel paints its output block tap by tap."""
    B, Ci, D, H, W = x.shape
    Co = w.shape[1]
    out = np.zeros((B, Co, 2 * D, 2 * H, 2 * W), dtype=x.dtype)
    out += bias.reshape(1, -1, 1, 1, 1)
    for b in range(B):
        for i in range(Ci):
            for z in range(D):
                for y in range(H):
                    for xx in range(W):
                        for dz, dy, dx in itertools.product((0, 1), repeat=3):
                            out[b, :, 2 * z + dz, 2 * y + dy, 2 * xx + dx] += \
                                x[b, i, z, y, xx] * w[i, :, dz, dy, dx]
    return out


def transposed_conv3d_backward_loops(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """(grad_x, grad_w, grad_b) of transposed_conv3d_loops for upstream
    gradient g, gathered tap by tap."""
    B, Ci, D, H, W = x.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for b in range(B):
        for i in range(Ci):
            for z in range(D):
                for y in range(H):
                    for xx in range(W):
                        for dz, dy, dx in itertools.product((0, 1), repeat=3):
                            go = g[b, :, 2 * z + dz, 2 * y + dy, 2 * xx + dx]
                            gx[b, i, z, y, xx] += (go * w[i, :, dz, dy, dx]).sum()
                            gw[i, :, dz, dy, dx] += go * x[b, i, z, y, xx]
    return gx, gw, g.sum(axis=(0, 2, 3, 4))


def rotate_window_reference(vol: np.ndarray, center, rot: np.ndarray, side: int,
                            order: int) -> np.ndarray:
    """side^3 window of one channel rotated by the matrix rot about its
    midpoint center - 0.5, resampled by scipy (float64 interpolation,
    mirror boundary): order 1 trilinear, order 0 nearest. This is the
    sampler's former per-channel path."""
    offs = np.arange(side) - (side - 1) / 2.0
    grid = np.stack(np.meshgrid(offs, offs, offs, indexing="ij")).reshape(3, -1)
    src = rot @ grid + (np.asarray(center, dtype=float) - 0.5)[:, None]
    out = ndimage.map_coordinates(vol, src, order=order, mode="mirror", prefilter=False)
    return out.reshape((side,) * 3)


def _neighbors(connectivity: int):
    offs = [d for d in itertools.product((-1, 0, 1), repeat=3) if any(d)]
    if connectivity == 26:
        return offs
    if connectivity == 6:
        return [d for d in offs if sum(map(abs, d)) == 1]
    if connectivity == 18:
        return [d for d in offs if sum(map(abs, d)) <= 2]
    raise ValueError(connectivity)


def flood_fill_components(labels: np.ndarray, connectivity: int = 26):
    """Stack-based flood fill; returns a list of (class, voxel set) sorted by
    the minimum x-fastest linear index of each component."""
    labels = np.asarray(labels)
    nz, ny, nx = labels.shape
    offsets = _neighbors(connectivity)
    seen = np.zeros(labels.shape, dtype=bool)
    comps = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if labels[z, y, x] == 0 or seen[z, y, x]:
                    continue
                cls = labels[z, y, x]
                stack = [(z, y, x)]
                seen[z, y, x] = True
                voxels = set()
                while stack:
                    cz, cy, cx = stack.pop()
                    voxels.add((cz, cy, cx))
                    for dz, dy, dx in offsets:
                        pz, py, px = cz + dz, cy + dy, cx + dx
                        if 0 <= pz < nz and 0 <= py < ny and 0 <= px < nx \
                                and not seen[pz, py, px] and labels[pz, py, px] == cls:
                            seen[pz, py, px] = True
                            stack.append((pz, py, px))
                comps.append((int(cls), voxels))
    comps.sort(key=lambda cv: min(v[2] + nx * (v[1] + ny * v[0]) for v in cv[1]))
    return comps


def detection_metrics_reference(ref_sets, ref_classes, pred_sets, pred_classes,
                                pred_label_volume):
    """LTPR / LFPR / accuracy from first principles on voxel-set components.

    ref_sets, pred_sets: lists of voxel-coordinate sets (already filtered);
    classes: per-component lesion class codes; pred_label_volume: the raw
    predicted label array (for majority-class accuracy).
    """
    detected = []
    for rs in ref_sets:
        detected.append(any(rs & ps for ps in pred_sets))
    fp = [not any(ps & rs for rs in ref_sets) for ps in pred_sets]
    correct = 0
    for rs, rc, det in zip(ref_sets, ref_classes, detected):
        if not det:
            continue
        votes = {1: 0, 2: 0}
        for v in rs:
            c = int(pred_label_volume[v])
            if c > 0:
                votes[c] += 1
        majority = 1 if votes[1] >= votes[2] else 2
        if majority == rc:
            correct += 1
    n_ref, n_pred, n_det = len(ref_sets), len(pred_sets), sum(detected)
    return {
        "ltpr": n_det / n_ref if n_ref else 1.0,
        "lfpr": sum(fp) / n_pred if n_pred else 0.0,
        "accuracy": correct / n_det if n_det else 1.0,
        "n_detected": n_det,
        "n_fp": sum(fp),
    }


def wilcoxon_enumerate(diffs) -> tuple[float, float]:
    """Exact two-sided signed-rank p by enumerating all 2^n sign vectors.

    Returns (w_plus, p). Only for small n; ranks are average ranks of |d|.
    """
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = len(d)
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and absd[order[j]] == absd[order[i]]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)
        i = j
    w_plus = float(ranks[d > 0].sum())
    w_all = []
    for signs in itertools.product((0, 1), repeat=n):
        w_all.append(sum(r for r, s in zip(ranks, signs) if s))
    w_all = np.array(w_all)
    lower = float((w_all <= w_plus).mean())
    upper = float((w_all >= w_plus).mean())
    return w_plus, min(1.0, 2.0 * min(lower, upper))
