"""Voxel-wise weight maps and the weighted cross-entropy loss.

The lesion head's weights are constants: lesion voxels 15, background 1,
white-matter lesion voxels 0 (so segmenting a WML is never penalized); the
tissue head zeroes every lesion voxel, and the variant decides whether it
trains (tissue_head). Each head's loss is normalized by its weight sum, and
the two head losses are combined by arithmetic mean.
"""

from __future__ import annotations

import numpy as np

from .layers import ContractError

LOG_FLOOR = 1e-12  # single-precision safety clamp inside the log
CL_LESION_WEIGHT = 15.0
CL_BACKGROUND_WEIGHT = 1.0
CL_WML_WEIGHT = 0.0


def build_cl_weight_map(cl_labels: np.ndarray, wml_labels: np.ndarray) -> np.ndarray:
    """Lesion-head weights: lesion voxels 15, WML-only voxels 0, else 1.
    A voxel marked both CL and WML takes the CL weight."""
    if cl_labels.shape != wml_labels.shape:
        raise ContractError("cl and wml label crops must be congruent")
    w = np.full(cl_labels.shape, CL_BACKGROUND_WEIGHT, dtype=np.float32)
    w[wml_labels == 1] = CL_WML_WEIGHT
    w[cl_labels != 0] = CL_LESION_WEIGHT
    return w


def build_tissue_weight_map(cl_labels: np.ndarray, wml_labels: np.ndarray) -> np.ndarray:
    """Tissue-head weights: 0 on any lesion voxel (CL or WML), 1 elsewhere."""
    if cl_labels.shape != wml_labels.shape:
        raise ContractError("cl and wml label crops must be congruent")
    w = np.ones(cl_labels.shape, dtype=np.float32)
    w[(cl_labels != 0) | (wml_labels != 0)] = 0.0
    return w


def weighted_cross_entropy(probs: np.ndarray, labels: np.ndarray,
                           weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Weight-normalized cross-entropy and its exact gradient w.r.t. logits.

    probs: (B, C, ...) softmax outputs; labels: (B, ...) integer classes;
    weights: (B, ...) nonnegative. loss = sum_v w_v * -log p_v[label_v] / sum_v w_v,
    and d loss / d logits = w_v * (p_v - onehot_v) / sum_v w_v. Returns
    (0, zero gradient) when all weights are zero.
    """
    if probs.shape[0] != labels.shape[0] or probs.shape[2:] != labels.shape[1:]:
        raise ContractError(f"probs {probs.shape} and labels {labels.shape} mismatch")
    if labels.shape != weights.shape:
        raise ContractError(f"labels {labels.shape} and weights {weights.shape} mismatch")
    n_classes = probs.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError(f"labels outside [0, {n_classes})")

    w_sum = float(weights.sum())
    if w_sum == 0.0:
        return 0.0, np.zeros_like(probs)
    labels = labels.astype(np.intp)
    p_true = np.take_along_axis(probs, labels[:, None], axis=1)[:, 0]
    loss = float((weights * -np.log(np.maximum(p_true, LOG_FLOOR))).sum() / w_sum)

    grad = probs * weights[:, None]
    np.put_along_axis(
        grad, labels[:, None],
        np.take_along_axis(grad, labels[:, None], axis=1) - weights[:, None],
        axis=1)
    grad /= w_sum
    return loss, grad


def combined_loss(cl_probs: np.ndarray, tissue_probs: np.ndarray,
                  cl_labels: np.ndarray, tissue_labels: np.ndarray,
                  wml_labels: np.ndarray, tissue_head: bool = True):
    """Mean of the two head losses with gradients for both heads; without
    `tissue_head` the tissue head's weights, loss and gradient are 0.

    Returns (total, (cl_loss, tissue_loss), (grad_cl_logits, grad_tissue_logits)).
    """
    cl_w = build_cl_weight_map(cl_labels, wml_labels)
    tissue_w = build_tissue_weight_map(cl_labels, wml_labels)
    if not tissue_head:
        tissue_w = np.zeros_like(tissue_w)
    cl_loss, g_cl = weighted_cross_entropy(cl_probs, cl_labels, cl_w)
    tissue_loss, g_tissue = weighted_cross_entropy(tissue_probs, tissue_labels, tissue_w)
    total = 0.5 * (cl_loss + tissue_loss)
    return total, (cl_loss, tissue_loss), (0.5 * g_cl, 0.5 * g_tissue)
