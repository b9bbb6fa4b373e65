"""Central finite-difference gradient checking.

The checker perturbs a subsample of coordinates of each named tensor and
compares the central difference of a scalar loss against the supplied
analytic gradient.

Non-smooth coordinates are excluded by detection: the loss function may
return an activation pattern alongside the loss (ReLU sign masks, pooling
argmax choices, summarized as integers), and any coordinate whose pattern
differs between the +h and -h evaluations sits on a kink or tie where
central differences are meaningless. Detection never consults the analytic
gradient, so a wrong backward pass cannot hide behind it. A coarse
one-sided-difference mismatch test remains as a fallback when no pattern
is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from clseg.unet import _DECODER, _ENCODER

DEFAULT_REL_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-6
# fallback detector: one-sided differences disagreeing this badly can only
# mean a kink crossed the interval
KINK_REL_MISMATCH = 1e-3


@dataclass
class GroupReport:
    name: str
    max_rel_error: float
    n_checked: int
    n_skipped: int


@dataclass
class GradCheckReport:
    groups: list[GroupReport]
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max((g.max_rel_error for g in self.groups), default=0.0)

    @property
    def n_checked(self) -> int:
        return sum(g.n_checked for g in self.groups)

    @property
    def n_skipped(self) -> int:
        return sum(g.n_skipped for g in self.groups)

    @property
    def passed(self) -> bool:
        return all(g.max_rel_error < self.tolerance for g in self.groups)

    def summary(self) -> str:
        lines = [
            f"{g.name}: max_rel_err={g.max_rel_error:.3e} "
            f"checked={g.n_checked} skipped={g.n_skipped}"
            for g in self.groups
        ]
        verdict = "PASS" if self.passed else "FAIL"
        return f"gradient check {verdict} (tol {self.tolerance:g})\n" + "\n".join(lines)


def _patterns_equal(pa, pb) -> bool:
    if pa is None or pb is None:
        return True
    a = np.asarray(pa)
    b = np.asarray(pb)
    return a.shape == b.shape and bool(np.array_equal(a, b))


def gradient_check(loss_fn: Callable,
                   tensors: dict[str, np.ndarray],
                   analytic_grads: dict[str, np.ndarray],
                   tolerance: float = DEFAULT_TOLERANCE,
                   rel_step: float = DEFAULT_REL_STEP,
                   max_coords_per_group: int = 24,
                   rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare `analytic_grads` to central differences of `loss_fn`.

    `loss_fn` reads the arrays in `tensors` (perturbed in place, then
    restored) and returns either a scalar loss or (loss, pattern) where
    `pattern` identifies the active piecewise-linear region. Everything
    must be float64; single precision is useless at tolerance 1e-6.
    """
    rng = rng or np.random.default_rng(0)
    for name, t in tensors.items():
        if t.dtype != np.float64:
            raise TypeError(f"gradient_check requires float64 tensors, {name} is {t.dtype}")

    def evaluate():
        res = loss_fn()
        if isinstance(res, tuple):
            return float(res[0]), res[1]
        return float(res), None

    f0, _ = evaluate()
    groups = []
    for name, t in tensors.items():
        grad = analytic_grads[name]
        if grad.shape != t.shape:
            raise ValueError(f"analytic grad shape mismatch for {name}")
        flat = t.reshape(-1)
        gflat = grad.reshape(-1)
        n = flat.size
        idx = rng.choice(n, size=min(max_coords_per_group, n), replace=False)
        max_err = 0.0
        checked = skipped = 0
        for i in idx:
            orig = flat[i]
            h = rel_step * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus, pat_plus = evaluate()
            flat[i] = orig - h
            f_minus, pat_minus = evaluate()
            flat[i] = orig
            if not _patterns_equal(pat_plus, pat_minus):
                skipped += 1
                continue
            fwd = (f_plus - f0) / h
            bwd = (f0 - f_minus) / h
            if abs(fwd - bwd) > KINK_REL_MISMATCH * (abs(fwd) + abs(bwd) + 1.0):
                skipped += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(gflat[i])
            # the floor keeps float roundoff in the differences (about
            # eps*|f|/h) from registering as error on zero-gradient coords
            denom = max(abs(analytic), abs(numeric), 1e-4)
            max_err = max(max_err, abs(analytic - numeric) / denom)
            checked += 1
        groups.append(GroupReport(name, max_err, checked, skipped))
    return GradCheckReport(groups=groups, tolerance=tolerance)


def relu_pattern(pre: np.ndarray) -> tuple[int, int, int]:
    """Summary of a ReLU sign mask: (count, index sum, index square sum)."""
    on = np.flatnonzero(pre > 0)
    return (int(on.size), int(on.sum()), int((on.astype(np.int64) ** 2).sum()))


def argmax_pattern(argmax: np.ndarray) -> tuple[int, int]:
    """Summary of pooling argmax choices, position-weighted against swaps."""
    a = argmax.astype(np.int64).ravel()
    pos = np.arange(1, a.size + 1, dtype=np.int64)
    return (int(a.sum()), int((a * pos).sum()))


def activation_pattern(cache: dict) -> np.ndarray:
    """Identify the active piecewise-linear region of a cached forward pass
    of the U-Net.

    Concatenates ReLU sign-mask and pooling argmax summaries; two forward
    passes lie in the same linear region iff their patterns are equal.
    """
    parts: list[int] = []
    for name in _ENCODER + _DECODER:
        _, pre, _ = cache[name]
        parts.extend(relu_pattern(pre))
    am1, am2 = cache["pool"]
    parts.extend(argmax_pattern(am1))
    parts.extend(argmax_pattern(am2))
    return np.array(parts, dtype=np.int64)
