"""Lesion-wise evaluation: connected components, size filtering, detection
matching, LTPR/LFPR/AVD/classification accuracy, patient-wise rates,
Wilcoxon signed-rank tests, Bland-Altman agreement, and LTPR-vs-size curves.

Label volumes are numpy arrays indexed [z, y, x] (see volume_io). Lesion
classes follow the cl_labels codes: 1 leukocortical, 2 subpial/intracortical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .volume_io import DEFAULT_SPACING_MM

# Matching is class-agnostic: a reference lesion counts as detected when any
# predicted component overlaps it in at least one voxel.
DEFAULT_MIN_LESION_VOXELS = 6
SIZE_CURVE_THRESHOLDS = (6, 12, 24, 48)
EXACT_WILCOXON_MAX_N = 25


@dataclass(frozen=True)
class EvalConfig:
    min_lesion_voxels: int = DEFAULT_MIN_LESION_VOXELS
    connectivity: int = 26
    significance_alpha: float = 0.05

    def validate(self) -> None:
        if self.min_lesion_voxels < 1:
            raise ValueError("min_lesion_voxels must be >= 1")
        if self.connectivity not in (6, 18, 26):
            raise ValueError("connectivity must be 6, 18, or 26")
        if not (0.0 < self.significance_alpha < 1.0):
            raise ValueError("significance_alpha must be in (0, 1)")


@dataclass
class LesionComponent:
    id: int
    cl_class: int
    voxels: np.ndarray          # (n, 3) int array of (z, y, x)
    size_voxels: int
    volume_ul: float
    min_linear_index: int

    @property
    def centroid(self) -> np.ndarray:
        return self.voxels.mean(axis=0)


class WilcoxonError(ValueError):
    """Too few nonzero paired differences for the signed-rank test."""


@dataclass
class WilcoxonResult:
    n_effective: int
    w_statistic: float          # sum of ranks of positive differences (a - b)
    p_two_sided: float
    method: str                 # "exact" | "normal_approx"


def _structure(connectivity: int) -> np.ndarray:
    rank = {6: 1, 18: 2, 26: 3}[connectivity]
    return ndimage.generate_binary_structure(3, rank)


def connected_components(labels: np.ndarray, connectivity: int = 26,
                         spacing_mm=DEFAULT_SPACING_MM) -> list[LesionComponent]:
    """Per-class connected components, ids ordered by minimum linear index.

    Components never span different class codes. Linear index means the
    x-fastest flat index, i.e. the C-order flat index of the [z, y, x] array.
    """
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise ValueError(f"labels must be 3-D, got shape {labels.shape}")
    voxel_ul = float(np.prod(spacing_mm))
    structure = _structure(connectivity)
    comps = []
    for cls in np.unique(labels):
        if cls == 0:
            continue
        lab, n = ndimage.label(labels == cls, structure=structure)
        objects = ndimage.find_objects(lab)
        for comp_id in range(1, n + 1):
            slc = objects[comp_id - 1]
            local = np.argwhere(lab[slc] == comp_id)
            voxels = local + np.array([s.start for s in slc])
            flat = np.ravel_multi_index(voxels.T, labels.shape)
            comps.append(LesionComponent(
                id=-1,
                cl_class=int(cls),
                voxels=voxels,
                size_voxels=int(len(voxels)),
                volume_ul=len(voxels) * voxel_ul,
                min_linear_index=int(flat.min()),
            ))
    comps.sort(key=lambda c: c.min_linear_index)
    for i, c in enumerate(comps):
        c.id = i
    return comps


def filter_min_size(components: list[LesionComponent],
                    min_voxels: int) -> list[LesionComponent]:
    return [c for c in components if c.size_voxels >= min_voxels]


@dataclass
class Matching:
    detected_ref_ids: set[int]
    fp_pred_ids: set[int]
    majority_pred_class: dict[int, int]  # ref id -> majority class of overlapping pred voxels


def match_lesions(ref: list[LesionComponent], pred: list[LesionComponent],
                  shape: tuple[int, int, int]) -> Matching:
    """Class-agnostic any-overlap matching; many-to-many overlaps allowed."""
    pred_id_map = np.zeros(shape, dtype=np.int32)   # pred component id + 1
    pred_class_map = np.zeros(shape, dtype=np.uint8)
    for c in pred:
        zi, yi, xi = c.voxels.T
        pred_id_map[zi, yi, xi] = c.id + 1
        pred_class_map[zi, yi, xi] = c.cl_class

    detected: set[int] = set()
    matched_pred: set[int] = set()
    majority: dict[int, int] = {}
    for c in ref:
        zi, yi, xi = c.voxels.T
        hit_ids = pred_id_map[zi, yi, xi]
        hits = hit_ids[hit_ids > 0]
        if hits.size == 0:
            continue
        detected.add(c.id)
        matched_pred.update(int(i) - 1 for i in np.unique(hits))
        classes = pred_class_map[zi, yi, xi]
        classes = classes[classes > 0]
        n1 = int((classes == 1).sum())
        n2 = int((classes == 2).sum())
        majority[c.id] = 1 if n1 >= n2 else 2  # tie breaks to class 1
    fp = {c.id for c in pred} - matched_pred
    return Matching(detected_ref_ids=detected, fp_pred_ids=fp, majority_pred_class=majority)


def lesion_metrics(matching: Matching, ref: list[LesionComponent],
                   pred: list[LesionComponent]) -> dict:
    """LTPR, LFPR and classification accuracy with empty-denominator conventions
    (no reference lesions -> LTPR 1, no predictions -> LFPR 0, nothing
    detected -> accuracy 1), flagged in the output."""
    n_ref = len(ref)
    n_pred = len(pred)
    n_detected = len(matching.detected_ref_ids)
    n_fp = len(matching.fp_pred_ids)
    ref_class = {c.id: c.cl_class for c in ref}
    n_correct = sum(
        1 for rid in matching.detected_ref_ids
        if matching.majority_pred_class[rid] == ref_class[rid]
    )
    flags = []
    if n_ref == 0:
        flags.append("ltpr_empty_reference")
    if n_pred == 0:
        flags.append("lfpr_empty_prediction")
    if n_detected == 0:
        flags.append("accuracy_no_detections")
    return {
        "ltpr": n_detected / n_ref if n_ref else 1.0,
        "lfpr": n_fp / n_pred if n_pred else 0.0,
        "accuracy": n_correct / n_detected if n_detected else 1.0,
        "n_ref": n_ref,
        "n_pred": n_pred,
        "n_detected": n_detected,
        "n_fp": n_fp,
        "n_correct_class": n_correct,
        "flags": flags,
    }


def avd(ref_volume_ul: float, pred_volume_ul: float) -> float | None:
    """Absolute volume difference |ref - pred| / ref; None when ref is 0."""
    if ref_volume_ul <= 0:
        return None
    return abs(ref_volume_ul - pred_volume_ul) / ref_volume_ul


def wilcoxon_signed_rank(a, b, method: str = "auto") -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks. The reported statistic is the sum of ranks of positive a-b
    differences. With method "auto", p is exact (distribution of the
    statistic over all sign assignments) for n <= 25, else a normal
    approximation with tie correction and continuity correction; "exact"
    and "normal_approx" force a method.
    """
    if method not in ("auto", "exact", "normal_approx"):
        raise ValueError(f"unknown method {method!r}")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D of equal length")
    d = a - b
    d = d[d != 0]
    n = len(d)
    if n < 5:
        raise WilcoxonError(f"need >= 5 nonzero differences, got {n}")
    order = np.argsort(np.abs(d), kind="stable")
    ranks = np.empty(n)
    # average ranks over ties in |d|
    sorted_abs = np.abs(d)[order]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_abs[j] == sorted_abs[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # mean of ranks i+1..j
        i = j
    w_plus = float(ranks[d > 0].sum())

    exact = n <= EXACT_WILCOXON_MAX_N if method == "auto" else method == "exact"
    if exact:
        # Distribution of W+ over the 2^n equiprobable sign assignments,
        # built by convolving each rank's {0, r} contribution. Ranks are
        # multiples of 0.5, so doubling makes them integers.
        r2 = np.rint(2 * ranks).astype(int)
        s2 = int(r2.sum())
        dist = np.zeros(s2 + 1)
        dist[0] = 1.0
        for r in r2:
            nxt = dist.copy()
            nxt[r:] += dist[: s2 + 1 - r]
            dist = nxt
        dist /= 2.0 ** n
        w2 = int(round(2 * w_plus))
        lower = float(dist[: w2 + 1].sum())
        upper = float(dist[w2:].sum())
        p = min(1.0, 2.0 * min(lower, upper))
        return WilcoxonResult(n, w_plus, p, "exact")

    counts = np.unique(ranks, return_counts=True)[1]
    tie_term = float(((counts ** 3 - counts)).sum()) / 48.0
    mu = n * (n + 1) / 4.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    delta = w_plus - mu
    # continuity correction shrinks |delta| by 0.5
    z = (delta - 0.5 * np.sign(delta)) / sigma if delta != 0 else 0.0
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(n, w_plus, p, "normal_approx")


# ---------------------------------------------------------------------------
# Per-patient evaluation and cohort report
# ---------------------------------------------------------------------------


@dataclass
class PatientEval:
    subject_id: str
    metrics: dict                     # at the configured min size
    ref_total_ul: float
    pred_total_ul: float
    avd: float | None
    by_threshold: dict[int, dict]     # min_voxels -> per-ref detection records
    ref_records: list[dict]           # per ref component: size, class, detected, type


def _ref_types_from_records(ref_comps: list[LesionComponent],
                            lesion_records: list[dict] | None,
                            shape: tuple[int, int, int]) -> dict[int, int | None]:
    """Assign a ground-truth lesion type to each reference component by
    locating each record's centroid inside a component."""
    types: dict[int, int | None] = {c.id: None for c in ref_comps}
    if not lesion_records:
        return types
    id_map = np.zeros(shape, dtype=np.int32)   # ref component id + 1
    for c in ref_comps:
        zi, yi, xi = c.voxels.T
        id_map[zi, yi, xi] = c.id + 1
    for rec in lesion_records:
        centroid = tuple(int(round(x)) for x in rec["centroid"])
        # bounds checked explicitly: a negative index would wrap around
        inside = all(0 <= v < n for v, n in zip(centroid, shape))
        cid = int(id_map[centroid]) - 1 if inside else -1
        if cid < 0:
            # centroid of a non-convex blob can fall outside; use nearest comp
            best, best_d = None, None
            for c in ref_comps:
                d = float(np.min(np.sum((c.voxels - np.array(centroid)) ** 2, axis=1)))
                if best_d is None or d < best_d:
                    best, best_d = c.id, d
            cid = best
        if cid is not None and types[cid] is None:
            types[cid] = int(rec["type"])
    return types


def evaluate_patient(subject_id: str, ref_labels: np.ndarray, pred_labels: np.ndarray,
                     cfg: EvalConfig = EvalConfig(), spacing_mm=DEFAULT_SPACING_MM,
                     lesion_records: list[dict] | None = None,
                     thresholds=SIZE_CURVE_THRESHOLDS) -> PatientEval:
    if ref_labels.shape != pred_labels.shape:
        raise ValueError("reference and prediction shapes differ")
    ref_all = connected_components(ref_labels, cfg.connectivity, spacing_mm)
    pred_all = connected_components(pred_labels, cfg.connectivity, spacing_mm)
    ref_types = _ref_types_from_records(ref_all, lesion_records, ref_labels.shape)

    def run(min_voxels):
        ref = filter_min_size(ref_all, min_voxels)
        pred = filter_min_size(pred_all, min_voxels)
        matching = match_lesions(ref, pred, ref_labels.shape)
        return ref, pred, matching

    ref, pred, matching = run(cfg.min_lesion_voxels)
    metrics = lesion_metrics(matching, ref, pred)
    ref_total = sum(c.volume_ul for c in ref)
    pred_total = sum(c.volume_ul for c in pred)

    by_threshold = {}
    for t in sorted(set(thresholds) | {cfg.min_lesion_voxels}):
        rt, pt, mt = run(t)
        by_threshold[t] = {
            "records": [
                {"class": c.cl_class, "type": ref_types[c.id],
                 "size_voxels": c.size_voxels, "detected": c.id in mt.detected_ref_ids}
                for c in rt
            ],
            "n_pred": len(pt),
            "n_fp": len(mt.fp_pred_ids),
        }

    ref_records = [
        {"class": c.cl_class, "type": ref_types[c.id], "size_voxels": c.size_voxels,
         "volume_ul": c.volume_ul, "detected": c.id in matching.detected_ref_ids}
        for c in ref
    ]
    return PatientEval(
        subject_id=subject_id,
        metrics=metrics,
        ref_total_ul=ref_total,
        pred_total_ul=pred_total,
        avd=avd(ref_total, pred_total),
        by_threshold=by_threshold,
        ref_records=ref_records,
    )


def pooled_row(patients: list[PatientEval]) -> dict:
    n_ref = sum(p.metrics["n_ref"] for p in patients)
    n_det = sum(p.metrics["n_detected"] for p in patients)
    n_pred = sum(p.metrics["n_pred"] for p in patients)
    n_fp = sum(p.metrics["n_fp"] for p in patients)
    n_correct = sum(p.metrics["n_correct_class"] for p in patients)
    avds = [p.avd for p in patients if p.avd is not None]
    return {
        "ltpr": n_det / n_ref if n_ref else 1.0,
        "lfpr": n_fp / n_pred if n_pred else 0.0,
        "avd": float(np.mean(avds)) if avds else None,
        "accuracy": n_correct / n_det if n_det else 1.0,
        "n_ref": n_ref,
        "n_detected": n_det,
        "n_pred": n_pred,
        "n_fp": n_fp,
        "n_patients_avd_missing": sum(1 for p in patients if p.avd is None),
    }


def _size_curves(patients: list[PatientEval]) -> list[dict]:
    thresholds = sorted(set().union(*(p.by_threshold.keys() for p in patients)))
    rows = []
    for t in thresholds:
        groups: dict[str, list[bool]] = {"overall": []}
        for p in patients:
            for rec in p.by_threshold[t]["records"]:
                groups["overall"].append(rec["detected"])
                groups.setdefault(f"class_{rec['class']}", []).append(rec["detected"])
                if rec["type"] is not None:
                    groups.setdefault(f"type_{rec['type']}", []).append(rec["detected"])
        for name in sorted(groups):
            flags = groups[name]
            rows.append({
                "min_voxels": t,
                "group": name,
                "total": len(flags),
                "detected": int(sum(flags)),
                "ltpr": (sum(flags) / len(flags)) if flags else 1.0,
            })
    return rows


def _bland_altman(patients: list[PatientEval]) -> dict:
    pairs = [
        {"subject_id": p.subject_id,
         "mean_ul": 0.5 * (p.ref_total_ul + p.pred_total_ul),
         "diff_ul": p.ref_total_ul - p.pred_total_ul}
        for p in patients
    ]
    diffs = np.array([q["diff_ul"] for q in pairs], dtype=float)
    bias = float(diffs.mean()) if len(diffs) else 0.0
    sd = float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0
    return {
        "pairs": pairs,
        "bias": bias,
        "lower_limit": bias - 1.96 * sd,
        "upper_limit": bias + 1.96 * sd,
    }


def build_report(model_patients: dict[str, list[PatientEval]],
                 cfg: EvalConfig = EvalConfig()) -> dict:
    """Assemble the full evaluation report over one or more models.

    Model coverage must be identical: the patient-wise Wilcoxon tests pair
    subjects across models.
    """
    coverages = {m: tuple(p.subject_id for p in pats) for m, pats in model_patients.items()}
    if len(set(coverages.values())) > 1:
        raise ValueError(f"models cover different cohorts: {coverages}")

    report: dict = {"min_lesion_voxels": cfg.min_lesion_voxels,
                    "connectivity": cfg.connectivity,
                    "significance_alpha": cfg.significance_alpha,
                    "models": {}, "wilcoxon": []}
    for name, pats in model_patients.items():
        report["models"][name] = {
            "table1": pooled_row(pats),
            "per_patient": [
                {"subject_id": p.subject_id, **p.metrics, "avd": p.avd,
                 "ref_total_ul": p.ref_total_ul, "pred_total_ul": p.pred_total_ul}
                for p in pats
            ],
            "ltpr_by_size": _size_curves(pats),
            "bland_altman": _bland_altman(pats),
        }

    names = sorted(model_patients)
    for i, ma in enumerate(names):
        for mb in names[i + 1:]:
            for metric in ("ltpr", "lfpr"):
                va = [p.metrics[metric] for p in model_patients[ma]]
                vb = [p.metrics[metric] for p in model_patients[mb]]
                row = {"model_a": ma, "model_b": mb, "metric": metric}
                try:
                    res = wilcoxon_signed_rank(va, vb)
                    row.update({
                        "n_effective": res.n_effective,
                        "w_statistic": res.w_statistic,
                        "p_two_sided": res.p_two_sided,
                        "method": res.method,
                        "significant": bool(res.p_two_sided < cfg.significance_alpha),
                        "note": "",
                    })
                except WilcoxonError as e:
                    row.update({
                        "n_effective": 0, "w_statistic": None, "p_two_sided": None,
                        "method": "none", "significant": False,
                        "note": f"N.S. ({e})",
                    })
                report["wilcoxon"].append(row)
    return report


def write_report_files(report: dict, out_dir: str | Path) -> None:
    """Emit report.json plus flat table1/ltpr_by_size/bland_altman/wilcoxon CSVs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    with open(out_dir / "table1.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "ltpr", "lfpr", "avd", "accuracy"])
        for name in sorted(report["models"]):
            row = report["models"][name]["table1"]
            w.writerow([name, row["ltpr"], row["lfpr"], row["avd"], row["accuracy"]])

    with open(out_dir / "ltpr_by_size.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "min_voxels", "group", "detected", "total", "ltpr"])
        for name in sorted(report["models"]):
            for row in report["models"][name]["ltpr_by_size"]:
                w.writerow([name, row["min_voxels"], row["group"],
                            row["detected"], row["total"], row["ltpr"]])

    with open(out_dir / "bland_altman.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["model", "subject_id", "mean_ul", "diff_ul",
                    "bias", "lower_limit", "upper_limit"])
        for name in sorted(report["models"]):
            ba = report["models"][name]["bland_altman"]
            for q in ba["pairs"]:
                w.writerow([name, q["subject_id"], q["mean_ul"], q["diff_ul"],
                            ba["bias"], ba["lower_limit"], ba["upper_limit"]])

    with open(out_dir / "wilcoxon.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["metric", "model_a", "model_b", "n_effective",
                    "w_statistic", "p_two_sided", "method", "significant", "note"])
        for row in report["wilcoxon"]:
            w.writerow([row["metric"], row["model_a"], row["model_b"],
                        row["n_effective"], row["w_statistic"], row["p_two_sided"],
                        row["method"], row["significant"], row["note"]])
