"""Lesion-wise evaluation: labelled connected components, size thresholds,
detection matching, LTPR/LFPR/AVD/classification accuracy, pooled rates,
Wilcoxon signed-rank tests, Bland-Altman agreement, and LTPR-vs-size curves.

Label volumes are numpy arrays indexed [z, y, x] (see volume_io). Lesion
classes follow the cl_labels codes: 1 leukocortical, 2 subpial/intracortical.

Lesions are 26-connected components (CONNECTIVITY, a constant, as the
sampler's lesion list and the cohort check share `label_lesions`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .volume_io import DEFAULT_SPACING_MM, write_csv, write_json

DEFAULT_MIN_LESION_VOXELS = 6
SIZE_CURVE_THRESHOLDS = (6, 12, 24, 48)
EXACT_WILCOXON_MAX_N = 25
CONNECTIVITY = 26
SIGNIFICANCE_ALPHA = 0.05
# the 13 of a voxel's 26 neighbours that come after it in C order
_LATER_NEIGHBOURS = np.array([d for d in itertools.product((-1, 0, 1), repeat=3)
                              if d > (0, 0, 0)])


@dataclass(frozen=True)
class EvalConfig:
    min_lesion_voxels: int = DEFAULT_MIN_LESION_VOXELS

    def validate(self) -> None:
        if self.min_lesion_voxels < 1:
            raise ValueError("min_lesion_voxels must be >= 1")


class WilcoxonError(ValueError):
    """Too few nonzero paired differences for the signed-rank test."""


@dataclass
class WilcoxonResult:
    n_effective: int
    w_statistic: float          # sum of ranks of positive differences (a - b)
    p_two_sided: float
    method: str                 # "exact" | "normal_approx"


def label_lesions(labels: np.ndarray):
    """Per-class 26-connected components as one labelled volume.

    Returns (ids, classes, sizes): ids is an int32 volume, 0 on background
    and k on component k; classes[k] and sizes[k] are the class code and
    voxel count of component k, entry 0 being the background. Components
    never span class codes. They are numbered 1..n by their first voxel in
    x-fastest order, i.e. by the C-order flat index of the [z, y, x] array.

    The components are the union-find sets of the lesion voxels, joined
    along every edge to one of the 13 later neighbours of the same code,
    with each edge's larger root hooked onto its smaller one and pointer
    jumping after each round (Shiloach & Vishkin, 1982). A root is thus
    its component's first voxel.
    """
    labels = np.asarray(labels)
    if labels.ndim != 3:
        raise ValueError(f"labels must be 3-D, got shape {labels.shape}")
    at = np.flatnonzero(labels)             # lesion voxels, ascending
    if not at.size:
        return np.zeros(labels.shape, np.int32), np.zeros(1, np.int64), np.array([labels.size])
    # the lesion voxels' bounding box holds every component whole, and its
    # C order is theirs; a zero layer around it keeps each neighbour
    # offset from wrapping a row
    box = np.pad(labels[tuple(slice(c.min(), c.max() + 1)
                              for c in np.unravel_index(at, labels.shape))], 1)
    codes = box.reshape(-1)
    pos = np.flatnonzero(codes)             # the lesion voxels again, in the box
    code = codes[pos]
    strides = np.array(box.strides) // box.itemsize
    a, b = [], []
    for off in _LATER_NEIGHBOURS @ strides:
        same = np.flatnonzero(codes[pos + off] == code)
        a.append(same)
        b.append(np.searchsorted(pos, pos[same] + off))
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(pos.size)
    while a.size:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    root = parent == np.arange(pos.size)
    new = np.cumsum(root, dtype=np.int32)[parent]
    ids = np.zeros(labels.shape, dtype=np.int32)
    ids.reshape(-1)[at] = new
    classes = np.zeros(1 + int(root.sum()), dtype=np.int64)
    classes[1:] = code[root]
    sizes = np.bincount(new, minlength=len(classes))
    sizes[0] = labels.size - at.size
    return ids, classes, sizes


def rates(n_ref: int, n_pred: int, n_detected: int, n_fp: int, n_correct: int) -> dict:
    """LTPR, LFPR and classification accuracy from lesion counts, with the
    empty-denominator conventions (no reference lesions -> LTPR 1, no
    predictions -> LFPR 0, nothing detected -> accuracy 1) flagged."""
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


def _ref_types(ids: np.ndarray, n_ids: int,
               lesion_records: list[dict] | None) -> list[int | None]:
    """Ground-truth lesion type of each reference id below n_ids (entry 0,
    the background, stays None), found by locating each record's centroid
    inside a component. The first record to land on a component wins."""
    types: list[int | None] = [None] * n_ids
    voxels = None
    for rec in lesion_records or ():
        centroid = tuple(int(round(x)) for x in rec["centroid"])
        # bounds checked explicitly: a negative index would wrap around
        inside = all(0 <= v < m for v, m in zip(centroid, ids.shape))
        cid = int(ids[centroid]) if inside else 0
        if cid == 0 and n_ids > 1:
            # centroid of a non-convex blob can fall outside; use the nearest
            # component, the lowest id among equally near ones
            if voxels is None:
                voxels = np.argwhere(ids)
            d = np.sum((voxels - np.array(centroid)) ** 2, axis=1)
            cid = int(ids[tuple(voxels[d == d.min()].T)].min())
        if cid and types[cid] is None:
            types[cid] = int(rec["type"])
    return types


def evaluate_patient(subject_id: str, ref_labels: np.ndarray, pred_labels: np.ndarray,
                     cfg: EvalConfig = EvalConfig(), spacing_mm=DEFAULT_SPACING_MM,
                     lesion_records: list[dict] | None = None,
                     thresholds=SIZE_CURVE_THRESHOLDS) -> PatientEval:
    """Lesion-wise evaluation of one patient at cfg.min_lesion_voxels, plus
    per-reference detection records at each size threshold.

    At a threshold t only components of at least t voxels take part, on
    both sides. Matching is class-agnostic and many-to-many: a reference
    lesion is detected when any predicted component overlaps it in at least
    one voxel, and a predicted component that overlaps no reference lesion
    is a false positive. The predicted class of a detected lesion is the
    majority class of the predicted voxels on it, ties going to class 1.
    """
    if ref_labels.shape != pred_labels.shape:
        raise ValueError("reference and prediction shapes differ")
    ref_ids, ref_classes, ref_sizes = label_lesions(ref_labels)
    pred_ids, pred_classes, pred_sizes = label_lesions(pred_labels)
    n_ref_ids, n_pred_ids = len(ref_sizes), len(pred_sizes)
    ref_types = _ref_types(ref_ids, n_ref_ids, lesion_records)
    voxel_ul = float(np.prod(spacing_mm))
    both = (ref_ids != 0) & (pred_ids != 0)
    ref_hit, pred_hit = ref_ids[both], pred_ids[both]   # one pair per overlapping voxel
    pred_hit_class = pred_classes[pred_hit]

    by_threshold = {}
    for t in sorted(set(thresholds) | {cfg.min_lesion_voxels}):
        ref_kept = ref_sizes >= t
        pred_kept = pred_sizes >= t
        ref_kept[0] = pred_kept[0] = False
        live = ref_kept[ref_hit] & pred_kept[pred_hit]
        r, c = ref_hit[live], pred_hit_class[live]
        detected = np.bincount(r, minlength=n_ref_ids) > 0
        fp = pred_kept & (np.bincount(pred_hit[live], minlength=n_pred_ids) == 0)
        majority = np.where(np.bincount(r[c == 1], minlength=n_ref_ids)
                            >= np.bincount(r[c == 2], minlength=n_ref_ids), 1, 2)
        kept = np.flatnonzero(ref_kept)
        n_pred, n_fp = int(pred_kept.sum()), int(fp.sum())
        if t == cfg.min_lesion_voxels:
            metrics = rates(len(kept), n_pred, int(detected.sum()), n_fp,
                            int((detected & (majority == ref_classes)).sum()))
            # summed in id order, as floats, so totals keep their rounding
            ref_total = sum(int(n) * voxel_ul for n in ref_sizes[ref_kept])
            pred_total = sum(int(n) * voxel_ul for n in pred_sizes[pred_kept])
        by_threshold[t] = {
            "records": [
                {"class": int(ref_classes[k]), "type": ref_types[k],
                 "size_voxels": int(ref_sizes[k]), "detected": bool(detected[k])}
                for k in kept
            ],
            "n_pred": n_pred,
            "n_fp": n_fp,
        }

    return PatientEval(
        subject_id=subject_id,
        metrics=metrics,
        ref_total_ul=ref_total,
        pred_total_ul=pred_total,
        avd=avd(ref_total, pred_total),
        by_threshold=by_threshold,
    )


def pooled_row(patients: list[PatientEval]) -> dict:
    pooled = rates(*(sum(p.metrics[k] for p in patients) for k in
                     ("n_ref", "n_pred", "n_detected", "n_fp", "n_correct_class")))
    avds = [p.avd for p in patients if p.avd is not None]
    return {
        "ltpr": pooled["ltpr"],
        "lfpr": pooled["lfpr"],
        "avd": float(np.mean(avds)) if avds else None,
        "accuracy": pooled["accuracy"],
        "n_ref": pooled["n_ref"],
        "n_detected": pooled["n_detected"],
        "n_pred": pooled["n_pred"],
        "n_fp": pooled["n_fp"],
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
                    "connectivity": CONNECTIVITY,
                    "significance_alpha": SIGNIFICANCE_ALPHA,
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
                        "significant": bool(res.p_two_sided < SIGNIFICANCE_ALPHA),
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
    write_json(out_dir / "report.json", report)
    models = [(name, report["models"][name]) for name in sorted(report["models"])]

    cols = ("ltpr", "lfpr", "avd", "accuracy")
    write_csv(out_dir / "table1.csv", ("model",) + cols,
              ([name] + [m["table1"][k] for k in cols] for name, m in models))

    cols = ("min_voxels", "group", "detected", "total", "ltpr")
    write_csv(out_dir / "ltpr_by_size.csv", ("model",) + cols,
              ([name] + [row[k] for k in cols]
               for name, m in models for row in m["ltpr_by_size"]))

    cols = ("bias", "lower_limit", "upper_limit")
    write_csv(out_dir / "bland_altman.csv",
              ("model", "subject_id", "mean_ul", "diff_ul") + cols,
              ([name, q["subject_id"], q["mean_ul"], q["diff_ul"]]
               + [m["bland_altman"][k] for k in cols]
               for name, m in models for q in m["bland_altman"]["pairs"]))

    cols = ("metric", "model_a", "model_b", "n_effective", "w_statistic", "p_two_sided",
            "method", "significant", "note")
    write_csv(out_dir / "wilcoxon.csv", cols,
              ([row[k] for k in cols] for row in report["wilcoxon"]))
