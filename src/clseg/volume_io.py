"""Every file a run leaves is written here, through `write_atomic`: a
reader sees the previous file or the whole new one, never a partial write.
The one exception is `loss.csv`, which `pipeline.run_training` appends to.

Records. The record at `<path>` is a header, the JSON document
`<path>.json`, plus a binary payload, `<path>.raw` (`write_record`,
`read_record`). The payload is written first, so a header on disk implies
its whole payload. Volumes and checkpoints are records: a volume's header
has exactly the keys of _HEADER_KEYS and its payload holds the voxels (see
below); `unet.save_checkpoint` describes a checkpoint's.

Documents. `write_json` writes a JSON document indented by two spaces with
a final newline, record headers included; `write_csv` writes a table in the
csv module's default dialect (comma-separated, CRLF line ends). Both build
the whole file in memory first.

Volumes. The payload is little-endian and x-fastest: the flat index of voxel
(z, y, x) is x + nx*(y + ny*z). In memory every volume is a numpy array
of shape ``dims`` = (nz, ny, nx), so C-order flattening matches the file
layout exactly and all modules index volumes as ``vol[z, y, x]``.
Header ``dims`` and ``spacing_mm`` are stored in the same (z, y, x) axis
order.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}

# Label code sets per volume kind, each 0..k. Values outside them are rejected.
LABEL_CODES = {
    "cl_labels": (0, 1, 2),      # 0 background, 1 leukocortical, 2 subpial/intracortical
    "tissue_labels": (0, 1, 2),  # 0 background, 1 WM, 2 GM
    "wml_labels": (0, 1),        # 0 no, 1 WML
}
TISSUE_WM, TISSUE_GM = 1, 2
CL_CLASS_NAMES = {1: "leukocortical", 2: "subpial_intracortical"}

KINDS = ("intensity",) + tuple(LABEL_CODES)
DEFAULT_SPACING_MM = (0.5, 0.5, 0.5)

# Per-subject volume names required by the training protocol.
CONTRAST_NAMES = ("mp2rage", "t2s_epi", "t2s_gre")
LABEL_NAMES = ("cl_labels", "tissue_labels", "wml_labels")
SUBJECT_VOLUME_NAMES = CONTRAST_NAMES + LABEL_NAMES

_HEADER_KEYS = ("dims", "spacing_mm", "dtype", "kind", "subject_id")


class VolumeError(Exception):
    """Base for all volume format errors."""


class VolumeValidationError(VolumeError):
    """A volume violates its type invariants (dims, spacing, codes, pairing)."""


class MissingVolumeFileError(VolumeError):
    pass


class HeaderParseError(VolumeError):
    """Header JSON is malformed or has missing/extra/ill-typed keys."""


class UnknownDtypeError(VolumeError):
    pass


class UnknownKindError(VolumeError):
    pass


class PayloadSizeError(VolumeError):
    """Raw payload length disagrees with the header dims."""


class GeometryMismatchError(VolumeError):
    """Volumes of one subject disagree in dims or spacing."""


@dataclass(frozen=True)
class VolumeHeader:
    dims: tuple[int, int, int]          # (nz, ny, nx)
    spacing_mm: tuple[float, float, float]
    dtype: str                          # "f32" | "u8"
    kind: str                           # "intensity" | label kinds
    subject_id: str


@dataclass
class Volume:
    header: VolumeHeader
    data: np.ndarray  # shape == header.dims, dtype per header


def validate_volume(v: Volume) -> None:
    """Raise VolumeValidationError unless `v` satisfies all invariants."""
    h = v.header
    if len(h.dims) != 3 or any(int(d) != d or d < 1 for d in h.dims):
        raise VolumeValidationError(f"dims must be 3 integers >= 1, got {h.dims!r}")
    if len(h.spacing_mm) != 3 or any(not (s > 0) for s in h.spacing_mm):
        raise VolumeValidationError(f"spacing_mm must be 3 positive reals, got {h.spacing_mm!r}")
    if h.dtype not in DTYPES:
        raise UnknownDtypeError(f"unknown dtype {h.dtype!r}, expected one of {sorted(DTYPES)}")
    if h.kind not in KINDS:
        raise UnknownKindError(f"unknown kind {h.kind!r}, expected one of {sorted(KINDS)}")
    if h.kind == "intensity" and h.dtype != "f32":
        raise VolumeValidationError("intensity volumes require dtype f32")
    if h.kind in LABEL_CODES and h.dtype != "u8":
        raise VolumeValidationError(f"{h.kind} volumes require dtype u8")
    if tuple(v.data.shape) != tuple(h.dims):
        raise VolumeValidationError(f"data shape {v.data.shape} != header dims {tuple(h.dims)}")
    if v.data.dtype != DTYPES[h.dtype]:
        # byte order matters only for f32; u8 has none
        if v.data.dtype.newbyteorder("<") != DTYPES[h.dtype]:
            raise VolumeValidationError(f"data dtype {v.data.dtype} != header dtype {h.dtype}")
    if h.kind in LABEL_CODES:
        # every code set is 0..k and u8 has no negatives, so the largest voxel
        # decides: one pass, no temporary
        codes = LABEL_CODES[h.kind]
        if int(v.data.max()) > codes[-1]:
            bad = sorted(set(np.unique(v.data).tolist()) - set(codes))
            raise VolumeValidationError(f"{h.kind} contains codes outside {codes}: {bad}")


def make_volume(data: np.ndarray, kind: str, subject_id: str = "",
                spacing_mm=DEFAULT_SPACING_MM) -> Volume:
    """Wrap an array as a Volume, casting to the kind's required dtype."""
    dtype = "f32" if kind == "intensity" else "u8"
    arr = np.ascontiguousarray(data, dtype=DTYPES.get(dtype))
    header = VolumeHeader(
        dims=tuple(int(d) for d in arr.shape),
        spacing_mm=tuple(float(s) for s in spacing_mm),
        dtype=dtype,
        kind=kind,
        subject_id=subject_id,
    )
    v = Volume(header, arr)
    validate_volume(v)
    return v


def write_atomic(path: Path, data: bytes) -> None:
    """Readers see the old file or the whole new one, never a partial write. A
    failed write removes its `<name>.tmp`; a kill mid-write can leave it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the first error is the one to report
            tmp.unlink()
        raise


def write_json(path: str | Path, doc) -> None:
    """`doc` indented by two spaces, with a final newline."""
    write_atomic(Path(path), (json.dumps(doc, indent=2) + "\n").encode("utf-8"))


def write_csv(path: str | Path, header, rows) -> None:
    """A header row then `rows`, in the csv module's default dialect."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_atomic(Path(path), buf.getvalue().encode("utf-8"))


def _record_paths(path: str | Path) -> tuple[Path, Path]:
    path = Path(path)
    return path.with_suffix(path.suffix + ".json"), path.with_suffix(path.suffix + ".raw")


def write_record(path: str | Path, header: dict, payload: bytes) -> None:
    """`<path>.raw` then `<path>.json`, each atomically; raises OSError."""
    json_path, raw_path = _record_paths(path)
    write_atomic(raw_path, payload)
    write_json(json_path, header)


def read_record(path: str | Path) -> tuple[dict, bytes]:
    """(header document, payload bytes) of the record at `path`. Raises
    MissingVolumeFileError when either file is missing, HeaderParseError when
    the header is not a JSON object and VolumeError when a read fails."""
    json_path, raw_path = _record_paths(path)
    for p in (json_path, raw_path):
        if not p.exists():
            raise MissingVolumeFileError(f"missing file {p}")
    try:
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        payload = raw_path.read_bytes()
    except OSError as e:
        raise VolumeError(f"I/O failure reading {e.filename}: {e.strerror}") from e
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise HeaderParseError(f"malformed header JSON {json_path}: {e}") from e
    if not isinstance(doc, dict):
        raise HeaderParseError(f"header {json_path} is not a JSON object")
    return doc, payload


def write_volume(v: Volume, path: str | Path) -> None:
    """Write the volume as a record; round-trips byte-identically."""
    validate_volume(v)
    h = v.header
    header = {  # in _HEADER_KEYS order, which keeps the header byte-stable
        "dims": list(h.dims),
        "spacing_mm": list(h.spacing_mm),
        "dtype": h.dtype,
        "kind": h.kind,
        "subject_id": h.subject_id,
    }
    try:
        write_record(path, header,
                     np.ascontiguousarray(v.data, dtype=DTYPES[h.dtype]).tobytes())
    except OSError as e:
        raise VolumeError(f"I/O failure writing {path}: {e}") from e


def read_volume(path: str | Path) -> Volume:
    doc, payload = read_record(path)
    json_path, raw_path = _record_paths(path)
    if set(doc) != set(_HEADER_KEYS):
        raise HeaderParseError(f"header {json_path} must have exactly keys {_HEADER_KEYS}")
    try:
        header = VolumeHeader(
            dims=tuple(int(d) for d in doc["dims"]),
            spacing_mm=tuple(float(s) for s in doc["spacing_mm"]),
            dtype=str(doc["dtype"]),
            kind=str(doc["kind"]),
            subject_id=str(doc["subject_id"]),
        )
    except (TypeError, ValueError) as e:
        raise HeaderParseError(f"ill-typed header field in {json_path}: {e}") from e
    if header.dtype not in DTYPES:
        raise UnknownDtypeError(f"unknown dtype {header.dtype!r} in {json_path}")
    if header.kind not in KINDS:
        raise UnknownKindError(f"unknown kind {header.kind!r} in {json_path}")

    expected = int(np.prod(header.dims)) * DTYPES[header.dtype].itemsize
    if len(payload) != expected:
        raise PayloadSizeError(
            f"{raw_path}: payload is {len(payload)} bytes, header implies {expected}")
    data = np.frombuffer(payload, dtype=DTYPES[header.dtype]).reshape(header.dims).copy()
    v = Volume(header, data)
    validate_volume(v)
    return v


def read_subject(subject_dir: str | Path,
                 names: tuple[str, ...] = SUBJECT_VOLUME_NAMES) -> dict[str, Volume]:
    """Read the named volumes of one subject directory (all six by
    default, mp2rage among them), checking their geometry against mp2rage."""
    subject_dir = Path(subject_dir)
    vols = {}
    for name in names:
        vols[name] = read_volume(subject_dir / name)
    ref = vols["mp2rage"].header
    for name, v in vols.items():
        if v.header.dims != ref.dims or v.header.spacing_mm != ref.spacing_mm:
            raise GeometryMismatchError(
                f"{subject_dir}: {name} geometry {v.header.dims}/{v.header.spacing_mm} "
                f"!= mp2rage {ref.dims}/{ref.spacing_mm}")
    return vols
