"""CSV input and output.

Paired samples travel in a single file with header ``x1,...,xd,y1,...,yd``
and one row per pair, which keeps the pairing explicit. Floats are written
with 17 significant digits, so a write/read round trip is exact. Distance
matrices are plain N x N numeric CSVs and must be exactly symmetric.
"""

from __future__ import annotations

import csv
import math
from io import StringIO
from pathlib import Path

import numpy as np

from .core import PairedSample, ValidationError
from .graph import DistanceMatrix, precomputed_distance

__all__ = ["read_paired_csv", "write_paired_csv", "read_distance_csv"]

FLOAT_FORMAT = ".17g"


def _expected_header(d: int) -> list[str]:
    return [f"x{j}" for j in range(1, d + 1)] + [f"y{j}" for j in range(1, d + 1)]


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8; a bad byte fails naming its 1-based line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}: line {line}: not valid UTF-8 text") from None


def read_paired_csv(path) -> PairedSample:
    """Read a paired sample; errors name the offending 1-based file line."""
    path = Path(path)
    with StringIO(_read_text(path), newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if len(header) < 2 or len(header) % 2:
            raise ValidationError(
                f"{path}: header must list x1..xd,y1..yd, got {len(header)} columns"
            )
        d = len(header) // 2
        if header != _expected_header(d):
            raise ValidationError(
                f"{path}: header must be exactly x1..x{d},y1..y{d}"
            )

        rows: list[list[float]] = []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != 2 * d:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {2 * d} fields, "
                    f"got {len(record)}"
                )
            values = []
            for name, cell in zip(header, record):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: line {lineno}: column {name}: "
                        f"cannot parse {cell.strip()!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ValidationError(
                        f"{path}: line {lineno}: column {name}: "
                        "non-finite value"
                    )
                values.append(value)
            rows.append(values)

    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(rows)}")
    data = np.array(rows, dtype=float)
    return PairedSample(x=data[:, :d], y=data[:, d:])


def write_paired_csv(sample: PairedSample, path) -> None:
    lines = [",".join(_expected_header(sample.d))]
    for xrow, yrow in zip(sample.x, sample.y):
        cells = [format(v, FLOAT_FORMAT) for v in xrow]
        cells += [format(v, FLOAT_FORMAT) for v in yrow]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def read_distance_csv(path) -> DistanceMatrix:
    """Read an N x N distance matrix (no header, comma separated)."""
    path = Path(path)
    rows = []
    width = None
    with StringIO(_read_text(path), newline="") as handle:
        for lineno, record in enumerate(csv.reader(handle), start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            if width is None:
                width = len(record)
            elif len(record) != width:
                raise ValidationError(
                    f"{path}: line {lineno}: expected {width} fields, "
                    f"got {len(record)}"
                )
            try:
                rows.append([float(cell) for cell in record])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: non-numeric entry"
                ) from None
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    if len(rows) != width:
        raise ValidationError(
            f"{path}: matrix must be square, got {len(rows)} rows of {width} columns"
        )
    try:
        return precomputed_distance(np.array(rows, dtype=float))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
