"""CSV input and output.

Paired samples travel in a single file with header ``x1,...,xd,y1,...,yd``
and one row per pair, which keeps the pairing explicit. Floats are written
with 17 significant digits, so a write/read round trip is exact. Distance
matrices are plain N x N numeric CSVs and must be exactly symmetric. Cells
must parse as finite floats; errors name the file line where the record starts.
Every input file, scenario files included, counts lines as ``csv`` does:
CRLF, a lone CR and a lone LF each end one (``_lines``).

Both CSV readers first try numpy's C parser (``_parsed``), which returns only
when the header, the row widths and every value pass their checks and no byte
lets it accept a cell the record parser refuses. Anything else, including any
error, is read again by the record parser (``_records``, ``_float_rows``), so
every error message comes from the record parser and the values are the same
either way.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .core import FLOAT_FORMAT, PairedSample, ValidationError
from .graph import DistanceMatrix, precomputed_distance

__all__ = ["read_paired_csv", "write_paired_csv", "read_distance_csv"]


def _expected_header(d: int) -> list[str]:
    return [f"x{j}" for j in range(1, d + 1)] + [f"y{j}" for j in range(1, d + 1)]


def _lines(text: str) -> list[str]:
    """Split where ``csv`` ends a line: at each CRLF, lone CR or lone LF."""
    return re.split(r"\r\n|\r|\n", text)


def _read_text(path: Path) -> str:
    """The file as UTF-8 text, a leading BOM dropped; a bad byte names its line."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the data after any BOM
        line = len(_lines(exc.object[: exc.start].decode("utf-8")))
        raise ValidationError(f"{path}: line {line}: not valid UTF-8 text") from None


def _records(path: Path):
    """Yield each CSV record of the file with the file line it starts on."""
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    line = 1
    try:
        for record in reader:
            yield line, record
            line = reader.line_num + 1
    except csv.Error as exc:  # a stray quote can run past the field size limit
        raise ValidationError(f"{path}: line {line}: malformed CSV ({exc})") from None


def _float_rows(path: Path, records, columns: list[str] | None = None) -> np.ndarray:
    """Non-blank records as rows of finite floats; without ``columns`` the first
    record sets the field count and columns are numbered from 1."""
    rows = []
    for line, record in records:
        if all(not cell.strip() for cell in record):
            continue
        columns = columns or [str(j) for j in range(1, len(record) + 1)]
        if len(record) != len(columns):
            got = f"expected {len(columns)} fields, got {len(record)}"
            raise ValidationError(f"{path}: line {line}: {got}")
        try:
            values = list(map(float, record))
        except ValueError:
            values = [math.nan]  # some cell is bad: the walk below names it
        if not all(map(math.isfinite, values)):
            for name, cell in zip(columns, record):
                try:
                    if math.isfinite(float(cell)):
                        continue
                    problem = "non-finite value"
                except ValueError:
                    problem = f"cannot parse {cell.strip()!r} as a number"
                raise ValidationError(f"{path}: line {line}: column {name}: {problem}")
        rows.append(values)
    return np.array(rows, dtype=float)


def _loose_bytes(path: Path) -> bool:
    """Whether numpy could accept a cell that the record parser refuses: a byte
    0x1C-0x1F, which numpy strips from a number as whitespace and ``float`` does
    not, or a chunk of half ``csv``'s field size limit without a comma. When
    every chunk holds a comma, no comma-free run, and so no cell numpy accepts,
    can reach the limit."""
    span = max(csv.field_size_limit() // 2, 1)
    with path.open("rb") as handle:
        while chunk := handle.read(span):
            if b"," not in chunk or any(byte in chunk for byte in b"\x1c\x1d\x1e\x1f"):
                return True
    return False


def _parsed(path: Path, header: bool) -> np.ndarray | None:
    """The data rows as numpy's C parser reads them, or None to leave the file
    to the record parser. Rows are returned only when there are at least 2, all
    finite, of one width (``x1..xd,y1..yd`` heads a paired file and sets 2d),
    and ``_loose_bytes`` finds nothing."""
    skip, width = 0, None
    try:
        if header:  # the first record only; a quoted name may span lines
            with path.open(encoding="utf-8-sig", newline="") as handle:
                reader = csv.reader(handle)
                names = [name.strip() for name in next(reader, [])]
            d = len(names) // 2
            if not d or names != _expected_header(d):
                return None
            skip, width = reader.line_num, 2 * d
        if _loose_bytes(path):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without rows
            # comments=None: a row such as "#3,4" is an error, not a comment
            data = np.loadtxt(path, delimiter=",", quotechar='"', comments=None,
                              ndmin=2, encoding="utf-8-sig", skiprows=skip)
    except (OSError, ValueError, csv.Error):
        return None
    if len(data) < 2 or width not in (None, data.shape[1]) or not np.isfinite(data).all():
        return None
    return data


def _paired_records(path: Path) -> np.ndarray:
    """The data rows of a paired CSV by the record parser, 2d floats each."""
    records = _records(path)
    _, header = next(records, (1, None))
    if header is None:
        raise ValidationError(f"{path}: file is empty")
    header = [name.strip() for name in header]
    if len(header) < 2 or len(header) % 2:
        raise ValidationError(
            f"{path}: header must list x1..xd,y1..yd, got {len(header)} columns"
        )
    d = len(header) // 2
    if header != _expected_header(d):
        raise ValidationError(f"{path}: header must be exactly x1..x{d},y1..y{d}")
    data = _float_rows(path, records, header)
    if len(data) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(data)}")
    return data


def read_paired_csv(path) -> PairedSample:
    """Read a paired sample; errors name the offending 1-based file line."""
    path = Path(path)
    data = _parsed(path, header=True)
    if data is None:
        data = _paired_records(path)
    d = data.shape[1] // 2
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
    data = _parsed(path, header=False)
    if data is None:
        data = _float_rows(path, _records(path))
    if not data.size:
        raise ValidationError(f"{path}: file is empty")
    try:
        return precomputed_distance(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
