"""CSV ingestion and emission for datasets and noise-variance files.

Dataset files are UTF-8 CSV with a header row of distinct, nonempty names
and '.' decimal separator; a leading byte-order mark, as spreadsheet exports
write, is skipped.
For regression commands one column must be named "y"; the remaining columns
are covariates in file order.  Empty fields and the token "NA" mark missing
covariate cells and are accepted only when the caller opts in (the
missing-at-random mode); missing responses are never accepted.  Masked cells
are stored as 0.0 with mask False, the convention the estimation code
expects.

Noise files carry one nonnegative variance per line, one line per covariate.
Both kinds must be UTF-8 text; any other file, such as a UTF-16
spreadsheet export, is refused with an InputError naming it.

The dataset reader parses a file's body in one pass (numpy.loadtxt) and
reads every cell as float reads it.  The per-cell parse runs only where
that pass cannot give the same answer: when the pass fails or finds a
non-finite value, when its rows or columns differ from the body lines and
the header (it skips blank lines, which are errors here), or when the body,
or a header spanning lines, holds a quote character, whose rows only csv
can split.  It writes the error naming the offending row and column, builds
the missing-at-random mask, and accepts the tokens float takes and loadtxt
does not ("1_0", non-ASCII digits).  Noise files, one short line per
covariate, are parsed line by line.

Floats are written with repr, so a write/read cycle reproduces every value
bit for bit.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable

import numpy as np

from .errors import InputError
from .lasso import Dataset

MISSING_TOKENS = ("", "NA")


def _parse_cell(token: str, row: int, name: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise InputError(
            f"row {row}, column {name!r}: non-numeric field {token!r}") from None
    if not math.isfinite(value):
        raise InputError(f"row {row}, column {name!r}: non-finite value {token!r}")
    return value


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file, line ends kept and a leading
    byte-order mark skipped; InputError when the file is not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoded chunk, not from the file start
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _check_header(path: str, fields: list[str]) -> list[str]:
    """The header names as the reader takes them: stripped, each nonempty
    and distinct."""
    header = [name.strip() for name in fields]
    if "" in header:
        raise InputError(f"{path}: column {header.index('') + 1} has an "
                         "empty header name")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise InputError(f"{path}: duplicate header names {dupes}")
    return header


def _read_table(lines: list[str], width: int) -> np.ndarray | None:
    """Parse unquoted CSV lines of `width` finite numbers in one pass, or
    return None to leave them to the per-cell parse (module docstring)."""
    # a blank first line is an error anyway, and a body of blank lines
    # would make loadtxt warn that it holds no data
    if not lines or not lines[0].rstrip("\r\n"):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(lines), width) or not np.isfinite(table).all():
        return None
    return table


def read_dataset_csv(path: str, *, require_response: bool = True,
                     allow_missing: bool = False) -> tuple[Dataset, list[str]]:
    """Parse a dataset file; returns (dataset, covariate names).

    With require_response a "y" column must exist and is split out as the
    response.  With allow_missing the returned dataset always carries a mask
    (all-observed when no cell is missing); without it any missing cell is an
    error naming the offending row and column.
    """
    lines = read_lines(path)
    if not lines:
        raise InputError(f"{path}: empty file")
    rows = csv.reader(lines)
    header = _check_header(path, next(rows))
    if require_response:
        if "y" not in header:
            raise InputError(f'{path}: no column named "y"')
        y_pos = header.index("y")
    else:
        y_pos = None
    names = [h for k, h in enumerate(header) if k != y_pos]
    p = len(names)
    if p < 2:
        raise InputError(f"{path}: need at least 2 covariate columns, found {p}")

    # a quoted cell may hold a comma or a line break, so only csv can tell
    # where its rows and cells end; otherwise each line is one row.  A
    # quoted header that took one line leaves the body to the one pass.
    quoted = rows.line_num != 1 or any('"' in line for line in lines[1:])
    body = list(rows) if quoted else lines[1:]
    n = len(body)
    if n < 2:
        raise InputError(f"{path}: need at least 2 data rows, found {n}")
    table = None if quoted else _read_table(body, len(header))
    if table is None:
        table, observed = _read_cells(path, body if quoted else rows, header,
                                      y_pos, allow_missing)
    else:
        observed = np.ones(table.shape, dtype=bool)
    if y_pos is None:
        y = np.zeros(n)  # placeholder response for node-graph ingestion
    else:
        y = np.ascontiguousarray(table[:, y_pos])
        table = np.delete(table, y_pos, axis=1)
        observed = np.delete(observed, y_pos, axis=1)
    data = Dataset(y=y, Z=table, mask=observed if allow_missing else None)
    return data, names


def _read_cells(path: str, rows: Iterable[list[str]], header: list[str],
                y_pos: int | None,
                allow_missing: bool) -> tuple[np.ndarray, np.ndarray]:
    """Parse csv rows cell by cell into (values, observed), both shaped
    (rows, columns), or raise the InputError naming the first bad cell.

    Missing cells read as 0.0 with observed False.
    """
    rows = list(rows)
    values = np.zeros((len(rows), len(header)))
    observed = np.ones(values.shape, dtype=bool)
    for i, fields in enumerate(rows):
        row = i + 2  # 1-based file line, after the header
        if len(fields) != len(header):
            raise InputError(
                f"{path}: row {row} has {len(fields)} fields, expected {len(header)}")
        for k, (name, token) in enumerate(zip(header, fields)):
            token = token.strip()
            if token not in MISSING_TOKENS:
                values[i, k] = _parse_cell(token, row, name)
            elif k == y_pos:
                raise InputError(f'row {row}: response "y" is missing')
            elif not allow_missing:
                raise InputError(
                    f"row {row}, column {name!r}: missing value outside "
                    "missing-at-random mode")
            else:
                observed[i, k] = False
    return values, observed


def write_dataset_csv(path: str, data: Dataset,
                      names: list[str] | None = None) -> None:
    """Write a dataset with a "y" column first; masked cells become NA.

    The names must read back as written, so they follow the reader's header
    rules: nonempty, distinct, none "y", and no surrounding whitespace.
    """
    p = data.Z.shape[1]
    if names is None:
        names = [f"z{k + 1}" for k in range(p)]
    if len(names) != p:
        raise InputError(f"got {len(names)} column names for {p} columns")
    header = ["y", *names]
    if _check_header(path, header) != header:
        raise InputError(f"{path}: a header name starts or ends with "
                         "whitespace, which the reader strips")
    rows = [list(map(repr, row))
            for row in np.column_stack([data.y, data.Z]).tolist()]
    if data.mask is not None:
        for i, k in zip(*np.nonzero(~data.mask)):
            rows[i][k + 1] = "NA"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_noise_csv(path: str, p: int) -> np.ndarray:
    """Parse a noise-variance file: one nonnegative number per line."""
    values = []
    for lineno, line in enumerate(read_lines(path), start=1):
        token = line.strip()
        if not token:
            raise InputError(f"{path}: line {lineno} is blank")
        values.append(_parse_cell(token, lineno, "noise variance"))
    if len(values) != p:
        raise InputError(
            f"{path}: found {len(values)} noise variances for {p} covariates")
    gamma = np.asarray(values)
    if (gamma < 0).any():
        bad = int(np.argmax(gamma < 0)) + 1
        raise InputError(f"{path}: line {bad}: negative noise variance")
    return gamma
