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

Floats are written with repr, so a write/read cycle reproduces every value
bit for bit.
"""

from __future__ import annotations

import csv
import math

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


def read_dataset_csv(path: str, *, require_response: bool = True,
                     allow_missing: bool = False) -> tuple[Dataset, list[str]]:
    """Parse a dataset file; returns (dataset, covariate names).

    With require_response a "y" column must exist and is split out as the
    response.  With allow_missing the returned dataset always carries a mask
    (all-observed when no cell is missing); without it any missing cell is an
    error naming the offending row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise InputError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if "" in header:
        raise InputError(f"{path}: column {header.index('') + 1} has an "
                         "empty header name")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise InputError(f"{path}: duplicate header names {dupes}")
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

    body = rows[1:]
    n = len(body)
    if n < 2:
        raise InputError(f"{path}: need at least 2 data rows, found {n}")
    y = np.zeros(n) if y_pos is not None else None
    Z = np.zeros((n, p))
    mask = np.ones((n, p), dtype=bool)
    for i, fields in enumerate(body):
        row = i + 2  # 1-based file line, after the header
        if len(fields) != len(header):
            raise InputError(
                f"{path}: row {row} has {len(fields)} fields, expected {len(header)}")
        k = 0
        for pos, token in enumerate(fields):
            token = token.strip()
            if pos == y_pos:
                if token in MISSING_TOKENS:
                    raise InputError(f'row {row}: response "y" is missing')
                y[i] = _parse_cell(token, row, "y")
                continue
            name = header[pos]
            if token in MISSING_TOKENS:
                if not allow_missing:
                    raise InputError(
                        f"row {row}, column {name!r}: missing value outside "
                        "missing-at-random mode")
                Z[i, k] = 0.0
                mask[i, k] = False
            else:
                Z[i, k] = _parse_cell(token, row, name)
            k += 1
    if y is None:
        y = np.zeros(n)  # placeholder response for node-graph ingestion
    data = Dataset(y=y, Z=Z, mask=mask if allow_missing else None)
    return data, names


def write_dataset_csv(path: str, data: Dataset,
                      names: list[str] | None = None) -> None:
    """Write a dataset with a "y" column first; masked cells become NA."""
    n, p = data.Z.shape
    if names is None:
        names = [f"z{k + 1}" for k in range(p)]
    if len(names) != p:
        raise InputError(f"got {len(names)} column names for {p} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", *names])
        for i in range(n):
            fields = [repr(float(data.y[i]))]
            for k in range(p):
                if data.mask is not None and not data.mask[i, k]:
                    fields.append("NA")
                else:
                    fields.append(repr(float(data.Z[i, k])))
            writer.writerow(fields)


def read_noise_csv(path: str, p: int) -> np.ndarray:
    """Parse a noise-variance file: one nonnegative number per line."""
    values = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
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
