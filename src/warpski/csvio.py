"""CSV input/output for series, reports and plot-ready curves.

All files carry a header row, one column per named series, full-precision
decimal numbers with a dot separator (locale-independent).
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .exceptions import CsvFormatError


def _rows(path):
    """``(line number, row)`` for each non-empty row of a CSV file."""
    if not os.path.exists(path):
        raise CsvFormatError(f"no such file: {path}")
    with open(path, newline="") as fh:
        return [(n, row) for n, row in enumerate(csv.reader(fh), start=1)
                if row]


def _number(cell):
    """``float(cell)``, or None where the cell is not a number."""
    try:
        return float(cell)
    except ValueError:
        return None


def _finite(cell, where, column):
    """The finite number in ``cell``; else ``CsvFormatError`` at ``where``."""
    value = _number(cell)
    if value is None:
        raise CsvFormatError(f"{where}: not a number: {cell.strip()!r}")
    if not np.isfinite(value):
        raise CsvFormatError(f"{where}: column {column}: non-finite value "
                             f"{cell.strip()!r}")
    return value


def load_series_csv(path):
    """Load named numeric columns from a CSV file.

    Returns a dict of 1-D float arrays keyed by header name. A repeated
    header name raises ``CsvFormatError``, and so do malformed rows and
    nan/inf cells, with the offending line number (and column).
    """
    rows = _rows(path)
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1]]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise CsvFormatError(f"{path}: column {h!r} appears twice "
                                 "in the header")
    columns = {h: [] for h in header}
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}: line {lineno}: expected {len(header)} fields, "
                f"found {len(row)}")
        for h, cell in zip(header, row):
            columns[h].append(_finite(cell, f"{path}: line {lineno}", repr(h)))
    return {h: np.asarray(v, dtype=float) for h, v in columns.items()}


def save_columns_csv(path, columns):
    """Write named series as CSV columns in full decimal precision."""
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float).ravel() for n in names]
    if arrays and any(a.size != arrays[0].size for a in arrays):
        raise CsvFormatError("all columns must have equal length")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(arrays[0].size if arrays else 0):
            writer.writerow([repr(float(a[i])) for a in arrays])


def load_events_csv(path):
    """Load a single-column event-time CSV (seconds); a first line that is
    not a number is a header."""
    values = []
    for lineno, (cell, *rest) in _rows(path):
        if rest:
            raise CsvFormatError(
                f"{path}: line {lineno}: expected a single column")
        if lineno > 1 or _number(cell) is not None:
            values.append(_finite(cell, f"{path}: line {lineno}", 1))
    return np.asarray(values, dtype=float)
