"""CSV input/output for series, reports and plot-ready curves.

All files carry a header row, one column per named series, full-precision
decimal numbers with a dot separator (locale-independent).
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .exceptions import CsvFormatError


def load_series_csv(path):
    """Load named numeric columns from a CSV file.

    Returns a dict of 1-D float arrays keyed by header name. A repeated
    header name raises ``CsvFormatError``, and so do malformed rows and
    nan/inf cells, with the offending line number (and column).
    """
    if not os.path.exists(path):
        raise CsvFormatError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for i, h in enumerate(header):
            if h in header[:i]:
                raise CsvFormatError(f"{path}: column {h!r} appears twice "
                                     "in the header")
        columns = {h: [] for h in header}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, "
                    f"found {len(row)}")
            for h, cell in zip(header, row):
                try:
                    columns[h].append(_finite(cell, path, lineno, repr(h)))
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: not a number: {cell!r}"
                    ) from None
    return {h: np.asarray(v, dtype=float) for h, v in columns.items()}


def _finite(cell, path, lineno, column):
    """``float(cell)``; a nan or inf value raises ``CsvFormatError``."""
    value = float(cell)
    if not np.isfinite(value):
        raise CsvFormatError(
            f"{path}: line {lineno}: column {column}: non-finite value "
            f"{cell.strip()!r}")
    return value


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
    """Load a single-column event-time CSV (seconds); header optional."""
    if not os.path.exists(path):
        raise CsvFormatError(f"no such file: {path}")
    values = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 1:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected a single column")
            cell = row[0].strip()
            try:
                values.append(_finite(cell, path, lineno, 1))
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise CsvFormatError(
                    f"{path}: line {lineno}: not a number: {cell!r}") from None
    return np.asarray(values, dtype=float)
