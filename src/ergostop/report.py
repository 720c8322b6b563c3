"""Report emission: CSV tables and JSON records with stable formatting.

Floats are serialized with 17 significant digits so exact-solver outputs are
byte-identical across runs, and bools as 0/1; non-finite values use the
tokens ``-inf``, ``inf``, ``nan`` (as strings inside JSON, which has no
literals for them).

CSV tables are formatted in chunks of ``CHUNK_ROWS`` rows, each chunk one
``%`` row template repeated and filled from slices of the columns, so no
column is listed whole. The bytes are those of writing each value by
``format_value``, row by row.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import IoError

CHUNK_ROWS = 4096  # CSV rows formatted per string


def format_value(v) -> str:
    """Table text of one value, decided from its own type."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _numbers(col):
    """A float or int column as it is, a bool column viewed as 0/1 bytes."""
    return col.view(np.uint8) if col.dtype.kind == "b" else col


def _values(col):
    """One table column as plain values: float and int columns as Python
    numbers, bools as 0/1, any other column as it is."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "biuf":
        return _numbers(col).tolist()
    return col


def _column(col):
    """The ``%`` conversion of one CSV column, decided once for the whole
    column, and a function that lists its rows ``s:e`` for that conversion.

    Floats take ``%.17g``, ints and bools (as 0/1) ``%d``. Any other column
    takes ``%s``: a slice whose values are all exactly ``str`` passes as it
    is, else each distinct object of the slice (in practice a state name
    repeated over a grid) is written by ``format_value`` once and its text
    repeated. The slice holds its values alive, so equal ids mean the same
    object."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind in "biuf":
        num = _numbers(col)
        return "%.17g" if kind == "f" else "%d", lambda s, e: num[s:e].tolist()

    def rows(s, e):
        values = list(col[s:e])
        if set(map(type, values)) <= {str}:
            return values
        ids = list(map(id, values))
        text = {key: format_value(v) for key, v in dict(zip(ids, values)).items()}
        return list(map(text.__getitem__, ids))

    return "%s", rows


def _csv_chunks(header, columns):
    """The header line, then ``CHUNK_ROWS`` rows per string: one ``%`` row
    template repeated and filled from the columns' slices, interleaved."""
    yield ",".join(header) + "\n"
    formats = [_column(c) for c in columns]
    template = ",".join(conversion for conversion, _ in formats) + "\n"
    w = len(formats)
    n = len(columns[0]) if w else 0
    for s in range(0, n, CHUNK_ROWS):
        e = min(s + CHUNK_ROWS, n)
        flat = [None] * ((e - s) * w)
        for j, (_, rows) in enumerate(formats):
            flat[j::w] = rows(s, e)
        yield (template * (e - s)) % tuple(flat)


def _write(path, chunks) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, columns) -> None:
    """Write a table with a fixed column order, one column per header name.
    Columns of unequal length raise ``ValueError`` before the file is
    opened."""
    columns = list(columns)
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    _write(path, _csv_chunks(header, columns))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, record) -> None:
    """Write a structured record; keys keep insertion order."""
    chunks = json.JSONEncoder(indent=2).iterencode(_jsonable(record))
    _write(path, itertools.chain(chunks, ["\n"]))


def emit_report(results: dict, out_dir, fmt: str) -> list[str]:
    """Emit named tables/records from ``results`` in the requested format.

    ``results`` maps a base name to either (header, columns) for tables, one
    equal-length array or sequence per header name, or a dict for records.
    Tables become CSV or long-format JSON (one record per row), each column
    written as ``_column`` or ``_values`` decides; records become JSON.
    Returns the paths.
    """
    if fmt not in ("csv", "json"):
        raise IoError(f"unknown report format {fmt!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    written = []
    for name, payload in results.items():
        table = isinstance(payload, tuple)
        path = os.path.join(out_dir, f"{name}.{fmt if table else 'json'}")
        if table and fmt == "csv":
            write_csv(path, *payload)
        elif table:
            header, columns = payload
            rows = zip(*map(_values, columns), strict=True)
            write_json(path, [dict(zip(header, row)) for row in rows])
        else:
            write_json(path, payload)
        written.append(path)
    return written
