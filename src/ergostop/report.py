"""Report emission: CSV tables and JSON records with stable formatting.

Floats are serialized with 17 significant digits so exact-solver outputs are
byte-identical across runs, and bools as 0/1; non-finite values use the
tokens ``-inf``, ``inf``, ``nan`` (as strings inside JSON, which has no
literals for them).
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import IoError


def format_value(v) -> str:
    """Table text of one value, decided from its own type."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _values(col):
    """One table column as plain values: float and int columns as Python
    numbers, bools as 0/1, any other column as it is."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "biuf":
        return (col.view(np.uint8) if col.dtype.kind == "b" else col).tolist()
    return col


def _texts(col):
    """The text of every value of one table column, decided once for the
    whole column: floats keep 17 significant digits, bools become 0/1, ints
    are written by ``str``. Any other column, in practice state names
    repeated over a grid, goes through ``format_value`` once per distinct
    object, whose text is then repeated."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind == "f":
        return map("{:.17g}".format, _values(col))
    if kind in "biu":
        return map(str, _values(col))
    values = list(col)  # holds every value alive, so equal ids mean the same object
    distinct = {id(v): v for v in values}
    text = {key: format_value(v) for key, v in distinct.items()}
    return map(text.__getitem__, map(id, values))


def _write(path, chunks) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, columns) -> None:
    """Write a table with a fixed column order, one column per header name;
    the rows are built as they are written."""
    rows = itertools.chain([header], zip(*map(_texts, columns), strict=True))
    _write(path, (",".join(row) + "\n" for row in rows))


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
    written as ``_texts`` or ``_values`` decides; records become JSON.
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
