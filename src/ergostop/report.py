"""Report emission: CSV tables and JSON records with stable formatting.

Floats are serialized with 17 significant digits so exact-solver outputs are
byte-identical across runs, and bools as 0/1; non-finite values use the
tokens ``-inf``, ``inf``, ``nan`` (as strings inside JSON, which has no
literals for them).

Tables, CSV or long-format JSON, are formatted in chunks of ``CHUNK_ROWS``
rows, each chunk one ``%`` row template repeated and filled from slices of
the columns, so no column is listed whole. The bytes are those of writing
each value by ``format_value`` row by row (CSV), or of encoding one record
per row with ``write_json`` (JSON).
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from .errors import IoError

CHUNK_ROWS = 4096  # table rows formatted per string


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


def _json_text(v) -> str:
    """JSON text of one table value, as ``write_json`` encodes it."""
    return json.dumps(_jsonable(v))


def _column(col, fmt):
    """The ``%`` conversion of one table column in format ``fmt``, decided
    once for the whole column, and a function that lists its rows ``s:e``
    for that conversion.

    Ints and bools (as 0/1) take ``%d``. Floats take ``%.17g`` in CSV; in
    JSON they take ``%s``, which is ``repr``, and a non-finite one is
    listed as its JSON string. Any other column takes ``%s``: in CSV a
    slice whose values are all exactly ``str`` passes as it is, else each
    distinct object of the slice (in practice a state name repeated over a
    grid) is written by ``format_value`` (CSV) or ``_json_text`` (JSON)
    once and its text repeated. The slice holds its values alive, so equal
    ids mean the same object."""
    kind = col.dtype.kind if isinstance(col, np.ndarray) else "O"
    if kind in "biu" or kind == "f" and fmt == "csv":
        num = _numbers(col)
        return "%.17g" if kind == "f" else "%d", lambda s, e: num[s:e].tolist()
    if kind == "f":
        def floats(s, e):
            values = col[s:e].tolist()
            for i in np.flatnonzero(~np.isfinite(col[s:e])):
                values[i] = _json_text(values[i])
            return values

        return "%s", floats
    text_of = format_value if fmt == "csv" else _json_text

    def rows(s, e):
        values = list(col[s:e])
        if fmt == "csv" and set(map(type, values)) <= {str}:
            return values
        ids = list(map(id, values))
        text = {key: text_of(v) for key, v in dict(zip(ids, values)).items()}
        return list(map(text.__getitem__, ids))

    return "%s", rows


def _rows(columns, formats, template, sep):
    """The table's rows, ``CHUNK_ROWS`` per string: the ``%`` row
    ``template`` repeated with ``sep`` between rows, filled from the
    columns' slices, interleaved."""
    w = len(formats)
    n = len(columns[0]) if w else 0
    for s in range(0, n, CHUNK_ROWS):
        e = min(s + CHUNK_ROWS, n)
        flat = [None] * ((e - s) * w)
        for j, (_, rows) in enumerate(formats):
            flat[j::w] = rows(s, e)
        text = (template + sep) * (e - s) % tuple(flat)
        yield text if e < n else text[:len(text) - len(sep)]


def _csv_chunks(header, columns):
    """The header line, then the rows, one line each."""
    yield ",".join(header) + "\n"
    formats = [_column(c, "csv") for c in columns]
    yield from _rows(columns, formats, ",".join(f for f, _ in formats) + "\n", "")


def _json_chunks(header, columns):
    """The long-format JSON list of one record per row, as ``write_json``
    indents it, from one record template."""
    if not (columns and len(columns[0])):
        yield "[]\n"
        return
    formats = [_column(c, "json") for c in columns]
    fields = ",\n".join(
        f"    {json.dumps(name).replace('%', '%%')}: {f}" for name, (f, _) in zip(header, formats)
    )
    yield "[\n"
    yield from _rows(columns, formats, "  {\n" + fields + "\n  }", ",\n")
    yield "\n]\n"


def _write(path, chunks) -> None:
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_table(path, header, columns, fmt: str = "csv") -> None:
    """Write a table with a fixed column order, one column per header name,
    as CSV or as long-format JSON (``fmt``). Columns of unequal length raise
    ``ValueError`` before the file is opened."""
    columns = list(columns)
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {lengths}")
    _write(path, (_csv_chunks if fmt == "csv" else _json_chunks)(header, columns))


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
    written as ``_column`` decides; records become JSON. Returns the paths.
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
        if table:
            write_table(path, *payload, fmt)
        else:
            write_json(path, payload)
        written.append(path)
    return written
