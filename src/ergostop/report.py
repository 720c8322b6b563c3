"""Report emission: CSV tables and JSON records with stable formatting.

Floats are serialized with 17 significant digits so exact-solver outputs are
byte-identical across runs; non-finite values use the tokens ``-inf``,
``inf``, ``nan`` (as strings inside JSON, which has no literals for them).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import IoError


def format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write a table with a fixed column order."""
    try:
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    return obj


def write_json(path, record) -> None:
    """Write a structured record; keys keep insertion order."""
    try:
        with open(path, "w") as fh:
            json.dump(_jsonable(record), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def emit_report(results: dict, out_dir, fmt: str) -> list[str]:
    """Emit named tables/records from ``results`` in the requested format.

    ``results`` maps a base name to either (header, rows) for tables or a
    dict for records. Tables become CSV (or long-format JSON); records
    become JSON regardless. Returns the written paths.
    """
    if fmt not in ("csv", "json"):
        raise IoError(f"unknown report format {fmt!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    written = []
    for name, payload in results.items():
        if isinstance(payload, tuple):
            header, rows = payload
            if fmt == "csv":
                path = os.path.join(out_dir, f"{name}.csv")
                write_csv(path, header, rows)
            else:
                path = os.path.join(out_dir, f"{name}.json")
                write_json(path, [dict(zip(header, row)) for row in rows])
        else:
            path = os.path.join(out_dir, f"{name}.json")
            write_json(path, payload)
        written.append(path)
    return written
