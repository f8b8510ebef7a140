"""Deterministic report serialization.

Floats are printed with 17 significant digits so that every double
round-trips exactly and repeated runs produce byte-identical files.
Dict insertion order is preserved (writers construct documents in
canonical field order).
"""

import json
from math import isfinite

import numpy as np

_FLOATS = (float, np.float64)


def format_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim and obj.size and obj.dtype == float and np.isfinite(obj).all():
            return _finite_array(obj, indent)
        # a 0-d array lists as its scalar
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _list([dumps(v, indent + 1) for v in obj], indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{dumps(str(k))}: {dumps(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _list(items, indent):
    inner = "  " * (indent + 1)
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + "  " * indent + "]"


def _finite_array(a, indent):
    """dumps of a non-empty float64 array with no NaN or inf: the same
    17-digit strings as format_float, one join per row.  Every cell
    starts as +0.0's "0" and only the other entries are formatted, so a
    sparse matrix costs its nonzeros."""
    cells = np.full(a.shape, "0", dtype=object)
    at = np.flatnonzero((a != 0) | np.signbit(a))
    cells.flat[at] = [format(v, ".17g") for v in a.flat[at].tolist()]
    return _joined(cells, indent)


def _joined(cells, indent):
    if cells.ndim == 1:
        return _list(cells.tolist(), indent)
    return _list([_joined(row, indent + 1) for row in cells], indent)


def dump_json(obj):
    return dumps(obj) + "\n"


def _cell(v):
    """One CSV cell: empty for None, true/false, floats as format_float,
    anything else as its str, double-quoted when it holds a separator."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def dump_csv(header, rows):
    """CSV text with 17-significant-digit floats; cells containing
    separators are double-quoted.  A finite float or float64 cell, most
    of a law's cells, is formatted straight, as `_cell` would."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([
            format(float(v), ".17g") if type(v) in _FLOATS and isfinite(v) else _cell(v)
            for v in row]))
    return "\n".join(lines) + "\n"
