"""JSON file formats for groups, functions, and representations.

All complex numbers serialize as two-element ``[re, im]`` arrays.  Floats
go through ``json`` unchanged, which emits Python's shortest round-trip
repr — lossless at up to 17 significant digits.  Parsers raise
FileFormatError naming the offending field.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .algebra import DualFunction, GroupFunction
from .errors import FileFormatError
from .groups import DEFAULT_SIZE_CAP, Group, make_group
from .representations import UnitaryRep, make_representation


def load_json(path: str | Path) -> Any:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise FileFormatError(f"{path} is not valid JSON: {exc}") from exc


def dump_json(payload: Any, path: str | Path | None = None) -> str:
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _require(payload: Any, field: str, where: str) -> Any:
    if not isinstance(payload, dict):
        raise FileFormatError(f"{where} must be a JSON object")
    if field not in payload:
        raise FileFormatError(f"{where} is missing field '{field}'")
    return payload[field]


def _as_int(value: Any, field: str) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, int):
        raise FileFormatError(f"field '{field}' must be an integer, got {value!r}")
    return value


def complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def complex_vector_payload(v: np.ndarray) -> list[list[float]]:
    return [complex_pair(z) for z in np.asarray(v).ravel()]


def complex_matrix_payload(m: np.ndarray) -> list[list[list[float]]]:
    """Matrix as a list of rows, each row a list of [re, im] pairs."""
    m = np.asarray(m)
    return [complex_vector_payload(row) for row in m]


def parse_complex_array(raw: Any, field: str, expected: int | None = None) -> np.ndarray:
    if not isinstance(raw, list):
        raise FileFormatError(f"field '{field}' must be an array of [re, im] pairs")
    if expected is not None and len(raw) != expected:
        raise FileFormatError(
            f"field '{field}' has {len(raw)} entries, expected {expected}")
    out = np.empty(len(raw), dtype=complex)
    for i, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                           for x in entry)):
            raise FileFormatError(
                f"field '{field}' entry {i} must be a [re, im] number pair, "
                f"got {entry!r}")
        try:
            out[i] = complex(entry[0], entry[1])
        except OverflowError as exc:
            raise FileFormatError(f"field '{field}' entry {i} must be finite") from exc
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        i = int(bad[0])
        raise FileFormatError(
            f"field '{field}' entry {i} must be finite, got {raw[i]!r}")
    return out


def group_to_payload(group: Group) -> dict[str, Any]:
    return {"orders": list(group.orders)}


def group_from_payload(payload: Any, *, size_cap: int = DEFAULT_SIZE_CAP) -> Group:
    orders = _require(payload, "orders", "group spec")
    if not isinstance(orders, list) or not orders:
        raise FileFormatError("field 'orders' must be a non-empty array of integers")
    return make_group([_as_int(n, "orders") for n in orders], size_cap=size_cap)


def function_to_payload(f: GroupFunction | DualFunction) -> dict[str, Any]:
    domain = "dual" if isinstance(f, DualFunction) else "group"
    return {
        "group": group_to_payload(f.group),
        "domain": domain,
        "values": complex_vector_payload(f.values),
    }


def function_from_payload(payload: Any, *,
                          size_cap: int = DEFAULT_SIZE_CAP) -> GroupFunction | DualFunction:
    group = group_from_payload(_require(payload, "group", "function file"),
                               size_cap=size_cap)
    domain = _require(payload, "domain", "function file")
    if domain not in ("group", "dual"):
        raise FileFormatError(
            f"field 'domain' must be 'group' or 'dual', got {domain!r}")
    values = parse_complex_array(_require(payload, "values", "function file"),
                                 "values", expected=group.size)
    cls = DualFunction if domain == "dual" else GroupFunction
    return cls(group, values)


def representation_to_payload(rep: UnitaryRep) -> dict[str, Any]:
    return {
        "group": group_to_payload(rep.group),
        "dim": rep.dim,
        "generators": [complex_vector_payload(g.ravel()) for g in rep.generators],
    }


def representation_from_payload(payload: Any, *,
                                size_cap: int = DEFAULT_SIZE_CAP) -> UnitaryRep:
    """Parse and validate a representation file (generators are flat row-major)."""
    group = group_from_payload(_require(payload, "group", "representation file"),
                               size_cap=size_cap)
    dim = _as_int(_require(payload, "dim", "representation file"), "dim")
    if dim < 1:
        raise FileFormatError(f"field 'dim' must be positive, got {dim}")
    raw_gens = _require(payload, "generators", "representation file")
    if not isinstance(raw_gens, list) or len(raw_gens) != len(group.orders):
        raise FileFormatError(
            f"field 'generators' must contain {len(group.orders)} matrices "
            f"(one per cyclic factor)")
    matrices = []
    for j, raw in enumerate(raw_gens):
        flat = parse_complex_array(raw, f"generators[{j}]", expected=dim * dim)
        matrices.append(flat.reshape(dim, dim))
    return make_representation(group, matrices)
