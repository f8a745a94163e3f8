"""JSON (de)serialization for linear systems, partitioned systems, and
verdict reports.  The document shapes are published in docs/formats.md.

Partitioned systems are flattened to a plain system document plus a
``zvars`` name list; on ingest, each row's block is derived from which
variables it mentions (zero coefficients count as mentions): only
adversarial names -> z-row, only plain names or nothing -> x-row, a mix
-> xz-row.  Empty-support (constant) rows land on the x side, where a
constant falsehood correctly dooms every scenario instead of silently
emptying the adversary's domain.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .engine import ResiliencySystem, ResiliencyVerdict
from .errors import ValidationError
from .ilp import (
    IntAssignment,
    LinearRow,
    LinearSystem,
    Rel,
    VarBounds,
    VarId,
    format_rational,
    parse_rational,
)


def _variable_to_dict(vid: VarId, bounds: VarBounds) -> dict:
    return {"name": vid.name, "lower": bounds.lower, "upper": bounds.upper}


def _row_to_dict(row: LinearRow) -> dict:
    return {
        "coeffs": {vid.name: format_rational(c) for vid, c in row.coeffs.items()},
        "rel": row.rel.value,
        "rhs": format_rational(row.rhs),
    }


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def _variables_from_list(items) -> list:
    _require(isinstance(items, list), "variables must be a list")
    out = []
    for entry in items:
        _require(isinstance(entry, dict), "each variable must be an object")
        extra = set(entry) - {"name", "lower", "upper"}
        _require(not extra, f"unknown variable keys: {sorted(extra)}")
        name = entry.get("name")
        _require(isinstance(name, str) and name, "variable name must be a string")
        lo, hi = entry.get("lower"), entry.get("upper")
        out.append((name, VarBounds(lo, hi)))
    return out


def _row_from_dict(entry, byname) -> LinearRow:
    _require(isinstance(entry, dict), "each row must be an object")
    extra = set(entry) - {"coeffs", "rel", "rhs"}
    _require(not extra, f"unknown row keys: {sorted(extra)}")
    coeffs_doc = entry.get("coeffs")
    _require(isinstance(coeffs_doc, dict), "row coeffs must be an object")
    coeffs = {}
    for name, value in coeffs_doc.items():
        _require(name in byname, f"row references unknown variable {name!r}")
        coeffs[byname[name]] = parse_rational(value)
    rel = entry.get("rel")
    _require(rel in (Rel.LEQ.value, Rel.EQ.value), f"bad relation: {rel!r}")
    return LinearRow(coeffs, Rel(rel), parse_rational(entry.get("rhs")))


def system_to_dict(system: LinearSystem) -> dict:
    return {
        "variables": [_variable_to_dict(v, b) for v, b in system.variables],
        "rows": [_row_to_dict(r) for r in system.rows],
    }


def system_from_dict(doc: Mapping) -> LinearSystem:
    _require(isinstance(doc, dict), "system document must be an object")
    extra = set(doc) - {"variables", "rows"}
    _require(not extra, f"unknown system keys: {sorted(extra)}")
    named = _variables_from_list(doc.get("variables", []))
    variables = tuple(
        (VarId(i, name), bounds) for i, (name, bounds) in enumerate(named)
    )
    byname = {vid.name: vid for vid, _ in variables}
    _require(len(byname) == len(variables), "duplicate variable names")
    rows_doc = doc.get("rows", [])
    _require(isinstance(rows_doc, list), "rows must be a list")
    rows = tuple(_row_from_dict(r, byname) for r in rows_doc)
    return LinearSystem(variables, rows)


def resiliency_to_dict(system: ResiliencySystem) -> dict:
    """Plain-system document plus the adversarial name list.

    Output variable order is the x block then the z block; row order is
    rows_x, rows_xz, rows_z.  Ingesting the result reproduces the blocks,
    except that a z-row with an empty coefficient map reads back as an
    x-row (docs/formats.md).
    """
    variables = [_variable_to_dict(v, b) for v, b in system.x_vars]
    variables += [_variable_to_dict(v, b) for v, b in system.z_vars]
    rows = [
        _row_to_dict(r)
        for r in (*system.rows_x, *system.rows_xz, *system.rows_z)
    ]
    return {
        "variables": variables,
        "zvars": [vid.name for vid, _ in system.z_vars],
        "rows": rows,
    }


def resiliency_from_dict(doc: Mapping) -> ResiliencySystem:
    _require(isinstance(doc, dict), "system document must be an object")
    extra = set(doc) - {"variables", "zvars", "rows"}
    _require(not extra, f"unknown system keys: {sorted(extra)}")
    znames_doc = doc.get("zvars", [])
    _require(
        isinstance(znames_doc, list)
        and all(isinstance(n, str) for n in znames_doc),
        "zvars must be a list of names",
    )
    znames = set(znames_doc)
    _require(len(znames) == len(znames_doc), "duplicate names in zvars")
    named = _variables_from_list(doc.get("variables", []))
    all_names = [name for name, _ in named]
    _require(len(set(all_names)) == len(all_names), "duplicate variable names")
    missing = znames - set(all_names)
    _require(not missing, f"zvars not among variables: {sorted(missing)}")
    x_named = [(n, b) for n, b in named if n not in znames]
    z_named = [(n, b) for n, b in named if n in znames]
    x_vars = tuple((VarId(i, n), b) for i, (n, b) in enumerate(x_named))
    z_vars = tuple((VarId(i, n), b) for i, (n, b) in enumerate(z_named))
    byname = {vid.name: vid for vid, _ in x_vars}
    byname.update({vid.name: vid for vid, _ in z_vars})
    rows_doc = doc.get("rows", [])
    _require(isinstance(rows_doc, list), "rows must be a list")
    rows_x, rows_xz, rows_z = [], [], []
    for entry in rows_doc:
        row = _row_from_dict(entry, byname)
        mentioned = {vid.name for vid in row.support()}
        if mentioned and mentioned <= znames:
            rows_z.append(row)
        elif mentioned & znames:
            rows_xz.append(row)
        else:
            rows_x.append(row)
    return ResiliencySystem(
        x_vars, z_vars, tuple(rows_x), tuple(rows_xz), tuple(rows_z)
    )


def assignment_to_dict(assignment: Optional[IntAssignment]) -> Optional[dict]:
    if assignment is None:
        return None
    return assignment.by_name()


def verdict_to_dict(verdict: ResiliencyVerdict) -> dict:
    return {
        "resilient": verdict.resilient,
        "witness": assignment_to_dict(verdict.witness_z),
        "scenarios_checked": verdict.scenarios_checked,
    }
