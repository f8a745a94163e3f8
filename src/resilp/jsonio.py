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

from typing import Mapping, Optional, Sequence

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


def read_object(doc, keys: Sequence[str], what: str) -> tuple:
    """The values of ``keys`` in ``doc``, in ``keys`` order.

    Every reader of an input document goes through here: ``doc`` must be
    an object holding exactly ``keys``, so a missing key is never read as
    a default and an unknown one never passes unnoticed.
    """
    _require(isinstance(doc, dict), f"{what} must be an object")
    missing = [key for key in keys if key not in doc]
    _require(not missing, f"missing {what} keys: {missing}")
    extra = set(doc) - set(keys)
    _require(not extra, f"unknown {what} keys: {sorted(extra)}")
    return tuple(doc[key] for key in keys)


# The field checks every instance constructor runs, so a library caller
# and a document reader get the same ones.  A bool is never an integer:
# ``type(v) is int`` rules it out, where ``isinstance`` would not.


def _limits(low, high) -> str:
    if low is not None and high is not None:
        return f" in [{low}, {high}]"
    if low is not None:
        return f" >= {low}"
    if high is not None:
        return f" <= {high}"
    return ""


def require_int(value, what: str, low=None, high=None) -> int:
    """``value``, when it is an integer in ``[low, high]`` (``None``: no
    limit on that side); otherwise a :class:`ValidationError` naming
    ``what``."""
    if (
        type(value) is not int
        or (low is not None and value < low)
        or (high is not None and value > high)
    ):
        raise ValidationError(f"{what} must be an integer{_limits(low, high)}")
    return value


def require_seq(value, what: str, item: Optional[type] = None) -> tuple:
    """``value`` as a tuple, when it is a list or tuple whose entries are
    all ``item`` instances (any entry when ``item`` is ``None``).

    A set is refused: its iteration order depends on the hash seed, and
    the order of these fields numbers copies, rows and variables.
    """
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{what} must be a list")
    value = tuple(value)
    if item is not None and not all(isinstance(v, item) for v in value):
        raise ValidationError(f"{what} must be a list of {item.__name__}")
    return value


def require_ints(values, what: str, low=None, high=None) -> tuple:
    """``values`` as a tuple, when it is a sequence (as for
    :func:`require_seq`) of integers in ``[low, high]``."""
    values = require_seq(values, what)
    for v in values:
        if (
            type(v) is not int
            or (low is not None and v < low)
            or (high is not None and v > high)
        ):
            raise ValidationError(f"{what} must be integers{_limits(low, high)}")
    return values


def _variables_from_list(items) -> list:
    _require(isinstance(items, list), "variables must be a list")
    out = []
    for entry in items:
        name, lo, hi = read_object(entry, ("name", "lower", "upper"), "variable")
        _require(isinstance(name, str) and name, "variable name must be a string")
        out.append((name, VarBounds(lo, hi)))
    return out


def _row_from_dict(entry, byname) -> LinearRow:
    coeffs_doc, rel, rhs = read_object(entry, ("coeffs", "rel", "rhs"), "row")
    _require(isinstance(coeffs_doc, dict), "row coeffs must be an object")
    coeffs = {}
    for name, value in coeffs_doc.items():
        _require(name in byname, f"row references unknown variable {name!r}")
        coeffs[byname[name]] = parse_rational(value)
    _require(rel in (Rel.LEQ.value, Rel.EQ.value), f"bad relation: {rel!r}")
    return LinearRow(coeffs, Rel(rel), parse_rational(rhs))


def system_to_dict(system: LinearSystem) -> dict:
    return {
        "variables": [_variable_to_dict(v, b) for v, b in system.variables],
        "rows": [_row_to_dict(r) for r in system.rows],
    }


def system_from_dict(doc: Mapping) -> LinearSystem:
    variables_doc, rows_doc = read_object(doc, ("variables", "rows"), "system")
    named = _variables_from_list(variables_doc)
    variables = tuple(
        (VarId(i, name), bounds) for i, (name, bounds) in enumerate(named)
    )
    byname = {vid.name: vid for vid, _ in variables}
    _require(len(byname) == len(variables), "duplicate variable names")
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
    variables_doc, znames_doc, rows_doc = read_object(
        doc, ("variables", "zvars", "rows"), "system"
    )
    znames_doc = require_seq(znames_doc, "zvars", str)
    znames = set(znames_doc)
    _require(len(znames) == len(znames_doc), "duplicate names in zvars")
    named = _variables_from_list(variables_doc)
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
