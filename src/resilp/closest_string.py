"""Closest string under column corruption.

Given k equal-length strings, the plain question asks for a center string
within Hamming distance ``d`` of each of them.  Here an adversary first
rewrites whole columns — at most ``m`` individual cell changes in total —
subject to every rewritten column staying *normalized*: in each column
the alphabet's first symbol is (one of) the most frequent, the second
symbol next, ties broken by alphabet order.  Column identity is what
matters, so both sides of the game are phrased over *column types*
(distinct normalized columns) and counts, never over raw positions.

The adversarial variables say how many columns of each input type turn
into each type, plus the resulting per-type census; the plain variables
say, for each type in the corrupted matrix, how many of its columns the
center string answers with each symbol.
"""

from __future__ import annotations

import warnings
from itertools import islice, product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .engine import ResiliencySystem
from .errors import (
    BudgetError,
    NormalizationError,
    ScenarioError,
    ValidationError,
)
from .ilp import (
    IntAssignment,
    LinearRow,
    Rel,
    Value,
    make_vars,
    read_transfer,
    transfer,
)
from .jsonio import read_object, require_int, require_seq


class Alphabet(Value):
    """Ordered distinct single-character symbols."""

    _fields = ("symbols",)

    def __init__(self, symbols: Tuple[str, ...]):
        symbols = require_seq(symbols, "alphabet", str)
        if not symbols:
            raise ValidationError("alphabet must not be empty")
        for sym in symbols:
            if len(sym) != 1:
                raise ValidationError(f"alphabet symbol must be one character: {sym!r}")
        if len(set(symbols)) != len(symbols):
            raise ValidationError("alphabet symbols must be distinct")
        Value.__init__(self, symbols)

    def index(self, sym: str) -> int:
        return self.symbols.index(sym)


class StringMatrix(Value):
    """k strings of equal length L over a fixed alphabet (k rows)."""

    _fields = ("alphabet", "rows")

    def __init__(self, alphabet: Alphabet, rows: Tuple[str, ...]):
        rows = require_seq(rows, "strings", str)
        if not rows:
            raise ValidationError("need at least one string")
        length = len(rows[0])
        if length < 1:
            raise ValidationError("strings must be non-empty")
        allowed = set(alphabet.symbols)
        for row in rows:
            if len(row) != length:
                raise ValidationError("strings must share one length")
            stray = set(row) - allowed
            if stray:
                raise ValidationError(
                    f"symbols outside the alphabet: {sorted(stray)}"
                )
        Value.__init__(self, alphabet, rows)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def length(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> Tuple[str, ...]:
        return tuple(row[j] for row in self.rows)


def _ranked_symbols(column: Sequence[str], alphabet: Alphabet) -> List[str]:
    """Alphabet symbols by descending frequency in the column, ties by
    alphabet order."""
    counts = {sym: 0 for sym in alphabet.symbols}
    for cell in column:
        counts[cell] += 1
    return sorted(alphabet.symbols, key=lambda s: (-counts[s], alphabet.index(s)))


def is_normalized_column(column: Sequence[str], alphabet: Alphabet) -> bool:
    return _ranked_symbols(column, alphabet) == list(alphabet.symbols)


def normalize(
    matrix: StringMatrix,
) -> Tuple[StringMatrix, Tuple[Dict[str, str], ...]]:
    """Rename symbols per column so each column is normalized.

    Returns the rewritten matrix plus one bijection per column mapping
    original symbol -> new symbol, so solutions computed in normalized
    space can be mapped back. Idempotent: normalized input comes back
    unchanged with identity bijections.
    """
    bijections = []
    new_columns = []
    for j in range(matrix.length):
        column = matrix.column(j)
        ranked = _ranked_symbols(column, matrix.alphabet)
        mapping = {old: new for old, new in zip(ranked, matrix.alphabet.symbols)}
        bijections.append(mapping)
        new_columns.append(tuple(mapping[cell] for cell in column))
    rows = tuple(
        "".join(new_columns[j][i] for j in range(matrix.length))
        for i in range(matrix.k)
    )
    return StringMatrix(matrix.alphabet, rows), tuple(bijections)


def denormalize_rows(
    rows: Sequence[str], bijections: Sequence[Dict[str, str]]
) -> Tuple[str, ...]:
    """Map strings back through per-column bijections (inverse direction)."""
    inverses = [{new: old for old, new in b.items()} for b in bijections]
    out = []
    for row in rows:
        if len(row) != len(inverses):
            raise ValidationError("string length does not match the bijections")
        out.append("".join(inverses[j][cell] for j, cell in enumerate(row)))
    return tuple(out)


class ColumnType(NamedTuple):
    """One distinct normalized column, with its multiplicity in the input."""

    cells: Tuple[str, ...]
    count: int


def column_types(matrix: StringMatrix) -> Tuple[ColumnType, ...]:
    """Distinct columns with counts, in lexicographic (alphabet) order;
    every column must be normalized."""
    counts: Dict[Tuple[str, ...], int] = {}
    for j in range(matrix.length):
        column = matrix.column(j)
        if not is_normalized_column(column, matrix.alphabet):
            raise NormalizationError(j, f"column reads {''.join(column)}")
        counts[column] = counts.get(column, 0) + 1
    order = {s: i for i, s in enumerate(matrix.alphabet.symbols)}
    return tuple(
        ColumnType(cells, counts[cells])
        for cells in sorted(counts, key=lambda c: tuple(order[x] for x in c))
    )


def all_types(k: int, alphabet: Alphabet) -> Tuple[Tuple[str, ...], ...]:
    """Every normalized column of height k, in lexicographic order.

    Only the first k symbols can occur: in a normalized column a symbol
    that occurs ranks ahead of every symbol that does not, and a column of
    height k holds at most k distinct symbols.
    """
    return tuple(
        cells
        for cells in product(alphabet.symbols[:k], repeat=k)
        if is_normalized_column(cells, alphabet)
    )


def type_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Cell changes needed to turn one column into another."""
    return sum(1 for x, y in zip(a, b) if x != y)


def mismatch_count(cells: Sequence[str], symbol: str) -> int:
    """Rows of a column that differ from a single answering symbol."""
    return sum(1 for x in cells if x != symbol)


class RcsInstance(Value):
    """A normalized matrix, the center-distance bound ``d``, and the
    adversary's total cell-change budget ``m``."""

    _fields = ("matrix", "d", "m")

    def __init__(self, matrix: StringMatrix, d: int, m: int):
        require_int(d, "distance bound d", 0)
        require_int(m, "change budget m", 0, matrix.k * matrix.length)
        column_types(matrix)  # raises NormalizationError when not normalized
        Value.__init__(self, matrix, d, m)

    def to_dict(self) -> dict:
        return {
            "alphabet": list(self.matrix.alphabet.symbols),
            "strings": list(self.matrix.rows),
            "d": self.d,
            "m": self.m,
        }


def instance_from_dict(doc) -> Tuple[RcsInstance, Tuple[Dict[str, str], ...]]:
    """Parse an instance document, normalizing the strings when needed.

    Emits a warning naming every renamed column and returns the
    per-column bijections alongside the instance so callers can translate
    answers back to the original symbols.
    """
    alphabet_doc, strings, d, m = read_object(
        doc, ("alphabet", "strings", "d", "m"), "instance"
    )
    raw = StringMatrix(Alphabet(alphabet_doc), strings)
    matrix, bijections = normalize(raw)
    renamed = [
        j
        for j, b in enumerate(bijections)
        if any(old != new for old, new in b.items())
    ]
    if renamed:
        warnings.warn(
            "columns renamed during normalization: "
            + ", ".join(map(str, renamed)),
            stacklevel=2,
        )
    return RcsInstance(matrix, d, m), bijections


def _tkey(cells: Sequence[str]) -> str:
    return "".join(cells)


def _zname(src: Sequence[str], dst: Sequence[str]) -> str:
    return f"z[{_tkey(src)}->{_tkey(dst)}]"


def _cname(cells: Sequence[str]) -> str:
    return f"cnt[{_tkey(cells)}]"


def _xname(cells: Sequence[str], symbol: str) -> str:
    return f"x[{_tkey(cells)},{symbol}]"


def _census(
    matrix: StringMatrix, types: Sequence[Tuple[str, ...]]
) -> Dict[Tuple[str, ...], int]:
    """The number of ``matrix`` columns of each of ``types``, zeros kept."""
    census = {t: 0 for t in types}
    for ct in column_types(matrix):
        census[ct.cells] = ct.count
    return census


_MAX_K = 4


def encode(inst: RcsInstance, *, per_row_distance: bool = True) -> ResiliencySystem:
    """Partitioned system over column types.

    Adversarial block: transfer counts between every pair of normalized
    types plus the corrupted census; rows pin the source census, cap total
    cell changes by ``m``, and define the corrupted census.  Plain block:
    per corrupted type, how many of its columns the center answers with
    each symbol; mixed rows tie those to the census, and the distance rows
    cap mismatches — one row per input string by default, or a single
    aggregate row when ``per_row_distance`` is false.

    Type enumeration is exponential in k, hence the ``_MAX_K`` budget.
    """
    k, L = inst.matrix.k, inst.matrix.length
    if k > _MAX_K:
        raise BudgetError(f"{k} rows exceed the type budget (k <= {_MAX_K})")
    alphabet = inst.matrix.alphabet
    types = all_types(k, alphabet)
    census = _census(inst.matrix, types)

    z_vars, outflow, arrivals, spend = transfer(
        types, _zname, _cname, census.get, L, type_distance, inst.m
    )
    zid = {vid.name: vid for vid, _ in z_vars}
    x_vars = make_vars(
        [(_xname(t, sym), 0, L) for t in types for sym in alphabet.symbols]
    )
    xid = {vid.name: vid for vid, _ in x_vars}

    # every source column goes somewhere; total cell changes within budget
    # (no row for k = 1, where every move is free); the corrupted census is
    # what arrives
    rows_z = [LinearRow(out, Rel.EQ, census[src]) for src, out in outflow.items()]
    rows_z += spend + arrivals

    rows_xz: List[LinearRow] = []
    # the center answers every corrupted column exactly once
    for t in types:
        coeffs = {xid[_xname(t, sym)]: 1 for sym in alphabet.symbols}
        coeffs[zid[_cname(t)]] = -1
        rows_xz.append(LinearRow(coeffs, Rel.EQ, 0))

    rows_x: List[LinearRow] = []
    if per_row_distance:
        for r in range(k):
            coeffs = {
                xid[_xname(t, sym)]: 1
                for t in types
                for sym in alphabet.symbols
                if t[r] != sym
            }
            rows_x.append(LinearRow(coeffs, Rel.LEQ, inst.d))
    else:
        coeffs = {
            xid[_xname(t, sym)]: mismatch_count(t, sym)
            for t in types
            for sym in alphabet.symbols
            if mismatch_count(t, sym) > 0
        }
        rows_x.append(LinearRow(coeffs, Rel.LEQ, inst.d))

    return ResiliencySystem(
        x_vars, z_vars, tuple(rows_x), tuple(rows_xz), tuple(rows_z)
    )


def decode_scenario(inst: RcsInstance, scenario: IntAssignment) -> StringMatrix:
    """Transfer counts -> a concrete corrupted matrix.

    Leftmost columns of each type are rewritten first, targets in type
    order, so the result is deterministic.  The corrupted matrix's census
    matches the scenario's census variables by construction.
    """
    k, L = inst.matrix.k, inst.matrix.length
    types = all_types(k, inst.matrix.alphabet)
    values = scenario.by_name()
    expected = {_zname(s, t) for s in types for t in types}
    expected |= {_cname(t) for t in types}
    if set(values) != expected:
        raise ScenarioError("scenario names do not match the type variables")

    census = _census(inst.matrix, types)
    try:
        flows = read_transfer(
            values, types, _zname, _cname, census.get, type_distance, inst.m
        )
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc

    positions: Dict[Tuple[str, ...], List[int]] = {t: [] for t in types}
    for j in range(L):
        positions[inst.matrix.column(j)].append(j)
    unmoved = {t: iter(columns) for t, columns in positions.items()}
    new_columns: List[Optional[Tuple[str, ...]]] = [None] * L
    for (src, dst), count in flows.items():
        for j in islice(unmoved[src], count):
            new_columns[j] = dst
    rows = tuple(
        "".join(new_columns[j][i] for j in range(L)) for i in range(k)
    )
    return StringMatrix(inst.matrix.alphabet, rows)


def decode_solution(
    inst: RcsInstance,
    corrupted: StringMatrix,
    x_values: IntAssignment,
    *,
    per_row_distance: bool = True,
) -> str:
    """Per-type symbol counts -> a concrete center string.

    Leftmost columns of each type get the earliest symbols.  The census
    must match the corrupted matrix exactly, and the result is validated
    against the distance contract before being returned; a breach of
    either raises :class:`ValidationError`.
    """
    values = x_values.by_name()
    L = corrupted.length
    types = all_types(inst.matrix.k, inst.matrix.alphabet)
    positions: Dict[Tuple[str, ...], List[int]] = {t: [] for t in types}
    for j in range(L):
        column = corrupted.column(j)
        if column not in positions:
            raise ValidationError("corrupted matrix has an unknown column type")
        positions[column].append(j)

    chars: List[Optional[str]] = [None] * L
    for t in types:
        queue = positions[t]
        cursor = 0
        for sym in inst.matrix.alphabet.symbols:
            count = values.get(_xname(t, sym), 0)
            if count < 0:
                raise ValidationError("negative symbol count")
            if cursor + count > len(queue):
                raise ValidationError(
                    f"more answers for type {_tkey(t)} than columns"
                )
            for _ in range(count):
                chars[queue[cursor]] = sym
                cursor += 1
        if cursor != len(queue):
            raise ValidationError(
                f"type {_tkey(t)}: {cursor} answers for {len(queue)} columns"
            )
    center = "".join(chars)
    if per_row_distance:
        for i, row in enumerate(corrupted.rows):
            dist = type_distance(center, row)
            if dist > inst.d:
                raise ValidationError(
                    f"center misses string {i} by {dist} > {inst.d}"
                )
    else:
        total = sum(type_distance(center, row) for row in corrupted.rows)
        if total > inst.d:
            raise ValidationError(
                f"total mismatch {total} exceeds the aggregate bound {inst.d}"
            )
    return center
