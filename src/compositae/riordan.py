"""Riordan arrays (G(x), F(x)) built from the series G and F.

A Riordan array is a ``CompositaTable`` with ``base`` 0: rows and columns
are indexed from (0, 0), where a composita triangle starts at (1, 1).
Column k of the array is G * F^k, so it obeys the composita recurrence
seeded with g(n) in column 0: the row kernel's ``_rows.recurrence``,
which builds every composita triangle as the array (F/x, F) and picks its
route.  The paper's formulas stay as checks in ``theorems``:
``check_riordan_formula`` (each entry as a sum of g(i) times F's
triangle) and ``check_riordan_identity`` (the (F, xF) array shifted by
one is the triangle of xF).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._rows import dot, recurrence, scalars
from .errors import InsufficientOrder
from .series import CoeffLike, PowerSeries, as_rational
from .triangle import CompositaTable, _table_order


def riordan_build(g: PowerSeries, f: PowerSeries) -> CompositaTable:
    """Array of the pair (G, F), to F's order, from the coefficients of
    G and F (F composable, G known to F's order).

    R(n, 0) = g(n); R(n, k) = sum_{i=1}^{n-k+1} f(i) * R(n-i, k-1) for
    k >= 1, so column k is G * F^k.
    """
    n_max = _table_order(f, None)
    if g.order < n_max:
        raise InsufficientOrder(f"g is needed to order {n_max}, got {g.order}")
    g_terms, f_terms = (scalars(s.coeffs[: n_max + 1]) for s in (g, f))
    return CompositaTable._of(recurrence(g_terms, f_terms, n_max), 0)


def riordan_apply(r: CompositaTable, b: Sequence[CoeffLike]) -> tuple[Fraction, ...]:
    """Sequence a(n) = sum_{k=0}^{n} R(n, k) b(k): the coefficients of
    G(x) * B(F(x))."""
    if r.base != 0:
        raise ValueError("riordan_apply needs a Riordan array (a table with base 0)")
    if len(b) < r.order + 1:
        raise InsufficientOrder(f"b needs {r.order + 1} terms, got {len(b)}")
    values = [as_rational(v) for v in b]
    return tuple(dot(row, values) for row in r.int_rows)
