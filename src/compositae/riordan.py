"""Riordan arrays (G(x), F(x)) built from a series G and the triangle of F.

A Riordan array is a ``CompositaTable`` with ``base`` 0: rows and columns
are indexed from (0, 0), where a composita triangle starts at (1, 1).
``riordan_composita_check`` performs the explicit re-indexing that links
the two (the (F, xF) array shifted by one is the triangle of xF).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._rows import UNIT, combine, fractions_of, scalars, to_row
from .calculus import compose_series
from .errors import InsufficientOrder, OrderMismatch
from .series import PowerSeries, as_rational
from .triangle import CompositaTable, composita_from_series


def riordan_build(g: PowerSeries, tf: CompositaTable) -> CompositaTable:
    """Array of the pair (G, F) from G's coefficients and F's triangle.

    R(n, 0) = g(n); R(n, k) = sum_{i=0}^{n-k} g(i) * F(n-i, k) for k >= 1.
    Row n is the sum of g(i) times row n - i of F's triangle, taken with
    its column 0 (the unit row T(0, 0) = 1 and zeros below it).
    """
    n_max = tf.order
    if g.order < n_max:
        raise OrderMismatch(f"g is needed to order {n_max}, got {g.order}")
    g_terms = scalars(g.coeffs[: n_max + 1])
    f_rows = [UNIT] + [to_row((Fraction(0),) + row) for row in tf.rows]
    rows = []
    for n in range(0, n_max + 1):
        row = combine(((num, den, f_rows[n - i], 0) for i, num, den in g_terms if i <= n), n + 1)
        rows.append(fractions_of(row))
    return CompositaTable(tuple(rows), base=0)


def riordan_apply(r: CompositaTable, b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Sequence a(n) = sum_{k=0}^{n} R(n, k) b(k): the coefficients of
    G(x) * B(F(x))."""
    if len(b) < r.order + 1:
        raise InsufficientOrder(f"b needs {r.order + 1} terms, got {len(b)}")
    values = [as_rational(v) for v in b]
    out = []
    for n in range(0, r.order + 1):
        acc = Fraction(0)
        for k in range(0, n + 1):
            bk = values[k]
            if bk:
                acc += r[n, k] * bk
        out.append(acc)
    return tuple(out)


def riordan_apply_series(g: PowerSeries, tf: CompositaTable, b: PowerSeries) -> PowerSeries:
    """Reference route for the same map: G(x) * B(F(x)) via composition
    followed by a series product."""
    return g * compose_series(b, tf)


def riordan_composita_check(f: PowerSeries, order: int) -> bool:
    """True iff the (F, xF) array, renumbered from (1,1), is the triangle
    of xF.  ``f`` provides F from index 0 and must reach ``order``."""
    if f.order < order:
        raise InsufficientOrder(f"f is needed to order {order}, got {f.order}")
    base = f.truncate(order)
    table = composita_from_series(base.times_x(), order + 1)
    rio = riordan_build(base, table.truncated(order))
    return all(
        table[n + 1, k + 1] == value for n, k, value in rio.entries()
    )
