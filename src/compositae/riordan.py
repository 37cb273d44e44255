"""Riordan arrays (G(x), F(x)) built from a series G and the triangle of F.

A Riordan array is a ``CompositaTable`` with ``base`` 0: rows and columns
are indexed from (0, 0), where a composita triangle starts at (1, 1).
The paper's link between the two (the (F, xF) array shifted by one is the
triangle of xF) is ``theorems.check_riordan_identity``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._rows import UNIT, combine, dot, scalars
from .errors import InsufficientOrder, OrderMismatch
from .series import CoeffLike, PowerSeries, as_rational
from .triangle import CompositaTable


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
    f_rows = [UNIT] + [((0,) + nums, den) for nums, den in tf.int_rows]
    rows = tuple(
        combine(((num, den, f_rows[n - i], 0) for i, num, den in g_terms if i <= n), n + 1)
        for n in range(0, n_max + 1)
    )
    return CompositaTable._of(rows, 0)


def riordan_apply(r: CompositaTable, b: Sequence[CoeffLike]) -> tuple[Fraction, ...]:
    """Sequence a(n) = sum_{k=0}^{n} R(n, k) b(k): the coefficients of
    G(x) * B(F(x))."""
    if r.base != 0:
        raise ValueError("riordan_apply needs a Riordan array (a table with base 0)")
    if len(b) < r.order + 1:
        raise InsufficientOrder(f"b needs {r.order + 1} terms, got {len(b)}")
    values = [as_rational(v) for v in b]
    return tuple(dot(row, values) for row in r.int_rows)
