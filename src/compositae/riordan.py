"""Riordan arrays (G(x), F(x)) built from a series G and the triangle of F.

A Riordan array is a ``CompositaTable`` with ``base`` 0: rows and columns
are indexed from (0, 0), where a composita triangle starts at (1, 1).
The paper's link between the two (the (F, xF) array shifted by one is the
triangle of xF) is ``theorems.check_riordan_identity``.  The array is a
table product: G's Toeplitz rows times F's triangle bordered by the unit
row, formed by the row kernel's ``_rows.product`` as ``composita_compose``
is, and the kernel picks its route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._rows import UNIT, dot, product, to_row
from .errors import InsufficientOrder
from .series import CoeffLike, PowerSeries, as_rational
from .triangle import CompositaTable


def riordan_build(g: PowerSeries, tf: CompositaTable) -> CompositaTable:
    """Array of the pair (G, F) from G's coefficients and F's triangle.

    R(n, 0) = g(n); R(n, k) = sum_{i=0}^{n-k} g(i) * F(n-i, k) for k >= 1.
    Row n is the sum of g(i) times row n - i of F's triangle, taken with
    its column 0 (the unit row T(0, 0) = 1 and zeros below it): the array
    is G's Toeplitz matrix, row n = (g(n), ..., g(0)), times that
    bordered triangle, the product that ``composita_compose`` forms.
    """
    n_max = tf.order
    if g.order < n_max:
        raise InsufficientOrder(f"g is needed to order {n_max}, got {g.order}")
    gs, den = to_row(g.coeffs[: n_max + 1])
    toeplitz = [(gs[n::-1], den) for n in range(n_max + 1)]
    bordered = [UNIT] + [((0,) + nums, f_den) for nums, f_den in tf.int_rows]
    return CompositaTable._of(product(toeplitz, bordered), 0)


def riordan_apply(r: CompositaTable, b: Sequence[CoeffLike]) -> tuple[Fraction, ...]:
    """Sequence a(n) = sum_{k=0}^{n} R(n, k) b(k): the coefficients of
    G(x) * B(F(x))."""
    if r.base != 0:
        raise ValueError("riordan_apply needs a Riordan array (a table with base 0)")
    if len(b) < r.order + 1:
        raise InsufficientOrder(f"b needs {r.order + 1} terms, got {len(b)}")
    values = [as_rational(v) for v in b]
    return tuple(dot(row, values) for row in r.int_rows)
