"""Transforms on composita triangles: composition, reciprocals and
compositional inversion.

Every operation here mirrors an identity between generating-function
algebra and triangle algebra, and each one is exercised in the test suite
against the literal series route it shortcuts.  The reciprocal triangle is
built from the series 1/B by the composita recurrence.  The triangles of
F + G, F * B, alpha * F and F(alpha * x) have no route here: each is
``composita_from_series`` of that series.  The paper's sum and product
formulas are checks in ``theorems.py``, its reciprocal formula a sweep in
``identities.py``.  Composition is the row kernel's table product
(``_rows.product``, whose only caller it is), and the kernel picks its
route.
"""

from __future__ import annotations

from fractions import Fraction

from ._rows import dot, product
from .errors import (
    DivisionByNonUnit,
    InsufficientOrder,
    NonInvertible,
    NonzeroConstantTerm,
    OrderMismatch,
)
from .series import PowerSeries
from .triangle import CompositaTable, composita_from_series


def compose_series(r: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Coefficients of R(F(x)) given R's coefficients and F's triangle.

    a(0) = r(0) and a(n) = sum_{k=1}^{n} T(n, k) r(k); the result is
    truncated to the smaller of the two operand orders.
    """
    n_max = min(tf.order, r.order)
    tail = r.coeffs[1:]
    return PowerSeries((r.coeffs[0],) + tuple(dot(row, tail) for row in tf.int_rows[:n_max]))


def composita_compose(tf: CompositaTable, tr: CompositaTable) -> CompositaTable:
    """Triangle of R(F(x)) from the triangles of F (inner) and R (outer).

    Row n of the result is the sum of T_F(n, k) times row k of T_R.
    """
    if tf.order != tr.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tr.order}")
    return CompositaTable._of(product(tf.int_rows, tr.int_rows), 1)


def reciprocal_composita(b: PowerSeries, order: int) -> CompositaTable:
    """Triangle of x * A(x) where A(x) B(x) = 1 and b(0) != 0.

    A is computed by series division, with B truncated to ``order - 1``,
    and the triangle of x * A by the composita recurrence; the cost is
    that of one triangle build.  The paper's closed form for these
    entries (a negative binomial sum over the composita of x * B, O(N^4))
    is kept as a check: ``identities.check_reciprocal_identity``.
    """
    if b.coeffs[0] == 0:
        raise DivisionByNonUnit("reciprocal needs a series with nonzero constant term")
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    if b.order < order - 1:
        raise InsufficientOrder(f"b is needed to order {order - 1}, got {b.order}")
    depth = order - 1
    a = PowerSeries.one(depth) / b.truncate(depth)
    return composita_from_series(a.times_x(), order)


def inverse_series(f: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Compositional inverse A with A(F(x)) = x, from F's triangle.

    a(1) = 1/f(1) and a(n) = -(1/f(1)^n) sum_{k=1}^{n-1} T(n, k) a(k).
    """
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("only series vanishing at 0 can be inverted")
    if f.order < 1 or f.coeffs[1] == 0:
        raise NonInvertible("compositional inversion needs f(1) != 0")
    f1 = f.coeffs[1]
    out = [Fraction(0), Fraction(1) / f1]
    for n, row in enumerate(tf.int_rows[1:], start=2):
        out.append(-dot(row, out[1:]) / f1 ** n)
    return PowerSeries(tuple(out))
