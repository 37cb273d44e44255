"""Transforms on composita triangles: composition, reciprocals and
compositional inversion.

Every operation here mirrors an identity between generating-function
algebra and triangle algebra, and each one is exercised in the test suite
against the literal series route it shortcuts.  The reciprocal triangle is
built from the series 1/B by the composita recurrence.  The triangles of
F + G, F * B, alpha * F and F(alpha * x) have no route here: each is
``composita_from_series`` of that series.  The paper's sum and product
formulas are checks in ``theorems.py``, its reciprocal formula a sweep in
``identities.py``.  Composition is the paper's table product,
T_{R(F)}(n, m) = sum_k T_F(n, k) T_R(k, m), formed here on the row
kernel's rows: the kernel's ``_rows.tries_packed`` decides, as for every
table, whether it is tried on packed rows (``_packed.product_rows``)
before ``_rows.combine``.  Only the calls that compose compile it.

The transforms that read a triangle (``compose_series``,
``composita_compose`` and ``inverse_series``) refuse a Riordan array
(base 0), whose rows start one index lower.  ``inverse_series`` reads
f(1) off the triangle, as T(1, 1), so it takes the triangle alone.
``compose_series`` and ``inverse_series`` sum each stored row against
integer pairs (``_rows.dot``, which returns an integer pair) and build
no ``Fraction``.
"""

from __future__ import annotations

from math import gcd

from . import _rows
from ._rows import combine, dot, to_row
from .errors import DivisionByNonUnit, InsufficientOrder, NonInvertible, OrderMismatch
from .series import PowerSeries
from .triangle import CompositaTable, _require_base, composita_from_series


def compose_series(r: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Coefficients of R(F(x)) given R's coefficients and F's triangle.

    a(0) = r(0) and a(n) = sum_{k=1}^{n} T(n, k) r(k); the result is
    truncated to the smaller of the two operand orders.
    """
    _require_base("compose_series", 1, tf)
    nums, den = r.int_row
    tail = [(v, den) for v in nums[1:]]
    return PowerSeries.from_pairs([(nums[0], den)] + [dot(row, tail) for row in tf.int_rows[: r.order]])


def composita_compose(tf: CompositaTable, tr: CompositaTable) -> CompositaTable:
    """Triangle of R(F(x)) from the triangles of F (inner) and R (outer).

    Row n of the result is the sum of T_F(n, k) times row k of T_R.  The
    work is estimated as the nonzero entries of the densest row of T_F
    times the rows below the first, squared (row 1 is one scalar times
    one row).  On ``combine`` each scalar is reduced first, so that the
    row's denominator enters the lcm only as far as each entry needs it.
    """
    _require_base("composita_compose", 1, tf, tr)
    if tf.order != tr.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tr.order}")
    left, right = tf.int_rows, tr.int_rows
    if all(den == 1 for _, den in left) and all(den == 1 for _, den in right):
        densest = max(len(nums) - nums.count(0) for nums, _ in left)
        if _rows.tries_packed(densest, len(left) - 1, True):
            from ._packed import product_rows

            packed = product_rows(left, right)
            if packed is not None:
                return CompositaTable._of(packed, 1)
    rows = []
    for nums, den in left:
        terms = []
        for a, row in zip(nums, right):
            if a:
                g = gcd(a, den)
                terms.append((a // g, den // g, row, 0))
        rows.append(combine(terms, len(nums)))
    return CompositaTable._of(tuple(rows), 1)


def reciprocal_composita(b: PowerSeries, order: int) -> CompositaTable:
    """Triangle of x * A(x) where A(x) B(x) = 1 and b(0) != 0.

    A is computed by series division, with B truncated to ``order - 1``,
    and the triangle of x * A by the composita recurrence; the cost is
    that of one triangle build.  The paper's closed form for these
    entries (a negative binomial sum over the composita of x * B, O(N^4))
    is kept as a check: ``identities.check_reciprocal_identity``.
    """
    if b.int_row[0][0] == 0:
        raise DivisionByNonUnit("reciprocal needs a series with nonzero constant term")
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    if b.order < order - 1:
        raise InsufficientOrder(f"b is needed to order {order - 1}, got {b.order}")
    depth = order - 1
    a = PowerSeries.one(depth) / b.truncate(depth)
    return composita_from_series(a.times_x(), order)


def inverse_series(tf: CompositaTable) -> PowerSeries:
    """Compositional inverse A with A(F(x)) = x, from F's triangle alone.

    With f(1) = T(1, 1) = p/q: a(1) = q/p and
    a(n) = -(q/p)^n sum_{k=1}^{n-1} T(n, k) a(k).  Each a(k) is kept as
    a reduced integer pair, so every row's sum takes one small lcm: a(1)
    as (q, p), whose denominator has the sign of f(1), and each later one
    reduced by ``to_row`` (one gcd, a positive denominator).
    """
    _require_base("inverse_series", 1, tf)
    (p,), q = tf.int_rows[0]
    if p == 0:
        raise NonInvertible("compositional inversion needs f(1) != 0")
    out = [(0, 1), (q, p)]
    for n, row in enumerate(tf.int_rows[1:], start=2):
        num, den = dot(row, out[1:])
        (num,), den = to_row([(-num * q**n, den * p**n)])
        out.append((num, den))
    return PowerSeries.from_pairs(out)
