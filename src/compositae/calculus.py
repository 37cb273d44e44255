"""Transforms on composita triangles: scaling, sums, products, composition,
reciprocals and compositional inversion.

Every operation here mirrors an identity between generating-function
algebra and triangle algebra, and each one is exercised in the test suite
against the literal series route it shortcuts.  The reciprocal triangle is
built from the series 1/B by the composita recurrence; the paper's slower
formula for it lives in ``identities.py`` as a check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._rows import Row, combine, dot, fractions_of, scalars, to_row
from .errors import (
    DivisionByNonUnit,
    InsufficientOrder,
    NonInvertible,
    NonzeroConstantTerm,
    OrderMismatch,
)
from .series import CoeffLike, PowerSeries, as_rational
from .triangle import CompositaTable, composita_from_series


def scale_value(table: CompositaTable, alpha: CoeffLike) -> CompositaTable:
    """Triangle of alpha * F(x): each entry (n, k) picks up alpha^k."""
    a = as_rational(alpha)
    rows = tuple(
        tuple(a ** k * row[k - 1] for k in range(1, n + 1))
        for n, row in enumerate(table.rows, start=1)
    )
    return CompositaTable(rows, source=table.source and f"scale_value({table.source})")


def scale_argument(table: CompositaTable, alpha: CoeffLike) -> CompositaTable:
    """Triangle of F(alpha * x): each entry (n, k) picks up alpha^n."""
    a = as_rational(alpha)
    rows = tuple(
        tuple(a ** n * v for v in row) for n, row in enumerate(table.rows, start=1)
    )
    return CompositaTable(rows, source=table.source and f"scale_argument({table.source})")


def composita_product_series(table: CompositaTable, b: PowerSeries) -> CompositaTable:
    """Triangle of F(x) * B(x) from the triangle of F and the series B.

    Entry (n, k) is sum_{i=k}^{n} T(i, k) * [x^(n-i)] B(x)^k; when B itself
    vanishes at 0 the high end of the range is dead weight because the
    power coefficients vanish, which matches the narrower composita form.
    Column k of the result is therefore the sum of T(i, k) times B^k
    shifted by i - k, one row combination per column.
    """
    n_max = table.order
    if b.order < n_max:
        raise InsufficientOrder(f"b is needed to order {n_max}, got {b.order}")
    b_terms = scalars(b.coeffs[:n_max])
    power = to_row(b.coeffs[:n_max])  # [x^d] B(x)^k for d <= n_max - k
    columns: list[Row] = []
    for k in range(1, n_max + 1):
        width = n_max - k + 1
        if k > 1:
            power = combine(((num, den, power, i) for i, num, den in b_terms), width)
        terms = (
            (t.numerator, t.denominator, power, i - k)
            for i, t in enumerate(table.column(k), start=k)
        )
        columns.append(combine(terms, width))
    rows = tuple(
        tuple(Fraction(nums[n - k], den) for k, (nums, den) in enumerate(columns[:n], start=1))
        for n in range(1, n_max + 1)
    )
    return CompositaTable(rows)


def _scaled_rows(table: CompositaTable) -> list[list[Fraction]]:
    """Row 0 is [1]; row n is [0, T(n, 1)/1!, ..., T(n, n)/n!]."""
    return [[Fraction(1)]] + [
        [Fraction(0)] + [v / factorial(k) for k, v in enumerate(row, start=1)]
        for row in table.rows
    ]


def composita_sum(tf: CompositaTable, tg: CompositaTable) -> CompositaTable:
    """Triangle of F(x) + G(x) via the binomial cross terms of (F + G)^k.

    With every column k scaled by 1/k!, the binomial expansion
    (F + G)^k / k! = sum_j (F^j / j!) (G^(k-j) / (k-j)!) makes row n of
    the scaled triangle the sum of scaled F(i, j) times scaled row n - i
    of G shifted by j columns (row 0 of both being the unit row).
    """
    if tf.order != tg.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tg.order}")
    n_max = tf.order
    f_scaled = _scaled_rows(tf)
    g_scaled = [to_row(row) for row in _scaled_rows(tg)]
    rows = []
    for n in range(1, n_max + 1):
        terms = (
            (s.numerator, s.denominator, g_scaled[n - i], j)
            for i in range(n + 1)
            for j, s in enumerate(f_scaled[i])
        )
        nums, den = combine(terms, n + 1)
        rows.append(tuple(Fraction(factorial(k) * nums[k], den) for k in range(1, n + 1)))
    return CompositaTable(tuple(rows))


def compose_series(r: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Coefficients of R(F(x)) given R's coefficients and F's triangle.

    a(0) = r(0) and a(n) = sum_{k=1}^{n} T(n, k) r(k); the result is
    truncated to the smaller of the two operand orders.
    """
    n_max = min(tf.order, r.order)
    tail = r.coeffs[1:]
    out = [r.coeffs[0]]
    for n in range(1, n_max + 1):
        out.append(dot(tf.rows[n - 1], tail))
    return PowerSeries(tuple(out))


def composita_compose(tf: CompositaTable, tr: CompositaTable) -> CompositaTable:
    """Triangle of R(F(x)) from the triangles of F (inner) and R (outer).

    Row n of the result is the sum of T_F(n, k) times row k of T_R.
    """
    if tf.order != tr.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tr.order}")
    r_rows = [to_row(row) for row in tr.rows]
    rows = []
    for n, f_row in enumerate(tf.rows, start=1):
        terms = ((t.numerator, t.denominator, r_row, 0) for t, r_row in zip(f_row, r_rows))
        rows.append(fractions_of(combine(terms, n)))
    return CompositaTable(tuple(rows))


def reciprocal_composita(b: PowerSeries, order: int, source: str = "") -> CompositaTable:
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
    return composita_from_series(a.times_x(), order, source=source)


def inverse_series(f: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Compositional inverse A with A(F(x)) = x, from F's triangle.

    a(1) = 1/f(1) and a(n) = -(1/f(1)^n) sum_{k=1}^{n-1} T(n, k) a(k).
    """
    if f.coeffs[0] != 0:
        raise NonzeroConstantTerm("only series vanishing at 0 can be inverted")
    if f.order < 1 or f.coeffs[1] == 0:
        raise NonInvertible("compositional inversion needs f(1) != 0")
    f1 = f.coeffs[1]
    n_max = tf.order
    out = [Fraction(0), Fraction(1) / f1]
    for n in range(2, n_max + 1):
        out.append(-dot(tf.rows[n - 1], out[1:]) / f1 ** n)
    return PowerSeries(tuple(out))
