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

from .combinatorics import binomial
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
    """
    n_max = table.order
    if b.order < n_max:
        raise InsufficientOrder(f"b is needed to order {n_max}, got {b.order}")
    base = b if b.order == n_max else b.truncate(n_max)
    # powers[k][d] = [x^d] B(x)^k for k = 1..n_max
    powers: list[PowerSeries] = [base]
    for _ in range(n_max - 1):
        powers.append(powers[-1] * base)
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for k in range(1, n + 1):
            pk = powers[k - 1].coeffs
            acc = Fraction(0)
            for i in range(k, n + 1):
                t = table[i, k]
                if t:
                    acc += t * pk[n - i]
            row.append(acc)
        rows.append(tuple(row))
    return CompositaTable(tuple(rows))


def composita_sum(tf: CompositaTable, tg: CompositaTable) -> CompositaTable:
    """Triangle of F(x) + G(x) via the binomial cross terms of (F + G)^k."""
    if tf.order != tg.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tg.order}")
    n_max = tf.order
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for k in range(1, n + 1):
            acc = tf[n, k] + tg[n, k]
            for j in range(1, k):
                c = binomial(k, j)
                inner = Fraction(0)
                for i in range(j, n - k + j + 1):
                    t = tf[i, j]
                    if t:
                        inner += t * tg[n - i, k - j]
                acc += c * inner
            row.append(acc)
        rows.append(tuple(row))
    return CompositaTable(tuple(rows))


def compose_series(r: PowerSeries, tf: CompositaTable) -> PowerSeries:
    """Coefficients of R(F(x)) given R's coefficients and F's triangle.

    a(0) = r(0) and a(n) = sum_{k=1}^{n} T(n, k) r(k); the result is
    truncated to the smaller of the two operand orders.
    """
    n_max = min(tf.order, r.order)
    out = [r.coeffs[0]]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            t = tf[n, k]
            if t:
                acc += t * r.coeffs[k]
        out.append(acc)
    return PowerSeries(tuple(out))


def composita_compose(tf: CompositaTable, tr: CompositaTable) -> CompositaTable:
    """Triangle of R(F(x)) from the triangles of F (inner) and R (outer)."""
    if tf.order != tr.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tr.order}")
    n_max = tf.order
    rows = []
    for n in range(1, n_max + 1):
        row = []
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(m, n + 1):
                t = tf[n, k]
                if t:
                    acc += t * tr[k, m]
            row.append(acc)
        rows.append(tuple(row))
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
        acc = Fraction(0)
        for k in range(1, n):
            t = tf[n, k]
            if t:
                acc += t * out[k]
        out.append(-acc / f1 ** n)
    return PowerSeries(tuple(out))
