"""Solving A(x) = G(x A(x)^m) through triangle transforms.

The paper's workhorse is the index map (n, k) -> ((m+1)n - mk, mn - (m-1)k)
on the triangle of x*G(x), which hands back the triangle of x*A(x)
directly.  Entry (n, k) only reads [x^(n-k)] of a power of G, so for
m >= 0 ``solve_functional_equation`` builds just that band of the powers
of G and needs G only to the requested order.  The m = 1 case is
classical Lagrange inversion, exposed separately as ``right_composita``.
Negative m is routed through reciprocals: solve F = R(xF^w) with w = -m
and R = 1/G, then flip the answer back with the reciprocal-triangle
transform.  The paper's functional-equation identity on the triangle of
x*G is swept by ``identities.check_funceq_identity``.

Two applications with non-obvious setups live here as well: triangles for
1 - (1-x)^(1/m) and for arcsin(x), both obtained by feeding a rational or
reciprocal helper triangle to ``right_composita``.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from ._rows import Row, combine, scalars
from .calculus import reciprocal_composita
from .catalog import make_spec
from .combinatorics import binomial
from .errors import InsufficientOrder, ZeroConstantTerm
from .series import PowerSeries
from .triangle import CompositaTable, composita_from_series


def right_composita(g: CompositaTable, order: int | None = None) -> CompositaTable:
    """Triangle of x*A(x) for the solution of A(x) = G(x A(x)), taking the
    triangle of x*G(x).

    Entry (n, k) is (k/n) * g(2n - k, n), so producing rows 1..order
    consumes rows of g up to 2*order - 1.
    """
    if order is None:
        order = (g.order + 1) // 2
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    if 2 * order - 1 > g.order:
        raise InsufficientOrder(
            f"input triangle is needed to order {2 * order - 1}, got {g.order}"
        )
    rows = []
    for n in range(1, order + 1):
        row = []
        for k in range(1, n + 1):
            row.append(Fraction(k, n) * g[2 * n - k, n])
        rows.append(tuple(row))
    return CompositaTable(tuple(rows))


class FuncEqSolution(Record):
    """Solution bundle for A(x) = G(x A(x)^m)."""

    __slots__ = ("m", "g_table", "a_table", "a_series")
    m: int
    g_table: CompositaTable  # triangle of x*G(x)
    a_table: CompositaTable  # triangle of x*A(x)
    a_series: PowerSeries  # coefficients a(0)..a(order)

    def __init__(
        self, m: int, g_table: CompositaTable, a_table: CompositaTable, a_series: PowerSeries
    ) -> None:
        self._fill(m, g_table, a_table, a_series)


def _power_table(g: PowerSeries, count: int) -> list[Row]:
    """rows[j] holds [x^d] G(x)^j for 0 <= d <= g.order, 0 <= j <= count.

    Each row is the sum of g(i) times the previous row shifted by i,
    truncated at G's order, over the nonzero coefficients of G only.
    """
    width = g.order + 1
    g_terms = scalars(g.coeffs)
    rows: list[Row] = [([1] + [0] * (width - 1), 1)]
    for _ in range(count):
        prev = rows[-1]
        rows.append(combine(((num, den, prev, i) for i, num, den in g_terms), width))
    return rows


def solve_functional_equation(g: PowerSeries, m: int, order: int) -> FuncEqSolution:
    """Solve A(x) = G(x A(x)^m) for any integer m, exactly.

    ``g`` holds the coefficients of G with g(0) != 0, truncated to at
    least ``order``; the returned series carries a(0)..a(order).

    For m >= 0, entry (n, k) of the triangle of x*A(x) is
    k/j * [x^d] G^j with d = n - k and j = k + m*d (the paper's index map
    on the triangle of x*G), so only the band d <= order of the powers of
    G is built: a table of [x^d] G^j for j <= max(m*order, order) + 1.
    The triangle of x*G is read off the same table.  For m < 0 the
    reciprocal equation F = R(xF^w) with w = -m, R = 1/G is solved first
    and the answer flipped back with ``reciprocal_composita``, mirroring
    how the paper reduces the negative case to the positive one.
    """
    if g.coeffs[0] == 0:
        raise ZeroConstantTerm("G must have a nonzero constant term")
    if order < 1:
        raise ValueError("order must be >= 1")
    if g.order < order:
        raise InsufficientOrder(f"g is needed to order {order}, got {g.order}")
    g = g.truncate(order)

    table_order = order + 1  # triangle of x*A(x); column 1 holds a(0)..a(order)
    if m >= 0:
        powers = _power_table(g, max(m * order, order) + 1)
        a_rows = []
        g_rows = []
        for n in range(1, table_order + 1):
            a_row = []
            g_row = []
            for k in range(1, n + 1):
                d = n - k
                j = k + m * d
                nums, den = powers[j]
                a_row.append(Fraction(k * nums[d], j * den))
                nums, den = powers[k]
                g_row.append(Fraction(nums[d], den))
            a_rows.append(tuple(a_row))
            g_rows.append(tuple(g_row))
        a_table = CompositaTable(tuple(a_rows))
        g_table = CompositaTable(tuple(g_rows), source="xG")
    else:
        inner = solve_functional_equation(PowerSeries.one(order) / g, -m, order)
        a_table = reciprocal_composita(inner.a_series, table_order)
        g_table = composita_from_series(g.times_x(), table_order, source="xG")

    a_series = PowerSeries(tuple(a_table[n, 1] for n in range(1, table_order + 1)))
    return FuncEqSolution(m=m, g_table=g_table, a_table=a_table, a_series=a_series)


def radical_composita(m: int, order: int) -> CompositaTable:
    """Triangle of 1 - (1-x)^(1/m) for integer m >= 1.

    Column 1 of the result holds the series coefficients; the route is
    the backward reading of A = G(xA): the wanted triangle is the right
    composita of the triangle of x^2/(1 - (1-x)^m).
    """
    if m < 1:
        raise ValueError("radical index m must be >= 1")
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    inner_order = 2 * order - 1
    # (1 - (1-x)^m)/x = sum_{j=1}^{m} C(m, j) (-1)^(j+1) x^(j-1)
    denom = PowerSeries.of(
        [Fraction((-1 if j % 2 == 0 else 1) * binomial(m, j)) for j in range(1, m + 1)],
        order=inner_order - 1,
    )
    helper = PowerSeries.one(inner_order - 1) / denom
    helper_table = composita_from_series(helper.times_x(), inner_order)
    return right_composita(helper_table, order)


def arcsin_composita(order: int) -> CompositaTable:
    """Triangle of arcsin(x): the right composita of the triangle of
    x^2/sin(x), the latter coming from the reciprocal-triangle transform
    applied to sin(x)/x."""
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    inner_order = 2 * order - 1
    b = make_spec("sin_over_x").series_generator(inner_order - 1)
    csc_table = reciprocal_composita(b, inner_order)
    return right_composita(csc_table, order)
