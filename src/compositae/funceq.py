"""Solving A(x) = G(x A(x)^m) through triangle transforms.

The paper's workhorse is the index map (n, k) -> ((m+1)n - mk, mn - (m-1)k)
on the triangle of x*G(x), which hands back the triangle of x*A(x)
directly.  Entry (n, k) only reads [x^(n-k)] of a power of G, so for
m >= 0 ``solve_functional_equation`` builds just that band of the powers
of G and needs G only to the requested order; no triangle of x*G is built.
The m = 1 case is classical Lagrange inversion (the paper's "right
composita" (k/n) * T_xG(2n - k, n)).  Negative m is routed through
reciprocals: solve F = R(xF^w) with w = -m and R = 1/G, then flip the
answer back with the reciprocal-triangle transform.  The paper's
functional-equation identity on the triangle of x*G is swept by
``identities.check_funceq_identity``.

Two applications with non-obvious setups live here as well: triangles for
1 - (1-x)^(1/m) and for arcsin(x), both solutions of A = G(xA) (m = 1)
for a G that is the reciprocal of a simple series.
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
from .triangle import CompositaTable


class FuncEqSolution(Record):
    """Solution bundle for A(x) = G(x A(x)^m)."""

    __slots__ = ("m", "a_table", "a_series")
    m: int
    a_table: CompositaTable  # triangle of x*A(x)
    a_series: PowerSeries  # coefficients a(0)..a(order)

    def __init__(self, m: int, a_table: CompositaTable, a_series: PowerSeries) -> None:
        self._fill(m, a_table, a_series)


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
    least ``order`` (>= 0); the returned series carries a(0)..a(order)
    and the triangle of x*A(x) has order ``order + 1``.

    For m >= 0, entry (n, k) of the triangle of x*A(x) is
    k/j * [x^d] G^j with d = n - k and j = k + m*d (the paper's index map
    on the triangle of x*G), so only the band d <= order of the powers of
    G is built: a table of [x^d] G^j for j <= max(m*order, order) + 1.
    For m < 0 the reciprocal equation F = R(xF^w) with w = -m, R = 1/G is
    solved first and the answer flipped back with
    ``reciprocal_composita``, mirroring how the paper reduces the
    negative case to the positive one.
    """
    if g.coeffs[0] == 0:
        raise ZeroConstantTerm("G must have a nonzero constant term")
    if order < 0:
        raise ValueError("order must be >= 0")
    if g.order < order:
        raise InsufficientOrder(f"g is needed to order {order}, got {g.order}")
    g = g.truncate(order)

    table_order = order + 1  # triangle of x*A(x); column 1 holds a(0)..a(order)
    if m >= 0:
        powers = _power_table(g, max(m * order, order) + 1)
        rows = []
        for n in range(1, table_order + 1):
            row = []
            for k in range(1, n + 1):
                d = n - k
                j = k + m * d
                nums, den = powers[j]
                row.append(Fraction(k * nums[d], j * den))
            rows.append(tuple(row))
        a_table = CompositaTable(tuple(rows))
    else:
        inner = solve_functional_equation(PowerSeries.one(order) / g, -m, order)
        a_table = reciprocal_composita(inner.a_series, table_order)

    a_series = PowerSeries(tuple(a_table[n, 1] for n in range(1, table_order + 1)))
    return FuncEqSolution(m=m, a_table=a_table, a_series=a_series)


def radical_composita(m: int, order: int) -> CompositaTable:
    """Triangle of 1 - (1-x)^(1/m) for integer m >= 1.

    Column 1 of the result holds the series coefficients.  The wanted
    triangle is that of x*A for A = (1 - (1-x)^(1/m))/x, which solves
    A = G(xA) with G = x/(1 - (1-x)^m); G is needed only to ``order - 1``.
    """
    if m < 1:
        raise ValueError("radical index m must be >= 1")
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    # (1 - (1-x)^m)/x = sum_{j=1}^{m} C(m, j) (-1)^(j+1) x^(j-1), cut at x^(order-1)
    denom = PowerSeries.of(
        [(-1) ** (j + 1) * binomial(m, j) for j in range(1, min(m, order) + 1)],
        order=order - 1,
    )
    return solve_functional_equation(PowerSeries.one(order - 1) / denom, 1, order - 1).a_table


def arcsin_composita(order: int) -> CompositaTable:
    """Triangle of arcsin(x), that of x*A for A = arcsin(x)/x, which solves
    A = G(xA) with G = x/sin(x), the reciprocal of the catalog's sin(x)/x."""
    if order < 1:
        raise ValueError("a composita table needs order >= 1")
    b = make_spec("sin_over_x").series_generator(order - 1)
    return solve_functional_equation(PowerSeries.one(order - 1) / b, 1, order - 1).a_table
