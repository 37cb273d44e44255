"""Solving A(x) = G(x A(x)^m) through triangle transforms.

The paper's workhorse is the index map (n, k) -> ((m+1)n - mk, mn - (m-1)k)
on the triangle of x*G(x), which hands back the triangle of x*A(x)
directly.  Entry (n, k) only reads [x^(n-k)] of a power of G, so for
m >= 0 ``solve_functional_equation`` builds just that band of the powers
of G and needs G only to the requested order; no triangle of x*G is built.
The m = 1 case is classical Lagrange inversion (the paper's "right
composita" (k/n) * T_xG(2n - k, n)).  For m < 0 the same Lagrange-Buermann
formula, a(d) = [x^d] G^j / j with j = 1 + m*d <= 0, is read one
coefficient at a time off Miller's power recurrence on G's integer row,
and the triangle of x*A is built from the series by the composita
recurrence, so that ``compositae solve`` builds no ``Fraction`` and never
compiles ``calculus``.  The paper's reduction of the negative case to the
positive one through reciprocals (solve with 1/G and -m, then flip the
answer back) is kept in the tests as the reference for this route.  The
paper's functional-equation identity on the triangle of x*G is swept by
``identities.check_funceq_identity``.

The module is ``FuncEqSolution``, the power table, Miller's recurrence
and the solver alone.
Series that the paper derives as solutions of such an equation, such as
the radicals 1 - (1-x)^(1/m) and arcsin(x), are catalog entries built from
their own coefficients, like every other named function.
"""

from __future__ import annotations

from math import gcd, lcm

from ._record import Record
from ._rows import Row, combine, scalars
from .errors import InsufficientOrder, ZeroConstantTerm
from .series import PowerSeries
from .triangle import MAX_TABLE_ENTRIES, CompositaTable, composita_from_series


class FuncEqSolution(Record):
    """Solution bundle for A(x) = G(x A(x)^m): the exponent and the
    triangle of x*A(x), whose column 1 holds a(0)..a(order)."""

    __slots__ = ("m", "a_table")
    m: int
    a_table: CompositaTable  # triangle of x*A(x)

    def __init__(self, m: int, a_table: CompositaTable) -> None:
        self._fill(m, a_table)

    @property
    def a_series(self) -> PowerSeries:
        """The coefficients a(0)..a(order), read off column 1 of ``a_table``:
        the first entry of each stored row, reduced, with no ``Fraction``."""
        column = []
        for nums, den in self.a_table.int_rows:
            g = gcd(nums[0], den)
            column.append((nums[0] // g, den // g))
        return PowerSeries.from_pairs(column)


def _power_table(g: PowerSeries, count: int) -> list[Row]:
    """rows[j] holds [x^d] G(x)^j for 0 <= d <= g.order, 0 <= j <= count.

    Each row is the sum of g(i) times the previous row shifted by i,
    truncated at G's order, over the nonzero coefficients of G only.
    """
    width = g.order + 1
    g_terms = scalars(g.int_row)
    rows: list[Row] = [((1,) + (0,) * (width - 1), 1)]
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
    For m < 0, a(d) = [x^d] G^j / j with j = 1 + m*d is computed for each
    d by Miller's recurrence on integers (``_negative_m_series``), and the
    triangle of x*A is built from the series.

    Before any work, a call whose power table would hold more than
    ``triangle.MAX_TABLE_ENTRIES`` entries, estimated as
    (max(|m|, 1) * order + 1) * (order + 1), raises ValueError.  For
    m < 0 no power table is built, and the same estimate bounds the
    exponent |j| <= |m| * order, whose powers gd^|j| and g0^|j| of G's
    denominator and constant numerator would otherwise grow without
    bound.
    """
    if g.int_row[0][0] == 0:
        raise ZeroConstantTerm("G must have a nonzero constant term")
    if order < 0:
        raise ValueError("order must be >= 0")
    if g.order < order:
        raise InsufficientOrder(f"g is needed to order {order}, got {g.order}")
    entries = (max(abs(m), 1) * order + 1) * (order + 1)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"solving with m={m} to order {order} needs a power table of about"
            f" {entries} entries; its cap is {MAX_TABLE_ENTRIES}"
        )
    g = g.truncate(order)

    table_order = order + 1  # triangle of x*A(x); column 1 holds a(0)..a(order)
    if m >= 0:
        powers = _power_table(g, max(m * order, order) + 1)
        rows = []
        for n in range(1, table_order + 1):
            # entry k - 1 is k/j * [x^d] G^j, reduced, then put over the lcm
            # of the row's denominators: the unreduced k/j share no small lcm
            parts = []
            for k in range(1, n + 1):
                j = k + m * (n - k)
                p_nums, p_den = powers[j]
                num, den = k * p_nums[n - k], j * p_den
                c = gcd(num, den)
                parts.append((num // c, den // c))
            den = lcm(*[q for _, q in parts])
            rows.append((tuple([p * (den // q) for p, q in parts]), den))
        a_table = CompositaTable._of(tuple(rows), 1)
    else:
        a_table = composita_from_series(_negative_m_series(g, m).times_x(), table_order)
    return FuncEqSolution(m, a_table)


def _negative_m_series(g: PowerSeries, m: int) -> PowerSeries:
    """a(0)..a(g.order) for m < 0, by Lagrange-Buermann: a(d) = [x^d] G^j / j
    with j = 1 + m*d, and a(1) = [x] log G = g(1)/g(0) where j = 0.

    [x^d] G^j is read off J. C. P. Miller's power recurrence (Knuth, TAOCP
    vol. 2, 4.7), which holds for every integer j, run on integers: with
    G = gn/gd and g0 = gn[0], u(0) = 1 and
    n*u(n) = sum_{i=1..n} ((j+1)*i - n) * gn[i] * g0^(i-1) * u(n-i), a
    division that is always exact (u(n) is g0^n times [x^n] (G/G(0))^j,
    a polynomial of degree at most n in gn[i]/g0 with integer
    coefficients), and [x^d] G^j = g0^j * gd^(-j) * u(d) / g0^d.  Each j
    takes its own run of the recurrence: O(order^2) terms per
    coefficient.
    """
    gn, gd = g.int_row
    g0 = gn[0]
    terms = [(i, c * g0 ** (i - 1)) for i, c in enumerate(gn) if i and c]
    pairs = [(g0, gd)]
    for d in range(1, g.order + 1):
        j = 1 + m * d
        if j == 0:
            num, den = gn[1], g0
        else:
            u = [1]
            for n in range(1, d + 1):
                u.append(sum([((j + 1) * i - n) * c * u[n - i] for i, c in terms if i <= n]) // n)
            # j < 0 here: a(d) = u(d) * gd^-j / (g0^(d-j) * j)
            num, den = u[d] * gd**-j, g0 ** (d - j) * j
        c = gcd(num, den)
        pairs.append((num // c, den // c))
    return PowerSeries.from_pairs(pairs)
