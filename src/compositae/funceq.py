"""Solving A(x) = G(x A(x)^m) through triangle transforms.

The paper's workhorse is the index map (n, k) -> ((m+1)n - mk, mn - (m-1)k)
on the triangle of x*G(x), which hands back the triangle of x*A(x)
directly.  Entry (n, k) only reads [x^(n-k)] of a power of G, so for
m >= 0 ``solve_functional_equation`` builds just that band of the powers
of G and needs G only to the requested order; no triangle of x*G is built.
The m = 1 case is classical Lagrange inversion (the paper's "right
composita" (k/n) * T_xG(2n - k, n)).  Negative m is routed through
reciprocals: solve F = R(xF^w) with w = -m and R = 1/G, then flip the
answer back with the reciprocal-triangle transform.  That transform is
the one use of ``calculus`` here, imported in the m < 0 branch, so that
``compositae solve`` with m >= 0 does not compile ``calculus``.  The
paper's functional-equation identity on the triangle of x*G is swept by
``identities.check_funceq_identity``.

The module is ``FuncEqSolution``, the power table and the solver alone.
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
from .triangle import MAX_TABLE_ENTRIES, CompositaTable


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
        """The coefficients a(0)..a(order), read off column 1 of ``a_table``."""
        return PowerSeries(self.a_table.column(1))


def _power_table(g: PowerSeries, count: int) -> list[Row]:
    """rows[j] holds [x^d] G(x)^j for 0 <= d <= g.order, 0 <= j <= count.

    Each row is the sum of g(i) times the previous row shifted by i,
    truncated at G's order, over the nonzero coefficients of G only.
    """
    width = g.order + 1
    g_terms = scalars(g.coeffs)
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
    For m < 0 the reciprocal equation F = R(xF^w) with w = -m, R = 1/G is
    solved first and the answer flipped back with
    ``reciprocal_composita``, mirroring how the paper reduces the
    negative case to the positive one.

    Before any work, a call whose power table would hold more than
    ``triangle.MAX_TABLE_ENTRIES`` entries, estimated as
    (max(|m|, 1) * order + 1) * (order + 1), raises ValueError.
    """
    if g.coeffs[0] == 0:
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
        from .calculus import reciprocal_composita  # only m < 0 runs calculus

        inner = solve_functional_equation(PowerSeries.one(order) / g, -m, order)
        a_table = reciprocal_composita(inner.a_series, table_order)
    return FuncEqSolution(m, a_table)
