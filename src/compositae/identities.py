"""Machine checks for the triangle identities, swept over parameter ranges:
the six sweeps that ``compositae verify`` runs.

Every checker computes both sides of its identity independently and
reports the first disagreement and how many entries it compared.  Where
exact arithmetic makes an identity impossible to break by perturbing the
*inputs* (both groupings of a triple product are computed from the same
three tables), the checker takes a ``fault`` that corrupts one side's
intermediate, which is how the tests prove the comparisons are live.

The reciprocal sweep is the paper's formula for an object the library
computes by another route: it compares the production table it is given.
The paper's sum, product, Riordan-shift and closed-form checks, which no
CLI subcommand runs, are in ``theorems.py``; they share ``_sweep``,
``_scaled`` and ``_powers`` from here.

The derivative, Lambert, funceq and reciprocal sweeps compare
cross-multiplied integers, each side summed over one lcm, and build
``Fraction`` values only for a failure; the powers of B behind the
reciprocal check are integer rows too.  The sweeps read the tables'
stored rows: the derivative sweep takes each integer row as it is, the
funceq sweep reads only the entries it needs, and the associativity and
inverse sweeps compare whole tables (exact, since equal tables store equal
canonical rows) and walk the entries only to find the first failure.
Their arithmetic is written here, not taken from the kernel ``_rows``, so
the checks stay independent of it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from operator import add, mul
from typing import Callable, Optional, Sequence

from ._record import Record
from .errors import DivisionByNonUnit, InsufficientOrder, OrderMismatch
from .series import PowerSeries
from .triangle import CompositaTable

Fault = tuple[int, int, Fraction]
Failure = tuple[tuple[int, ...], Fraction, Fraction]
Scaled = tuple[list[int], int]  # numerators over one positive denominator


class IdentityReport(Record):
    """Outcome of one identity sweep; ``checked`` counts the entries
    compared, up to and including the first failure, and the sweep is
    verified when there is no first failure."""

    __slots__ = ("identity_name", "parameter_range", "checked", "first_failure")
    identity_name: str
    parameter_range: str
    checked: int
    first_failure: Optional[Failure]

    def __init__(self, identity_name: str, parameter_range: str, checked: int,
                 first_failure: Optional[Failure] = None) -> None:
        self._fill(identity_name, parameter_range, checked, first_failure)

    @property
    def verified(self) -> bool:
        return self.first_failure is None

    @property
    def status(self) -> str:
        return "verified" if self.verified else "counterexample"

    def to_record(self) -> dict:
        record: dict = {"identity": self.identity_name, "range": self.parameter_range,
                        "status": self.status, "checked": self.checked}
        if self.first_failure is not None:
            params, lhs, rhs = self.first_failure
            record["failure"] = {"parameters": list(params), "lhs": str(lhs), "rhs": str(rhs)}
        return record


def _scaled(values: Sequence[Fraction]) -> Scaled:
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _sum_scaled(terms: list[tuple[int, int, Scaled]], width: int) -> Scaled:
    """Sum of a/b * nums/den over ``terms``, cut to ``width``, over one lcm."""
    den = lcm(*(b * row_den for _, b, (_, row_den) in terms))
    acc = [0] * width
    for a, b, (nums, row_den) in terms:
        scale = a * (den // (b * row_den))
        acc[: min(len(nums), width)] = map(add, acc, map(mul, nums, repeat(scale)))
    return acc, den


def _powers(b: PowerSeries, count: int, width: int) -> list[Scaled]:
    """B^0..B^count, each cut to ``width`` coefficients over its own lcm."""
    b_nums, b_den = _scaled(b.coeffs[:width])
    terms = [(i, v) for i, v in enumerate(b_nums) if v]
    powers: list[Scaled] = [([1] + [0] * (width - 1), 1)]
    for _ in range(count):
        prev, den = powers[-1]
        acc = [0] * width
        for i, v in terms:
            acc[i:] = map(add, acc[i:], map(mul, prev, repeat(v)))
        den *= b_den
        g = gcd(den, *acc)
        powers.append(([a // g for a in acc], den // g))
    return powers


def _sweep(
    name: str, rng: str, table: CompositaTable, formula: Callable[[int, int], Fraction]
) -> IdentityReport:
    """Compare every entry (n, k) of ``table`` (lhs) with ``formula(n, k)`` (rhs)."""
    for checked, (n, k, lhs) in enumerate(table.entries(), 1):
        rhs = formula(n, k)
        if lhs != rhs:
            return IdentityReport(name, rng, checked, ((n, k), lhs, rhs))
    return IdentityReport(name, rng, checked)


def check_associativity(
    tf: CompositaTable, tr: CompositaTable, tg: CompositaTable, fault: Optional[Fault] = None
) -> IdentityReport:
    """Both groupings of the triple table product agree entrywise.

    ``fault`` = (n, m, delta) adds delta to entry (n, m) of the
    intermediate product tf*tr before the second multiplication.
    """
    from .calculus import composita_compose  # only two sweeps compile calculus

    if not tf.order == tr.order == tg.order:
        raise OrderMismatch(f"orders differ: {tf.order}, {tr.order}, {tg.order}")
    name, rng = "associativity", f"1 <= m <= n <= {tf.order}"
    front = composita_compose(tf, tr)
    if fault is not None:
        fn, fm, delta = fault
        front = front.with_entry(fn, fm, front[fn, fm] + delta)
    left = composita_compose(front, tg)
    right = composita_compose(tf, composita_compose(tr, tg))
    if left == right:  # exact: equal tables store equal canonical rows
        return IdentityReport(name, rng, tf.order * (tf.order + 1) // 2)
    return _sweep(name, rng, left, lambda n, m: right[n, m])


def check_derivative_identity(f: PowerSeries, tf: CompositaTable) -> IdentityReport:
    """n * T(n, m) = m * sum_{k=1}^{n-m+1} k f(k) T(n-k, m-1) for n >= m > 1.

    Entry m - 2 of the sum of k f(k) * row(n - k) is the sum for (n, m)."""
    order = tf.order
    name, rng = "derivative", f"1 < m <= n <= {order}"
    kf = [(k, k * c.numerator, c.denominator) for k in range(1, order) if (c := f.coeffs[k])]
    rows = tf.int_rows  # rows[n - 1] is row n
    checked = 0
    for n in range(2, order + 1):
        acc, den = _sum_scaled([(a, b, rows[n - k - 1]) for k, a, b in kf if k < n], n - 1)
        nums, row_den = rows[n - 1]
        for m in range(2, n + 1):
            checked += 1
            lhs, rhs = n * nums[m - 1], m * acc[m - 2]
            if lhs * den != rhs * row_den:
                failure = ((n, m), Fraction(lhs, row_den), Fraction(rhs, den))
                return IdentityReport(name, rng, checked, failure)
    return IdentityReport(name, rng, checked)


def check_inverse_identity(tf: CompositaTable, tinv: CompositaTable) -> IdentityReport:
    """Triangles of mutually inverse functions multiply to the delta table
    in both orders."""
    from .calculus import composita_compose

    if tf.order != tinv.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tinv.order}")
    name, rng = "inverse", f"1 <= m <= n <= {tf.order}"
    products = composita_compose(tf, tinv), composita_compose(tinv, tf)
    delta = tuple(((0,) * n + (1,), 1) for n in range(tf.order))
    if products[0].int_rows == products[1].int_rows == delta:
        return IdentityReport(name, rng, tf.order * (tf.order + 1))
    checked = 0
    for label, product in enumerate(products):
        for n, m, lhs in product.entries():
            checked += 1
            rhs = Fraction(1 if n == m else 0)
            if lhs != rhs:
                return IdentityReport(name, rng, checked, ((label, n, m), lhs, rhs))
    return IdentityReport(name, rng, checked)


def check_lambert_identity(max_n: int, fault: Optional[Fault] = None) -> IdentityReport:
    """(n+m)^(n-1) = sum_{k=0}^{n-1} C(n,k) (m+k)^(n-1) (-1)^(n-k+1).

    ``fault`` = (n, m, delta) adds delta to the right-hand side at that
    parameter pair (the identity has no table inputs to corrupt).
    """
    name, rng = "lambert", f"1 <= m <= n <= {max_n}"
    checked = 0
    for n in range(1, max_n + 1):
        e = n - 1
        for m in range(1, n + 1):
            checked += 1
            lhs = (n + m) ** e
            rhs = sum((-1) ** (e - k) * comb(n, k) * (m + k) ** e for k in range(n))
            if fault is not None and fault[:2] == (n, m):
                rhs += fault[2]
            if lhs != rhs:
                return IdentityReport(name, rng, checked, ((n, m), Fraction(lhs), Fraction(rhs)))
    return IdentityReport(name, rng, checked)


def check_funceq_identity(g: CompositaTable, m: int, max_n: int, max_r: int) -> IdentityReport:
    """(r/(mn+r)) g((m+1)n+r, mn+r) = sum_{k=1}^{n} (k/n) g((m+1)n-k, mn) g(r+k, r)
    for the triangle g of x*G(x), over 1 <= n <= max_n, 1 <= r <= min(n, max_r).

    Entry (p, q) of g is [x^(p-q)] G^q, whose denominator depends on p - q:
    so the factors g(r+k, r) are read as subdiagonal k over its own lcm."""
    if m < 1:
        raise ValueError("the identity is stated for m >= 1")
    needed = (m + 1) * max_n + max_r
    if g.order < needed:
        raise InsufficientOrder(f"g is needed to order {needed}, got {g.order}")
    name, rng = "funceq", f"m={m}, 1 <= n <= {max_n}, 1 <= r <= min(n, {max_r})"
    width = min(max_n, max_r)
    diagonals: list[Scaled] = []  # diagonals[k - 1]: g(r + k, r) for r = 1..width
    checked = 0
    for n in range(1, max_n + 1):
        diagonals.append(_scaled([g[n + r, r] for r in range(1, width + 1)]))
        w, mn = min(n, max_r), m * n
        left = ((k, g[mn + n - k, mn]) for k in range(1, n + 1))
        terms = [(k * a.numerator, a.denominator, diagonals[k - 1]) for k, a in left if a]
        acc, den = _sum_scaled(terms, w)
        for r in range(1, w + 1):
            checked += 1
            entry = g[mn + n + r, mn + r]
            lhs_num, lhs_den = r * entry.numerator, (mn + r) * entry.denominator
            if lhs_num * n * den != acc[r - 1] * lhs_den:
                failure = ((n, r), Fraction(lhs_num, lhs_den), Fraction(acc[r - 1], n * den))
                return IdentityReport(name, rng, checked, failure)
    return IdentityReport(name, rng, checked)


def check_reciprocal_identity(
    b: PowerSeries, table: CompositaTable, fault: Optional[Fault] = None
) -> IdentityReport:
    """The paper's formula for the triangle of x*A(x), A(x) B(x) = 1.

    Entry (n, n) is b0^(-n); below the diagonal, expanding
    [x/(b0 + (B - b0))]^m by the negative binomial series gives

        (1/b0^m) * sum_{k=1}^{n-m} (-1)^k C(m+k-1, m-1)
                   * sum_{j=0}^{k} b0^(-j) (-1)^(j-k) C(k, j) D(n-m+j, j)

    where D(p, j) is the composita of x*B(x) at (p, j), with the j = 0
    column read as the Kronecker delta.  (The b0 exponent really is -j: the
    1/b0^k of the geometric expansion and the b0^(k-j) of the binomial
    collapse.)  Because [x^p] (x B)^j equals [x^(p-j)] B^j,
    those entries are evaluated from plain powers of B, so B is needed
    to order ``table.order - 1``.

    With b0 = p/q, d = n - m and [x^d] B^j = P_j / E, this is q^m S / (p^n E)
    for S = sum_{k=0}^{d} C(m+k-1, k) sum_{j=0}^{k} C(k, j) (-1)^j q^j p^(d-j) P_j,
    whose k = 0 and j = 0 terms give the diagonal (P_0 is [d = 0]) and whose
    inner sum is taken once per (d, k).

    Every entry of ``table`` is compared with the formula.  ``fault`` =
    (n, m, delta) adds delta to the formula's value at (n, m).
    """
    b0 = b.coeffs[0]
    if b0 == 0:
        raise DivisionByNonUnit("reciprocal needs a series with nonzero constant term")
    order, depth = table.order, table.order - 1
    if b.order < depth:
        raise InsufficientOrder(f"b is needed to order {depth}, got {b.order}")
    name, rng = "reciprocal", f"1 <= m <= n <= {order}"
    powers = _powers(b, depth, order)  # powers[j] is B^j
    p, q = b0.numerator, b0.denominator
    p_pow, q_pow = [p**i for i in range(order + 1)], [q**i for i in range(order + 1)]
    inner: list[Scaled] = []  # inner[d]: the sums over j for k = 0..d, over E
    for d in range(order):
        den = lcm(*(row_den for _, row_den in powers[: d + 1]))
        nums = [row[d] * (den // row_den) for row, row_den in powers[: d + 1]]
        u = [(-1) ** j * q_pow[j] * p_pow[d - j] * v for j, v in enumerate(nums)]
        sums = [sum(comb(k, j) * u[j] for j in range(k + 1)) for k in range(d + 1)]
        inner.append((sums, den))
    for checked, (n, m, lhs) in enumerate(table.entries(), 1):
        sums, den = inner[n - m]
        num = q_pow[m] * sum(comb(m + k - 1, k) * s for k, s in enumerate(sums))
        den *= p_pow[n]
        if fault is not None and fault[:2] == (n, m):
            num, den = (Fraction(num, den) + fault[2]).as_integer_ratio()
        if lhs.numerator * den != num * lhs.denominator:
            return IdentityReport(name, rng, checked, ((n, m), lhs, Fraction(num, den)))
    return IdentityReport(name, rng, checked)
