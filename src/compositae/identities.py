"""Machine checks for the triangle identities, swept over parameter ranges.

Every checker computes both sides of its identity independently and
reports the first disagreement.  Exact arithmetic makes some of these
impossible to break by perturbing the *inputs* (e.g. both groupings of a
triple product are computed from the same three tables, so corrupting a
table corrupts both sides equally); those checkers accept an explicit
``fault`` that injects an error into one side's intermediate, which is
how the test suite proves the comparisons are live.

Some checkers hold the paper's own formula for an object the library
computes by a faster route (``check_reciprocal_identity``); there the
sweep compares the production result with the paper.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import Record
from .calculus import composita_compose
from .combinatorics import binomial, kronecker_delta
from .errors import DivisionByNonUnit, InsufficientOrder, OrderMismatch
from .series import PowerSeries
from .triangle import CompositaTable

Fault = tuple[int, int, Fraction]
Failure = tuple[tuple[int, ...], Fraction, Fraction]


class IdentityReport(Record):
    """Outcome of one identity sweep."""

    __slots__ = ("identity_name", "parameter_range", "status", "first_failure")
    identity_name: str
    parameter_range: str
    status: str  # "verified" or "counterexample"
    first_failure: Optional[Failure]

    def __init__(
        self,
        identity_name: str,
        parameter_range: str,
        status: str,
        first_failure: Optional[Failure] = None,
    ) -> None:
        self._fill(identity_name, parameter_range, status, first_failure)

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_record(self) -> dict:
        record: dict = {
            "identity": self.identity_name,
            "range": self.parameter_range,
            "status": self.status,
        }
        if self.first_failure is not None:
            params, lhs, rhs = self.first_failure
            record["failure"] = {
                "parameters": list(params),
                "lhs": str(lhs),
                "rhs": str(rhs),
            }
        return record


def _verified(name: str, rng: str) -> IdentityReport:
    return IdentityReport(name, rng, "verified")


def _failed(name: str, rng: str, params: tuple[int, ...], lhs: Fraction, rhs: Fraction) -> IdentityReport:
    return IdentityReport(name, rng, "counterexample", (params, lhs, rhs))


def check_associativity(
    tf: CompositaTable,
    tr: CompositaTable,
    tg: CompositaTable,
    fault: Optional[Fault] = None,
) -> IdentityReport:
    """Both groupings of the triple table product agree entrywise.

    ``fault`` = (n, m, delta) adds delta to entry (n, m) of the
    intermediate product tf*tr before the second multiplication.
    """
    if not tf.order == tr.order == tg.order:
        raise OrderMismatch(
            f"orders differ: {tf.order}, {tr.order}, {tg.order}"
        )
    name = "associativity"
    rng = f"1 <= m <= n <= {tf.order}"
    front = composita_compose(tf, tr)
    if fault is not None:
        fn, fm, delta = fault
        front = front.with_entry(fn, fm, front[fn, fm] + delta)
    left = composita_compose(front, tg)
    right = composita_compose(tf, composita_compose(tr, tg))
    for n, m, lhs in left.entries():
        rhs = right[n, m]
        if lhs != rhs:
            return _failed(name, rng, (n, m), lhs, rhs)
    return _verified(name, rng)


def check_derivative_identity(f: PowerSeries, tf: CompositaTable) -> IdentityReport:
    """n * T(n, m) = m * sum_{k=1}^{n-m+1} k f(k) T(n-k, m-1) for n >= m > 1."""
    name = "derivative"
    order = tf.order
    rng = f"1 < m <= n <= {order}"
    for n in range(2, order + 1):
        for m in range(2, n + 1):
            lhs = n * tf[n, m]
            rhs = Fraction(0)
            for k in range(1, n - m + 2):
                fk = f.coeffs[k]
                if fk:
                    rhs += k * fk * tf[n - k, m - 1]
            rhs *= m
            if lhs != rhs:
                return _failed(name, rng, (n, m), lhs, rhs)
    return _verified(name, rng)


def check_inverse_identity(tf: CompositaTable, tinv: CompositaTable) -> IdentityReport:
    """Triangles of mutually inverse functions multiply to the delta table
    in both orders."""
    if tf.order != tinv.order:
        raise OrderMismatch(f"orders differ: {tf.order} vs {tinv.order}")
    name = "inverse"
    rng = f"1 <= m <= n <= {tf.order}"
    for label, product in (
        (0, composita_compose(tf, tinv)),
        (1, composita_compose(tinv, tf)),
    ):
        for n, m, lhs in product.entries():
            rhs = Fraction(kronecker_delta(n, m))
            if lhs != rhs:
                return _failed(name, rng, (label, n, m), lhs, rhs)
    return _verified(name, rng)


def check_lambert_identity(max_n: int, fault: Optional[Fault] = None) -> IdentityReport:
    """(n+m)^(n-1) = sum_{k=0}^{n-1} C(n,k) (m+k)^(n-1) (-1)^(n-k+1).

    ``fault`` = (n, m, delta) adds delta to the right-hand side at that
    parameter pair (the identity has no table inputs to corrupt).
    """
    name = "lambert"
    rng = f"1 <= m <= n <= {max_n}"
    for n in range(1, max_n + 1):
        for m in range(1, n + 1):
            lhs = Fraction((n + m) ** (n - 1))
            rhs = Fraction(0)
            for k in range(0, n):
                sign = -1 if (n - k + 1) % 2 else 1
                rhs += sign * binomial(n, k) * (m + k) ** (n - 1)
            if fault is not None and fault[:2] == (n, m):
                rhs += fault[2]
            if lhs != rhs:
                return _failed(name, rng, (n, m), lhs, rhs)
    return _verified(name, rng)


def check_funceq_identity(
    g: CompositaTable, m: int, max_n: int, max_r: int
) -> IdentityReport:
    """(r/(mn+r)) g((m+1)n+r, mn+r) = sum_{k=1}^{n} (k/n) g((m+1)n-k, mn) g(r+k, r)
    for the triangle g of x*G(x), over 1 <= n <= max_n, 1 <= r <= min(n, max_r)."""
    if m < 1:
        raise ValueError("the identity is stated for m >= 1")
    needed = (m + 1) * max_n + max_r
    if g.order < needed:
        raise InsufficientOrder(f"g is needed to order {needed}, got {g.order}")
    name = "funceq"
    rng = f"m={m}, 1 <= n <= {max_n}, 1 <= r <= min(n, {max_r})"
    for n in range(1, max_n + 1):
        for r in range(1, min(n, max_r) + 1):
            lhs = Fraction(r, m * n + r) * g[(m + 1) * n + r, m * n + r]
            rhs = Fraction(0)
            for k in range(1, n + 1):
                left_factor = g[(m + 1) * n - k, m * n]
                if left_factor:
                    rhs += Fraction(k, n) * left_factor * g[r + k, r]
            if lhs != rhs:
                return _failed(name, rng, (n, r), lhs, rhs)
    return _verified(name, rng)


def check_reciprocal_identity(
    b: PowerSeries, table: CompositaTable, fault: Optional[Fault] = None
) -> IdentityReport:
    """The paper's formula for the triangle of x*A(x), A(x) B(x) = 1.

    Entry (n, n) is b0^(-n); below the diagonal, expanding
    [x/(b0 + (B - b0))]^m by the negative binomial series gives

        (1/b0^m) * sum_{k=1}^{n-m} (-1)^k C(m+k-1, m-1)
                   * sum_{j=0}^{k} b0^(-j) (-1)^(j-k) C(k, j) D(n-m+j, j)

    where D(p, j) is the composita of x*B(x) at (p, j), with the j = 0
    column read as the Kronecker delta.  (The b0 exponent really is -j:
    each k-term carries 1/b0^k from the geometric expansion and b0^(k-j)
    from the binomial, which collapse; writing b0^(k-j) alone is only
    right when b0 = 1.)  Because [x^p] (x B)^j equals [x^(p-j)] B^j,
    those entries are evaluated from plain powers of B, so B is needed
    to order ``table.order - 1``.  The sum is O(N^4) over the table.

    Every entry of ``table`` is compared with the formula.  ``fault`` =
    (n, m, delta) adds delta to the formula's value at (n, m).
    """
    b0 = b.coeffs[0]
    if b0 == 0:
        raise DivisionByNonUnit("reciprocal needs a series with nonzero constant term")
    order = table.order
    depth = order - 1
    if b.order < depth:
        raise InsufficientOrder(f"b is needed to order {depth}, got {b.order}")
    name = "reciprocal"
    rng = f"1 <= m <= n <= {order}"

    power_coeffs: list[tuple[Fraction, ...]] = []
    if depth >= 1:
        base = b.truncate(depth)
        p = base
        power_coeffs.append(p.coeffs)
        for _ in range(depth - 1):
            p = p * base
            power_coeffs.append(p.coeffs)

    def b_power(d: int, j: int) -> Fraction:
        # [x^d] B(x)^j, with B^0 = 1
        if j == 0:
            return Fraction(1 if d == 0 else 0)
        return power_coeffs[j - 1][d]

    for n, m, lhs in table.entries():
        d = n - m
        rhs = Fraction(0)
        for k in range(1, d + 1):
            inner = Fraction(0)
            for j in range(0, k + 1):
                bp = b_power(d, j)
                if bp:
                    sign = -1 if (k - j) % 2 else 1
                    inner += sign * b0**-j * binomial(k, j) * bp
            sign_k = -1 if k % 2 else 1
            rhs += sign_k * binomial(m + k - 1, m - 1) * inner
        rhs = b0**-m if d == 0 else rhs / b0**m
        if fault is not None and fault[:2] == (n, m):
            rhs += fault[2]
        if lhs != rhs:
            return _failed(name, rng, (n, m), lhs, rhs)
    return _verified(name, rng)
