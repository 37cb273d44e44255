"""Seeded job lists for the three workloads.

A workload is a fixed list of job templates: subcommand, function family
and order.  The seed fills in what varies between runs without changing
the amount of work: the signs of raw coefficient lists and of polynomial
parameters, the order in which the jobs run, and which ``--format`` each
job gets.  The catalog functions, orders, coefficient magnitudes and the
places of the nonzeros in sparse lists are fixed, so the cost of a pass
stays close across seeds.  The program receives only the argv.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 1
FORMATS = ("triangle", "csv", "records")

# The trivial job whose start-to-exit time is ``setup_s``.
SETUP_JOB = ("composita", "--fn", "geometric", "--n", "1")


# -- seeded input makers ----------------------------------------------------
# Each maker returns a function of the run's random generator that yields a
# designator.  The seed picks the signs; the magnitude of each coefficient is
# fixed by its place in the list, because the size of every table entry
# follows the magnitudes (f(1)^n alone decides the diagonal), and the work
# of a job must not change with the seed.  Lists that are passed as G or B
# start with a positive value so argparse never reads them as a flag.

# Denominators of rational coefficients, by place.  They are primes above
# any numerator, so no fraction reduces.
DENOMINATORS = (11, 13, 17, 19, 23, 29, 31, 37, 41)


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _int_at(rng: random.Random, place: int, mag: int) -> int:
    return _sign(rng) * (1 + place % mag)


def _rat_at(rng: random.Random, place: int) -> Fraction:
    return Fraction(_sign(rng) * (1 + place % 9), DENOMINATORS[place % len(DENOMINATORS)])


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _spread(length: int, nonzeros: int) -> list[int]:
    """``nonzeros`` evenly spaced places in 1..length, the first being 1."""
    return [1 + i * (length - 1) // (nonzeros - 1) for i in range(nonzeros)]


def int_dense(length: int, mag: int = 3):
    """0, then ``length`` nonzero integers: a dense integer F."""
    return lambda rng: _join([0] + [_int_at(rng, i, mag) for i in range(1, length + 1)])


def int_sparse(length: int, nonzeros: int, mag: int = 3):
    """0, then ``nonzeros`` evenly spaced nonzero integers, f(1) among them."""

    def make(rng: random.Random) -> str:
        coeffs = [0] * (length + 1)
        for i in _spread(length, nonzeros):
            coeffs[i] = _int_at(rng, i, mag)
        return _join(coeffs)

    return make


def int_unit(length: int, mag: int = 3):
    """1, then ``length`` nonzero integers."""
    return lambda rng: _join([1] + [_int_at(rng, i, mag) for i in range(1, length + 1)])


def rat_dense(length: int):
    """0, then ``length`` nonzero rationals with unrelated denominators."""
    return lambda rng: _join([0] + [_rat_at(rng, i) for i in range(1, length + 1)])


def rat_sparse(length: int, nonzeros: int):
    """0, then ``nonzeros`` evenly spaced nonzero rationals, f(1) among them."""

    def make(rng: random.Random) -> str:
        coeffs: list = [0] * (length + 1)
        for i in _spread(length, nonzeros):
            coeffs[i] = _rat_at(rng, i)
        return _join(coeffs)

    return make


def rat_unit(length: int):
    """3/7, then ``length`` nonzero rationals."""
    return lambda rng: _join([Fraction(3, 7)] + [_rat_at(rng, i) for i in range(1, length + 1)])


def poly(name: str, arity: int, mag: int = 3):
    """A catalog polynomial with seeded signs on fixed parameter magnitudes."""
    return lambda rng: f"{name}:" + _join(_int_at(rng, i, mag) for i in range(arity))


def monomial(rng: random.Random) -> str:
    return f"monomial:{rng.randint(2, 4)}"


# -- workloads ---------------------------------------------------------------
# Orders run from start-up-dominated sizes (N <= 10) to sizes where one job
# takes about a second.  ``oracle`` is left out: it is an exponential
# spot-check tool, not a production route.

TRIANGLES_INT_WHY = (
    "The triangle recurrence and table composition do almost all the work, on "
    "small integers (up to about 120 bits for the catalog entries); reciprocal and "
    "solve do none.  A common-denominator integer kernel should win here."
)

TRIANGLES_INT = (
    # start-up dominated: eleven, so that job_p50_s falls mid-class below
    ("composita", "--fn", "geometric", "--n", 6),
    ("composita", "--fn", poly("poly2", 2), "--n", 10),
    ("compose", "--r", "fib", "--fn", int_dense(5), "--n", 10),
    ("inverse", "--fn", poly("poly3", 3), "--order", 10),
    ("riordan", "--g", int_unit(4), "--fn", "geometric", "--n", 10, "--b", int_unit(4)),
    ("verify", "--identity", "derivative", "--fn", int_sparse(8, 3), "--max-n", 10),
    ("verify", "--identity", "associativity", "--fn", poly("poly2", 2), "--fn", "geometric",
     "--fn", "fib", "--max-n", 6),
    ("composita", "--fn", monomial, "--n", 8),
    ("composita", "--fn", int_sparse(10, 3), "--n", 10),
    ("riordan", "--g", "fib", "--fn", poly("poly13", 2), "--n", 8),
    ("verify", "--identity", "inverse", "--fn", "fib", "--max-n", 8),
    # medium
    ("composita", "--fn", "fib", "--n", 52),
    ("inverse", "--fn", "fib", "--order", 50),
    ("riordan", "--g", "geometric", "--fn", "fib", "--n", 40),
    ("verify", "--identity", "associativity", "--fn", "geometric", "--fn", "fib",
     "--fn", poly("poly2", 2), "--max-n", 27),
    ("verify", "--identity", "derivative", "--fn", poly("poly4", 4), "--max-n", 63),
    # the largest: eleven, so that job_tail_s falls on this class; its three
    # smallest are of one size, so the tail rank sits in a cluster, not a gap
    ("composita", "--fn", "geometric", "--n", 80),
    ("composita", "--fn", "fib", "--n", 80),
    ("composita", "--fn", int_dense(75), "--n", 75),
    ("composita", "--fn", int_sparse(120, 12), "--n", 120),
    ("compose", "--r", "fib", "--fn", int_dense(62), "--n", 62),
    ("inverse", "--fn", "geometric", "--order", 80),
    ("riordan", "--g", "fib", "--fn", "geometric", "--n", 63),
    ("riordan", "--g", int_unit(57), "--fn", "fib", "--n", 57, "--b", int_unit(57)),
    ("verify", "--identity", "associativity", "--fn", "fib", "--fn", poly("poly3", 3),
     "--fn", "geometric", "--max-n", 41),
    ("verify", "--identity", "derivative", "--fn", "fib", "--max-n", 58),
    ("verify", "--identity", "inverse", "--fn", "geometric", "--max-n", 38),
)

TRIANGLES_RAT_WHY = (
    "Same layers and job mix as triangles_int, on factorial and harmonic "
    "denominators: entries reach about 500 bits and the denominators share no small "
    "lcm.  A representation that helps triangles_int can lose here; a single global "
    "denominator lost 2x on x_exp."
)

TRIANGLES_RAT = (
    # start-up dominated: eleven, so that job_p50_s falls mid-class below
    ("composita", "--fn", "x_exp", "--n", 6),
    ("composita", "--fn", rat_sparse(8, 3), "--n", 8),
    ("compose", "--r", "expm1", "--fn", rat_dense(5), "--n", 10),
    ("inverse", "--fn", "tan", "--order", 10),
    ("riordan", "--g", rat_unit(4), "--fn", "log1p", "--n", 10, "--b", rat_unit(4)),
    ("verify", "--identity", "derivative", "--fn", rat_sparse(8, 3), "--max-n", 10),
    ("verify", "--identity", "associativity", "--fn", "x_cos", "--fn", "expm1",
     "--fn", "tan", "--max-n", 6),
    ("composita", "--fn", "sin", "--n", 10),
    ("inverse", "--fn", rat_dense(6), "--order", 8),
    ("riordan", "--g", "x_cosh", "--fn", "arctan", "--n", 8),
    ("verify", "--identity", "inverse", "--fn", "sinh", "--max-n", 8),
    # medium
    ("composita", "--fn", "log1p", "--n", 48),
    ("compose", "--r", "x_exp", "--fn", "sinh", "--n", 66),
    ("inverse", "--fn", "x_exp", "--order", 50),
    ("riordan", "--g", "x_cosh", "--fn", "sin", "--n", 51),
    ("verify", "--identity", "associativity", "--fn", "x_exp", "--fn", "sin",
     "--fn", "tan", "--max-n", 28),
    # the largest: eleven, so that job_tail_s falls on this class; its three
    # smallest are of one size, so the tail rank sits in a cluster, not a gap
    ("composita", "--fn", "x_exp", "--n", 73),
    ("composita", "--fn", "expm1", "--n", 70),
    ("composita", "--fn", rat_dense(60), "--n", 60),
    ("composita", "--fn", rat_sparse(120, 12), "--n", 120),
    ("compose", "--r", "log1p", "--fn", "x_exp", "--n", 74),
    ("inverse", "--fn", "log1p", "--order", 72),
    ("riordan", "--g", "x_exp", "--fn", "sin", "--n", 63),
    ("riordan", "--g", rat_unit(60), "--fn", "sinh", "--n", 60, "--b", rat_unit(60)),
    ("verify", "--identity", "associativity", "--fn", "sinh", "--fn", "x_cos",
     "--fn", "log1p", "--max-n", 36),
    ("verify", "--identity", "derivative", "--fn", "x_exp", "--max-n", 45),
    ("verify", "--identity", "inverse", "--fn", "expm1", "--max-n", 37),
)

TRANSFORMS_WHY = (
    "The O(N^4) reciprocal sum, the (|m|+1)N oversized triangle of solve and series "
    "division do the work, and the outputs are small.  The ROADMAP's reciprocal and "
    "solve changes show here; triangles_* are their no-change side, and this workload "
    "is the near-no-change side for composita_compose."
)

TRANSFORMS = (
    # start-up dominated: eleven, so that job_p50_s falls mid-class below
    ("reciprocal", "--b", "sin_over_x", "--order", 6),
    ("reciprocal", "--b", rat_unit(4), "--order", 8),
    ("solve", "--g", "1,1", "--m", 1, "--order", 8),
    ("solve", "--g", "1,0,1", "--m", -1, "--order", 8),
    ("solve", "--g", rat_unit(5), "--m", 2, "--order", 6),
    ("solve", "--g", "sin_over_x", "--m", -2, "--order", 6),
    ("verify", "--identity", "funceq", "--g", "1,1", "--m", 1, "--max-n", 5),
    ("reciprocal", "--b", rat_unit(3), "--order", 5),
    ("solve", "--g", "1,1", "--m", -3, "--order", 5),
    ("solve", "--g", rat_unit(3), "--m", 3, "--order", 6),
    ("verify", "--identity", "funceq", "--g", "1,0,1", "--m", 2, "--max-n", 5),
    # medium
    ("reciprocal", "--b", "sin_over_x", "--order", 24),
    ("reciprocal", "--b", rat_unit(6), "--order", 22),
    ("solve", "--g", "1,0,1", "--m", 2, "--order", 42),
    ("solve", "--g", "sin_over_x", "--m", -2, "--order", 17),
    ("solve", "--g", rat_unit(4), "--m", -3, "--order", 11),
    # the largest: eleven, so that job_tail_s falls on this class; its three
    # smallest are of one size, so the tail rank sits in a cluster, not a gap
    ("reciprocal", "--b", "sin_over_x", "--order", 31),
    ("reciprocal", "--b", rat_unit(8), "--order", 27),
    ("solve", "--g", "1,1", "--m", -1, "--order", 26),
    ("solve", "--g", "1,1", "--m", -2, "--order", 22),
    ("solve", "--g", "1,0,1", "--m", -3, "--order", 22),
    ("solve", "--g", rat_unit(8), "--m", -1, "--order", 23),
    ("solve", "--g", "sin_over_x", "--m", -3, "--order", 20),
    ("solve", "--g", "1,1", "--m", 3, "--order", 45),
    ("solve", "--g", rat_unit(6), "--m", 2, "--order", 28),
    ("verify", "--identity", "funceq", "--g", "1,1", "--m", 3, "--max-n", 26),
    ("verify", "--identity", "funceq", "--g", rat_unit(4), "--m", 2, "--max-n", 23),
)

WORKLOADS = {
    "triangles_int": (TRIANGLES_INT_WHY, TRIANGLES_INT),
    "triangles_rat": (TRIANGLES_RAT_WHY, TRIANGLES_RAT),
    "transforms": (TRANSFORMS_WHY, TRANSFORMS),
}

_ORDER_FLAGS = ("--n", "--order", "--max-n")


def make_jobs(workload: str, seed: int, max_order: int | None = None) -> list[list[str]]:
    """The workload's argv lists (without the program name) for ``seed``.

    ``max_order`` caps every order flag; the self-tests use it to run a
    workload at a tiny size.
    """
    _, templates = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for template in templates:
        argv = []
        for flag, value in zip(template[1::2], template[2::2]):
            if callable(value):
                value = value(rng)
            if max_order is not None and flag in _ORDER_FLAGS:
                value = min(value, max_order)
            argv += [flag, str(value)]
        jobs.append([template[0]] + argv)
    rng.shuffle(jobs)
    for i, argv in enumerate(jobs):
        argv += ["--format", FORMATS[(i + seed) % len(FORMATS)]]
    return jobs
