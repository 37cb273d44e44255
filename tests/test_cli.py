"""End-to-end CLI checks: byte-exact output and the exit-code contract
(0 ok, 1 usage, 2 precondition, 3 counterexample, 4 internal error)."""

from __future__ import annotations

import ast
import contextlib
import errno
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compositae import _offpath, _verify, cli
from compositae.catalog import catalog_series, parse_function_spec, registry_names
from compositae.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

PASCAL_SIX = "1\n1 1\n1 2 1\n1 3 3 1\n1 4 6 4 1\n1 5 10 10 5 1"


# A token grammar for command lines: subcommands, the flags of every
# subcommand (so also flags of the wrong one), argparse-only forms, and
# values inside and outside each flag's grammar.  Orders stay <= 8 so that
# running a call is fast.
_DESIGNATORS = (
    "geometric", "fib", "x_exp", "sin_over_x", "poly2:1,-1", "monomial:3", "radical:3",
    "arcsin", "0,1,1", "1,1", "1,0,1", "3/7,2/13", "-1,2", "-1", "nosuch", "1e5", "0,1_0", "",
)
_INTEGERS = ("1", "3", "8", "0", "-2", "-0", " 3", "+3", "03", "-1.5", "1_0", "\u0663", "abc", "")
_PERTURBS = ("3,2,1", "2,1,-1/2", "9,9,1", "2,1", "x,1,1", "1,1,1/0", "-1,2")
_VALUES_BY_KIND = {
    "text": _DESIGNATORS,
    "append": _DESIGNATORS,
    "int": _INTEGERS,
    "perturb": _PERTURBS,
}
_SPECIAL = ("-h", "--help", "--", "--ord", "--n=5", "--fn=geometric", "-", "bogus")
_ALL_VALUES = sorted(
    {v for values in _VALUES_BY_KIND.values() for v in values}
    | {"triangle", "csv", "records", "xml", "lambert", "derivative", "nosuch"}
)


def _values_for(kind) -> tuple:
    return kind + ("xml", "nosuch") if isinstance(kind, tuple) else _VALUES_BY_KIND[kind]


@st.composite
def _argvs(draw, with_output: bool) -> list[str]:
    """A command line: usually a subcommand with most of its required flags
    (so that many are well formed), then a few flags or special tokens of
    any kind, in shuffled order.  ``with_output=False`` leaves out --output,
    so that running the call writes no file."""
    flags = [
        flag for _, table in cli._COMMANDS.values() for flag in table
        if with_output or flag[0] != "--output"
    ]
    command = draw(st.sampled_from((*cli._COMMANDS, "bogus", "--help")))
    groups = []
    for flag in cli._COMMANDS.get(command, ("", ()))[1]:
        if flag[2] and draw(st.integers(0, 9)):
            groups.append([flag[0], draw(st.sampled_from(_values_for(flag[1])))])
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(flags))
        if flag[1] == "switch":
            groups.append([flag[0]])
        else:
            groups.append([flag[0], draw(st.sampled_from(_values_for(flag[1])))])
        if not draw(st.integers(0, 5)):  # a special token, a stray value or a lost value
            groups.append([draw(st.sampled_from(_SPECIAL + tuple(_ALL_VALUES)))])
    groups = draw(st.permutations(groups))
    return [command] + [token for group in groups for token in group]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComposita:
    def test_geometric_is_pascal(self, capsys):
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "6",
            "--format", "triangle",
        )
        assert code == 0
        assert out == PASCAL_SIX + "\n"

    def test_raw_coefficient_list(self, capsys):
        code, out, _ = run(capsys, "composita", "--fn", "0,1,1", "--n", "6")
        assert code == 0
        assert out.splitlines() == [
            "1",
            "1 1",
            "0 2 1",
            "0 1 3 1",
            "0 0 3 4 1",
            "0 0 1 6 5 1",
        ]

    def test_nonzero_constant_term_exits_2(self, capsys):
        code, _, err = run(capsys, "composita", "--fn", "1,1", "--n", "4")
        assert code == 2
        assert "error:" in err

    def test_unknown_name_exits_1_with_hint(self, capsys):
        code, _, err = run(capsys, "composita", "--fn", "nope", "--n", "4")
        assert code == 1
        assert "known functions:" in err
        assert "geometric" in err

    def test_missing_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "composita", "--fn", "geometric")
        assert code == 1

    @pytest.mark.parametrize(
        "fn, message",
        [
            ("radical:0", "radical index must be a positive integer"),
            ("radical:1/2", "radical index must be a positive integer"),
            ("radical:-1", "radical index must be a positive integer"),
            ("radical", "radical takes 1 parameters, got 0"),
            ("radical:1,2", "radical takes 1 parameters, got 2"),
        ],
    )
    def test_bad_radical_exits_1_with_hint(self, capsys, fn, message):
        code, out, err = run(capsys, "composita", "--fn", fn, "--n", "3")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"error: {message}", f"known functions: {', '.join(registry_names())}"
        ]

    def test_radical_triangle(self, capsys):
        # 1 - (1-x)^(1/3) = x/3 + x^2/9 + 5x^3/81 + ...
        code, out, _ = run(capsys, "composita", "--fn", "radical:3", "--n", "3")
        assert (code, out) == (0, "1/3\n1/9 1/9\n5/81 2/27 1/27\n")

    def test_order_must_be_positive(self, capsys):
        code, _, err = run(capsys, "composita", "--fn", "geometric", "--n", "0")
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize("fn", ["0,1e3,2E-1", "poly2:1e5,1"])
    def test_exponent_notation_exits_1(self, capsys, fn):
        code, out, err = run(capsys, "composita", "--fn", fn, "--n", "3")
        assert code == 1
        assert out == ""
        assert "exponent notation" in err

    @pytest.mark.parametrize("fn", ["0,1_0", "1_0", "poly2:1_0,1", "0,\u0663"])
    def test_underscore_or_non_ascii_digit_exits_1(self, capsys, fn):
        code, out, err = run(capsys, "composita", "--fn", fn, "--n", "2")
        assert code == 1
        assert out == ""
        assert "'_' and non-ASCII characters are not accepted" in err

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "\uff13", "+\u0663"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("composita", "--fn", "geometric"), "--n"),
            (("compose", "--r", "geometric", "--fn", "geometric"), "--n"),
            (("inverse", "--fn", "x_exp"), "--order"),
            (("reciprocal", "--b", "sin_over_x"), "--order"),
            (("solve", "--g", "1,1", "--m", "2"), "--order"),
            (("solve", "--g", "1,1", "--order", "4"), "--m"),
            (("riordan", "--g", "1,1", "--fn", "geometric"), "--n"),
            (("verify", "--identity", "lambert"), "--max-n"),
            (("verify", "--identity", "funceq"), "--max-r"),
            (("verify", "--identity", "funceq"), "--m"),
            (("oracle", "--fn", "geometric", "--k", "1"), "--n"),
            (("oracle", "--fn", "geometric", "--n", "3"), "--k"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_integer_flag_with_underscore_or_non_ascii_digit_exits_1(
        self, capsys, argv, flag, value
    ):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")

    def test_bad_integer_flag_keeps_the_argparse_message(self, capsys):
        code, out, err = run(capsys, "composita", "--fn", "geometric", "--n", "abc")
        assert code == 1
        assert out == ""
        assert err.endswith(
            "compositae composita: error: argument --n: invalid int value: 'abc'\n"
        )

    @pytest.mark.parametrize("n", ["3", "+3", " 3", "03"])
    def test_integer_flag_takes_ascii_digits_with_a_sign(self, capsys, n):
        code, out, _ = run(capsys, "composita", "--fn", "geometric", "--n", n)
        assert code == 0
        assert out == "1\n1 1\n1 2 1\n"

    def test_huge_exponent_is_rejected_before_any_value_is_built(self, capsys):
        # 10**100000000 would take minutes to build; the check comes first.
        start = time.perf_counter()
        code, out, err = run(capsys, "composita", "--fn", "0,1e100000000", "--n", "3")
        assert code == 1
        assert out == ""
        assert "exponent notation" in err
        assert time.perf_counter() - start < 5

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "3",
            "--format", "csv",
        )
        assert code == 0
        assert out == "n,k,value\n1,1,1\n2,1,1\n2,2,1\n3,1,1\n3,2,2\n3,3,1\n"

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "2",
            "--format", "records",
        )
        assert code == 0
        assert [json.loads(line) for line in out.splitlines()] == [
            {"n": 1, "k": 1, "value": "1"},
            {"n": 2, "k": 1, "value": "1"},
            {"n": 2, "k": 2, "value": "1"},
        ]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "triangle.txt"
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "6",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == PASCAL_SIX + "\n"

    def test_byte_determinism(self, capsys):
        first = run(capsys, "composita", "--fn", "sin", "--n", "8")
        second = run(capsys, "composita", "--fn", "sin", "--n", "8")
        assert first == second


class TestSeriesCommands:
    def test_solve_catalan(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--g", "1,1", "--m", "2", "--order", "8"
        )
        assert code == 0
        assert out == "1,1,2,5,14,42,132,429,1430\n"

    def test_solve_table(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--g", "1,1", "--m", "1", "--order", "4", "--table"
        )
        assert code == 0
        # x*A for A = 1/(1-x): the all-ones function's triangle is Pascal.
        assert out == "1\n1 1\n1 2 1\n1 3 3 1\n1 4 6 4 1\n"

    def test_solve_rejects_vanishing_g(self, capsys):
        code, _, err = run(capsys, "solve", "--g", "0,1", "--m", "1", "--order", "4")
        assert code == 2

    def test_inverse_lambert(self, capsys):
        code, out, _ = run(capsys, "inverse", "--fn", "x_exp", "--order", "5")
        assert code == 0
        assert out == "1,-1,3/2,-8/3,125/24\n"

    @pytest.mark.parametrize(
        "fn, inverse",
        [
            ("arcsin", "1,0,-1/6,0,1/120,0,-1/5040,0"),  # sin
            ("radical:2", "2,-1,0,0,0,0,0,0"),  # 1 - (1 - x)^2
        ],
    )
    def test_inverse_of_a_catalog_radical_or_arcsin(self, capsys, fn, inverse):
        code, out, _ = run(capsys, "inverse", "--fn", fn, "--order", "8")
        assert (code, out) == (0, inverse + "\n")

    def test_solve_refuses_a_power_table_over_its_cap(self):
        # 2 * 10^8 rows of powers of G: refused before the first, in a
        # subprocess whose timeout stops a run that does start
        code, out, err = _module_call("solve", "--g", "1,1", "--m", "99999999", "--order", "2")
        assert (code, out) == (2, "")
        assert err == (
            "error: solving with m=99999999 to order 2 needs a power table of about"
            " 599999997 entries; its cap is 1000000\n"
        )

    def test_solve_refuses_a_huge_negative_m(self):
        # no power table for m < 0, but the exponent |j| <= |m| * order of
        # g0^|j| and gd^|j| is bounded by the same estimate, before any work
        code, out, err = _module_call("solve", "--g", "3/7,2/13", "--m", "-99999999", "--order", "2")
        assert (code, out) == (2, "")
        assert err == (
            "error: solving with m=-99999999 to order 2 needs a power table of about"
            " 599999997 entries; its cap is 1000000\n"
        )

    def test_inverse_needs_linear_term(self, capsys):
        code, _, err = run(capsys, "inverse", "--fn", "0,0,1", "--order", "5")
        assert code == 2

    def test_inverse_refuses_a_nonzero_constant_when_it_builds_the_triangle(self, capsys):
        code, out, err = run(capsys, "inverse", "--fn", "1,1", "--order", "4")
        assert (code, out) == (2, "")
        assert err == "error: compositae are defined only for series with zero constant term\n"

    def test_compose_fibonacci(self, capsys):
        code, out, _ = run(
            capsys, "compose", "--r", "geometric", "--fn", "0,1,1", "--n", "6"
        )
        assert code == 0
        assert out == "0,1,2,3,5,8,13\n"

    def test_reciprocal_of_sin_over_x(self, capsys):
        code, out, _ = run(
            capsys, "reciprocal", "--b", "sin_over_x", "--order", "5"
        )
        assert code == 0
        assert out == "1\n0 1\n1/6 0 1\n0 1/3 0 1\n7/360 0 1/2 0 1\n"

    def test_reciprocal_needs_unit(self, capsys):
        code, _, _ = run(capsys, "reciprocal", "--b", "0,1", "--order", "4")
        assert code == 2

    def test_oracle_entry(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--fn", "geometric", "--n", "5", "--k", "2"
        )
        assert code == 0
        assert out == "4\n"

    @pytest.mark.parametrize("fmt", ["triangle", "csv", "records"])
    def test_oracle_takes_no_format(self, capsys, fmt):
        # oracle prints one value, so there is no output shape to choose
        code, out, err = run(
            capsys, "oracle", "--fn", "geometric", "--n", "5", "--k", "2", "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --format" in err

    def test_oracle_enumerates_more_parts_than_the_recursion_limit(self, capsys):
        # C(n - 1, k - 1) = 1199 compositions of 1200 into 1199 parts: the
        # enumeration goes 1199 parts deep, past the default recursion limit
        code, out, err = run(
            capsys, "oracle", "--fn", "geometric", "--n", "1200", "--k", "1199"
        )
        assert (code, out, err) == (0, "1199\n", "")

    def test_oracle_refuses_an_enumeration_over_its_cap(self):
        # C(40, 19) - 1, about 1.3e11 prefixes: refused before the first one,
        # in a subprocess whose timeout stops a run that does start
        code, out, err = _module_call("oracle", "--fn", "geometric", "--n", "40", "--k", "20")
        assert (code, out) == (2, "")
        assert err == (
            "error: the oracle would enumerate up to 131282408399 composition"
            " prefixes for n=40, k=20; its cap is 1000000\n"
        )

    def test_oracle_bad_k(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--fn", "geometric", "--n", "5", "--k", "6"
        )
        assert code == 1


class TestRiordan:
    def test_pascal_array(self, capsys):
        code, out, _ = run(
            capsys, "riordan", "--g", "1,1,1,1,1", "--fn", "geometric", "--n", "4"
        )
        assert code == 0
        assert out == "1\n1 1\n1 2 1\n1 3 3 1\n1 4 6 4 1\n"

    def test_apply_binomial_transform(self, capsys):
        code, out, _ = run(
            capsys, "riordan", "--g", "1,1,1,1,1", "--fn", "geometric",
            "--n", "4", "--b", "1,1,1,1,1",
        )
        assert code == 0
        assert out == "1,2,4,8,16\n"


# the input flags each verify sweep reads: any other one is refused, so that
# no flag of a call is dropped without a word
SWEEP_READS = {
    "associativity": ("--fn",),
    "derivative": ("--fn",),
    "inverse": ("--fn",),
    "lambert": (),
    "funceq": ("--g", "--m", "--max-r"),
    "reciprocal": ("--b",),
}
INPUT_VALUES = {"--fn": "geometric", "--g": "1,1", "--m": "1", "--max-r": "3", "--b": "1,1"}


class TestVerify:
    # one in-range fault per sweep, at its default sizes, and the line it prints
    PLANTED = {
        "associativity": ("4,1,1", "counterexample at (4,1): lhs=115/6 rhs=109/6"),
        "derivative": ("5,2,1", "counterexample at (5,2): lhs=25 rhs=20"),
        "inverse": ("4,2,1", "counterexample at (0,4,2): lhs=1 rhs=0"),
        "lambert": ("3,2,1", "counterexample at (3,2): lhs=25 rhs=26"),
        "funceq": ("3,2,1", "counterexample at (1,1): lhs=3/2 rhs=1"),
        "reciprocal": ("4,2,1", "counterexample at (4,2): lhs=4/3 rhs=1/3"),
    }

    def test_sweep_table_keys_are_the_identity_choices(self):
        flags = {flag[0]: flag for flag in cli._COMMANDS["verify"][1]}
        assert tuple(_verify.SWEEPS) == flags["--identity"][1] == cli.IDENTITY_NAMES

    @pytest.mark.parametrize("identity", cli.IDENTITY_NAMES)
    def test_default_sweep_verifies_and_finds_a_planted_fault(self, capsys, identity):
        code, out, _ = run(capsys, "verify", "--identity", identity)
        assert code == 0
        assert out == "verified\n"
        perturb, line = self.PLANTED[identity]
        code, out, _ = run(capsys, "verify", "--identity", identity, "--perturb", perturb)
        assert code == 3
        assert out == line + "\n"

    @pytest.mark.parametrize("identity", cli.IDENTITY_NAMES)
    def test_records_report_is_the_json_dumps_line(self, capsys, identity):
        perturb, _ = self.PLANTED[identity]
        for extra, code in (((), 0), (("--perturb", perturb), 3)):
            got = run(capsys, "verify", "--identity", identity, *extra, "--format", "records")
            assert got[0] == code
            record = json.loads(got[1])
            assert got[1] == json.dumps(record) + "\n"
            assert ("failure" in record) == (code == 3)

    def test_lambert_verified(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "lambert", "--max-n", "10"
        )
        assert code == 0
        assert out == "verified\n"

    def test_lambert_perturbed_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "lambert", "--perturb", "3,2,1"
        )
        assert code == 3
        assert out == "counterexample at (3,2): lhs=25 rhs=26\n"

    def test_associativity_default_triple(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "associativity")
        assert code == 0
        assert out == "verified\n"

    def test_associativity_perturbed(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "associativity",
            "--perturb", "4,1,1", "--max-n", "6",
        )
        assert code == 3
        assert out.startswith("counterexample at (")

    def test_associativity_needs_three_functions(self, capsys):
        code, _, err = run(
            capsys, "verify", "--identity", "associativity",
            "--fn", "geometric", "--fn", "sin",
        )
        assert code == 1

    def test_sweep_table_lists_the_flags_each_sweep_reads(self):
        assert {name: sweep[1] for name, sweep in _verify.SWEEPS.items()} == SWEEP_READS
        assert _verify.INPUT_FLAGS == tuple(INPUT_VALUES)

    @pytest.mark.parametrize(
        "identity, flag",
        [(i, f) for i, reads in SWEEP_READS.items() for f in INPUT_VALUES if f not in reads],
    )
    def test_a_flag_the_sweep_does_not_read_exits_1(self, capsys, identity, flag):
        code, out, err = run(
            capsys, "verify", "--identity", identity, flag, INPUT_VALUES[flag]
        )
        assert (code, out) == (1, "")
        assert err == f"error: the {identity} sweep does not read {flag}\n"

    def test_unread_flags_are_refused_in_any_form(self, capsys):
        # the call that used to print "verified" and exit 0; argparse reads
        # --m=7, and the sweep refuses the first unread flag it checks
        for argv in (
            ("--fn", "x_exp", "--m", "7", "--g", "1,2", "--b", "1,1", "--max-r", "3"),
            ("--m=7",),
        ):
            code, out, err = run(capsys, "verify", "--identity", "lambert", *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: the lambert sweep does not read --")

    @pytest.mark.parametrize("identity", ["derivative", "inverse"])
    def test_derivative_and_inverse_take_one_function(self, capsys, identity):
        code, out, err = run(
            capsys, "verify", "--identity", identity, "--fn", "x_exp", "--fn", "sin"
        )
        assert (code, out) == (1, "")
        assert err == f"error: {identity} takes one --fn designator, got 2\n"

    def test_derivative_and_inverse(self, capsys):
        for identity in ("derivative", "inverse"):
            code, out, _ = run(capsys, "verify", "--identity", identity)
            assert code == 0
            assert out == "verified\n"

    def test_funceq_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "funceq", "--g", "1,1",
            "--m", "2", "--max-n", "4",
        )
        assert code == 0
        assert out == "verified\n"

    def test_records_format_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "lambert", "--max-n", "6",
            "--format", "records",
        )
        assert code == 0
        assert json.loads(out) == {
            "identity": "lambert",
            "range": "1 <= m <= n <= 6",
            "status": "verified",
            "checked": 21,
        }

    def test_funceq_refuses_a_triangle_over_its_cap(self):
        # the triangle of x*G to order 10^8 + 1: refused before any series
        # is built, in a subprocess whose timeout stops a run that does start
        code, out, err = _module_call(
            "verify", "--identity", "funceq", "--m", "99999999", "--max-n", "1", "--max-r", "1"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: the sweep reads the triangle of x*G to order 100000001, which has"
            " 5000000150000001 entries; its cap is 1000000\n"
        )

    @pytest.mark.parametrize("cap, code", [(21, 0), (20, 2)])
    def test_funceq_cap_counts_the_triangle_entries(self, capsys, monkeypatch, cap, code):
        # m = 1, --max-n 2, --max-r 2 read the triangle of x*G to order 6: 21 entries
        monkeypatch.setattr(_verify, "MAX_TABLE_ENTRIES", cap)
        argv = ("verify", "--identity", "funceq", "--m", "1", "--max-n", "2", "--max-r", "2")
        assert run(capsys, *argv)[0] == code

    @pytest.mark.parametrize("max_r", ["0", "-3"])
    def test_funceq_needs_a_positive_max_r(self, capsys, max_r):
        code, out, err = run(capsys, "verify", "--identity", "funceq", "--max-r", max_r)
        assert code == 1
        assert out == ""
        assert "--max-r must be >= 1" in err

    @pytest.mark.parametrize("m", ["0", "-1", "-3", "-100"])
    @pytest.mark.parametrize("perturb", [(), ("--perturb", "2,1,1")])
    def test_funceq_needs_a_positive_m(self, capsys, m, perturb):
        code, out, err = run(capsys, "verify", "--identity", "funceq", "--m", m, *perturb)
        assert code == 2
        assert out == ""
        assert err == "error: the identity is stated for m >= 1\n"

    def test_perturb_rejects_exponent_notation(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "lambert", "--perturb", "2,1,1e9")
        assert code == 1
        assert out == ""
        assert "--perturb" in err

    @pytest.mark.parametrize("delta", ["1_0", "\u0663"])
    def test_perturb_rejects_underscores_and_non_ascii_digits(self, capsys, delta):
        code, out, err = run(
            capsys, "verify", "--identity", "lambert", "--perturb", f"2,1,{delta}"
        )
        assert code == 1
        assert out == ""
        assert "bad perturbation" in err

    @pytest.mark.parametrize("perturb", ["1_0,1,1", "3,\u0662,1", "\u0663,2,1", "x,1,1"])
    def test_perturb_index_outside_the_integer_grammar_exits_1(self, capsys, perturb):
        code, out, err = run(capsys, "verify", "--identity", "lambert", "--perturb", perturb)
        assert code == 1
        assert out == ""
        assert err.endswith(f"error: argument --perturb: bad perturbation {perturb!r}\n")

    def test_unknown_identity_exits_1(self, capsys):
        code, _, _ = run(capsys, "verify", "--identity", "bogus")
        assert code == 1

    def test_reciprocal_sweep(self, capsys):
        for extra in ((), ("--b", "1,-1", "--max-n", "7")):
            code, out, _ = run(capsys, "verify", "--identity", "reciprocal", *extra)
            assert code == 0
            assert out == "verified\n"

    def test_reciprocal_perturbed_counterexample(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "reciprocal", "--perturb", "4,2,1"
        )
        assert code == 3
        assert out == "counterexample at (4,2): lhs=4/3 rhs=1/3\n"

    @pytest.mark.parametrize(
        "identity, extra, limit",
        [
            ("associativity", ("--max-n", "6"), 6),
            ("derivative", (), 10),
            ("inverse", ("--max-n", "5"), 5),
            ("lambert", (), 10),
            ("funceq", ("--m", "2", "--max-n", "3", "--max-r", "2"), 11),
            ("reciprocal", ("--max-n", "8"), 8),
        ],
    )
    def test_perturb_outside_the_sweep_exits_1(self, capsys, identity, extra, limit):
        for perturb in (f"{limit + 1},1,1", "3,4,1", "0,0,1"):
            code, out, err = run(
                capsys, "verify", "--identity", identity, *extra, "--perturb", perturb
            )
            assert code == 1
            assert out == ""
            assert f"1 <= K <= N <= {limit}" in err
        code, _, _ = run(
            capsys, "verify", "--identity", identity, *extra, "--perturb", f"{limit},1,1"
        )
        assert code in (0, 3)


class _FullStdout(io.StringIO):
    """A stdout on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputFailures:
    @pytest.mark.parametrize(
        "where, code",
        [("missing/dir/x.txt", errno.ENOENT), ("", errno.EISDIR)],
        ids=["missing-directory", "directory"],
    )
    def test_failed_output_write_is_one_line(self, capsys, tmp_path, where, code):
        target = str(tmp_path / where) if where else str(tmp_path)
        status, out, err = run(
            capsys, "composita", "--fn", "geometric", "--n", "2", "--output", target
        )
        assert status == 1
        assert out == ""
        assert err == f"error: cannot write {target}: {os.strerror(code)}\n"

    def test_output_replaces_an_existing_file_and_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "triangle.txt"
        target.write_text("old contents\n", encoding="utf-8")
        target.chmod(0o640)
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "6", "--output", str(target)
        )
        assert (code, out) == (0, "")
        assert target.read_text(encoding="utf-8") == PASCAL_SIX + "\n"
        assert target.stat().st_mode & 0o7777 == 0o640
        assert os.listdir(tmp_path) == ["triangle.txt"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failed_write_keeps_the_target_and_leaves_no_temporary(
        self, capsys, tmp_path, monkeypatch, step
    ):
        def fail(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        target = tmp_path / "triangle.txt"
        target.write_text("old contents\n", encoding="utf-8")
        monkeypatch.setattr(cli.os, step, fail)
        code, out, err = run(
            capsys, "composita", "--fn", "geometric", "--n", "6", "--output", str(target)
        )
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"
        assert target.read_text(encoding="utf-8") == "old contents\n"
        assert os.listdir(tmp_path) == ["triangle.txt"]

    def test_output_to_a_device_is_written_in_place(self, capsys, monkeypatch):
        def refuse(*args):  # renaming over a device would replace the device
            raise AssertionError(f"os.replace{args}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, out, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "2", "--output", os.devnull
        )
        assert (code, out) == (0, "")

    def test_output_through_a_symlink_replaces_the_file_it_names(self, capsys, tmp_path):
        target = tmp_path / "triangle.txt"
        target.write_text("old contents\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        code, _, _ = run(
            capsys, "composita", "--fn", "geometric", "--n", "6", "--output", str(link)
        )
        assert code == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == PASCAL_SIX + "\n"
        assert sorted(os.listdir(tmp_path)) == ["link.txt", "triangle.txt"]

    @pytest.mark.parametrize(
        "stdout, message",
        [
            ("full", "No space left on device"),
            (None, "Bad file descriptor"),  # as sys.stdout is with fd 1 closed
        ],
    )
    def test_failed_stdout_write_is_one_error_line(self, capsys, monkeypatch, stdout, message):
        monkeypatch.setattr(sys, "stdout", _FullStdout() if stdout else None)
        code = main(["composita", "--fn", "geometric", "--n", "3"])
        assert (code, capsys.readouterr().err) == (1, f"error: cannot write stdout: {message}\n")

    @pytest.mark.parametrize("stdout, message", [
        ("full", "No space left on device"),
        (None, "Bad file descriptor"),
    ])
    @pytest.mark.parametrize("argv", [("--help",), ("composita", "--help")])
    def test_failed_help_write_is_one_error_line(self, capsys, monkeypatch, argv, stdout, message):
        # argparse's own writer drops a failed write; help goes through the
        # CLI's writer instead, so it fails like any other output
        monkeypatch.setattr(sys, "stdout", _FullStdout() if stdout else None)
        code = main(list(argv))
        assert (code, capsys.readouterr().err) == (1, f"error: cannot write stdout: {message}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("buffered", [False, True])
    def test_help_on_a_full_device_exits_1_with_one_line(self, buffered):
        # unbuffered, the write itself fails; buffered, the flush after it
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "compositae", "--help"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write stdout: No space left on device\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_a_full_device_exits_1_with_one_line(self):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "compositae", "composita", "--fn", "geometric", "--n", "3"],
                stdout=full, stderr=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
            )
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write stdout: No space left on device\n"
        )

    def test_closed_stdout_exits_1_with_one_line(self):
        # the child closes fd 1, then starts the CLI in its place, so the
        # CLI's interpreter starts with sys.stdout None
        argv = [sys.executable, "-m", "compositae", "composita", "--fn", "geometric", "--n", "3"]
        done = subprocess.run(
            [sys.executable, "-c", f"import os, sys\nos.close(1)\nos.execv(sys.executable, {argv!r})"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: cannot write stdout: Bad file descriptor\n"
        )

    def test_closed_stdout_pipe_exits_1_without_traceback(self):
        # about 100 KiB of output, more than a pipe buffer holds, so the
        # child is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "compositae", "composita", "--fn", "geometric",
             "--n", "100", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        try:
            assert proc.stdout.read(10) == b"n,k,value\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""


class TestContract:
    def test_unexpected_error_exits_4_without_traceback(self, capsys, monkeypatch):
        def broken(args):
            raise IndexError("row 7 outside table of order 6")

        monkeypatch.setitem(cli._HANDLERS, "composita", broken)
        code, out, err = run(capsys, "composita", "--fn", "geometric", "--n", "6")
        assert code == 4
        assert out == ""
        assert err == "internal error: IndexError: row 7 outside table of order 6\n"

    @settings(max_examples=200)
    @given(argv=_argvs(with_output=False))
    def test_random_calls_keep_the_exit_code_contract(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in {0, 1, 2, 3}, (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert "internal error" not in err.getvalue()


@functools.cache
def _parser():
    return _offpath.build_parser()


def _argparse_vars(argv: list[str]):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_parser().parse_args(argv))
        except SystemExit:
            return None


class TestArgvReader:
    """A well-formed call is read from the flag table without argparse;
    whatever the reader takes, argparse reads to the same namespace."""

    @settings(max_examples=400)
    @given(argv=_argvs(with_output=True))
    def test_reader_never_disagrees_with_argparse(self, argv):
        read = cli._read_argv(argv)
        if read is not None:
            assert vars(read) == _argparse_vars(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["composita", "--fn", "geometric", "--n", "6", "--format", "csv"],
            ["compose", "--r", "fib", "--fn", "0,1,1", "--n", " 5", "--output", "out.txt"],
            ["inverse", "--order", "+7", "--fn", "x_exp"],
            ["reciprocal", "--b", "sin_over_x", "--order", "6", "--format", "records"],
            ["solve", "--g", "-1", "--m", "-2", "--order", "6", "--table"],
            ["riordan", "--g", "1,1", "--fn", "geometric", "--n", "4", "--b", "1,2"],
            ["verify", "--identity", "associativity", "--fn", "fib", "--fn", "geometric",
             "--fn", "x_exp", "--max-n", "5", "--perturb", "3,2,-1/2"],
            ["verify", "--identity", "funceq", "--m", "2", "--max-r", "3", "--g", ""],
            ["oracle", "--fn", "geometric", "--n", "5", "--k", "2", "--n", "6"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_well_formed_call_is_read_without_argparse(self, argv):
        read = cli._read_argv(argv)
        assert read is not None
        assert vars(read) == _argparse_vars(argv)


# A designator grammar: coefficient parts inside and outside the rational
# grammar, raw lists of them, catalog names (known or not) with or without
# parameters, and empty or whitespace-only text.
_PARTS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-9, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from((
        "1.5", "-0.25", ".5", "+3", "-3", " 2 ", "", " ", "1e5", "2E-1", "1_0", "_",
        "\u0663", "\uff11", "x", "1/", "/2", "1//2", "--1", "inf", "nan",
    )),
)
_SPACE = st.sampled_from(("", " ", "  ", "\t"))


@st.composite
def _designators(draw) -> str:
    kind = draw(st.integers(0, 3))
    if kind == 0:
        text = ",".join(draw(st.lists(_PARTS, min_size=1, max_size=5)))
    elif kind == 3:
        return draw(_SPACE)
    else:
        name = draw(st.one_of(
            st.sampled_from(registry_names() + ("nosuch", "Geometric", "1fib", "_")),
            st.text("abcxyz_019", min_size=1, max_size=6),
        ))
        if kind == 1:
            text = name
        else:
            params = ",".join(draw(st.lists(_PARTS, min_size=1, max_size=4)))
            text = f"{name}{draw(_SPACE)}:{params}"
    return draw(_SPACE) + text + draw(_SPACE)


def _outcome(fn):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


class TestDesignatorGrammar:
    """The CLI expands a raw coefficient list without the catalog; the
    catalog's parser reads raw lists with the same function.  Whatever the
    text, both routes give the same series or the same error."""

    @settings(max_examples=400)
    @given(text=_designators(), order=st.integers(0, 8))
    def test_cli_series_equals_the_catalog_route(self, text, order):
        assert _outcome(lambda: cli._series(text, order)) == _outcome(
            lambda: catalog_series(parse_function_spec(text), order)
        )

    @pytest.mark.parametrize("fn", ["0,1 / 2", "0,1 /2", "0,1/ 2"])
    def test_spaces_around_the_slash_are_refused_on_every_python(self, fn, capsys):
        # Fraction reads '1 / 2' from Python 3.12 on; the grammar does not
        assert main(["composita", "--fn", fn, "--n", "3"]) == 1
        part = fn.split(",")[1]
        assert f"(Invalid literal for Fraction: {part!r})" in capsys.readouterr().err


def _fresh_stderr(code: str) -> str:
    """What ``code`` writes to stderr in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return done.stderr


def _modules_loaded(code: str) -> set[str]:
    """Modules in sys.modules after running ``code`` in a fresh interpreter."""
    return set(_fresh_stderr(code + "\nsys.stderr.write(' '.join(sys.modules))").split())


def _package_files_run(*argv: str, code: int = 0) -> set[str]:
    """Names of the package files whose module bodies run during one CLI
    call in a fresh interpreter, from the audit hook's ``exec`` events.
    A lazily loaded module sits in sys.modules before its body runs, so
    this, not sys.modules, says what a call paid for."""
    return set(_fresh_stderr(
        "import os, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        ran.add(args[0].co_filename)\n"
        "sys.addaudithook(hook)\n"
        "from compositae.cli import main\n"
        f"assert main({list(argv)!r}) == {code}\n"
        f"package = {os.path.join(SRC, 'compositae')!r}\n"
        "sys.stderr.write('\\n' + ' '.join(\n"
        "    os.path.basename(f) for f in ran if os.path.dirname(f) == package\n"
        "))"
    ).splitlines()[-1].split())


def _module_call(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python -m compositae *argv``."""
    done = subprocess.run(
        [sys.executable, "-m", "compositae", *argv],
        capture_output=True, text=True, encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


class TestProcessEntry:
    """``python -m compositae`` and the console script both run
    ``compositae.__main__:run``, which flushes the standard streams once
    ``main()`` returns and ends the process with ``os._exit``, without the
    interpreter's teardown; ``main()`` itself returns normally."""

    def test_process_entry_skips_atexit_handlers_and_keeps_stdout(self):
        done = subprocess.run(
            [sys.executable, "-c",
             "import atexit, runpy, sys\n"
             "atexit.register(lambda: sys.stderr.write('atexit ran'))\n"
             "sys.argv = ['compositae', 'composita', '--fn', 'geometric', '--n', '6']\n"
             "runpy.run_module('compositae', run_name='__main__', alter_sys=True)\n"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, PASCAL_SIX + "\n", "")

    def test_large_output_is_complete_through_a_pipe_and_in_a_file(self, capsys, tmp_path):
        # about 1.6 MB, far more than a pipe buffer holds: what is still
        # buffered when main() returns must reach the reader before the exit
        argv = ("composita", "--fn", "x_exp", "--n", "150", "--format", "records")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert len(out) > 1_500_000
        assert _module_call(*argv) == (0, out, "")
        path = tmp_path / "records.txt"
        assert _module_call(*argv, "--output", str(path)) == (0, "", "")
        assert path.read_text(encoding="utf-8") == out

    def test_main_does_not_freeze(self):
        err = _fresh_stderr(
            "import gc, sys\n"
            "from compositae.cli import main\n"
            "assert main(['composita', '--fn', 'geometric', '--n', '3']) == 0\n"
            "sys.stderr.write(f' {gc.get_freeze_count()}')\n"
        )
        assert int(err.split()[-1]) == 0

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("composita", "--fn", "geometric", "--n", "6"), 0),
            (("solve", "--g", "1,1", "--m", "2", "--order", "8", "--format", "csv"), 0),
            (("verify", "--identity", "lambert", "--format", "records"), 0),
            (("composita", "--help"), 0),
            (("composita", "--fn", "geometric", "--n", "0"), 1),
            (("composita", "--fn", "nosuch", "--n", "3"), 1),
            (("composita", "--fn", "geometric", "--n", "1_0"), 1),
            (("composita", "--fn", "1,1", "--n", "3"), 2),
            (("verify", "--identity", "lambert", "--perturb", "3,2,1"), 3),
        ],
    )
    def test_module_call_matches_main(self, capsys, argv, code):
        in_process = run(capsys, *argv)
        assert in_process[0] == code
        assert _module_call(*argv) == in_process

    def test_module_call_matches_main_with_output(self, capsys, tmp_path):
        argv = ("composita", "--fn", "geometric", "--n", "6", "--format", "csv")
        in_process = run(capsys, *argv, "--output", str(tmp_path / "main.csv"))
        assert _module_call(*argv, "--output", str(tmp_path / "module.csv")) == in_process
        assert in_process == (0, "", "")
        written = (tmp_path / "module.csv").read_bytes()
        assert written == (tmp_path / "main.csv").read_bytes()
        assert written.startswith(b"n,k,value\n1,1,1\n")

    def test_results_past_the_int_string_limit_print(self, capsys):
        # T(800, 800) of 10^6 x is 10^4800, past the 4,300 digits that Python
        # 3.10.7 and later convert between int and str by default: the process
        # entry lifts that limit, and main() leaves it to its host process
        argv = ("oracle", "--fn", "0,1000000", "--n", "800", "--k", "800")
        assert _module_call(*argv) == (0, "1" + "0" * 4800 + "\n", "")
        if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4801:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "integer string conversion" in err

    def test_console_script_names_the_process_entry(self):
        # read as text: Python 3.10 has no tomllib
        text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.split() == ["compositae", "=", '"compositae.__main__:run"']


# One call per subcommand in each output shape (oracle has one), and an
# unknown designator, whose error lists the catalog's names.
_SEEDED_CALLS = [
    [command, *flags, "--format", fmt]
    for command, flags in (
        ("composita", ("--fn", "x_exp", "--n", "5")),
        ("compose", ("--r", "fib", "--fn", "0,1,1", "--n", "6")),
        ("inverse", ("--fn", "x_exp", "--order", "6")),
        ("reciprocal", ("--b", "sin_over_x", "--order", "5")),
        ("solve", ("--g", "3/7,2", "--m", "-2", "--order", "5", "--table")),
        ("riordan", ("--g", "1,1", "--fn", "geometric", "--n", "4")),
        ("verify", ("--identity", "funceq", "--m", "2", "--perturb", "3,2,1")),
    )
    for fmt in ("triangle", "csv", "records")
] + [["oracle", "--fn", "fib", "--n", "8", "--k", "3"], ["composita", "--fn", "nosuch", "--n", "3"]]


def _calls_under_hash_seed(seed: str) -> list:
    """hash('compositae'), then (exit code, stdout, stderr) of each of
    ``_SEEDED_CALLS``, run by ``main()`` in one fresh interpreter with
    PYTHONHASHSEED=seed."""
    code = (
        "import contextlib, io, sys\n"
        "from compositae.cli import main\n"
        "results = [hash('compositae')]\n"
        f"for argv in {_SEEDED_CALLS!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    results.append((code, out.getvalue(), err.getvalue()))\n"
        "sys.stdout.write(repr(results))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
    )
    return ast.literal_eval(done.stdout)


class TestHashSeed:
    def test_output_does_not_depend_on_the_hash_seed(self):
        zero, other = _calls_under_hash_seed("0"), _calls_under_hash_seed("4242")
        assert zero[0] != other[0]  # the two processes really hash strings apart
        assert zero[1:] == other[1:]
        assert [code for code, _, _ in zero[1:]] == [0] * 18 + [3] * 3 + [0, 1]
        assert all(out for _, out, _ in zero[1:-1])


class TestStartup:
    """One well-formed CLI call loads neither argparse (with the gettext
    and locale it imports; only help and usage errors need it) nor
    dataclasses (which pulls in inspect) nor json (records are written
    without it), nor the paper's closed forms and theorems, and runs only
    the submodules its subcommand uses: every call pays for what it runs.
    The parser and the ``--output`` writer (``_offpath``) run only for
    help, usage errors and ``--output``; the sweeps (``_verify``) only for
    ``verify``; the composition-sum oracle (``oracle``) only for ``oracle``;
    ``calculus`` only for ``compose``, ``inverse``, ``reciprocal`` and the
    associativity, inverse and reciprocal sweeps (``solve`` runs ``funceq``
    alone, for any m); ``catalog`` only for a catalog name and for the list of names
    after an unknown designator; ``combinatorics`` for no call (only
    ``theorems`` imports it); packed rows (``_packed``) only for an
    integer table with enough work; and the sums, products and powers of
    series (``_arith``) for no call."""

    HEAVY = {
        "argparse", "gettext", "locale", "dataclasses", "inspect", "json",
        "compositae.theorems",
    }
    LAZY = {"calculus.py", "funceq.py", "identities.py", "riordan.py", "_packed.py"}
    RARE = {"_offpath.py", "_verify.py", "oracle.py"}
    CATALOG = {"catalog.py", "combinatorics.py"}

    def _cli_modules(self, *argv: str) -> set[str]:
        return _modules_loaded(
            f"import sys\nfrom compositae.cli import main\nassert main({list(argv)!r}) == 0"
        )

    @pytest.mark.parametrize(
        "argv, code, runs, skips",
        [
            (
                ("composita", "--fn", "geometric", "--n", "1"), 0,
                {"catalog.py"},
                LAZY | RARE | {"combinatorics.py"},
            ),
            (
                ("composita", "--fn", "0,1,1", "--n", "3"), 0,
                set(),
                LAZY | RARE | CATALOG,
            ),
            (
                ("composita", "--fn", "geometric", "--n", "40"), 0,
                {"catalog.py", "_packed.py"},
                LAZY - {"_packed.py"} | RARE | {"combinatorics.py"},
            ),
            (
                ("composita", "--fn", "0,1/2,1,1,1,1,1,1", "--n", "80"), 0,
                set(),
                LAZY | RARE | CATALOG,
            ),
            (
                ("reciprocal", "--b", "sin_over_x", "--order", "4"), 0,
                {"calculus.py", "catalog.py"},
                {"funceq.py", "identities.py", "riordan.py"} | RARE,
            ),
            (
                ("reciprocal", "--b", "1,1", "--order", "4"), 0,
                {"calculus.py"},
                {"funceq.py", "identities.py", "riordan.py"} | RARE | CATALOG,
            ),
            (
                ("solve", "--g", "1,1", "--m", "2", "--order", "5"), 0,
                {"funceq.py"},
                {"calculus.py", "identities.py", "riordan.py"} | RARE | CATALOG,
            ),
            (
                ("solve", "--g", "1,1", "--m", "-1", "--order", "5"), 0,
                {"funceq.py"},
                {"calculus.py", "identities.py", "riordan.py"} | RARE | CATALOG,
            ),
            (
                ("verify", "--identity", "funceq", "--g", "1,1"), 0,
                {"identities.py", "_verify.py"},
                {"calculus.py", "funceq.py", "riordan.py"} | RARE - {"_verify.py"} | CATALOG,
            ),
            (
                ("verify", "--identity", "lambert"), 0,
                {"identities.py", "_verify.py"},
                {"calculus.py", "funceq.py", "riordan.py"} | RARE - {"_verify.py"} | CATALOG,
            ),
            (
                ("composita", "--fn", "nosuch", "--n", "3"), 1,
                {"catalog.py"},
                LAZY | RARE | {"combinatorics.py"},
            ),
            (
                ("composita", "--fn", "1,x", "--n", "3"), 1,
                {"catalog.py"},
                LAZY | RARE | {"combinatorics.py"},
            ),
            (
                ("verify", "--identity", "derivative"), 0,
                {"identities.py", "_verify.py"},
                {"calculus.py", "funceq.py", "riordan.py"} | RARE - {"_verify.py"},
            ),
            (
                ("verify", "--identity", "associativity", "--max-n", "3"), 0,
                {"calculus.py", "identities.py", "_verify.py"},
                {"funceq.py", "riordan.py"} | RARE - {"_verify.py"},
            ),
            (("composita", "--help"), 0, {"_offpath.py"}, LAZY | RARE - {"_offpath.py"}),
            (
                ("composita", "--fn", "geometric"), 1,
                {"_offpath.py"},
                LAZY | RARE - {"_offpath.py"},
            ),
            (
                ("composita", "--fn", "geometric", "--n", "1", "--output", os.devnull), 0,
                {"_offpath.py"},
                LAZY | RARE - {"_offpath.py"},
            ),
            (
                ("oracle", "--fn", "0,1,1", "--n", "6", "--k", "3"), 0,
                {"oracle.py"},
                LAZY | RARE - {"oracle.py"} | CATALOG,
            ),
        ],
        ids=[
            "composita", "composita-raw", "composita-packed", "composita-rational", "reciprocal", "reciprocal-raw", "solve-m2",
            "solve-m-1", "verify-funceq-raw", "lambert", "unknown-name", "malformed-raw",
            "verify", "associativity", "help", "usage-error", "output", "oracle",
        ],
    )
    def test_call_runs_only_the_submodules_it_uses(self, argv, code, runs, skips):
        ran = _package_files_run(*argv, code=code)
        assert {"cli.py", "triangle.py"} | runs <= ran
        assert ran & (skips | {"theorems.py", "_arith.py"}) == set()

    def test_plain_call_imports_no_heavy_module(self):
        bare = _modules_loaded("import sys")
        loaded = self._cli_modules("composita", "--fn", "geometric", "--n", "1")
        assert "compositae.cli" in loaded
        assert (loaded - bare) & self.HEAVY == set()

    FRACTIONS = {"fractions", "decimal", "numbers"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("composita", "--fn", "geometric", "--n", "6"),
            ("composita", "--fn", "0,1,1", "--n", "6", "--format", "csv"),
            ("composita", "--fn", "0,1/2,1", "--n", "6", "--format", "records"),
            ("riordan", "--g", "fib", "--fn", "geometric", "--n", "6"),
            ("solve", "--g", "1,1", "--m", "2", "--order", "6"),
            ("solve", "--g", "3/7,2/13", "--m", "0", "--order", "6", "--format", "records"),
            ("compose", "--r", "fib", "--fn", "0,1,1", "--n", "5"),
            ("inverse", "--fn", "fib", "--order", "6"),
            ("inverse", "--fn", "0,-3/11,2/13", "--order", "6", "--format", "csv"),
            ("riordan", "--g", "1,2", "--fn", "geometric", "--n", "6", "--b", "1,-1"),
            ("reciprocal", "--b", "sin_over_x", "--order", "6"),
            ("reciprocal", "--b", "3/7,-2/13,5/17", "--order", "6", "--format", "csv"),
            ("solve", "--g", "1,1", "--m", "-2", "--order", "6"),
            ("solve", "--g", "3/7,2/13", "--m", "-1", "--order", "6", "--table"),
            ("inverse", "--fn", "tan", "--order", "6"),
        ],
        ids=[
            "composita", "composita-raw", "composita-rational", "riordan", "solve-m2", "solve-m0",
            "compose", "inverse", "inverse-rational-negative", "riordan-b", "reciprocal",
            "reciprocal-rational", "solve-m-2", "solve-m-1-rational", "inverse-tan",
        ],
    )
    def test_call_on_integer_rows_imports_no_fractions(self, argv):
        # these calls read their input into integer pairs, sum stored rows
        # against integer pairs (_rows.dot), divide and differentiate series
        # on their integer rows (reciprocal, tan), solve m < 0 by Miller's
        # recurrence on integers and print integer rows: no Fraction is
        # built, so fractions, decimal and numbers stay out
        bare = _modules_loaded("import sys")
        loaded = self._cli_modules(*argv)
        assert (loaded - bare) & self.FRACTIONS == set()

    def test_a_parameterised_designator_still_imports_fractions(self):
        # a catalog spec keeps its parameters as Fraction values: the gate
        # above can see fractions load
        loaded = self._cli_modules("composita", "--fn", "poly2:1,2", "--n", "5")
        assert self.FRACTIONS <= loaded

    def test_process_entry_imports_no_fractions(self):
        # the real process entry (runpy and __main__), as the benchmark runs it
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "compositae",
             "composita", "--fn", "geometric", "--n", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
        )
        assert done.returncode == 0 and done.stdout == "1\n"
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "compositae.cli" in imported
        assert imported & {"fractions", "decimal"} == set()

    def test_help_goes_through_argparse(self):
        loaded = self._cli_modules("composita", "--help")
        assert "argparse" in loaded

    def test_verify_call_imports_no_theorems(self):
        # the reciprocal sweep shares its powers of B with the product theorem
        loaded = self._cli_modules("verify", "--identity", "reciprocal")
        assert "compositae.identities" in loaded
        assert "compositae.theorems" not in loaded

    def test_tracer_span_modules_are_in_sys_modules(self):
        # perfbench/tracing.py looks up sys.modules[...] for each module in
        # SPANS right after importing compositae.cli, then wraps its functions.
        perfbench = str(Path(SRC).parent / "perfbench")
        out = _fresh_stderr(
            "import sys\n"
            "import compositae.cli\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracing\n"
            "missing = [m for _, m, _ in tracing.SPANS if m not in sys.modules]\n"
            "assert missing == [], missing\n"
            "recorder = tracing.Recorder()\n"
            "tracing.install(recorder)\n"
            "assert compositae.cli.main(['solve', '--g', '1,1', '--m', '-1', '--order', '4']) == 0\n"
            "solve = {span[0] for span in recorder.spans}\n"
            "assert compositae.cli.main(['reciprocal', '--b', '1,1', '--order', '4']) == 0\n"
            "every = {span[0] for span in recorder.spans}\n"
            "sys.stderr.write(' '.join(sorted(solve)) + '|' + ' '.join(sorted(every)))"
        )
        solve, every = (part.split() for part in out.split("|"))
        assert {"cli.main", "funceq.solve", "triangle.from_series"} <= set(solve)
        assert "calculus.reciprocal" not in solve
        assert "calculus.reciprocal" in every

    def test_tracer_wraps_the_compose_that_sweeps_import(self):
        # check_associativity imports composita_compose when it runs, so it
        # reads the function that the tracer put on calculus
        perfbench = str(Path(SRC).parent / "perfbench")
        out = _fresh_stderr(
            "import sys\n"
            "import compositae.cli\n"
            f"sys.path.insert(0, {perfbench!r})\n"
            "import tracing\n"
            "recorder = tracing.Recorder()\n"
            "tracing.install(recorder)\n"
            "argv = ['verify', '--identity', 'associativity', '--max-n', '3']\n"
            "assert compositae.cli.main(argv) == 0\n"
            "sys.stderr.write(' '.join(sorted({span[0] for span in recorder.spans})))"
        )
        assert "calculus.composita_compose" in out.split()

    @pytest.mark.parametrize("name", ["catalog", "calculus", "funceq", "identities", "riordan"])
    def test_one_module_object_per_submodule(self, name):
        _fresh_stderr(
            "import sys\n"
            f"import compositae.{name} as before\n"
            "import compositae.cli\n"
            f"assert sys.modules['compositae.{name}'] is before\n"
            f"assert compositae.cli.{name} is before\n"
            f"assert compositae.{name} is before\n"
        )

    @pytest.mark.parametrize(
        "name, attr",
        [
            ("catalog", "registry_names"),
            ("calculus", "compose_series"),
            ("funceq", "solve_functional_equation"),
            ("identities", "check_lambert_identity"),
            ("riordan", "riordan_build"),
        ],
    )
    def test_submodules_resolve_after_the_cli_import(self, name, attr):
        _fresh_stderr(
            "import sys\n"
            "import compositae.cli\n"
            f"import compositae.{name}\n"
            f"dotted = compositae.{name}\n"
            f"from compositae import {name} as named\n"
            f"assert dotted is named is sys.modules['compositae.{name}']\n"
            f"assert callable(named.{attr})\n"
        )

    def test_package_import_loads_no_submodule(self):
        loaded = _modules_loaded("import sys\nimport compositae")
        assert "compositae" in loaded
        assert [m for m in loaded if m.startswith("compositae.")] == []

    def test_dir_lists_every_public_name(self):
        import compositae

        assert set(compositae.__all__) <= set(dir(compositae))

    @pytest.mark.parametrize(
        "argv",
        [
            ("composita", "--fn", "geometric", "--n", "3"),
            ("solve", "--g", "1,1", "--m", "-1", "--order", "3"),
            ("verify", "--identity", "lambert", "--max-n", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_records_call_imports_no_json(self, argv):
        bare = _modules_loaded("import sys")
        loaded = self._cli_modules(*argv, "--format", "records")
        assert "json" not in loaded - bare
