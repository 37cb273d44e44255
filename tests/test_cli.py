"""End-to-end CLI checks: byte-exact output and the exit-code contract
(0 ok, 1 usage, 2 precondition, 3 counterexample, 4 internal error)."""

from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compositae import cli
from compositae.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

PASCAL_SIX = "1\n1 1\n1 2 1\n1 3 3 1\n1 4 6 4 1\n1 5 10 10 5 1"


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

    def test_inverse_needs_linear_term(self, capsys):
        code, _, err = run(capsys, "inverse", "--fn", "0,0,1", "--order", "5")
        assert code == 2

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


class TestVerify:
    # one in-range fault per sweep, at its default sizes, and the line it prints
    PLANTED = {
        "associativity": ("4,1,1", "counterexample at (4,1): lhs=115/6 rhs=109/6"),
        "derivative": ("5,2,1", "counterexample at (5,2): lhs=25 rhs=20"),
        "inverse": ("4,2,1", "counterexample at (0,4,2): lhs=1 rhs=0"),
        "lambert": ("3,2,1", "counterexample at (3,2): lhs=25 rhs=26"),
        "funceq": ("3,2,1", "counterexample at (1,1): lhs=3/2 rhs=1"),
        "reciprocal": ("4,2,1", "counterexample at (4,2): lhs=1/3 rhs=4/3"),
    }

    @pytest.mark.parametrize("identity", cli.IDENTITY_NAMES)
    def test_default_sweep_verifies_and_finds_a_planted_fault(self, capsys, identity):
        code, out, _ = run(capsys, "verify", "--identity", identity)
        assert code == 0
        assert out == "verified\n"
        perturb, line = self.PLANTED[identity]
        code, out, _ = run(capsys, "verify", "--identity", identity, "--perturb", perturb)
        assert code == 3
        assert out == line + "\n"

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
        assert out == "counterexample at (4,2): lhs=1/3 rhs=4/3\n"

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


def _modules_loaded(code: str) -> set[str]:
    """Modules in sys.modules after running ``code`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code + "\nsys.stderr.write(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(done.stderr.split())


class TestStartup:
    """One CLI call loads neither dataclasses (which pulls in inspect) nor,
    unless it writes records, json, nor the paper's closed forms and
    theorems: every call pays for what it imports."""

    HEAVY = {"dataclasses", "inspect", "json", "compositae.theorems"}

    def _cli_modules(self, *argv: str) -> set[str]:
        return _modules_loaded(
            f"import sys\nfrom compositae.cli import main\nassert main({list(argv)!r}) == 0"
        )

    def test_plain_call_imports_no_heavy_module(self):
        bare = _modules_loaded("import sys")
        loaded = self._cli_modules("composita", "--fn", "geometric", "--n", "1")
        assert "compositae.cli" in loaded
        assert (loaded - bare) & self.HEAVY == set()

    def test_verify_call_imports_no_theorems(self):
        # the reciprocal sweep shares its powers of B with the product theorem
        loaded = self._cli_modules("verify", "--identity", "reciprocal")
        assert "compositae.identities" in loaded
        assert "compositae.theorems" not in loaded

    def test_package_import_loads_no_submodule(self):
        loaded = _modules_loaded("import sys\nimport compositae")
        assert "compositae" in loaded
        assert [m for m in loaded if m.startswith("compositae.")] == []

    def test_dir_lists_every_public_name(self):
        import compositae

        assert set(compositae.__all__) <= set(dir(compositae))

    def test_records_call_imports_json(self):
        loaded = self._cli_modules(
            "composita", "--fn", "geometric", "--n", "1", "--format", "records"
        )
        assert "json" in loaded
