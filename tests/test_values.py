"""Value semantics of the package's five immutable record types.

Each type is compared and hashed by its data fields only: a table's
``source`` label and a spec's generator take no part,
while a table's ``base`` does: a composita triangle (base 1) never equals
a Riordan array (base 0) with the same rows.
Every type rejects assignment and deletion of a field, accepts its
fields positionally or by keyword, and keeps its constructor's checks.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from compositae import (
    CompositaTable,
    FuncEqSolution,
    FunctionSpec,
    IdentityReport,
    PowerSeries,
    make_spec,
)

PASCAL3 = ((1,), (1, 1), (1, 2, 1))


def _gen(order):
    return PowerSeries.of([0, 1], order=order)


def _other_gen(order):
    return PowerSeries.of([0, 2], order=order)


def _solution(m=1):
    a = CompositaTable(((1,), (1, 1)))
    return FuncEqSolution(m, a, PowerSeries((1, 1)))


# one pair of equal-but-differently-built instances per type, plus one
# instance that differs in a compared field
CASES = {
    "PowerSeries": (
        lambda: PowerSeries((0, 1, Fraction(1, 2))),
        lambda: PowerSeries(coeffs=[Fraction(0), 1, "1/2"]),
        lambda: PowerSeries((0, 1, Fraction(1, 3))),
    ),
    "CompositaTable": (
        lambda: CompositaTable(PASCAL3, "geometric"),
        lambda: CompositaTable(rows=PASCAL3, source="other label"),
        lambda: CompositaTable(((1,), (1, 1), (1, 2, 2))),
    ),
    "CompositaTable(base=0)": (
        lambda: CompositaTable(PASCAL3, "pascal", 0),
        lambda: CompositaTable(rows=PASCAL3, base=0),
        lambda: CompositaTable(PASCAL3, "pascal"),
    ),
    "FunctionSpec": (
        lambda: FunctionSpec("f", (Fraction(1),), _gen),
        lambda: FunctionSpec(
            name="f", parameters=(Fraction(1),), series_generator=_other_gen
        ),
        lambda: FunctionSpec("f", (Fraction(2),), _gen),
    ),
    "FuncEqSolution": (
        lambda: _solution(),
        lambda: FuncEqSolution(
            m=1,
            a_table=CompositaTable(((1,), (1, 1)), source="any"),
            a_series=PowerSeries((1, 1)),
        ),
        lambda: _solution(m=2),
    ),
    "IdentityReport": (
        lambda: IdentityReport("lambert", "1..5", "verified"),
        lambda: IdentityReport(
            identity_name="lambert",
            parameter_range="1..5",
            status="verified",
            first_failure=None,
            checked=0,
        ),
        lambda: IdentityReport(
            "lambert", "1..5", "counterexample", ((2, 1), Fraction(1), Fraction(2))
        ),
    ),
}

FIELDS = {
    "PowerSeries": ("coeffs",),
    "CompositaTable": ("rows", "source", "base"),
    "CompositaTable(base=0)": ("rows", "source", "base"),
    "FunctionSpec": ("name", "parameters", "series_generator"),
    "FuncEqSolution": ("m", "a_table", "a_series"),
    "IdentityReport": ("identity_name", "parameter_range", "status", "first_failure", "checked"),
}

NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_across_construction_styles_and_ignored_fields(name):
    make, same, _ = CASES[name]
    assert make() == same()
    assert not make() != same()


@pytest.mark.parametrize("name", NAMES)
def test_equal_objects_hash_equal(name):
    make, same, _ = CASES[name]
    assert hash(make()) == hash(same())
    assert len({make(), same()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_compared_field_decides_equality(name):
    make, _, different = CASES[name]
    assert make() != different()


@pytest.mark.parametrize("name", NAMES)
def test_other_types_never_compare_equal(name):
    make, _, _ = CASES[name]
    assert make() != tuple(getattr(make(), f) for f in FIELDS[name])
    assert make() != object()


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field in FIELDS[name]:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", [n for n in NAMES if n != "FunctionSpec"])
def test_copies_and_pickles_are_equal(name):
    value = CASES[name][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_unequal_table_types_with_equal_rows():
    assert CompositaTable(PASCAL3) != CompositaTable(PASCAL3, base=0)


def test_ignored_fields_are_kept():
    table = CompositaTable(PASCAL3, source="geometric")
    assert table.source == "geometric"
    assert CompositaTable(PASCAL3).source == ""
    assert CompositaTable(PASCAL3, base=0).source == ""
    spec = CASES["FunctionSpec"][1]()
    assert spec.series_generator is _other_gen
    assert spec.closed_form is None
    assert IdentityReport("x", "1..1", "verified").first_failure is None


def test_a_spec_reads_its_closed_form_from_theorems():
    # no constructor argument and no field: the property asks theorems
    with pytest.raises(TypeError):
        FunctionSpec("f", (), _gen, lambda n, k: Fraction(1))
    geometric = make_spec("geometric")
    assert geometric.closed_form(5, 2) == 4
    with pytest.raises(AttributeError):
        geometric.closed_form = None
    assert make_spec("arcsin").closed_form is None


def test_catalog_specs_compare_by_name_and_parameters():
    assert make_spec("geometric") == make_spec("geometric")
    assert make_spec("poly2", (1, 1)) == make_spec("poly2", (1, 1))
    assert make_spec("poly2", (1, 1)) != make_spec("poly2", (1, 2))
    assert hash(make_spec("x_exp")) == hash(make_spec("x_exp"))


class TestConstructorChecks:
    def test_series_coerces_to_a_fraction_tuple(self):
        series = PowerSeries([1, "1/2", Fraction(3)])
        assert series.coeffs == (Fraction(1), Fraction(1, 2), Fraction(3))
        assert all(type(c) is Fraction for c in series.coeffs)

    def test_series_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            PowerSeries(())

    def test_composita_rows_are_coerced(self):
        table = CompositaTable([[1], [1, "1/2"]])
        assert table.rows == ((Fraction(1),), (Fraction(1), Fraction(1, 2)))
        assert all(type(v) is Fraction for row in table.rows for v in row)

    def test_composita_row_length(self):
        with pytest.raises(ValueError, match="row 2 must carry exactly 2 entries"):
            CompositaTable(((1,), (1,)))

    def test_composita_needs_a_row(self):
        with pytest.raises(ValueError, match="at least one row"):
            CompositaTable(())

    def test_riordan_rows_are_coerced(self):
        table = CompositaTable([[1], ["2/4", 3]], base=0)
        assert table.rows == ((Fraction(1),), (Fraction(1, 2), Fraction(3)))

    def test_riordan_row_length(self):
        with pytest.raises(ValueError, match="row 1 must carry exactly 2 entries, got 3"):
            CompositaTable(((1,), (1, 2, 3)), base=0)

    def test_riordan_needs_a_row(self):
        with pytest.raises(ValueError, match="at least one row"):
            CompositaTable((), base=0)

    @pytest.mark.parametrize("base", [-1, 2, "1"])
    def test_base_is_0_or_1(self, base):
        with pytest.raises(ValueError, match="indexed from 0 or 1"):
            CompositaTable(PASCAL3, base=base)

    @pytest.mark.parametrize(
        "cls, args",
        [
            (PowerSeries, ()),
            (CompositaTable, ()),
            (FunctionSpec, ("f",)),
            (FunctionSpec, ("f", ())),
            (IdentityReport, ("x",)),
            (FuncEqSolution, (1,)),
            (IdentityReport, ("x", "1..1")),
        ],
    )
    def test_required_fields(self, cls, args):
        with pytest.raises(TypeError):
            cls(*args)

    def test_unknown_keyword(self):
        with pytest.raises(TypeError):
            PowerSeries((1,), order=3)
        with pytest.raises(TypeError):
            CompositaTable(PASCAL3, label="x")
