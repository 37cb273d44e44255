"""Value semantics of the package's five immutable record types.

Each type stores each datum once, in its ``__slots__``, and compares,
hashes, pickles and reprs by every one of them: a table's ``base`` takes
part, so a composita triangle (base 1) never equals a Riordan array
(base 0) with the same rows.  What can be derived from the fields is a
read-only property: a table's ``rows`` (its stored integer rows read as
``Fraction`` values) and ``order``, a solution's ``a_series`` (column 1 of
its table) and a report's ``status`` and ``verified`` (whether it has a
first failure).
Every type rejects assignment and deletion of a field, accepts its fields
positionally or by keyword, and keeps its constructor's checks.
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
FAILURE = ((2, 1), Fraction(1), Fraction(2))


def _solution(m=1):
    return FuncEqSolution(m, CompositaTable(((1,), (1, 1))))


# one pair of equal-but-differently-built instances per type, plus one
# instance that differs in a field
CASES = {
    "PowerSeries": (
        lambda: PowerSeries((0, 1, Fraction(1, 2))),
        lambda: PowerSeries(coeffs=[Fraction(0), 1, "1/2"]),
        lambda: PowerSeries((0, 1, Fraction(1, 3))),
    ),
    "CompositaTable": (
        lambda: CompositaTable(PASCAL3),
        lambda: CompositaTable(rows=[list(row) for row in PASCAL3], base=1),
        lambda: CompositaTable(((1,), (1, 1), (1, 2, 2))),
    ),
    "CompositaTable(base=0)": (
        lambda: CompositaTable(PASCAL3, 0),
        lambda: CompositaTable(rows=PASCAL3, base=0),
        lambda: CompositaTable(PASCAL3),
    ),
    "FunctionSpec": (
        lambda: FunctionSpec("f", (Fraction(1),)),
        lambda: FunctionSpec(name="f", parameters=["1"]),
        lambda: FunctionSpec("f", (Fraction(2),)),
    ),
    "FuncEqSolution": (
        lambda: _solution(),
        lambda: FuncEqSolution(m=1, a_table=CompositaTable([[1], [1, 1]])),
        lambda: _solution(m=2),
    ),
    "IdentityReport": (
        lambda: IdentityReport("lambert", "1..5", 3),
        lambda: IdentityReport(
            identity_name="lambert", parameter_range="1..5", checked=3, first_failure=None
        ),
        lambda: IdentityReport("lambert", "1..5", 3, FAILURE),
    ),
}

FIELDS = {
    "PowerSeries": ("coeffs",),
    "CompositaTable": ("int_rows", "base"),
    "CompositaTable(base=0)": ("int_rows", "base"),
    "FunctionSpec": ("name", "parameters"),
    "FuncEqSolution": ("m", "a_table"),
    "IdentityReport": ("identity_name", "parameter_range", "checked", "first_failure"),
}

# values derived from the fields, and so not stored
DERIVED = {
    "CompositaTable": ("rows", "order"),
    "CompositaTable(base=0)": ("rows", "order"),
    "FuncEqSolution": ("a_series",),
    "IdentityReport": ("status", "verified"),
}

NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_the_slots(name):
    assert type(CASES[name][0]()).__slots__ == FIELDS[name]


@pytest.mark.parametrize("name", NAMES)
def test_equal_across_construction_styles(name):
    make, same, _ = CASES[name]
    assert make() == same()
    assert not make() != same()
    assert repr(make()) == repr(same())


@pytest.mark.parametrize("name", NAMES)
def test_equal_objects_hash_equal(name):
    make, same, _ = CASES[name]
    assert hash(make()) == hash(same())
    assert len({make(), same()}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_a_field_decides_equality(name):
    make, _, different = CASES[name]
    assert make() != different()
    assert repr(make()) != repr(different())


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    value = CASES[name][0]()
    fields = ", ".join(f"{f}={getattr(value, f)!r}" for f in FIELDS[name])
    assert repr(value) == f"{type(value).__name__}({fields})"


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


@pytest.mark.parametrize(
    "name, attribute", [(name, a) for name, derived in DERIVED.items() for a in derived]
)
def test_derived_values_cannot_be_assigned(name, attribute):
    value = CASES[name][0]()
    before = getattr(value, attribute)
    with pytest.raises(AttributeError):
        setattr(value, attribute, before)
    with pytest.raises(AttributeError):
        delattr(value, attribute)
    assert getattr(value, attribute) == before


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal(name):
    value = CASES[name][0]()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", NAMES)
def test_pickles_round_trip_in_every_protocol(name):
    value = CASES[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert restored == value and hash(restored) == hash(value)
        assert repr(restored) == repr(value)


def test_unequal_table_types_with_equal_rows():
    assert CompositaTable(PASCAL3) != CompositaTable(PASCAL3, base=0)


def test_a_solution_reads_its_series_off_column_1():
    solution = FuncEqSolution(2, CompositaTable(((3,), (5, 9))))
    assert solution.a_series == PowerSeries((3, 5))


def test_a_report_status_follows_its_first_failure():
    verified, failed = CASES["IdentityReport"][0](), CASES["IdentityReport"][2]()
    assert (verified.status, verified.verified) == ("verified", True)
    assert (failed.status, failed.verified) == ("counterexample", False)
    assert verified.first_failure is None


def test_a_spec_reads_its_closed_form_from_theorems():
    # no constructor argument and no field: the property asks theorems
    with pytest.raises(TypeError):
        FunctionSpec("f", (), lambda n, k: Fraction(1))
    geometric = make_spec("geometric")
    assert geometric.closed_form(5, 2) == 4
    with pytest.raises(AttributeError):
        geometric.closed_form = None
    assert make_spec("arcsin").closed_form is None
    assert CASES["FunctionSpec"][0]().closed_form is None


def test_catalog_specs_compare_by_name_and_parameters():
    assert make_spec("geometric") == make_spec("geometric")
    assert make_spec("poly2", (1, 1)) == make_spec("poly2", (1, 1))
    assert make_spec("poly2", (1, 1)) != make_spec("poly2", (1, 2))
    assert hash(make_spec("x_exp")) == hash(make_spec("x_exp"))
    assert make_spec("radical", ("3",)) == FunctionSpec("radical", (Fraction(3),))


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
        assert table.int_rows == (((1,), 1), ((2, 1), 2))
        assert table.rows == ((Fraction(1),), (Fraction(1), Fraction(1, 2)))
        assert all(type(v) is Fraction for row in table.rows for v in row)

    def test_spec_parameters_are_coerced(self):
        spec = FunctionSpec("poly2", [1, "1/2"])
        assert spec.parameters == (Fraction(1), Fraction(1, 2))
        assert all(type(p) is Fraction for p in spec.parameters)

    def test_composita_row_length(self):
        with pytest.raises(ValueError, match="row 2 must carry exactly 2 entries"):
            CompositaTable(((1,), (1,)))

    def test_composita_needs_a_row(self):
        with pytest.raises(ValueError, match="at least one row"):
            CompositaTable(())

    def test_riordan_rows_are_coerced(self):
        table = CompositaTable([[1], ["2/4", 3]], base=0)
        assert table.int_rows == (((1,), 1), ((1, 6), 2))
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

    def test_a_float_entry_is_refused(self):
        with pytest.raises(TypeError, match="float"):
            CompositaTable([[1], [1, 0.5]])
        with pytest.raises(TypeError, match="float"):
            FunctionSpec("poly2", (1, 0.5))

    @pytest.mark.parametrize(
        "cls, args",
        [
            (PowerSeries, ()),
            (CompositaTable, ()),
            (FunctionSpec, ("f",)),
            (IdentityReport, ("x",)),
            (FuncEqSolution, (1,)),
            (IdentityReport, ("x", "1..1")),
        ],
    )
    def test_required_fields(self, cls, args):
        with pytest.raises(TypeError):
            cls(*args)

    @pytest.mark.parametrize(
        "cls, args, keyword",
        [
            (PowerSeries, ((1,),), "order"),
            (CompositaTable, (PASCAL3,), "source"),
            (FunctionSpec, ("f", ()), "series_generator"),
            (FuncEqSolution, (1, CompositaTable(PASCAL3)), "a_series"),
            (IdentityReport, ("x", "1..1", 0), "status"),
        ],
    )
    def test_unknown_keyword(self, cls, args, keyword):
        with pytest.raises(TypeError):
            cls(*args, **{keyword: None})
