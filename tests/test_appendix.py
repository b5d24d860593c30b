"""The bad-algebra battery: basis counts, stored differentials, and the
characteristic-dependent obstruction."""

import dataclasses

import pytest

from koszulkit import GF, QQ, appendix, repro
from koszulkit.appendix import (
    CHARACTERISTIC_BATTERY,
    _char2_extra_syzygy,
    check_basis,
    find_obstruction,
    make_instance,
    reference_basis_count,
    run_battery,
    run_characteristic,
    verify_differentials,
)
from koszulkit.classify import classify
from koszulkit.field import field_by_name
from koszulkit.modules import PolyMatrix
from koszulkit.parse import parse_poly


@pytest.fixture(scope="module")
def inst32003():
    return make_instance(GF(32003))


@pytest.fixture(scope="module")
def inst2():
    return make_instance(GF(2))


class TestBasis:
    def test_reference_counts(self):
        assert reference_basis_count((2, 0)) == 1
        assert reference_basis_count((1, 3)) == 2
        assert reference_basis_count((3, 0)) == 0
        assert reference_basis_count((0, 4)) == 5

    def test_engine_agrees(self, inst32003):
        out = check_basis(inst32003)
        assert out["ok"], out["failures"]

    def test_char2_basis(self, inst2):
        assert check_basis(inst2)["ok"]


class TestDifferentials:
    def test_products_vanish(self, inst32003):
        out = verify_differentials(inst32003)
        assert out["ok"]
        assert all(p["zero"] for p in out["products"])
        assert out["column_counts"] == [3, 6, 11, 20]
        assert out["minimal"]
        assert out["bidegree_counts_match"]

    def test_char2_products_vanish_but_fourth_map_incomplete(self, inst2):
        out = verify_differentials(inst2)
        assert all(p["zero"] for p in out["products"])
        extra = out["char2_quadratic_syzygy"]
        assert extra["is_syzygy"] and extra["outside_displayed_span"]

    @pytest.mark.parametrize("field_name", ["F3", "F7", "F32003", "QQ"])
    def test_extra_syzygy_lies_in_the_stored_span_off_characteristic_two(self, field_name):
        out = _char2_extra_syzygy(make_instance(field_by_name(field_name)))
        assert out == {"is_syzygy": True, "outside_displayed_span": False, "confirmed": False}

    def test_a_wrong_entry_is_located(self):
        """The corruption goes into a copy: make_instance shares its
        instance with every other caller in the process."""
        shared = make_instance(GF(32003))
        d2 = shared.differentials[1]
        entries = [list(row) for row in d2.entries]
        entries[0][0] = parse_poly(shared.ring, "x")  # was y
        diffs = list(shared.differentials)
        diffs[1] = PolyMatrix(d2.target, d2.source, entries)
        inst = dataclasses.replace(shared, differentials=diffs)
        out = verify_differentials(inst)
        assert not out["ok"]
        assert [p["zero"] for p in out["products"]] == [True, False, False, True]
        # d1 * d2 reads x^2 at (0, 0) where it read xy, and x^2 is nonzero in R
        assert out["products"][1]["failure_at"] == (0, 0)

    def test_entries_use_doubled_coefficients(self, inst32003):
        d4 = inst32003.differentials[3]
        K = inst32003.field
        two = K.from_int(2)
        vals = {c for r in range(d4.nrows) for c in d4.entries[r] if c}
        coeffs = {c for f in vals for c in f.terms.values()}
        assert two in coeffs and K.neg(two) in coeffs


class TestObstruction:
    def test_char_zero_representative(self, inst32003):
        obs = find_obstruction(inst32003)
        assert obs["found"]
        assert (obs["hom_degree"], obs["total_degree"]) == (5, 7)
        assert obs["bidegree"] == [5, 2]
        assert obs["ranks"][:5] == [2, 3, 6, 11, 20]

    def test_char_two(self, inst2):
        obs = find_obstruction(inst2)
        assert (obs["hom_degree"], obs["total_degree"]) == (4, 6)
        assert obs["bidegree"] == [4, 2]

    @pytest.mark.parametrize("field_name,expected", [("F3", (5, 7)), ("F7", (5, 7)), ("QQ", (5, 7))])
    def test_other_characteristics(self, field_name, expected):
        out = run_characteristic(field_name)
        obs = out["obstruction"]
        assert out["ok"]
        assert (obs["hom_degree"], obs["total_degree"]) == expected


def spy_resolutions(monkeypatch) -> list:
    """Empty make_instance's cache and record the (hom_bound, degree_bound)
    of every resolve_over_quotient call appendix makes from now on."""
    make_instance.cache_clear()
    calls = []
    real = appendix.resolve_over_quotient

    def spy(*args):
        calls.append(args[2:])
        return real(*args)

    monkeypatch.setattr(appendix, "resolve_over_quotient", spy)
    return calls


@pytest.mark.parametrize("field_name", CHARACTERISTIC_BATTERY)
def test_one_resolution_per_field(monkeypatch, field_name):
    """The differential check and the obstruction search share one
    resolution of (a, b) over R."""
    calls = spy_resolutions(monkeypatch)
    assert run_characteristic(field_name)["ok"]
    assert calls == [(4 if field_name == "F2" else 5, 7)]


def test_classify_reuses_the_battery_resolution(monkeypatch):
    """classify's 2iv-(c) certificate for the bad algebra over F32003 reads
    the obstruction of the instance the battery resolved: five resolutions
    in all, one per battery field, and none more."""
    calls = spy_resolutions(monkeypatch)
    assert run_battery()["ok"]
    rep = classify(repro._bad_algebra())
    assert rep.verdict == "certified-non-Koszul"
    assert calls == [(4, 7)] + [(5, 7)] * 4


def test_full_battery():
    out = run_battery()
    assert out["ok"]
    assert [r["field"] for r in out["runs"]] == ["F2", "F3", "F7", "F32003", "QQ"]
