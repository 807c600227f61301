"""Profile container, CSV loader, and transform tests."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgplan import (
    HourlyProfile,
    UNIT_CAPACITY_FACTOR,
    UNIT_KG_PER_HOUR,
    UNIT_MW,
    ValidationError,
    available_capacity,
    load_profile,
    save_profile,
    scale_profile,
    shift_profile,
)


def make_csv(values, unit_line=None, header="hour,value", hours=None):
    lines = []
    if unit_line:
        lines.append(unit_line)
    lines.append(header)
    n = hours if hours is not None else len(values)
    lines.extend(f"{i + 1},{values[i]}" for i in range(min(n, len(values))))
    return io.StringIO("\n".join(lines) + "\n")


class TestLoadProfile:
    def test_all_zero_year(self):
        csv = make_csv([0.0] * 8760)
        profile = load_profile(csv, UNIT_MW)
        assert profile.horizon == 8760
        assert profile.total() == 0.0
        assert profile.unit == UNIT_MW

    def test_negative_sample_reports_hour(self):
        values = [0.0] * 8760
        values[16] = -3.2
        with pytest.raises(ValidationError, match="negative sample at hour 17"):
            load_profile(make_csv(values), UNIT_MW)

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="expected 8760 rows, got 8759"):
            load_profile(make_csv([1.0] * 8759), UNIT_MW)

    def test_non_monotone_hour_index(self):
        csv = io.StringIO("hour,value\n1,1.0\n3,1.0\n2,1.0\n4,1.0\n")
        with pytest.raises(ValidationError, match="non-monotone hour index"):
            load_profile(csv, UNIT_MW, hours=4)

    def test_unparseable_number(self):
        csv = io.StringIO("hour,value\n1,1.0\n2,oops\n")
        with pytest.raises(ValidationError, match="unparseable number at hour 2"):
            load_profile(csv, UNIT_MW, hours=2)

    def test_capacity_factor_above_one(self):
        csv = make_csv([0.5, 1.2])
        with pytest.raises(ValidationError, match="capacity factor > 1 at hour 2"):
            load_profile(csv, UNIT_CAPACITY_FACTOR, hours=2)

    def test_bad_header(self):
        csv = io.StringIO("time,power\n1,1.0\n")
        with pytest.raises(ValidationError, match="expected header"):
            load_profile(csv, UNIT_MW, hours=1)

    def test_unit_metadata_line(self):
        profile = load_profile(make_csv([1.0, 2.0], unit_line="# unit: MW"), hours=2)
        assert profile.unit == UNIT_MW

    def test_unit_conflict(self):
        csv = make_csv([1.0], unit_line="# unit: MW")
        with pytest.raises(ValidationError, match="unit mismatch"):
            load_profile(csv, UNIT_CAPACITY_FACTOR, hours=1)

    def test_unit_missing(self):
        with pytest.raises(ValidationError, match="unit not specified"):
            load_profile(make_csv([1.0]), hours=1)

    def test_round_trip(self, tmp_path):
        values = np.linspace(0.0, 7.5, 24)
        profile = HourlyProfile(values, UNIT_MW, "rt")
        path = tmp_path / "p.csv"
        save_profile(profile, path)
        back = load_profile(path, hours=24)
        assert back.unit == UNIT_MW
        np.testing.assert_array_equal(back.values, values)


class TestHourlyProfile:
    def test_values_immutable(self):
        profile = HourlyProfile([1.0, 2.0], UNIT_MW)
        with pytest.raises(ValueError):
            profile.values[0] = 5.0

    def test_hours_pin(self):
        with pytest.raises(ValidationError, match="expected 24 rows, got 4"):
            HourlyProfile([1.0] * 4, UNIT_MW, hours=24)

    def test_unknown_unit(self):
        with pytest.raises(ValidationError, match="unknown unit"):
            HourlyProfile([1.0], "furlongs")


class TestShift:
    def test_identity(self):
        p = HourlyProfile([1.0, 2.0, 3.0, 4.0], UNIT_MW)
        np.testing.assert_array_equal(shift_profile(p, 0).values, p.values)

    def test_inverse_composition(self):
        p = HourlyProfile(np.arange(24, dtype=float), UNIT_MW)
        np.testing.assert_array_equal(
            shift_profile(shift_profile(p, 4), -4).values, p.values
        )

    def test_forward_by_one(self):
        p = HourlyProfile([1.0, 0.0, 0.0, 0.0], UNIT_MW)
        np.testing.assert_array_equal(
            shift_profile(p, 1).values, [0.0, 1.0, 0.0, 0.0]
        )

    def test_magnitude_bound(self):
        p = HourlyProfile([1.0] * 4, UNIT_MW)
        with pytest.raises(ValidationError):
            shift_profile(p, 4)

    @given(
        st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40),
        st.integers(-39, 39),
    )
    @example(
        values=[1.709034413448535] * 3 + [48573.86337186338, 999999.6045501509],
        hours=-1,
    )
    @settings(max_examples=60, deadline=None)
    def test_preserves_multiset_and_sum(self, values, hours):
        p = HourlyProfile(values, UNIT_MW)
        if abs(hours) >= p.horizon:
            return
        shifted = shift_profile(p, hours)
        assert sorted(shifted.values) == sorted(p.values)
        # fsum rounds correctly, so it does not depend on summation order.
        assert math.fsum(shifted.values) == math.fsum(p.values)


class TestScale:
    def test_identity(self):
        p = HourlyProfile([0.5, 0.25], UNIT_CAPACITY_FACTOR)
        np.testing.assert_array_equal(scale_profile(p, 1.0).values, p.values)

    def test_zero(self):
        p = HourlyProfile([0.5, 0.25], UNIT_MW)
        assert scale_profile(p, 0.0).total() == 0.0

    def test_linearity(self):
        p = HourlyProfile([0.2, 0.5], UNIT_MW)
        np.testing.assert_array_equal(scale_profile(p, 100.0).values, [20.0, 50.0])

    def test_negative_factor(self):
        p = HourlyProfile([1.0], UNIT_MW)
        with pytest.raises(ValidationError, match="negative factor"):
            scale_profile(p, -1.0)

    def test_composition(self):
        p = HourlyProfile(np.linspace(0.1, 9.7, 17), UNIT_MW)
        left = scale_profile(scale_profile(p, 3.7), 0.21)
        right = scale_profile(p, 3.7 * 0.21)
        np.testing.assert_allclose(left.values, right.values, rtol=1e-12)

    def test_capacity_factor_overflow_rejected(self):
        p = HourlyProfile([0.8], UNIT_CAPACITY_FACTOR)
        with pytest.raises(ValidationError, match="capacity factor > 1"):
            scale_profile(p, 2.0)


class TestAvailableCapacity:
    def test_zero_cf(self):
        cf = HourlyProfile([0.0, 0.0], UNIT_CAPACITY_FACTOR)
        assert available_capacity(cf, 50.0).total() == 0.0

    def test_full_cf(self):
        cf = HourlyProfile([1.0, 1.0], UNIT_CAPACITY_FACTOR)
        np.testing.assert_array_equal(
            available_capacity(cf, 50.0).values, [50.0, 50.0]
        )

    def test_noon_value(self):
        cf = HourlyProfile([0.6], UNIT_CAPACITY_FACTOR)
        assert available_capacity(cf, 120.0).values[0] == pytest.approx(72.0)

    def test_unit_mismatch(self):
        mw = HourlyProfile([1.0], UNIT_MW)
        with pytest.raises(ValidationError, match="unit mismatch"):
            available_capacity(mw, 10.0)

    def test_linearity_in_nameplate(self):
        cf = HourlyProfile(np.linspace(0, 1, 24), UNIT_CAPACITY_FACTOR)
        single = available_capacity(cf, 35.0)
        double = available_capacity(cf, 70.0)
        np.testing.assert_array_equal(double.values, 2.0 * single.values)

    def test_result_is_mw(self):
        cf = HourlyProfile([0.5], UNIT_CAPACITY_FACTOR)
        assert available_capacity(cf, 10.0).unit == UNIT_MW


def test_kg_per_hour_unit_round_trip():
    p = HourlyProfile([3.0, 4.0], UNIT_KG_PER_HOUR)
    assert p.unit == UNIT_KG_PER_HOUR
