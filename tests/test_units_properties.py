"""Property-based tests (hypothesis) for the unit system invariants."""

import math

from hypothesis import assume, example, given, strategies as st

from repro.units import (
    DEFAULT_REGISTRY,
    ENERGY,
    POWER,
    Quantity,
    TIME,
    read_metric,
    write_metric,
)

finite = st.floats(
    min_value=-1e18, max_value=1e18, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-12, max_value=1e18, allow_nan=False)

power_units = st.sampled_from(DEFAULT_REGISTRY.symbols(POWER))
time_units = st.sampled_from(DEFAULT_REGISTRY.symbols(TIME))
energy_units = st.sampled_from(DEFAULT_REGISTRY.symbols(ENERGY))


@given(finite, power_units)
def test_conversion_roundtrip(value, unit):
    """to(unit) of a quantity built from unit returns the original value."""
    q = Quantity.of(value, unit)
    assert math.isclose(q.to(unit), value, rel_tol=1e-12, abs_tol=1e-300)


@given(finite, finite, power_units, power_units)
def test_addition_commutes(a, b, ua, ub):
    qa, qb = Quantity.of(a, ua), Quantity.of(b, ub)
    left = (qa + qb).magnitude
    right = (qb + qa).magnitude
    assert math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-300)


@given(finite, power_units, positive, time_units)
def test_power_time_energy_consistency(p, pu, t, tu):
    """(P * t) / t == P across all unit spellings."""
    power = Quantity.of(p, pu)
    time = Quantity.of(t, tu)
    energy = power * time
    # A subnormal intermediate (|P*t| below ~1e-308) loses mantissa bits
    # by construction in IEEE 754; the round-trip property only holds in
    # the normal range.
    assume(energy.magnitude == 0.0 or abs(energy.magnitude) > 1e-300)
    assert energy.dimension == ENERGY
    back = energy / time
    assert math.isclose(
        back.magnitude, power.magnitude, rel_tol=1e-9, abs_tol=1e-300
    )


@given(finite, energy_units)
def test_write_read_metric_roundtrip(value, unit):
    """write_metric followed by read_metric preserves the magnitude."""
    attrs: dict[str, str] = {}
    q = Quantity.of(value, unit)
    write_metric(attrs, "energy", q)
    q2 = read_metric(attrs, "energy")
    assert q2 is not None
    assert math.isclose(
        q2.magnitude, q.magnitude, rel_tol=1e-9, abs_tol=1e-300
    )


@given(st.floats(min_value=-1e15, max_value=1e15, allow_nan=False), power_units)
def test_parse_format_roundtrip(value, unit):
    q = Quantity.of(value, unit)
    text = q.format(unit, precision=17)
    q2 = Quantity.parse(text)
    assert math.isclose(
        q2.magnitude, q.magnitude, rel_tol=1e-9, abs_tol=1e-300
    )


@given(finite, finite, power_units)
# Normalizing to watts merges these pairs onto one magnitude: underflow for
# the subnormals, rounding for the adjacent floats.
@example(0.0, 5e-324, "mW")
@example(0.0, -5e-324, "mW")
@example(1.9900000000000002, 1.9900000000000004, "mW")
def test_comparison_total_order(a, b, unit):
    qa, qb = Quantity.of(a, unit), Quantity.of(b, unit)
    assert (qa < qb) == (a < b)
    assert (qa <= qb) == (a <= b)
