"""Exact fast quantization: scalar and lane-vector paths vs a Fraction oracle.

``quantize_raw`` scales floats with ``ldexp`` and quantizes ints and
``Fx`` values with integer shifts; ``_quantize_float_vec`` is its numpy
twin for lane arrays.  Both must give exactly the bits of the textbook
definition below, which is written here with ``Fraction`` and never
calls the library quantizer.
"""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SFG, Clock, Register, Sig, System, TimedProcess
from repro.fixpt import (
    Fx,
    FxFormat,
    FxOverflowError,
    Overflow,
    Rounding,
    quantize_raw,
    quantize_raw_at,
)
from repro.sim import BatchedCompiledSimulator, CompiledSimulator
from repro.sim.batched import _quantize_float_vec

TINY = 5e-324  # smallest subnormal


def oracle(value, fmt):
    """The exact definition: scale, round half up or floor, then overflow."""
    if isinstance(value, Fx):
        exact = value.as_fraction()
    else:
        exact = Fraction(value)
    scaled = exact * Fraction(2) ** fmt.frac_bits
    if fmt.rounding is Rounding.ROUND:
        scaled += Fraction(1, 2)
    raw = math.floor(scaled)
    if fmt.raw_min <= raw <= fmt.raw_max:
        return raw
    if fmt.overflow is Overflow.SATURATE:
        return fmt.raw_max if raw > fmt.raw_max else fmt.raw_min
    if fmt.overflow is Overflow.WRAP:
        raw %= 1 << fmt.wl
        if fmt.signed and raw >= 1 << (fmt.wl - 1):
            raw -= 1 << fmt.wl
        return raw
    raise FxOverflowError(f"{value!r} overflows {fmt}")


def outcome(fn, *args):
    """The value *fn* returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (FxOverflowError, ValueError, OverflowError, TypeError) as exc:
        return type(exc)


def oracle_fits(value, fmt):
    return not isinstance(outcome(oracle, value, fmt), type)


@st.composite
def formats(draw, max_wl=64):
    """Every rounding x overflow policy, frac_bits < 0 and iwl > wl."""
    wl = draw(st.integers(min_value=1, max_value=max_wl))
    iwl = draw(st.integers(min_value=-12, max_value=wl + 12))
    return FxFormat(wl=wl, iwl=iwl, signed=draw(st.booleans()),
                    rounding=draw(st.sampled_from(list(Rounding))),
                    overflow=draw(st.sampled_from(list(Overflow))))


@st.composite
def edge_floats(draw, fmt):
    """Floats around the format's LSB ties and the 2**52 fast-path edge."""
    fb = fmt.frac_bits
    kind = draw(st.sampled_from(["tie", "big", "any"]))
    if kind == "tie":
        k = draw(st.integers(min_value=fmt.raw_min - 4,
                             max_value=fmt.raw_max + 4))
        tie = math.ldexp(k + 0.5, -fb)
        step = draw(st.sampled_from([-1, 0, 1]))
        return tie if step == 0 else math.nextafter(
            tie, math.inf if step > 0 else -math.inf)
    if kind == "big":
        mantissa = draw(st.floats(min_value=1.0, max_value=2.0,
                                  exclude_max=True))
        exp = draw(st.integers(min_value=50, max_value=56)) - fb
        value = math.ldexp(mantissa, min(max(exp, -1074), 1023))
        return value if draw(st.booleans()) else -value
    return draw(st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def format_and_value(draw):
    fmt = draw(formats())
    source = draw(st.sampled_from(["edge", "int", "np", "bool", "sub"]))
    if source == "edge":
        value = draw(edge_floats(fmt))
    elif source == "int":
        value = draw(st.integers(min_value=-(1 << 70), max_value=1 << 70))
    elif source == "np":
        value = np.float64(draw(edge_floats(fmt)))
    elif source == "bool":
        value = draw(st.booleans())
    else:
        value = draw(st.sampled_from([0.0, -0.0, TINY, -TINY,
                                      2.2250738585072014e-308,
                                      -2.225073858507201e-308]))
    return fmt, value


# -- scalar fast path ----------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(format_and_value())
def test_scalar_matches_fraction_oracle(case):
    fmt, value = case
    assert outcome(quantize_raw, value, fmt) == outcome(oracle, value, fmt)


@settings(max_examples=300, deadline=None)
@given(formats(), st.integers(min_value=-(1 << 40), max_value=1 << 40),
       st.integers(min_value=-12, max_value=40))
def test_fx_inputs_take_the_integer_core(fmt, raw, frac):
    source = FxFormat(wl=64, iwl=64 - frac)
    value = Fx(raw=raw, fmt=source)
    assert outcome(quantize_raw, value, fmt) == outcome(oracle, value, fmt)
    assert outcome(quantize_raw_at, raw, frac, fmt) == \
        outcome(oracle, value, fmt)


@pytest.mark.parametrize("fmt", [
    FxFormat(6, 3),
    FxFormat(8, 8, signed=False, rounding=Rounding.ROUND),
    FxFormat(10, 14, overflow=Overflow.WRAP),
    FxFormat(4, -3, overflow=Overflow.ERROR),
])
@pytest.mark.parametrize("value, error", [
    (math.nan, ValueError),
    (math.inf, OverflowError),
    (-math.inf, OverflowError),
])
def test_nan_and_inf_raise(fmt, value, error):
    with pytest.raises(error):
        quantize_raw(value, fmt)
    with pytest.raises(error):
        _quantize_float_vec([0.0, value], fmt)


def test_subnormal_underflow_trap():
    # ldexp(-5e-324, -4) underflows to -0.0; the floor is still -1.
    fmt = FxFormat(10, 14, rounding=Rounding.TRUNCATE)
    assert quantize_raw(-TINY, fmt) == -1
    assert _quantize_float_vec([-TINY, TINY, -0.0], fmt).tolist() == [-1, 0, 0]


def test_round_tie_addition_trap():
    # floor(x + 0.5) rounds the addition up to 1.0 for this x.
    fmt = FxFormat(8, 8, rounding=Rounding.ROUND)
    below_half = 0.49999999999999994
    assert quantize_raw(below_half, fmt) == 0
    assert quantize_raw(0.5, fmt) == 1
    assert quantize_raw(-0.5, fmt) == 0
    assert _quantize_float_vec([below_half, 0.5, -0.5], fmt).tolist() == \
        [0, 1, 0]


def test_huge_scaled_values_fall_back_exactly():
    fmt = FxFormat(64, 4, rounding=Rounding.ROUND, overflow=Overflow.WRAP)
    for value in (math.ldexp(1.0, 52) + 1.0, 3.0e17, -7.5e300, 1e308):
        assert quantize_raw(value, fmt) == oracle(value, fmt)


def test_bool_quantizes_to_an_int():
    raw = quantize_raw(True, FxFormat(8, 8))
    assert raw == 1 and type(raw) is int


# -- Fx.__int__ -----------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=1, max_value=48),
       st.integers(min_value=-16, max_value=64),
       st.data())
def test_fx_int_truncates_toward_zero(wl, iwl, data):
    fmt = FxFormat(wl=wl, iwl=iwl, signed=data.draw(st.booleans()))
    raw = data.draw(st.integers(min_value=fmt.raw_min,
                                max_value=fmt.raw_max))
    value = Fx(raw=raw, fmt=fmt)
    exact = Fraction(raw) * Fraction(2) ** -fmt.frac_bits
    expected = math.floor(exact) if exact >= 0 else -math.floor(-exact)
    assert int(value) == expected
    if fmt.is_integer():
        assert operator.index(value) == expected


# -- vector twin -----------------------------------------------------------------


def _lane_values(rng, fmt, lanes):
    """A seeded lane list mixing every awkward kind of input."""
    fb = fmt.frac_bits
    specials = [0.0, -0.0, TINY, -TINY, math.ldexp(1.0, 52 - fb),
                -math.ldexp(1.0, 53 - fb), True, False, 1 << 54, -(1 << 60)]
    values = []
    for _ in range(lanes):
        roll = rng.random()
        if roll < 0.5:
            values.append(rng.uniform(-2.0, 2.0) * math.ldexp(1.0, fmt.iwl))
        elif roll < 0.7:
            k = rng.randint(fmt.raw_min - 2, fmt.raw_max + 2)
            tie = math.ldexp(k + 0.5, -fb)
            values.append(math.nextafter(tie, rng.choice(
                [math.inf, -math.inf])) if rng.random() < 0.5 else tie)
        elif roll < 0.85:
            values.append(rng.randint(-(1 << 20), 1 << 20))
        else:
            values.append(rng.choice(specials))
    return values


VECTOR_FORMATS = [
    FxFormat(6, 3),
    FxFormat(6, 3, rounding=Rounding.ROUND, overflow=Overflow.WRAP),
    FxFormat(12, 2, signed=False, rounding=Rounding.ROUND),
    FxFormat(9, 14, overflow=Overflow.WRAP),
    FxFormat(16, -4, signed=False, overflow=Overflow.WRAP),
    FxFormat(62, 8, rounding=Rounding.ROUND),
    FxFormat(40, 40, overflow=Overflow.ERROR),
    FxFormat(20, 10, rounding=Rounding.ROUND, overflow=Overflow.ERROR),
]


def _vector_outcome(values, fmt):
    got = outcome(_quantize_float_vec, values, fmt)
    return got if isinstance(got, type) else got.tolist()


def _scalar_outcome(values, fmt):
    lanes = [outcome(quantize_raw, v, fmt) for v in values]
    errors = [r for r in lanes if isinstance(r, type)]
    return errors[0] if errors else lanes


@pytest.mark.parametrize("lanes", [1, 64, 1024])
@pytest.mark.parametrize("fmt", VECTOR_FORMATS, ids=str)
def test_vector_matches_scalar_per_lane(fmt, lanes):
    rng = random.Random(f"{fmt}/{lanes}")
    for _ in range(6):
        values = _lane_values(rng, fmt, lanes)
        if fmt.overflow is Overflow.ERROR:
            # Keep most rounds in range so the lane values are compared.
            values = [v for v in values if oracle_fits(v, fmt)] or [0.0]
        expected = _scalar_outcome(values, fmt)
        assert _vector_outcome(values, fmt) == expected
        floats = [float(v) for v in values]
        assert _vector_outcome(np.asarray(floats), fmt) == \
            _scalar_outcome(floats, fmt)


@settings(max_examples=200, deadline=None)
@given(formats(max_wl=62),
       st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(min_value=-(1 << 64),
                                      max_value=1 << 64)),
                min_size=1, max_size=16))
def test_vector_matches_scalar_on_random_lists(fmt, values):
    assert _vector_outcome(values, fmt) == _scalar_outcome(values, fmt)


def test_vector_large_int_lane_trap():
    # float64(2**60 + 2047) rounds before scaling: …626 instead of …625.
    fmt = FxFormat(wl=60, iwl=70, overflow=Overflow.WRAP)
    values = [(1 << 60) + 2047, 1.5]
    assert _quantize_float_vec(values, fmt).tolist() == \
        [oracle(v, fmt) for v in values]
    ints = np.array([(1 << 60) + 2047, -(1 << 62) - 1], dtype=np.int64)
    assert _quantize_float_vec(ints, fmt).tolist() == \
        [oracle(int(v), fmt) for v in ints]


def test_vector_object_lanes_fall_back():
    fmt = FxFormat(10, 4, rounding=Rounding.ROUND)
    values = [Fx(1.3, FxFormat(16, 4)), Fraction(-7, 3), 0.25, 3]
    assert _quantize_float_vec(values, fmt).tolist() == \
        [oracle(v, fmt) for v in values]
    with pytest.raises(TypeError):
        _quantize_float_vec(["0.5", 1.0], fmt)


def test_vector_error_format_raises_for_out_of_range_lane():
    fmt = FxFormat(8, 4, overflow=Overflow.ERROR)
    assert _quantize_float_vec([7.9, -8.0], fmt).tolist() == [126, -128]
    with pytest.raises(FxOverflowError):
        _quantize_float_vec([0.5, 8.0], fmt)


# -- both engines' pin conversion ----------------------------------------------------


def _pin_system(pin_fmt, held_fmt=FxFormat(12, 6), expr=lambda pin: pin):
    clk = Clock()
    pin = Sig("x_pin", pin_fmt)
    held = Register("held", clk, held_fmt)
    sfg = SFG("hold")
    with sfg:
        held <<= expr(pin)
    sfg.inp(pin)
    process = TimedProcess("holder", clk, sfgs=[sfg])
    process.add_input("x", pin)
    process.add_output("q", held)
    system = System("pin_sys")
    system.add(process)
    system.connect(None, process.port("x"), name="x")
    out = system.connect(process.port("q"), name="q")
    return system, out


def test_error_pin_raises_from_both_engines():
    fmt = FxFormat(8, 4, overflow=Overflow.ERROR)
    scalar_sys, _ = _pin_system(fmt)
    scalar = CompiledSimulator(scalar_sys)
    scalar.step({"x": 7.5})
    with pytest.raises(FxOverflowError):
        scalar.step({"x": 8.0})
    batched_sys, _ = _pin_system(fmt)
    batched = BatchedCompiledSimulator(batched_sys, lanes=3)
    batched.step({"x": [7.5, -8.0, 0.0625]})
    with pytest.raises(FxOverflowError):
        batched.step({"x": [7.5, 8.0, 0.0]})
    with pytest.raises(FxOverflowError):
        batched.step({"x": 8.0})


@pytest.mark.parametrize("lanes", [1, 64])
def test_pin_lanes_match_replicated_scalar_engines(lanes):
    fmt = FxFormat(8, 3, rounding=Rounding.ROUND, overflow=Overflow.WRAP)
    rng = random.Random(lanes)
    program = [_lane_values(rng, fmt, lanes) for _ in range(5)]
    program.append([0.0] * lanes)  # one more cycle shows the last pin
    system, out = _pin_system(fmt)
    batched = BatchedCompiledSimulator(system, lanes=lanes, watch=[out])
    seen = []
    for cycle in program:
        batched.step({"x": cycle})
        seen.append(batched.output(out))
    for lane in range(lanes):
        scalar_sys, scalar_out = _pin_system(fmt)
        scalar = CompiledSimulator(scalar_sys, watch=[scalar_out])
        for cycle, outputs in zip(program, seen):
            scalar.step({"x": cycle[lane]})
            assert outputs[lane] == scalar.output(scalar_out)
    assert any(value != 0 for row in seen for value in row)


def test_unformatted_float32_pin_lanes_compute_like_scalar_engine():
    # A float32 lane array on a float-domain pin widens to float64 lanes:
    # squared in float32, 0.1 would lose bits the 40 fraction bits keep.
    held_fmt = FxFormat(44, 4)
    values = np.array([0.1, -0.3, 1.7], dtype=np.float32)
    system, out = _pin_system(None, held_fmt, lambda pin: pin * pin)
    batched = BatchedCompiledSimulator(system, lanes=len(values), watch=[out])
    batched.step({"x": values})
    batched.step({"x": [0.0] * len(values)})
    seen = batched.output(out)
    for lane, value in enumerate(values.tolist()):
        scalar_sys, scalar_out = _pin_system(None, held_fmt,
                                             lambda pin: pin * pin)
        scalar = CompiledSimulator(scalar_sys, watch=[scalar_out])
        scalar.step({"x": value})
        scalar.step({"x": 0.0})
        assert seen[lane] == scalar.output(scalar_out)
        assert seen[lane] == quantize_raw(value * value, held_fmt) \
            / (1 << held_fmt.frac_bits)
