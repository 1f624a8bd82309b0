"""Quantization of real values into fixed-point formats.

Every quantization in the package reduces to one integer core,
:func:`quantize_raw_at`: shift a raw integer from its binary point to
the target's (rounding per the format), then apply the overflow policy.

:func:`quantize_raw` feeds that core from any real value.  Ints and
:class:`Fx` values are already raw integers at a known binary point.
Floats take an exact fast path: scaling a float by a power of two is
exact, so ``ldexp(x, frac_bits)`` holds the scaled value with no
rounding as long as it neither overflows nor underflows, and while its
magnitude is below ``2**52`` its integer and fractional parts are exact
too.  Outside that domain (huge magnitudes, results that land in the
subnormal range) the value falls back to exact :class:`Fraction`
arithmetic, which is also the path ``Fraction`` inputs take.  NaN and
±inf reach ``Fraction`` and raise ``ValueError`` / ``OverflowError``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import floor, inf, ldexp
from typing import Union

from .fixed import Fx, FxFormat, Rounding, _apply_overflow

#: Scaled floats below this magnitude have exact integer/fraction parts.
_FAST_LIMIT = float(1 << 52)
#: Smallest normal float; a non-zero scaled value below it may have
#: lost bits to underflow.
_MIN_NORMAL = sys.float_info.min


def quantize_raw_at(raw: int, frac: int, fmt: FxFormat) -> int:
    """Quantize a raw integer at binary point *frac* into *fmt*.

    This is the single arithmetic definition every back-end renders:
    shift to the target binary point (rounding per the format), then
    apply the overflow policy.  Raises :class:`FxOverflowError` for
    ``Overflow.ERROR`` formats when the value does not fit.
    """
    shift = frac - fmt.frac_bits
    if shift < 0:
        value = raw << -shift
    elif shift == 0:
        value = raw
    elif fmt.rounding is Rounding.ROUND:
        value = (raw + (1 << (shift - 1))) >> shift
    else:
        value = raw >> shift
    return _apply_overflow(value, fmt)


def quantize_raw(value: Union[int, float, Fraction, Fx], fmt: FxFormat) -> int:
    """Quantize *value* and return the raw integer in *fmt*.

    Rounding is applied first (per ``fmt.rounding``) to resolve bits below
    the LSB, then overflow handling (per ``fmt.overflow``) folds the result
    into the representable range.
    """
    if isinstance(value, float):
        try:
            scaled = ldexp(value, fmt.frac_bits)
        except OverflowError:
            scaled = inf
        mag = abs(scaled)
        if mag < _FAST_LIMIT and (mag >= _MIN_NORMAL or value == 0.0):
            raw = floor(scaled)
            # ``scaled - raw`` is exact here; ``floor(scaled + 0.5)``
            # would round the addition (0.49999999999999994 -> 1).
            if fmt.rounding is Rounding.ROUND and scaled - raw >= 0.5:
                raw += 1
            return _apply_overflow(raw, fmt)
        exact = Fraction(value)
    elif isinstance(value, int):
        return quantize_raw_at(int(value), 0, fmt)
    elif isinstance(value, Fx):
        return quantize_raw_at(value.raw, value.fmt.frac_bits, fmt)
    elif isinstance(value, Fraction):
        exact = value
    else:
        raise TypeError(f"cannot quantize {type(value).__name__}")

    # Exact path: floats outside the fast domain and Fractions.
    fb = fmt.frac_bits
    scaled = exact * (1 << fb) if fb >= 0 else exact / (1 << -fb)
    if fmt.rounding is Rounding.ROUND:
        # Round half up: floor(x + 1/2).
        scaled += Fraction(1, 2)
    return _apply_overflow(scaled.numerator // scaled.denominator, fmt)


def quantize(value: Union[int, float, Fraction, Fx], fmt: FxFormat) -> Fx:
    """Quantize *value* into *fmt*, returning an :class:`Fx`."""
    return Fx(raw=quantize_raw(value, fmt), fmt=fmt)
