"""Fixed-point value and format types.

A fixed-point number is stored as an arbitrary-precision raw integer
``raw`` with an implied binary point: ``value = raw * 2**-frac_bits``.
Because Python integers are unbounded, intermediate arithmetic is exact;
wordlength effects (rounding, saturation, wraparound) are applied only when
a value is forced into a :class:`FxFormat`, which is precisely how a
hardware datapath behaves at register and bus boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction, "Fx"]


class Rounding(enum.Enum):
    """Quantization behaviour for bits dropped below the LSB."""

    TRUNCATE = "truncate"  # round toward minus infinity (drop bits)
    ROUND = "round"        # round half up (add half LSB, then truncate)


class Overflow(enum.Enum):
    """Behaviour when a value exceeds the representable range."""

    SATURATE = "saturate"  # clip to min/max representable
    WRAP = "wrap"          # two's-complement wraparound
    ERROR = "error"        # raise FxOverflowError


# Defined in core.errors so it sits in the ReproError hierarchy (with
# ArithmeticError as a secondary base); re-imported here so existing
# ``from repro.fixpt.fixed import FxOverflowError`` call sites keep working.
from ..core.errors import FxOverflowError  # noqa: E402  (re-export)


@dataclass(frozen=True)
class FxFormat:
    """A fixed-point wordlength specification.

    Parameters
    ----------
    wl:
        Total word length in bits, including the sign bit when signed.
    iwl:
        Integer word length: the number of bits left of the binary point,
        including the sign bit when signed.  May be negative (all-fraction
        formats) or exceed ``wl`` (formats with trailing implied zeros).
    signed:
        Two's-complement when True, unsigned otherwise.
    rounding / overflow:
        Quantization behaviour applied when values enter this format.
    """

    wl: int
    iwl: int
    signed: bool = True
    rounding: Rounding = Rounding.TRUNCATE
    overflow: Overflow = Overflow.SATURATE

    def __post_init__(self) -> None:
        if self.wl < 1:
            raise ValueError(f"word length must be >= 1, got {self.wl}")
        if self.signed and self.wl < 1:
            raise ValueError("signed formats need at least 1 bit")

    @property
    def frac_bits(self) -> int:
        """Number of bits right of the binary point (may be negative)."""
        return self.wl - self.iwl

    @property
    def raw_min(self) -> int:
        """Smallest representable raw integer."""
        return -(1 << (self.wl - 1)) if self.signed else 0

    @property
    def raw_max(self) -> int:
        """Largest representable raw integer."""
        return (1 << (self.wl - 1)) - 1 if self.signed else (1 << self.wl) - 1

    @property
    def min_value(self) -> Fraction:
        """Smallest representable real value."""
        return Fraction(self.raw_min, 1) / (1 << max(self.frac_bits, 0)) * self._scale_up()

    @property
    def max_value(self) -> Fraction:
        """Largest representable real value."""
        return Fraction(self.raw_max, 1) / (1 << max(self.frac_bits, 0)) * self._scale_up()

    def _scale_up(self) -> int:
        # When frac_bits is negative the LSB weighs 2**-frac_bits.
        return (1 << -self.frac_bits) if self.frac_bits < 0 else 1

    @property
    def lsb(self) -> Fraction:
        """Weight of one raw-integer step."""
        return Fraction(1, 1 << self.frac_bits) if self.frac_bits >= 0 else Fraction(1 << -self.frac_bits)

    def is_integer(self) -> bool:
        """True when this format has no fractional bits."""
        return self.frac_bits <= 0

    def can_hold(self, other: "FxFormat") -> bool:
        """True when every value of *other* is exactly representable here."""
        if other.signed and not self.signed:
            return False
        extra_int = self.iwl - other.iwl
        extra_frac = self.frac_bits - other.frac_bits
        if extra_frac < 0:
            return False
        if not other.signed and self.signed:
            # Unsigned values need one more integer bit in a signed format.
            return extra_int >= 1
        return extra_int >= 0

    def union(self, other: "FxFormat") -> "FxFormat":
        """The smallest format holding every value of *self* and *other*."""
        signed = self.signed or other.signed

        def eff_iwl(fmt: FxFormat) -> int:
            # Integer bits excluding the sign bit, normalised to signedness.
            return fmt.iwl - (1 if fmt.signed else 0)

        iwl_mag = max(eff_iwl(self), eff_iwl(other))
        frac = max(self.frac_bits, other.frac_bits)
        iwl = iwl_mag + (1 if signed else 0)
        return FxFormat(
            wl=iwl + frac,
            iwl=iwl,
            signed=signed,
            rounding=self.rounding,
            overflow=self.overflow,
        )

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"<{sign}{self.wl},{self.iwl}>"


#: Convenient default used when coercing bare Python ints into Fx.
INT32 = FxFormat(wl=32, iwl=32, signed=True)


def _format_for_int(value: int) -> FxFormat:
    """Smallest signed integer format holding *value*."""
    bits = max(value.bit_length(), 1) + 1  # +1 sign bit
    return FxFormat(wl=bits, iwl=bits, signed=True)


def _format_for_float(value: float, frac_bits: int = 31) -> FxFormat:
    """A generous signed format holding *value* with *frac_bits* fraction."""
    mag = abs(value)
    int_bits = max(1, int(math.floor(math.log2(mag))) + 2) if mag >= 1.0 else 1
    return FxFormat(wl=int_bits + 1 + frac_bits, iwl=int_bits + 1, signed=True)


class Fx:
    """A fixed-point number.

    ``Fx(value, fmt)`` quantizes *value* into *fmt*.  Arithmetic between
    ``Fx`` values is exact (formats grow), matching hardware full-precision
    datapath operators; use :meth:`cast` (or construct a new ``Fx``) to model
    a register or bus boundary where quantization occurs.
    """

    __slots__ = ("_raw", "_fmt")

    def __init__(self, value: Real = 0, fmt: FxFormat = None, *, raw: int = None):
        if fmt is None:
            if isinstance(value, Fx):
                fmt = value._fmt
            elif isinstance(value, int):
                fmt = _format_for_int(value)
            elif isinstance(value, float):
                fmt = _format_for_float(value)
            else:
                raise TypeError(f"cannot infer format for {type(value).__name__}")
        self._fmt = fmt
        if raw is not None:
            self._raw = _apply_overflow(raw, fmt)
        else:
            from .quantize import quantize_raw

            self._raw = quantize_raw(value, fmt)

    # -- accessors ---------------------------------------------------------

    @property
    def fmt(self) -> FxFormat:
        """The format this value is quantized to."""
        return self._fmt

    @property
    def raw(self) -> int:
        """The underlying raw integer (two's-complement semantics)."""
        return self._raw

    def as_fraction(self) -> Fraction:
        """The exact real value as a :class:`fractions.Fraction`."""
        fb = self._fmt.frac_bits
        if fb >= 0:
            return Fraction(self._raw, 1 << fb)
        return Fraction(self._raw * (1 << -fb), 1)

    def __float__(self) -> float:
        fb = self._fmt.frac_bits
        return self._raw * (2.0 ** -fb)

    def __int__(self) -> int:
        # Truncate toward zero, straight from the raw integer.
        raw, fb = self._raw, self._fmt.frac_bits
        if fb <= 0:
            return raw << -fb
        return raw >> fb if raw >= 0 else -((-raw) >> fb)

    def __index__(self) -> int:
        if not self._fmt.is_integer():
            raise TypeError(f"{self} has fractional bits; cannot index")
        return int(self)

    def __bool__(self) -> bool:
        return self._raw != 0

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    # -- format movement ----------------------------------------------------

    def cast(self, fmt: FxFormat) -> "Fx":
        """Quantize into *fmt* — models a register/bus wordlength boundary."""
        return Fx(self, fmt)

    # -- arithmetic (exact; formats grow) ------------------------------------

    @staticmethod
    def _coerce(value: Real) -> "Fx":
        if isinstance(value, Fx):
            return value
        return Fx(value)

    def _binary_raws(self, other: "Fx"):
        """Align both raw integers to a common fraction length."""
        fa, fb = self._fmt.frac_bits, other._fmt.frac_bits
        frac = max(fa, fb)
        ra = self._raw << (frac - fa)
        rb = other._raw << (frac - fb)
        return ra, rb, frac

    def __add__(self, other: Real) -> "Fx":
        other = self._coerce(other)
        ra, rb, frac = self._binary_raws(other)
        result = ra + rb
        fmt = self._fmt.union(other._fmt)
        fmt = _grow_int(fmt, 1)
        return Fx(raw=result << max(0, fmt.frac_bits - frac), fmt=fmt)

    def __radd__(self, other: Real) -> "Fx":
        return self._coerce(other).__add__(self)

    def __sub__(self, other: Real) -> "Fx":
        other = self._coerce(other)
        ra, rb, frac = self._binary_raws(other)
        result = ra - rb
        fmt = self._fmt.union(other._fmt)
        fmt = _grow_int(_make_signed(fmt), 1)
        return Fx(raw=result << max(0, fmt.frac_bits - frac), fmt=fmt)

    def __rsub__(self, other: Real) -> "Fx":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Real) -> "Fx":
        other = self._coerce(other)
        raw = self._raw * other._raw
        frac = self._fmt.frac_bits + other._fmt.frac_bits
        signed = self._fmt.signed or other._fmt.signed
        iwl = self._fmt.iwl + other._fmt.iwl
        fmt = FxFormat(
            wl=max(1, iwl + frac),
            iwl=iwl,
            signed=signed,
            rounding=self._fmt.rounding,
            overflow=self._fmt.overflow,
        )
        shift = fmt.frac_bits - frac
        if shift >= 0:
            raw <<= shift
        else:
            raw >>= -shift
        return Fx(raw=raw, fmt=fmt)

    def __rmul__(self, other: Real) -> "Fx":
        return self._coerce(other).__mul__(self)

    def __neg__(self) -> "Fx":
        fmt = _grow_int(_make_signed(self._fmt), 1)
        shift = fmt.frac_bits - self._fmt.frac_bits
        return Fx(raw=(-self._raw) << shift, fmt=fmt)

    def __abs__(self) -> "Fx":
        return -self if self._raw < 0 else Fx(raw=self._raw, fmt=self._fmt)

    def __lshift__(self, bits: int) -> "Fx":
        """Shift left: multiply by 2**bits, growing the integer field."""
        if bits < 0:
            return self >> -bits
        fmt = _grow_int(self._fmt, bits)
        return Fx(raw=self._raw << (fmt.frac_bits - self._fmt.frac_bits + bits), fmt=fmt)

    def __rshift__(self, bits: int) -> "Fx":
        """Shift right: divide by 2**bits, growing the fraction field."""
        if bits < 0:
            return self << -bits
        fmt = FxFormat(
            wl=self._fmt.wl + bits,
            iwl=self._fmt.iwl,
            signed=self._fmt.signed,
            rounding=self._fmt.rounding,
            overflow=self._fmt.overflow,
        )
        # Raw value unchanged; the binary point moves by adding frac bits.
        return Fx(raw=self._raw << (fmt.frac_bits - self._fmt.frac_bits - bits), fmt=fmt)

    # -- bitwise (integer formats only) ---------------------------------------

    def _bitwise(self, other: Real, op) -> "Fx":
        other = self._coerce(other)
        if not (self._fmt.is_integer() and other._fmt.is_integer()):
            raise TypeError("bitwise operations require integer fixed-point formats")
        fmt = self._fmt.union(other._fmt)
        wl = fmt.wl
        mask = (1 << wl) - 1
        ra = self._raw & mask
        rb = other._raw & mask
        result = op(ra, rb) & mask
        if fmt.signed and result >= (1 << (wl - 1)):
            result -= 1 << wl
        return Fx(raw=result, fmt=fmt)

    def __and__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a & b)

    def __or__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a | b)

    def __xor__(self, other: Real) -> "Fx":
        return self._bitwise(other, lambda a, b: a ^ b)

    def __invert__(self) -> "Fx":
        if not self._fmt.is_integer():
            raise TypeError("bitwise operations require integer fixed-point formats")
        mask = (1 << self._fmt.wl) - 1
        result = (~self._raw) & mask
        if self._fmt.signed and result >= (1 << (self._fmt.wl - 1)):
            result -= 1 << self._fmt.wl
        return Fx(raw=result, fmt=self._fmt)

    # -- comparisons -----------------------------------------------------------

    def _cmp_value(self, other: Real) -> Fraction:
        if isinstance(other, Fx):
            return other.as_fraction()
        if isinstance(other, float):
            return Fraction(other)
        return Fraction(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Fx, int, float, Fraction)):
            return NotImplemented
        return self.as_fraction() == self._cmp_value(other)

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return NotImplemented if result is NotImplemented else not result

    def __lt__(self, other: Real) -> bool:
        return self.as_fraction() < self._cmp_value(other)

    def __le__(self, other: Real) -> bool:
        return self.as_fraction() <= self._cmp_value(other)

    def __gt__(self, other: Real) -> bool:
        return self.as_fraction() > self._cmp_value(other)

    def __ge__(self, other: Real) -> bool:
        return self.as_fraction() >= self._cmp_value(other)

    def __repr__(self) -> str:
        return f"Fx({float(self)!r}, {self._fmt})"


def _make_signed(fmt: FxFormat) -> FxFormat:
    if fmt.signed:
        return fmt
    return FxFormat(
        wl=fmt.wl + 1,
        iwl=fmt.iwl + 1,
        signed=True,
        rounding=fmt.rounding,
        overflow=fmt.overflow,
    )


def _grow_int(fmt: FxFormat, bits: int) -> FxFormat:
    return FxFormat(
        wl=fmt.wl + bits,
        iwl=fmt.iwl + bits,
        signed=fmt.signed,
        rounding=fmt.rounding,
        overflow=fmt.overflow,
    )


def _apply_overflow(raw: int, fmt: FxFormat) -> int:
    """Fold *raw* into the representable range of *fmt*."""
    if fmt.raw_min <= raw <= fmt.raw_max:
        return raw
    if fmt.overflow is Overflow.SATURATE:
        return fmt.raw_max if raw > fmt.raw_max else fmt.raw_min
    if fmt.overflow is Overflow.WRAP:
        span = 1 << fmt.wl
        raw &= span - 1
        if fmt.signed and raw >= (1 << (fmt.wl - 1)):
            raw -= span
        return raw
    raise FxOverflowError(f"raw value {raw} overflows format {fmt}")
