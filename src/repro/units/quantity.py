"""Unit-aware quantities.

A :class:`Quantity` stores its magnitude normalized to base units (bytes,
seconds, joules, ...) together with its :class:`Dimension`.  Arithmetic
checks dimensions; conversion and formatting go through a
:class:`~repro.units.registry.UnitRegistry`.

Normalizing rounds: ``0`` and ``5e-324`` mW both become ``0.0`` W, and two
adjacent floats can meet on one magnitude under any non-power-of-two unit
factor.  So :meth:`Quantity.of` also keeps the value as written with its
unit factor, and two quantities written in the same unit compare (order
and equality) by their written values; any other pair compares by
normalized magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from ..diagnostics import UnitError
from .dimension import DIMENSIONLESS, Dimension, dimension_name
from .registry import DEFAULT_REGISTRY, UnitRegistry

Number = Union[int, float]


@dataclass(frozen=True, slots=True)
class Quantity:
    """A magnitude in base units plus its dimension."""

    magnitude: float
    dimension: Dimension
    #: ``(value, unit factor)`` as given to :meth:`of`; ``None`` for
    #: quantities built from a magnitude (arithmetic results, image reads).
    written: tuple[float, float] | None = field(
        default=None, compare=False, repr=False
    )

    # -- constructors ------------------------------------------------------
    @staticmethod
    def of(
        value: Number,
        unit: str,
        registry: UnitRegistry = DEFAULT_REGISTRY,
    ) -> "Quantity":
        """Build a quantity from a value and a spelled unit."""
        u = registry.get(unit)
        v = float(value)
        return Quantity(v * u.factor, u.dimension, (v, u.factor))

    @staticmethod
    def parse(
        text: str,
        registry: UnitRegistry = DEFAULT_REGISTRY,
        *,
        default_unit: str | None = None,
    ) -> "Quantity":
        """Parse ``"16 GiB"``, ``"2GHz"``, ``"3.5"`` (with ``default_unit``).

        Accepts an optional space between number and unit.
        """
        s = text.strip()
        i = 0
        n = len(s)
        while i < n and (s[i].isdigit() or s[i] in "+-.eE"):
            # Stop a bare 'e'/'E' from eating a unit like 'eV'; require a
            # digit after the exponent marker.
            if s[i] in "eE" and not (i + 1 < n and (s[i + 1].isdigit() or s[i + 1] in "+-")):
                break
            i += 1
        num_text, unit_text = s[:i].strip(), s[i:].strip()
        if not num_text:
            raise UnitError(f"cannot parse quantity from {text!r}: no number")
        try:
            value = float(num_text)
        except ValueError:
            raise UnitError(f"cannot parse quantity from {text!r}") from None
        if not unit_text:
            if default_unit is None:
                return Quantity(value, DIMENSIONLESS)
            unit_text = default_unit
        return Quantity.of(value, unit_text, registry)

    @staticmethod
    def dimensionless(value: Number) -> "Quantity":
        return Quantity(float(value), DIMENSIONLESS)

    # -- conversion --------------------------------------------------------
    def to(self, unit: str, registry: UnitRegistry = DEFAULT_REGISTRY) -> float:
        """Magnitude expressed in ``unit``; dimension-checked."""
        u = registry.get(unit)
        if u.dimension != self.dimension:
            raise UnitError(
                f"cannot express {dimension_name(self.dimension)} in "
                f"{unit!r} ({dimension_name(u.dimension)})"
            )
        return self.magnitude / u.factor

    def format(
        self,
        unit: str | None = None,
        registry: UnitRegistry = DEFAULT_REGISTRY,
        *,
        precision: int = 6,
    ) -> str:
        if self.dimension == DIMENSIONLESS and unit is None:
            return f"{self.magnitude:.{precision}g}"
        sym = unit or registry.canonical_symbol(self.dimension)
        return f"{self.to(sym, registry):.{precision}g} {sym}"

    # -- arithmetic ---------------------------------------------------------
    def _require_same(self, other: "Quantity", op: str) -> None:
        if other.dimension != self.dimension:
            raise UnitError(
                f"cannot {op} {dimension_name(self.dimension)} and "
                f"{dimension_name(other.dimension)}"
            )

    def __add__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "add")
        return Quantity(self.magnitude + other.magnitude, self.dimension)

    def __sub__(self, other: "Quantity") -> "Quantity":
        self._require_same(other, "subtract")
        return Quantity(self.magnitude - other.magnitude, self.dimension)

    def __mul__(self, other: "Quantity | Number") -> "Quantity":
        if isinstance(other, Quantity):
            return Quantity(
                self.magnitude * other.magnitude, self.dimension * other.dimension
            )
        return Quantity(self.magnitude * float(other), self.dimension)

    __rmul__ = __mul__

    def __truediv__(self, other: "Quantity | Number") -> "Quantity":
        if isinstance(other, Quantity):
            return Quantity(
                self.magnitude / other.magnitude, self.dimension / other.dimension
            )
        return Quantity(self.magnitude / float(other), self.dimension)

    def __rtruediv__(self, other: Number) -> "Quantity":
        return Quantity(float(other) / self.magnitude, DIMENSIONLESS / self.dimension)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.magnitude, self.dimension)

    def __abs__(self) -> "Quantity":
        return Quantity(abs(self.magnitude), self.dimension)

    def __pow__(self, k: int) -> "Quantity":
        return Quantity(self.magnitude**k, self.dimension**k)

    # -- comparison ----------------------------------------------------------
    def _compared(self, other: "Quantity") -> tuple[float, float]:
        """The two numbers that order or equate ``self`` and ``other``.

        Written values when both were written in units of one factor (their
        order is exact there; the rounded magnitudes may tie), else the
        normalized magnitudes.
        """
        a, b = self.written, other.written
        if a is not None and b is not None and a[1] == b[1]:
            return a[0], b[0]
        return self.magnitude, other.magnitude

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Quantity):
            return NotImplemented
        if other.dimension != self.dimension:
            return False
        a, b = self._compared(other)
        return a == b

    def __lt__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        a, b = self._compared(other)
        return a < b

    def __le__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        a, b = self._compared(other)
        return a <= b

    def __gt__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        a, b = self._compared(other)
        return a > b

    def __ge__(self, other: "Quantity") -> bool:
        self._require_same(other, "compare")
        a, b = self._compared(other)
        return a >= b

    def close_to(self, other: "Quantity", *, rel: float = 1e-9, abs_: float = 0.0) -> bool:
        self._require_same(other, "compare")
        return math.isclose(self.magnitude, other.magnitude, rel_tol=rel, abs_tol=abs_)

    def is_dimensionless(self) -> bool:
        return self.dimension == DIMENSIONLESS

    def __float__(self) -> float:
        if not self.is_dimensionless():
            raise UnitError(
                f"refusing to coerce {dimension_name(self.dimension)} to bare float"
            )
        return self.magnitude

    def __str__(self) -> str:
        try:
            return self.format()
        except UnitError:
            return f"{self.magnitude:.6g} [{self.dimension}]"
