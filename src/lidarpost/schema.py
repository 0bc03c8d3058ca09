"""Ranges of settings and arguments, each declared once.

Each module's config dataclass is a :class:`Section` that declares the values
of each field with :func:`setting`, and checks them when it is built; the CLI
checks a config file against the same declarations. Library functions check
their arguments against the same :class:`Range` constants with :func:`check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Container, Tuple


@dataclass(frozen=True)
class Range:
    """The numbers from low to high; an open end leaves its bound out."""

    low: float
    high: float
    low_open: bool = False
    high_open: bool = False

    def __contains__(self, value: float) -> bool:
        above = value > self.low if self.low_open else value >= self.low
        below = value < self.high if self.high_open else value <= self.high
        return above and below

    def __str__(self) -> str:
        return (f"{'(' if self.low_open else '['}{self.low!r}, "
                f"{self.high!r}{')' if self.high_open else ']'}")


FINITE = Range(-math.inf, math.inf, low_open=True, high_open=True)
POSITIVE = Range(0.0, math.inf, low_open=True, high_open=True)
COUNT = Range(1, math.inf, high_open=True)
NON_NEGATIVE = Range(0, math.inf, high_open=True)
UNIT = Range(0.0, 1.0)
UNIT_ABOVE_0 = Range(0.0, 1.0, low_open=True)
UNIT_BELOW_1 = Range(0.0, 1.0, high_open=True)


def setting(allowed: Container, **kwargs: Any) -> Any:
    """A :func:`dataclasses.field` whose value must lie in allowed, a Range or
    a tuple of choices, as must each entry of a map and element of a list."""
    return field(metadata={"allowed": allowed}, **kwargs)


def check(name: str, value: Any, allowed: Container) -> None:
    """Raise ValueError unless value lies in allowed."""
    if value not in allowed:
        raise ValueError(f"{name} must lie in {allowed}, got {value!r}")


class Section:
    """Base of a config dataclass, whose settings are checked when it is built.
    ORDER names the pairs of them that must be in order: (lower, upper, strict)."""

    ORDER: Tuple[Tuple[str, str, bool], ...] = ()

    def __post_init__(self) -> None:
        """Check each :func:`setting` in field order, then each ORDER pair;
        raises ValueError for the first that fails. A list setting must not
        be empty, and a map must name the keys of its default and no other."""
        for f in fields(self):
            if "allowed" in f.metadata:
                value = getattr(self, f.name)
                if isinstance(value, dict):
                    keys = f.default_factory().keys()
                    if value.keys() != keys:
                        raise ValueError(f"{f.name} must name {', '.join(keys)} and no other, "
                                         f"got {list(value)!r}")
                    value = value.values()
                elif not isinstance(value, list):
                    value = (value,)
                elif not value:
                    raise ValueError(f"{f.name} must not be empty")
                for item in value:
                    check(f.name, item, f.metadata["allowed"])
        for low, high, strict in self.ORDER:
            a, b = getattr(self, low), getattr(self, high)
            if not (a < b if strict else a <= b):
                relation = "<" if strict else "<="
                raise ValueError(f"{low} must be {relation} {high} ({b!r}), got {a!r}")
