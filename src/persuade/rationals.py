"""Exact rational parsing and formatting, and helpers the solvers share.

Every value the package returns is a fractions.Fraction, which keeps
values in lowest terms with a positive denominator.  JSON carries numbers
as strings ("3/4", "-1/16", "0.25") or plain integers; binary floats are
rejected so no rounding can sneak in.  The solvers compute in ints over
common denominators: over_common brings Fractions to such ints,
shared_fractions turns such ints back into Fractions, and
breakpoint_grid builds the candidate grid of their scalar-weight sweeps.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import MalformedRational


def parse_rational(value) -> Fraction:
    """Convert a JSON-level number into an exact Fraction.

    Accepts int, Fraction, or a string holding either a ratio "p/q" or a
    decimal literal.  Floats and anything unparsable raise
    MalformedRational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise MalformedRational(f"boolean is not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise MalformedRational(
            f"floats are inexact, write the value as a string: {value!r}"
        )
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MalformedRational(f"cannot parse rational from {value!r}") from exc
    raise MalformedRational(f"cannot parse rational from {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a Fraction in the canonical "p/q" (or integer) string form."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_float_repr(value: Fraction) -> str:
    """Best-effort decimal rendering for display next to the exact form."""
    return f"{float(value):.12g}"


def over_common(values) -> tuple:
    """values as ints over their least common denominator, and that denominator."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def shared_fractions(den: int):
    """v -> Fraction(v, den), each distinct int v made into a Fraction once."""
    made: dict = {}

    def over(v: int) -> Fraction:
        value = made.get(v)
        if value is None:
            value = made[v] = Fraction(v, den)
        return value

    return over


def breakpoint_grid(points) -> tuple:
    """0, the sorted positive breakpoints, their midpoints, one past the last.

    A piecewise-constant choice that changes only at the given points
    takes every one of its values on this grid, in increasing order.
    """
    grid = [Fraction(0)] + sorted(points)
    out = [grid[0]]
    for prev, cur in zip(grid, grid[1:]):
        out.append((prev + cur) / 2)
        out.append(cur)
    out.append(grid[-1] + 1)
    return tuple(out)
