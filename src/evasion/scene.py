"""Scenes and evasion paths, the plain data that the deciders and the path
checker (`evasion.certify`) both read. With that checker this module is the
trusted base of an EVASION verdict, so it imports nothing from the package."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Point = tuple[Fraction, Fraction]
Interval = tuple[Fraction, Fraction]


def _rational(value) -> Fraction:
    """An int or a Fraction as a Fraction. Anything else is refused: a float
    or a bool would be read inexactly, and a string is a literal, which only
    `evasion.formats.parse_rational` reads."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r}")


def _interval(pair) -> Interval:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:  # as the scene reader refuses it
        raise ValueError(f"an interval must be a two-element list, got {pair!r}")
    lo, hi = map(_rational, pair)
    if lo > hi:
        raise ValueError(f"interval [{lo}, {hi}] is reversed")
    return lo, hi


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in space-time; spatial degeneracy is allowed
    (a zero-width box is a wall segment and still separates gaps)."""

    t: Interval
    x: Interval
    y: Interval

    @classmethod
    def make(cls, t, x, y) -> "Box":
        return cls(_interval(t), _interval(x), _interval(y))

    def alive(self, at: Fraction) -> bool:
        return self.t[0] <= at <= self.t[1]

    def contains(self, p: Point) -> bool:
        return self.x[0] <= p[0] <= self.x[1] and self.y[0] <= p[1] <= self.y[1]


@dataclass(frozen=True)
class Scene:
    """Spatial window plus coverage boxes.

    Convention: coverage at time t is (plane minus int(window)) union the
    boxes alive at t, so every gap automatically sits strictly inside the
    window (the window complement is the fence).
    """

    window_x: Interval
    window_y: Interval
    boxes: tuple[Box, ...]

    @classmethod
    def make(cls, window_x, window_y, boxes=()) -> "Scene":
        return cls(_interval(window_x), _interval(window_y), tuple(boxes))

    @cached_property
    def rectangles(self) -> tuple[tuple[Box, ...], tuple[int, ...]]:
        """One box per distinct spatial rectangle, in order of first
        appearance, and the index of each box's rectangle. Boxes share a
        rectangle when their x and y intervals are equal as values, told
        apart by (numerator, denominator) pairs so that no `Fraction` is hashed."""
        number: dict[tuple[int, ...], int] = {}
        index = []
        for b in self.boxes:
            (x0, x1), (y0, y1) = b.x, b.y
            key = (*x0.as_integer_ratio(), *x1.as_integer_ratio(), *y0.as_integer_ratio(), *y1.as_integer_ratio())
            index.append(number.setdefault(key, len(number)))
        return tuple(dict(zip(index, self.boxes)).values()), tuple(index)

    def shifted(self, dt, dx, dy) -> "Scene":
        dt, dx, dy = _rational(dt), _rational(dx), _rational(dy)

        def mv(iv: Interval, d: Fraction) -> Interval:
            return (iv[0] + d, iv[1] + d)

        return Scene(
            mv(self.window_x, dx),
            mv(self.window_y, dy),
            tuple(Box(mv(b.t, dt), mv(b.x, dx), mv(b.y, dy)) for b in self.boxes),
        )


@dataclass(frozen=True)
class PathSegment:
    """Hold `point` from start to end (None = unbounded side)."""

    start: Fraction | None
    end: Fraction | None
    point: Point


@dataclass(frozen=True)
class EvasionPath:
    """Piecewise-constant-in-space evasion witness.

    Consecutive segments share their boundary time; the instantaneous move
    between their points happens inside the open gap at that time and is
    checked segment by segment and jump by jump.
    """

    segments: tuple[PathSegment, ...]
    chain: tuple[tuple[str, str], ...]  # (cell id, gap component label) in time order
