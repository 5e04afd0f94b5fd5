"""Scenes and evasion paths, the plain data that the deciders and the path
checker (`evasion.certify`) both read. With that checker this module is the
trusted base of an EVASION verdict, so it imports nothing from the package."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Point = tuple[Fraction, Fraction]
Interval = tuple[Fraction, Fraction]


def _rational(value) -> Fraction:
    if isinstance(value, (float, bool)):  # the scene reader refuses both too, rather than read them inexactly
        raise ValueError(f"not an exact rational: {value!r}")
    return Fraction(value)


def _interval(pair) -> Interval:
    lo, hi = _rational(pair[0]), _rational(pair[1])
    if lo > hi:
        raise ValueError(f"interval [{lo}, {hi}] is empty")
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

    def shifted(self, dt, dx, dy) -> "Scene":
        dt, dx, dy = _rational(dt), _rational(dx), _rational(dy)

        def mv(iv: Interval, d: Fraction) -> Interval:
            return (iv[0] + d, iv[1] + d)

        return Scene(
            mv(self.window_x, dx),
            mv(self.window_y, dy),
            tuple(Box(mv(b.t, dt), mv(b.x, dx), mv(b.y, dy)) for b in self.boxes),
        )


def _rectangle_keys(boxes) -> list[tuple[int, int, int, int]]:
    """The spatial rectangle of each box, keyed by the identities of its four
    coordinate objects. Equal keys mean one rectangle, as identical objects
    are equal; the scene reader returns one `Fraction` per distinct literal,
    so boxes read from the same literals share a key, and boxes built apart
    form groups of one."""
    return [(id(b.x[0]), id(b.x[1]), id(b.y[0]), id(b.y[1])) for b in boxes]


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
