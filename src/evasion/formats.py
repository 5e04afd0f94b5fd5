"""The file formats' readers and the rational literal rule: the one place a
scene file, a path file or a literal is read.

A path file reaches the checker (`evasion.certify`) through these readers,
so with `evasion.scene` and `evasion.certify` this module is the trusted
base of an EVASION verdict, and it imports only the standard library and
`evasion.scene`. Every reader refuses malformed input with a ValueError
naming the field at fault; `evasion.cli` turns it into a report."""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from evasion.scene import Box, EvasionPath, PathSegment, Scene

# CPython's default limit on the digits of an int read from a string
MAX_LITERAL_DIGITS = 4300
# the most characters of a literal an error message quotes
MAX_ECHO = 100
# a plain decimal integer: an optional "-" and at most MAX_LITERAL_DIGITS ASCII
# digits, which `int` reads to the value `Fraction` would give; a match or None
plain_integer = re.compile(f"-?[0-9]{{1,{MAX_LITERAL_DIGITS}}}").fullmatch


def _exponent_too_large(text: str) -> bool:
    """Would the exponent of a literal like "1e999999999" write it out past
    MAX_LITERAL_DIGITS digits, either sign? `Fraction` builds that power of
    ten before anything else can reject the value."""
    mantissa, e, exponent = text.lower().partition("e")
    if not e:
        return False
    try:
        shift = abs(int(exponent))
    except ValueError:  # not an integer exponent, which Fraction rejects
        return False
    return sum(c.isdigit() for c in mantissa) + shift > MAX_LITERAL_DIGITS


def _echo(text: str) -> str:
    """The literal as an error message quotes it: whole up to MAX_ECHO
    characters, else its first MAX_ECHO characters and its length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def _ratio(value) -> tuple[Fraction, int, int]:
    """A literal's value, numerator and positive denominator, the one reading
    of a literal (`parse_rational`).

    A `plain_integer` is read by one `int` call, skipping `Fraction`'s
    pattern match; it is the form scenes are written in, and every other
    string takes the `Fraction` route, so values and error messages are the
    same either way. Messages quote a literal through `_echo`, so an
    overlong one is named by its prefix and its length."""
    if isinstance(value, str):
        if plain_integer(value):
            n = int(value)
            return Fraction(n), n, 1
        if _exponent_too_large(value):
            raise ValueError(
                f"unsupported rational literal: {_echo(value)} (over {MAX_LITERAL_DIGITS} digits written out)"
            )
        try:
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"unsupported rational literal: {_echo(value)}") from exc
    elif isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    elif isinstance(value, int):
        q = Fraction(value)
    else:
        raise ValueError(f"unsupported rational value: {value!r} (floats are not accepted)")
    return (q, *q.as_integer_ratio())


def parse_rational(value) -> Fraction:
    """Parse a plain int or any string `Fraction` reads exactly: "p", "p/q",
    and also "4.5", "1e1", "1_000" or " 2 ". Floats are rejected: they would
    silently contaminate the exact pipeline. A literal whose exponent would
    write it out past MAX_LITERAL_DIGITS digits is rejected too, before
    `Fraction` spends unbounded time expanding it. This is `_ratio`'s value."""
    return _ratio(value)[0]


def format_rational(q: Fraction) -> str:
    """q as "p" or "p/q", whatever the length of p and q: arithmetic on
    accepted input (a path's hop times, a sample midpoint) can outgrow the
    reader's literal bound and must still be written out."""
    n, d = q.numerator, q.denominator
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        # past CPython's limit on int-to-str conversion (4300 digits by
        # default); the conversion to Decimal is exact and not bound by it
        return str(Decimal(n)) if d == 1 else f"{Decimal(n)}/{Decimal(d)}"


def _list(value, what: str) -> list:
    # a string or an object would otherwise be read one character or key at a time
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _fields(data, names, what: str, schema: str) -> list:
    """The named fields of a JSON object, each required, in `names` order."""
    if not isinstance(data, dict):
        raise ValueError(f"malformed {schema} JSON: {what} must be an object, got {data!r}")
    missing = [name for name in names if name not in data]
    if missing:
        raise ValueError(f"malformed {schema} JSON: {what} has no {missing[0]!r}")
    return [data[name] for name in names]


def _part(box: int | None) -> str:
    """A box, or the window, as a scene reader's message names it."""
    return "window" if box is None else f"box {box}"


class _Literals(dict):
    """Literal string -> its `_ratio`, each string read on first lookup."""

    def __missing__(self, literal: str) -> tuple[Fraction, int, int]:
        entry = self[literal] = _ratio(literal)
        return entry


_BOX_FIELDS = frozenset("txy")


def _interval(iv, axis: str, box: int | None, parsed: _Literals) -> tuple[Fraction, Fraction]:
    """One [lo, hi] interval of a box or the window: both ends parsed, then ordered."""
    if not isinstance(iv, (list, tuple)) or len(iv) != 2:
        raise ValueError(f"{_part(box)} {axis} interval must be a two-element list, got {iv!r}")
    lo, hi = iv
    try:
        lo, a, b = parsed[lo] if type(lo) is str else _ratio(lo)
        hi, c, d = parsed[hi] if type(hi) is str else _ratio(hi)
    except ValueError as exc:
        raise ValueError(f"{_part(box)} {axis}: {exc}") from exc
    if a * d > c * b:  # ordered on integers: denominators are positive
        raise ValueError(f"{_part(box)} {axis} interval [{format_rational(lo)}, {format_rational(hi)}] is reversed")
    return lo, hi


def scene_from_jsonable(data) -> Scene:
    """The scene a JSON object describes, or a ValueError naming the field at fault.

    Each box is checked whole before the next: its fields, then its t, x
    and y intervals, each end parsed before the interval's order is
    checked; the window comes last. So the first bad literal is the one
    named. A field name such as `box 17 t` is formatted only for a message.
    Within one call each distinct literal string is read once, by
    `_ratio`, and its integer ratio is kept for the order test.
    Ints, floats and bools are parsed every time, since `1`, `1.0` and
    `True` hash alike and would otherwise share an outcome and a message.
    """
    if not isinstance(data, dict) or "window" not in data:
        raise ValueError("scene JSON must be an object with a 'window' field")
    parsed = _Literals()
    boxes = []
    for i, b in enumerate(_list(data.get("boxes", []), "boxes")):
        if type(b) is not dict or not b.keys() >= _BOX_FIELDS:
            _fields(b, "txy", _part(i), "scene")  # raises, unless b is a dict subclass with every field
        boxes.append(
            Box(_interval(b["t"], "t", i, parsed), _interval(b["x"], "x", i, parsed), _interval(b["y"], "y", i, parsed))
        )
    x, y = _fields(data["window"], "xy", "window", "scene")
    return Scene(_interval(x, "x", None, parsed), _interval(y, "y", None, parsed), tuple(boxes))


def path_from_jsonable(data) -> EvasionPath:
    """A path file as `cli.path_to_jsonable` writes it. A malformed file is a
    ValueError naming the segment and the field at fault; a bad literal
    keeps `parse_rational`'s message."""
    (segments,) = _fields(data, ("segments",), "the path", "path")
    segs = []
    for n, seg in enumerate(_list(segments, "malformed path JSON: segments")):
        t, point = _fields(seg, ("t", "point"), f"segment {n}", "path")
        for name, pair in (("t", t), ("point", point)):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"malformed path JSON: segment {n} {name} must be a two-element list, got {pair!r}")
        lo, hi = t
        segs.append(
            PathSegment(
                None if lo is None else parse_rational(lo),
                None if hi is None else parse_rational(hi),
                (parse_rational(point[0]), parse_rational(point[1])),
            )
        )
    chain = data.get("chain", {})
    if not isinstance(chain, dict):
        raise ValueError(f"malformed path JSON: chain must be an object, got {chain!r}")
    return EvasionPath(tuple(segs), tuple(chain.items()))
