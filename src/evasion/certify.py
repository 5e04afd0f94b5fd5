"""The path checker: an exact re-check of an evasion path against its scene's
boxes, with no ranks, fibres, sheaf or decision. It imports only the standard
library and `evasion.scene`, the two modules an EVASION verdict is trusted on."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import takewhile

from evasion.scene import Box, EvasionPath, Point, Scene

ZERO, ONE = Fraction(0), Fraction(1)


class PathVerificationError(RuntimeError):
    """A path touches coverage: the code that found it has a bug."""


def _segment_meets_box(p: Point, q: Point, box: Box) -> bool:
    """Does the closed segment from p to q meet the closed box?

    Exact Liang-Barsky clipping: the parameters s in [0, 1] of p + s(q - p)
    inside the box's slab on each axis form an interval; the segment meets
    the box iff the intersection of those intervals is nonempty.
    """
    lo, hi = ZERO, ONE
    for a, d, (blo, bhi) in ((p[0], q[0] - p[0], box.x), (p[1], q[1] - p[1], box.y)):
        if d == 0:
            if not blo <= a <= bhi:
                return False
            continue
        s0, s1 = (blo - a) / d, (bhi - a) / d
        if s0 > s1:
            s0, s1 = s1, s0
        lo, hi = max(lo, s0), min(hi, s1)
        if lo > hi:
            return False
    return True


def verify_evasion_path(scene: Scene, path: EvasionPath) -> None:
    """Exact re-check of a path against the raw scene.

    Every held point must lie strictly inside the window and outside every
    box whose closed time interval meets the segment's closed time span,
    unbounded sides included. Every instantaneous move must keep its whole
    straight segment out of every box alive at its time (its ends are held
    points, so the convex window holds it). Raises PathVerificationError on
    any contact (which would be a bug), naming for a held point the first
    such box in scene order.

    With hops the segments' shared times, sorted up to the first reversed
    segment (refused before it is probed), a box alive on [t0, t1] meets
    segments lo..hi and jumps lo..hi-1, lo = bisect_left(hops, t0) and hi =
    bisect_right(hops, t1). One pass over the boxes takes the distinct
    (lo, hi, rectangle index) stabs (`Scene.rectangles`) in order of lo and
    lists each rectangle once on each segment and jump it meets, from past
    the last segment listed for it; each held point and jump is then tested
    against the rectangles listed on it alone. With B boxes and S segments
    that is O(B log S) comparisons, a sort of at most B integer triples and
    one test per listed pair. The checks use the boxes' exact coordinates
    and no ranks, fibres or sheaf."""
    segs = path.segments
    if not segs or segs[0].start is not None or segs[-1].end is not None:
        raise PathVerificationError("path must cover the whole timeline")
    for a, b in zip(segs, segs[1:]):
        if a.end is None or b.start != a.end:
            raise PathVerificationError("consecutive segments must share their boundary time")
    (wxlo, wxhi), (wylo, wyhi) = scene.window_x, scene.window_y
    boxes = scene.boxes
    hops = [seg.end for seg in takewhile(lambda seg: seg.start is None or seg.start <= seg.end, segs[:-1])]

    shapes, index = scene.rectangles
    stabs = {(bisect_left(hops, b.t[0]), bisect_right(hops, b.t[1]), r) for r, b in zip(index, boxes)}
    held: list[list[Box]] = [[] for _ in range(len(hops) + 1)]
    jumps: list[list[Box]] = [[] for _ in hops]
    reach = [-1] * len(shapes)  # the last segment listed per rectangle
    for lo, hi, r in sorted(stabs):
        last = reach[r]
        for i in range(max(lo, last + 1), hi + 1):
            held[i].append(shapes[r])
        for j in range(max(lo, last), hi):
            jumps[j].append(shapes[r])
        reach[r] = max(last, hi)
    # a reversed segment ends `held`, so the loop reaches it and refuses it
    for seg, shapes_on in zip(segs, held):
        start, end, p = seg.start, seg.end, seg.point
        if start is not None and end is not None and start > end:
            raise PathVerificationError("segment with reversed time interval")
        if not (wxlo < p[0] < wxhi and wylo < p[1] < wyhi):
            raise PathVerificationError(f"path point {p} is not strictly inside the window")
        for shape in shapes_on:
            if shape.contains(p):
                box = next(
                    b
                    for b in boxes
                    if b.contains(p) and (end is None or b.t[0] <= end) and (start is None or start <= b.t[1])
                )
                raise PathVerificationError(f"path point {p} is covered by a box alive on [{box.t[0]}, {box.t[1]}]")
    for a, b, shapes_on in zip(segs, segs[1:], jumps):
        for shape in shapes_on:
            if _segment_meets_box(a.point, b.point, shape):
                raise PathVerificationError(f"jump from {a.point} to {b.point} at t={a.end} is covered")
