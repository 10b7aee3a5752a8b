"""Total transformations of a finite set {1..n}, and point-tuple literals.

A ``Transformation`` is the parsed form of a law's generators and the
public class: it validates its image table, composes, prints its literal
and orders by its images. The law's generators are turned into integer
image rows once at parse (``MappingLaw.rows``); the analysis takes those
rows (``finevo.semigroup``) and never these objects. Conventions: points are
1-based, and the product ``f * g`` means "apply g first, then f", so
``(f * g).images[x - 1] == f.images[g.images[x - 1] - 1]``. Point tuples
are plain Python tuples of ints.
"""

from __future__ import annotations

from functools import total_ordering

from .errors import InputError


@total_ordering
class Transformation:
    """An immutable total map {1..n} -> {1..n} stored as an image table.

    ``images[i-1]`` is the image of point ``i``. Instances are hashable and
    totally ordered (lexicographically on the image table), so "pick the
    smallest" is well defined and deterministic.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise InputError("transformation needs a nonempty image table")
        for y in images:
            if not isinstance(y, int) or isinstance(y, bool) or not 1 <= y <= n:
                raise InputError(f"image entry {y!r} is not an integer in 1..{n}")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash(images))

    @classmethod
    def _unchecked(cls, images: tuple) -> "Transformation":
        t = object.__new__(cls)
        object.__setattr__(t, "images", images)
        object.__setattr__(t, "_hash", hash(images))
        return t

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other):
        """Composition, apply ``other`` first: (f*g)(x) = f(g(x))."""
        if not isinstance(other, Transformation):
            return NotImplemented
        fi = self.images
        if len(fi) != len(other.images):
            raise InputError("mismatched domain sizes in composition")
        return Transformation._unchecked(tuple(fi[y - 1] for y in other.images))

    def literal(self) -> str:
        return "[" + ",".join(str(y) for y in self.images) + "]"

    def __eq__(self, other):
        return isinstance(other, Transformation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Transformation({self.literal()})"


def tuple_literal(points: tuple) -> str:
    return "(" + ",".join(str(x) for x in points) + ")"


def tuple_from_literal(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise InputError(f"bad tuple literal {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise InputError("empty tuple literal")
    try:
        return tuple(int(part) for part in body.split(","))
    except ValueError as exc:
        raise InputError(f"bad tuple literal {text!r}") from exc
