"""Total transformations of a finite set {1..n} and their action on tuples.

Conventions: points are 1-based everywhere in the public interface, and the
product ``f * g`` means "apply g first, then f", so ``(f * g)(x) == f(g(x))``.
Point tuples are plain Python tuples of ints.
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

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other):
        """Composition, apply ``other`` first: (f*g)(x) = f(g(x))."""
        if not isinstance(other, Transformation):
            return NotImplemented
        fi = self.images
        if len(fi) != len(other.images):
            raise InputError("mismatched domain sizes in composition")
        return Transformation._unchecked(tuple(fi[y - 1] for y in other.images))

    def __pow__(self, k: int):
        if k < 1:
            raise InputError("power must be >= 1")
        acc = self
        for _ in range(k - 1):
            acc = acc * self
        return acc

    def apply(self, points: tuple) -> tuple:
        """Componentwise image of a point tuple."""
        fi = self.images
        return tuple(fi[x - 1] for x in points)

    def rank(self) -> int:
        """Number of distinct image values."""
        return len(set(self.images))

    def image_set(self) -> frozenset:
        return frozenset(self.images)

    def is_idempotent(self) -> bool:
        fi = self.images
        return all(fi[y - 1] == y for y in fi)

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
