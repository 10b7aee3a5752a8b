"""Exact rational probability measures on finite carriers: the parsed form
of input.

Measures are sparse: only the support is stored, every stored weight is a
positive ``Fraction`` and the weights sum to exactly 1. A ``RationalMeasure``
is only ever input: the law's ``MappingLaw.measure`` on transformations,
whose generator rows ``MappingLaw.rows`` and integer vector
``MappingLaw.weights`` are built once at parse and are what the analysis
takes, and a config's Lambda_W and family laws on point tuples, which
``CliqueData.w_vector`` turns into W vectors once. Every exact law computed
from them is an integer vector (nums, den): one object array of Python-int
numerators by position over one denominator, as ``_common`` builds it.
Kernel laws in ``finevo.limits`` are indexed by the Rees coordinate tables,
tuple laws in ``finevo.cliques`` by the positions of the stable tuples.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import InputError
from .transform import Transformation


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "2/3" or "0.25" and Fractions; floats and
    exponent literals like "1e-9", whose size has no bound, are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if re.search(r"[eE][-+]?\d", value):
            raise InputError(f"rational literal {value!r} is in exponent notation")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}") from exc
    raise InputError(f"expected an exact rational, got {type(value).__name__}")


def _common(weights: list) -> tuple:
    """The exact vector of Fractions: their numerators over their least
    common denominator, as an object array of Python ints."""
    den = lcm(*(w.denominator for w in weights))
    return np.array([w.numerator * (den // w.denominator) for w in weights], dtype=object), den


def _uniform(size: int) -> tuple:
    """The exact vector of the uniform law on ``size`` positions."""
    return np.full(size, 1, dtype=object), size


class RationalMeasure:
    """Finitely supported probability measure with exact rational weights."""

    __slots__ = ("_w",)
    __iter__ = None  # not a sequence: iter() would call __getitem__(0), (1), ... forever

    def __init__(self, weights):
        w = {}
        for x, v in dict(weights).items():
            v = as_fraction(v)
            if v < 0:
                raise InputError(f"negative weight {v} at {x!r}")
            if v > 0:
                w[x] = w.get(x, Fraction(0)) + v
        if not w:
            raise InputError("measure needs a nonempty support")
        if sum(w.values()) != 1:
            raise InputError(f"weights sum to {sum(w.values())}, expected 1")
        self._w = w

    def support(self) -> list:
        return sorted(self._w)

    def items(self):
        """Deterministically ordered (element, weight) pairs."""
        return [(x, self._w[x]) for x in sorted(self._w)]

    def __getitem__(self, x) -> Fraction:
        return self._w.get(x, Fraction(0))

    def __contains__(self, x) -> bool:
        return x in self._w

    def __eq__(self, other):
        return isinstance(other, RationalMeasure) and self._w == other._w

    def __repr__(self):
        parts = ", ".join(f"{x!r}: {v}" for x, v in self.items())
        return f"RationalMeasure({{{parts}}})"


class MappingLaw:
    """A rational probability on transformations of one finite set, built
    once into the integer form the analysis takes: ``rows`` holds the image
    rows of the ``generators``, sorted and distinct, as one ``(|gens|, n)``
    array in ``np.min_scalar_type(n)``, the closure's dtype, and ``weights``
    is its exact vector: the numerators of their weights in the same order
    over their least common denominator."""

    __slots__ = ("n", "measure", "rows", "weights")

    def __init__(self, n: int, measure: RationalMeasure):
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"n must be a positive integer, got {n!r}")
        for f in measure.support():
            if not isinstance(f, Transformation) or f.n != n:
                raise InputError("law support must be transformations of {1..%d}" % n)
        self.n = n
        self.measure = measure
        self.rows = np.array([f.images for f, _ in measure.items()], np.min_scalar_type(n))
        self.weights = _common([w for _, w in measure.items()])

    @classmethod
    def from_dict(cls, obj: dict) -> "MappingLaw":
        """Parse the law file format, whose only fields are these three:
        {"n": 5, "generators": [[2,3,4,1,5], [2,5,5,2,4]], "weights": ["1/2","1/2"]}
        """
        try:
            n = obj["n"]
            gens = obj["generators"]
            weights = obj["weights"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"law file missing field: {exc}") from exc
        unknown = set(obj) - {"n", "generators", "weights"}
        if unknown:
            raise InputError(f"unknown law fields: {sorted(unknown)}")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InputError(f"n must be a positive integer, got {n!r}")
        if not isinstance(gens, list) or not gens:
            raise InputError("generators must be a nonempty list")
        if not isinstance(weights, list) or len(weights) != len(gens):
            raise InputError("weights must match generators one to one")
        acc = {}
        for images, w in zip(gens, weights):
            if not isinstance(images, list):
                raise InputError(f"generator {images!r} must be a list of images")
            f = Transformation(images)
            if f.n != n:
                raise InputError(f"generator {f.literal()} has domain {f.n}, expected {n}")
            v = as_fraction(w)
            if v <= 0:
                raise InputError(f"weight {w!r} must be positive")
            acc[f] = acc.get(f, Fraction(0)) + v
        return cls(n, RationalMeasure(acc))

    def to_dict(self) -> dict:
        gens = self.measure.support()
        return {
            "n": self.n,
            "generators": [list(f.images) for f in gens],
            "weights": [str(self.measure[f]) for f in gens],
        }

    def __eq__(self, other):
        return (
            isinstance(other, MappingLaw)
            and self.n == other.n
            and self.measure == other.measure
        )

    def __repr__(self):
        return f"MappingLaw(n={self.n}, support={[f.literal() for f in self.measure.support()]})"
