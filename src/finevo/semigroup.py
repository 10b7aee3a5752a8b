r"""Closure of a generating set of transformations, kernel, Rees decomposition.

The closure is a tuple of image rows: the row of a map f on {1..n} is the
``str`` of code points f(1), ..., f(n). ``row_f.translate("\0" + row_g)`` is
the row of g * f, and ``str`` order is the lexicographic order of image
tables. Rows are generated breadth-first by word length, each layer sorted;
this canonical order fixes every deterministic choice downstream, such as
the base idempotent. No other module reads rows: ``element``, ``literals``
and ``left_products`` read them for the others, and only the kernel is
made into ``Transformation`` objects.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd

from .errors import InputError, ResourceLimitError, StructuralInconsistencyError
from .transform import Transformation

DEFAULT_ELEMENT_CAP = 10**6


def _row(f: Transformation) -> str:
    return "".join(map(chr, f.images))


def element(row: str) -> Transformation:
    """The transformation with the given image row."""
    return Transformation._unchecked(tuple(map(ord, row)))


def literals(rows) -> list:
    """``Transformation.literal()`` of every row, e.g. ``[2,3,4,1,5]``."""
    table = {y: f"{y}," for y in range(1, len(rows[0]) + 1)}
    return ["[" + row.translate(table)[:-1] + "]" for row in rows]


def left_products(rows, factors) -> list:
    """Position in ``rows`` of f * s for every factor f and row s, f-major."""
    index = {row: i for i, row in enumerate(rows)}
    return [index[s.translate(table)]
            for table in ["\0" + _row(f) for f in factors] for s in rows]


def generate(generators, *, cap: int = DEFAULT_ELEMENT_CAP) -> tuple:
    """Rows of the smallest composition-closed superset of the generators.

    The order is canonical: by shortest word length, each layer sorted, so
    the sorted generators come first. Raises ResourceLimitError if the
    closure exceeds ``cap`` elements.
    """
    gens = sorted(set(generators))
    if not gens:
        raise InputError("need at least one generator")
    if len({g.n for g in gens}) != 1:
        raise InputError("generators must share one domain size")
    if gens[0].n > sys.maxunicode:
        raise InputError(f"n = {gens[0].n} is above the largest domain, {sys.maxunicode}")

    tables = ["\0" + _row(g) for g in gens]
    rows = [_row(g) for g in gens]
    seen = set(rows)
    frontier = rows
    while frontier:
        if len(rows) > cap:
            raise ResourceLimitError(f"closure exceeded the element cap ({cap}); "
                                     "raise the cap to analyze this law")
        frontier = sorted({x.translate(t) for x in frontier for t in tables} - seen)
        seen.update(frontier)
        rows += frontier
    return tuple(rows)


def kernel(rows, generators) -> tuple:
    """The unique minimal two-sided ideal of the closure ``rows`` of the
    generators: its elements of minimal rank, in canonical order.

    The rank criterion is cheap; the ideal property is re-verified against
    the generators (which implies it for the whole semigroup).
    """
    ranks = [len(set(row)) for row in rows]
    m = min(ranks)
    ker = [row for row, rank in zip(rows, ranks) if rank == m]
    kset = set(ker)
    for g in map(_row, generators):
        table = "\0" + g
        for z in ker:
            if z.translate(table) not in kset or g.translate("\0" + z) not in kset:
                raise StructuralInconsistencyError(
                    "minimal-rank set is not an ideal; rank criterion violated"
                )
    return tuple(map(element, ker))


@dataclass(frozen=True)
class ReesData:
    """Product decomposition kernel = L * G * R at a base idempotent e, with
    G split into the cosets gamma^j H, j < p, of the period p.

    ``C[j]`` is gamma^j and ``coset_of[g]`` the j with g in gamma^j H.
    """

    e: Transformation
    kernel: tuple
    L: tuple
    G: tuple
    R: tuple
    inverse: dict
    H: tuple
    gamma: Transformation
    C: tuple
    p: int
    coset_of: dict

    @property
    def kernel_set(self) -> frozenset:
        return frozenset(self.kernel)

    def inv(self, g: Transformation) -> Transformation:
        return self.inverse[g]

    def gamma_power(self, k: int) -> Transformation:
        """gamma^k with any integer exponent, reduced mod p."""
        return self.C[k % self.p]

    def ch_split(self, g: Transformation) -> tuple:
        """Split g in G uniquely as (gamma^j, h) with h in H."""
        j = self.coset_of[g]
        h = self.inv(self.C[j]) * g
        return self.C[j], h


def _element_order(g: Transformation, e: Transformation, bound: int) -> int:
    power = g
    for k in range(1, bound + 1):
        if power == e:
            return k
        power = power * g
    raise StructuralInconsistencyError(
        f"{g.literal()} has no power equal to the unit within {bound} steps"
    )


def rees_at(generators, ker: tuple, e: Transformation) -> ReesData:
    """Decompose the kernel at an idempotent e: L = E(Ke), G = eKe, R = E(eK).

    Verifies the group axioms for G, eL = Re = {e}, and the bijectivity of
    the product map L x G x R -> kernel, and that the walks z -> f z on Ke
    and z -> z f on eK under the generators (the support of any law on
    them) are irreducible. The period p, the subgroup H and the coset
    generator gamma come from the left walk: the cyclic class of e has
    G-parts exactly H, the successor class has G-parts gamma H, and gamma
    is the canonically smallest element of that coset with gamma^p = e.
    Verifies that H is a normal subgroup whose p cosets partition G.
    """
    kset = set(ker)
    if e not in kset:
        raise InputError(f"{e.literal()} is not in the kernel")
    if not e.is_idempotent():
        raise InputError(f"{e.literal()} is not idempotent")

    Ke = sorted({z * e for z in ker})
    eK = sorted({e * z for z in ker})
    L = tuple(z for z in Ke if z.is_idempotent())
    G = tuple(sorted({e * z * e for z in ker}))
    R = tuple(z for z in eK if z.is_idempotent())

    gset = set(G)
    for a in G:
        if a * e != a or e * a != a:
            raise StructuralInconsistencyError("unit law fails in the group factor")
        for b in G:
            if a * b not in gset:
                raise StructuralInconsistencyError("group factor is not closed")
    inverse = {}
    for g in G:
        order = _element_order(g, e, len(G))
        inverse[g] = e if order == 1 else g ** (order - 1)
        if g * inverse[g] != e or inverse[g] * g != e:
            raise StructuralInconsistencyError("inverse law fails in the group factor")

    if any(e * l != e for l in L) or any(r * e != e for r in R):
        raise StructuralInconsistencyError("eL = Re = {e} fails")

    seen = {}
    for l in L:
        for g in G:
            lg = l * g
            for r in R:
                z = lg * r
                if z in seen:
                    raise StructuralInconsistencyError("L x G x R product not injective")
                seen[z] = (l, g, r)
    if set(seen) != kset:
        raise StructuralInconsistencyError("L * G * R does not cover the kernel")

    succ = {z: sorted({f * z for f in generators}) for z in Ke}
    p, classes = chain_period_and_classes(Ke, succ.__getitem__, e)
    # irreducible walks have unique stationary laws (limits.*_stationary)
    walk_distances(eK, lambda z: [z * f for f in generators], e, "right walk on eK")
    H = tuple(sorted({e * z * e for z in classes[0]}))
    if len(H) * p != len(G):
        raise StructuralInconsistencyError("|H| * p != |G|")
    hset = set(H)
    if e not in hset:
        raise StructuralInconsistencyError("H does not contain the unit")
    if any(a * b not in hset for a in H for b in H):
        raise StructuralInconsistencyError("H is not closed under products")
    if any(inverse[h] not in hset for h in H):
        raise StructuralInconsistencyError("H is not closed under inverses")
    if any(inverse[g] * h * g not in hset for h in H for g in G):
        raise StructuralInconsistencyError("H is not normal in G")

    gamma = e
    if p > 1:
        coset = sorted({e * z * e for z in classes[1]})
        if len(coset) != len(H):
            raise StructuralInconsistencyError("successor coset has wrong size")
        gamma = next((g for g in coset if g**p == e), None)
        if gamma is None:
            raise StructuralInconsistencyError("no order-p representative in the coset")
    C = [e]
    while len(C) < p:
        C.append(C[-1] * gamma)
    if C[-1] * gamma != e:
        raise StructuralInconsistencyError("gamma^p != e")
    coset_of = {}
    for j, c in enumerate(C):
        for h in H:
            if coset_of.setdefault(c * h, j) != j:
                raise StructuralInconsistencyError("cosets of H are not disjoint")
    if set(coset_of) != gset:
        raise StructuralInconsistencyError("cosets of H do not cover G")

    return ReesData(e=e, kernel=ker, L=L, G=G, R=R, inverse=inverse, H=H,
                    gamma=gamma, C=tuple(C), p=p, coset_of=coset_of)


def project(rd: ReesData, z: Transformation) -> tuple:
    """Coordinates (z_L, z_G, z_R) with z = z_L * z_G * z_R.

    Computed by the closed form z_G = eze, z_L = ze (eze)^-1,
    z_R = (eze)^-1 ez.
    """
    if z not in rd.kernel_set:
        raise InputError(f"{z.literal()} is not in the kernel")
    e = rd.e
    z_g = e * z * e
    inv = rd.inv(z_g)
    z_l = z * e * inv
    z_r = inv * e * z
    return z_l, z_g, z_r


def walk_distances(states, neighbors, start, walk: str) -> dict:
    """BFS distances from ``start`` in a directed graph on ``states``.

    ``neighbors`` maps a state to its successors. Raises, naming ``walk``,
    unless the graph is strongly connected: every state is reached from
    ``start`` along the edges and along the reversed edges.
    """
    def bfs(step) -> dict:
        dist = {start: 0}
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in step(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        return dist

    reverse = {}
    for u in states:
        for v in neighbors(u):
            reverse.setdefault(v, []).append(u)
    state_set = set(states)
    dist = bfs(neighbors)
    if set(dist) != state_set:
        raise StructuralInconsistencyError(f"{walk} is not irreducible (forward)")
    if set(bfs(lambda u: reverse.get(u, ()))) != state_set:
        raise StructuralInconsistencyError(f"{walk} is not irreducible (backward)")
    return dist


def chain_period_and_classes(states, neighbors, start) -> tuple:
    """Period and cyclic classes of the left walk on Ke (strongly connected).

    ``neighbors`` maps a state to its successors. Returns (p, classes) where
    classes[j] holds the states at BFS distance = j mod p from ``start``.
    Raises if the graph is not strongly connected.
    """
    dist = walk_distances(states, neighbors, start, "left walk on Ke")
    p = 0
    for u in states:
        for v in neighbors(u):
            p = gcd(p, dist[u] + 1 - dist[v])
    if p <= 0:
        raise StructuralInconsistencyError("could not determine a positive period")

    classes = [[] for _ in range(p)]
    for s in sorted(states):
        classes[dist[s] % p].append(s)
    if len({len(c) for c in classes}) != 1:
        raise StructuralInconsistencyError("cyclic classes have unequal sizes")
    return p, classes
