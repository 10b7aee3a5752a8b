r"""Closure of a generating set of transformations, kernel, Rees decomposition.

The closure is one ``(|S|, n)`` unsigned array of image rows f(1), ...,
f(n); ``[0, g(1), ..., g(n)][row_f]`` is the row of g * f. Rows are
generated breadth-first by word length, each layer sorted; this canonical
order fixes every deterministic choice downstream, such as the base
idempotent. No other module reads rows: ``element``, ``literals`` and
``left_products`` read them for the others, and only the kernel is made
into ``Transformation`` objects. ``rees_at`` sees only the kernel and keeps
its rows as ``str`` of code points, where ``row_f.translate("\0" + row_g)``
is the row of g * f. It composes every product it needs once into tables
of positions: after it, a group element is a position in ``ReesData.G``
and products are table lookups.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError, ResourceLimitError, StructuralInconsistencyError
from .transform import Transformation

DEFAULT_ELEMENT_CAP = 10**6


def _row(f: Transformation) -> str:
    return "".join(map(chr, f.images))


def _tables(maps, n: int) -> np.ndarray:
    """``tables[i, x]`` is maps[i](x) for x in 1..n, so ``tables[i, rows]``
    holds the rows of maps[i] * s for the rows s."""
    tables = np.zeros((len(maps), n + 1), dtype=np.min_scalar_type(n))
    tables[:, 1:] = [f.images for f in maps]
    return tables


def _keys(rows: np.ndarray, key: np.dtype) -> list:
    """One ``bytes`` key per row: its images, viewed as the ``np.void`` dtype
    ``key`` of one row's size. Keys of big-endian rows sort as the rows."""
    return np.ascontiguousarray(rows).view(key).ravel().tolist()


def element(row: np.ndarray) -> Transformation:
    """The transformation with the given image row."""
    return Transformation._unchecked(tuple(row.tolist()))


def literals(rows: np.ndarray) -> list:
    """``Transformation.literal()`` of every row, e.g. ``[2,3,4,1,5]``."""
    m, n = rows.shape
    tokens = np.array([f",{y}" for y in range(n + 1)], dtype=f"S{len(str(n)) + 1}")
    text = np.hstack([tokens.take(rows), np.full((m, 1), b"]\n", dtype=tokens.dtype)])
    text = "\n" + text.tobytes().translate(None, b"\0").decode()
    return text.replace("\n,", "\n[").split()  # a row's first comma opens it


def left_products(rows: np.ndarray, factors) -> np.ndarray:
    """Position in ``rows`` of f * s for every factor f and row s, f-major."""
    key = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    at = dict(zip(_keys(rows, key), range(len(rows))))
    products = _keys(_tables(factors, rows.shape[1]).take(rows, axis=1), key)
    return np.fromiter(map(at.__getitem__, products), np.intp, len(products))


def generate(generators, *, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
    """Image rows of the smallest composition-closed superset of the
    generators, as one ``(|S|, n)`` unsigned array.

    The order is canonical: by shortest word length, each layer sorted, so
    the sorted generators come first. Raises ResourceLimitError if the
    closure exceeds ``cap`` elements.
    """
    gens = sorted(set(generators))
    if not gens:
        raise InputError("need at least one generator")
    if len({g.n for g in gens}) != 1:
        raise InputError("generators must share one domain size")
    n = gens[0].n
    if n > sys.maxunicode:
        raise InputError(f"n = {n} is above the largest domain, {sys.maxunicode}")

    big = np.dtype(np.min_scalar_type(n)).newbyteorder(">")
    key = np.dtype((np.void, big.itemsize * n))
    tables = _tables(gens, n).astype(big)
    layers = [tables[:, 1:]]
    seen = set(_keys(layers[0], key))
    while len(layers[-1]):
        if len(seen) > cap:
            raise ResourceLimitError(f"closure exceeded the element cap ({cap}); "
                                     "raise the cap to analyze this law")
        fresh = sorted(set(_keys(tables.take(layers[-1], axis=1), key)) - seen)
        seen.update(fresh)
        layers.append(np.frombuffer(b"".join(fresh), big).reshape(-1, n))
    return np.concatenate(layers).astype(big.newbyteorder("="))


def kernel(rows: np.ndarray) -> tuple:
    """The elements of minimal rank of the closure ``rows``, in canonical
    order: its kernel, the unique minimal two-sided ideal. ``rees_at``
    verifies the ideal property as it composes the generators with them.
    """
    ranked = np.sort(rows, axis=1)
    ranks = 1 + np.count_nonzero(ranked[:, 1:] != ranked[:, :-1], axis=1)
    return tuple(map(element, rows[ranks == ranks.min()]))


@dataclass(frozen=True)
class ReesData:
    """Product decomposition kernel = L * G * R at a base idempotent e, with
    G split into the cosets gamma^j H, j < p, of the period p.

    L, G and R hold the transformations; everything else holds positions.
    A group element is a position in ``G``: ``H`` lists the subgroup,
    ``C[j]`` is gamma^j (so gamma is ``C[1 % p]`` and the unit ``C[0]``),
    ``coset_of[g]`` is the j with G[g] in gamma^j H and ``inverse[g]`` the
    inverse of G[g].

    The Rees coordinates index L, G and R by position. Kernel position
    ``at[l][g][r]`` holds L[l] * G[g] * R[r] and ``coords`` is its inverse;
    ``gmul[a][b]`` is the position of G[a] * G[b] and ``sandwich[r][l]`` that
    of R[r] * L[l]. ``left[i][z]`` and ``right[i][z]`` are the kernel
    positions of generators[i] * kernel[z] and kernel[z] * generators[i].
    """

    e: Transformation
    kernel: tuple
    L: tuple
    G: tuple
    R: tuple
    inverse: tuple
    H: tuple
    C: tuple
    p: int
    coset_of: tuple
    generators: tuple
    coords: tuple
    at: tuple
    gmul: tuple
    sandwich: tuple
    left: tuple
    right: tuple

    def product(self, a: int, b: int) -> int:
        """Kernel position of kernel[a] * kernel[b], by the Rees-matrix
        product (l, g, r)(l', g', r') = (l, g * (r l') * g', r')."""
        l, g, r = self.coords[a]
        l2, g2, r2 = self.coords[b]
        return self.at[l][self.gmul[self.gmul[g][self.sandwich[r][l2]]][g2]][r2]


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

    Every product is composed once, on image rows, into the Rees
    coordinate tables; the checks and the walks read the tables, on kernel
    and group positions.
    """
    rows = [_row(z) for z in ker]
    row_at = {row: i for i, row in enumerate(rows)}
    unit = _row(e)
    if unit not in row_at:
        raise InputError(f"{e.literal()} is not in the kernel")
    if not e.is_idempotent():
        raise InputError(f"{e.literal()} is not idempotent")

    gens = [_row(f) for f in generators]
    left = [[row_at.get(z.translate("\0" + f)) for z in rows] for f in gens]
    right = [[row_at.get(f.translate("\0" + z)) for z in rows] for f in gens]
    if any(None in table for table in left + right):
        raise StructuralInconsistencyError(
            "minimal-rank set is not an ideal; rank criterion violated")
    on_e = "\0" + unit
    Ke = sorted({unit.translate("\0" + z) for z in rows})
    eK = sorted({z.translate(on_e) for z in rows})
    L = [x for x in Ke if x.translate("\0" + x) == x]
    G = sorted({x.translate(on_e) for x in Ke})
    R = [x for x in eK if x.translate("\0" + x) == x]

    g_at = {g: i for i, g in enumerate(G)}
    gmul = [[g_at.get(b.translate(t)) for b in G] for t in ["\0" + a for a in G]]
    if any(None in row for row in gmul):
        raise StructuralInconsistencyError("group factor is not closed")
    one = g_at[unit]
    if any(gmul[a][one] != a or gmul[one][a] != a for a in range(len(G))):
        raise StructuralInconsistencyError("unit law fails in the group factor")
    inverse = [row.index(one) if one in row else None for row in gmul]
    if any(b is None or gmul[b][a] != one for a, b in enumerate(inverse)):
        raise StructuralInconsistencyError("inverse law fails in the group factor")

    sandwich = [[g_at.get(l.translate(table)) for l in L] for table in ["\0" + r for r in R]]
    if any(None in row for row in sandwich):
        raise StructuralInconsistencyError("R * L is not inside G")
    if sandwich[R.index(unit)] != [one] * len(L) or any(row[L.index(unit)] != one
                                                        for row in sandwich):
        raise StructuralInconsistencyError("eL = Re = {e} fails")

    at = [[[row_at.get(r.translate(lg)) for r in R]
           for lg in ["\0" + g.translate("\0" + l) for g in G]] for l in L]
    coords = {z: (l, g, r) for l, block in enumerate(at)
              for g, line in enumerate(block) for r, z in enumerate(line)}
    if None in coords:
        raise StructuralInconsistencyError("L * G * R is not inside the kernel")
    if len(coords) != len(L) * len(G) * len(R):
        raise StructuralInconsistencyError("L x G x R product not injective")
    if len(coords) != len(ker):
        raise StructuralInconsistencyError("L * G * R does not cover the kernel")

    # the walks run on kernel positions and step on the generator tables
    start = row_at[unit]
    p, classes = chain_period_and_classes([row_at[x] for x in Ke], left, start)
    # irreducible walks have unique stationary laws (limits.*_stationary)
    walk_distances([row_at[x] for x in eK], right, start, "right walk on eK")

    def g_part(zs) -> list:
        # e z e = G[g] for z = L[l] G[g] R[r], as eL = Re = {e}
        return sorted({coords[z][1] for z in zs})

    H = g_part(classes[0])
    if len(H) * p != len(G):
        raise StructuralInconsistencyError("|H| * p != |G|")
    hset = set(H)
    if one not in hset:
        raise StructuralInconsistencyError("H does not contain the unit")
    if any(gmul[a][b] not in hset for a in H for b in H):
        raise StructuralInconsistencyError("H is not closed under products")
    if any(inverse[h] not in hset for h in H):
        raise StructuralInconsistencyError("H is not closed under inverses")
    if any(gmul[gmul[inverse[g]][h]][g] not in hset for h in H for g in range(len(G))):
        raise StructuralInconsistencyError("H is not normal in G")

    gamma = one
    if p > 1:
        coset = g_part(classes[1])
        if len(coset) != len(H):
            raise StructuralInconsistencyError("successor coset has wrong size")
        for gamma in coset:
            power = gamma
            for _ in range(p - 1):
                power = gmul[power][gamma]
            if power == one:
                break
        else:
            raise StructuralInconsistencyError("no order-p representative in the coset")
    C = [one]
    while len(C) < p:
        C.append(gmul[C[-1]][gamma])
    if gmul[C[-1]][gamma] != one:
        raise StructuralInconsistencyError("gamma^p != e")
    coset_of = {}
    for j, c in enumerate(C):
        for h in H:
            if coset_of.setdefault(gmul[c][h], j) != j:
                raise StructuralInconsistencyError("cosets of H are not disjoint")
    if len(coset_of) != len(G):
        raise StructuralInconsistencyError("cosets of H do not cover G")

    return ReesData(
        e=e, kernel=ker, L=tuple(ker[row_at[x]] for x in L),
        G=tuple(ker[row_at[g]] for g in G), R=tuple(ker[row_at[x]] for x in R),
        inverse=tuple(inverse), H=tuple(H), C=tuple(C), p=p,
        coset_of=tuple(coset_of[g] for g in range(len(G))),
        generators=tuple(generators), coords=tuple(coords[z] for z in range(len(ker))),
        at=tuple(tuple(map(tuple, block)) for block in at),
        gmul=tuple(map(tuple, gmul)), sandwich=tuple(map(tuple, sandwich)),
        left=tuple(map(tuple, left)), right=tuple(map(tuple, right)))


def walk_distances(states, steps, start: int, walk: str) -> dict:
    """BFS distances from ``start`` in the walk on the kernel positions
    ``states`` whose successors of z are ``t[z]`` for every table t in
    ``steps``. Raises, naming ``walk``, unless the walk is strongly
    connected: every state is reached from ``start`` along the edges and
    along the reversed edges.
    """
    def bfs(successors) -> dict:
        dist = {start: 0}
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v in successors.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        return dist

    forward = {u: [t[u] for t in steps] for u in states}
    backward = {}
    for u in states:
        for v in forward[u]:
            backward.setdefault(v, []).append(u)
    state_set = set(states)
    dist = bfs(forward)
    if set(dist) != state_set:
        raise StructuralInconsistencyError(f"{walk} is not irreducible (forward)")
    if set(bfs(backward)) != state_set:
        raise StructuralInconsistencyError(f"{walk} is not irreducible (backward)")
    return dist


def chain_period_and_classes(states, steps, start: int) -> tuple:
    """Period and cyclic classes of the left walk on Ke (strongly connected),
    on kernel positions with successors read from the tables ``steps``.

    Returns (p, classes) where classes[j] holds the states at BFS distance
    = j mod p from ``start``. Raises if the walk is not strongly connected.
    """
    dist = walk_distances(states, steps, start, "left walk on Ke")
    p = 0
    for u in states:
        for t in steps:
            p = gcd(p, dist[u] + 1 - dist[t[u]])
    if p <= 0:
        raise StructuralInconsistencyError("could not determine a positive period")

    classes = [[] for _ in range(p)]
    for s in sorted(states):
        classes[dist[s] % p].append(s)
    if len({len(c) for c in classes}) != 1:
        raise StructuralInconsistencyError("cyclic classes have unequal sizes")
    return p, classes
