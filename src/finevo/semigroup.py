r"""Closure of a generating set of transformations, kernel, Rees decomposition.

The closure of the law's generator rows ``MappingLaw.rows``, built once at
parse, is one ``(|S|, n)`` unsigned array of image rows f(1), ..., f(n);
``[0, g(1), ..., g(n)][row_f]`` is the row of g * f. Rows are generated
breadth-first by word length, each layer sorted; this canonical order fixes
every deterministic choice downstream, such as the base idempotent. The rows
seen so far are kept by one of three structures, chosen by n alone: flags in
a dense table of all n ** n maps when n <= 8 (16 MiB at most), sorted runs of
int64 codes for 9 <= n <= 15, and byte keys in a set from n = 16, where the
codes overflow int64; closures deep in thin layers need many points and so
always take the set. A row's code is its images minus 1 read as base-n
digits, summed in int64 by one ``einsum`` of the uint8 rows. Both code
structures take a layer's distinct codes by one unstable argsort: equal codes
are equal rows, so which duplicate is kept does not matter. The kernel stays
rows: ``kernel`` finds their closure positions by rank, a popcount of image
flags set one column at a time, and ``rees_at`` composes every product it
needs once, on those rows, into tables of positions, each product found by
``positions_in``, the one lookup of rows by their byte keys. ``ReesData``
holds the rows of the kernel, of L, G and R and of the generators, and
positions for everything else: a group element is a position in
``ReesData.G`` and products are table lookups. ``literals`` prints rows from
one byte buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd

import numpy as np

from .errors import InputError, ResourceLimitError, StructuralInconsistencyError

DEFAULT_ELEMENT_CAP = 10**6
# Array passes whose size is a product of two sizes (a group's product table,
# the float pass's blocks of powers and its Cesaro tail, a batch's
# replications x uniforms) work in blocks of about this many entries.
BLOCK = 1 << 16
# ``generate`` keeps one flag per map for domains of at most this many points,
# n ** n bytes: 16 MiB at n = 8.
DENSE_MAX_N = 8
# ... and sorted runs of int64 codes for domains of at most this many points:
# a code is below n ** n, which is below 2 ** 63 up to n = 15.
CODE_MAX_N = 15


def _tables(rows: np.ndarray) -> np.ndarray:
    """``tables[i, x]`` is rows[i]'s image of x for x in 1..n, so
    ``tables.take(s, axis=1)[i]`` holds the rows of f_i * s for the rows s."""
    tables = np.zeros((len(rows), rows.shape[1] + 1), rows.dtype)
    tables[:, 1:] = rows
    return tables


def _keys(rows: np.ndarray, key: np.dtype) -> list:
    """One ``bytes`` key per row: its images, viewed as the ``np.void`` dtype
    ``key`` of one row's size. Keys of big-endian rows sort as the rows."""
    return np.ascontiguousarray(rows).view(key).ravel().tolist()


def literals(rows: np.ndarray) -> list:
    """``Transformation.literal()`` of every row, e.g. ``[2,3,4,1,5]``: one
    byte buffer holds each row's ``,y`` tokens, NUL-padded to the width of
    ``,n``, then ``]`` and a newline, and is decoded and split once. Only
    from n = 10, where one-digit tokens are padded, are the NULs dropped."""
    m, n = rows.shape
    tokens = np.array([f",{y}" for y in range(n + 1)], dtype=f"S{len(str(n)) + 1}")
    text = np.empty((m, n + 1), tokens.dtype)
    text[:, :-1] = tokens.take(rows)
    text[:, -1] = b"]\n"
    text = text.view(np.uint8)
    text[:, 0] = ord("[")  # a row's first comma opens it
    if n > 9:
        return text.tobytes().translate(None, b"\0").decode().splitlines()
    return text.tobytes().decode().splitlines()


def left_products(rows: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Position in ``rows`` of f * s for every factor row f and row s, f-major."""
    return positions_in(rows)(_tables(factors).take(rows, axis=1)).ravel()


def generate(rows: np.ndarray, *, cap: int = DEFAULT_ELEMENT_CAP) -> np.ndarray:
    """Image rows of the smallest composition-closed superset of the
    generator rows ``rows``, as one ``(|S|, n)`` unsigned array.

    The order is canonical: by shortest word length, each layer sorted, so
    the distinct generators come first, sorted, as the first layer passes
    through the same dedupe as every other. Each layer is the generators
    times the last layer, less the rows seen before: for n <= DENSE_MAX_N
    the seen rows are flags in a table of all n ** n maps (``_flag_table``),
    for n <= CODE_MAX_N sorted runs of int64 codes (``_code_runs``),
    otherwise byte keys in a set (``_key_set``). The choice reads n alone.
    Raises ResourceLimitError if the closure exceeds ``cap`` elements.
    """
    n = rows.shape[1]
    big = np.dtype(np.min_scalar_type(n)).newbyteorder(">")
    if n <= DENSE_MAX_N:
        fresh = _flag_table(n)
    elif n <= CODE_MAX_N:
        fresh = _code_runs(n)
    else:
        fresh = _key_set(n, big)
    layers = [fresh(rows.astype(big, copy=False))]
    tables = _tables(layers[0])
    size = len(layers[0])
    while len(layers[-1]):
        if size > cap:
            raise ResourceLimitError(f"closure exceeded the element cap ({cap}); "
                                     "raise the cap to analyze this law")
        layers.append(fresh(tables.take(layers[-1], axis=1).reshape(-1, n)))
        size += len(layers[-1])
    return np.concatenate(layers).astype(big.newbyteorder("="), copy=False)


def _coder(n: int):
    """A row's code on n points: its images minus 1 as base-n digits, point 1
    most significant (so codes sort as the rows), by one int64 ``einsum``."""
    radix = n ** np.arange(n - 1, -1, -1)
    ones = int(radix.sum())
    return lambda rows: np.einsum("ij,j->i", rows, radix, dtype=np.int64) - ones


def _distinct(codes: np.ndarray) -> tuple:
    """The distinct codes, sorted, and the position of one of each in
    ``codes``: one unstable argsort, then a mask of adjacent unequal codes."""
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes), bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first], order[first]


def _flag_table(n: int):
    """``generate``'s step on n points: the rows not seen before, deduplicated
    and sorted, marked seen by one flag per map at the row's code."""
    code = _coder(n)
    seen = np.zeros(n ** n, bool)

    def fresh(rows: np.ndarray) -> np.ndarray:
        codes = code(rows)
        new = np.flatnonzero(~seen[codes])
        codes, first = _distinct(codes[new])
        seen[codes] = True
        return rows[new[first]]
    return fresh


def _code_runs(n: int):
    """``generate``'s step on n points: the rows not seen before, deduplicated
    and sorted, their codes kept as one more sorted run of the seen codes.
    The last two runs merge while the older is at most twice as long as the
    newer, so there are O(log |S|) runs and O(|S| log |S|) merge work."""
    code = _coder(n)
    runs = []

    def fresh(rows: np.ndarray) -> np.ndarray:
        codes, first = _distinct(code(rows))
        new = np.ones(len(codes), bool)
        for run in runs:
            new &= run.take(run.searchsorted(codes), mode="clip") != codes
        codes, first = codes[new], first[new]
        runs.append(codes)
        while len(runs) > 1 and len(runs[-2]) <= 2 * len(runs[-1]):
            runs[-2:] = [np.sort(np.concatenate(runs[-2:]))]
        return rows[first]
    return fresh


def _key_set(n: int, big: np.dtype):
    """``generate``'s step on n points: the rows not seen before, deduplicated
    and sorted, marked seen in a set of the byte keys of the rows, whose
    dtype ``big`` is big-endian."""
    key = np.dtype((np.void, big.itemsize * n))
    seen = set()

    def fresh(rows: np.ndarray) -> np.ndarray:
        keys = sorted(set(_keys(rows, key)) - seen)
        seen.update(keys)
        return np.frombuffer(b"".join(keys), big).reshape(-1, n)
    return fresh


def kernel(rows: np.ndarray) -> np.ndarray:
    """The positions of the rows of minimal rank in the closure ``rows``, in
    canonical order: its kernel, the unique minimal two-sided ideal
    (``rees_at`` verifies the ideal property). A row's rank is the popcount
    of its image flags, set one column at a time in a table of whole uint64
    words: no sort and no int64 copy of the rows.
    """
    m, n = rows.shape
    flags = np.zeros((m, n // 8 * 8 + 8), bool)
    flat, at = flags.ravel(), np.arange(0, flags.size, flags.shape[1])
    for col in rows.T:
        flat[at + col] = True
    ranks = np.bitwise_count(flags.view(np.uint64)).sum(axis=1)
    return np.flatnonzero(ranks == ranks.min())


def idempotents(rows: np.ndarray) -> np.ndarray:
    """Positions of the idempotent rows, those with f(f(x)) = f(x)."""
    return np.flatnonzero((_tables(rows)[np.arange(len(rows))[:, None], rows] == rows).all(axis=1))


# The analysis sorts with Python's sort, not numpy's: the first numpy sort
# of a dtype pages in its sort kernels, 130-440 KiB of resident memory that
# the simulation battery's peak would then carry.

def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, sorted."""
    return np.array(sorted(set(values.ravel().tolist())), np.intp)


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array, sorted as tuples."""
    return np.array(sorted(set(map(tuple, rows.tolist()))), rows.dtype).reshape(-1, rows.shape[1])


def positions_in(rows: np.ndarray):
    """A lookup of rows in ``rows``: it maps an array whose last axis holds
    rows of that width to their positions in ``rows``, -1 where absent."""
    width = rows.shape[1]
    key = np.dtype((np.void, rows.itemsize * width))
    at = dict(zip(_keys(rows, key), range(len(rows))))

    def lookup(products: np.ndarray) -> np.ndarray:
        keys = _keys(products.reshape(-1, width).astype(rows.dtype, copy=False), key)
        found = np.fromiter(map(at.get, keys, repeat(-1)), np.intp, len(keys))
        return found.reshape(products.shape[:-1])
    return lookup


@dataclass(frozen=True, eq=False)
class ReesData:
    """Product decomposition kernel = L * G * R at a base idempotent e, with
    G split into the cosets gamma^j H, j < p, of the period p.

    ``kernel``, ``L``, ``G``, ``R`` and ``generators`` hold image rows in
    the kernel's dtype, L, G and R sorted as tuples; everything else holds
    positions in integer arrays. ``e`` is a kernel position. A group
    element is a position in ``G``: ``H`` lists the subgroup, ``C[j]`` is
    gamma^j (so gamma is ``C[1 % p]`` and the unit ``C[0]``),
    ``coset_h[j, h]`` is gamma^j H[h], ``coset_of[g]`` is the j with G[g]
    in gamma^j H and ``inverse[g]`` the inverse of G[g].

    The Rees coordinates index L, G and R by position. Kernel position
    ``at[l, g, r]`` holds L[l] * G[g] * R[r] and ``coords`` is its inverse,
    so ``coords[e]`` is (l_e, unit, r_e); ``gmul[a, b]`` is the position of
    G[a] * G[b] and ``sandwich[r, l]`` that of R[r] * L[l]. ``left[i, z]``
    and ``right[i, z]`` are the kernel positions of generators[i] *
    kernel[z] and kernel[z] * generators[i].
    """

    e: int
    kernel: np.ndarray
    L: np.ndarray
    G: np.ndarray
    R: np.ndarray
    inverse: np.ndarray
    H: np.ndarray
    C: np.ndarray
    p: int
    coset_h: np.ndarray
    coset_of: np.ndarray
    generators: np.ndarray
    coords: np.ndarray
    at: np.ndarray
    gmul: np.ndarray
    sandwich: np.ndarray
    left: np.ndarray
    right: np.ndarray


def rees_at(gens: np.ndarray, ker: np.ndarray, e: int) -> ReesData:
    """Decompose the kernel rows ``ker`` at the idempotent ker[e]:
    L = E(Ke), G = eKe, R = E(eK).

    Verifies that e is idempotent, that the kernel is an ideal, that G is
    closed with right inverses, that R * L lies in G and L * G * R in the
    kernel, covering it, and that the walks z -> f z on Ke and z -> z f on
    eK under the generator rows ``gens`` (the support of any law on them)
    are irreducible. The left walk's period p and BFS distances from e give
    the phase map phi: G -> Z_p, phi(g) the distance mod p of the Ke state
    G[g] = e G[g] e, kept as ``coset_of``. It verifies that every Ke state's
    class is phi of its G-part. H = phi^-1(0), and gamma is the least
    element of phi^-1(1 mod p) with gamma^p = e, or the check fails.

    Every product is composed once, on image rows, and looked up by
    ``positions_in`` into the Rees coordinate tables; the checks and the
    walks read the tables, on kernel and group positions. The other facts
    follow from the checks, so are not redone. G = e(Ke) and e e = e, so e
    is G's unit, and right inverses are two-sided: a b = b c = e gives
    a = a b c = c. For l = z e in L, x = e l lies in G and
    x x = e (l e) l = x, so x = (x x) x^-1 = e: eL = {e}, and Re = {e}
    likewise. So if l g r = l' g' r', composing with e on the right and on
    the left gives l g = l' g' and g r = g' r', whence g = e l g = g',
    l = l g g^-1 = l' and r = r': L x G x R -> kernel is a bijection, and as
    e = e e e with e in L and R, ``coords[e]`` is (e's place in L, unit, e's
    place in R). Each walk edge adds 1 to the class. For z = l g in Ke,
    f z = l' (k g) where f l = l' k, k in G, so the class check gives
    phi(k g) = phi(g) + 1, and phi(k) = 1 as phi(e) = 0. The walk from e
    reaches every g, a product of such k, so phi is a homomorphism and
    H = ker phi is normal; at p = 1, phi = 0 and H = G. phi(gamma) = 1 makes
    phi onto Z_p, so its fibres phi^-1(j) = gamma^j H are p disjoint cosets
    of size |H| covering G, and the class j of Ke is L x phi^-1(j): all
    classes have size |L||H|.
    """
    n = ker.shape[1]
    unit = ker[e]
    if not idempotents(ker[[e]]).size:
        raise InputError(f"{literals(ker[[e]])[0]} is not idempotent")

    row_at = positions_in(ker)
    left = row_at(_tables(gens).take(ker, axis=1))
    right = row_at(_tables(ker).take(gens, axis=1)).T
    ke = distinct(row_at(_tables(ker).take(unit, axis=1)))  # z * e
    ek = distinct(row_at(unit[ker - 1]))  # e * z
    if min(left.min(), right.min(), ke[0], ek[0]) < 0:
        raise StructuralInconsistencyError(
            "minimal-rank set is not an ideal; rank criterion violated")
    L = distinct_rows(ker[ke[idempotents(ker[ke])]])
    G = distinct_rows(unit[ker[ke] - 1])
    R = distinct_rows(ker[ek[idempotents(ker[ek])]])

    g_at = positions_in(G)
    step = max(1, BLOCK // (len(G) * n))
    gmul = np.concatenate([g_at(_tables(G[a:a + step]).take(G, axis=1))
                           for a in range(0, len(G), step)])
    if gmul.min() < 0:
        raise StructuralInconsistencyError("group factor is not closed")
    one = int(g_at(unit))
    inverse = (gmul == one).argmax(axis=1)
    if (gmul[np.arange(len(G)), inverse] != one).any():
        raise StructuralInconsistencyError("inverse law fails in the group factor")

    sandwich = g_at(_tables(R).take(L, axis=1))
    if sandwich.min() < 0:
        raise StructuralInconsistencyError("R * L is not inside G")

    at = row_at(_tables(_tables(L).take(G, axis=1).reshape(-1, n)).take(R, axis=1))
    at = at.reshape(len(L), len(G), len(R))
    if at.min() < 0:
        raise StructuralInconsistencyError("L * G * R is not inside the kernel")
    if at.size != len(ker):
        raise StructuralInconsistencyError("L * G * R does not cover the kernel")
    coords = np.empty((len(ker), 3), np.intp)
    coords[at.ravel()] = np.indices(at.shape).reshape(3, -1).T

    # the walks run on kernel positions and step on the generator tables
    p, dist = chain_period(ke.tolist(), left.tolist(), e)
    # irreducible walks have unique stationary laws (limits.*_stationary)
    walk_distances(ek.tolist(), right.tolist(), e, "right walk on eK")

    # the phase of G[g] is the class of the Ke state e G[g] e = at[l_e, g, r_e]
    phase = np.zeros(len(ker), np.intp)
    phase[list(dist)] = list(dist.values())
    phase %= p
    coset_of = phase[at[coords[e, 0], :, coords[e, 2]]]
    if (phase[ke] != coset_of[coords[ke, 1]]).any():
        raise StructuralInconsistencyError("a cyclic class of Ke is not a phase of G")
    coset = np.flatnonzero(coset_of == 1 % p)
    power = coset
    for _ in range(p - 1):
        power = gmul[power, coset]
    if not (power == one).any():
        raise StructuralInconsistencyError("no order-p representative in the coset")
    gamma = coset[(power == one).argmax()]
    H = np.flatnonzero(coset_of == 0)
    C = [one]
    while len(C) < p:
        C.append(gmul[C[-1], gamma])
    C = np.array(C, np.intp)

    return ReesData(e=e, kernel=ker, L=L, G=G, R=R, inverse=inverse, H=H, C=C, p=p,
                    coset_h=gmul[np.ix_(C, H)], coset_of=coset_of, generators=gens,
                    coords=coords, at=at, gmul=gmul, sandwich=sandwich, left=left, right=right)


def walk_distances(states, steps, start: int, walk: str) -> dict:
    """BFS distances from ``start`` in the walk on the kernel positions
    ``states`` whose successors of z are ``t[z]`` for every table t in
    ``steps``. Raises, naming ``walk``, unless the walk is strongly
    connected: every state is reached from ``start`` along the edges, read
    off the tables, and along the reversed edges, kept as predecessors.
    """
    def bfs(successors) -> dict:
        dist, queue = {start: 0}, [start]
        for u in queue:
            for v in successors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    dist = bfs(lambda u: [t[u] for t in steps])
    if set(dist) != set(states):
        raise StructuralInconsistencyError(f"{walk} is not irreducible (forward)")
    predecessors = {}
    for u in states:
        for t in steps:
            predecessors.setdefault(t[u], []).append(u)
    if set(bfs(lambda v: predecessors.get(v, ()))) != set(states):
        raise StructuralInconsistencyError(f"{walk} is not irreducible (backward)")
    return dist


def chain_period(states, steps, start: int) -> tuple:
    """Period and BFS distances of the left walk on Ke (strongly connected),
    on kernel positions with successors read from the tables ``steps``.

    Returns (p, dist), dist mapping each state to its distance from
    ``start``; its cyclic class is dist mod p. Raises if the walk is not
    strongly connected.
    p is positive: some edge u -> start adds the term dist[u] + 1 >= 1.
    """
    dist = walk_distances(states, steps, start, "left walk on Ke")
    return gcd(*(dist[u] + 1 - dist[t[u]] for u in states for t in steps)), dist
