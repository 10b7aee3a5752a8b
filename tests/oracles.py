"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's own algorithms: the closure oracles
are a pairwise-product fixpoint and a worklist of right products by
generators, both on raw image tuples, the minimal-ideal oracle
generates one two-sided ideal and certifies it minimal without ranks, the
deadlock, stability, kernel-image tuple, shortest-word and T_e oracles read
the definitions off image tuples of that closure or of a path's maps, the
stationary oracle is float power iteration, the full-chain stationary
oracle is an exact Fraction solve over every state of a kernel walk, the
Cesaro first-order oracle is an exact Fraction solve over the brute-force
closure, the naive float step convolves dicts keyed by transformation, and
the reference sampler draws every replication from its own
``np.random.Generator`` and follows it with ``Transformation`` arithmetic
(it also decodes a batch's rows through their tuples and maps alone).
A ``ReesData`` and the stable tuples of a ``CliqueData`` hold image rows
and positions; ``rees_objects`` and ``tuples`` decode them into
transformations and point tuples before any oracle composes them, and the
action of a transformation on points (``apply``, ``rank``, ``image_set``,
``is_idempotent``, ``power``) reads its image table here.
Measures on transformations are convolved as Fraction dicts keyed by
``Transformation`` products, tuple laws are pushed forward as Fraction
dicts keyed by the image tuples of raw image tables, Rees coordinates come from the closed-form
projection, kernel products from the Rees-matrix product one pair at a
time, group orders from repeated composition, and the float limit
and Cesaro loops keep their list-of-iterates form with an ``np.add.at``
step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import lcm
from types import SimpleNamespace

import numpy as np

from finevo.errors import InputError
from finevo.measure import RationalMeasure
from finevo.transform import Transformation


def element(row) -> Transformation:
    """The transformation with the image row ``row`` of a closure, whose
    images the closure has already checked."""
    return Transformation._unchecked(tuple(row.tolist()))


def float_law(closure, vec) -> dict:
    """The nonzero entries of a float vector by closure position, keyed by
    transformation."""
    return {element(closure[i]): float(vec[i]) for i in np.flatnonzero(vec)}


def measure_of(objects, vector) -> RationalMeasure:
    """The RationalMeasure of an exact vector: numerators by position in
    ``objects`` over one denominator."""
    nums, den = vector
    return RationalMeasure({x: Fraction(v, den) for x, v in zip(objects, nums) if v})


def vector_of(objects, weights) -> tuple:
    """The exact vector of a law on ``objects`` given as a RationalMeasure
    or a dict of rational weights: its weights by position in ``objects``
    over their least common denominator, as an object array of ints."""
    measure = RationalMeasure(dict(weights.items()))
    exact = [measure[x] for x in objects]
    if sum(exact) != 1:
        raise AssertionError("the law has mass outside the objects")
    den = lcm(*(v.denominator for v in exact))
    return np.array([v.numerator * (den // v.denominator) for v in exact], dtype=object), den


def apply(f, points: tuple) -> tuple:
    """Componentwise image of a point tuple under a transformation."""
    return tuple(f.images[x - 1] for x in points)


def rank(f) -> int:
    """Number of distinct image values of a transformation."""
    return len(set(f.images))


def image_set(f) -> frozenset:
    return frozenset(f.images)


def is_idempotent(f) -> bool:
    return all(f.images[y - 1] == y for y in f.images)


def power(f, k: int):
    """f^k for k >= 1, by repeated composition."""
    return reduce(lambda acc, _: acc * f, range(k - 1), f)


def rows_of(maps) -> np.ndarray:
    """The image rows of the transformations ``maps``, in their order, in
    the dtype of ``MappingLaw.rows``."""
    images = [f.images for f in maps]
    return np.array(images, np.min_scalar_type(len(images[0])))


def tuples(rows) -> tuple:
    """Integer rows as a tuple of point tuples."""
    return tuple(map(tuple, np.asarray(rows).tolist()))


def compose_images(f: tuple, g: tuple) -> tuple:
    """(f o g)(x) = f(g(x)) on 1-based image tuples."""
    return tuple(f[y - 1] for y in g)


def brute_force_closure(generators) -> set:
    """Fixpoint of pairwise products, no ordering or BFS involved."""
    elements = {tuple(g) for g in generators}
    while True:
        fresh = set()
        for a in elements:
            for b in elements:
                c = compose_images(a, b)
                if c not in elements:
                    fresh.add(c)
        if not fresh:
            return elements
        elements |= fresh


def word_closure(generators) -> set:
    """Every product of generators, as the fixpoint of s -> s o g under a
    last-in first-out worklist: no layers and no ordering. Linear in the
    closure size, for closures too large for ``brute_force_closure``."""
    gens = {tuple(g) for g in generators}
    elements = set(gens)
    todo = list(gens)
    while todo:
        s = todo.pop()
        for g in gens:
            c = compose_images(s, g)
            if c not in elements:
                elements.add(c)
                todo.append(c)
    return elements


def brute_force_minimal_ideal(elements) -> set:
    """Smallest two-sided ideal, as the ideal S^1 z S^1 of one element z.

    z is the product of all elements: a product with one factor in the
    minimal ideal lies in it. The result I is certified minimal without
    ranks: I y I == I for every y in I, and any ideal M inside I contains
    I y I for y in M. The minimal ideal of a finite semigroup is unique.
    """
    elements = set(elements)
    z = reduce(compose_images, sorted(elements))
    left = {z} | {compose_images(a, z) for a in elements}
    ideal = left | {compose_images(x, b) for x in left for b in elements}
    for y in ideal:
        inner = {compose_images(a, y) for a in ideal}
        if {compose_images(x, b) for x in inner for b in ideal} != ideal:
            raise AssertionError("the ideal of the full product is not minimal")
    return ideal


def deadlock_pairs(elements, n: int) -> set:
    """Pairs x < y of points in 1..n that no element (image tuple) merges."""
    return {(x, y) for x, y in combinations(range(1, n + 1), 2)
            if all(f[x - 1] != f[y - 1] for f in elements)}


def is_stable(elements, x: tuple) -> bool:
    """Whether the point tuple x stays distinct under every element."""
    return all(len({f[p - 1] for p in x}) == len(x) for f in elements)


def stable_kernel_image_tuples(generators) -> set:
    """The orderings of the images of minimal-ideal elements whose every
    pair of points is a deadlock."""
    elements = brute_force_closure(generators)
    pairs = deadlock_pairs(elements, len(next(iter(elements))))
    return {x for z in brute_force_minimal_ideal(elements)
            for x in permutations(sorted(set(z)))
            if all(pair in pairs for pair in combinations(sorted(x), 2))}


def shortest_words(generators) -> dict:
    """A shortest word [g_k, ..., g_1] with g_k o ... o g_1 == s for every
    element s of the closure, by BFS over image tuples.

    Layers are scanned in sorted order and the generators in sorted order,
    and the first word found for an element is kept.
    """
    gens = sorted({tuple(g) for g in generators})
    words = {g: [g] for g in gens}
    frontier = gens
    while frontier:
        fresh = {}
        for x in frontier:
            for g in gens:
                z = compose_images(g, x)
                if z not in words and z not in fresh:
                    fresh[z] = [g] + words[x]
        words.update(fresh)
        frontier = sorted(fresh)
    return words


def last_word_time(maps, k_min: int, k: int, word: list):
    """T_e: the largest l < k - len(word) with N_{l+n} o ... o N_{l+1} equal
    to the product of ``word`` (n = len(word)), or None.

    ``maps`` are image tuples, maps[i] = N_{k_min+1+i} drives the step into
    time k_min + 1 + i.
    """
    n = len(word)
    target = reduce(compose_images, word)
    for l in range(min(k - n - 1, k_min + len(maps) - n), k_min - 1, -1):
        window = maps[l - k_min:l - k_min + n]  # N_{l+1}, ..., N_{l+n}
        if reduce(compose_images, reversed(window)) == target:
            return l
    return None


def marginal_transition_matrix(generators, weights) -> list:
    """Row-stochastic matrix P[x][y] = mu{f : f(x) = y} of the one-point
    chain, 0-indexed rows, for image tuples with exact weights."""
    n = len(generators[0])
    rows = [[Fraction(0)] * n for _ in range(n)]
    for f, w in zip(generators, weights):
        for x in range(n):
            rows[x][f[x] - 1] += Fraction(w)
    return rows


def float_stationary(matrix, iters: int = 20_000) -> np.ndarray:
    """Power iteration on a row-stochastic float matrix."""
    P = np.array([[float(v) for v in row] for row in matrix])
    pi = np.full(P.shape[0], 1.0 / P.shape[0])
    for _ in range(iters):
        pi = pi @ P
    return pi


def _row_reduce(rows: list, m: int) -> list:
    """Gauss-Jordan on Fraction rows with m unknowns and a right-hand side
    in column m, in place. Returns the pivot columns; pivot row i holds
    pivot column pivots[i] with a unit pivot."""
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def exact_stationary(matrix) -> list:
    """The unique pi with pi P = pi and sum(pi) = 1, as Fractions, for a
    row-stochastic matrix P of exact weights: all m balance equations and
    the normalization are row reduced with Fractions, and a unique solution
    is asserted."""
    m = len(matrix)
    # row j: sum_i pi_i P(i, j) - pi_j = 0; the last row: sum_i pi_i = 1
    rows = [[Fraction(matrix[i][j]) - (i == j) for i in range(m)] + [Fraction(0)]
            for j in range(m)]
    rows.append([Fraction(1)] * (m + 1))
    if _row_reduce(rows, m) != list(range(m)) or rows[m][m] != 0:
        raise AssertionError("the walk has no unique stationary law")
    return [rows[i][m] for i in range(m)]


def full_chain_stationary(generators, weights, e, left: bool = True) -> dict:
    """Exact stationary law of the walk z -> f o z (``left``) or z -> z o f
    on the orbit of the idempotent e, which is Ke (or eK).

    Every state of the orbit is a variable: the balance equations
    pi P = pi and sum(pi) = 1 are solved with Fractions, and a unique
    solution is asserted. ``generators`` and ``e`` are 1-based image tuples.
    Returns {image tuple: Fraction}, zero entries dropped.
    """
    mu = [(tuple(g), Fraction(w)) for g, w in zip(generators, weights)]
    e = tuple(e)
    states = {e}
    frontier = [e]
    while frontier:
        fresh = {compose_images(f, z) if left else compose_images(z, f)
                 for z in frontier for f, _ in mu} - states
        states |= fresh
        frontier = list(fresh)
    states = sorted(states)
    index = {s: i for i, s in enumerate(states)}
    matrix = [[Fraction(0)] * len(states) for _ in states]
    for i, z in enumerate(states):
        for f, w in mu:
            matrix[i][index[compose_images(f, z) if left else compose_images(z, f)]] += w
    pi = exact_stationary(matrix)
    return {s: v for s, v in zip(states, pi) if v != 0}


def _convolve_tuples(a: dict, b: dict) -> dict:
    """(a * b){f o g} += a{f} b{g} for measures keyed by image tuples."""
    out = {}
    for f, wf in a.items():
        for g, wg in b.items():
            fg = compose_images(f, g)
            out[fg] = out.get(fg, 0) + wf * wg
    return {k: v for k, v in out.items() if v != 0}


def cesaro_first_order(generators, weights, eta) -> dict:
    """Exact first-order term D of the Cesaro averages of mu = sum w_i delta_{g_i}.

    With the limit cycle cyc_k = lim_m mu^(k+pm) (so cyc_1 = mu * eta), the
    deviations e_k = mu^k - cyc_k obey e_(k+1) = mu * e_k and decay
    geometrically, and D = sum_{k>=1} e_k. Hence for p | n

        (1/n) sum_{k=1..n} mu^k = nu + D/n + O(rho^n).

    D solves (I - T) x = e_1 with T x = mu * x on the closure. Any solution
    x differs from D by a T-fixed y, and eta * x = lim mu^(pm) * x = y
    because mu^(pm) * D = sum_k e_(k+pm) -> 0; so D = x - eta * x. The
    linear system is solved with Fractions, free variables set to 0, and
    its consistency is asserted.

    ``generators`` are 1-based image tuples, ``weights`` the matching
    probabilities, ``eta`` a mapping from image tuples to exact weights.
    Returns D as {image tuple: Fraction}, zero entries dropped.
    """
    mu = {}
    for g, w in zip(generators, weights):
        g = tuple(g)
        mu[g] = mu.get(g, 0) + Fraction(w)
    eta = {tuple(k): Fraction(v) for k, v in eta.items()}
    elements = sorted(brute_force_closure(mu))
    index = {s: i for i, s in enumerate(elements)}
    m = len(elements)

    rhs = dict(mu)
    for k, v in _convolve_tuples(mu, eta).items():
        rhs[k] = rhs.get(k, 0) - v
    # augmented rows of (I - T | e_1); column j is the unit mass at element j
    rows = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for j, s in enumerate(elements):
        rows[j][j] += 1
        for f, w in mu.items():
            rows[index[compose_images(f, s)]][j] -= w
    for s, v in rhs.items():
        rows[index[s]][m] = Fraction(v)

    pivots = _row_reduce(rows, m)
    if any(rows[i][m] != 0 for i in range(len(pivots), m)):
        raise AssertionError("(I - T) x = mu - mu * eta is inconsistent")

    x = {elements[c]: rows[i][m] for i, c in enumerate(pivots) if rows[i][m] != 0}
    D = dict(x)
    for k, v in _convolve_tuples(eta, x).items():
        D[k] = D.get(k, 0) - v
    return {k: v for k, v in D.items() if v != 0}


def two_term_residual(average, nu, D: dict, n: int) -> float:
    """sup |average - (nu + D/n)|, with D keyed by image tuples.

    ``average`` (floats) and ``nu`` (exact) are keyed by transformations and
    are compared through their ``images`` tuples.
    """
    approx = {f.images: v for f, v in average.items()}
    exact = {f.images: w for f, w in nu.items()}
    return max(
        abs(approx.get(k, 0.0) - float(exact.get(k, 0) + D.get(k, 0) / n))
        for k in set(approx) | set(exact) | set(D)
    )


def float_step(law, vec: dict) -> dict:
    """One convolution power in double precision: vec -> mu * vec."""
    out = {}
    for f, wf in law.measure.items():
        w = float(wf)
        for z, v in vec.items():
            fz = f * z
            out[fz] = out.get(fz, 0.0) + w * v
    return out


def float_sup_distance(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def scalar_draw(items, rng):
    """One draw: the first item whose running float sum of weights exceeds a
    fresh uniform, or the last item when none does."""
    u = rng.random()
    acc = 0.0
    for x, w in items:
        acc += float(w)
        if u < acc:
            return x
    return items[-1][0]


def rees_objects(rd) -> SimpleNamespace:
    """A ReesData as transformations: its rows ``kernel``, ``L``, ``G``,
    ``R`` and ``generators`` as tuples, the kernel position ``e`` and the
    group positions H, C and gamma as elements, and inverse and coset_of as
    dicts keyed by the element of G."""
    kernel, L, G, R, generators = (tuple(map(Transformation, tuples(rows))) for rows in (
        rd.kernel, rd.L, rd.G, rd.R, rd.generators))
    return SimpleNamespace(
        kernel=kernel, L=L, G=G, R=R, generators=generators, e=kernel[rd.e],
        H=tuple(G[h] for h in rd.H), C=tuple(G[c] for c in rd.C), gamma=G[rd.C[1 % rd.p]],
        inverse={G[a]: G[b] for a, b in enumerate(rd.inverse)},
        coset_of=dict(zip(G, rd.coset_of.tolist())))


class ScalarReference:
    """Per-replication reference sampler for one analysis.

    Each window draws from ``np.random.Generator(np.random.Philox(key=seed))``
    one uniform per draw, and states, triples and coset splits come from
    products of the analysis' transformations, found by search. A window is
    a dict of the maps N, the states X, their L-, G-, C-, H- and W-parts
    and Y_C and Z_W; ``decode`` gives the same dict for a row of a batch.
    """

    def __init__(self, a):
        self.a, self.W = a, tuples(a.cliques.W)
        self.group = rees_objects(a.rd)
        self.triple = {apply(l * g, w): (l, g, w)
                       for l in self.group.L for g in self.group.G for w in self.W}
        self.split = {c * h: (c, h) for c in self.group.C for h in self.group.H}

    def _parts(self, maps, X, k_min) -> dict:
        L, G, W = zip(*map(self.triple.__getitem__, X))
        C, H = zip(*map(self.split.__getitem__, G))
        return {"N": maps, "X": X, "X_L": list(L), "X_G": list(G), "X_C": list(C),
                "X_H": list(H), "X_W": list(W),
                "Y_C": self.group.C[-k_min % self.a.rd.p] * C[0], "Z_W": W[0]}

    def _window(self, x0, k_min, k_max, rng) -> dict:
        maps = [scalar_draw(self.a.law.measure.items(), rng)
                for _ in range(k_max - k_min)]
        X = [x0]
        for f in maps:
            X.append(apply(f, X[-1]))
        return self._parts(maps, X, k_min)

    def _eta_L(self) -> list:
        return measure_of(self.group.L, self.a.limits.eta_L).items()

    def stationary(self, Lambda_W, k_min, k_max, seed) -> dict:
        """X_{k_min} = (l g)(w) with l ~ eta_L, g ~ omega_G, w ~ Lambda_W
        (a W vector)."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        G = self.group.G
        l = scalar_draw(self._eta_L(), rng)
        g = scalar_draw([(g, Fraction(1, len(G))) for g in sorted(G)], rng)
        w = scalar_draw(measure_of(self.W, Lambda_W).items(), rng)
        return self._window(apply(l * g, w), k_min, k_max, rng)

    def nonstationary(self, family, k_min, k_max, seed) -> dict:
        """Phase i ~ c, w ~ Lambda_W^i, l ~ eta_L, h ~ omega_H, then
        X_{k_min} = (l gamma^(k_min+i) h)(w)."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        H, C = self.group.H, self.group.C
        i = scalar_draw(list(enumerate(family.c)), rng)
        w = scalar_draw(measure_of(self.W, family.Lambda_W[i]).items(), rng)
        l = scalar_draw(self._eta_L(), rng)
        h = scalar_draw([(h, Fraction(1, len(H))) for h in sorted(H)], rng)
        return self._window(apply(l * C[(k_min + i) % self.a.rd.p] * h, w),
                            k_min, k_max, rng)

    def decode(self, batch, r) -> dict:
        """Row r of a PathBatch read through its stable tuples and maps."""
        W_mu = tuples(batch.analysis.cliques.W_mu)
        return self._parts([self.group.generators[m] for m in batch.maps[r].tolist()],
                           [W_mu[s] for s in batch.states[r].tolist()], batch.k_min)

    def h_part(self, x) -> object:
        """The H-part of the G-part of a stable tuple."""
        return self.split[self.triple[x][1]][1]


def convolve(a, b):
    """Exact pushforward of the product measure a x b under composition,
    for RationalMeasures on transformations: a dict of Fraction sums keyed
    by ``Transformation`` products."""
    acc = {}
    for f, wf in a.items():
        for g, wg in b.items():
            z = f * g
            acc[z] = acc.get(z, Fraction(0)) + wf * wg
    return RationalMeasure(acc)


def push_tuples(law, lam) -> RationalMeasure:
    """The law of N(x) for N ~ ``law`` (a MappingLaw) and x ~ ``lam`` drawn
    independently: a dict of Fraction sums keyed by the image tuple
    (f[x_1 - 1], ..., f[x_m - 1]) of every raw image table f."""
    acc = {}
    for f, wf in law.measure.items():
        images = f.images
        for x, wx in lam.items():
            y = tuple(images[p - 1] for p in x)
            acc[y] = acc.get(y, Fraction(0)) + wf * wx
    return RationalMeasure(acc)


def coordinate_marginal(lam, i: int) -> RationalMeasure:
    """Marginal law of the i-th coordinate (1-based) of a RationalMeasure on
    tuples: a dict of Fraction sums keyed by that coordinate."""
    acc = {}
    for x, w in lam.items():
        acc[x[i - 1]] = acc.get(x[i - 1], Fraction(0)) + w
    return RationalMeasure(acc)


def measure_product(pieces):
    """Left-to-right product of RationalMeasures and point elements.

    Transformations and tuples are Dirac masses. A tuple-supported piece may
    only appear last; the product then acts on it, x -> f(x) pointwise.
    """
    result = None
    for piece in pieces:
        if not isinstance(piece, RationalMeasure):
            piece = RationalMeasure({piece: 1})
        if result is None:
            result = piece
        elif isinstance(piece.support()[0], tuple):
            acc = {}
            for f, wf in result.items():
                for x, wx in piece.items():
                    y = apply(f, x)
                    acc[y] = acc.get(y, Fraction(0)) + wf * wx
            result = RationalMeasure(acc)
        else:
            result = convolve(result, piece)
    return result


def project(rees, z) -> tuple:
    """Coordinates (z_L, z_G, z_R) with z = z_L * z_G * z_R of a kernel
    element, by the closed form z_G = eze, z_L = ze (eze)^-1 and
    z_R = (eze)^-1 ez in ``Transformation`` arithmetic, for a ReesData
    decoded by ``rees_objects``."""
    if z not in set(rees.kernel):
        raise InputError(f"{z.literal()} is not in the kernel")
    e = rees.e
    z_g = e * z * e
    inv = next(g for g in rees.G if g * z_g == e)
    return z * e * inv, z_g, inv * e * z


def rees_product(rd, a: int, b: int) -> int:
    """Kernel position of kernel[a] * kernel[b], by the Rees-matrix
    product (l, g, r)(l', g', r') = (l, g * (r l') * g', r') on the
    position tables of ``rd``."""
    l, g, r = rd.coords[a]
    l2, g2, r2 = rd.coords[b]
    return rd.at[l][rd.gmul[rd.gmul[g][rd.sandwich[r][l2]]][g2]][r2]


def element_order(g, e, bound: int) -> int:
    """The least k <= bound with g^k == e, by repeated composition."""
    power = g
    for k in range(1, bound + 1):
        if power == e:
            return k
        power = power * g
    raise AssertionError(f"{g.literal()} has no power equal to the unit within {bound} steps")


def add_at_step(law, elements):
    """The float step v -> mu * v over ``elements`` (transformations), one
    ``np.add.at`` per generator in the law's order."""
    index = {s: i for i, s in enumerate(elements)}
    tables = [(np.array([index[f * s] for s in elements]), float(w))
              for f, w in law.measure.items()]

    def step(v):
        out = np.zeros_like(v)
        for table, w in tables:
            np.add.at(out, table, w * v)
        return out

    return step


def float_limit_loop(step, vec, tol: float, max_iter: int, max_lag: int) -> tuple:
    """Lag detection by a scan over a list of the last max_lag + 1 iterates,
    one lag at a time, with the settle phase of ``float_limit_oracle``.

    Returns (converged, q, eta vector, nu vector, iterations).
    """
    history = [(1, vec)]
    settle_until = None
    for n in range(2, max_iter + 1):
        vec = step(vec)
        history.append((n, vec))
        if len(history) > max_lag + 1:
            history.pop(0)
        if settle_until is None:
            for q in range(1, len(history)):
                if np.max(np.abs(vec - history[-1 - q][1])) < tol:
                    settle_until = min(max(2 * n, n + q), max_iter)
                    break
        if settle_until is not None and n >= settle_until:
            for q in range(1, len(history)):
                if np.max(np.abs(vec - history[-1 - q][1])) < tol:
                    cycle = history[-q:]
                    eta_vec = next(v for m, v in cycle if m % q == 0)
                    nu_vec = sum(v for _, v in cycle) / q
                    return True, q, eta_vec, nu_vec, n
            settle_until = None
    return False, 0, None, None, max_iter


def cesaro_loop(step, vec, n: int) -> np.ndarray:
    """(1/n) sum_{k=1..n} mu^k from mu^1 = vec, accumulated in order."""
    acc = vec.copy()
    for _ in range(n - 1):
        vec = step(vec)
        acc += vec
    acc /= n
    return acc
