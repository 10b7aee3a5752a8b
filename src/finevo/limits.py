"""Exact limit structure of convolution powers of a mapping law.

The convolution powers of a law never stabilize support-wise (transient
elements keep positive mass forever), so the limit cycle is computed
structurally: the quotient walks on the boundary factors L and R give
eta_L and eta_R, each by one fraction-free integer solve, the Rees
decomposition gives the period p, the subgroup H and the coset generator
gamma, and ``assemble_limits`` reads the cycle and nu off the Rees
coordinates of the kernel positions and verifies them, idempotence on the
sandwich matrix and the mass, with no product of kernel vectors. The walks
on Ke = LG and eK = GR need no solve: the group acts on their G-fibres by
permutations that commute with the walk, so their stationary laws are
eta_L x omega_G and omega_G x eta_R. One double-precision pass over the
powers mu^k, on vectors by closure position, is kept as an independent
cross-check: it estimates p, eta and nu and gives the running average.
Until its oracle settles it steps the powers in blocks of up to 64 (fewer
on closures of over 1,024 elements) that double and never pass the settle
index, and each pays one lag scan, which tests the lags on a few witness
columns before the full row; after that one block runs to n or the first
repeat. Each power is keyed for the repeat test and added to the running
sum as it is stepped. Its ring holds the max(64, |G|) powers a lag or a
repeat reaches back plus one scanned block, and from the first repeat the
tail of the running average adds the repeating rows, tiled once into whole
periods, by one sequential reduce per run.

Every exact law is a vector (nums, den): one object array of Python-int
numerators by position in the kernel, ``rd.L`` or ``rd.R``, over one
common denominator, like the law's own ``MappingLaw.weights``. Products,
sums and comparisons of vectors are array operations on the numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import StructuralInconsistencyError
from .measure import MappingLaw
from .semigroup import BLOCK, ReesData, left_products

# The float pass: the smallest largest lag the oracle scans and the most
# powers it steps in one block (it keeps max(FLOAT_MAX_LAG, |G|) powers and
# one block), its tolerance, and the n of the running average that
# `finevo verify` reports.
FLOAT_MAX_LAG = 64
FLOAT_TOL = 1e-12
CESARO_N = 10_000


def solve_stationary(matrix) -> tuple:
    """The unique probability vector pi with pi P = pi, as an exact vector
    over its least common denominator.

    ``matrix`` holds integer rows that all sum to one D, so P = matrix / D.
    The balance equations (matrix^T - D I) pi = 0, the last replaced by
    sum(pi) = 1, are solved by fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 22 (1968)): every entry stays an integer minor of
    the system, every division is exact, and the last pivot is, up to sign,
    the determinant, a common denominator of pi. Raises
    StructuralInconsistencyError on rank deficiency or a negative entry,
    which no nonnegative matrix gives; sum(pi) = 1 is an equation solved.
    """
    m = len(matrix)
    rows = np.zeros((m, m + 1), dtype=object)
    rows[:, :m] = np.transpose(matrix) - sum(matrix[0]) * np.identity(m, dtype=object)
    rows[-1] = 1
    previous = 1
    for col in range(m):
        nonzero = np.flatnonzero(rows[col:, col])
        if not len(nonzero):
            raise StructuralInconsistencyError(
                "stationary system is rank deficient; fixed point not unique")
        top = rows[col + nonzero[0]].copy()
        rows[col + nonzero[0]] = rows[col]
        # every other row; only the columns right of the pivot are read again
        rows[:, col + 1:] = (top[col] * rows[:, col + 1:]
                             - rows[:, col, None] * top[col + 1:]) // previous
        rows[col] = top
        previous = top[col]

    common = gcd(previous, *rows[:, m]) * (1 if previous > 0 else -1)
    nums, den = rows[:, m] // common, previous // common
    if (nums < 0).any():
        raise StructuralInconsistencyError("stationary solve produced an invalid vector")
    return nums, den


def _act(law: MappingLaw, x: tuple, tables) -> tuple:
    """mu acting on x through one table per generator: mu * x for
    ``ReesData.left``, x * mu for ``ReesData.right``, and the law of N(X)
    for ``CliqueData.step`` on stable tuples."""
    weights, den = law.weights
    out = np.zeros(len(x[0]), dtype=object)
    np.add.at(out, tables, weights[:, None] * x[0])
    return out, x[1] * den


def _same(a: tuple, b: tuple) -> bool:
    return np.array_equal(a[0] * b[1], b[0] * a[1])


def boundary_stationary(law: MappingLaw, rd: ReesData, left: bool) -> tuple:
    """eta_L, the stationary law of the quotient walk l -> (f l)_L, by
    position in ``rd.L`` (``left``); else eta_R, that of r -> (r f)_R, by
    position in ``rd.R``. Unique, as ``rees_at`` verified the walks on Ke
    and eK irreducible.

    The group acts on the G-fibres of Ke and eK by permutations that commute
    with the walks, so their stationary laws are eta_L x omega_G and
    omega_G x eta_R. ``assemble_limits`` verifies both: the L-marginal of its
    check mu * eta = cycle[1] is the balance equations of eta_L, the
    R-marginal of nu * mu = nu those of eta_R, and z -> z*e carries nu onto
    eta_L x omega_G and commutes with left multiplication.
    """
    l0, g0, r0 = rd.coords[rd.e]
    states = rd.at[:, g0, r0] if left else rd.at[l0, g0]
    tables = rd.left if left else rd.right
    side = rd.coords[tables[:, states], 0 if left else 2]
    matrix = np.zeros((len(states), len(states)), dtype=object)
    np.add.at(matrix, (np.arange(len(states)), side), law.weights[0][:, None])
    return solve_stationary(matrix)


@dataclass(frozen=True)
class CyclicLimit:
    """The limit cycle of convolution powers and its exact factorization:
    ``eta_L`` and ``eta_R`` are vectors by position in ``ReesData.L`` and
    ``ReesData.R``, ``eta`` and ``nu`` by kernel position. The law and its
    ``ReesData``, with the period p, belong to the ``Analysis``."""

    eta_L: tuple
    eta_R: tuple
    eta: tuple
    nu: tuple


def assemble_limits(law: MappingLaw, rd: ReesData, eta_L: tuple, eta_R: tuple) -> CyclicLimit:
    """Build cycle[k] = eta_L gamma^k omega_H eta_R and the averaged limit nu.

    Both are read off the Rees coordinates (l, g, r) of the kernel
    positions: cycle[k] is eta_L[l] eta_R[r] / |H| where g lies in the coset
    gamma^k H, and nu is eta_L[l] eta_R[r] / |G| everywhere. Every identity
    of the limit cycle is verified exactly on them, or follows from those
    verified, before the result is returned; supp(eta) = L H R follows from
    supp(nu). T_k (l, g, r) = (l, g gamma^k, r) carries eta onto cycle[k]
    and commutes with z -> f z, (l, g, r) -> (l', x g, r) for f l = l' x, so
    mu * eta = cycle[1] gives mu * cycle[k] = cycle[k+1] for every k, and
    mu * nu = nu for nu, the cycle's mean.

    Idempotence needs no product of kernel vectors. Let c be the mass of
    eta (and of nu), scale eta_L and eta_R to mass one and let P be the
    sandwich matrix. H is normal, so the Rees product (l, g, r)(l', g', r')
    = (l, g P[r, l'] g', r') carries omega_H x omega_H at fixed (r, l')
    onto the uniform law on the coset P[r, l'] H, and eta * eta =
    c^2 eta_L x (sum over r, l of eta_R[r] eta_L[l] omega_{P[r, l] H}) x
    eta_R. That is eta iff every sandwich entry between the supports of
    eta_R and eta_L lies in H and c = 1. With omega_G in place of omega_H
    every coset is G, so nu * nu = c^2 nu for any P: nu once c = 1.
    """
    (lw, l_den), (rw, r_den) = eta_L, eta_R
    l, g, r = rd.coords.T
    product = lw[l] * rw[r]
    den = l_den * r_den * len(rd.H)
    phase = rd.coset_of[g]
    eta, nu = (np.where(phase == 0, product, 0), den), (product, den * rd.p)

    between = rd.sandwich[np.ix_(np.flatnonzero(rw), np.flatnonzero(lw))]
    if (rd.coset_of[between] != 0).any() or eta[0].sum() != eta[1]:
        raise StructuralInconsistencyError("eta * eta != eta")
    if not _same(_act(law, eta, rd.left), (np.where(phase == 1 % rd.p, product, 0), den)):
        raise StructuralInconsistencyError("mu * eta != cycle[1]")
    if not _same(_act(law, nu, rd.right), nu):
        raise StructuralInconsistencyError("nu is not mu-invariant")
    if not nu[0].all():
        raise StructuralInconsistencyError("supp(nu) != kernel")
    return CyclicLimit(eta_L=eta_L, eta_R=eta_R, eta=eta, nu=nu)


def _power_step(law: MappingLaw, closure: np.ndarray) -> tuple:
    """mu^1 and the step from mu^k to mu^(k+1), as float vectors by closure
    position. The closure starts with the sorted support, so mu^1 starts
    with the weights."""
    table = left_products(closure, law.rows)
    nums, den = law.weights
    weights = np.array(nums / den, dtype=float)[:, None]
    v0 = np.zeros(len(closure))
    v0[:len(weights)] = weights[:, 0]
    terms = np.empty((len(weights), len(closure)))

    def step(v: np.ndarray) -> np.ndarray:
        # terms are summed generator by generator, each in element order
        np.multiply(weights, v, out=terms)
        return np.bincount(table, weights=terms.ravel(), minlength=len(v))

    return v0, step


@dataclass(frozen=True)
class FloatLimitEstimate:
    """The float pass's estimates, as vectors by closure position: ``eta``
    and ``nu`` (None unless ``converged``) and the running ``average`` of
    the first n powers. ``iterations`` is the oracle's settle index, or
    max_iter when it did not settle."""

    converged: bool
    p_est: int
    iterations: int
    eta: np.ndarray
    nu: np.ndarray
    average: np.ndarray


def float_limit_oracle(a, n: int = CESARO_N, *, max_iter: int = 100_000) -> FloatLimitEstimate:
    """Brute-force limit detection and the running average (1/n) sum_{k=1..n}
    mu^k, from one double-precision pass over the powers of the law of the
    ``Analysis`` ``a``. Independent of the exact path.

    The oracle steps until the sequence repeats within FLOAT_TOL at some lag
    q <= top = max(FLOAT_MAX_LAG, |G|); q estimates the period, the power at
    an index divisible by q the cycle unit eta, and the average over one
    period nu. An oscillating transient can push a larger lag under
    FLOAT_TOL before the true one, so after the first detection the pass
    steps on to twice the detection index (squaring the residual transient)
    and reports the smallest lag that holds there.

    The powers are stepped in blocks. Until the oracle settles, a block
    from power k ends at min(2k, k + most, settle index, max_iter), where
    most = min(FLOAT_MAX_LAG, BLOCK // |S|) or 1, and is followed by one lag
    scan. A detection at k_d > k puts the settle index at min(2 k_d,
    max_iter) or later, so no block passes it. After that no lag scan
    reads a block, and one block runs to n. The ring keeps the top + most
    powers that a scanned block's lags and repeats reach back to; a repeat
    reaches at most top powers back.

    The lag scan takes a block's powers in order and each power's lags
    smallest first, and checks the full row only for the pairs within
    FLOAT_TOL on every witness column; a pair that fails the full row adds
    its argmax column to the witnesses. A max over some columns is at most
    the full max, so the scan finds the first pair that a full scan would.

    Until the first repeat, each power m <= n is keyed for the repeat test
    and added to the running sum by ``acc += vec`` as it is stepped. The
    step is deterministic, so once mu^m has the bytes of a power mu^j with
    m - j <= top, mu^(m+i) == mu^(j+i) for all i, and ``tail`` adds the rest
    of the sum row after row too, so == to stepping all n powers. After the
    oracle has settled the repeat ends the block, so the pass never steps
    past both the settle index and the first repeat.
    """
    vec, step = _power_step(a.law, a.closure)
    width = len(vec)
    top = max(FLOAT_MAX_LAG, len(a.rd.G))
    most = max(1, min(FLOAT_MAX_LAG, BLOCK // width))
    size = top + most  # power k is kept in row k % size
    ring = np.zeros((size, width))
    ring[1] = vec
    acc, seen = vec.copy(), {hash(vec.tobytes()): 1}
    unsettled = (False, 0, max_iter, None, None)
    oracle = unsettled if max_iter < 2 else None
    summing, settle_until, k = n > 1, None, 1
    witness = []  # closure columns on which some lag failed the full row
    lags = np.arange(1, top + 1)

    def first_lag(lo: int, hi: int):
        """The first (m, q), by m = lo .. hi and then by q, with
        max |mu^m - mu^(m-q)| < FLOAT_TOL, or None."""
        powers = np.arange(lo, hi + 1)[:, None]
        at = powers % size
        rows = at - lags  # a negative row counts from the end of the ring

        def near(c: int) -> np.ndarray:
            column = ring[:, c]
            return np.abs(column[rows] - column[at]) < FLOAT_TOL

        candidates = lags < powers
        for c in witness:
            candidates &= near(c)
        while len(hit := np.flatnonzero(candidates)):
            i, q = divmod(int(hit[0]), top)
            dist = np.abs(ring[rows[i, q]] - ring[at[i, 0]])
            if dist.max() < FLOAT_TOL:
                return lo + i, q + 1
            witness.append(c := int(dist.argmax()))
            candidates &= near(c)
        return None

    def repeated(m: int, key: bytes):
        """The j >= m - top with mu^j == mu^m, whose bytes are ``key``, or
        None, and then m is recorded. Past 2 top hashes, those of powers
        i <= m - top are dropped: a later power is more than top past them."""
        j = seen.get(h := hash(key), -size)
        if m - j <= top and ring[j % size].tobytes() == key:
            return j
        seen[h] = m
        if len(seen) > 2 * top:
            for stale in [x for x, i in seen.items() if m - i >= top]:
                del seen[stale]
        return None

    def tail(j: int, m: int) -> np.ndarray:
        """The running sum plus mu^m .. mu^n, which repeat rows j .. m-1,
        tiled once into whole periods. Each run is added after a row that
        holds the running sum by ``np.add.reduce`` along axis 0, which adds
        row after row (numpy sums pairwise only along the fast axis), as
        ``acc += vec`` does. Axis 0 is the fast one only for |S| = 1, where
        every power is [1.0] and every partial sum is an integer below 2^53,
        exact in any order."""
        period = m - j
        reps = max(1, min(BLOCK // width, n + 1 - m) // period)
        # row 0 is overwritten by the running sum before each reduce
        rows = ring[(j + np.arange(-1, reps * period) % period) % size]
        total = acc
        for start in range(m, n + 1, reps * period):
            rows[0] = total
            total = np.add.reduce(rows[:n + 2 - start], axis=0)
        return total

    while oracle is None or summing:
        start = k + 1
        k = min(2 * k, k + most, settle_until or max_iter) if oracle is None else n
        for m in range(start, k + 1):
            vec = step(vec)
            ring[m % size] = vec
            if summing and (j := repeated(m, vec.tobytes())) is not None:
                acc, summing = tail(j, m), False
                if oracle is not None:
                    break
            elif summing:
                acc += vec
                summing = m < n
        if oracle is not None:
            continue
        if settle_until is None and (hit := first_lag(start, k)):
            m, q = hit
            settle_until = min(max(2 * m, m + q), max_iter)
        if settle_until is not None and k >= settle_until:
            if hit := first_lag(k, k):
                q = hit[1]
                nu = sum(ring[m % size] for m in range(k - q + 1, k + 1)) / q
                oracle = (True, q, k, ring[(k - k % q) % size].copy(), nu)
            settle_until = None  # lost the repetition; keep stepping
        if oracle is None and k == max_iter:
            oracle = unsettled
    return FloatLimitEstimate(*oracle, average=acc / n)


def sup_error(a, vector: tuple, approx: np.ndarray) -> float:
    """Largest |exact - approx| over the closure of the ``Analysis`` ``a``,
    for an exact kernel vector and a float vector by closure position."""
    exact = np.zeros(len(a.closure))
    exact[a.kernel_at] = vector[0] / vector[1]
    return float(np.abs(exact - approx).max())
