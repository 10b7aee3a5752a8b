"""Exact limit structure of convolution powers of a mapping law.

The convolution powers of a law never stabilize support-wise (transient
elements keep positive mass forever), so the limit cycle is computed
structurally: stationary solves on the left/right kernel walks give the
boundary factors, the Rees decomposition gives the period p, the subgroup H
and the coset generator gamma, and the cycle is assembled from the
closed-form factorization. The walks on Ke = LG and eK = GR are solved on
their boundary factors L and R alone: the group acts on their G-fibres by
permutations that commute with the walk, so the stationary laws are exactly
eta_L x omega_G and omega_G x eta_R. One double-precision pass over the
powers mu^k, on vectors by closure position, is kept as an independent
cross-check: it estimates p, eta and nu and gives the running average.

From its solve on, every exact law is a vector (numerators, denominator):
Python ints by position in the kernel, ``rd.L`` or ``rd.R``, over one
common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import StructuralInconsistencyError
from .measure import MappingLaw
from .semigroup import BLOCK, ReesData, left_products, positions_in

# The float pass: the smallest largest lag the oracle scans (it keeps
# max(FLOAT_MAX_LAG, |G|) + 1 powers), its tolerance, and the n of the
# running average that `finevo verify` reports.
FLOAT_MAX_LAG = 64
FLOAT_TOL = 1e-12
CESARO_N = 10_000


def _pivot_size(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def solve_stationary(matrix: list) -> list:
    """Unique probability vector pi with pi P = pi, by exact elimination.

    ``matrix`` is a row-stochastic list of Fraction rows. The balance
    equations (P^T - I) pi = 0 are solved with the normalization sum(pi) = 1
    replacing one equation; pivots are chosen among nonzero candidates with
    the smallest numerator/denominator bit size to limit coefficient growth.
    Raises StructuralInconsistencyError on rank deficiency.
    """
    m = len(matrix)
    one = Fraction(1)
    rows = []
    for j in range(m):
        row = [matrix[i][j] - (one if i == j else 0) for i in range(m)]
        row.append(Fraction(0))
        rows.append(row)
    rows[m - 1] = [one] * m + [one]

    for col in range(m):
        pivot_row = None
        best = None
        for r in range(col, m):
            v = rows[r][col]
            if v != 0:
                size = _pivot_size(v)
                if best is None or size < best:
                    best = size
                    pivot_row = r
        if pivot_row is None:
            raise StructuralInconsistencyError(
                "stationary system is rank deficient; fixed point not unique"
            )
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]

    pi = [rows[i][m] for i in range(m)]
    if sum(pi) != 1 or any(v < 0 for v in pi):
        raise StructuralInconsistencyError("stationary solve produced an invalid vector")
    return pi


def _common(weights) -> tuple:
    """Integer numerators of Fractions over their least common denominator."""
    den = lcm(*(w.denominator for w in weights))
    return [w.numerator * (den // w.denominator) for w in weights], den


# An exact measure on the kernel is a pair (numerators, denominator): Python
# ints indexed by kernel position over one common denominator.

def _act(law: MappingLaw, rd: ReesData, x: tuple, tables) -> tuple:
    """mu acting on x through one table per generator of ``rd``: mu * x
    for ``rd.left``, x * mu for ``rd.right``, and the law of N(X) for
    ``CliqueData.step`` on stable tuples."""
    weights, den = _common(law.weights)
    support = [(z, v) for z, v in enumerate(x[0]) if v]
    out = [0] * len(x[0])
    for w, table in zip(weights, tables.tolist()):
        for z, v in support:
            out[table[z]] += w * v
    return out, x[1] * den


def _convolve(rd: ReesData, a: tuple, b: tuple) -> tuple:
    """a * b, by the Rees-matrix product (l, g, r)(l', g', r') =
    (l, g (r l') g', r') of kernel positions, gathered for a block of rows
    of a's support against b's support at a time."""
    at, gmul, sandwich = rd.at, rd.gmul, rd.sandwich
    l, g, r = rd.coords.T
    u, v = np.array(a[0], dtype=object), np.array(b[0], dtype=object)
    ys, zs = np.flatnonzero(u), np.flatnonzero(v)
    out = np.zeros(len(u), dtype=object)
    rows = max(1, BLOCK // max(1, len(zs)))
    for y in (ys[i:i + rows, None] for i in range(0, len(ys), rows)):
        z = at[l[y], gmul[gmul[g[y], sandwich[r[y], l[zs]]], g[zs]], r[zs]]
        np.add.at(out, z, u[y] * v[zs])
    return out.tolist(), a[1] * b[1]


def _same(a: tuple, b: tuple) -> bool:
    return all(x * b[1] == y * a[1] for x, y in zip(a[0], b[0]))


def fibre_stationary(law: MappingLaw, rd: ReesData, left: bool) -> tuple:
    """Exact kernel vector of the unique law fixed by beta -> mu * beta on
    Ke = LG, eta_L x omega_G (or by beta -> beta * mu on eK = GR, omega_G x
    eta_R): solved on the boundary factor L (or R), lifted over the
    G-fibres and verified mu-invariant; unique as ``rees_at`` verified the
    walk irreducible.

    Multiplying by h in G on the group side (z -> z*h on Ke, z -> h*z on eK)
    permutes the states and commutes with the walk, so the walk's unique
    stationary law is constant on each fibre l*G (or G*r). Its L-marginal is
    the stationary law eta_L of the quotient walk l -> (f*l)_L, and the law
    is beta(l*g) = eta_L(l) / |G|; mirror-wise beta(g*r) = eta_R(r) / |G|.
    """
    l0, g0, r0 = rd.coords[rd.e]
    fibres = rd.at[:, :, r0] if left else rd.at[l0].T  # fibres[b, g] is L[b] G[g] (or G[g] R[b])
    tables = rd.left if left else rd.right
    steps, side = tables.tolist(), rd.coords[:, 0 if left else 2].tolist()
    matrix = [[Fraction(0)] * len(fibres) for _ in fibres]
    for b, z in enumerate(fibres[:, g0].tolist()):
        for w, table in zip(law.weights, steps):
            matrix[b][side[table[z]]] += w
    pi, den = _common(solve_stationary(matrix))
    nums = np.zeros(len(rd.kernel), dtype=object)
    nums[fibres] = np.array(pi, dtype=object)[:, None]
    beta = (nums.tolist(), den * len(rd.G))
    if not _same(_act(law, rd, beta, tables), beta):
        raise StructuralInconsistencyError(
            f"{'left' if left else 'right'} stationary law is not mu-invariant")
    return beta


def boundary_factor(rd: ReesData, beta: tuple, left: bool) -> tuple:
    """Marginal of the L-coordinate (``left``) or the R-coordinate of an
    exact kernel vector, by position in ``rd.L`` (or ``rd.R``) over the
    least common denominator of its reduced weights."""
    acc = [0] * len(rd.L if left else rd.R)
    for b, v in zip(rd.coords[:, 0 if left else 2].tolist(), beta[0]):
        acc[b] += v
    return _common([Fraction(v, beta[1]) for v in acc])


@dataclass(frozen=True)
class CyclicLimit:
    """The limit cycle of convolution powers and its exact factorization:
    ``eta_L`` and ``eta_R`` are vectors by position in ``rd.L`` and
    ``rd.R``, ``eta`` and ``nu`` by kernel position. The period is
    ``rd.p``."""

    law: MappingLaw
    rd: ReesData
    eta_L: tuple
    eta_R: tuple
    eta: tuple
    nu: tuple


def assemble_limits(law: MappingLaw, rd: ReesData, eta_L: tuple, eta_R: tuple) -> CyclicLimit:
    """Build cycle[k] = eta_L gamma^k omega_H eta_R and the averaged limit nu.

    The cycle is laid out on the Rees coordinates (l, gamma^k h, r), and
    every structural identity of the limit cycle is verified exactly on it
    before the result is returned.
    """
    (lw, l_den), (rw, r_den) = eta_L, eta_R
    at, cycle = rd.at, []
    weights = np.array(lw, dtype=object)[:, None, None] * np.array(rw, dtype=object)
    for c in rd.C:
        nums = np.zeros(len(rd.kernel), dtype=object)
        np.add.at(nums, at[:, rd.gmul[c, rd.H]], weights)
        cycle.append((nums.tolist(), l_den * r_den * len(rd.H)))
    eta = cycle[0]
    nu = ([sum(v) for v in zip(*(c[0] for c in cycle))], eta[1] * rd.p)

    if not _same(_convolve(rd, eta, eta), eta):
        raise StructuralInconsistencyError("eta * eta != eta")
    for k in range(rd.p):
        if not _same(_act(law, rd, cycle[k], rd.left), cycle[(k + 1) % rd.p]):
            raise StructuralInconsistencyError("mu * cycle[k] != cycle[k+1]")
    if not _same(_convolve(rd, nu, nu), nu):
        raise StructuralInconsistencyError("nu * nu != nu")
    if not all(_same(_act(law, rd, nu, tables), nu) for tables in (rd.left, rd.right)):
        raise StructuralInconsistencyError("nu is not mu-invariant")
    if not all(nu[0]):
        raise StructuralInconsistencyError("supp(nu) != kernel")
    lhr = set(at[:, rd.H].ravel().tolist())
    if {z for z, v in enumerate(eta[0]) if v} != lhr:
        raise StructuralInconsistencyError("supp(eta) != L H R")
    covered = set()
    for nums, _ in cycle:
        supp = {z for z, v in enumerate(nums) if v}
        if covered & supp:
            raise StructuralInconsistencyError("cycle supports are not disjoint")
        covered |= supp
    return CyclicLimit(law=law, rd=rd, eta_L=eta_L, eta_R=eta_R, eta=eta, nu=nu)


def _power_step(law: MappingLaw, closure: np.ndarray) -> tuple:
    """mu^1 and the step from mu^k to mu^(k+1), as float vectors by closure
    position. The closure starts with the sorted support, so mu^1 starts
    with the weights."""
    table = left_products(closure, law.generators)
    weights = np.array([[float(w)] for w in law.weights])
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
    q <= max(FLOAT_MAX_LAG, |G|); q estimates the period, the power at an
    index divisible by q the cycle unit eta, and the average over one period
    nu. An oscillating transient can push a larger lag under FLOAT_TOL
    before the true one, so after the first detection the pass steps on to
    twice the detection index (squaring the residual transient) and reports
    the smallest lag that holds there.

    The step is deterministic, so once mu^k has the bytes of a power mu^j
    in the ring, mu^(k+i) == mu^(j+i) for all i: the rest of the sum is the
    rows j .. k-1 in cyclic order, added in blocks by ``np.add.accumulate``
    from the running sum on, row after row, so == to stepping on. The pass
    steps until both the oracle and the sum are done.
    """
    vec, step = _power_step(a.law, a.closure)
    # power k is kept in row k % size until it is size - 1 powers old
    size = max(FLOAT_MAX_LAG, len(a.rd.G)) + 1
    ring = np.zeros((size, len(vec)))
    ring[1] = vec
    acc, seen = vec.copy(), {hash(vec.tobytes()): 1}
    unsettled = (False, 0, max_iter, None, None)
    oracle = unsettled if max_iter < 2 else None
    summing, settle_until, k = n > 1, None, 1

    def first_lag() -> int:
        """The smallest lag q with max |mu^k - mu^(k-q)| < FLOAT_TOL, or 0."""
        lags = np.arange(1, min(k, size))
        dist = np.abs(ring - ring[k % size]).max(axis=1)[(k - lags) % size]
        hits = np.flatnonzero(dist < FLOAT_TOL)
        return int(lags[hits[0]]) if len(hits) else 0

    while summing or oracle is None:
        k += 1
        vec = step(vec)
        ring[k % size] = vec
        if summing:
            key = vec.tobytes()
            j = seen.get(hash(key), -size)
            if k - j < size and ring[j % size].tobytes() == key:
                cycle = ring[np.arange(j, k) % size]
                rows = max(1, BLOCK // len(vec))
                for m in range(k, n + 1, rows):
                    block = cycle[np.arange(m - k, min(m + rows, n + 1) - k) % (k - j)]
                    block[0] += acc
                    acc = np.add.accumulate(block, axis=0, out=block)[-1]
                summing = False
            else:
                acc += vec
                seen[hash(key)] = k
                summing = k < n
        if oracle is None:
            if settle_until is None and (q := first_lag()):
                settle_until = min(max(2 * k, k + q), max_iter)
            if settle_until is not None and k >= settle_until:
                if q := first_lag():
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
    exact[positions_in(a.closure)(a.rd.kernel)] = [v / vector[1] for v in vector[0]]
    return float(np.abs(exact - approx).max())
