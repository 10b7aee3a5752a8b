"""Exact limit structure of convolution powers of a mapping law.

The convolution powers of a law never stabilize support-wise (transient
elements keep positive mass forever), so the limit cycle is computed
structurally: stationary solves on the left/right kernel walks give the
boundary factors, the Rees decomposition gives the period p, the subgroup H
and the coset generator gamma, and the cycle is assembled from the
closed-form factorization. The walks on Ke = LG and eK = GR are solved on
their boundary factors L and R alone: the group acts on their G-fibres by
permutations that commute with the walk, so the stationary laws are exactly
eta_L x omega_G and omega_G x eta_R. A double-precision power iteration is
kept as an independent cross-check.

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
from .semigroup import BLOCK, ReesData, element, generate, left_products

# The float iteration's defaults: the largest lag float_limit_oracle scans
# (cesaro_average keeps as many past powers, plus the current one, to find a
# repeat), and the n of the running average that `finevo verify` reports.
FLOAT_MAX_LAG = 64
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


def _indexed_iteration(law: MappingLaw, closure: np.ndarray = None):
    """Vectorized left-convolution step over the closure's canonical order.

    Returns (closure, v0, step) where step maps a weight vector for mu^n
    to the one for mu^(n+1); ``closure`` is built when not given. The
    closure starts with the sorted support, so v0 starts with the weights.
    """
    if closure is None:
        closure = generate(law.generators)
    table = left_products(closure, law.generators)
    weights = np.array([[float(w)] for w in law.weights])
    v0 = np.zeros(len(closure))
    v0[:len(weights)] = weights[:, 0]
    terms = np.empty((len(weights), len(closure)))

    def step(v: np.ndarray) -> np.ndarray:
        # terms are summed generator by generator, each in element order
        np.multiply(weights, v, out=terms)
        return np.bincount(table, weights=terms.ravel(), minlength=len(v))

    return closure, v0, step


def _nonzero(closure: np.ndarray, vec: np.ndarray) -> dict:
    """The nonzero entries of a weight vector, keyed by transformation."""
    return {element(closure[i]): float(vec[i]) for i in np.flatnonzero(vec)}


@dataclass
class FloatLimitEstimate:
    converged: bool
    p_est: int
    eta_est: dict
    nu_est: dict
    iterations: int


def float_limit_oracle(
    law: MappingLaw,
    tol: float = 1e-12,
    *,
    max_iter: int = 100_000,
    max_lag: int = FLOAT_MAX_LAG,
    closure: np.ndarray = None,
) -> FloatLimitEstimate:
    """Brute-force limit detection by iterating convolution powers.

    Iterates mu^n in double precision until the sequence repeats at some lag
    q <= max_lag within ``tol``; the lag is the period estimate, the iterate
    at an index divisible by q estimates the cycle unit eta, and the average
    over one period estimates nu. Independent of the exact path.

    An oscillating transient can push a larger lag under ``tol`` before the
    true one, so after the first detection the iteration continues to twice
    the detection index (squaring the residual transient) and the smallest
    lag that holds at the final iterate is reported. ``closure`` is the
    law's closure (``Analysis.closure``), built when not given.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    closure, vec, step = _indexed_iteration(law, closure)
    # iterate m is kept in row m % size until it is max_lag iterations old
    size = max_lag + 1
    ring = np.zeros((size, len(vec)))
    ring[1 % size] = vec

    def first_lag(n: int) -> int:
        """The smallest lag q with max |mu^n - mu^(n-q)| < tol, or 0."""
        lags = np.arange(1, min(n, size))
        dist = np.abs(ring - ring[n % size]).max(axis=1)[(n - lags) % size]
        hits = np.flatnonzero(dist < tol)
        return int(lags[hits[0]]) if len(hits) else 0

    settle_until = None
    for n in range(2, max_iter + 1):
        vec = step(vec)
        ring[n % size] = vec
        if settle_until is None:
            q = first_lag(n)
            if q:
                settle_until = min(max(2 * n, n + q), max_iter)
        if settle_until is not None and n >= settle_until:
            q = first_lag(n)
            if q:
                nu_vec = sum(ring[m % size] for m in range(n - q + 1, n + 1)) / q
                return FloatLimitEstimate(True, q, _nonzero(closure, ring[(n - n % q) % size]),
                                          _nonzero(closure, nu_vec), n)
            settle_until = None  # lost the repetition; keep iterating
    return FloatLimitEstimate(False, 0, {}, {}, max_iter)


def cesaro_average(law: MappingLaw, n: int, closure: np.ndarray = None) -> dict:
    """Running average (1/n) sum_{k=1..n} mu^k in double precision.

    ``step`` is deterministic, so once mu^k has the bytes of a power mu^j
    in the ring of the last FLOAT_MAX_LAG + 1, mu^(k+i) == mu^(j+i) for
    all i: the rest of the sum is the rows j .. k-1 in cyclic order, added
    in blocks by ``np.add.accumulate`` from the running sum on, row after
    row, so == to stepping on.
    """
    closure, vec, step = _indexed_iteration(law, closure)
    size = FLOAT_MAX_LAG + 1
    ring, seen = np.empty((size, len(vec))), {hash(vec.tobytes()): 1}
    ring[1] = vec
    acc = vec.copy()
    for k in range(2, n + 1):
        vec = step(vec)
        key = vec.tobytes()
        j = seen.get(hash(key), -size)
        if k - j < size and ring[j % size].tobytes() == key:
            cycle = ring[np.arange(j, k) % size]
            rows = max(1, BLOCK // len(vec))
            for m in range(k, n + 1, rows):
                block = cycle[np.arange(m - k, min(m + rows, n + 1) - k) % (k - j)]
                block[0] += acc
                acc = np.add.accumulate(block, axis=0, out=block)[-1]
            break
        acc += vec
        ring[k % size], seen[hash(key)] = vec, k
    acc /= n
    return _nonzero(closure, acc)


def exact_vs_float_sup(rows: np.ndarray, vector: tuple, approx: dict) -> float:
    """Largest |exact - approx| over the maps ``rows`` and the keys of
    ``approx``; ``vector`` holds the exact weights of ``rows`` by position."""
    exact = {element(x): float(Fraction(v, vector[1])) for x, v in zip(rows, vector[0])}
    return max(abs(exact.get(k, 0.0) - approx.get(k, 0.0)) for k in exact.keys() | approx.keys())
