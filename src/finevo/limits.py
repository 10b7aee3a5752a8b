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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StructuralInconsistencyError
from .measure import MappingLaw, RationalMeasure, convolve, measure_product
from .semigroup import ReesData, element, generate, left_products, project


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


def _fibre_stationary(law: MappingLaw, rd: ReesData, left: bool) -> RationalMeasure:
    """Stationary law of z -> f*z on Ke = LG (or z -> z*f on eK = GR),
    solved on the boundary factor L (or R) and lifted over the G-fibres.

    Multiplying by h in G on the group side (z -> z*h on Ke, z -> h*z on eK)
    permutes the states and commutes with the walk, so the walk's unique
    stationary law is constant on each fibre l*G (or G*r). Its L-marginal is
    the stationary law eta_L of the quotient walk l -> (f*l)_L, and the law
    is beta(l*g) = eta_L(l) / |G|; mirror-wise beta(g*r) = eta_R(r) / |G|.
    """
    side, coord = (rd.L, 0) if left else (rd.R, 2)
    index = {b: i for i, b in enumerate(side)}
    matrix = [[Fraction(0)] * len(side) for _ in side]
    for b in side:
        for f, w in law.measure.items():
            image = project(rd, f * b if left else b * f)[coord]
            matrix[index[b]][index[image]] += w
    pi = solve_stationary(matrix)
    return RationalMeasure({
        (b * g if left else g * b): pi[i] / len(rd.G)
        for i, b in enumerate(side) for g in rd.G
    })


def left_stationary(law: MappingLaw, rd: ReesData) -> RationalMeasure:
    """The unique law beta on Ke fixed under beta -> mu * beta: eta_L x
    omega_G from the |L|-state quotient walk (``_fibre_stationary``),
    verified mu-invariant exactly, and unique because ``rees_at`` verified
    the left walk irreducible."""
    beta = _fibre_stationary(law, rd, left=True)
    if convolve(law.measure, beta) != beta:
        raise StructuralInconsistencyError("left stationary law is not mu-invariant")
    return beta


def right_stationary(law: MappingLaw, rd: ReesData) -> RationalMeasure:
    """The unique law on eK fixed under beta -> beta * mu: omega_G x eta_R
    from the |R|-state quotient walk, verified as in ``left_stationary``."""
    beta = _fibre_stationary(law, rd, left=False)
    if convolve(beta, law.measure) != beta:
        raise StructuralInconsistencyError("right stationary law is not mu-invariant")
    return beta


def boundary_factor(rd: ReesData, beta: RationalMeasure, left: bool) -> RationalMeasure:
    """Marginal of the L-coordinate (``left``) or the R-coordinate of a law
    on the kernel."""
    acc = {}
    for z, w in beta.items():
        b = project(rd, z)[0 if left else 2]
        acc[b] = acc.get(b, Fraction(0)) + w
    return RationalMeasure(acc)


@dataclass(frozen=True)
class CyclicLimit:
    """The limit cycle of convolution powers and its exact factorization."""

    law: MappingLaw
    rd: ReesData
    p: int
    eta_L: RationalMeasure
    eta_R: RationalMeasure
    eta: RationalMeasure
    cycle: tuple
    nu: RationalMeasure


def assemble_limits(
    law: MappingLaw, rd: ReesData, eta_L: RationalMeasure, eta_R: RationalMeasure
) -> CyclicLimit:
    """Build cycle[k] = eta_L gamma^k omega_H eta_R and the averaged limit nu.

    Every structural identity of the limit cycle is verified exactly before
    the result is returned.
    """
    omega_H = RationalMeasure.uniform(rd.H)
    cycle = tuple(
        measure_product([eta_L, rd.C[k], omega_H, eta_R]) for k in range(rd.p)
    )
    eta = cycle[0]
    nu = RationalMeasure.mix((Fraction(1, rd.p), c) for c in cycle)

    mu = law.measure
    if convolve(eta, eta) != eta:
        raise StructuralInconsistencyError("eta * eta != eta")
    for k in range(rd.p):
        if convolve(mu, cycle[k]) != cycle[(k + 1) % rd.p]:
            raise StructuralInconsistencyError("mu * cycle[k] != cycle[k+1]")
    if convolve(nu, nu) != nu:
        raise StructuralInconsistencyError("nu * nu != nu")
    if convolve(mu, nu) != nu or convolve(nu, mu) != nu:
        raise StructuralInconsistencyError("nu is not mu-invariant")
    if set(nu.support()) != rd.kernel_set:
        raise StructuralInconsistencyError("supp(nu) != kernel")
    lhr = {l * h * r for l in rd.L for h in rd.H for r in rd.R}
    if set(eta.support()) != lhr:
        raise StructuralInconsistencyError("supp(eta) != L H R")
    covered = set()
    for k in range(rd.p):
        supp = set(cycle[k].support())
        if covered & supp:
            raise StructuralInconsistencyError("cycle supports are not disjoint")
        covered |= supp
    return CyclicLimit(
        law=law, rd=rd, p=rd.p, eta_L=eta_L, eta_R=eta_R, eta=eta, cycle=cycle, nu=nu
    )


def _indexed_iteration(law: MappingLaw, closure: tuple = None):
    """Vectorized left-convolution step over the closure's canonical order.

    Returns (closure, v0, step) where step maps a weight vector for mu^n
    to the one for mu^(n+1); ``closure`` is built when not given. The
    closure starts with the sorted support, so v0 starts with the weights.
    """
    if closure is None:
        closure = generate(law.generators)
    table = np.array(left_products(closure, law.generators), dtype=np.intp)
    weights = [float(w) for _, w in law.measure.items()]
    v0 = np.zeros(len(closure))
    v0[:len(weights)] = weights

    def step(v: np.ndarray) -> np.ndarray:
        # terms are summed generator by generator, each in element order
        return np.bincount(table, weights=np.concatenate([w * v for w in weights]),
                           minlength=len(v))

    return closure, v0, step


def _nonzero(closure: tuple, vec: np.ndarray) -> dict:
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
    max_lag: int = 64,
    closure: tuple = None,
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
                    return FloatLimitEstimate(True, q, _nonzero(closure, eta_vec),
                                              _nonzero(closure, nu_vec), n)
            settle_until = None  # lost the repetition; keep iterating
    return FloatLimitEstimate(False, 0, {}, {}, max_iter)


def cesaro_average(law: MappingLaw, n: int, closure: tuple = None) -> dict:
    """Running average (1/n) sum_{k=1..n} mu^k in double precision."""
    closure, vec, step = _indexed_iteration(law, closure)
    acc = vec.copy()
    for _ in range(n - 1):
        vec = step(vec)
        acc += vec
    acc /= n
    return _nonzero(closure, acc)


def exact_vs_float_sup(exact: RationalMeasure, approx: dict) -> float:
    keys = set(exact.support()) | set(approx)
    return float(max(abs(float(exact[k]) - approx.get(k, 0.0)) for k in keys))
