"""Stable tuples of the kernel images, their integer tables, and the
classification of invariant multiparticle laws.

A distinct tuple is stable when it stays distinct under every element of
the semigroup. The f-cliques are the images of kernel elements and W_mu is
the set of their orderings; every one of them is stable, because an
element merging two points of im(z), z in the kernel, would give a product
of rank below the minimal rank. W_mu needs the kernel alone. Not every
stable tuple lies in W_mu: for mu = delta_[1,1,3], (2,3) is stable but
W_mu holds only the orderings of {1,3}. The product map
L x G x W -> W_mu over a set W of orbit representatives is the coordinate
system for everything the simulator extracts.

The f-cliques, W_mu and W are integer rows, sorted as tuples, and past
``compute_W`` a stable tuple is a position in W_mu. ``compute_W`` composes
every (generator, tuple) and (l, g, w) fact once, by gathers on the image
rows of ``ReesData``, into integer tables, looking the tuples up in W_mu
with ``finevo.semigroup.positions_in``. A tuple law is an exact vector:
an object array of Python-int numerators, one per W_mu position (or per W
position for a law on W), over one common denominator. A family's tuple
laws are one gather from its (phase, W) table ``joint``, and
``stationary_family`` is the family of eta_L omega_G Lambda_W; marginals
are scatters on the state columns and the step table pushes laws forward.
A ``RationalMeasure`` on tuples is only ever parsed input: ``w_vector``
turns it into a W vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm

import numpy as np

from .errors import (ClassificationError, InputError, ResourceLimitError,
                     StructuralInconsistencyError)
from .limits import _act, _same
from .measure import RationalMeasure, _common
from .semigroup import (DEFAULT_ELEMENT_CAP, ReesData, _tables, distinct, distinct_rows,
                        literals, positions_in)


def f_cliques(ker: np.ndarray) -> np.ndarray:
    """The distinct image sets of the kernel rows, which share one rank,
    each sorted, as rows in lexicographic order."""
    ranked = np.sort(ker, axis=1)
    new = np.ones(ranked.shape, bool)
    new[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    return distinct_rows(ranked[new].reshape(len(ker), -1))


@dataclass(frozen=True, eq=False)
class CliqueData:
    """Stable tuples and their integer tables.

    ``f_cliques``, ``W_mu`` and ``W`` hold point tuples as rows, sorted as
    tuples. A stable tuple is a position s in ``W_mu``; a map is a position
    i in ``rd.generators``. ``step[i, s]`` is the position of
    generators[i](W_mu[s]). The columns ``state_l``, ``state_g`` and
    ``state_w`` hold the positions (l, g, w) in ``rd.L``, ``rd.G`` and
    ``W`` with W_mu[s] = (L[l] * G[g])(W[w]), and ``lgw[l, g, w]`` inverts
    them. ``state_c[s]`` is the coset index j of the G-part gamma^j h and
    ``state_h[s]`` the position of h in ``rd.H``, so the G-part is
    ``rd.coset_h[state_c[s], state_h[s]]``.
    """

    m_mu: int
    f_cliques: np.ndarray
    W_mu: np.ndarray
    W: np.ndarray
    step: np.ndarray
    state_l: np.ndarray
    state_g: np.ndarray
    state_w: np.ndarray
    state_c: np.ndarray
    state_h: np.ndarray
    lgw: np.ndarray

    def w_vector(self, lam: RationalMeasure) -> tuple:
        """A law on W as numerators by position in W over their least common
        denominator; raises InputError if it has mass outside W."""
        index = {w: i for i, w in enumerate(map(tuple, self.W.tolist()))}
        items = lam.items()
        weights, den = _common([v for _, v in items])
        nums = np.zeros(len(self.W), dtype=object)
        for (x, _), v in zip(items, weights):
            if x not in index:
                raise InputError(f"Lambda_W has mass at {x} outside W")
            nums[index[x]] = v
        return nums, den

    def first_marginal(self, x: tuple, n: int) -> tuple:
        """The law of the first coordinate under a W_mu vector, as the exact
        vector of the points 1..n."""
        acc = np.zeros(n + 1, dtype=object)
        np.add.at(acc, self.W_mu[:, 0], x[0])
        return acc[1:], x[1]


def compute_W(rd: ReesData, *, cap: int = DEFAULT_ELEMENT_CAP) -> CliqueData:
    """Enumerate the stable tuples, fix a W with L x G x W bijective, and
    build the tables of ``CliqueData``.

    W_mu is every ordering of every f-clique (see the module docstring for
    why they are all stable). W collects the least tuple of each G-orbit on
    e W_mu, scanned in increasing order with one set of the tuples seen.
    Verifies that the orbits are disjoint, that L x G x W -> W_mu is a
    bijection and that every generator maps W_mu into itself. Raises
    ResourceLimitError, before enumerating, if W_mu would hold more than
    ``cap`` tuples. Every table is a gather on image rows, looked up in
    W_mu by ``positions_in``.
    """
    cliques = f_cliques(rd.kernel)
    m_mu = cliques.shape[1]
    # |W_mu| = |cliques| * m_mu!, multiplied out only until it passes the cap
    size, k = len(cliques), 1
    while size <= cap and k < m_mu:
        k += 1
        size *= k
    if size > cap:
        count = size if k == m_mu else f"at least {size}"
        raise ResourceLimitError(f"W_mu has {count} tuples, over the element cap "
                                 f"({cap}); raise the cap to analyze this law")
    W_mu = distinct_rows(cliques[:, list(permutations(range(m_mu)))].reshape(-1, m_mu))
    w_at = positions_in(W_mu)

    # one lookup per G-orbit; an unseen x is its orbit's least, met by no other
    seen, reps = set(), []
    for x in distinct(w_at(rd.kernel[rd.e, W_mu - 1])).tolist():
        if x in seen:
            continue
        orbit = w_at(rd.G[:, W_mu[x] - 1]).tolist()
        rep = min(orbit)
        if rep < 0:
            raise StructuralInconsistencyError("a G-orbit leaves W_mu")
        if rep != x or not seen.isdisjoint(orbit):
            raise StructuralInconsistencyError("G-orbits on eW_mu overlap")
        seen.update(orbit)
        reps.append(x)
    W = W_mu[reps]

    lgw = w_at(_tables(rd.L).take(rd.G, axis=1)[:, :, W - 1])
    if lgw.min() < 0:
        raise StructuralInconsistencyError("an L G W tuple lies outside W_mu")
    if len(distinct(lgw)) != lgw.size:
        raise StructuralInconsistencyError("L x G x W product map is not injective")
    if lgw.size != len(W_mu):
        raise StructuralInconsistencyError("L G W misses part of W_mu")
    step = w_at(_tables(rd.generators).take(W_mu, axis=1))
    if step.min() < 0:
        i, s = np.argwhere(step < 0)[0]
        raise StructuralInconsistencyError(
            f"{literals(rd.generators[[i]])[0]} maps the stable tuple "
            f"{tuple(W_mu[s].tolist())} outside L G W")

    # G[g] is gamma^j h for j = rd.coset_of[g] and h at g_h[g]
    g_h = np.empty(len(rd.G), dtype=np.intp)
    g_h[rd.coset_h] = np.arange(len(rd.H))
    state_l, state_g, state_w = np.empty((3, len(W_mu)), dtype=np.intp)
    state_l[lgw], state_g[lgw], state_w[lgw] = np.indices(lgw.shape)

    return CliqueData(m_mu=m_mu, f_cliques=cliques, W_mu=W_mu, W=W, step=step,
                      state_l=state_l, state_g=state_g, state_w=state_w,
                      state_c=rd.coset_of[state_g], state_h=g_h[state_g], lgw=lgw)


@dataclass(frozen=True)
class InvariantFamily:
    """A shift-compatible family Lambda_k = sum_i c_i eta_L gamma^(k+i) omega_H
    Lambda_W^i; ``Lambda_W`` holds the W vectors Lambda_W^i."""

    c: tuple
    Lambda_W: tuple

    def joint(self) -> tuple:
        """The (phase, W) joint c_i Lambda_W^i[w]: a (p, |W|) table over one denominator."""
        c, c_den = _common(self.c)
        lam_den = lcm(*(den for _, den in self.Lambda_W))
        table = np.stack([ci * (lam_den // den) * lam
                          for ci, (lam, den) in zip(c, self.Lambda_W)])
        return table, c_den * lam_den

    def law_at(self, a, k: int) -> tuple:
        """The W_mu vector of Lambda_k for the ``Analysis`` ``a``: a state
        (l, g, w) with g in gamma^j H has mass eta_L[l] c_i Lambda_W^i[w] / |H|
        for i = j - k mod p, gathered from the state columns and ``joint``."""
        rd, cd = a.rd, a.cliques
        (eta, eta_den), (table, den) = a.limits.eta_L, self.joint()
        nums = eta[cd.state_l] * table[(cd.state_c - k) % rd.p, cd.state_w]
        return nums, eta_den * den * len(rd.H)


def stationary_family(p: int, Lambda_W: tuple) -> InvariantFamily:
    """The p equal terms (1/p, Lambda_W): Lambda_0 is eta_L omega_G Lambda_W."""
    return InvariantFamily(c=(Fraction(1, p),) * p, Lambda_W=(Lambda_W,) * p)


def invariant_law(a, Lambda_W: tuple) -> tuple:
    """The W_mu vector of eta_L omega_G Lambda_W for the ``Analysis`` ``a``
    and a W vector Lambda_W, from ``stationary_family``; verified fixed by mu."""
    lam = stationary_family(a.rd.p, Lambda_W).law_at(a, 0)
    if not _same(_act(a.law, lam, a.cliques.step), lam):
        raise StructuralInconsistencyError("assembled law is not mu-invariant")
    return lam


def classify_family(a, x: tuple) -> InvariantFamily:
    """Decompose a one-time law, a W_mu vector, into its cyclic family
    coefficients, for the ``Analysis`` ``a``.

    The phase/W joint law under x determines (c_i, Lambda_W^i); the
    decomposition is validated by exact reassembly and by reproducing the
    recursion Lambda_k = mu Lambda_{k-1} over one full period.
    """
    rd, cd = a.rd, a.cliques
    joint = np.zeros((rd.p, len(cd.W)), dtype=object)
    np.add.at(joint, (cd.state_c, cd.state_w), x[0])

    mass = joint.sum(axis=1)
    # a phase of mass 0 gets the point law at W[0]
    point = np.eye(1, len(cd.W), dtype=object)[0], 1
    lambdas = [(row, m) if m else point for row, m in zip(joint, mass)]
    family = InvariantFamily(c=tuple(Fraction(m, x[1]) for m in mass), Lambda_W=tuple(lambdas))

    if residual := _residual(cd, x, family.law_at(a, 0)):
        raise ClassificationError("law is not of the cyclic family form", residual=residual)
    current = x
    for k in range(1, rd.p + 1):
        current = _act(a.law, current, cd.step)
        if residual := _residual(cd, current, family.law_at(a, k)):
            raise ClassificationError(f"family recursion fails at step {k}", residual=residual)
    return family


def _residual(cd: CliqueData, got: tuple, want: tuple) -> dict:
    """The W_mu tuples where the exact vectors ``got`` and ``want`` differ,
    each mapped to its (got, want) masses."""
    (u, u_den), (v, v_den) = got, want
    return {tuple(cd.W_mu[s].tolist()): (Fraction(u[s], u_den), Fraction(v[s], v_den))
            for s in np.flatnonzero(u * v_den != v * u_den)}
