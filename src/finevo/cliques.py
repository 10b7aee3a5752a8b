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

Past ``compute_W`` a stable tuple is a position in W_mu, and this module
alone translates between tuples and positions. ``compute_W`` composes
every (generator, tuple) and (l, g, w) fact once into integer tables. A
tuple law is a vector: Python-int numerators, one per W_mu position (or
per W position for a law on W), over one common denominator, pushed
forward by the step table as ``finevo.limits`` pushes kernel vectors.
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
from .limits import CyclicLimit, _act, _common, _same
from .measure import RationalMeasure
from .semigroup import DEFAULT_ELEMENT_CAP, ReesData


def f_cliques(ker: tuple) -> list:
    """The distinct image sets of kernel elements, as sorted tuples."""
    return sorted({tuple(sorted(g.image_set())) for g in ker})


@dataclass(frozen=True, eq=False)
class CliqueData:
    """Stable tuples and their integer tables.

    A stable tuple is a position s in ``W_mu`` (sorted) and ``index`` maps a
    tuple to its position; a map is a position i in ``rd.generators``.
    ``step[i, s]`` is the position of generators[i](W_mu[s]). The columns
    ``state_l``, ``state_g`` and ``state_w`` hold the positions (l, g, w) in
    ``rd.L``, ``rd.G`` and ``W`` with W_mu[s] = (L[l] * G[g])(W[w]), and
    ``lgw[l, g, w]`` inverts them. ``state_c[s]`` is the coset index j of
    the G-part gamma^j h and ``state_h[s]`` the position of h in ``rd.H``;
    ``coset_h[j, h]`` is the G position of gamma^j h.
    """

    m_mu: int
    f_cliques: tuple
    W_mu: tuple
    W: tuple
    index: dict
    step: np.ndarray
    state_l: np.ndarray
    state_g: np.ndarray
    state_w: np.ndarray
    state_c: np.ndarray
    state_h: np.ndarray
    lgw: np.ndarray
    coset_h: np.ndarray

    def project_index(self, x: tuple) -> tuple:
        """Positions (l, g, w) of a stable tuple: x = (L[l] * G[g])(W[w])."""
        if x not in self.index:
            raise InputError(f"tuple {x} is not a stable distinct tuple")
        s = self.index[x]
        return int(self.state_l[s]), int(self.state_g[s]), int(self.state_w[s])

    def w_vector(self, lam: RationalMeasure) -> tuple:
        """A law on W as numerators by position in W over their least common
        denominator; raises InputError if it has mass outside W."""
        index = {w: i for i, w in enumerate(self.W)}
        items = lam.items()
        weights, den = _common([v for _, v in items])
        nums = [0] * len(self.W)
        for (x, _), v in zip(items, weights):
            if x not in index:
                raise InputError(f"Lambda_W has mass at {x} outside W")
            nums[index[x]] = v
        return nums, den

    def first_marginal(self, x: tuple, n: int) -> list:
        """The law of the first coordinate under a W_mu vector, as the
        probabilities of the points 1..n."""
        acc = [0] * (n + 1)
        for y, v in zip(self.W_mu, x[0]):
            acc[y[0]] += v
        return [Fraction(v, x[1]) for v in acc[1:]]


def compute_W(rd: ReesData, *, cap: int = DEFAULT_ELEMENT_CAP) -> CliqueData:
    """Enumerate the stable tuples, fix a W with L x G x W bijective, and
    build the tables of ``CliqueData``.

    W_mu is every ordering of every f-clique (see the module docstring for
    why they are all stable). W collects the lexicographically smallest
    representative of each G-orbit on e W_mu. Verifies that L x G x W -> W_mu
    is a bijection and that every generator maps W_mu into itself. Raises
    ResourceLimitError, before enumerating, if W_mu would hold more than
    ``cap`` tuples.
    """
    ker = rd.kernel
    m_mu = min(f.rank() for f in ker)
    cliques = f_cliques(ker)
    # |W_mu| = |cliques| * m_mu!, multiplied out only until it passes the cap
    size, k = len(cliques), 1
    while size <= cap and k < m_mu:
        k += 1
        size *= k
    if size > cap:
        count = size if k == m_mu else f"at least {size}"
        raise ResourceLimitError(f"W_mu has {count} tuples, over the element cap "
                                 f"({cap}); raise the cap to analyze this law")
    W_mu = tuple(sorted(x for clique in cliques for x in permutations(clique)))
    index = {x: s for s, x in enumerate(W_mu)}

    e = rd.e
    orbit_of = {}
    reps = []
    for x in sorted({e.apply(x) for x in W_mu}):
        if x in orbit_of:
            continue
        orbit = sorted(g.apply(x) for g in rd.G)
        rep = orbit[0]
        reps.append(rep)
        for y in orbit:
            if orbit_of.setdefault(y, rep) != rep:
                raise StructuralInconsistencyError("G-orbits on eW_mu overlap")
    W = tuple(sorted(reps))

    triples = [None] * len(W_mu)
    step = np.empty((len(rd.generators), len(W_mu)), dtype=np.intp)
    for l, x_l in enumerate(rd.L):
        for g, x_g in enumerate(rd.G):
            lg = x_l * x_g
            for w, x_w in enumerate(W):
                x = lg.apply(x_w)
                s = index.get(x)
                if s is None:
                    raise StructuralInconsistencyError("L * G * W does not equal W_mu")
                if triples[s] is not None:
                    raise StructuralInconsistencyError(
                        "L x G x W product map is not injective"
                    )
                triples[s] = (l, g, w)
                for i, f in enumerate(rd.generators):
                    y = index.get(f.apply(x))
                    if y is None:
                        raise StructuralInconsistencyError(
                            f"{f.literal()} maps the stable tuple {x} outside L G W"
                        )
                    step[i, s] = y
    if None in triples:
        raise StructuralInconsistencyError("L * G * W does not equal W_mu")

    # gamma^j h at (j, position of h in H), and the split of G it inverts
    coset_h = np.array([[rd.gmul[c][h] for h in rd.H] for c in rd.C], dtype=np.intp)
    g_coset, g_h = np.empty((2, len(rd.G)), dtype=np.intp)
    g_coset[coset_h] = np.arange(rd.p)[:, None]
    g_h[coset_h] = np.arange(len(rd.H))
    state_l, state_g, state_w = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    lgw = np.empty((len(rd.L), len(rd.G), len(W)), dtype=np.intp)
    lgw[state_l, state_g, state_w] = np.arange(len(W_mu))

    return CliqueData(m_mu=m_mu, f_cliques=tuple(cliques), W_mu=W_mu, W=W, index=index,
                      step=step, state_l=state_l, state_g=state_g, state_w=state_w,
                      state_c=g_coset[state_g], state_h=g_h[state_g], lgw=lgw,
                      coset_h=coset_h)


def _tuple_law(limits: CyclicLimit, cd: CliqueData, terms) -> tuple:
    """The W_mu vector of the law of (L[l] G[g])(W[w]) for l ~ eta_L and,
    independently, one term (c, part, lam) taken with probability c: g
    uniform on the G positions ``part`` (equally many in every term) and w
    ~ lam, a W vector."""
    eta, eta_den = limits.eta_L
    c, c_den = _common([t[0] for t in terms])
    lam_den = lcm(*(lam[1] for _, _, lam in terms))
    lgw = cd.lgw.tolist()
    nums = [0] * len(cd.W_mu)
    for ci, (_, part, (lam, den)) in zip(c, terms):
        scale = ci * (lam_den // den)
        support = [(w, scale * v) for w, v in enumerate(lam) if v]
        for l, x in enumerate(eta):
            for g in part:
                row = lgw[l][g]
                for w, v in support:
                    nums[row[w]] += x * v
    return nums, c_den * eta_den * len(terms[0][1]) * lam_den


def invariant_law(limits: CyclicLimit, cd: CliqueData, Lambda_W: tuple) -> tuple:
    """The W_mu vector of the invariant tuple law eta_L omega_G Lambda_W, for
    a W vector Lambda_W; verified fixed by mu."""
    lam = _tuple_law(limits, cd, [(1, range(len(limits.rd.G)), Lambda_W)])
    if not _same(_act(limits.law, limits.rd, lam, cd.step.tolist()), lam):
        raise StructuralInconsistencyError("assembled law is not mu-invariant")
    return lam


@dataclass(frozen=True)
class InvariantFamily:
    """A shift-compatible family Lambda_k = sum_i c_i eta_L gamma^(k+i) omega_H
    Lambda_W^i; ``Lambda_W`` holds the W vectors Lambda_W^i."""

    limits: CyclicLimit
    c: tuple
    Lambda_W: tuple

    def law_at(self, cd: CliqueData, k: int) -> tuple:
        """The W_mu vector of Lambda_k."""
        p = self.limits.rd.p
        return _tuple_law(self.limits, cd, [
            (ci, cd.coset_h[(k + i) % p].tolist(), lam)
            for i, (ci, lam) in enumerate(zip(self.c, self.Lambda_W)) if ci
        ])


def classify_family(limits: CyclicLimit, cd: CliqueData, x: tuple) -> InvariantFamily:
    """Decompose a one-time law, a W_mu vector, into its cyclic family
    coefficients.

    The phase/W joint law under x determines (c_i, Lambda_W^i); the
    decomposition is validated by exact reassembly and by reproducing the
    recursion Lambda_k = mu Lambda_{k-1} over one full period.
    """
    rd = limits.rd
    joint = [[0] * len(cd.W) for _ in range(rd.p)]
    for j, w, v in zip(cd.state_c.tolist(), cd.state_w.tolist(), x[0]):
        joint[j][w] += v

    mass = [sum(row) for row in joint]
    # a phase of mass 0 gets the point law at W[0]
    lambdas = [(row, m) if m else ([1] + [0] * (len(cd.W) - 1), 1) for row, m in zip(joint, mass)]
    family = InvariantFamily(limits=limits, c=tuple(Fraction(m, x[1]) for m in mass),
                             Lambda_W=tuple(lambdas))

    rebuilt = family.law_at(cd, 0)
    if not _same(rebuilt, x):
        residual = {}
        for s, (a, b) in enumerate(zip(x[0], rebuilt[0])):
            if a * rebuilt[1] != b * x[1]:
                residual[cd.W_mu[s]] = (Fraction(a, x[1]), Fraction(b, rebuilt[1]))
        raise ClassificationError(
            "law is not of the cyclic family form", residual=residual
        )
    current = x
    for k in range(1, rd.p + 1):
        current = _act(limits.law, rd, current, cd.step.tolist())
        if not _same(current, family.law_at(cd, k)):
            raise ClassificationError(
                f"family recursion fails at step {k}", residual={}
            )
    return family
