"""Stable tuples of the kernel images and the classification of invariant
multiparticle laws.

A distinct tuple is stable when it stays distinct under every element of
the semigroup. The f-cliques are the images of kernel elements and W_mu is
the set of their orderings; every one of them is stable, because an
element merging two points of im(z), z in the kernel, would give a product
of rank below the minimal rank. W_mu needs the kernel alone. Not every
stable tuple lies in W_mu: for mu = delta_[1,1,3], (2,3) is stable but
W_mu holds only the orderings of {1,3}. The product map
L x G x W -> W_mu over a set W of orbit representatives is the coordinate
system for everything the simulator extracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .errors import (ClassificationError, InputError, ResourceLimitError,
                     StructuralInconsistencyError)
from .limits import CyclicLimit
from .measure import RationalMeasure, act_on_tuples
from .semigroup import DEFAULT_ELEMENT_CAP, ReesData


def f_cliques(ker: tuple) -> list:
    """The distinct image sets of kernel elements, as sorted tuples."""
    return sorted({tuple(sorted(g.image_set())) for g in ker})


@dataclass(frozen=True)
class CliqueData:
    """Stable tuples and their L x G x W coordinates: ``triples[x]`` is the
    (l, g, w) of positions in ``rd.L``, ``rd.G`` and ``W`` with
    x = (L[l] * G[g])(W[w])."""

    m_mu: int
    f_cliques: tuple
    W_mu: tuple
    W: tuple
    triples: dict

    def project_index(self, x: tuple) -> tuple:
        """Positions (l, g, w) of a stable tuple: x = (L[l] * G[g])(W[w])."""
        if x not in self.triples:
            raise InputError(f"tuple {x} is not a stable distinct tuple")
        return self.triples[x]


def compute_W(rd: ReesData, *, cap: int = DEFAULT_ELEMENT_CAP) -> CliqueData:
    """Enumerate the stable tuples and fix a W with L x G x W bijective.

    W_mu is every ordering of every f-clique (see the module docstring for
    why they are all stable). W collects the lexicographically smallest
    representative of each G-orbit on e W_mu. Raises ResourceLimitError,
    before enumerating, if W_mu would hold more than ``cap`` tuples.
    """
    ker = rd.kernel
    m_mu = min(f.rank() for f in ker)
    cliques = f_cliques(ker)
    size = len(cliques) * factorial(m_mu)
    if size > cap:
        raise ResourceLimitError(f"W_mu has {size} tuples, over the element cap "
                                 f"({cap}); raise the cap to analyze this law")
    W_mu = tuple(sorted(x for clique in cliques for x in permutations(clique)))

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

    triples = {}
    for l, x_l in enumerate(rd.L):
        for g, x_g in enumerate(rd.G):
            lg = x_l * x_g
            for w, x_w in enumerate(W):
                x = lg.apply(x_w)
                if x in triples:
                    raise StructuralInconsistencyError(
                        "L x G x W product map is not injective"
                    )
                triples[x] = (l, g, w)
    if set(triples) != set(W_mu):
        raise StructuralInconsistencyError("L * G * W does not equal W_mu")

    return CliqueData(m_mu=m_mu, f_cliques=tuple(cliques), W_mu=W_mu, W=W,
                      triples=triples)


def _lift(limits: CyclicLimit, terms) -> RationalMeasure:
    """The law of (l g)(w) for l ~ eta_L and, independently, one term
    (c, part, Lambda_W) taken with probability c, g uniform on the distinct
    positions ``part`` in G and w ~ Lambda_W."""
    acc = {}
    G = limits.rd.G
    for c, part, Lambda_W in terms:
        for l, wl in limits.eta_L.items():
            weight = c * wl / len(part)
            for g in part:
                lg = l * G[g]
                for w, ww in Lambda_W.items():
                    x = lg.apply(w)
                    acc[x] = acc.get(x, 0) + weight * ww
    return RationalMeasure(acc)


def invariant_law(
    limits: CyclicLimit, cd: CliqueData, Lambda_W: RationalMeasure
) -> RationalMeasure:
    """The invariant tuple law eta_L omega_G Lambda_W; verified fixed by mu."""
    wset = set(cd.W)
    for w in Lambda_W.support():
        if w not in wset:
            raise InputError(f"Lambda_W has mass at {w} outside W")
    lam = _lift(limits, [(1, range(len(limits.rd.G)), Lambda_W)])
    if act_on_tuples(limits.law, lam) != lam:
        raise StructuralInconsistencyError("assembled law is not mu-invariant")
    return lam


@dataclass(frozen=True)
class InvariantFamily:
    """A shift-compatible family Lambda_k = sum_i c_i eta_L gamma^(k+i) omega_H Lambda_W^i."""

    limits: CyclicLimit
    c: tuple
    Lambda_W: tuple

    def law_at(self, k: int) -> RationalMeasure:
        rd = self.limits.rd
        return _lift(self.limits, [
            (ci, [rd.gmul[rd.C[(k + i) % rd.p]][h] for h in rd.H], lam_w)
            for i, (ci, lam_w) in enumerate(zip(self.c, self.Lambda_W)) if ci
        ])


def classify_family(
    limits: CyclicLimit, cd: CliqueData, Lambda_0: RationalMeasure
) -> InvariantFamily:
    """Decompose a one-time law into its cyclic family coefficients.

    The phase/W joint law under Lambda_0 determines (c_i, Lambda_W^i); the
    decomposition is validated by exact reassembly and by reproducing the
    recursion Lambda_k = mu Lambda_{k-1} over one full period.
    """
    rd = limits.rd
    w_mu_set = set(cd.W_mu)
    for x in Lambda_0.support():
        if x not in w_mu_set:
            raise InputError(f"law has mass at {x} outside the stable tuples")

    joint = {}
    for x, wgt in Lambda_0.items():
        _, g, w = cd.project_index(x)
        j = rd.coset_of[g]
        joint[(j, w)] = joint.get((j, w), Fraction(0)) + wgt

    c = []
    lambdas = []
    for i in range(rd.p):
        ci = sum((v for (j, _), v in joint.items() if j == i), Fraction(0))
        c.append(ci)
        if ci > 0:
            lambdas.append(
                RationalMeasure(
                    {cd.W[w]: v / ci for (j, w), v in joint.items() if j == i}
                )
            )
        else:
            lambdas.append(RationalMeasure.point(cd.W[0]))

    family = InvariantFamily(limits=limits, c=tuple(c), Lambda_W=tuple(lambdas))

    rebuilt = family.law_at(0)
    if rebuilt != Lambda_0:
        residual = {}
        for x in set(rebuilt.support()) | set(Lambda_0.support()):
            if rebuilt[x] != Lambda_0[x]:
                residual[x] = (Lambda_0[x], rebuilt[x])
        raise ClassificationError(
            "law is not of the cyclic family form", residual=residual
        )
    current = Lambda_0
    for k in range(1, rd.p + 1):
        current = act_on_tuples(limits.law, current)
        if current != family.law_at(k):
            raise ClassificationError(
                f"family recursion fails at step {k}", residual={}
            )
    return family
