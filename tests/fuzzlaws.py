"""Seeded corpus of small random mapping laws for the property suites.

Instances are rejection-sampled to size caps so the exact stationary solves
and the float oracle stay inside the acceptance runtime budgets; the caps
and the seed pin the corpus bit-for-bit.
"""

from __future__ import annotations

import random
from math import factorial

from finevo.errors import ResourceLimitError
from finevo.measure import MappingLaw, RationalMeasure
from finevo.semigroup import generate, kernel
from finevo.transform import Transformation
from oracles import compose_images

CORPUS_SEED = 271828
CORPUS_SIZE = 208

MAX_CLOSURE = 300
MAX_KERNEL = 48
# |Ke| and |eK| bound the full-chain oracle's solves; the package solves
# only the |L| and |R| boundary states, so this budget no longer binds it.
MAX_SIDE = 24
MAX_W_MU = 260


def random_law(rng: random.Random) -> MappingLaw:
    n = rng.randint(2, 6)
    count = rng.randint(1, 3)
    gens = []
    for _ in range(count):
        if rng.random() < 0.3:
            # permutations keep ranks high and make nontrivial groups and
            # periods far more likely than uniform random maps do
            images = list(range(1, n + 1))
            rng.shuffle(images)
        else:
            images = [rng.randint(1, n) for _ in range(n)]
        gens.append(Transformation(images))
    gens = list(dict.fromkeys(gens))
    raw = [rng.randint(1, 6) for _ in gens]
    total = sum(raw)
    weights = {g: f"{r}/{total}" for g, r in zip(gens, raw)}
    return MappingLaw(n, RationalMeasure(weights))


def _within_caps(law: MappingLaw) -> bool:
    try:
        closure = generate(law.rows, cap=MAX_CLOSURE)
    except ResourceLimitError:
        return False
    ker = list(map(tuple, closure[kernel(closure)].tolist()))
    if len(ker) > MAX_KERNEL:
        return False
    e = next(f for f in ker if compose_images(f, f) == f)
    if (len({compose_images(z, e) for z in ker}) > MAX_SIDE
            or len({compose_images(e, z) for z in ker}) > MAX_SIDE):
        return False
    m_mu = min(len(set(f)) for f in ker)
    cliques = {frozenset(f) for f in ker}
    if len(cliques) * factorial(m_mu) > MAX_W_MU:
        return False
    return True


def corpus(size: int = CORPUS_SIZE, seed: int = CORPUS_SEED) -> list:
    rng = random.Random(seed)
    laws = []
    while len(laws) < size:
        law = random_law(rng)
        if _within_caps(law):
            laws.append(law)
    return laws


def cyclic3_law() -> MappingLaw:
    """Deterministic order-3 rotation: mu^n cycles with period 3."""
    return MappingLaw.from_dict(
        {"n": 3, "generators": [[2, 3, 1]], "weights": ["1"]}
    )


def p3_h2_law() -> MappingLaw:
    """Two commuting order-6-group generators that both advance the
    3-phase, giving period 3 with a two-element subgroup H."""
    return MappingLaw.from_dict(
        {
            "n": 6,
            "generators": [[2, 3, 1, 5, 6, 4], [5, 6, 4, 2, 3, 1]],
            "weights": ["1/2", "1/2"],
        }
    )


def r7g2_law() -> MappingLaw:
    """The idempotent merging 7 and 8 and the transposition (1 2): a
    two-element rank-7 kernel with |G| = 2 and one f-clique {1..7}, whose
    7! = 5,040 orderings are the stable tuples W_mu."""
    return MappingLaw.from_dict(
        {
            "n": 8,
            "generators": [[1, 2, 3, 4, 5, 6, 7, 7], [2, 1, 3, 4, 5, 6, 7, 8]],
            "weights": ["1/2", "1/2"],
        }
    )


def s6k_law() -> MappingLaw:
    """The transposition (1 2), the 6-cycle on 1..6 and the idempotent
    merging 6 and 7, at 1/3 each: a 4,320-element kernel with |L| = 1,
    |G| = |H| = 720 and |R| = 6, where any product of kernel vectors costs
    |K|^2 = 1.9 * 10^7 terms."""
    return MappingLaw.from_dict(
        {
            "n": 7,
            "generators": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 1, 7],
                           [1, 2, 3, 4, 5, 6, 6]],
            "weights": ["1/3", "1/3", "1/3"],
        }
    )


def group_kernel_laws() -> list:
    """Tiny closures with large kernels or groups: S5, A5 and S4 (the kernel
    is the whole group), a rank-3 kernel with |L| = 2, |G| = 6 and |R| = 6,
    and the period-3 law of ``p3_h2_law``."""
    gens = [
        [[2, 3, 4, 5, 1], [2, 1, 3, 4, 5]],
        [[2, 3, 1, 4, 5], [2, 3, 4, 5, 1]],
        [[2, 3, 4, 1], [2, 1, 3, 4]],
        [[2, 3, 4, 5, 6, 1], [3, 2, 1, 4, 5, 6], [1, 1, 3, 3, 5, 5]],
        [[2, 3, 1, 5, 6, 4], [5, 6, 4, 2, 3, 1]],
    ]
    return [MappingLaw.from_dict({"n": len(g[0]), "generators": g,
                                  "weights": [f"1/{len(g)}"] * len(g)})
            for g in gens]
