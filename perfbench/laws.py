"""Seeded mapping laws for the benchmark workloads, and their fingerprints.

Nothing here imports finevo. Closures are enumerated by a plain
breadth-first search over image tables held as numpy rows of 0-based
images, so accepting a law and fingerprinting it do not depend on the
program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd

import numpy as np

# Built-in laws, copied from finevo's `example` and tests/fuzzlaws.py.
EXAMPLE = {"n": 5, "generators": [[2, 3, 4, 1, 5], [2, 5, 5, 2, 4]],
           "weights": ["1/2", "1/2"]}
CYCLIC3 = {"n": 3, "generators": [[2, 3, 1]], "weights": ["1"]}
P3_H2 = {"n": 6, "generators": [[2, 3, 1, 5, 6, 4], [5, 6, 4, 2, 3, 1]],
         "weights": ["1/2", "1/2"]}

# The nonstationary family of the README's simulation config (p = 3 on P3_H2).
P3_H2_FAMILY = {
    "c": ["1/2", "1/3", "1/6"],
    "Lambda_W": [
        {"(1,2,3,4,5,6)": "1"},
        {"(1,2,3,4,5,6)": "1/2", "(1,2,3,4,6,5)": "1/2"},
        {"(1,2,3,4,6,5)": "1"},
    ],
}


def _codes(rows: np.ndarray, n: int) -> np.ndarray:
    return rows.astype(np.int64) @ (n ** np.arange(n, dtype=np.int64))


def closure(generators, n: int, cap: int):
    """All products of the generators as an (|S|, n) array of 0-based images,
    or None when the closure has more than ``cap`` elements."""
    gens = np.unique(np.asarray(generators, dtype=np.int64) - 1, axis=0)
    seen = set(_codes(gens, n).tolist())
    blocks = [gens]
    frontier = gens
    while len(frontier):
        fresh = np.concatenate([g[frontier] for g in gens])
        codes, first = np.unique(_codes(fresh, n), return_index=True)
        new = np.fromiter((c not in seen for c in codes.tolist()), bool, len(codes))
        frontier = fresh[first[new]]
        seen.update(codes[new].tolist())
        blocks.append(frontier)
        if len(seen) > cap:
            return None
    return np.concatenate(blocks)


def _ranks(rows: np.ndarray) -> np.ndarray:
    s = np.sort(rows, axis=1)
    return 1 + (np.diff(s, axis=1) != 0).sum(axis=1)


def _partition_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Code of each row's kernel partition (label = first index with equal image)."""
    labels = np.empty_like(rows)
    for i in range(n):
        labels[:, i] = np.argmax(rows[:, : i + 1] == rows[:, [i]], axis=1)
    return _codes(labels, n)


def _period(generators, n: int, e: np.ndarray, kernel: np.ndarray) -> int:
    """Period of the left walk z -> g o z on Ke, started at e."""
    gens = [np.asarray(g) - 1 for g in generators]
    states = {tuple(z) for z in kernel[:, e]}
    start = tuple(e)
    dist = {start: 0}
    queue = [start]
    edges = []
    while queue:
        nxt = []
        for u in queue:
            for g in gens:
                v = tuple(g[list(u)])
                edges.append((u, v))
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    if set(dist) != states:
        raise ValueError("left walk on Ke does not reach every state")
    p = 0
    for u, v in edges:
        p = gcd(p, dist[u] + 1 - dist[v])
    return p


def fingerprint(law: dict, elements: np.ndarray = None) -> dict:
    """n, generator count, |S|, |K|, |G|, p and |W_mu| of a law."""
    n = law["n"]
    gens = law["generators"]
    if elements is None:
        elements = closure(gens, n, cap=10**7)
    ranks = _ranks(elements)
    m = int(ranks.min())
    kernel = elements[ranks == m]
    images = np.unique(np.bitwise_or.reduce(1 << kernel, axis=1))
    partitions = np.unique(_partition_codes(kernel, n))
    h_classes = len(images) * len(partitions)
    if len(kernel) % h_classes:
        raise ValueError("kernel is not a union of equal H-classes")
    idempotent = np.all(np.take_along_axis(kernel, kernel, axis=1) == kernel, axis=1)
    e = kernel[np.argmax(idempotent)]
    return {
        "n": n,
        "gens": len(gens),
        "S": len(elements),
        "K": len(kernel),
        "G": len(kernel) // h_classes,
        "p": _period(gens, n, e, kernel),
        "W_mu": len(images) * factorial(m),
    }


def relabel(images, perm):
    """Conjugate a map by a permutation of the points: x -> perm(f(perm^-1 x))."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v - 1] = i + 1
    return [perm[images[inv[x] - 1] - 1] for x in range(len(perm))]


def weights(rng: random.Random, count: int, denominator: int, smallest: int = 1) -> list:
    """Weights a_i/denominator with every a_i >= smallest, summing to 1."""
    while True:
        cuts = sorted(rng.sample(range(1, denominator), count - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
        if min(parts) >= smallest:
            return [str(Fraction(a, denominator)) for a in parts]


def random_map(rng: random.Random, n: int) -> list:
    return [rng.randint(1, n) for _ in range(n)]


def random_perm(rng: random.Random, n: int) -> list:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return images


def recipe_a(rng: random.Random, n: int) -> dict:
    """Two random maps and one random permutation on n points."""
    gens = [random_map(rng, n), random_map(rng, n), random_perm(rng, n)]
    return {"n": n, "generators": gens, "weights": weights(rng, 3, 7)}


def recipe_b(rng: random.Random, n: int = 10) -> dict:
    """Maps commuting with the involution (1 2)(3 4)...: forces m_mu >= 2."""
    def twin(x):
        return x + 1 if x % 2 else x - 1

    def commuting(images_of_odd):
        f = [0] * n
        for x, y in zip(range(1, n + 1, 2), images_of_odd):
            f[x - 1] = y
            f[twin(x) - 1] = twin(y)
        return f

    pair_perm = random_perm(rng, n // 2)
    perm = commuting([2 * q - 1 + rng.randint(0, 1) for q in pair_perm])
    gens = [commuting([rng.randint(1, n) for _ in range(n // 2)]) for _ in range(2)]
    return {"n": n, "generators": gens + [perm], "weights": weights(rng, 3, 7)}
