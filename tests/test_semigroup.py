import dataclasses
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from finevo import example_law, semigroup
from finevo.errors import InputError, ResourceLimitError, StructuralInconsistencyError
from finevo.measure import MappingLaw
from finevo.semigroup import generate, kernel, left_products, literals, rees_at
from finevo.transform import Transformation
from fuzzlaws import cyclic3_law, group_kernel_laws, p3_h2_law
from oracles import (
    brute_force_closure,
    brute_force_minimal_ideal,
    element,
    is_idempotent,
    power,
    project,
    rees_objects,
    rees_product,
    rows_of,
    shortest_words,
    tuples,
    word_closure,
)

F = Transformation([2, 3, 4, 1, 5])
G = Transformation([2, 5, 5, 2, 4])
E = power(G, 3)
FE = F * E
EF = E * F
H = power(F, 2) * E

# frozen from the brute-force closure oracle on {f, g}; re-derived below
EXAMPLE_CLOSURE_SIZE = 28
EXAMPLE_KERNEL_SIZE = 24


@pytest.fixture(scope="module")
def S():
    return generate(rows_of([F, G]))


@pytest.fixture(scope="module")
def elements(S):
    return [element(row) for row in S]


def position(rows, f) -> int:
    """The position of the transformation f among the rows."""
    return tuples(rows).index(f.images)


@pytest.fixture(scope="module")
def K(S):
    return [element(row) for row in S[kernel(S)]]


@pytest.fixture(scope="module")
def rd(S):
    ker = S[kernel(S)]
    return rees_at(rows_of([F, G]), ker, position(ker, E))


@pytest.fixture(scope="module")
def rees(rd):
    return rees_objects(rd)


def test_closure_matches_brute_force_oracle(S, elements):
    oracle = brute_force_closure([F.images, G.images])
    assert len(oracle) == len(S) == EXAMPLE_CLOSURE_SIZE
    assert {f.images for f in elements} == oracle


def test_closure_contains_golden_elements(elements):
    for t in (E, H, FE, EF):
        assert t in elements


def test_single_identity_generator():
    S = generate(rows_of([Transformation([1, 2, 3, 4])]))
    assert len(S) == 1


def test_element_cap():
    with pytest.raises(ResourceLimitError):
        generate(rows_of([F, G]), cap=10)


def test_canonical_order_starts_with_generators(elements):
    assert elements[0] == F and elements[1] == G


def test_product_table_closed(S, elements):
    eset = set(elements)
    assert all(f * g in eset for f in elements for g in elements)
    assert ([elements[i] for i in left_products(S, rows_of([F, G]))]
            == [f * s for f in (F, G) for s in elements])


def test_word_for_reconstructs(elements):
    # the canonical order is BFS by shortest word length, each layer sorted
    words = shortest_words([F.images, G.images])
    for target in elements:
        acc = Transformation(words[target.images][0])
        for t in words[target.images][1:]:
            acc = acc * Transformation(t)
        assert acc == target
    keys = [(len(words[f.images]), f) for f in elements]
    assert keys == sorted(keys)
    assert words[E.images] == [G.images] * 3


def _assert_rows_match_the_oracles(generators, closure_oracle) -> tuple:
    """The rows are the oracle's closure, ordered by (shortest-word length,
    image tuple); the kernel is the minimal ideal; the literals match."""
    rows = generate(rows_of(generators))
    elements = [element(row) for row in rows]
    images = [f.images for f in elements]
    gens = [g.images for g in generators]
    assert len(set(images)) == len(images)
    assert set(images) == closure_oracle(gens)
    words = shortest_words(gens)
    keys = [(len(words[x]), x) for x in images]
    assert keys == sorted(keys)
    assert set(tuples(rows[kernel(rows)])) == brute_force_minimal_ideal(set(images))
    assert literals(rows) == [f.literal() for f in elements]
    assert ([elements[i] for i in left_products(rows, rows_of(generators))]
            == [g * s for g in generators for s in elements])
    return rows


def test_closure_rows_match_the_oracles_on_every_law(fuzz_corpus):
    laws = [example_law(), cyclic3_law(), p3_h2_law()] + fuzz_corpus
    assert len(laws) == 211
    for law in laws:
        _assert_rows_match_the_oracles(law.measure.support(), brute_force_closure)


def test_closure_rows_match_the_oracles_on_a_large_closure():
    # two seeded random maps on six points; the pairwise oracle is
    # quadratic in the closure size, the worklist oracle linear
    rng = random.Random(102)
    gens = [Transformation([rng.randint(1, 6) for _ in range(6)]) for _ in range(2)]
    rows = _assert_rows_match_the_oracles(gens, word_closure)
    assert (len(rows), len(kernel(rows))) == (2610, 5)


def test_closure_rows_match_across_the_three_visited_structures():
    # generate marks the rows it has seen in a flag table up to n = 8, in
    # sorted runs of int64 codes up to n = 15 and in a set of byte keys from
    # n = 16: two seeded random maps on eight points, and the same maps with
    # the points from 9 up to 9, 15 and 16 fixed, close to the same rows in
    # the same order, and the cap stops each at the same size
    rng = random.Random(25)
    gens = [Transformation([rng.randint(1, 8) for _ in range(8)]) for _ in range(2)]
    rows = _assert_rows_match_the_oracles(gens, word_closure)
    assert (len(rows), len(kernel(rows))) == (4311, 8)
    laws = [gens] + [[Transformation([*g.images, *range(9, n + 1)]) for g in gens]
                     for n in (9, 15, 16)]
    for law in laws:
        assert np.array_equal(generate(rows_of(law))[:, :8], rows)
        with pytest.raises(ResourceLimitError, match=r"element cap \(4310\)"):
            generate(rows_of(law), cap=len(rows) - 1)
        assert len(generate(rows_of(law), cap=len(rows))) == len(rows)


@pytest.mark.parametrize("n, seed, sizes", [(255, 6, (1742, 8)), (256, 5, (1442, 8)),
                                            (10, 3, (528, 8)), (100, 2, (737, 5)),
                                            (15, 3, (3184, 8)), (16, 4, (4067, 7)),
                                            (7, 3, (867, 7)), (8, 0, (1191, 8)),
                                            (9, 1, (1076, 8))])
def test_closure_rows_match_the_oracles_across_the_one_byte_image(n, seed, sizes):
    # rows hold one byte per image up to n = 255 and two from n = 256, where
    # the keys must be big-endian to sort as the rows; seeded: a permutation
    # of the top eight points (all seven at n = 7) and two maps into them, so
    # the images 255 and 256 are common. At n = 10 and n = 100 the literal
    # tokens ",y" widen by a digit, so the literals of the shorter images are
    # NUL-padded; n = 9 is the last width with no padding. At n = 15 the rows
    # into the top points have codes near 15 ** 15, the largest int64 codes;
    # at n = 16 they would pass 2 ** 63. kernel's n + 1 image flags fill one
    # 8-byte word at n = 7 and spill into a second at n = 8
    rng = random.Random(seed)
    top = range(max(1, n - 7), n + 1)
    perm = list(range(1, n + 1))
    for x, y in zip(top, rng.sample(top, len(top))):
        perm[x - 1] = y
    gens = [Transformation(perm)]
    for _ in range(2):
        image = rng.sample(top, rng.randint(2, 5))
        gens.append(Transformation([rng.choice(image) for _ in range(n)]))
    rows = _assert_rows_match_the_oracles(gens, word_closure)
    assert (len(rows), len(kernel(rows))) == sizes
    assert rows.dtype == (np.uint8 if n <= 255 else np.uint16)


def test_closure_and_kernel_working_memory():
    """On T_6 (a cycle, a transposition and a rank drop generate all 46,656
    maps) ``generate`` peaks within 4 and ``kernel`` within 6 times the
    closure's bytes: neither copies the uint8 rows it works on to int64, at
    8 bytes per image."""
    law = MappingLaw.from_dict({"n": 6, "generators": [[2, 3, 4, 5, 6, 1], [2, 1, 3, 4, 5, 6],
                                                       [1, 1, 3, 4, 5, 6]],
                                "weights": ["1/3"] * 3})
    closure = generate(law.rows)
    assert len(closure) == 6 ** 6
    for step, arg, bound in ((generate, law.rows, 4), (kernel, closure, 6)):
        tracemalloc.start()
        try:
            step(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * closure.nbytes, step.__name__


@pytest.mark.parametrize("law", [
    example_law(), p3_h2_law(),
    *(MappingLaw.from_dict({"n": n, "generators": [[2, 3, 4, 1, 5, *range(6, n + 1)],
                                                   [2, 5, 5, 2, 4, *range(6, n + 1)]],
                            "weights": ["1/2", "1/2"]}) for n in (12, 16))])
def test_generate_closes_unsorted_repeated_rows_as_the_distinct_sorted_rows(law):
    # the first layer passes through the dedupe of every later layer (flag
    # table, int64 code runs, byte keys), so the generators come first sorted
    # and distinct, and the cap counts the distinct generators
    closure = generate(law.rows)
    messy = np.concatenate([law.rows[::-1], law.rows])
    assert np.array_equal(generate(messy), closure) and generate(messy).dtype == closure.dtype
    assert np.array_equal(generate(messy, cap=len(closure)), closure)
    with pytest.raises(ResourceLimitError, match=rf"element cap \({len(closure) - 1}\)"):
        generate(messy, cap=len(closure) - 1)


def _cycles(*lengths) -> list:
    """The images of a permutation of 1..sum(lengths) whose cycles, of these
    lengths, run over consecutive points."""
    images, points = [], 1
    for length in lengths:
        images += [points + (i + 1) % length for i in range(length)]
        points += length
    return images


def test_closure_rows_match_the_oracles_on_a_deep_closure():
    # a permutation of order 4 * 5 * 7 * 9 = 1260 and a constant map: the
    # closure has a BFS layer for every word length up to 1260, none of
    # more than two rows
    perm = _cycles(4, 5, 7, 9)
    points = len(perm) + 1
    gens = [Transformation(perm + [points]), Transformation([1] * points)]
    rows = _assert_rows_match_the_oracles(gens, word_closure)
    assert (len(rows), len(kernel(rows))) == (1264, 4)


def test_closure_rows_match_the_oracles_on_a_deep_closure_of_int64_codes():
    # a permutation of order 3 * 5 * 7 = 105 on 15 points and a constant map:
    # 105 layers of one or two rows, each a new run of codes, so the runs
    # merge many times
    gens = [Transformation(_cycles(3, 5, 7)), Transformation([1] * 15)]
    rows = _assert_rows_match_the_oracles(gens, word_closure)
    assert (len(rows), len(kernel(rows))) == (108, 3)
    assert max(map(len, shortest_words([g.images for g in gens]).values())) == 105


def test_closure_rows_hold_images_above_255():
    # the transposition (1 2) and the constant map to 1 on 300 points
    gens = [Transformation([2, 1, *range(3, 301)]), Transformation([1] * 300)]
    rows = _assert_rows_match_the_oracles(gens, brute_force_closure)
    assert {element(row).images[:3] for row in rows} == {
        (2, 1, 3), (1, 2, 3), (1, 1, 1), (2, 2, 2)}
    # a row holds images up to the largest code point, and the domain is not
    # bounded by it: a constant map above it closes to its single row
    top = Transformation([sys.maxunicode] * sys.maxunicode)
    assert list(map(element, generate(rows_of([top])))) == [top]
    above = Transformation([1] * (sys.maxunicode + 1))
    assert list(map(element, generate(rows_of([above])))) == [above]


def test_kernel_ranks_rows_above_the_surrogate_code_points():
    # from n = 0xD800 on, rows hold the code points 0xD800-0xDFFF, which the
    # plain utf-32 codec refuses; the kernel keeps the len(set(row)) rule
    n = 55_300
    rows = generate(rows_of([Transformation([2, 1, *range(3, n + 1)]), Transformation([1] * n)]))
    ranks = [len(set(row)) for row in rows]
    assert sorted(ranks) == [1, 1, n, n]
    assert np.array_equal(kernel(rows), np.flatnonzero(np.array(ranks) == 1))


def test_idempotents_golden(elements):
    idem = [f for f in elements if is_idempotent(f)]
    assert E in idem
    assert FE in idem and FE * FE == FE
    assert EF in idem and EF * EF == EF
    assert H * H == E and H not in idem


def test_idempotents_of_a_permutation_group():
    S = generate(rows_of([Transformation([2, 3, 1])]))
    assert [f for f in map(element, S) if is_idempotent(f)] == [Transformation([1, 2, 3])]


def test_kernel_matches_minimal_ideal_oracle(elements, K):
    assert len(K) == EXAMPLE_KERNEL_SIZE
    oracle = brute_force_minimal_ideal({f.images for f in elements})
    assert {f.images for f in K} == oracle


def test_kernel_of_a_group_is_everything():
    c = Transformation([2, 3, 1])
    S = generate(rows_of([c]))
    assert set(tuples(S[kernel(S)])) == set(tuples(S))


def test_kernel_is_an_ideal(elements, K):
    kset = set(K)
    for s in elements:
        for z in K:
            assert s * z in kset and z * s in kset


def test_rees_golden_sets(rd, rees):
    assert rees.e == E and rd.coords[rd.e].tolist() == [rees.L.index(E), rees.G.index(E),
                                                        rees.R.index(E)]
    assert set(rees.L) == {E, FE}
    assert set(rees.R) == {E, EF}
    assert len(rees.G) == 6
    assert set(rees.G) == {E, G, power(G, 2), H, G * H, power(G, 2) * H}


def test_group_relations(rees):
    assert power(G, 3) == E and H * H == E
    assert H * G == power(G, 2) * H
    assert H * power(G, 2) == G * H
    assert rees.inverse[G] == power(G, 2)
    assert rees.inverse[E] == E


def test_rees_requires_kernel_idempotent(S):
    ker = S[kernel(S)]
    with pytest.raises(InputError, match=re.escape("[2,5,5,2,4] is not idempotent")):
        rees_at(rows_of([F, G]), ker, position(ker, G))  # in the kernel but not idempotent


def test_project_golden(rees):
    assert project(rees, FE) == (FE, E, E)
    assert project(rees, E) == (E, E, E)
    assert project(rees, G) == (E, G, E)


def test_project_round_trip(rd, rees, K):
    for z, (i, j, k) in zip(K, rd.coords):
        l, g, r = project(rees, z)
        assert l in set(rees.L) and g in set(rees.G) and r in set(rees.R)
        assert l * g * r == z
        assert (rees.L[i], rees.G[j], rees.R[k]) == (l, g, r)
    with pytest.raises(InputError):
        project(rees, F)


def test_product_then_project_is_identity(rees):
    for l in rees.L:
        for g in rees.G:
            for r in rees.R:
                assert project(rees, l * g * r) == (l, g, r)


def test_rl_contained_in_g(rees):
    gset = set(rees.G)
    for r in rees.R:
        for l in rees.L:
            assert r * l in gset


def test_idempotency_criterion(rees):
    for l in rees.L:
        for g in rees.G:
            for r in rees.R:
                z = l * g * r
                assert (z * z == z) == (r * l == rees.inverse[g])


def test_kernel_idempotents_are_primitive(K):
    idem = [z for z in K if is_idempotent(z)]
    for e1 in idem:
        for z in idem:
            if e1 * z == z and z * e1 == z:
                assert e1 == z


def test_trivial_kernel_decomposition():
    c = Transformation([1, 1])
    S = generate(rows_of([c]))
    rd = rees_at(rows_of([c]), S[kernel(S)], 0)
    assert tuples(rd.L) == tuples(rd.G) == tuples(rd.R) == ((1, 1),)


def test_coset_structure_single_coset(rd, rees):
    # the example law has period 1: H = G and gamma = e
    group = rees
    assert (rd.p, set(group.H), group.gamma, group.C) == (1, set(rees.G), E, (E,))
    assert rd.H.tolist() == list(range(6)) and rd.C.tolist() == [rees.G.index(E)]
    assert group.coset_of == {g: 0 for g in rees.G}


def test_coset_structure_cyclic_group():
    g = Transformation([2, 3, 1])
    ident = Transformation([1, 2, 3])
    S = generate(rows_of([g]))
    ker = S[kernel(S)]
    rd = rees_at(rows_of([g]), ker, position(ker, ident))
    group = rees_objects(rd)
    assert (rd.p, group.H, group.gamma) == (3, (ident,), g)
    assert group.C == (ident, g, g * g)
    assert group.coset_of == {ident: 0, g: 1, g * g: 2}
    assert group.inverse == {ident: ident, g: g * g, g * g: g}


S3 = {"e": E, "g": G, "g2": power(G, 2), "h": H, "gh": G * H, "g2h": power(G, 2) * H}


@pytest.mark.parametrize("p, parts, message", [
    (3, ("e", "g h"), "|H| * p != |G|"),
    (2, ("g g2 h", "e gh g2h"), "H does not contain the unit"),
    (2, ("e g h", "g2 gh g2h"), "H is not closed under products"),
    (3, ("e h", "g gh"), "H is not normal in G"),
    (2, ("e g g2", "h gh"), "successor coset has wrong size"),
    (2, ("e g g2", "e g g2"), "cosets of H are not disjoint"),
])
def test_rees_at_rejects_a_wrong_coset_structure(S, K, monkeypatch, p, parts, message):
    """Cyclic classes whose G-parts are not the cosets of a normal subgroup
    fail the coset checks (the walk of the example law has p = 1)."""
    states = sorted({K.index(z * E) for z in K})
    classes = [[z for z in states if E * K[z] * E in {S3[x] for x in part.split()}]
               for part in parts]
    monkeypatch.setattr(semigroup, "chain_period_and_classes",
                        lambda *args: (p, classes + [[]] * (p - len(classes))))
    with pytest.raises(StructuralInconsistencyError, match=re.escape(message)):
        rees_at(rows_of([F, G]), S[kernel(S)], K.index(E))


@pytest.mark.parametrize("e, message", [
    (E, "L * G * R does not cover the kernel"),
    (power(F, 4), "inverse law fails in the group factor"),
])
def test_rees_at_rejects_an_ideal_larger_than_the_kernel(S, e, message):
    # the whole closure is an ideal; at the identity its "group" eSe is all
    # of it, a monoid without inverses
    with pytest.raises(StructuralInconsistencyError, match=re.escape(message)):
        rees_at(rows_of([F, G]), S, position(S, e))


def test_rees_at_rejects_a_kernel_that_is_not_an_ideal(S):
    # without G, the products f * z and z * f leave the set
    ker = S[kernel(S)]
    ker = ker[[z != G.images for z in tuples(ker)]]
    with pytest.raises(StructuralInconsistencyError, match="minimal-rank set is not an ideal"):
        rees_at(rows_of([F, G]), ker, position(ker, E))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_rees_at_rejects_a_reducible_right_walk(rd, monkeypatch, direction):
    """Successors on eK that leave e stuck (forward) or unreachable
    (backward) fail the right walk's strong-connectivity check; the left
    walk keeps its true successors."""
    real = semigroup.walk_distances

    def cut(states, steps, start, walk):
        if walk.startswith("right"):
            size = len(steps[0])
            if direction == "forward":
                steps = [[start] * size]
            else:
                steps = [[s if z == start else z for z in range(size)] for s in states]
        return real(states, steps, start, walk)

    monkeypatch.setattr(semigroup, "walk_distances", cut)
    with pytest.raises(StructuralInconsistencyError,
                       match=re.escape(f"right walk on eK is not irreducible ({direction})")):
        rees_at(rows_of([F, G]), rd.kernel, rd.e)


def test_rees_coordinate_products_match_composition(example_analysis, fuzz_analyses,
                                                    monkeypatch):
    """Every product read off the Rees tables is the composition of the
    transformations: kernel pairs by the Rees-matrix product, generators by
    the left and right tables, the tables L x G x R, G x G and R x L, the
    inverses and the coset of every element of G. The group-kernel tables
    are built with G x G composed one row at a time and must equal those
    composed in one block."""
    analyses, _ = fuzz_analyses
    laws = group_kernel_laws()

    def decomposed(law):
        S = generate(law.rows)
        k = S[kernel(S)]
        return rees_at(law.rows, k, next(z for z, f in enumerate(tuples(k))
                                               if is_idempotent(Transformation(f))))

    whole = [decomposed(law) for law in laws]
    monkeypatch.setattr(semigroup, "BLOCK", 1)
    rds = [example_analysis.rd] + [a.rd for a in analyses] + [decomposed(law) for law in laws]
    fields = [f.name for f in dataclasses.fields(semigroup.ReesData)]
    for x, y in zip(rds[-5:], whole):
        assert all(np.array_equal(getattr(x, f), getattr(y, f)) for f in fields)
    assert [len(rd.kernel) for rd in rds[-5:]] == [120, 60, 24, 72, 6]
    for rd in rds:
        rees = rees_objects(rd)
        K, G = rees.kernel, rees.G
        for a, x in enumerate(K):
            for b, y in enumerate(K):
                assert K[rees_product(rd, a, b)] == x * y
        for f, left, right in zip(rees.generators, rd.left, rd.right):
            assert [K[z] for z in left] == [f * z for z in K]
            assert [K[z] for z in right] == [z * f for z in K]
        for l, x in enumerate(rees.L):
            for g, y in enumerate(G):
                for r, z in enumerate(rees.R):
                    assert K[rd.at[l, g, r]] == x * y * z
                    assert rd.coords[rd.at[l, g, r]].tolist() == [l, g, r]
        assert [[G[c] for c in row] for row in rd.gmul] == [[x * y for y in G] for x in G]
        assert ([[G[c] for c in row] for row in rd.sandwich]
                == [[r * l for l in rees.L] for r in rees.R])
        assert [G[b] * x for b, x in zip(rd.inverse, G)] == [rees.e] * len(G)
        cosets = {G[c] * G[h]: j for j, c in enumerate(rd.C) for h in rd.H}
        assert cosets == rees.coset_of
