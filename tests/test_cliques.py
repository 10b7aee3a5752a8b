import re
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from finevo import analyze_law
from finevo.cliques import (
    InvariantFamily,
    classify_family,
    compute_W,
    f_cliques,
    invariant_law,
    stationary_family,
)
from finevo.errors import ClassificationError, InputError, StructuralInconsistencyError
from finevo.measure import MappingLaw, RationalMeasure
from finevo.semigroup import generate, kernel
from finevo.transform import Transformation
from fuzzlaws import group_kernel_laws
from oracles import (
    apply,
    image_set,
    rank,
    rees_objects,
    rows_of,
    tuples,
    brute_force_closure,
    coordinate_marginal,
    deadlock_pairs,
    element,
    is_stable,
    measure_of,
    measure_product,
    push_tuples,
    stable_kernel_image_tuples,
    vector_of,
)

E = Transformation([4, 2, 2, 4, 5])
FE = Transformation([1, 3, 3, 1, 5])
GH = Transformation([5, 2, 2, 5, 4])


def _example_closure(a):
    return brute_force_closure([f.images for f in a.law.measure.support()])


def test_deadlock_golden(example_analysis):
    pairs = deadlock_pairs(_example_closure(example_analysis), 5)
    assert (2, 4) in pairs
    assert (1, 2) not in pairs  # ef = [2,2,4,4,5] merges 1 and 2


def test_every_pair_under_identity_semigroup_is_deadlocked():
    law = MappingLaw.from_dict({"n": 4, "generators": [[1, 2, 3, 4]], "weights": ["1"]})
    assert len(deadlock_pairs(brute_force_closure([(1, 2, 3, 4)]), 4)) == 6
    assert set(tuples(analyze_law(law).cliques.W_mu)) == set(permutations(range(1, 5)))


def test_f_cliques_golden(example_analysis):
    a = example_analysis
    assert tuples(a.cliques.f_cliques) == ((1, 3, 5), (2, 4, 5))
    assert tuples(f_cliques(a.rd.kernel)) == ((1, 3, 5), (2, 4, 5))
    assert a.cliques.f_cliques.shape[1] == a.cliques.m_mu


def test_f_cliques_of_permutation_group():
    c = Transformation([2, 3, 1])
    S = generate(rows_of([c]))
    assert tuples(f_cliques(S[kernel(S)])) == ((1, 2, 3),)


def test_W_mu_and_W_golden(example_analysis):
    cd = example_analysis.cliques
    assert cd.m_mu == 3
    assert len(cd.W_mu) == 12
    assert tuples(cd.W) == ((2, 4, 5),)
    e = rees_objects(example_analysis.rd).e
    assert len({apply(e, x) for x in tuples(cd.W_mu)}) == 6
    expected = {p for c in [(2, 4, 5), (1, 3, 5)] for p in permutations(c)}
    assert set(tuples(cd.W_mu)) == expected


def test_W_is_the_set_of_G_orbit_minima(example_analysis, cyclic3_analysis, p3h2_analysis,
                                         r7g2_analysis, fuzz_analyses):
    """W holds the least tuple of every G-orbit on e W_mu, the orbits
    composed one tuple and one element of G at a time."""
    analyses, _ = fuzz_analyses
    for a in [example_analysis, cyclic3_analysis, p3h2_analysis, r7g2_analysis,
              *analyses, *map(analyze_law, group_kernel_laws())]:
        rees = rees_objects(a.rd)
        eW_mu = {apply(rees.e, x) for x in tuples(a.cliques.W_mu)}
        minima = {min(apply(g, x) for g in rees.G) for x in eW_mu}
        assert tuples(a.cliques.W) == tuple(sorted(minima))


def test_W_mu_equals_definition_scan(example_analysis):
    # on the example, the stable distinct 3-tuples of the literal
    # "f x stays distinct for every f in S" definition are exactly W_mu
    from itertools import product

    closure = _example_closure(example_analysis)
    direct = {
        x
        for x in product(range(1, 6), repeat=3)
        if len(set(x)) == 3 and is_stable(closure, x)
    }
    assert set(tuples(example_analysis.cliques.W_mu)) == direct


# (2,3) is stable under [1,1,3], but {2,3} is not the image of a kernel
# element: the stable tuples are more than W_mu.
MERGE_LAW = {"n": 3, "generators": [[1, 1, 3]], "weights": ["1"]}


def test_W_mu_is_the_stable_orderings_of_kernel_images(
        example_analysis, cyclic3_analysis, p3h2_analysis, fuzz_analyses):
    analyses, _ = fuzz_analyses
    merge = analyze_law(MappingLaw.from_dict(MERGE_LAW))
    assert set(tuples(merge.cliques.W_mu)) == {(1, 3), (3, 1)}
    assert is_stable(brute_force_closure([(1, 1, 3)]), (2, 3))
    for a in [example_analysis, cyclic3_analysis, p3h2_analysis, merge] + analyses:
        gens = [f.images for f in a.law.measure.support()]
        assert set(tuples(a.cliques.W_mu)) == stable_kernel_image_tuples(gens)


def test_stability_invariant(example_analysis):
    a = example_analysis
    wset = set(tuples(a.cliques.W_mu))
    for f in map(element, a.closure):
        for x in wset:
            assert apply(f, x) in wset


def test_transitive_group_has_all_orderings():
    S = generate(rows_of([Transformation([2, 3, 1]), Transformation([2, 1, 3])]))
    a = analyze_law(
        MappingLaw.from_dict(
            {"n": 3, "generators": [[2, 3, 1], [2, 1, 3]], "weights": ["1/2", "1/2"]}
        )
    )
    assert len(a.cliques.W_mu) == 6  # all orderings of {1,2,3}
    assert len(a.cliques.W) == 1


def project(a, x) -> tuple:
    """(L-part, G-part, W-part) of the stable tuple x, read off the state
    tables at its position in W_mu."""
    cd, rees = a.cliques, rees_objects(a.rd)
    s = tuples(cd.W_mu).index(x)
    return rees.L[cd.state_l[s]], rees.G[cd.state_g[s]], tuples(cd.W)[cd.state_w[s]]


def test_projection_golden(example_analysis):
    a = example_analysis
    assert project(a, (3, 5, 1)) == (FE, GH, (2, 4, 5))
    assert project(a, (2, 4, 5)) == (E, E, (2, 4, 5))
    g = Transformation([2, 5, 5, 2, 4])
    assert project(a, (5, 2, 4)) == (E, g, (2, 4, 5))
    assert (1, 2, 3) not in tuples(a.cliques.W_mu)


def test_projection_round_trip(example_analysis):
    a = example_analysis
    for x in tuples(a.cliques.W_mu):
        l, g, w = project(a, x)
        assert apply(l * g, w) == x


def test_invariant_law_golden(example_analysis):
    a = example_analysis
    x = invariant_law(a, vector_of(tuples(a.cliques.W), {(2, 4, 5): 1}))
    lam = measure_of(tuples(a.cliques.W_mu), x)
    assert push_tuples(a.law, lam) == lam
    marginal = coordinate_marginal(lam, 1)
    assert marginal == RationalMeasure(
        {1: "1/9", 2: "2/9", 3: "1/9", 4: "2/9", 5: "3/9"}
    )
    assert measure_of(range(1, 6), a.cliques.first_marginal(x, 5)) == marginal


def test_invariant_law_rejects_mass_outside_W(example_analysis):
    a = example_analysis
    # a Lambda_W reaches invariant_law as a W vector, which w_vector builds
    with pytest.raises(InputError, match=r"mass at \(5, 4, 2\) outside W"):
        a.cliques.w_vector(RationalMeasure({(5, 4, 2): 1}))


def test_convex_combination_of_invariant_laws_is_invariant(p3h2_analysis):
    a = p3h2_analysis
    W, W_mu = tuples(a.cliques.W), tuples(a.cliques.W_mu)
    w0, w1 = W[0], W[1]
    lam0, lam1 = (measure_of(W_mu, invariant_law(a, vector_of(W, {w: 1})))
                  for w in (w0, w1))
    mixed = RationalMeasure({x: Fraction(1, 4) * lam0[x] + Fraction(3, 4) * lam1[x]
                             for x in set(lam0.support()) | set(lam1.support())})
    assert push_tuples(a.law, mixed) == mixed


def test_classify_unique_invariant_law(example_analysis):
    a = example_analysis
    lam = invariant_law(a, vector_of(tuples(a.cliques.W), {(2, 4, 5): 1}))
    family = classify_family(a, lam)
    assert family.c == (Fraction(1),)
    assert measure_of(tuples(a.cliques.W), family.Lambda_W[0]) == RationalMeasure({(2, 4, 5): 1})


def test_classify_single_phase_family(p3h2_analysis):
    a = p3h2_analysis
    w = tuples(a.cliques.W)[0]
    group = rees_objects(a.rd)
    omega_H = RationalMeasure(dict.fromkeys(group.H, Fraction(1, len(group.H))))
    lam0 = measure_product([measure_of(group.L, a.limits.eta_L), group.gamma, omega_H, w])
    family = classify_family(a, vector_of(tuples(a.cliques.W_mu), lam0))
    assert family.c == (0, 1, 0)
    assert measure_of(tuples(a.cliques.W), family.Lambda_W[1]) == RationalMeasure({w: 1})


def _family_oracle(a, family, k) -> RationalMeasure:
    """Lambda_k = sum_i c_i eta_L gamma^(k+i) omega_H Lambda_W^i, by products
    of transformations: gamma^m is e gamma ... gamma, m factors of gamma."""
    group = rees_objects(a.rd)
    omega_H = RationalMeasure(dict.fromkeys(group.H, Fraction(1, len(group.H))))
    eta_L, W = measure_of(group.L, a.limits.eta_L), tuples(a.cliques.W)
    acc = {}
    for i, (ci, lam) in enumerate(zip(family.c, family.Lambda_W)):
        power = group.e
        for _ in range(k + i):
            power = power * group.gamma
        if ci:
            for x, v in measure_product([eta_L, power, omega_H, measure_of(W, lam)]).items():
                acc[x] = acc.get(x, Fraction(0)) + ci * v
    return RationalMeasure(acc)


def _assert_law_at_matches_the_oracle(a, family) -> None:
    W_mu = tuples(a.cliques.W_mu)
    for k in range(a.rd.p + 1):
        assert measure_of(W_mu, family.law_at(a, k)) == _family_oracle(a, family, k)


def test_classify_round_trip(p3h2_analysis):
    a = p3h2_analysis
    w0, w1 = tuples(a.cliques.W)[0], tuples(a.cliques.W)[1]
    family = InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=tuple(vector_of(tuples(a.cliques.W), lam) for lam in (
            {w0: 1}, {w0: "1/2", w1: "1/2"}, {w1: 1})),
    )
    _assert_law_at_matches_the_oracle(a, family)
    lam0 = family.law_at(a, 0)
    back = classify_family(a, lam0)
    assert back.c == family.c
    assert ([measure_of(tuples(a.cliques.W), lam) for lam in back.Lambda_W]
            == [measure_of(tuples(a.cliques.W), lam) for lam in family.Lambda_W])
    # the family reproduces the recursion Lambda_k = mu Lambda_{k-1}
    current = measure_of(tuples(a.cliques.W_mu), lam0)
    for k in range(1, 4):
        current = push_tuples(a.law, current)
        assert current == measure_of(tuples(a.cliques.W_mu), family.law_at(a, k))


def test_classify_rejects_non_family_law(p3h2_analysis):
    a = p3h2_analysis
    # uniform on W_mu is not of the family form unless eta_L/omega_H arrange it
    lam = vector_of(tuples(a.cliques.W_mu), {tuples(a.cliques.W_mu)[0]: 1})
    with pytest.raises(ClassificationError) as err:
        classify_family(a, lam)
    assert err.value.residual


def test_a_wrong_eta_L_fails_invariance_and_the_family_recursion(example_analysis):
    """With eta_L replaced by the point law at L[0], eta_L omega_G Lambda_W
    is not mu-invariant, and the family read off it reassembles it but
    fails the recursion at step 1. The residual maps each W_mu tuple where
    mu Lambda_0 != Lambda_1 (= Lambda_0, as p = 1) to the two masses."""
    a = example_analysis
    b = replace(a, limits=replace(a.limits, eta_L=(np.array([1, 0], dtype=object), 1)))
    W, W_mu = tuples(a.cliques.W), tuples(a.cliques.W_mu)
    uniform = vector_of(W, dict.fromkeys(W, Fraction(1, len(W))))
    with pytest.raises(StructuralInconsistencyError, match="assembled law is not mu-invariant"):
        invariant_law(b, uniform)
    lam0 = stationary_family(b.rd.p, uniform).law_at(b, 0)
    with pytest.raises(ClassificationError,
                       match=re.escape("family recursion fails at step 1")) as err:
        classify_family(b, lam0)
    got, want = push_tuples(b.law, measure_of(W_mu, lam0)), measure_of(W_mu, lam0)
    residual = {x: (got[x], want[x]) for x in W_mu if got[x] != want[x]}
    assert residual and err.value.residual == residual


def test_f_cliques_are_maximal_deadlocked_sets(example_analysis):
    a = example_analysis
    n = a.law.n
    pairs = deadlock_pairs(_example_closure(a), n)
    for clique in a.cliques.f_cliques:
        members = set(clique)
        for x in members:
            for y in members:
                if x < y:
                    assert (x, y) in pairs
        # any strict superset picks up a mergeable pair
        for extra in set(range(1, n + 1)) - members:
            grown = sorted(members | {extra})
            assert any(
                (x, y) not in pairs
                for i, x in enumerate(grown)
                for y in grown[i + 1 :]
            )


def test_rank_and_clique_kernel_criteria_agree(example_analysis, fuzz_analyses):
    analyses, _ = fuzz_analyses
    for a in [example_analysis] + analyses[:40]:
        cliques = set(tuples(a.cliques.f_cliques))
        kset = set(rees_objects(a.rd).kernel)
        for g in map(element, a.closure):
            in_by_rank = g in kset
            in_by_clique = tuple(sorted(image_set(g))) in cliques and (
                rank(g) == a.cliques.m_mu
            )
            image_is_clique = tuple(sorted(image_set(g))) in cliques
            assert in_by_rank == image_is_clique == in_by_clique


def test_classify_round_trip_on_fuzz_instances(fuzz_analyses):
    import random

    analyses, _ = fuzz_analyses
    rng = random.Random(99)
    cyclic = [a for a in analyses if a.rd.p > 1][:12]
    assert cyclic, "corpus must contain instances with p > 1"
    zero_seen = False
    for a in cyclic:
        p = a.rd.p
        raw = [rng.randint(0, 4) for _ in range(p)]
        if sum(raw) == 0:
            raw[0] = 1
        total = sum(raw)
        c = tuple(Fraction(r, total) for r in raw)
        W = tuples(a.cliques.W)
        lambdas = tuple(
            vector_of(W, {rng.choice(W): 1}) for _ in range(p)
        )
        family = InvariantFamily(c=c, Lambda_W=lambdas)
        _assert_law_at_matches_the_oracle(a, family)
        zero_seen |= 0 in c
        back = classify_family(a, family.law_at(a, 0))
        assert back.c == c
        for ci, got, want in zip(c, back.Lambda_W, lambdas):
            if ci > 0:
                assert measure_of(W, got) == measure_of(W, want)
    assert zero_seen, "a family with a coefficient of 0 must be among them"


def _assert_joint_is_c_times_lambda(family) -> None:
    table, den = family.joint()
    assert table.shape == (len(family.c), len(family.Lambda_W[0][0]))
    for i, (ci, (nums, lam_den)) in enumerate(zip(family.c, family.Lambda_W)):
        for w, num in enumerate(nums):
            assert Fraction(table[i, w], den) == ci * Fraction(num, lam_den)


def test_joint_is_the_phase_w_table_of_the_family(p3h2_analysis, fuzz_analyses):
    """``InvariantFamily.joint`` is c_i Lambda_W^i[w] cell by cell: on the
    p3_h2 config family and on random families of the cyclic fuzz
    instances, one of them with a coefficient 0."""
    import random

    W = tuples(p3h2_analysis.cliques.W)
    _assert_joint_is_c_times_lambda(InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=tuple(vector_of(W, lam) for lam in (
            {W[0]: 1}, {W[0]: "1/2", W[1]: "1/2"}, {W[1]: 1}))))
    analyses, _ = fuzz_analyses
    rng = random.Random(7)

    def weights(size: int) -> list:
        raw = [rng.randint(0, 4) for _ in range(size)]
        raw[0] += 0 if sum(raw) else 1
        return raw

    zero_seen = False
    for a in [a for a in analyses if a.rd.p > 1][:12]:
        raw = weights(a.rd.p)
        c = tuple(Fraction(r, sum(raw)) for r in raw)
        # W vectors over a denominator that need not be the least one
        lambdas = tuple((np.array(lam, dtype=object), sum(lam))
                        for lam in (weights(len(a.cliques.W)) for _ in c))
        _assert_joint_is_c_times_lambda(InvariantFamily(c=c, Lambda_W=lambdas))
        zero_seen |= 0 in c
    assert zero_seen, "a family with a coefficient of 0 must be among them"


@pytest.mark.parametrize("name", ["example", "p3h2", "r7g2"])
def test_stationary_family_joint_is_omega_c_times_lambda(request, name):
    """The stationary family's joint is omega_C x Lambda_W: Lambda_W in
    every phase over p times its denominator, as rationals."""
    a = request.getfixturevalue(f"{name}_analysis")
    W = tuples(a.cliques.W)
    lam, lam_den = vector_of(W, {W[0]: "1/3", W[-1]: "2/3"} if len(W) > 1 else {W[0]: 1})
    p = a.rd.p
    table, den = stationary_family(p, (lam, lam_den)).joint()
    assert ([Fraction(x, den) for x in table.ravel()]
            == [Fraction(x, lam_den * p) for x in np.tile(lam, p)])


def test_compute_W_on_trivial_semigroup():
    law = MappingLaw.from_dict({"n": 3, "generators": [[1, 2, 3]], "weights": ["1"]})
    a = analyze_law(law)
    cd = a.cliques
    assert cd.m_mu == 3
    assert len(cd.W_mu) == 6
    assert tuples(cd.W) == tuples(cd.W_mu)  # trivial group: all orbits are singletons
    fresh = compute_W(a.rd)
    assert tuples(fresh.W) == tuples(cd.W)


CONSTANT5 = {"n": 5, "generators": [[1, 1, 1, 1, 1]], "weights": ["1"]}


@pytest.mark.parametrize("field, tampered, message", [
    ("L", lambda rd: rd.L[:1], "L G W misses part of W_mu"),
    ("G", lambda rd: np.vstack([rd.G, np.ones_like(rd.G[:1])]), "a G-orbit leaves W_mu"),
    ("L", lambda rd: np.vstack([rd.L, np.ones_like(rd.L[:1])]), "an L G W tuple lies outside W_mu"),
    pytest.param("L", lambda rd: rd.kernel, "L G W misses part of W_mu", id="kernel as L"),
    pytest.param("G", lambda rd: rd.G[1:], "L G W misses part of W_mu", id="G without e"),
    ("generators", lambda rd: analyze_law(MappingLaw.from_dict(CONSTANT5)).rd.kernel,
     "[1,1,1,1,1] maps the stable tuple (1, 3, 5) outside L G W"),
])
def test_compute_W_rejects_a_tampered_decomposition(example_analysis, field, tampered,
                                                    message):
    """A ReesData of the example law with one factor replaced: one L-part
    leaves W_mu uncovered, the constant map [1,1,1,1,1] added to G sends a
    G-orbit and added to L an L G W tuple outside W_mu, the whole kernel as
    L and G without its first element (no group) give L G W of the wrong
    size, and a constant map as the only generator merges every stable
    tuple."""
    rd = example_analysis.rd
    with pytest.raises(StructuralInconsistencyError, match=re.escape(message)):
        compute_W(replace(rd, **{field: tampered(rd)}))
