import re
from fractions import Fraction

import numpy as np
import pytest

from finevo import analyze_law, example_law
from finevo.cliques import classify_family, invariant_law
from finevo.errors import InputError
from finevo.limits import _act, boundary_stationary, solve_stationary
from finevo.measure import MappingLaw, RationalMeasure
from finevo.transform import Transformation
from fuzzlaws import group_kernel_laws
from oracles import (
    convolve,
    coordinate_marginal,
    marginal_transition_matrix,
    measure_of,
    measure_product,
    power,
    push_tuples,
    tuples,
    vector_of,
)

F = Transformation([2, 3, 4, 1, 5])
G = Transformation([2, 5, 5, 2, 4])
E = power(G, 3)
FE = F * E
EF = E * F
H = power(F, 2) * E


def group_elements():
    return [E, G, power(G, 2), H, G * H, power(G, 2) * H]


def uniform(support) -> RationalMeasure:
    return RationalMeasure(dict.fromkeys(support, Fraction(1, len(support))))


def test_weights_validated():
    with pytest.raises(InputError):
        RationalMeasure({E: "1/2", FE: "1/3"})
    with pytest.raises(InputError):
        RationalMeasure({})
    with pytest.raises(InputError):
        RationalMeasure({E: 0.5})  # floats are not exact
    with pytest.raises(InputError):
        RationalMeasure({E: "-1/2", FE: "3/2"})


def test_measure_is_not_iterable():
    # __getitem__ answers 0 off the support, so the sequence fallback of
    # iter() would yield Fraction(0) forever; iteration goes through items()
    law = example_law()
    with pytest.raises(TypeError):
        iter(law.measure)
    assert F in law.measure and E not in law.measure
    assert law.measure[E] == 0 and [f for f, _ in law.measure.items()] == [F, G]


def test_convolve_law_with_left_factor():
    mu = RationalMeasure({F: "1/2", G: "1/2"})
    eta_L = RationalMeasure({E: "2/3", FE: "1/3"})
    out = convolve(mu, eta_L)
    assert out == RationalMeasure({FE: "1/3", G: "1/2", H: "1/6"})


def test_dirac_convolution_idempotent():
    de = RationalMeasure({E: 1})
    assert convolve(de, de) == de


def test_haar_idempotence_by_direct_convolution():
    omega = uniform(group_elements())
    assert convolve(omega, omega) == omega


def test_support_product_rule():
    mu = RationalMeasure({F: "1/2", G: "1/2"})
    eta_L = RationalMeasure({E: "2/3", FE: "1/3"})
    out = convolve(mu, eta_L)
    products = {a * b for a in mu.support() for b in eta_L.support()}
    assert set(out.support()) == products


def test_uniform_and_point(p3h2_analysis):
    # uniform and point laws on W, parsed as measures, become W vectors over
    # the least common denominator
    cd = p3h2_analysis.cliques
    omega = uniform(tuples(cd.W))
    assert all(w == Fraction(1, 120) for _, w in omega.items())
    nums, den = cd.w_vector(omega)
    assert (nums.tolist(), den) == ([1] * 120, 120)
    nums, den = cd.w_vector(RationalMeasure({tuples(cd.W)[1]: 1}))
    assert (nums.tolist(), den) == ([0, 1] + [0] * 118, 1)
    with pytest.raises(InputError, match="nonempty support"):
        RationalMeasure(dict.fromkeys([], Fraction(1)))


def test_push_tuples_identity():
    lam = RationalMeasure({(2, 4, 5): "1/2", (1, 3, 5): "1/2"})
    ident = MappingLaw(5, RationalMeasure({Transformation([1, 2, 3, 4, 5]): 1}))
    assert push_tuples(ident, lam) == lam


def test_act_composes_with_convolution():
    mu = RationalMeasure({F: "1/2", G: "1/2"})
    nu = RationalMeasure({E: "2/3", FE: "1/3"})
    lam = RationalMeasure({(2, 4, 5): "1/3", (5, 2, 4): "2/3"})
    left = push_tuples(MappingLaw(5, convolve(mu, nu)), lam)
    right = push_tuples(MappingLaw(5, mu), push_tuples(MappingLaw(5, nu), lam))
    assert left == right


def test_measure_product_assembles_invariant_law():
    eta_L = RationalMeasure({E: "2/3", FE: "1/3"})
    omega = uniform(group_elements())
    lam = measure_product([eta_L, omega, (2, 4, 5)])
    assert push_tuples(example_law(), lam) == lam
    assert measure_product([RationalMeasure({E: 1})]) == RationalMeasure({E: 1})


def test_invariant_point_law_on_single_particles():
    mu = RationalMeasure({F: "1/2", G: "1/2"})
    lam = RationalMeasure(
        {(1,): "1/9", (2,): "2/9", (3,): "1/9", (4,): "2/9", (5,): "3/9"}
    )
    assert push_tuples(MappingLaw(5, mu), lam) == lam


def _matrix(law):
    return marginal_transition_matrix(*zip(*((f.images, w) for f, w in law.measure.items())))


def test_marginal_transition_matrix_golden_rows(example_analysis):
    a = example_analysis
    mat = _matrix(example_law())
    half = Fraction(1, 2)
    assert mat[0] == [0, 1, 0, 0, 0]
    assert mat[3] == [half, half, 0, 0, 0]
    assert all(sum(row) == 1 for row in mat)
    # the first coordinate of an invariant tuple law is invariant for the
    # one-point chain
    x = invariant_law(a, vector_of(tuples(a.cliques.W), uniform(tuples(a.cliques.W))))
    pi = [coordinate_marginal(measure_of(tuples(a.cliques.W_mu), x), 1)[y] for y in range(1, 6)]
    nums, den = a.cliques.first_marginal(x, 5)
    assert [Fraction(v, den) for v in nums] == pi
    assert [sum(pi[x] * mat[x][y] for x in range(5)) for y in range(5)] == pi


def test_transition_matrix_of_identity_law():
    law = MappingLaw.from_dict(
        {"n": 3, "generators": [[1, 2, 3]], "weights": ["1"]}
    )
    mat = _matrix(law)
    assert mat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_convolution_mass_is_exactly_one():
    mu = RationalMeasure({F: "1/3", G: "2/3"})
    acc = mu
    for _ in range(6):
        acc = convolve(mu, acc)
        assert sum(w for _, w in acc.items()) == 1


def test_coordinate_marginal():
    lam = RationalMeasure({(2, 4): "1/4", (4, 2): "3/4"})
    assert coordinate_marginal(lam, 1) == RationalMeasure({2: "1/4", 4: "3/4"})
    assert coordinate_marginal(lam, 2) == RationalMeasure({2: "3/4", 4: "1/4"})


def test_law_file_validation():
    MappingLaw.from_dict(
        {"n": 2, "generators": [[1, 1], [2, 2], [2, 1]],
         "weights": ["1/3", "1/3", "1/3"]}
    )
    with pytest.raises(InputError):
        MappingLaw.from_dict(
            {"n": 2, "generators": [[1, 1], [2, 2]], "weights": ["1/2", "1/3"]}
        )
    with pytest.raises(InputError):
        MappingLaw.from_dict({"n": 2, "generators": [], "weights": []})
    with pytest.raises(InputError):
        MappingLaw.from_dict({"n": 3, "generators": [[1, 1]], "weights": ["1"]})
    with pytest.raises(InputError, match=re.escape("support must be transformations of {1..3}")):
        MappingLaw(3, RationalMeasure({Transformation([1, 2]): 1}))


def test_law_round_trips_through_dict():
    law = example_law()
    assert MappingLaw.from_dict(law.to_dict()) == law


@pytest.mark.parametrize("n", [True, False, 0, "2"])
def test_constructor_refuses_the_domain_sizes_from_dict_refuses(n):
    # a bool is an int, and a boolean n would make the rows a bool array
    message = re.escape(f"n must be a positive integer, got {n!r}")
    with pytest.raises(InputError, match=message):
        MappingLaw(n, RationalMeasure({Transformation([1]): 1}))
    with pytest.raises(InputError, match=message):
        MappingLaw.from_dict({"n": n, "generators": [[1]], "weights": ["1"]})


@pytest.mark.parametrize("n, dtype", [(255, np.uint8), (256, np.uint16)])
def test_law_rows_are_the_generator_rows_in_the_closure_dtype(n, dtype):
    # the constants to n and to 1 and the transposition (1 2), listed out of
    # order; rows hold one byte per image up to n = 255 and two from 256
    gens = [[n] * n, [2, 1, *range(3, n + 1)], [1] * n]
    parsed = MappingLaw.from_dict({"n": n, "generators": gens, "weights": ["1/3"] * 3})
    built = MappingLaw(n, RationalMeasure({Transformation(g): "1/3" for g in gens}))
    assert built == parsed
    for law in (parsed, built):
        closure = analyze_law(law).closure
        assert law.rows.tolist() == [list(f.images) for f in law.measure.support()]
        assert law.rows.dtype == np.min_scalar_type(n) == closure.dtype == dtype
        assert np.array_equal(closure[:len(law.rows)], law.rows)


def _assert_exact_vector(vector, size: int) -> None:
    # an int64 that leaks into an object product overflows silently past
    # 2^63, so every numerator must be a Python int
    nums, den = vector
    assert isinstance(nums, np.ndarray) and nums.dtype == object and nums.shape == (size,)
    assert all(type(v) is int for v in nums.tolist()) and type(den) is int


def test_every_exact_vector_is_an_object_array_of_ints(example_analysis, p3h2_analysis,
                                                       r7g2_analysis, fuzz_analyses):
    analyses, _ = fuzz_analyses
    group_kernel = [analyze_law(law) for law in group_kernel_laws()]
    _assert_exact_vector(solve_stationary([[1, 2], [3, 0]]), 2)
    for a in [example_analysis, p3h2_analysis, r7g2_analysis] + analyses + group_kernel:
        rd, cd, lim = a.rd, a.cliques, a.limits
        _assert_exact_vector(a.law.weights, len(a.law.measure.support()))
        for left, side in ((True, rd.L), (False, rd.R)):
            _assert_exact_vector(boundary_stationary(a.law, rd, left), len(side))
        _assert_exact_vector(lim.eta_L, len(rd.L))
        _assert_exact_vector(lim.eta_R, len(rd.R))
        for vector in (lim.eta, lim.nu, _act(a.law, lim.nu, rd.left),
                       _act(a.law, lim.eta, rd.right)):
            _assert_exact_vector(vector, len(rd.kernel))
        lam = cd.w_vector(uniform(tuples(cd.W)))
        _assert_exact_vector(lam, len(cd.W))
        x = invariant_law(a, lam)
        family = classify_family(a, x)
        for vector in (x, _act(a.law, x, cd.step), family.law_at(a, 1)):
            _assert_exact_vector(vector, len(cd.W_mu))
        _assert_exact_vector(cd.first_marginal(x, a.law.n), a.law.n)
        for vector in family.Lambda_W:
            _assert_exact_vector(vector, len(cd.W))
