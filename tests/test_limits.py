import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest

from finevo import analyze_law
from finevo.limits import (
    assemble_limits,
    boundary_stationary,
    float_limit_oracle,
    solve_stationary,
    sup_error,
)
from finevo.measure import MappingLaw, RationalMeasure
from finevo.semigroup import BLOCK, generate, idempotents, rees_at
from finevo.transform import Transformation
from fuzzlaws import cyclic3_law, group_kernel_laws, p3_h2_law
from oracles import (
    add_at_step,
    cesaro_first_order,
    cesaro_loop,
    convolve,
    element,
    exact_stationary,
    float_law,
    float_limit_loop,
    float_stationary,
    float_step,
    float_sup_distance,
    full_chain_stationary,
    measure_of,
    measure_product,
    project,
    rees_objects,
    two_term_residual,
)

E = Transformation([4, 2, 2, 4, 5])
FE = Transformation([1, 3, 3, 1, 5])
EF = Transformation([2, 2, 4, 4, 5])


def _on_kernel(rd, vector) -> RationalMeasure:
    """An exact kernel vector (numerators by kernel position, denominator)
    as a measure on the kernel's transformations."""
    return measure_of(rees_objects(rd).kernel, vector)


def _lift(a, left: bool) -> tuple:
    """The kernel vector of eta_L x omega_G on Ke, beta(l g) = eta_L(l) / |G|
    (``left``), or of omega_G x eta_R on eK, beta(g r) = eta_R(r) / |G|, for
    the boundary factor that ``boundary_stationary`` solves."""
    rd = a.rd
    eta, den = boundary_stationary(a.law, rd, left)
    l0, _, r0 = rd.coords[rd.e]
    fibres = rd.at[:, :, r0] if left else rd.at[l0].T  # fibres[b, g] is L[b] G[g] (or G[g] R[b])
    nums = [0] * len(rd.kernel)
    for v, fibre in zip(eta, fibres.tolist()):
        for z in fibre:
            nums[z] = v
    return nums, den * len(rd.G)


def _limits(a) -> SimpleNamespace:
    """The exact limit vectors of an analysis as measures on rd.L, rd.R and
    the kernel."""
    rees, lim = rees_objects(a.rd), a.limits
    return SimpleNamespace(eta_L=measure_of(rees.L, lim.eta_L),
                           eta_R=measure_of(rees.R, lim.eta_R),
                           eta=measure_of(rees.kernel, lim.eta), nu=measure_of(rees.kernel, lim.nu))


def _uniform(support) -> RationalMeasure:
    return RationalMeasure(dict.fromkeys(support, Fraction(1, len(support))))


def _cycle(a) -> list:
    """cycle[k] = eta_L gamma^k omega_H eta_R by the convolution oracle."""
    group, lim = rees_objects(a.rd), _limits(a)
    omega_H = _uniform(group.H)
    return [measure_product([lim.eta_L, group.C[k], omega_H, lim.eta_R])
            for k in range(a.rd.p)]


def test_left_and_right_factors_golden(example_analysis):
    lim = _limits(example_analysis)
    assert lim.eta_L == RationalMeasure({E: "2/3", FE: "1/3"})
    assert lim.eta_R == RationalMeasure({E: "2/3", EF: "1/3"})


def _full_chain(a, left: bool) -> RationalMeasure:
    """The stationary law of the whole walk on Ke (``left``) or eK, by the
    Fraction oracle."""
    gens, weights = zip(*((f.images, w) for f, w in a.law.measure.items()))
    exact = full_chain_stationary(gens, weights, a.rd.kernel[a.rd.e].tolist(), left)
    return RationalMeasure({Transformation(list(z)): w for z, w in exact.items()})


def test_left_stationary_product_form(example_analysis):
    # the walk's law is eta_L{l} / |G| on each of the 12 states l*g of Ke
    a = example_analysis
    beta = _full_chain(a, left=True)
    eta_L, e = _limits(a).eta_L, rees_objects(a.rd).e
    states = sorted({z * e for z in rees_objects(a.rd).kernel})
    assert len(states) == 12
    assert set(beta.support()) == set(states)
    for z in states:
        l, g, r = project(rees_objects(a.rd), z)
        assert r == e
        assert beta[z] == eta_L[l] * Fraction(1, len(a.rd.G))


def test_right_stationary_product_form(p3h2_analysis):
    # the walk's law is eta_R{r} / |G| on each state g*r of eK
    a = p3h2_analysis
    beta = _full_chain(a, left=False)
    eta_R, e = _limits(a).eta_R, rees_objects(a.rd).e
    states = sorted({e * z for z in rees_objects(a.rd).kernel})
    assert len(states) == len(a.rd.G) * len(a.rd.R)
    assert set(beta.support()) == set(states)
    for z in states:
        l, g, r = project(rees_objects(a.rd), z)
        assert l == e
        assert beta[z] == eta_R[r] * Fraction(1, len(a.rd.G))


# Group-kernel laws: A5 has |Ke| = |G| = 60; rank3 has |L| = 2, |G| = 6 and
# |R| = 6, so the lift over the G-fibres is exercised on both sides.
A5_LAW = {"n": 5, "generators": [[2, 3, 1, 4, 5], [2, 3, 4, 5, 1]],
          "weights": ["3/7", "4/7"]}
RANK3_LAW = {"n": 6, "generators": [[2, 3, 4, 5, 6, 1], [3, 2, 1, 4, 5, 6],
                                    [1, 1, 3, 3, 5, 5]],
             "weights": ["2/7", "2/7", "3/7"]}


def _assert_stationary_matches_full_chain(a):
    for left in (True, False):
        assert _on_kernel(a.rd, _lift(a, left)) == _full_chain(a, left)


def test_stationary_laws_match_full_chain_oracle_on_corpus(fuzz_analyses):
    analyses, _ = fuzz_analyses
    for a in analyses:
        _assert_stationary_matches_full_chain(a)


def test_stationary_laws_match_full_chain_oracle_on_group_kernels():
    a5 = analyze_law(MappingLaw.from_dict(A5_LAW))
    assert (len(a5.rd.L), len(a5.rd.G), len(a5.rd.R)) == (1, 60, 1)
    _assert_stationary_matches_full_chain(a5)
    rank3 = analyze_law(MappingLaw.from_dict(RANK3_LAW))
    assert (len(rank3.rd.L), len(rank3.rd.G), len(rank3.rd.R)) == (2, 6, 6)
    _assert_stationary_matches_full_chain(rank3)


def test_left_stationary_matches_float_power_iteration(example_analysis):
    a = example_analysis
    e = rees_objects(a.rd).e
    states = sorted({z * e for z in rees_objects(a.rd).kernel})
    index = {s: i for i, s in enumerate(states)}
    m = len(states)
    matrix = [[Fraction(0)] * m for _ in range(m)]
    for z in states:
        for f, w in a.law.measure.items():
            matrix[index[z]][index[f * z]] += w
    pi = float_stationary(matrix)
    beta = _on_kernel(a.rd, _lift(a, left=True))
    for z in states:
        assert abs(pi[index[z]] - float(beta[z])) < 1e-12


def test_stationary_of_point_mass_law():
    law = MappingLaw.from_dict({"n": 5, "generators": [[4, 2, 2, 4, 5]],
                                "weights": ["1"]})
    a = analyze_law(law)
    lim = _limits(a)
    assert _on_kernel(a.rd, _lift(a, left=True)) == RationalMeasure({E: 1})
    assert lim.eta_L == RationalMeasure({E: 1})
    assert lim.eta_R == RationalMeasure({E: 1})
    assert lim.eta == RationalMeasure({E: 1})
    assert a.rd.p == 1


def test_solve_stationary_rejects_reducible_chain():
    from finevo.errors import StructuralInconsistencyError

    # two absorbing states: stationary law is not unique
    with pytest.raises(StructuralInconsistencyError):
        solve_stationary([[1, 0], [0, 1]])
    with pytest.raises(StructuralInconsistencyError):
        solve_stationary([[3, 0, 0], [1, 1, 1], [0, 0, 3]])


def test_solve_stationary_rejects_a_negative_entry():
    # rows summing to 3 with a negative entry: pi P = pi gives pi = (2, -1)
    from finevo.errors import StructuralInconsistencyError

    with pytest.raises(StructuralInconsistencyError,
                       match="stationary solve produced an invalid vector"):
        solve_stationary([[1, 2], [-4, 7]])


def _chain(rng, m: int, den: int) -> list:
    """A random integer matrix whose rows all sum to den and whose positive
    entries include the cycle i -> i + 1 mod m, so the chain is irreducible."""
    matrix = []
    for i in range(m):
        row = [rng.choice((0, 0, 1, 2, 5)) for _ in range(m)]
        row[(i + 1) % m] += 1
        while sum(row) > den:
            j = rng.choice([j for j, v in enumerate(row) if v and j != (i + 1) % m]
                           or [(i + 1) % m])
            row[j] -= 1
        row[rng.randrange(m)] += den - sum(row)
        matrix.append(row)
    return matrix


def _assert_solves_like_the_oracle(matrix):
    den = sum(matrix[0])
    nums, lcd = solve_stationary(matrix)
    oracle = exact_stationary([[Fraction(v, den) for v in row] for row in matrix])
    assert [Fraction(v, lcd) for v in nums] == oracle
    # the vector is over its least common denominator
    assert lcd == lcm(*(v.denominator for v in oracle))


def test_solve_stationary_matches_fraction_elimination_on_random_chains():
    rng = random.Random(20)
    for m in range(1, 13):
        for _ in range(8):
            _assert_solves_like_the_oracle(_chain(rng, m, rng.choice((1, 7, 12, 30, 1001))))


def test_solve_stationary_swaps_rows_on_zero_pivots():
    # states 0..k-1 form a closed class and the rest lead into it: the
    # first k balance equations are singular on the first k columns, so a
    # zero pivot turns up in its own row by column k - 1 (at column 0 for an
    # absorbing state 0) and a later row must be swapped in
    rng = random.Random(21)
    for m in range(2, 10):
        for k in range(1, m):
            den = rng.choice((k + 1, 6, 60))
            matrix = [row + [0] * (m - k) for row in _chain(rng, k, den)]
            for i in range(k, m):
                row = [rng.randrange(3) for _ in range(m)]
                row[i] = 0
                while sum(row) >= den:
                    row[max(range(m), key=row.__getitem__)] -= 1
                # a positive step into the class from every transient state
                row[rng.randrange(k)] += den - sum(row)
                matrix.append(row)
            _assert_solves_like_the_oracle(matrix)


def test_period_of_example_is_one(example_analysis):
    a = example_analysis
    assert a.rd.p == 1
    group = rees_objects(a.rd)
    assert set(group.H) == set(group.G)
    assert group.gamma == E


def test_period_three_cyclic_instance():
    a = analyze_law(cyclic3_law())
    assert a.rd.p == 3
    assert rees_objects(a.rd).H == (Transformation([1, 2, 3]),)
    assert rees_objects(a.rd).gamma == Transformation([2, 3, 1])
    # mu^n = delta_{g^n} cycles with period 3
    g = Transformation([2, 3, 1])
    cycle = _cycle(a)
    assert cycle[1] == RationalMeasure({g: 1})
    assert cycle[2] == RationalMeasure({g * g: 1})
    assert _limits(a).eta == RationalMeasure({Transformation([1, 2, 3]): 1})


def test_period_three_with_nontrivial_H():
    a = analyze_law(p3_h2_law())
    assert a.rd.p == 3
    assert len(a.rd.H) == 2
    assert rees_objects(a.rd).gamma == Transformation([2, 3, 1, 5, 6, 4])
    assert len(a.rd.G) == 6
    # p equals the index of H in G
    assert a.rd.p * len(a.rd.H) == len(a.rd.G)


def test_cycle_shifts_under_convolution(p3h2_analysis):
    a = p3h2_analysis
    mu = a.law.measure
    cycle = _cycle(a)
    assert cycle[0] == _limits(a).eta
    for k in range(a.rd.p):
        assert convolve(mu, cycle[k]) == cycle[(k + 1) % a.rd.p]
    assert convolve(mu, cycle[a.rd.p - 1]) == _limits(a).eta


def test_eta_and_nu_identities(example_analysis):
    lim = _limits(example_analysis)
    assert convolve(lim.eta, lim.eta) == lim.eta
    assert convolve(lim.nu, lim.nu) == lim.nu
    mu = example_analysis.law.measure
    assert convolve(mu, lim.nu) == lim.nu
    assert convolve(lim.nu, mu) == lim.nu
    assert lim.eta == lim.nu  # p = 1 and H = G for the example law


def test_nu_expands_as_triple_product(example_analysis):
    a = example_analysis
    lim = _limits(a)
    omega_G = _uniform(rees_objects(a.rd).G)
    assert lim.nu == measure_product([lim.eta_L, omega_G, lim.eta_R])
    sixth = Fraction(1, len(a.rd.G))
    for z in rees_objects(a.rd).kernel:
        l, g, r = project(rees_objects(a.rd), z)
        assert lim.nu[z] == lim.eta_L[l] * sixth * lim.eta_R[r]


def test_supports(example_analysis):
    a = example_analysis
    rees = rees_objects(a.rd)
    assert set(_limits(a).nu.support()) == set(rees.kernel)
    lhr = {l * h * r for l in rees.L for h in rees.H for r in rees.R}
    assert set(_limits(a).eta.support()) == lhr


def test_cycle_supports_disjoint(p3h2_analysis):
    a = p3h2_analysis
    supports = [set(c.support()) for c in _cycle(a)]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not supports[i] & supports[j]


def test_float_oracle_on_example(example_analysis):
    a = example_analysis
    est = float_limit_oracle(a)
    assert est.converged and est.p_est == 1
    assert sup_error(a, a.limits.eta, est.eta) < 1e-9
    assert sup_error(a, a.limits.nu, est.nu) < 1e-9


def test_float_oracle_trivial_law():
    law = MappingLaw.from_dict({"n": 5, "generators": [[4, 2, 2, 4, 5]],
                                "weights": ["1"]})
    a = analyze_law(law)
    est = float_limit_oracle(a)
    assert est.converged and est.p_est == 1 and est.iterations < 10
    assert float_law(a.closure, est.eta) == {E: 1.0}


def test_float_oracle_period_three(cyclic3_analysis):
    a = cyclic3_analysis
    est = float_limit_oracle(a)
    assert est.converged and est.p_est == 3
    assert float_law(a.closure, est.eta) == {Transformation([1, 2, 3]): 1.0}


def test_float_oracle_survives_oscillating_transients():
    # negative spectral components make lag-2 cross the tolerance before
    # lag-1; the settle phase must still report p = 1
    law = MappingLaw.from_dict(
        {"n": 4, "generators": [[1, 4, 4, 4], [2, 3, 2, 1], [4, 3, 2, 4]],
         "weights": ["1/3", "1/3", "1/3"]}
    )
    a = analyze_law(law)
    assert a.rd.p == 1
    est = float_limit_oracle(a)
    assert est.converged and est.p_est == 1


def test_vectorized_iteration_matches_naive_steps(example_analysis):
    from finevo.limits import _power_step

    law, closure = example_analysis.law, example_analysis.closure
    vec, step = _power_step(law, closure)
    elements = [element(row) for row in closure]
    naive = {f: float(w) for f, w in law.measure.items()}
    for _ in range(12):
        vec = step(vec)
        naive = float_step(law, naive)
        dense = {s: float(x) for s, x in zip(elements, vec) if x != 0.0}
        assert float_sup_distance(dense, naive) < 1e-14


def test_indexed_iteration_sums_like_the_per_generator_loop(
        example_analysis, p3h2_analysis, fuzz_analyses):
    # the step must add the same terms in the same order as one np.add.at
    # per generator: verify prints the float errors in full
    from finevo.limits import _power_step

    analyses, _ = fuzz_analyses
    for a in [example_analysis, p3h2_analysis] + analyses:
        vec, step = _power_step(a.law, a.closure)
        ref_step = add_at_step(a.law, [element(row) for row in a.closure])
        ref = vec.copy()
        for _ in range(500):
            vec = step(vec)
            ref = ref_step(ref)
            assert np.array_equal(vec, ref)


def first_repeat(step, vec) -> int:
    """The first k with mu^k bit for bit equal to an earlier power."""
    seen = {vec.tobytes()}
    for k in range(2, 20_000):
        vec = step(vec)
        if vec.tobytes() in seen:
            return k
        seen.add(vec.tobytes())
    raise AssertionError("no repeat within 20,000 powers")


def test_float_oracle_and_cesaro_equal_the_list_loops(
        example_analysis, cyclic3_analysis, p3h2_analysis, monkeypatch):
    # the shared pass gives results == to the list-of-iterates loops with an
    # np.add.at step, which verify printed: the ring-buffer lag scan, and
    # the average replayed from the first repeat, which must leave every sum
    # == to the stepped one, n = 10^4 as in verify. The pass steps to the
    # later of the oracle's settle index and that repeat, never past both
    from finevo import limits

    oscillating = MappingLaw.from_dict(
        {"n": 4, "generators": [[1, 4, 4, 4], [2, 3, 2, 1], [4, 3, 2, 4]],
         "weights": ["1/3", "1/3", "1/3"]})
    # mu^65 == mu^1 on the 64-cycle and mu^66 == mu^1 on the 65-cycle, both
    # at the largest distance max(64, |G|) at which a repeat counts, G the
    # m-cycle's group; their W_mu is too large to analyze, and the pass reads
    # only law, closure and rd
    cycles = [MappingLaw.from_dict({"n": m, "generators": [list(range(2, m + 1)) + [1]],
                                    "weights": ["1"]}) for m in (64, 65)]
    closures = [generate(law.rows) for law in cycles]
    # a one-element closure, where every power is [1.0] and the tail is
    # reduced along the only (fast) axis, and a two-element closure, the
    # smallest whose tail is reduced row by row. rank3, in group_kernel_laws,
    # is the law on which the witness columns must grow: its transient
    # columns fall under the tolerance before its kernel rows match
    point = MappingLaw.from_dict({"n": 3, "generators": [[1, 1, 1]], "weights": ["1"]})
    swap = MappingLaw.from_dict({"n": 2, "generators": [[1, 2], [2, 1]],
                                 "weights": ["1/3", "2/3"]})
    laws = [oscillating, point, swap] + group_kernel_laws()
    cases = [(a, (100_000,)) for a in [example_analysis, cyclic3_analysis, p3h2_analysis]]
    cases += [(analyze_law(law), (100_000,)) for law in laws]
    # S5 and rank3 stopped inside a doubling block: the blocks of 64 powers
    # from 1 double to 32 -> 64 and 128 -> 192, cut at 37 and 129
    cases += [(analyze_law(group_kernel_laws()[i]), (37, 129)) for i in (0, 3)]
    cases += [(SimpleNamespace(law=law, closure=S, rd=rees_at(law.rows, S, int(idempotents(S)[0]))),
               (1_000,))
              for law, S in zip(cycles, closures)]
    cases.append((cyclic3_analysis, (3,)))  # no lag up to 2 at mu^3: not converged
    steps = []
    power_step = limits._power_step

    def counted(law, closure):
        v0, step = power_step(law, closure)
        return v0, lambda v: steps.append(1) or step(v)

    monkeypatch.setattr(limits, "_power_step", counted)
    for a, max_iters in cases:
        elements = [element(row) for row in a.closure]
        step = add_at_step(a.law, elements)
        v0 = np.zeros(len(elements))
        v0[[elements.index(f) for f in a.law.measure.support()]] = [
            float(w) for _, w in a.law.measure.items()]
        oracles = {max_iter: float_limit_loop(step, v0, 1e-12, max_iter, max(64, len(a.rd.G)))
                   for max_iter in max_iters}
        k = first_repeat(step, v0)
        for n in (1, 2, k, k + 1, 3_000, 10_000):  # at n = k the tail is one term
            expected = float_law(a.closure, cesaro_loop(step, v0, n))
            # blocks of one power with tail runs of one row (a closure
            # larger than the block), of two powers, of three powers and
            # rows, and of the default size
            for block in (1, 2 * len(elements), 3 * len(elements), BLOCK):
                monkeypatch.setattr(limits, "BLOCK", block)
                for max_iter, (converged, q, eta_vec, nu_vec, settled) in oracles.items():
                    steps.clear()
                    est = float_limit_oracle(a, n, max_iter=max_iter)
                    assert (est.converged, est.p_est, est.iterations) == (converged, q, settled)
                    if converged:
                        assert float_law(a.closure, est.eta) == float_law(a.closure, eta_vec)
                        assert float_law(a.closure, est.nu) == float_law(a.closure, nu_vec)
                    assert float_law(a.closure, est.average) == expected
                    assert len(steps) == max(settled, min(k, n)) - 1


def test_float_pass_matches_repeats_within_the_largest_lag_only(monkeypatch):
    # on the 65-cycle mu^66 == mu^1. Standing in a 64-element G, the pass
    # may match a power at most max(64, |G|) = 64 powers back, though its
    # ring of 64 + 64 rows still holds mu^1, so it steps all n powers
    from finevo import limits

    law = MappingLaw.from_dict({"n": 65, "generators": [list(range(2, 66)) + [1]],
                                "weights": ["1"]})
    a = SimpleNamespace(law=law, closure=generate(law.rows), rd=SimpleNamespace(G=[None] * 64))
    steps = []
    power_step = limits._power_step

    def counted(law, closure):
        v0, step = power_step(law, closure)
        return v0, lambda v: steps.append(1) or step(v)

    monkeypatch.setattr(limits, "_power_step", counted)
    est = float_limit_oracle(a, 3_000, max_iter=1_000)
    assert not est.converged and len(steps) == 2_999
    elements = [element(row) for row in a.closure]
    v0 = np.zeros(len(elements))
    v0[elements.index(law.measure.support()[0])] = 1.0
    expected = cesaro_loop(add_at_step(law, elements), v0, 3_000)
    assert float_law(a.closure, est.average) == float_law(a.closure, expected)


def test_float_pass_memory_on_a_large_closure(monkeypatch):
    # T_5, the cycle, transposition and rank drop on 5 points, closes to all
    # 3,125 maps. The pass holds the ring of max(64, |G|) + most powers,
    # most = 1 at BLOCK = 1 and 20 at the default BLOCK, and adds each power
    # to the running sum as it is stepped, so no block of powers is gathered;
    # its powers repeat no row within 10^4 steps, so it takes no copy of
    # repeating rows for the tail. The repeat dict keeps at most
    # 2 max(64, |G|) + 1 of its 10^4 hashes; the slack of 0.75 MB covers
    # those and the step's tables
    from finevo import limits

    n = 5
    law = MappingLaw.from_dict(
        {"n": n, "generators": [[*range(2, n + 1), 1], [2, 1, *range(3, n + 1)],
                                [1, 1, *range(3, n + 1)]],
         "weights": ["1/3"] * 3})
    a = analyze_law(law)
    for block in (1, BLOCK):
        monkeypatch.setattr(limits, "BLOCK", block)
        tracemalloc.start()
        try:
            est = float_limit_oracle(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a.closure) == 3_125 and est.converged and est.iterations == 1_832
        most = max(1, min(64, block // len(a.closure)))
        assert peak <= (max(64, len(a.rd.G)) + most) * len(a.closure) * 8 + 750_000, block


def test_indexed_convolution_matches_the_oracle(example_analysis, p3h2_analysis, fuzz_analyses):
    # mu acting on kernel vectors by the generator tables, as in the
    # stationary checks of assemble_limits, against Fraction dicts keyed by
    # transformation products
    from finevo.limits import _act

    analyses, _ = fuzz_analyses
    rng = random.Random(5)

    def vector(rd) -> tuple:
        # a random law on the kernel, over a denominator not in lowest terms
        nums = np.array([rng.choice([0, 0, 1, 2, 7]) for _ in rd.kernel], dtype=object)
        nums[rng.randrange(len(nums))] += 1
        k = rng.randint(1, 5)
        return k * nums, k * nums.sum()

    for a in [example_analysis, p3h2_analysis] + analyses:
        rd = a.rd
        x = vector(rd)
        for left in (True, False):
            product = (convolve(a.law.measure, _on_kernel(rd, x)) if left
                       else convolve(_on_kernel(rd, x), a.law.measure))
            assert _on_kernel(rd, _act(a.law, x, rd.left if left else rd.right)) == product


def test_eta_and_nu_are_idempotent_under_the_transformation_product(cyclic3_analysis,
                                                                     p3h2_analysis):
    # assemble_limits checks idempotence on the sandwich matrix and the mass;
    # the oracle composes every pair of transformations, with no Rees table
    for a in [cyclic3_analysis, p3h2_analysis] + [analyze_law(law) for law in group_kernel_laws()]:
        lim = _limits(a)
        assert convolve(lim.eta, lim.eta) == lim.eta
        assert convolve(lim.nu, lim.nu) == lim.nu


def _first_order(a) -> dict:
    """Exact D = sum_{k>=1} (mu^k - cyc_k) from the independent oracle."""
    gens, weights = zip(*((f.images, w) for f, w in a.law.measure.items()))
    eta = {f.images: w for f, w in _limits(a).eta.items()}
    return cesaro_first_order(gens, weights, eta)


def test_cesaro_first_order_oracle(example_analysis, cyclic3_analysis, p3h2_analysis):
    # powers that start on their cycle have no first-order term
    assert _first_order(cyclic3_analysis) == {}
    assert _first_order(p3h2_analysis) == {}
    D = _first_order(example_analysis)
    assert max(abs(v) for v in D.values()) == Fraction(8, 15)
    assert sum(D.values()) == 0


def test_cesaro_average_decays_like_one_over_n(example_analysis):
    # the literal running average is nu + D/n + O(rho^n), so its sup error
    # is exactly max|D|/n up to rounding and halves when n doubles
    a = example_analysis
    sup_D = float(max(abs(v) for v in _first_order(a).values()))
    for n in (2_000, 4_000):
        err = sup_error(a, a.limits.nu, float_limit_oracle(a, n).average)
        assert abs(err - sup_D / n) < 1e-12


def test_cesaro_expansion_on_periodic_corpus_laws(fuzz_analyses):
    # for p | n the two-term expansion holds for every periodic corpus law;
    # several of them have D != 0, so the Theta(1/n) term is exercised
    analyses, _ = fuzz_analyses
    n = 3_000  # divisible by every period in the corpus
    nonzero = 0
    for a in (a for a in analyses if a.rd.p > 1):
        assert n % a.rd.p == 0
        D = _first_order(a)
        assert sum(D.values()) == 0
        nonzero += bool(D)
        average = float_law(a.closure, float_limit_oracle(a, n).average)
        residual = two_term_residual(average, _limits(a).nu, D, n)
        assert residual < 1e-9
    assert nonzero >= 3


@pytest.mark.parametrize("index", [47, 125])
def test_assemble_rejects_a_sandwich_entry_outside_H(fuzz_analyses, index):
    # eta * eta = eta needs every sandwich entry between the supports of
    # eta_R and eta_L in H; corpus laws 47 and 125 are the ones with H < G
    # and more than one sandwich entry (2x1 and 3x1)
    from finevo.errors import StructuralInconsistencyError

    a = fuzz_analyses[0][index]
    rd, lim = a.rd, a.limits
    assert len(rd.H) < len(rd.G) and rd.sandwich.size > 1 and lim.eta_R[0].all()
    sandwich, r_e = rd.sandwich.copy(), rd.coords[rd.e, 2]
    sandwich[(r_e + 1) % len(rd.R), 0] = rd.C[1]  # gamma lies in the coset gamma H
    with pytest.raises(StructuralInconsistencyError, match=r"eta \* eta != eta"):
        assemble_limits(a.law, replace(rd, sandwich=sandwich), lim.eta_L, lim.eta_R)


def test_assemble_rejects_wrong_subgroup(example_analysis):
    from finevo.errors import StructuralInconsistencyError

    a = example_analysis
    one = a.rd.coords[a.rd.e, 1]
    # H = {e} is a valid normal subgroup but gives the wrong eta
    wrong = replace(a.rd, H=np.array([one]), C=np.array([one]), p=1,
                    coset_of=np.zeros(len(a.rd.G), np.intp))
    with pytest.raises(StructuralInconsistencyError):
        assemble_limits(a.law, wrong, a.limits.eta_L, a.limits.eta_R)


@pytest.mark.parametrize("left", [True, False])
def test_assemble_rejects_a_nonstationary_boundary_factor(example_analysis, left):
    from finevo.errors import StructuralInconsistencyError

    a = example_analysis
    for nums, den in (a.limits.eta_L, a.limits.eta_R):
        assert (nums.tolist(), den) == ([1, 2], 3)  # (1/3, 2/3) by position
    # uniform is not the stationary law of either quotient walk
    factors = [a.limits.eta_L, a.limits.eta_R]
    factors[0 if left else 1] = (np.array([1, 1], dtype=object), 2)
    with pytest.raises(StructuralInconsistencyError):
        assemble_limits(a.law, a.rd, *factors)


def _fixed_walks(rd):
    """``rd`` with left and right tables that fix every kernel position: any
    vector is then invariant under both actions of the law."""
    still = np.tile(np.arange(len(rd.kernel)), (len(rd.generators), 1))
    return replace(rd, left=still, right=still)


def test_assemble_rejects_a_boundary_factor_with_a_zero(example_analysis):
    # eta_L = (0, 1) keeps every mass and, on walks that fix every position,
    # every invariance, but nu is 0 on the kernel positions of L[0]
    from finevo.errors import StructuralInconsistencyError

    a = example_analysis
    eta_L = (np.array([0, 3], dtype=object), 3)
    with pytest.raises(StructuralInconsistencyError, match=r"supp\(nu\) != kernel"):
        assemble_limits(a.law, _fixed_walks(a.rd), eta_L, a.limits.eta_R)


def test_period_and_subgroup_direct(example_analysis, p3h2_analysis):
    # the left walk on Ke gives p, H and gamma; only the generators matter
    a = example_analysis
    rd = rees_at(a.law.rows, a.rd.kernel, a.rd.e)
    group = rees_objects(rd)
    assert (rd.p, set(group.H), group.gamma) == (1, set(group.G), E)
    b = p3h2_analysis
    group = rees_objects(b.rd)
    assert (b.rd.p, len(b.rd.H), len(b.rd.G)) == (3, 2, 6)
    assert group.gamma == min(g for g in group.G
                              if group.coset_of[g] == 1 and g * g * g == group.e)


def test_left_right_solvers_agree_with_invariance(p3h2_analysis):
    a = p3h2_analysis
    beta = _on_kernel(a.rd, _lift(a, left=True))
    assert convolve(a.law.measure, beta) == beta
    beta_r = _on_kernel(a.rd, _lift(a, left=False))
    assert convolve(beta_r, a.law.measure) == beta_r
    omega_G = _uniform(rees_objects(a.rd).G)
    # omega_G * eta_R is fixed under right convolution by mu
    fixed = measure_product([omega_G, _limits(a).eta_R])
    assert convolve(fixed, a.law.measure) == fixed
