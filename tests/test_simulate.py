import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from finevo import analyze_law, simulate
from finevo.cliques import InvariantFamily
from finevo.errors import InputError
from finevo.measure import MappingLaw, RationalMeasure, _common, _uniform
from finevo.cli import mono_projection_events
from finevo.simulate import (
    philox_uniforms,
    sample_batch,
    verify_factorization,
    verify_mono_projection,
    verify_nonstationary_joint,
    verify_path_exact,
    verify_third_noise,
)
from finevo.stats import chi_square_gof
from finevo.transform import Transformation
from oracles import (ScalarReference, apply, last_word_time, measure_of, rees_objects,
                     scalar_draw, shortest_words, tuples, vector_of)


def w_law(a, weights=None) -> tuple:
    """A law on the W of an analysis as a W vector, from weights keyed by
    position in W; uniform by default."""
    W = tuples(a.cliques.W)
    weights = weights or dict.fromkeys(range(len(W)), Fraction(1, len(W)))
    return vector_of(W, {W[w]: v for w, v in weights.items()})


def one_path(a, initial, k_min, k_max, seed):
    """A single path: a one-replication batch."""
    return sample_batch(a, initial, k_min, k_max, seed, 1)


def decode(a, batch, r=0) -> dict:
    """Row r of a batch as maps, tuples and their parts (see ScalarReference)."""
    return ScalarReference(a).decode(batch, r)


@pytest.fixture(scope="module")
def example_path(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    return one_path(a, lw, -1000, 0, 42)


def test_path_shape(example_path):
    path = example_path
    assert (path.k_min, path.k_max, len(path)) == (-1000, 0, 1)
    assert path.states.shape == (1, 1001)
    assert path.maps.shape == (1, 1000)


def test_path_exact_invariants(example_path):
    checks = verify_path_exact(example_path)
    assert len(checks) == 6
    assert all(c.passed for c in checks)
    assert [c.note for c in checks[:2]] == ["1000 steps", "1001 states"]


def test_states_are_clique_orderings(example_analysis, example_path):
    allowed = {frozenset({2, 4, 5}), frozenset({1, 3, 5})}
    for x in decode(example_analysis, example_path)["X"]:
        assert frozenset(x) in allowed


def test_factorization_all_pairs(example_path):
    for k in (-500, 0):
        check = verify_factorization(example_path, k)
        assert check.passed
        assert check.note == f"{k + 1001} (j,k) pairs at k={k}"


def test_factorization_rejects_a_time_outside_the_window(example_path):
    for k in (-1001, 1):
        with pytest.raises(InputError, match=rf"time {k} outside path range \[-1000, 0\]"):
            verify_factorization(example_path, k)


def test_factorization_on_short_path(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    path = one_path(a, lw, -1, 0, 3)
    check = verify_factorization(path, 0)
    assert check.passed
    # single step reduces to X_k = X_k^L X_k^G Z_W, read off the state tables
    cd, s = a.cliques, int(path.states[0, -1])
    assert cd.state_w[s] == path.z_w[0]
    rees = rees_objects(a.rd)
    x = apply(rees.L[cd.state_l[s]] * rees.G[cd.state_g[s]], tuples(cd.W)[cd.state_w[s]])
    assert x == tuples(cd.W_mu)[s] == decode(a, path)["X"][-1]


def test_seed_reproducibility(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    p1 = one_path(a, lw, -50, 0, 7)
    p2 = one_path(a, lw, -50, 0, 7)
    p3 = one_path(a, lw, -50, 0, 8)
    assert (p1.states == p2.states).all() and (p1.maps == p2.maps).all()
    assert (p1.states != p3.states).any() or (p1.maps != p3.maps).any()


def test_seed_validation(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    with pytest.raises(InputError):
        one_path(a, lw, -10, 0, -1)
    with pytest.raises(InputError):
        one_path(a, lw, 0, 0, 1)
    for seed in (True, False):
        with pytest.raises(InputError, match="seed must be a 64-bit unsigned integer"):
            simulate._check_seed(seed)
        with pytest.raises(InputError, match="seed must be a 64-bit unsigned integer"):
            sample_batch(a, lw, -3, 0, seed, 1000)
    with pytest.raises(InputError, match=r"mass at \(1, 2, 3\) outside W"):
        a.cliques.w_vector(RationalMeasure({(1, 2, 3): 1}))


def test_deterministic_dynamics_constant_path(example_analysis):
    law = MappingLaw.from_dict({"n": 5, "generators": [[4, 2, 2, 4, 5]],
                                "weights": ["1"]})
    a = analyze_law(law)
    lw = w_law(a)
    path = one_path(a, lw, -20, 0, 11)
    assert len(set(decode(a, path)["X"])) == 1  # e acts as the identity on its cliques


def test_empirical_left_factor_frequency(example_analysis):
    # eta_L{fe} = 1/3; over 1e4 stationary states the empirical frequency
    # lands within a 0.02 binomial band for this fixed seed
    a = example_analysis
    fe = Transformation([1, 3, 3, 1, 5])
    lw = w_law(a, {0: 1})
    X_L = decode(a, one_path(a, lw, 0, 10_000, 42))["X_L"]
    freq = sum(1 for l in X_L if l == fe) / len(X_L)
    assert abs(freq - 1 / 3) < 0.02


def test_third_noise_battery_on_example(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    batch = sample_batch(a, lw, -3, 0, 42, 2000)
    checks = verify_third_noise(batch, alpha=0.001)
    assert all(c.passed for c in checks)
    names = [c.name for c in checks]
    assert "U^H_k uniform on H" in names
    by_name = {c.name: c for c in checks}
    assert by_name["U^H_k uniform on H"].df == 5
    assert by_name["U^H_k independent of N-window"].df == (6 - 1) * (8 - 1)
    # p = 1 makes the remote past degenerate here
    assert "degenerate" in by_name["Y_C uniform on C"].note
    # every replication satisfies the exact path invariants
    exact = verify_path_exact(batch) + [verify_factorization(batch, 0)]
    assert all(c.passed for c in exact)
    assert [exact[0].note, exact[-1].note] == ["6000 steps", "8000 (j,k) pairs at k=0"]


def test_third_noise_on_p3_instance(p3h2_analysis):
    a = p3h2_analysis
    lw = w_law(a, {0: "1/2", 1: "1/2"})
    batch = sample_batch(a, lw, -3, 0, 42, 3000)
    checks = verify_third_noise(batch, alpha=0.001)
    assert all(c.passed for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["U^H_k uniform on H"].df == 1
    assert by_name["Y_C uniform on C"].df == 2
    assert by_name["(Y_C, Z_W) joint = omega_C x Lambda_W"].df == 5
    assert by_name["U^H_k independent of (Y_C, Z_W)"].df == (2 - 1) * (6 - 1)


def test_third_noise_requires_enough_replications(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    with pytest.raises(InputError, match="at least 1000 replications"):
        verify_third_noise(sample_batch(a, lw, -3, 0, 1, 100), alpha=0.001)


def test_joint_and_mono_projection_require_enough_replications(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    family = InvariantFamily(c=(Fraction(1),), Lambda_W=(lw,))
    with pytest.raises(InputError) as err:
        verify_nonstationary_joint(sample_batch(a, family, -3, 0, 1, 999), alpha=0.001)
    assert str(err.value) == "joint verification needs at least 1000 replications"
    with pytest.raises(InputError) as err:
        verify_mono_projection(sample_batch(a, lw, -3, 0, 1, 999),
                               mono_projection_events(a.rd), alpha=0.001)
    assert str(err.value) == "mono-projection verification needs at least 1000 replications"


def test_verifiers_reject_the_other_kind_of_batch(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    family = InvariantFamily(c=(Fraction(1),), Lambda_W=(lw,))
    with pytest.raises(InputError, match="needs a stationary batch"):
        verify_third_noise(sample_batch(a, family, -3, 0, 1, 1000), alpha=0.001)
    with pytest.raises(InputError, match="needs a stationary batch"):
        verify_mono_projection(sample_batch(a, family, -3, 0, 1, 1000),
                               mono_projection_events(a.rd), alpha=0.001)
    with pytest.raises(InputError, match="drawn from a family"):
        verify_nonstationary_joint(sample_batch(a, lw, -3, 0, 1, 1000), alpha=0.001)


@pytest.mark.parametrize("bits", [60, 1200])
def test_cdf_rounds_each_weight_as_fraction_does(bits):
    # numerators past 2^53 (not exact in a double) and past 2^1100 (past the
    # double range): each weight is the correctly rounded float of its
    # Fraction, and the zeros are left out
    rng = random.Random(bits)
    for _ in range(300):
        nums = [rng.getrandbits(bits) | 1 << (bits - 1) if rng.random() < 0.7 else 0
                for _ in range(rng.randint(2, 12))]
        nums[0], den = 0, sum(nums) + rng.getrandbits(bits)
        cuts, index = simulate._cdf((np.array(nums, dtype=object), den))
        want = [i for i, v in enumerate(nums) if v]
        assert cuts.dtype == np.float64 and index.tolist() == want
        sums = np.cumsum([float(Fraction(nums[i], den)) for i in want]).tolist()
        assert cuts.tolist() == sums[:-1]


@pytest.mark.parametrize("nums", [
    [0, 3, 0, 0, 5, 2, 0],  # zero weights inside and at the end
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0],  # sums ending at 1 - 2^-53
    [0, 0, 7, 0],  # a single positive item
    [7],
    [1, 0, 2, 0, 4, 0, 0, 8, 0, 16, 32, 0],
    [0, *range(1, simulate.SHORT_CDF + 2)],  # SHORT_CDF cut points
    [*range(3, simulate.SHORT_CDF + 5), 0],  # one more
])
def test_draw_matches_the_running_sum_loop(monkeypatch, nums):
    """The draw against ``scalar_draw``'s loop over the positive weights in
    position order (so its fallback is the last positive item), at every
    uniform at, and one ulp either side of, each running sum, plus 0 and the
    largest uniform 1 - 2^-53. Each case runs with the module's switch
    point, and with each branch forced: by comparisons and by
    ``searchsorted``; on a 1-D array and on a strided view like the
    ``u[:, head:]`` a batch draws its maps from."""
    den = sum(nums)
    items = [(i, Fraction(v, den)) for i, v in enumerate(nums) if v]
    us = {0.0, 1 - 2**-53}
    for s in np.cumsum([float(w) for _, w in items]).tolist():
        us |= {np.nextafter(s, 0.0), s, np.nextafter(s, 2.0)}
    us = sorted(u for u in us if 0 <= u < 1)
    want = [scalar_draw(items, SimpleNamespace(random=lambda: u)) for u in us]
    cdf = simulate._cdf((np.array(nums, dtype=object), den))
    block = np.full((len(us), 5), 0.5)
    block[:, 3], block[:, 4] = us, us[::-1]
    for short in (simulate.SHORT_CDF, len(nums), -1):
        monkeypatch.setattr(simulate, "SHORT_CDF", short)
        assert simulate._draw(cdf, np.array(us)).tolist() == want
        got = simulate._draw(cdf, block[:, 3:])
        assert got[:, 0].tolist() == want and got[:, 1].tolist() == want[::-1]


def test_a_phase_of_coefficient_0_is_never_drawn(monkeypatch):
    # the float sums of (1/10 x10) and of (1/6, 2/3, 1/6) both end at
    # 1 - 2^-53, the largest uniform: a trailing phase of coefficient 0 is
    # not in the cdf, so that uniform draws the last phase of positive weight
    u = 1 - 2**-53
    tenths = _common([Fraction(1, 10)] * 10 + [Fraction(0)])
    assert simulate._draw(simulate._cdf(tenths), np.array([u])).tolist() == [9]
    a = analyze_law(MappingLaw.from_dict({"n": 4, "generators": [[2, 3, 4, 1]],
                                          "weights": ["1"]}))
    assert a.rd.p == 4
    family = InvariantFamily(c=(Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), Fraction(0)),
                             Lambda_W=(w_law(a, {0: 1}),) * 4)
    monkeypatch.setattr(simulate, "philox_uniforms",
                        lambda keys, count: np.full((len(keys), count), u))
    batch = sample_batch(a, family, -5, 0, 7, 3)
    assert batch.y_c.tolist() == [2, 2, 2]


def test_mono_projection_battery(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    batch = sample_batch(a, lw, -3, 0, 42, 2000)
    checks = verify_mono_projection(batch, mono_projection_events(a.rd), alpha=0.001)
    assert all(c.passed for c in checks)
    exact = [c for c in checks if c.kind == "exact"]
    assert exact and all(c.passed for c in exact)


def test_nonstationary_single_term_reduces_to_stationary(example_analysis):
    a = example_analysis
    family = InvariantFamily(
        c=(Fraction(1),),
        Lambda_W=(w_law(a, {0: 1}),),
    )
    path = one_path(a, family, -200, 0, 5)
    checks = verify_path_exact(path) + [verify_factorization(path, 0)]
    assert all(c.passed for c in checks)


def test_nonstationary_deterministic_phase(p3h2_analysis):
    a = p3h2_analysis
    w = tuples(a.cliques.W)[0]
    family = InvariantFamily(
        c=(Fraction(1), Fraction(0), Fraction(0)),
        Lambda_W=(w_law(a, {0: 1}),) * 3,
    )
    C = rees_objects(a.rd).C
    for seed in range(5):
        path = decode(a, one_path(a, family, -30, 0, seed))
        assert path["Y_C"] == C[0]  # i = 0 forced
        assert path["Z_W"] == w
        for i, c in enumerate(path["X_C"]):
            assert c == C[(-30 + i) % 3] * path["Y_C"]


def test_nonstationary_joint_frequencies(p3h2_analysis):
    a = p3h2_analysis
    family = InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=(
            w_law(a, {0: 1}),
            w_law(a, {0: "1/2", 1: "1/2"}),
            w_law(a, {1: 1}),
        ),
    )
    batch = sample_batch(a, family, -10, -7, 42, 4000)
    [check] = verify_nonstationary_joint(batch, alpha=0.001)
    assert check.passed
    assert check.df == 3  # four reachable (phase, w) cells


def e_word(a) -> list:
    """A shortest generator word for the base idempotent, as image tuples."""
    return shortest_words([f.images for f in a.law.measure.support()])[tuples(a.rd.kernel)[a.rd.e]]


def estimate_Te(path, k, word):
    """T_e at time k, read off the driving maps of a one-row batch."""
    maps = [tuples(path.analysis.rd.generators)[m] for m in path.maps[0].tolist()]
    return last_word_time(maps, path.k_min, k, word)


def test_estimate_Te_on_example(example_analysis, example_path):
    a = example_analysis
    word = e_word(a)
    assert word == [(2, 5, 5, 2, 4)] * 3
    te = estimate_Te(example_path, 0, word)
    assert te is not None and te < -3
    # the product over the reported witness window is exactly e
    i = te - example_path.k_min
    n1, n2, n3 = decode(a, example_path)["N"][i:i + 3]  # N_{te+1}, N_{te+2}, N_{te+3}
    assert n3 * n2 * n1 == rees_objects(a.rd).e


def test_estimate_Te_windows_of_200(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    found = 0
    total = 200
    for r in range(total):
        path = one_path(a, lw, -200, 0, 42 ^ r)
        if estimate_Te(path, 0, e_word(a)) is not None:
            found += 1
    assert found == total


def test_estimate_Te_deterministic_law():
    law = MappingLaw.from_dict({"n": 5, "generators": [[4, 2, 2, 4, 5]],
                                "weights": ["1"]})
    a = analyze_law(law)
    lw = w_law(a)
    path = one_path(a, lw, -50, 0, 1)
    assert e_word(a) == [tuples(a.rd.kernel)[a.rd.e]]
    # every position carries the witness; T^e_k is the largest admissible l
    assert estimate_Te(path, 0, e_word(a)) == -2


def test_Te_tail_decays_geometrically(example_analysis):
    a = example_analysis
    lw = w_law(a, {0: 1})
    word = e_word(a)
    gaps = []
    for r in range(400):
        path = one_path(a, lw, -120, 0, 9000 ^ r)
        te = estimate_Te(path, 0, word)
        assert te is not None
        gaps.append(-te)
    # geometric tail: the three-quarter point sits well inside twice the median
    gaps.sort()
    assert gaps[len(gaps) // 2] <= 12
    assert gaps[3 * len(gaps) // 4] <= 2 * gaps[len(gaps) // 2] + 8


def test_one_time_law_matches_invariant_marginal(example_analysis):
    # stationarity: the empirical law of X_k over replications matches the
    # exact invariant law at chi-square level
    from finevo.cliques import invariant_law

    a = example_analysis
    lw = w_law(a, {0: 1})
    W_mu = tuples(a.cliques.W_mu)
    lam = measure_of(W_mu, invariant_law(a, lw))
    counts = {}
    reps = 3000
    for r in range(reps):
        x = W_mu[one_path(a, lw, -3, 0, 42 ^ r).states[0, -1]]
        counts[x] = counts.get(x, 0) + 1
    cats = sorted(set(counts) | set(lam.support()))
    check = chi_square_gof([counts.get(x, 0) for x in cats], vector_of(cats, lam),
                           0.001, "one-time law")
    assert check.passed and check.df == 11


def test_degenerate_H_auto_passes():
    from fuzzlaws import cyclic3_law

    a = analyze_law(cyclic3_law())
    lw = w_law(a)
    batch = sample_batch(a, lw, -2, 0, 42, 1000)
    checks = verify_third_noise(batch, alpha=0.001)
    by_name = {c.name: c for c in checks}
    assert by_name["U^H_k uniform on H"].passed
    assert "degenerate" in by_name["U^H_k uniform on H"].note
    # deterministic dynamics: the N-window has a single category
    assert "degenerate" in by_name["U^H_k independent of N-window"].note
    assert by_name["Y_C uniform on C"].df == 2
    assert all(c.passed for c in checks)


def test_chi_square_gof_reads_the_sample_size_off_its_counts():
    # 40 samples against the uniform law on 2: expected 20 each
    check = chi_square_gof([30, 10], _uniform(2), 0.001, "two")
    assert (check.statistic, check.df, check.passed) == (10.0, 1, True)
    assert "degenerate" in chi_square_gof([5], _uniform(1), 0.001, "one").note
    outside = chi_square_gof([3, 1], (np.array([1, 0], dtype=object), 1), 0.001, "out")
    assert (outside.statistic, outside.df, outside.passed) == (None, 0, False)
    assert outside.note == "observed 1 samples outside the support"
    for counts in ([0, 0], [0]):
        with pytest.raises(InputError, match="needs at least one sample"):
            chi_square_gof(counts, _uniform(len(counts)), 0.001, "none")
    with pytest.raises(InputError, match="negative expected probability at category 1"):
        chi_square_gof([1, 1], (np.array([2, -1], dtype=object), 1), 0.01, "x")


def mixing_uniformity(a, n, replications=2000, seed=7):
    """Chi-square test of the H-part of e N_1 ... N_n z against uniform on
    H, z the first kernel element; replication r draws N_1..N_n from
    Philox(key=seed ^ r)."""
    rees = rees_objects(a.rd)
    split = ScalarReference(a).split
    counts = {}
    for r in range(replications):
        rng = np.random.Generator(np.random.Philox(key=seed ^ r))
        prod = rees.e
        for _ in range(n):
            prod = prod * scalar_draw(a.law.measure.items(), rng)
        _add(counts, split[rees.e * (prod * rees.kernel[0]) * rees.e][1])
    H = rees.H
    return chi_square_gof([counts.get(h, 0) for h in H], _uniform(len(H)),
                          0.001, f"H-part of e N_1..N_{n} z uniform on H")


def test_mixing_trend(example_analysis):
    stats = {n: mixing_uniformity(example_analysis, n) for n in (5, 20, 50)}
    # the word products mix toward uniform on H as the word grows
    assert stats[50].passed and stats[20].passed
    assert stats[5].statistic > stats[50].statistic


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("count", [6, 67])
def test_philox_uniforms_match_numpy_philox(seed, count):
    """The cipher, as row 0 of a two-key call, and the one-key call, which
    reads numpy's generator, each give numpy's doubles."""
    want = np.random.Generator(np.random.Philox(key=seed)).random(count)
    keys = np.array([seed, seed ^ 1], dtype=np.uint64)
    assert philox_uniforms(keys, count)[0].tolist() == want.tolist()
    assert philox_uniforms(keys[:1], count).tolist() == [want.tolist()]


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
@pytest.mark.parametrize("count", [*range(1, 10), 67])
def test_philox_uniforms_match_numpy_philox_on_every_row(seed, count):
    """Many keys and blocks at once: every row reads its own key's stream."""
    keys = np.arange(37, dtype=np.uint64) ^ np.uint64(seed)
    got = philox_uniforms(keys, count)
    assert got.shape == (37, count)
    for key, row in zip(keys.tolist(), got):
        want = np.random.Generator(np.random.Philox(key=key)).random(count)
        assert row.tolist() == want.tolist()


def test_philox_working_memory():
    """At 10^4 keys x 6 draws the peak stays within 10 arrays of
    keys x blocks words, plus 64 KiB: the four cipher words, the two words
    of one product and the four temporaries of the next. A product that
    allocates its low word afresh peaks at 11."""
    keys, blocks = np.arange(10**4, dtype=np.uint64), 2
    philox_uniforms(keys, 6)
    tracemalloc.start()
    try:
        philox_uniforms(keys, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * keys.size * blocks * 8 + 64 * 1024


@pytest.mark.parametrize("a, b", [
    ([5, 0, 5, 9, 0, 9, 9], [3, 3, 100, 3, 7, 100, 7]),
    ([4, 4, 4, 4], [0, 2, 2, 5]),
    ([0, 8, 8, 3], [6, 6, 6, 6]),
    ([7, 7, 7], [2, 2, 2]),
    (list(range(0, 300, 3)) * 2, [1, 40] * 100),
])
def test_table_counts_pairs_in_code_order(a, b):
    """The contingency table of two code columns against np.unique ranks."""
    rows, ia = np.unique(a, return_inverse=True)
    cols, ib = np.unique(b, return_inverse=True)
    want = np.zeros((len(rows), len(cols)), dtype=int)
    for i, j in zip(ia, ib):
        want[i, j] += 1
    got = simulate._table(np.array(a), np.array(b))
    assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("k_min", [-5, -300])
@pytest.mark.parametrize("rows_per_chunk", [7, 1, 0.5])
def test_batch_rows_do_not_depend_on_the_chunk_size(example_analysis, monkeypatch,
                                                    k_min, rows_per_chunk):
    """Chunks of 7 rows, of one row, and of less than one row's uniforms
    (still one row per chunk), on a short and a 300-step window."""
    a = example_analysis
    lw = w_law(a, {0: 1})
    whole = sample_batch(a, lw, k_min, 0, 2**64 - 3, 50)
    draws_per_row = 3 - k_min
    monkeypatch.setattr(simulate, "BLOCK", int(rows_per_chunk * draws_per_row))
    chunked = sample_batch(a, lw, k_min, 0, 2**64 - 3, 50)
    assert (whole.states == chunked.states).all()
    assert (whole.maps == chunked.maps).all()


@pytest.fixture()
def tested_counts(monkeypatch):
    """What the verifiers hand to the chi-square tests, in order: pairs of
    the check's name and its counts, a sequence for a goodness-of-fit test
    and a row x column table for an independence test."""
    seen = []
    for name in ("chi_square_gof", "chi_square_independence"):
        def spy(counts, *args, _test=getattr(simulate, name)):
            seen.append((args[-1], np.asarray(counts)))
            return _test(counts, *args)
        monkeypatch.setattr(simulate, name, spy)
    return seen


def as_dicts(seen, labels) -> list:
    """The captured counts as dicts keyed by the objects they count, zero
    counts left out. ``labels[name]`` lists the categories of a
    goodness-of-fit test in order, or holds the (rows, columns) of an
    independence table."""
    out = []
    for name, counts in seen:
        if counts.ndim == 1:
            cells = zip(labels[name], counts.tolist(), strict=True)
        else:
            rows, cols = labels[name]
            cells = (((x, y), c) for x, row in zip(rows, counts.tolist(), strict=True)
                     for y, c in zip(cols, row, strict=True))
        out.append({key: c for key, c in cells if c})
    return out


def joint_labels(a) -> list:
    """The (Y_C, Z_W) categories of a goodness-of-fit test: C by j, then W."""
    return [(c, w) for c in rees_objects(a.rd).C for w in tuples(a.cliques.W)]


def _add(counts, key):
    counts[key] = counts.get(key, 0) + 1


REPS = 2000


def _third_noise_reference(ref, lw, steps, seed):
    counts = [{} for _ in range(6)]
    rows = [ref.stationary(lw, -steps, 0, seed ^ r) for r in range(REPS)]
    for row in rows:
        u = ref.h_part(row["X"][-1])
        yz = (row["Y_C"], row["Z_W"])
        nw = tuple(row["N"])
        for d, key in zip(counts, (u, row["Y_C"], yz, (u, yz), (u, nw), (yz, nw))):
            _add(d, key)
    return counts, rows


# a window of 12 maps on the example's 2 generators has 2^12 > REPS radix
# codes, so the N-window codes are ranked once they pass REPS
@pytest.mark.parametrize("name, steps", [("example", 3), ("cyclic3", 3), ("p3h2", 3),
                                         ("example", 12)],
                         ids=["example", "cyclic3", "p3h2", "example-window12"])
def test_stationary_counts_match_scalar_reference(name, steps, request, tested_counts):
    a = request.getfixturevalue(f"{name}_analysis")
    lw = w_law(a)
    ref = ScalarReference(a)
    want, rows = _third_noise_reference(ref, lw, steps, 42)
    batch = sample_batch(a, lw, -steps, 0, 42, REPS)
    verify_third_noise(batch, alpha=0.001)
    assert [ref.decode(batch, r) for r in range(REPS)] == rows

    # independence tables: the observed categories in the order of the objects
    u = sorted({ref.h_part(row["X"][-1]) for row in rows})
    yz = sorted({(row["Y_C"], row["Z_W"]) for row in rows})
    nw = sorted({tuple(row["N"]) for row in rows})
    group = rees_objects(a.rd)
    assert as_dicts(tested_counts, {
        "U^H_k uniform on H": group.H,
        "Y_C uniform on C": group.C,
        "(Y_C, Z_W) joint = omega_C x Lambda_W": joint_labels(a),
        "U^H_k independent of (Y_C, Z_W)": (u, yz),
        "U^H_k independent of N-window": (u, nw),
        "(Y_C, Z_W) independent of N-window": (yz, nw),
    }) == want


@pytest.mark.parametrize("gens, steps, rows", [
    (2, 3, 100),    # g^w below R: the radix codes stand
    (2, 7, 128),    # g^w equal to R
    (2, 12, 100),   # g^w above R: ranked once the codes pass R
    (3, 40, 500),   # g^w far past 2^64
    (50, 2, 20),    # g above R: ranked from the first map
    (1, 5, 30),     # one generator, as in cyclic3: every window gets code 0
])
def test_window_codes_sort_as_the_windows(gens, steps, rows):
    maps = np.random.default_rng(gens * steps + rows).integers(gens, size=(rows, steps))
    codes = simulate._window_codes(maps.astype(np.int32), gens)
    assert codes.min() >= 0 and codes.max() < rows
    windows = sorted(set(map(tuple, maps.tolist())))
    rank = {window: i for i, window in enumerate(windows)}
    assert np.unique(codes, return_inverse=True)[1].tolist() == [
        rank[tuple(window)] for window in maps.tolist()]
    if gens == 1:
        assert not codes.any()


def test_mono_counts_match_scalar_reference(example_analysis, tested_counts):
    a = example_analysis
    lw = w_law(a, {0: 1})
    ref = ScalarReference(a)
    want = {}
    for r in range(REPS):
        _add(want, ref.stationary(lw, -3, 0, 42 ^ r)["X"][-1][0])
    verify_mono_projection(
        sample_batch(a, lw, -3, 0, 42, REPS), mono_projection_events(a.rd), alpha=0.001
    )
    labels = {"empirical X^1_k law matches the invariant marginal": range(1, a.law.n + 1)}
    assert as_dicts(tested_counts, labels) == [want]


def test_nonstationary_counts_match_scalar_reference(p3h2_analysis, tested_counts):
    a = p3h2_analysis
    family = InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=(
            w_law(a, {0: 1}),
            w_law(a, {0: "1/2", 1: "1/2"}),
            w_law(a, {1: 1}),
        ),
    )
    ref = ScalarReference(a)
    want = {}
    for r in range(REPS):
        row = ref.nonstationary(family, -10, -7, 42 ^ r)
        _add(want, (row["Y_C"], row["Z_W"]))
    verify_nonstationary_joint(
        sample_batch(a, family, -10, -7, 42, REPS),
        alpha=0.001,
    )
    labels = {"(Y_C, Z_W) joint = c_i Lambda_W^i": joint_labels(a)}
    assert as_dicts(tested_counts, labels) == [want]
    path = one_path(a, family, -10, 30, 42 ^ 5)
    assert ref.decode(path, 0) == ref.nonstationary(family, -10, 30, 42 ^ 5)


def test_nonstationary_paths_match_scalar_reference(example_analysis):
    # two L-parts and H = G: every one of the four start draws shows in X
    a = example_analysis
    family = InvariantFamily(
                             c=(Fraction(1),),
                             Lambda_W=(w_law(a, {0: 1}),))
    ref = ScalarReference(a)
    for seed in range(40):
        path = one_path(a, family, -4, 0, seed)
        assert ref.decode(path, 0) == ref.nonstationary(family, -4, 0, seed)



def failing(batch, k) -> set:
    """Names of the path checks a batch fails, factorization at k included."""
    checks = verify_path_exact(batch) + [verify_factorization(batch, k)]
    return {c.name for c in checks if not c.passed}


def edited(batch, field, r, i, value):
    """The batch with ``field`` (``states`` or ``maps``) changed at [r, i]."""
    array = getattr(batch, field).copy()
    array[r, i] = value
    return replace(batch, **{field: array})


RECURSION = "path recursion X_k = N_k X_{k-1}"
W_CONSTANT = "X_W constant along the path"
PHASE = "X^C_k = gamma^k Y_C"
INCREMENT = "M^G_k = (N_k X^L_{k-1})^G"
INCREMENT_PHASE = "(M^G_k)^C = gamma"
FACTORIZATION = "factorization X_j = X_j^L (M^G_{k,j})^-1 (gamma^k Y_C) U^H_k Z_W"


@pytest.fixture(scope="module")
def p3h2_batch(p3h2_analysis):
    """Three 40-step rows of the p = 3, |H| = 2 law, from every W-orbit."""
    a = p3h2_analysis
    assert (a.rd.p, len(a.rd.H), len(a.cliques.W)) == (3, 2, 120)
    return sample_batch(a, w_law(a), -40, 0, 42, 3)


def test_path_checks_pass_the_unedited_batch(p3h2_batch):
    assert failing(p3h2_batch, 0) == failing(p3h2_batch, -20) == set()


def test_recursion_check_rejects_an_edited_map(p3h2_analysis, p3h2_batch):
    """Another map at one step: the next tuple is no longer its image."""
    batch, W_mu = p3h2_batch, tuples(p3h2_analysis.cliques.W_mu)
    x, y = (W_mu[s] for s in batch.states[1, 20:22].tolist())
    f = next(f for f, g in enumerate(rees_objects(p3h2_analysis.rd).generators)
             if apply(g, x) != y)
    assert failing(edited(batch, "maps", 1, 20, f), 0) == {RECURSION, INCREMENT}


@pytest.mark.parametrize("part, caught", [
    ("w", {RECURSION, W_CONSTANT, FACTORIZATION}),
    ("coset", {RECURSION, PHASE, INCREMENT, INCREMENT_PHASE}),
    ("h", {RECURSION, INCREMENT}),
])
def test_path_checks_reject_an_edited_state(p3h2_batch, part, caught):
    """X_20 of row 1 replaced by the state with one coordinate changed: the
    W-orbit, the coset gamma^j of its G-part, or the H-part h of gamma^j h.
    The factorization telescopes through the increments, so only a changed
    W-part shows in it."""
    batch = p3h2_batch
    cd = batch.analysis.cliques
    s = int(batch.states[1, 20])
    l, w, j, h = (int(a[s]) for a in (cd.state_l, cd.state_w, cd.state_c, cd.state_h))
    if part == "w":
        w = (w + 1) % len(cd.W)
    elif part == "coset":
        j = (j + 1) % 3
    else:
        h = 1 - h
    state = cd.lgw[l, batch.analysis.rd.coset_h[j, h], w]
    assert failing(edited(batch, "states", 1, 20, state), 0) == caught


def test_path_checks_compose_instead_of_reading_the_tables(p3h2_analysis, p3h2_batch):
    """The recursion and L G W checks compose the tuples themselves: a
    batch drawn on a step table with two entries swapped fails the
    recursion, and a batch read through a corrupted ``state_w`` fails
    X_k in L G W."""
    a, batch = p3h2_analysis, p3h2_batch
    cd = a.cliques
    f, s = int(batch.maps[1, 20]), int(batch.states[1, 20])
    other = next(t for t in range(len(cd.W_mu)) if cd.step[f, t] != cd.step[f, s])
    step = cd.step.copy()
    step[f, [s, other]] = step[f, [other, s]]
    swapped = replace(a, cliques=replace(cd, step=step))
    redrawn = sample_batch(swapped, batch.initial, batch.k_min, batch.k_max, batch.seed, 3)
    assert (redrawn.maps == batch.maps).all() and (redrawn.states != batch.states).any()
    assert RECURSION in failing(redrawn, 0)

    state_w = cd.state_w.copy()
    state_w[s] = (state_w[s] + 1) % len(cd.W)
    corrupted = replace(batch, analysis=replace(a, cliques=replace(cd, state_w=state_w)))
    assert "X_k in L G W" in failing(corrupted, 0)
