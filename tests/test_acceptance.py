"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criterion 4 checks the literal running average (1/n) sum_{k=1..n} mu^k at
n = 10^4 within 1e-9 of its exact two-term expansion nu + D/n. The powers
mu^k approach the limit cycle cyc_k geometrically, so for p | n the sum
telescopes to n nu + D + O(rho^n) with D = sum_{k>=1} (mu^k - cyc_k), a
fixed rational signed measure of total mass 0. The average therefore
converges to nu at rate exactly Theta(1/n) whenever D != 0 (for the example
max|D| = 8/15, a sup error of 5.3e-5 at n = 10^4), and the criterion asserts
both the expansion and D != 0. D comes from the independent Fraction oracle
``cesaro_first_order`` in tests/oracles.py.
"""

import time
from fractions import Fraction

import pytest

from finevo import analyze_law, example_law
from finevo.cliques import InvariantFamily, classify_family, invariant_law
from finevo.limits import float_limit_oracle, sup_error
from finevo.cli import mono_projection_events
from finevo.measure import RationalMeasure
from finevo.simulate import (
    sample_batch,
    verify_factorization,
    verify_mono_projection,
    verify_nonstationary_joint,
    verify_path_exact,
    verify_third_noise,
)
from finevo.transform import Transformation
from fuzzlaws import cyclic3_law, group_kernel_laws, p3_h2_law, r7g2_law
from oracles import (
    ScalarReference,
    apply,
    cesaro_first_order,
    convolve,
    coordinate_marginal,
    element,
    element_order,
    float_law,
    measure_of,
    power,
    project,
    push_tuples,
    rees_objects,
    tuples,
    two_term_residual,
    vector_of,
)

SEED = 42
R = 10_000
ALPHA = 0.001


def report_line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' | ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_golden_example_exact():
    start = time.monotonic()
    a = analyze_law(example_law())
    problems = []

    e = Transformation([4, 2, 2, 4, 5])
    fe = Transformation([1, 3, 3, 1, 5])
    ef = Transformation([2, 2, 4, 4, 5])
    h = Transformation([2, 4, 4, 2, 5])
    g = Transformation([2, 5, 5, 2, 4])

    def check(label, ok):
        if not ok:
            problems.append(label)

    rees, cd = rees_objects(a.rd), a.cliques
    check("e", rees.e == e)
    check("h in G", h in set(rees.G))
    check("fe", fe in set(rees.L))
    check("ef", ef in set(rees.R))
    check("L", set(rees.L) == {e, fe})
    check("|G|", len(rees.G) == 6)
    check("g^3 = e", power(g, 3) == e)
    check("h^2 = e", h * h == e)
    check("R", set(rees.R) == {e, ef})
    check("eta_L", measure_of(rees.L, a.limits.eta_L) == RationalMeasure({e: "2/3", fe: "1/3"}))
    check("eta_R", measure_of(rees.R, a.limits.eta_R) == RationalMeasure({e: "2/3", ef: "1/3"}))
    check("H = G", set(rees.H) == set(rees.G))
    check("p", a.rd.p == 1)
    check("m_mu", cd.m_mu == 3)
    check("|W_mu|", len(cd.W_mu) == 12)
    check("W", tuples(cd.W) == ((2, 4, 5),))
    s = tuples(cd.W_mu).index((3, 5, 1))
    check(
        "projection of (3,5,1)",
        (rees.L[cd.state_l[s]], rees.G[cd.state_g[s]], tuples(cd.W)[cd.state_w[s]])
        == (fe, Transformation([5, 2, 2, 5, 4]), (2, 4, 5)),
    )
    lam = coordinate_marginal(measure_of(tuples(cd.W_mu), invariant_law(
        a, vector_of(tuples(cd.W), {(2, 4, 5): 1}))), 1)
    check(
        "marginal lambda",
        lam == RationalMeasure({1: "1/9", 2: "2/9", 3: "1/9", 4: "2/9", 5: "3/9"}),
    )

    elapsed = time.monotonic() - start
    check("runtime < 1 s", elapsed < 1.0)
    report_line(
        "criterion 1 (golden example, exact)",
        not problems,
        f"{elapsed:.2f}s" + (f"; failed: {problems}" if problems else ""),
    )


def _structural_suite(a) -> list:
    problems = []
    S = [element(row) for row in a.closure]
    rd, cd, group = a.rd, a.cliques, rees_objects(a.rd)
    K = group.kernel
    eta, nu = measure_of(K, a.limits.eta), measure_of(K, a.limits.nu)
    kset = set(K)
    mu = a.law.measure

    if not all(s * z in kset and z * s in kset for s in S for z in K):
        problems.append("kernel not an ideal")
    for l in group.L:
        for g in group.G:
            for r in group.R:
                z = l * g * r
                if project(group, z) != (l, g, r):
                    problems.append("Rees bijection round trip")
                if (z * z == z) != (r * l == group.inverse[g]):
                    problems.append("idempotency criterion")
    for z, (i, j, k) in zip(K, rd.coords):
        l, g, r = project(group, z)
        if (l * g * r != z or l not in set(group.L) or g not in set(group.G)
                or r not in set(group.R)):
            problems.append("projection formula")
        if (group.L[i], group.G[j], group.R[k]) != (l, g, r):
            problems.append("Rees coordinates")
    gset = set(group.G)
    if not all(r * l in gset for r in group.R for l in group.L):
        problems.append("RL not inside G")

    if convolve(eta, eta) != eta:
        problems.append("eta^2 != eta")
    acc = eta
    for _ in range(rd.p):
        acc = convolve(mu, acc)
    if acc != eta:
        problems.append("mu^p eta != eta")
    if convolve(nu, nu) != nu:
        problems.append("nu^2 != nu")
    if convolve(mu, nu) != nu or convolve(nu, mu) != nu:
        problems.append("mu nu != nu or nu mu != nu")
    if set(nu.support()) != kset:
        problems.append("supp(nu) != kernel")
    lhr = {l * h * r for l in group.L for h in group.H for r in group.R}
    if set(eta.support()) != lhr:
        problems.append("supp(eta) != LHR")

    for g in group.G:
        order = element_order(g, group.e, len(group.G))
        if group.inverse[g] != (group.e if order == 1 else power(g, order - 1)):
            problems.append("group inverse")
    hset = set(group.H)
    if not all(group.inverse[g] * h * g in hset for h in group.H for g in group.G):
        problems.append("H not normal")
    gamma, C = group.gamma, group.C
    if power(gamma, rd.p) != group.e:
        problems.append("gamma^p != e")
    if C[0] != group.e or any(C[j - 1] * gamma != C[j] for j in range(1, rd.p)):
        problems.append("C is not the powers of gamma")
    covered = [C[j] * h for j in range(rd.p) for h in group.H]
    if sorted(covered) != sorted(group.G) or len(covered) != len(set(covered)):
        problems.append("cosets do not partition G")
    if any(group.coset_of[C[j] * h] != j for j in range(rd.p) for h in group.H):
        problems.append("coset index")
    if rd.p * len(group.H) != len(rd.G):
        problems.append("p != index of H in G")

    seen = {}
    for l in group.L:
        for g in group.G:
            lg = l * g
            for w in tuples(cd.W):
                x = apply(lg, w)
                if x in seen:
                    problems.append("LGW not injective")
                seen[x] = True
    if set(seen) != set(tuples(cd.W_mu)):
        problems.append("LGW != W_mu")

    W = tuples(cd.W)
    uniform_W = vector_of(W, dict.fromkeys(W, Fraction(1, len(W))))
    lam = measure_of(tuples(cd.W_mu), invariant_law(a, uniform_W))
    if push_tuples(a.law, lam) != lam:
        problems.append("invariant law not fixed")
    return problems


def test_criterion_2_structural_suite(fuzz_corpus, fuzz_analyses):
    analyses, setup_elapsed = fuzz_analyses
    start = time.monotonic()
    failures = []
    # the group-kernel laws add p = 2 (S4), p = 3 and |G| up to 120
    extra = [example_law(), *group_kernel_laws(), r7g2_law()]
    for a in [*map(analyze_law, extra), *analyses]:
        problems = _structural_suite(a)
        if problems:
            failures.append((a.law, problems))
    elapsed = time.monotonic() - start + setup_elapsed
    ok = not failures and len(analyses) >= 200 and elapsed < 10.0
    report_line(
        "criterion 2 (structural suite on example, group kernels, r7g2 + fuzz)",
        ok,
        f"{len(analyses)} fuzz laws, {elapsed:.2f}s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_3_oracle_equivalence(fuzz_corpus, fuzz_analyses):
    analyses, _ = fuzz_analyses
    start = time.monotonic()
    cases = [analyze_law(example_law()), analyze_law(cyclic3_law())] + analyses
    worst = 0.0
    failures = []
    for a in cases:
        est = float_limit_oracle(a, n=1)
        if not est.converged or est.p_est != a.rd.p:
            failures.append((a.law, est.p_est, a.rd.p))
            continue
        err = max(sup_error(a, a.limits.eta, est.eta), sup_error(a, a.limits.nu, est.nu))
        worst = max(worst, err)
        if err >= 1e-9:
            failures.append((a.law, err))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 30.0
    report_line(
        "criterion 3 (oracle equivalence)",
        ok,
        f"{len(cases)} laws, worst sup error {worst:.2e}, {elapsed:.2f}s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_4_cesaro_convergence():
    a = analyze_law(example_law())
    n = 10_000
    avg = float_limit_oracle(a, n).average
    err = sup_error(a, a.limits.nu, avg)

    gens, weights = zip(*((f.images, w) for f, w in a.law.measure.items()))
    K = rees_objects(a.rd).kernel
    eta = {f.images: w for f, w in measure_of(K, a.limits.eta).items()}
    D = cesaro_first_order(gens, weights, eta)
    residual = two_term_residual(float_law(a.closure, avg), measure_of(K, a.limits.nu), D, n)
    sup_D = max((abs(v) for v in D.values()), default=Fraction(0))
    ok = residual < 1e-9 and sup_D != 0 and sum(D.values()) == 0
    report_line(
        "criterion 4 (Cesaro running average at n=1e4 within 1e-9 of nu + D/n)",
        ok,
        f"sup|avg - nu| {err:.3e}, max|D|/n {float(sup_D) / n:.3e} "
        f"(max|D| = {sup_D}, sum D = {sum(D.values())}), "
        f"sup|avg - (nu + D/n)| {residual:.3e}",
    )


def test_criterion_5_simulation_exact_checks(example_analysis, p3h2_analysis):
    start = time.monotonic()
    failures = []

    a = example_analysis
    W = tuples(a.cliques.W)
    lw = vector_of(W, {W[0]: 1})
    batch = sample_batch(a, lw, -1000, 0, SEED, 1)
    for c in verify_path_exact(batch):
        if not c.passed:
            failures.append(("example long path", c.name))
    for k in (0, -250, -700):
        c = verify_factorization(batch, k)
        if not c.passed:
            failures.append(("example factorization", k))

    # five mono-particle event identities, checked at every step
    rees = rees_objects(a.rd)
    e = rees.e
    fe = next(l for l in rees.L if l != e)
    events = {1: (fe, 4), 2: (e, 2), 3: (fe, 2), 4: (e, 4), 5: (None, 5)}
    path = ScalarReference(a).decode(batch, 0)
    for i, x in enumerate(path["X"]):
        u2 = path["X_G"][i].images[1]
        xl = path["X_L"][i]
        for value, (want_l, want_u2) in events.items():
            holds = (want_l is None or xl == want_l) and u2 == want_u2
            if (x[0] == value) != holds:
                failures.append(("mono identity", batch.k_min + i, value))

    b = p3h2_analysis
    W = tuples(b.cliques.W)
    family = InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=tuple(vector_of(W, lam) for lam in (
            {W[0]: 1},
            {W[0]: "1/2", W[1]: "1/2"},
            {W[1]: 1},
        )),
    )
    batch_b = sample_batch(b, family, -1000, 0, SEED, 1)
    for c in verify_path_exact(batch_b):
        if not c.passed:
            failures.append(("p3 long path", c.name))
    for k in (0, -400):
        c = verify_factorization(batch_b, k)
        if not c.passed:
            failures.append(("p3 factorization", k))

    # every one of R short replication paths satisfies the exact battery
    replications = sample_batch(a, lw, -3, 0, SEED, R)
    for c in verify_path_exact(replications) + [verify_factorization(replications, 0)]:
        if not c.passed:
            failures.append(("replication battery", c.name))

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report_line(
        "criterion 5 (simulation exact checks)",
        ok,
        f"R={R}, 10^3-step paths, {elapsed:.2f}s"
        + (f"; failures: {failures[:5]}" if failures else ""),
    )


def test_criterion_6_statistical_checks(example_analysis, p3h2_analysis):
    start = time.monotonic()
    failing = []

    a = example_analysis
    W = tuples(a.cliques.W)
    lw = vector_of(W, {W[0]: 1})
    batch = sample_batch(a, lw, -3, 0, SEED, R)
    rep1 = verify_third_noise(batch, alpha=ALPHA)
    rep2 = verify_mono_projection(batch, mono_projection_events(a.rd), alpha=ALPHA)
    # the example law has p = 1; the p = 3 instance makes the phase and
    # remote-past checks nondegenerate at the same alpha/R/seed
    b = p3h2_analysis
    W = tuples(b.cliques.W)
    lwb = vector_of(W, {W[0]: "1/2", W[1]: "1/2"})
    rep3 = verify_third_noise(
        sample_batch(b, lwb, -3, 0, SEED, R), alpha=ALPHA
    )
    for rep in (rep1, rep2, rep3):
        failing.extend(c.name for c in rep if not c.passed)

    names = {c.name for c in rep1 + rep2 + rep3}
    required = {
        "U^H_k uniform on H",
        "Y_C uniform on C",
        "(Y_C, Z_W) joint = omega_C x Lambda_W",
        "U^H_k independent of (Y_C, Z_W)",
        "U^H_k independent of N-window",
        "empirical X^1_k law matches the invariant marginal",
    }
    missing = required - names

    elapsed = time.monotonic() - start
    ok = not failing and not missing
    report_line(
        "criterion 6 (statistical checks, alpha=0.001, R=1e4, seed 42)",
        ok,
        f"{elapsed:.2f}s"
        + (f"; failing: {failing}" if failing else "")
        + (f"; missing: {missing}" if missing else ""),
    )


def test_criterion_7_nonstationary_reduction(p3h2_analysis):
    start = time.monotonic()
    b = p3h2_analysis
    W = tuples(b.cliques.W)
    w0, w1 = W[0], W[1]
    family = InvariantFamily(
        c=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        Lambda_W=tuple(vector_of(W, lam)
                       for lam in ({w0: 1}, {w0: "1/2", w1: "1/2"}, {w1: 1})),
    )
    rep = verify_nonstationary_joint(
        sample_batch(b, family, -10, -7, SEED, R),
        alpha=ALPHA,
    )
    joint_ok = all(c.passed for c in rep)

    back = classify_family(b, family.law_at(b, 0))
    round_trip_ok = back.c == family.c and (
        [measure_of(W, lam) for lam in back.Lambda_W]
        == [measure_of(W, lam) for lam in family.Lambda_W])

    elapsed = time.monotonic() - start
    ok = joint_ok and round_trip_ok
    report_line(
        "criterion 7 (non-stationary reduction, p=3)",
        ok,
        f"{elapsed:.2f}s"
        + ("" if joint_ok else "; joint frequencies rejected")
        + ("" if round_trip_ok else "; classification round trip failed"),
    )
