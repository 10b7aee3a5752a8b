"""Seeded simulation of multiparticle evolutions and the verification
battery for the factor processes extracted from them.

A batch holds, for every replication of a window, the positions of the
driving maps N_k in ``rd.generators`` and of the observed tuples X_k in
W_mu; the factor series (L-, G-, phase-, H- and W-parts, the G-increments
and the path constants) are read off the integer tables of the analysis
(``CliqueData`` and ``ReesData``). The replication harness realizes the
infinite past by starting each window from the exact stationary law. All
replications of a window are drawn at once: replication r reads the
counter-based Philox4x64-10 substream keyed [seed XOR r, 0], computed in
lock-step over r, and its states advance on the step table. A single path
is the one-replication case. Rounds 1-2 of the cipher run on the key and
the counter factors apart, so only rounds 3-10 run per (replication, block),
and the words are the same. A chunk of one row (a single path, say) reads
numpy's own Philox generator, whose doubles are the cipher's. The exact
checks run on every row of a batch:
the tuples of every state are composed on image rows by gathers, and the
group identities read the Rees tables. The statistical checks count
positions, coded so that their categories keep the order of the objects
they stand for (an N-window by the digits of its maps), and rank the codes
of each table by a table of their counts; each refuses a batch of the other
kind or of too few replications in one guard, ``_check_batch``, and both
tests of the (Y_C, Z_W) joint read the family's exact table,
``InvariantFamily.joint``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .cliques import InvariantFamily, invariant_law, stationary_family
from .errors import InputError, ResourceLimitError
from .measure import _common, _uniform
from .semigroup import BLOCK
from .stats import Check, chi_square_gof, chi_square_independence

MAX_SEED = 2**64

# The fewest replications the statistical checks take; a config asking for
# fewer is refused before the law is analyzed.
MIN_REPLICATIONS = 1000

# Bound on replications x draws per row in one sample_batch. A chunk holds at
# least one row, so one long replication draws all its uniforms at once:
# tracemalloc measured peaks of 32 bytes per draw for one replication and
# 7-11 for chunked batches (2^20 and 2^21 draws), about 256 MiB at the bound.
MAX_BATCH_DRAWS = 1 << 23

# The most cut points a draw counts by comparisons (see _draw).
SHORT_CDF = 8

# Philox4x64-10 (Salmon et al., SC'11): multipliers, and the key schedule
# [k + i*W0, i*W1] mod 2^64 of round i for a key [k, 0].
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_ROUND_KEYS = tuple(
    (np.uint64(i * 0x9E3779B97F4A7C15 % 2**64), np.uint64(i * 0xBB67AE8584CAA73B % 2**64))
    for i in range(10)
)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < MAX_SEED:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple:
    """High and low words of the 128-bit products a*b, from 32-bit halves:
    with u = b_lo*a_hi + (b_lo*a_lo >> 32) and v = b_hi*a_lo + (u & M),
    hi = b_hi*a_hi + (u >> 32) + (v >> 32), every term below 2^64. Four
    arrays, b's halves first: other orders raised the battery's peak RSS."""
    a_lo, a_hi = a & _LOW32, a >> _32
    b_lo = b & _LOW32
    v = b >> _32
    hi = v * a_hi
    u = b_lo * a_hi
    b_lo *= a_lo
    b_lo >>= _32
    u += b_lo
    v *= a_lo
    np.bitwise_and(u, _LOW32, out=b_lo)
    v += b_lo
    u >>= _32
    hi += u
    v >>= _32
    hi += v
    return hi, np.multiply(b, a, out=u)


def philox_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` doubles of
    ``np.random.Generator(np.random.Philox(key=k)).random()`` for every
    uint64 key k, as a (len(keys), count) array.

    Philox4x64-10 with key [k, 0]: block i (from 0) enciphers the counter
    [i+1, 0, 0, 0], its four words are used in order, and a word x gives
    the double (x >> 11) * 2^-53. One key reads numpy's generator itself
    (11 against 180 us for 67 draws), more run the cipher in lock-step.
    """
    if len(keys) == 1:
        return np.random.Generator(np.random.Philox(key=int(keys[0]))).random(count)[None]
    blocks = -(-count // 4)
    # Round 1 multiplies only the counter word (its other product is M1*0)
    # and leaves [k, 0, hi(M0(i+1)), lo(M0(i+1))]; round 2 multiplies k per
    # key and hi(M0(i+1)) per block, and its xors broadcast to (keys, blocks).
    hi, lo = _mulhilo(_PHILOX_M0, np.arange(1, blocks + 1, dtype=np.uint64))
    hi0, lo0 = _mulhilo(_PHILOX_M0, keys)
    hi1, c1 = _mulhilo(_PHILOX_M1, hi)
    w0, w1 = _PHILOX_ROUND_KEYS[1]
    key = keys[:, None]
    c0, c2, c3 = hi1 ^ (key + w0), (hi0 ^ w1)[:, None] ^ lo, lo0[:, None]
    for w0, w1 in _PHILOX_ROUND_KEYS[2:]:
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= key + w0
        hi0 ^= c3
        hi0 ^= w1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty((len(keys), blocks, 4))
    for j, word in enumerate((c0, c1, c2, c3)):
        word >>= _11
        out[:, :, j] = word
    out *= 2.0**-53
    return out.reshape(len(keys), 4 * blocks)[:, :count]


def _uniform_chunks(seed: int, replications: int, count: int):
    """(rows, uniforms) for consecutive chunks of replications; row r of the
    whole batch reads the substream keyed seed ^ r. A chunk of
    max(1, BLOCK // count) rows bounds the generator's temporaries, about 40
    bytes per uniform, whatever the window and the replications."""
    chunk = max(1, BLOCK // count)
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        keys = np.arange(start, stop, dtype=np.uint64) ^ np.uint64(seed)
        yield slice(start, stop), philox_uniforms(keys, count)


def _cdf(x: tuple) -> tuple:
    """The inner cut points of a vector (numerators, denominator): the
    running float sums of its positive weights in position order, without
    the last; and the positions of those weights."""
    nums, den = x
    index = np.flatnonzero(nums)
    # Python's int / int is correctly rounded at any size, as float(Fraction) is
    return np.cumsum(nums[index] / den, dtype=float)[:-1], index


def _draw(cdf: tuple, u: np.ndarray) -> np.ndarray:
    """For every uniform, the first item whose running sum exceeds it, or the
    last item when none does: the item past every cut point at most u.

    That item is at the count of cut points <= u: up to ``SHORT_CDF`` cut
    points, one comparison each counts it, past that ``searchsorted``. On
    the (10^4, 3) strided views of a battery's maps (2-core x86, median of
    7): 414 against 619 us at 6 cut points, 546 against 692 at 8, 812
    against 827 at 12, 975 against 858 at 14.
    """
    cuts, index = cdf
    if len(cuts) > SHORT_CDF:
        return index[np.searchsorted(cuts, u, side="right")]
    at = np.zeros(u.shape, dtype=np.intp)
    for x in cuts.tolist():
        at += u >= x
    return index[at]


@dataclass(frozen=True, eq=False)
class PathBatch:
    """R replications of one window [k_min, k_max], drawn in lock-step.

    Row r is replication r, drawn from the substream seed ^ r. ``maps[r, i]``
    is the position in ``rd.generators`` of the map driving the step into
    time k_min + 1 + i and ``states[r, i]`` the position in ``W_mu`` of the
    state at time k_min + i. ``initial`` is the Lambda_W, a W vector
    (stationary), or the InvariantFamily (nonstationary) that the first
    state was drawn from.
    """

    analysis: Analysis
    initial: object
    k_min: int
    k_max: int
    seed: int
    maps: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return len(self.states)

    @property
    def y_c(self) -> np.ndarray:
        """Per row, the j with Y_C = gamma^j: gamma^(-k_min) X^C_{k_min}."""
        cd = self.analysis.cliques
        return (cd.state_c[self.states[:, 0]] - self.k_min) % self.analysis.rd.p

    @property
    def z_w(self) -> np.ndarray:
        """Per row, the position of Z_W in W."""
        return self.analysis.cliques.state_w[self.states[:, 0]]


def sample_batch(
    analysis: Analysis,
    initial,
    k_min: int,
    k_max: int,
    seed: int,
    replications: int,
) -> PathBatch:
    """R = ``replications`` windows X_{k_min..k_max} drawn in lock-step.

    With a W vector Lambda_W, X_{k_min} ~ eta_L omega_G Lambda_W by three independent
    draws (l, g, w). With an InvariantFamily, the phase index i is drawn with
    probability c_i, then w ~ Lambda_W^i, l ~ eta_L and h ~ omega_H give
    X_{k_min} = (l gamma^(k_min+i) h)(w). Then X_k = N_k X_{k-1} with iid
    maps. Each draw reads the next uniform of the row's substream and picks
    the first item whose running float sum of weights, in position order
    (the order of the objects), exceeds it. Raises ResourceLimitError when
    replications x draws per row exceeds ``MAX_BATCH_DRAWS``.
    """
    if k_min >= k_max:
        raise InputError("k_min must be less than k_max")
    limits, rd, cd = analysis.limits, analysis.rd, analysis.cliques
    family = initial if isinstance(initial, InvariantFamily) else None
    w_cdfs = [_cdf(lam) for lam in (family.Lambda_W if family else (initial,))]
    _check_seed(seed)

    l_cdf = _cdf(limits.eta_L)
    if family is None:
        g_cdf = _cdf(_uniform(len(rd.G)))

        def start(u):
            return cd.lgw[_draw(l_cdf, u[:, 0]), _draw(g_cdf, u[:, 1]),
                          _draw(w_cdfs[0], u[:, 2])]
        head = 3
    else:
        phase_cdf = _cdf(_common(family.c))
        h_cdf = _cdf(_uniform(len(rd.H)))

        def start(u):
            i = _draw(phase_cdf, u[:, 0])
            w = np.empty(len(u), dtype=np.intp)
            for j, w_cdf in enumerate(w_cdfs):
                rows = i == j
                w[rows] = _draw(w_cdf, u[rows, 1])
            g = rd.coset_h[(k_min + i) % rd.p, _draw(h_cdf, u[:, 3])]
            return cd.lgw[_draw(l_cdf, u[:, 2]), g, w]
        head = 4

    steps = k_max - k_min
    if replications * (head + steps) > MAX_BATCH_DRAWS:
        raise ResourceLimitError(
            f"replications x draws = {replications} x {head + steps} exceeds the batch "
            f"limit of {MAX_BATCH_DRAWS} draws; shorten the window or lower the replications")
    map_cdf = _cdf(analysis.law.weights)
    maps = np.empty((replications, steps), dtype=np.int32)
    states = np.empty((replications, steps + 1), dtype=np.int32)
    for rows, u in _uniform_chunks(seed, replications, head + steps):
        m = _draw(map_cdf, u[:, head:])
        x = start(u[:, :head])
        states[rows, 0] = x
        for i in range(steps):
            x = cd.step[m[:, i], x]
            states[rows, i + 1] = x
        maps[rows] = m
    return PathBatch(analysis=analysis, initial=initial, k_min=k_min, k_max=k_max,
                     seed=seed, maps=maps, states=states)


def _misses(analysis: Analysis, l, g, w, s) -> int:
    """How many of the position columns (l, g, w, s) have
    (L[l] * G[g])(W[w]) != W_mu[s], composed on image rows."""
    rd, cd = analysis.rd, analysis.cliques
    x = rd.L[l[:, None], rd.G[g[:, None], cd.W[w] - 1] - 1]
    return int((x != cd.W_mu[s]).any(axis=1).sum())


def _increments(analysis: Analysis, states: np.ndarray) -> np.ndarray:
    """The G-increments M^G_k = X^G_k (X^G_{k-1})^-1 along every row, as
    positions in G, on the group tables."""
    rd = analysis.rd
    g = analysis.cliques.state_g[states]
    return rd.gmul[g[:, 1:], rd.inverse[g[:, :-1]]]


def verify_path_exact(batch: PathBatch) -> list:
    """The exact invariants of every row of a batch, at every step.

    The recursion compares N_k(X_{k-1}) with X_k and the L G W check
    (L[l] * G[g])(W[w]) with X_k, each composed on the image rows of every
    state; neither reads ``step`` or ``lgw``. The phase and G-increment
    identities read the group tables.
    """
    analysis = batch.analysis
    rd, cd = analysis.rd, analysis.cliques
    states, maps = batch.states, batch.maps
    C, gmul = rd.C, rd.gmul
    checks = []

    images = rd.generators[maps[:, :, None], cd.W_mu[states[:, :-1]] - 1]
    bad = int((images != cd.W_mu[states[:, 1:]]).any(axis=2).sum())
    checks.append(Check("path recursion X_k = N_k X_{k-1}", "exact", bad == 0,
                        note=f"{maps.size} steps"))

    x = states.ravel()
    bad = _misses(analysis, cd.state_l[x], cd.state_g[x], cd.state_w[x], x)
    checks.append(Check("X_k in L G W", "exact", bad == 0, note=f"{x.size} states"))

    w = cd.state_w[states]
    checks.append(Check("X_W constant along the path", "exact", bool((w == w[:, :1]).all())))

    gamma_k = C[np.arange(batch.k_min, batch.k_max + 1) % rd.p]
    expected = gmul[gamma_k, C[batch.y_c][:, None]]
    checks.append(Check("X^C_k = gamma^k Y_C", "exact",
                        np.array_equal(C[cd.state_c[states]], expected)))

    # G-part of N_k X^L_{k-1}; L[l] = L[l] e e is at Rees coordinates (l, e, e)
    _, one, r_e = rd.coords[rd.e]
    expected = rd.coords[rd.left[maps, rd.at[cd.state_l[states[:, :-1]], one, r_e]], 1]
    increments = _increments(analysis, states)
    checks.append(Check("M^G_k = (N_k X^L_{k-1})^G", "exact",
                        np.array_equal(increments, expected)))
    checks.append(Check("(M^G_k)^C = gamma", "exact",
                        bool((rd.coset_of[increments] == 1 % rd.p).all())))
    return checks


def verify_factorization(batch: PathBatch, k: int) -> Check:
    """Recompose X_j from the stored factors for every j <= k on every row.

    Checks X_j = X_j^L (M^G_{k,j})^{-1} (gamma^k Y_C) U^H_k Z_W, with the
    increment products M^G_{k,j} = M^G_k ... M^G_{j+1} rebuilt step by step
    from the G-increments. Raises InputError if k is outside the window.
    """
    if not batch.k_min <= k <= batch.k_max:
        raise InputError(f"time {k} outside path range [{batch.k_min}, {batch.k_max}]")
    analysis = batch.analysis
    rd, cd = analysis.rd, analysis.cliques
    C, H, gmul = rd.C, rd.H, rd.gmul
    states = batch.states[:, :k - batch.k_min + 1]
    # (M^G_{k,j})^-1 = (M^G_{j+1})^-1 ... (M^G_k)^-1: suffix products of the
    # inverse increments, by doubling the span of each product
    suffix = rd.inverse[_increments(analysis, states)]
    span = 1
    while span < suffix.shape[1]:
        suffix[:, :-span] = gmul[suffix[:, :-span], suffix[:, span:]]
        span *= 2
    phase = gmul[gmul[C[k % rd.p], C[batch.y_c]], H[cd.state_h[states[:, -1]]]]
    factor = np.empty_like(states)
    factor[:, :-1] = gmul[suffix, phase[:, None]]
    factor[:, -1] = phase
    x = states.ravel()
    bad = _misses(analysis, cd.state_l[x], factor.ravel(),
                  np.repeat(batch.z_w, states.shape[1]), x)
    return Check(
        "factorization X_j = X_j^L (M^G_{k,j})^-1 (gamma^k Y_C) U^H_k Z_W",
        "exact",
        bad == 0,
        note=f"{x.size} (j,k) pairs at k={k}",
    )


def _table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of the pairs (a[r], b[r]) of two code columns: a row per
    distinct code of a and a column per distinct code of b, each in
    increasing order. The codes are nonnegative and small (below |G|*|W| or
    the batch size), so a table of their counts ranks them."""
    a_rank = np.cumsum(np.bincount(a) > 0) - 1
    b_rank = np.cumsum(np.bincount(b) > 0) - 1
    rows, cols = a_rank[-1] + 1, b_rank[-1] + 1
    return np.bincount(a_rank[a] * cols + b_rank[b], minlength=rows * cols).reshape(rows, cols)


def _window_codes(maps: np.ndarray, gens: int) -> np.ndarray:
    """Per row, a code of its maps below the row count R that sorts as the
    windows do in lexicographic order. The maps are taken as base-``gens``
    digits, most significant first; once a code reaches R all are replaced by
    ranks, which keep the order, so no code passes R * gens."""
    codes = np.zeros(len(maps), dtype=np.int64)
    for digit in maps.T:
        codes = codes * gens + digit
        if codes.max() >= len(maps):
            codes = np.unique(codes, return_inverse=True)[1]
    return codes


def _check_batch(batch: PathBatch, stationary: bool, what: str) -> None:
    """Refuse, for the ``what`` verification, a batch of the other kind or too few rows."""
    if isinstance(batch.initial, InvariantFamily) == stationary:
        kind = "a stationary batch" if stationary else "a batch drawn from a family"
        raise InputError(f"{what} verification needs {kind}")
    if len(batch) < MIN_REPLICATIONS:
        raise InputError(f"{what} verification needs at least {MIN_REPLICATIONS} replications")


def _joint_check(batch: PathBatch, family: InvariantFamily, alpha: float, name: str) -> Check:
    """(Y_C, Z_W), over C by j, then W, against the (phase, W) joint of ``family``."""
    table, den = family.joint()
    counts = np.bincount(batch.y_c * table.shape[1] + batch.z_w, minlength=table.size)
    return chi_square_gof(counts, (table.ravel(), den), alpha, name)


def verify_third_noise(batch: PathBatch, *, alpha: float) -> list:
    """Distributional checks of the third noise across the replications of a
    stationary batch, at its last time k = k_max.

    Tests (a) uniformity of U^H_k on H, (b) uniformity of Y_C on C,
    (c) pairwise independence among U^H_k, the remote-past pair (Y_C, Z_W)
    and the N-window of the batch, (d) the joint law of (Y_C, Z_W) against
    the product of the uniform phase law and the batch's Lambda_W.
    Sigma-field independence is operationalized against finite N-windows.

    Every category is an integer code: U^H_k by its position in H, Y_C by
    j in the goodness-of-fit tests, (Y_C, Z_W) by the G position of
    gamma^j then the position in W in the independence tests, and an
    N-window by ``_window_codes``, below R and in lexicographic order of its
    map positions. The independence codes order the categories as the
    objects sort, and the goodness-of-fit tests run over C by j, then W.
    """
    _check_batch(batch, True, "third-noise")
    rd, cd = batch.analysis.rd, batch.analysis.cliques
    n_h = len(rd.H)

    u, yc = cd.state_h[batch.states[:, -1]], batch.y_c
    yz = rd.C[yc] * len(cd.W) + batch.z_w
    window = _window_codes(batch.maps, len(rd.generators))
    return [
        chi_square_gof(np.bincount(u, minlength=n_h), _uniform(n_h), alpha, "U^H_k uniform on H"),
        chi_square_gof(np.bincount(yc, minlength=rd.p), _uniform(rd.p), alpha, "Y_C uniform on C"),
        _joint_check(batch, stationary_family(rd.p, batch.initial), alpha,
                     "(Y_C, Z_W) joint = omega_C x Lambda_W"),
        chi_square_independence(_table(u, yz), alpha, "U^H_k independent of (Y_C, Z_W)"),
        chi_square_independence(_table(u, window), alpha, "U^H_k independent of N-window"),
        chi_square_independence(_table(yz, window), alpha,
                                "(Y_C, Z_W) independent of N-window"),
    ]


def verify_nonstationary_joint(batch: PathBatch, *, alpha: float) -> list:
    """Empirical joint of (Y_C, Z_W) against c_i Lambda_W^i{w} for the
    family a nonstationary batch was drawn from, over C by j, then W."""
    _check_batch(batch, False, "joint")
    return [_joint_check(batch, batch.initial, alpha, "(Y_C, Z_W) joint = c_i Lambda_W^i")]


def verify_mono_projection(batch: PathBatch, events: dict, *, alpha: float) -> list:
    """Check mono-particle projection identities on a stationary batch at
    its last time k = k_max.

    ``events`` maps a value x of the first coordinate to a pair (l, u):
    X^1_k = x exactly when X^L_k = L[l] (for either L-part when l is None)
    and U^G_k(2) = u. These equivalences are checked exactly on every
    replication; the empirical law of the first coordinate is tested
    against its exact invariant marginal under the batch's Lambda_W.
    """
    _check_batch(batch, True, "mono-projection")
    analysis, replications = batch.analysis, len(batch)
    rd, cd = analysis.rd, analysis.cliques
    marginal = cd.first_marginal(invariant_law(analysis, batch.initial), analysis.law.n)

    x1, xl, u2 = cd.W_mu[:, 0], cd.state_l, rd.G[cd.state_g, 1]
    at_k = np.bincount(batch.states[:, -1], minlength=len(cd.W_mu))
    bad = 0
    for value, (want_l, want_u2) in events.items():
        holds = (u2 == want_u2) & (want_l is None or xl == want_l)
        bad += int(at_k[(x1 == value) != holds].sum())
    x1_counts = np.bincount(x1[batch.states[:, -1]], minlength=analysis.law.n + 1)[1:]
    return [
        Check("five mono-particle event identities", "exact", bad == 0,
              note=f"{replications} replications"),
        chi_square_gof(x1_counts, marginal, alpha,
                       "empirical X^1_k law matches the invariant marginal"),
    ]
