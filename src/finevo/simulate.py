"""Seeded simulation of multiparticle evolutions and the verification
battery for the factor processes extracted from them.

A batch holds, for every replication of a window, the positions of the
driving maps N_k and of the observed tuples X_k; the factor series (L-, G-,
phase-, H- and W-parts, the G-increments and the path constants) are read
off integer tables of the analysis. The replication harness realizes the
infinite past by starting each window from the exact stationary law. All
replications of a window are drawn at once: replication r reads the
counter-based Philox4x64-10 substream keyed [seed XOR r, 0], computed in
lock-step over r, and its states advance on the tables. A single path is
the one-replication case. The exact checks run on every row of a batch:
tuples are composed once per distinct pattern of positions, and the group
identities read the Rees tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import example_law
from .cliques import CliqueData, InvariantFamily, invariant_law
from .errors import InputError, ResourceLimitError, StructuralInconsistencyError
from .limits import CyclicLimit
from .measure import RationalMeasure, coordinate_marginal
from .stats import Check, chi_square_gof, chi_square_independence

MAX_SEED = 2**64

# Uniforms drawn per pass of the generator and the state tables: a chunk
# holds max(1, BATCH_CHUNK_DRAWS // draws per row) replications, about 10^4
# at the default window. It bounds the generator's temporaries (some 40
# bytes per uniform) whatever the window; what grows with replications x
# steps is only the stored int32 maps and states of the batch.
BATCH_CHUNK_DRAWS = 1 << 16

# Bound on replications x draws per row in one sample_batch. A chunk holds at
# least one row, so one long replication draws all its uniforms at once:
# tracemalloc measured peaks of 32 bytes per draw for one replication and
# 7-11 for chunked batches (2^20 and 2^21 draws), about 256 MiB at the bound.
MAX_BATCH_DRAWS = 1 << 23

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
    if not isinstance(seed, int) or not 0 <= seed < MAX_SEED:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple:
    """High and low words of the 128-bit products a*b, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _32
    b_hi, b_lo = b >> _32, b & _LOW32
    mid = b_lo * a_lo
    mid >>= _32
    hi = b_hi * a_hi
    b_hi *= a_lo  # cross products in place: fewer chunk-sized temporaries
    b_lo *= a_hi
    hi += b_hi >> _32
    hi += b_lo >> _32
    b_hi &= _LOW32
    b_lo &= _LOW32
    mid += b_hi
    mid += b_lo
    mid >>= _32
    hi += mid
    return hi, a * b


def philox_uniforms(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` doubles of
    ``np.random.Generator(np.random.Philox(key=k)).random()`` for every
    uint64 key k, as a (len(keys), count) array.

    Philox4x64-10 with key [k, 0]: block i (from 0) enciphers the counter
    [i+1, 0, 0, 0], its four words are used in order, and a word x gives
    the double (x >> 11) * 2^-53.
    """
    blocks = -(-count // 4)
    shape = (len(keys), blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    key = keys[:, None]
    for w0, w1 in _PHILOX_ROUND_KEYS:
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        hi1 ^= c1
        hi1 ^= key + w0
        hi0 ^= c3
        hi0 ^= w1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    out = np.empty(shape + (4,))
    for j, word in enumerate((c0, c1, c2, c3)):
        out[:, :, j] = word >> _11
    out *= 2.0**-53
    return out.reshape(len(keys), 4 * blocks)[:, :count]


def _uniform_chunks(seed: int, replications: int, count: int):
    """(rows, uniforms) for consecutive chunks of replications; row r of the
    whole batch reads the substream keyed seed ^ r."""
    chunk = max(1, BATCH_CHUNK_DRAWS // count)
    for start in range(0, replications, chunk):
        stop = min(start + chunk, replications)
        keys = np.arange(start, stop, dtype=np.uint64) ^ np.uint64(seed)
        yield slice(start, stop), philox_uniforms(keys, count)


def _cdf(items, carrier) -> tuple:
    """Running float sums of the weights in ``items`` order, and the position
    of each item in ``carrier``."""
    pos = {x: i for i, x in enumerate(carrier)}
    return (np.cumsum([float(w) for _, w in items]),
            np.array([pos[x] for x, _ in items], dtype=np.intp))


def _draw(cdf: tuple, u: np.ndarray) -> np.ndarray:
    """For every uniform, the first item whose running sum exceeds it, or the
    last item when none does."""
    cum, index = cdf
    return index[np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)]


@dataclass(frozen=True, eq=False)
class PathTables:
    """The state space of one analysis as integer tables.

    A state is a position in ``cd.W_mu``, a map a position in ``gens``
    (``rd.generators``, the law's support in sorted order). ``step[f, s]`` is the state of
    f(x_s). The ``state_*`` arrays give each state's L, G and W positions
    (its triple), the coset index j of its G-part gamma^j h and the position
    of h in H. ``lgw[l, g, w]`` inverts the triple map and ``coset_h[j, h]``
    is the G position of gamma^j h.
    """

    limits: CyclicLimit
    cd: CliqueData
    gens: tuple
    step: np.ndarray
    state_l: np.ndarray
    state_g: np.ndarray
    state_w: np.ndarray
    state_c: np.ndarray
    state_h: np.ndarray
    lgw: np.ndarray
    coset_h: np.ndarray


def path_tables(limits: CyclicLimit, cd: CliqueData) -> PathTables:
    """Build the tables; raises if a map of the law leaves L G W."""
    rd = limits.rd
    state_of = {x: s for s, x in enumerate(cd.W_mu)}

    # gamma^j h at (j, position of h in H), and the split of G it inverts
    coset_h = np.array([[rd.gmul[c][h] for h in rd.H] for c in rd.C], dtype=np.intp)
    g_coset, g_h = np.empty((2, len(rd.G)), dtype=np.intp)
    g_coset[coset_h] = np.arange(rd.p)[:, None]
    g_h[coset_h] = np.arange(len(rd.H))

    state_l, state_g, state_w = np.array(
        [cd.triples[x] for x in cd.W_mu], dtype=np.intp).reshape(-1, 3).T
    lgw = np.empty((len(rd.L), len(rd.G), len(cd.W)), dtype=np.intp)
    lgw[state_l, state_g, state_w] = np.arange(len(cd.W_mu))

    step = np.empty((len(rd.generators), len(cd.W_mu)), dtype=np.intp)
    for i, f in enumerate(rd.generators):
        for s, x in enumerate(cd.W_mu):
            y = state_of.get(f.apply(x))
            if y is None:
                raise StructuralInconsistencyError(
                    f"{f.literal()} maps the stable tuple {x} outside L G W"
                )
            step[i, s] = y
    return PathTables(
        limits=limits, cd=cd, gens=rd.generators, step=step, state_l=state_l,
        state_g=state_g, state_w=state_w, state_c=g_coset[state_g],
        state_h=g_h[state_g], lgw=lgw, coset_h=coset_h,
    )


@dataclass(frozen=True, eq=False)
class PathBatch:
    """R replications of one window [k_min, k_max], drawn in lock-step.

    Row r is replication r, drawn from the substream seed ^ r. ``maps[r, i]``
    is the position in ``tables.gens`` of the map driving the step into time
    k_min + 1 + i and ``states[r, i]`` the state at time k_min + i.
    ``initial`` is the Lambda_W (stationary) or the InvariantFamily
    (nonstationary) that the first state was drawn from.
    """

    tables: PathTables
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
        return (self.tables.state_c[self.states[:, 0]] - self.k_min) % self.tables.limits.p

    @property
    def z_w(self) -> np.ndarray:
        """Per row, the position of Z_W in W."""
        return self.tables.state_w[self.states[:, 0]]


def sample_batch(
    tables: PathTables,
    initial,
    k_min: int,
    k_max: int,
    seed: int,
    replications: int,
) -> PathBatch:
    """R = ``replications`` windows X_{k_min..k_max} drawn in lock-step.

    With a Lambda_W, X_{k_min} ~ eta_L omega_G Lambda_W by three independent
    draws (l, g, w). With an InvariantFamily, the phase index i is drawn with
    probability c_i, then w ~ Lambda_W^i, l ~ eta_L and h ~ omega_H give
    X_{k_min} = (l gamma^(k_min+i) h)(w). Then X_k = N_k X_{k-1} with iid
    maps. Each draw reads the next uniform of the row's substream and picks
    the first item whose running float sum of weights, in ``items()`` order
    (index order for the c_i), exceeds it. Raises ResourceLimitError when
    replications x draws per row exceeds ``MAX_BATCH_DRAWS``.
    """
    if k_min >= k_max:
        raise InputError("k_min must be less than k_max")
    limits, cd = tables.limits, tables.cd
    rd = limits.rd
    family = initial if isinstance(initial, InvariantFamily) else None
    wset = set(cd.W)
    for lam in family.Lambda_W if family else (initial,):
        for w in lam.support():
            if w not in wset:
                raise InputError(f"Lambda_W has mass at {w} outside W")
    _check_seed(seed)

    l_cdf = _cdf(limits.eta_L.items(), rd.L)
    if family is None:
        g_cdf = _cdf(RationalMeasure.uniform(rd.G).items(), rd.G)
        w_cdf = _cdf(initial.items(), cd.W)

        def start(u):
            return tables.lgw[_draw(l_cdf, u[:, 0]), _draw(g_cdf, u[:, 1]),
                              _draw(w_cdf, u[:, 2])]
        head = 3
    else:
        phase_cdf = (np.cumsum([float(c) for c in family.c]),
                     np.arange(len(family.c)))
        w_cdfs = [_cdf(lam.items(), cd.W) for lam in family.Lambda_W]
        h_cdf = _cdf(RationalMeasure.uniform(rd.H).items(), rd.H)

        def start(u):
            i = _draw(phase_cdf, u[:, 0])
            w = np.empty(len(u), dtype=np.intp)
            for j, w_cdf in enumerate(w_cdfs):
                rows = i == j
                w[rows] = _draw(w_cdf, u[rows, 1])
            g = tables.coset_h[(k_min + i) % rd.p, _draw(h_cdf, u[:, 3])]
            return tables.lgw[_draw(l_cdf, u[:, 2]), g, w]
        head = 4

    steps = k_max - k_min
    if replications * (head + steps) > MAX_BATCH_DRAWS:
        raise ResourceLimitError(
            f"replications x draws = {replications} x {head + steps} exceeds the batch "
            f"limit of {MAX_BATCH_DRAWS} draws; shorten the window or lower the replications")
    map_cdf = _cdf(limits.law.measure.items(), tables.gens)
    maps = np.empty((replications, steps), dtype=np.int32)
    states = np.empty((replications, steps + 1), dtype=np.int32)
    for rows, u in _uniform_chunks(seed, replications, head + steps):
        m = _draw(map_cdf, u[:, head:])
        x = start(u[:, :head])
        states[rows, 0] = x
        for i in range(steps):
            x = tables.step[m[:, i], x]
            states[rows, i + 1] = x
        maps[rows] = m
    return PathBatch(tables=tables, initial=initial, k_min=k_min, k_max=k_max,
                     seed=seed, maps=maps, states=states)


def _row_counts(columns) -> list:
    """Distinct rows of the stacked integer columns, with multiplicities."""
    table = np.column_stack(columns)
    table = table[np.lexsort(table.T)]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (table[1:] != table[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return list(zip(table[starts].tolist(), np.diff(starts, append=len(table)).tolist()))


def _add(counts: dict, key, c: int) -> None:
    counts[key] = counts.get(key, 0) + c


def _misses(t: PathTables, patterns) -> int:
    """How many of the counted patterns (l, g, w, s) have
    (L[l] * G[g])(W[w]) != W_mu[s], composing the tuples once per pattern."""
    rd, cd = t.limits.rd, t.cd
    return sum(c for (l, g, w, s), c in patterns
               if (rd.L[l] * rd.G[g]).apply(cd.W[w]) != cd.W_mu[s])


def _increments(t: PathTables, states: np.ndarray) -> np.ndarray:
    """The G-increments M^G_k = X^G_k (X^G_{k-1})^-1 along every row, as
    positions in G, on the group tables."""
    rd = t.limits.rd
    g = t.state_g[states]
    return np.array(rd.gmul)[g[:, 1:], np.array(rd.inverse)[g[:, :-1]]]


def verify_path_exact(batch: PathBatch) -> list:
    """The exact invariants of every row of a batch, at every step.

    The recursion compares N_k(X_{k-1}) with X_k and the L G W check
    (L[l] * G[g])(W[w]) with X_k, as tuples, once per distinct pattern of
    positions. The phase and G-increment identities read the group tables.
    """
    t = batch.tables
    rd, cd = t.limits.rd, t.cd
    states, maps = batch.states, batch.maps
    C, gmul, coset_of = np.array(rd.C), np.array(rd.gmul), np.array(rd.coset_of)
    checks = []

    bad = sum(c for (x, f, y), c in _row_counts((states[:, :-1].ravel(), maps.ravel(),
                                                  states[:, 1:].ravel()))
              if t.gens[f].apply(cd.W_mu[x]) != cd.W_mu[y])
    checks.append(Check("path recursion X_k = N_k X_{k-1}", "exact", bad == 0,
                        note=f"{maps.size} steps"))

    x = states.ravel()
    bad = _misses(t, _row_counts((t.state_l[x], t.state_g[x], t.state_w[x], x)))
    checks.append(Check("X_k in L G W", "exact", bad == 0, note=f"{x.size} states"))

    w = t.state_w[states]
    checks.append(Check("X_W constant along the path", "exact", bool((w == w[:, :1]).all())))

    gamma_k = C[np.arange(batch.k_min, batch.k_max + 1) % rd.p]
    expected = gmul[gamma_k, C[batch.y_c][:, None]]
    checks.append(Check("X^C_k = gamma^k Y_C", "exact",
                        np.array_equal(C[t.state_c[states]], expected)))

    # G-part of N_k X^L_{k-1}; L[l] = L[l] e e is at Rees coordinates (l, e, e)
    r_e = rd.R.index(rd.e)
    x_l = np.array([block[rd.C[0]][r_e] for block in rd.at])
    g_part = np.array([g for _, g, _ in rd.coords])
    expected = g_part[np.array(rd.left)[maps, x_l[t.state_l[states[:, :-1]]]]]
    increments = _increments(t, states)
    checks.append(Check("M^G_k = (N_k X^L_{k-1})^G", "exact",
                        np.array_equal(increments, expected)))
    checks.append(Check("(M^G_k)^C = gamma", "exact",
                        bool((coset_of[increments] == 1 % rd.p).all())))
    return checks


def verify_factorization(batch: PathBatch, k: int) -> Check:
    """Recompose X_j from the stored factors for every j <= k on every row.

    Checks X_j = X_j^L (M^G_{k,j})^{-1} (gamma^k Y_C) U^H_k Z_W, with the
    increment products M^G_{k,j} = M^G_k ... M^G_{j+1} rebuilt step by step
    from the G-increments. Raises InputError if k is outside the window.
    """
    if not batch.k_min <= k <= batch.k_max:
        raise InputError(f"time {k} outside path range [{batch.k_min}, {batch.k_max}]")
    t = batch.tables
    rd = t.limits.rd
    C, H, gmul = np.array(rd.C), np.array(rd.H), np.array(rd.gmul)
    states = batch.states[:, :k - batch.k_min + 1]
    # (M^G_{k,j})^-1 = (M^G_{j+1})^-1 ... (M^G_k)^-1: suffix products of the
    # inverse increments, by doubling the span of each product
    suffix = np.array(rd.inverse)[_increments(t, states)]
    span = 1
    while span < suffix.shape[1]:
        suffix[:, :-span] = gmul[suffix[:, :-span], suffix[:, span:]]
        span *= 2
    phase = gmul[gmul[C[k % rd.p], C[batch.y_c]], H[t.state_h[states[:, -1]]]]
    factor = np.empty_like(states)
    factor[:, :-1] = gmul[suffix, phase[:, None]]
    factor[:, -1] = phase
    x = states.ravel()
    bad = _misses(t, _row_counts((t.state_l[x], factor.ravel(),
                                  np.repeat(batch.z_w, states.shape[1]), x)))
    return Check(
        "factorization X_j = X_j^L (M^G_{k,j})^-1 (gamma^k Y_C) U^H_k Z_W",
        "exact",
        bad == 0,
        note=f"{x.size} (j,k) pairs at k={k}",
    )


def verify_third_noise(batch: PathBatch, *, alpha: float = 0.001) -> list:
    """Distributional checks of the third noise across the replications of a
    stationary batch, at its last time k = k_max.

    Tests (a) uniformity of U^H_k on H, (b) uniformity of Y_C on C,
    (c) pairwise independence among U^H_k, the remote-past pair (Y_C, Z_W)
    and the N-window of the batch, (d) the joint law of (Y_C, Z_W) against
    the product of the uniform phase law and the batch's Lambda_W.
    Sigma-field independence is operationalized against finite N-windows.
    """
    t = batch.tables
    limits, cd, Lambda_W = t.limits, t.cd, batch.initial
    replications = len(batch)
    if isinstance(Lambda_W, InvariantFamily):
        raise InputError("third-noise verification needs a stationary batch")
    if replications < 1000:
        raise InputError("third-noise verification needs at least 1000 replications")
    rd = limits.rd
    H = [rd.G[h] for h in rd.H]
    C = [rd.G[c] for c in rd.C]

    u_counts = {}
    yc_counts = {}
    yz_counts = {}
    pair_u_yz = {}
    pair_u_nw = {}
    pair_yz_nw = {}
    columns = (t.state_h[batch.states[:, -1]], batch.y_c, batch.z_w, batch.maps)
    for (h, yc, w, *nw), c in _row_counts(columns):
        u = H[h]
        yz = (C[yc], cd.W[w])
        nw = tuple(t.gens[m] for m in nw)
        _add(u_counts, u, c)
        _add(yc_counts, C[yc], c)
        _add(yz_counts, yz, c)
        _add(pair_u_yz, (u, yz), c)
        _add(pair_u_nw, (u, nw), c)
        _add(pair_yz_nw, (yz, nw), c)

    uniform_h = {h: Fraction(1, len(H)) for h in H}
    uniform_c = {c: Fraction(1, rd.p) for c in C}
    joint = {
        (c, w): Fraction(1, rd.p) * Lambda_W[w]
        for c in C
        for w in Lambda_W.support()
    }
    return [
        chi_square_gof(u_counts, uniform_h, replications, alpha, "U^H_k uniform on H"),
        chi_square_gof(yc_counts, uniform_c, replications, alpha, "Y_C uniform on C"),
        chi_square_gof(yz_counts, joint, replications, alpha,
                       "(Y_C, Z_W) joint = omega_C x Lambda_W"),
        chi_square_independence(pair_u_yz, alpha, "U^H_k independent of (Y_C, Z_W)"),
        chi_square_independence(pair_u_nw, alpha, "U^H_k independent of N-window"),
        chi_square_independence(pair_yz_nw, alpha, "(Y_C, Z_W) independent of N-window"),
    ]


def verify_nonstationary_joint(batch: PathBatch, *, alpha: float = 0.001) -> list:
    """Empirical joint of (Y_C, Z_W) against c_i Lambda_W^i{w} for the
    family a nonstationary batch was drawn from."""
    t = batch.tables
    family, cd, rd, replications = batch.initial, t.cd, t.limits.rd, len(batch)
    if not isinstance(family, InvariantFamily):
        raise InputError("joint verification needs a batch drawn from a family")
    if replications < 1000:
        raise InputError("joint verification needs at least 1000 replications")
    counts = {}
    for (yc, w), c in _row_counts((batch.y_c, batch.z_w)):
        _add(counts, (rd.G[rd.C[yc]], cd.W[w]), c)
    expected = {}
    for i, ci in enumerate(family.c):
        if ci == 0:
            continue
        for w, v in family.Lambda_W[i].items():
            key = (rd.G[rd.C[i]], w)
            expected[key] = expected.get(key, Fraction(0)) + ci * v
    return [chi_square_gof(counts, expected, replications, alpha,
                           "(Y_C, Z_W) joint = c_i Lambda_W^i")]


def mono_projection_events(limits: CyclicLimit):
    """The five event identities tying the first coordinate of the observed
    tuple to (X^L, U^G(2)) for the built-in example law."""
    rd = limits.rd
    e = rd.e
    fe = next(l for l in rd.L if l != e)
    return {
        1: (fe, 4),
        2: (e, 2),
        3: (fe, 2),
        4: (e, 4),
        5: (None, 5),  # X^1 = 5 iff U(2) = 5, for either L-part
    }


def verify_mono_projection(batch: PathBatch, *, alpha: float = 0.001) -> list:
    """Check the mono-particle projection identities on a stationary batch of
    the built-in law, at its last time k = k_max.

    On every replication the five event equivalences are checked exactly at
    time k; the empirical law of the first coordinate is tested against its
    exact invariant marginal under the batch's Lambda_W.
    """
    t = batch.tables
    limits, cd, replications = t.limits, t.cd, len(batch)
    if limits.law != example_law():
        raise InputError("mono-particle projection identities are specific to the built-in law")
    if isinstance(batch.initial, InvariantFamily):
        raise InputError("mono-projection verification needs a stationary batch")
    if replications < 1000:
        raise InputError("mono-projection verification needs at least 1000 replications")
    events = mono_projection_events(limits)
    lam = coordinate_marginal(invariant_law(limits, cd, batch.initial), 1)
    rd = limits.rd

    bad = 0
    x1_counts = {}
    at_k = np.bincount(batch.states[:, -1], minlength=len(cd.W_mu))
    for s, c in enumerate(at_k.tolist()):
        if not c:
            continue
        x1 = cd.W_mu[s][0]
        xl = rd.L[t.state_l[s]]
        u2 = rd.G[t.state_g[s]](2)
        _add(x1_counts, x1, c)
        for value, (want_l, want_u2) in events.items():
            holds = (want_l is None or xl == want_l) and u2 == want_u2
            if (x1 == value) != holds:
                bad += c
    expected = {x: lam[x] for x in lam.support()}
    return [
        Check("five mono-particle event identities", "exact", bad == 0,
              note=f"{replications} replications"),
        chi_square_gof(x1_counts, expected, replications, alpha,
                       "empirical X^1_k law matches the invariant marginal"),
    ]
