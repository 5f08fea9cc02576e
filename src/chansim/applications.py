"""Applications of the simulation machinery.

Two constructions live here. The first converts a uniform random index
into an arbitrary target distribution: probabilities are grouped into
geometric buckets of ratio 1+eps, the bucket-weight law is rounded to a
k^2-denominator type, and the result is realized exactly by two-stage
sampling from a single uniform index. The second is rate-distortion
coding: the distortion-constrained minimum mutual information computed by
accelerated alternating minimization with a regula falsi slope search, a
simplex-grid search oracle that certifies it on small alphabets, and a
deterministic block code extracted from a simulation code by pinning the
shared index at its best value.

A final pipeline wires the two together: it dilutes shared uniform
randomness into the message law of a pinned-index simulation code and
reproduces the joint input-output law from that shared message alone.
The single-index slice stands in for a conjectured deterministic code
whose existence is an open question, so the pipeline reports measured
error but makes no rate claim; its rate field is labeled conjectural.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field

import numpy as np

from .core_prob import (
    Channel,
    Distribution,
    entropy_rows,
    mutual_information,
    _sum_in_order,
    simplex_grid,
    tv_distance,
)
from .errors import InvalidInputError, require_cap
from .simulate import (
    SimCode,
    accounting,
    build_sim_code,
    encoder_message_law,
    fidelity_ceiling,
    fixed_nu_block_channels,
    iid_block_law,
    word_letters,
)

GRID_CHUNK = 1 << 16
RD_EQUALITY_TOL = 1e-9
RD_INNER_TOL = 1e-14
RD_INNER_ITERS = 50_000
RD_BISECT_ITERS = 200


# ---------------------------------------------------------------------------
# dilution of a uniform index into an arbitrary distribution

@dataclass(frozen=True, eq=False)
class DilutionBucket:
    """One geometric probability bucket: members, a read-only int64 array
    of target symbols in ascending order, share a 1+eps scale."""
    interval_index: int
    members: np.ndarray
    mass: float
    weight_count: int   # numerator of the k^2-type bucket weight


@dataclass(frozen=True)
class DilutionPlan:
    target: Distribution
    epsilon: float
    k: int
    buckets: tuple
    infinite_mass: float
    helper_size: int            # k^2
    total_uniform_size: int

    def realized_mixture(self) -> Distribution:
        """Exact law produced by the two-stage sampler: each member of a live
        bucket gets weight_count / (k^2 * bucket size)."""
        probs = np.zeros(self.target.alphabet_size)
        for b in self.buckets:
            if b.weight_count:
                probs[b.members] = b.weight_count / (self.helper_size * len(b.members))
        return Distribution(self.target.alphabet_size, probs)

    def tv_error(self) -> float:
        return tv_distance(self.target, self.realized_mixture())

    def to_json_dict(self) -> dict:
        return {
            "target": self.target.to_json_dict(),
            "epsilon": self.epsilon,
            "k": self.k,
            "buckets": [
                {"interval_index": b.interval_index, "members": [int(c) for c in b.members],
                 "mass": b.mass, "weight_count": b.weight_count}
                for b in self.buckets
            ],
            "infinite_mass": self.infinite_mass,
            "helper_size": self.helper_size,
            "total_uniform_size": self.total_uniform_size,
        }


def build_dilution(target: Distribution, epsilon: float) -> DilutionPlan:
    """Group target probabilities into geometric buckets and round the
    bucket weights to a k^2-denominator type by largest remainder.

    Probability q > 0 goes to bucket a = max(1, ceil(t)) with
    t = ln(1/q) / ln(1+eps); a t within 1e-12 relative of an integer is
    snapped onto it first, so exact powers of 1+eps go to the lower index.
    Zero probabilities and buckets beyond k form the tail, whose mass is
    added in symbol order. Members keep symbol order within a bucket, and
    each bucket mass is added in the same order. np.log may differ from
    math.log in the last bit; the snap absorbs that. Past k^2 = 2^53 the
    floored float shares can fall short of k^2 by more than the bucket
    count, or exceed it; largest remainder cannot repair that, so it raises
    InvalidInputError, as it does when k^2 passes the float64 range and,
    before any bucket index is cast to int64, when k reaches 2^63.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidInputError("epsilon must be in (0, 1)")
    probs = target.probs
    k = (math.log2(probs.size) - math.log2(epsilon)) / epsilon
    if not math.isfinite(k * k):
        raise InvalidInputError(f"epsilon {epsilon} too small: k^2 is past the float64 range")
    k = math.ceil(k)
    if float(k) >= 2.0 ** 63:     # bucket indices up to k are cast to int64
        raise InvalidInputError(
            f"epsilon {epsilon} too small: k = {k:.4g} passes 2^63, so bucket "
            "weights over k^2 are not exact in floating point")
    live = np.flatnonzero(probs > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):   # subnormal q: t = inf, tail
        t = np.log(1.0 / probs[live])
        t /= math.log1p(epsilon)
        nearest = np.rint(t)
        np.copyto(t, nearest, where=np.abs(t - nearest) <= 1e-12 * np.maximum(1.0, np.abs(t)))
    del nearest
    np.ceil(t, out=t)
    kept = t <= k
    in_bucket = live[kept]
    index = np.maximum(t[kept], 1.0).astype(np.int64)
    del live, t, kept
    tail = np.ones(probs.size, dtype=bool)
    tail[in_bucket] = False
    infinite_mass = float(np.cumsum(np.append(0.0, probs[tail]))[-1])
    del tail
    # group by the occupied indices only: memory follows |A|, not k
    order, inverse, sizes = np.unique(index, return_inverse=True, return_counts=True)
    masses = np.bincount(inverse, weights=probs[in_bucket]).tolist()
    grouped = in_bucket[np.argsort(index, kind="stable")]
    grouped.flags.writeable = False
    members = np.split(grouped, np.cumsum(sizes)[:-1])
    order = order.tolist()
    finite_mass = 1.0 - infinite_mass
    helper = k * k
    shares = [m / finite_mass for m in masses]
    counts = [math.floor(s * helper) for s in shares]
    short = helper - sum(counts)
    if not 0 <= short <= len(order):
        raise InvalidInputError(
            f"epsilon {epsilon} too small: bucket weights over k^2 = {helper} "
            "are not exact in floating point")
    leftovers = sorted(range(len(order)),
                       key=lambda i: (counts[i] - shares[i] * helper, order[i]))
    for i in leftovers[:short]:
        counts[i] += 1
    buckets = tuple(
        DilutionBucket(a, members[i], masses[i], counts[i])
        for i, a in enumerate(order)
    )
    block = math.lcm(*(len(b.members) for b in buckets if b.weight_count > 0))
    return DilutionPlan(target, epsilon, k, buckets, infinite_mass,
                        helper, helper * block)


def uniform_indices(size: int, seed: int, count: int) -> np.ndarray:
    """The first count values of random.Random(seed).randrange(size), as
    one array: int64 when size <= 2^63, Python ints (dtype object) beyond.

    randrange draws k = size.bit_length() bits with getrandbits and draws
    again while the value is not below size. getrandbits(k) takes ceil(k/32)
    MT19937 words, least significant first, and shifts the top word right
    by 32 ceil(k/32) - k. The seeded generator's state is copied into
    NumPy's MT19937, whose random_raw gives the same words; they are drawn
    at most 4,096 at a time, combined the same way, and the candidates
    below size are kept in order."""
    if size < 1:
        raise InvalidInputError("the uniform index range must be nonempty")
    if count < 0:
        raise InvalidInputError("the index count must be nonnegative")
    state = random.Random(seed).getstate()[1]
    generator = np.random.MT19937(0)
    generator.state = {"bit_generator": "MT19937",
                       "state": {"key": np.array(state[:-1], dtype=np.uint32),
                                 "pos": state[-1]}}
    k = size.bit_length()
    words = -(-k // 32)
    wide = size > 1 << 63
    per_draw = max(1, 4096 // words)     # candidates per random_raw call
    kept, have = [np.empty(0, dtype=object if wide else np.int64)], 0
    while have < count:
        raw = generator.random_raw(per_draw * words).reshape(per_draw, words)
        if wide:
            raw = raw.astype(object)
        value = raw[:, -1] >> (32 * words - k)
        for i in range(words - 2, -1, -1):
            value = (value << 32) | raw[:, i]
        value = value[value < size]
        kept.append(value if wide else value.astype(np.int64))
        have += value.size
    return np.concatenate(kept)[:count]


def realize_from_uniform(plan: DilutionPlan, uniform_sample_stream):
    """Draw one target symbol from the next uniform index in the stream:
    realize_indices on that one index."""
    it = iter(uniform_sample_stream)
    try:
        u = int(next(it))
    except StopIteration:
        raise InvalidInputError("uniform sample stream exhausted") from None
    return int(realize_indices(plan, [u])[0])


def realize_indices(plan: DilutionPlan, indices) -> np.ndarray:
    """The target symbol of each uniform index in [0, total_uniform_size),
    as one int64 array.

    An index u splits into a helper slot u // block and a residue u % block,
    block = total_uniform_size / k^2. The slot picks the bucket by the
    k^2-type weights, found by searchsorted on their running sums; the
    residue picks a member uniformly, exactly because every live bucket size
    divides block. indices is any iterable of ints, read into an int64
    array when every valid index fits and into Python ints beyond that; a
    1-d array already of that dtype is taken as it is."""
    total = plan.total_uniform_size
    dtype = np.dtype(np.int64) if total <= 1 << 63 else np.dtype(object)
    if isinstance(indices, np.ndarray) and indices.dtype == dtype and indices.ndim == 1:
        u = indices
    else:
        try:
            u = np.fromiter(indices, dtype=dtype)
        except OverflowError:
            raise InvalidInputError(f"an index is outside [0, {total})") from None
    outside = (u < 0) | (u >= total)
    if outside.any():
        raise InvalidInputError(f"index {u[outside][0]} outside [0, {total})")
    block = total // plan.helper_size
    slot, residue = u // block, u % block
    bucket = np.searchsorted(np.cumsum([b.weight_count for b in plan.buckets]),
                             slot.astype(np.int64, copy=False), side="right")
    if (bucket == len(plan.buckets)).any():
        raise InvalidInputError("helper slot not covered by bucket weights")
    sizes = np.array([len(b.members) for b in plan.buckets], dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    position = start[bucket] + (residue % sizes[bucket]).astype(np.int64)
    return np.concatenate([b.members for b in plan.buckets])[position]


# ---------------------------------------------------------------------------
# rate-distortion function

@dataclass(frozen=True)
class DistortionSpec:
    """Per-letter distortion matrix over X x Y plus the target level."""
    d: tuple
    target_d: float

    def __post_init__(self):
        m = np.asarray(self.d, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise InvalidInputError("distortion measure must be a 2-d matrix")
        if not np.isfinite(m).all() or (m < 0).any():
            raise InvalidInputError("distortion entries must be finite and >= 0")
        if not (math.isfinite(self.target_d) and self.target_d >= 0):
            raise InvalidInputError("target distortion must be finite and >= 0")
        object.__setattr__(self, "d", tuple(tuple(float(v) for v in row) for row in m))

    @property
    def matrix(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    @property
    def x_size(self) -> int:
        return len(self.d)

    @property
    def y_size(self) -> int:
        return len(self.d[0])

    @classmethod
    def hamming(cls, size: int, target_d: float) -> "DistortionSpec":
        return cls(tuple(tuple(0.0 if i == j else 1.0 for j in range(size))
                         for i in range(size)), target_d)


def expected_distortion(source: Distribution, channel: Channel,
                        spec: DistortionSpec) -> float:
    if channel.input_size != spec.x_size or channel.output_size != spec.y_size:
        raise InvalidInputError("channel shape does not match the distortion matrix")
    return float(source.probs @ (channel.rows * spec.matrix).sum(axis=1))


def _check_rd_shapes(source: Distribution, spec: DistortionSpec, y_size: int):
    if spec.x_size != source.alphabet_size:
        raise InvalidInputError("distortion rows must match the source alphabet")
    if spec.y_size != y_size:
        raise InvalidInputError("distortion columns must match y_size")


def _fit_channel(source: Distribution, gain: np.ndarray):
    """Alternating minimization of mutual information against a fixed
    per-entry gain; returns the fixed-point channel.

    The Blahut-Arimoto map on the output law q is accelerated by squared
    extrapolation (SQUAREM, Varadhan and Roland 2008): each cycle takes two
    plain steps, extrapolates along them, and keeps the extrapolated point
    only if one step from it does not raise the objective -p.log(gain @ q)
    above that of the second plain step. It stops once one plain step moves
    q by less than RD_INNER_TOL."""
    x_size, y_size = gain.shape
    p = source.probs

    def step(q):
        rows = q[None, :] * gain
        rows /= rows.sum(axis=1, keepdims=True)
        return p @ rows

    def objective(q):
        return -float(p @ np.log(gain @ q))

    q = np.full(y_size, 1.0 / y_size)
    for _ in range(RD_INNER_ITERS // 3):     # at most RD_INNER_ITERS maps
        q1 = step(q)
        r = q1 - q
        if np.abs(r).max() < RD_INNER_TOL:
            q = q1
            break
        q2 = step(q1)
        v = q2 - q1
        if np.abs(v).max() < RD_INNER_TOL:
            q = q2
            break
        v -= r                      # q2 - 2 q1 + q
        vv = float(v @ v)
        alpha = min(-math.sqrt(float(r @ r) / vv), -1.0) if vv > 0 else -1.0
        # a multiplicative step never revives a letter set to zero, so the
        # extrapolation backtracks toward q2 (alpha = -1) until every letter
        # alive in q stays positive
        live = q > 0
        while alpha < -1.0:
            q_ext = q - 2.0 * alpha * r + alpha * alpha * v
            if (q_ext[live] > 0).all():
                break
            alpha = 0.5 * (alpha - 1.0)
        else:
            q_ext = q2
        q_ext = np.maximum(q_ext, 0.0)
        q_ext = step(q_ext / q_ext.sum())
        q = q_ext if objective(q_ext) <= objective(q2) else q2
    rows = q[None, :] * gain
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel(x_size, y_size, rows)


def rd_function(source: Distribution, spec: DistortionSpec, y_size: int,
                solves=None):
    """Minimum mutual information over channels whose expected distortion
    stays at or below the target, with the minimizing channel.

    Interior targets are solved by accelerated alternating minimization
    at a fixed slope plus Illinois regula falsi over the slope (Dowell and
    Jarratt 1971), falling back to the midpoint of the slope bracket when
    the secant point leaves it; the two corner regimes (support restricted
    to per-row distortion minimizers, and the zero-rate constant channel)
    are handled directly. Each solve stops once one plain alternating step
    moves the output law by less than RD_INNER_TOL in every letter. The
    slope search stops once |D - target| <= 1e-11; a curve with a flat
    stretch in the slope blends its two sides onto the target.

    solves, when given, is a dict the targets of one curve share: it maps
    (source, distortion matrix, slope) to the solved (channel, distortion),
    neither of which depends on the target. A slope another target already
    solved is then read from it, with the same bits; each target still
    walks its own slope sequence.
    """
    _check_rd_shapes(source, spec, y_size)
    d = spec.matrix
    target = spec.target_d
    row_min = d.min(axis=1)
    d_floor = float(source.probs @ row_min)
    if target < d_floor - 1e-12:
        raise InvalidInputError(
            f"target distortion {target} below the achievable floor {d_floor}")
    if target <= d_floor + 1e-12:
        w = _fit_channel(source, (d <= row_min[:, None] + 1e-12).astype(float))
        return mutual_information(source, w), w
    col_cost = source.probs @ d
    if target >= float(col_cost.min()) - 1e-12:
        best = int(np.argmin(col_cost))
        rows = np.zeros_like(d)
        rows[:, best] = 1.0
        return 0.0, Channel(spec.x_size, y_size, rows)

    shifted = d - row_min[:, None]
    curve = (source.probs.tobytes(), spec.d)
    if solves is None:
        solves = {}

    def solve(beta: float):
        solved = solves.get((curve, beta))
        if solved is None:
            w = _fit_channel(source, np.exp2(-beta * shifted))
            solved = solves[curve, beta] = (w, expected_distortion(source, w, spec))
        return solved

    hi = 1.0
    w_hi, d_hi = solve(hi)
    for _ in range(200):
        if d_hi <= target:
            break
        hi *= 2.0
        w_hi, d_hi = solve(hi)
    lo, w_lo, d_lo = 0.0, None, float(col_cost.min())
    # Illinois regula falsi on f = D - target: f_lo > 0 >= f_hi, and an end
    # kept twice in a row has its f halved so both ends keep moving
    f_lo, f_hi, kept = d_lo - target, d_hi - target, None
    for _ in range(RD_BISECT_ITERS):
        if abs(d_hi - target) <= 1e-11:
            break
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        if mid in (lo, hi):     # the slope interval cannot shrink further
            break
        w_mid, d_mid = solve(mid)
        if d_mid > target:
            lo, w_lo, d_lo, f_lo = mid, w_mid, d_mid, d_mid - target
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, w_hi, d_hi, f_hi = mid, w_mid, d_mid, d_mid - target
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    if abs(d_hi - target) <= RD_EQUALITY_TOL or w_lo is None:
        return mutual_information(source, w_hi), w_hi
    # curve has a flat stretch in the slope: blend the two sides onto the
    # target, which stays optimal because distortion is linear in the rows
    lam = (target - d_hi) / (d_lo - d_hi)
    rows = lam * w_lo.rows + (1.0 - lam) * w_hi.rows
    w = Channel(spec.x_size, y_size, rows)
    return mutual_information(source, w), w


def rd_grid_oracle(source: Distribution, specs, y_size: int, resolution: int):
    """Exhaustive search over channels with grid-valued rows for every
    target of one distortion curve: specs is a sequence of DistortionSpec
    sharing one matrix, and the result holds one (rate, channel) per spec,
    in order. Each rate upper-bounds the true optimum at its target and is
    exact whenever the optimal channel lies on the grid.

    Each target's result is the first channel in itertools.product order
    of the grid-row indices (C order of the flat index) with the least rate
    among those meeting the target. Channels are scored GRID_CHUNK at a
    time, a bound on memory only: a channel's distortion, its output law
    q = sum_x P(x) rows[c_x] and its rate H(q) - sum_x P(x) H(rows[c_x])
    are per-letter sums over its own rows, so no result depends on the
    chunk size or on the other targets. A chunk's first minimum replaces a
    target's best so far only when it is strictly lower.

    The per-letter terms P(x) E d(x, .), P(x) rows and P(x) H(row) are
    tabled once per grid row. Letter x of the channel at flat index f uses
    grid row f // g^(|X|-1-x) % g (_grid_letters), and each sum adds its
    letters' table entries elementwise in letter order."""
    specs = list(specs)
    if not specs:
        raise InvalidInputError("the grid oracle needs at least one target")
    for spec in specs:
        _check_rd_shapes(source, spec, y_size)
        if spec.d != specs[0].d:
            raise InvalidInputError("the targets of one curve must share "
                                    "the distortion matrix")
    if resolution < 2:
        raise InvalidInputError("grid resolution must be at least 2")
    x_size = source.alphabet_size
    rows = simplex_grid(y_size, resolution)
    g = rows.shape[0]
    require_cap("GRID_ORACLE_CAP", g ** x_size, "channel grid has {} channels")
    limits = [spec.target_d + 1e-12 for spec in specs]
    widest = max(limits)
    p = source.probs
    row_cost = rows @ specs[0].matrix.T        # (g, x): E d(x, .) per grid row
    cost = [row_cost[:, x] * p[x] for x in range(x_size)]
    mix = [[rows[:, y] * p[x] for x in range(x_size)] for y in range(y_size)]
    row_ent = entropy_rows(rows)
    ent = [row_ent * p[x] for x in range(x_size)]
    best_rate, best_flat = [math.inf] * len(specs), [None] * len(specs)
    for start in range(0, g ** x_size, GRID_CHUNK):
        flat = np.arange(start, min(start + GRID_CHUNK, g ** x_size))
        letters = _grid_letters(flat, g, x_size)
        dist = _sum_in_order([cost[x][c] for x, c in enumerate(letters)])
        ok = np.flatnonzero(dist <= widest)
        if ok.size == 0:
            continue
        letters = [c[ok] for c in letters]
        plogq = []
        for terms in mix:
            q = functools.reduce(operator.add, [t[c] for t, c in zip(terms, letters)])
            plogq.append(q * np.log2(np.where(q > 0, q, 1.0)))
        rate = -_sum_in_order(plogq) \
            - functools.reduce(operator.add, [e[c] for e, c in zip(ent, letters)])
        dist = dist[ok]
        for i, limit in enumerate(limits):
            meets = np.flatnonzero(dist <= limit)
            if meets.size == 0:
                continue
            j = meets[int(np.argmin(rate[meets]))]
            if rate[j] < best_rate[i]:
                best_rate[i], best_flat[i] = float(rate[j]), start + int(ok[j])
    for spec, f in zip(specs, best_flat):
        if f is None:
            raise InvalidInputError(f"no grid channel meets the distortion "
                                    f"target {spec.target_d}")
    return [(rate, Channel(x_size, y_size, rows[_grid_letters(f, g, x_size)]))
            for rate, f in zip(best_rate, best_flat)]


def _grid_letters(flat, g: int, x_size: int) -> list:
    """The grid row flat // g^(|X|-1-x) % g of each letter x, for an int or
    an int array flat: its base-g digits, taken by repeated division."""
    letters = []
    for _ in range(x_size - 1):
        quotient = flat // g
        letters.append(flat - quotient * g)
        flat = quotient
    return [flat, *letters[::-1]]


# ---------------------------------------------------------------------------
# deterministic rate-distortion code from a simulation code

@dataclass(frozen=True)
class RDCodeResult:
    rd_value: float
    channel: Channel            # distortion-optimal single-letter channel
    code: SimCode
    nu: int                     # selected shared-index value
    distortion: float           # per-letter, selected index
    average_distortion: float   # per-letter, averaged over the shared index
    rate: float
    slack: float
    target_d: float


def block_distortion_matrix(spec: DistortionSpec, n: int) -> np.ndarray:
    """Per-letter average distortion between every X^n and Y^n word pair."""
    x_letters = word_letters(spec.x_size, n)
    y_letters = word_letters(spec.y_size, n)
    d = spec.matrix
    out = np.zeros((x_letters.shape[0], y_letters.shape[0]))
    for i in range(n):
        out += d[np.ix_(x_letters[:, i], y_letters[:, i])]
    return out / n


def rd_code_via_simulation(source: Distribution, spec: DistortionSpec, y_size: int,
                           n: int, delta: float, epsilon: float, seed: int) -> RDCodeResult:
    """Deterministic block code for the distortion target: simulate the
    distortion-optimal channel, evaluate every pinned shared-index slice
    exactly, and keep the best one.

    The reported slack bounds the selected slice's excess distortion a
    priori: the typicality window's drift of per-letter costs, plus the
    full distortion scale against the strong-fidelity ceiling and the
    atypical mass. The selected slice can only beat the index average,
    which that bound controls.
    """
    rd_value, w_opt = rd_function(source, spec, y_size)
    code = build_sim_code(source, w_opt, n, delta, epsilon, seed)
    p_block = iid_block_law(source.probs, n)
    d_block = block_distortion_matrix(spec, n)
    per_nu = np.empty(code.N)
    for nu, ch in enumerate(fixed_nu_block_channels(code, range(code.N))):
        per_nu[nu] = p_block @ (ch.rows * d_block).sum(axis=1)
    nu_best = int(np.argmin(per_nu))
    lambda_bound, atypicality = fidelity_ceiling(code)
    sigma = np.sqrt(source.probs * (1.0 - source.probs))
    letter_cost = (w_opt.rows * spec.matrix).sum(axis=1)
    d_max = float(spec.matrix.max())
    slack = (max(expected_distortion(source, w_opt, spec) - spec.target_d, 0.0)
             + delta / math.sqrt(n) * float(sigma @ letter_cost)
             + d_max * (min(lambda_bound, 1.0) + atypicality))
    rate, _ = accounting(code)
    return RDCodeResult(rd_value, w_opt, code, nu_best, float(per_nu[nu_best]),
                        float(per_nu.mean()), rate, slack, spec.target_d)


# ---------------------------------------------------------------------------
# pair simulation from shared randomness alone

PIPELINE_NOTE = ("rate is conjectural: the pinned-index slice stands in for a "
                 "deterministic code whose existence is an open question, so "
                 "the reported randomness cost carries no optimality claim")


@dataclass(frozen=True)
class PairSimulationResult:
    n: int
    nu: int
    message_count: int
    plan: DilutionPlan
    code_joint_tv: float        # pinned-index joint law vs the i.i.d. target
    dilution_tv: float          # message law vs its diluted stand-in
    joint_tv: float             # end-to-end, diluted messages driving both ends
    cr_bits_exact: float        # log2 of the exact single-uniform size
    cr_bits_per_letter: float
    note: str = PIPELINE_NOTE
    message_law: Distribution = field(default=None, repr=False)


def pair_simulation_pipeline(source: Distribution, channel: Channel, n: int,
                             delta: float, epsilon: float, seed: int,
                             nu: int = 0) -> PairSimulationResult:
    """Reproduce the joint input-output law from shared randomness alone.

    Both parties dilute a shared uniform index into the pinned-index
    message law; one side decodes the message to the output word while the
    other samples an input word from the exact posterior given the
    message. All laws are computed exactly and compared against the
    i.i.d. source-channel joint in total variation, from the message
    blocks built once per class rank: one pass sums the message law, a
    second writes both X^n x Y^n joints.
    """
    require_cap("BLOCK_ENUM_CAP", (source.alphabet_size * channel.output_size) ** n,
                "block channel has {} entries")
    code = build_sim_code(source, channel, n, delta, epsilon, seed)
    blocks, count = encoder_message_law(code, nu)
    p_block = iid_block_law(source.probs, n)
    # each slot lies in one block: sum its mass over the block's input words
    # in ascending X^n rank, once per class rank, and give it to every copy
    q = np.zeros(count)
    for blk in blocks:
        rows, width = blk.probs.shape
        mass = np.bincount(np.tile(np.arange(width), rows),
                           weights=(blk.probs / blk.copies * p_block[blk.x_ranks, None]).ravel(),
                           minlength=width)
        q[blk.slots[0]:blk.slots[-1] + blk.copies[-1]] = np.repeat(mass, blk.copies)
    law = Distribution(count, q)     # normalized once, by q.sum()
    del q
    plan = build_dilution(law, epsilon)
    mixture = plan.realized_mixture()
    q_tilde = mixture.probs
    ratio = np.divide(q_tilde, law.probs, out=np.zeros_like(q_tilde),
                      where=law.probs > 0)
    # joints over (x, y), flat in row-major order: a cell gets mass from one
    # joint type's class rank, whose copies share one probability and so one
    # ratio (the blocks of types sharing its column class add exact zeros),
    # then from the terminate block last
    ysz = channel.output_size ** n
    target = p_block[:, None] * iid_block_law(channel.rows, n)
    undiluted, produced = np.zeros(target.size), np.zeros(target.size)
    for blk in blocks:
        cells = (blk.x_ranks[:, None] * ysz + blk.y_ranks).ravel()
        mass = blk.probs * p_block[blk.x_ranks, None]
        undiluted[cells] += mass.ravel()
        produced[cells] += (mass * ratio[blk.slots]).ravel()
    return PairSimulationResult(
        n=n, nu=nu, message_count=count, plan=plan,
        code_joint_tv=tv_distance(undiluted, target),
        dilution_tv=tv_distance(law, mixture),
        joint_tv=tv_distance(produced, target),
        cr_bits_exact=math.log2(plan.total_uniform_size),
        cr_bits_per_letter=math.log2(plan.total_uniform_size) / n,
        message_law=law,
    )
