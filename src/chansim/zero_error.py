"""Exact channel factorization with minimal intermediate entropy.

Given a source P on X and a channel W from X to Y, find stochastic maps
E (X to C) and D (C to Y) with D after E equal to W exactly, minimizing the
entropy of the intermediate distribution mu_c = sum_x P(x) E(c|x). The
intermediate symbol is what actually needs to be transmitted when the
reconstruction must be perfect rather than approximate.

Structure used by the solver: for fixed D the feasible E rows form a product
of polytopes, and the concave objective H(mu) attains its minimum at a
per-row extreme point with at most |Y| nonzero entries, so the E-step
enumerates basic feasible solutions exactly: a least-squares solve on each
support of at most |Y| rows of D, kept when it is nonnegative and meets the
channel row. The supports of one size are solved in one call of the LAPACK
gelsd gufunc over their stack, the call np.linalg.lstsq makes for a single
matrix, with its rcond and error state; the gufunc solves each matrix of a
stack on its own, so every solve is lstsq's bit for bit. For fixed E the
feasible D set is affine and the D-step maximizes the concave mixture entropy
sum_c mu_c H(D row c) by projected gradient ascent; this cannot change H(mu)
but widens the next E-step's polytope; when E pins the rows the mixture
reads, every feasible D scores the same and the ascent stops after one step
that does not gain. Alternation therefore never increases the objective.
Random restarts draw their decoders at once and run the E-step only on those
the box test of _hull_candidates keeps. On small instances a simplex-grid
brute force gives the minimum over decoders with rows on the grid at a given
resolution; its declared accuracy is an empirical local modulus, not a
proven bound.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ._seeds import child_rng
from .core_prob import Channel, Distribution, entropy, mutual_information, simplex_grid
from .errors import CAPS, InfeasibleError, InvalidInputError, require_cap

FEAS_TOL = 1e-7
ALTERNATE_ITERS = 200
D_STEP_ITERS = 500
DYKSTRA_ITERS = 500
RANDOM_INIT_TRIES = 200
SOLVE_TOL = 1e-9
D_STEP_TOL = 1e-8
D_STEP_GAIN_ULPS = 4096   # rounding alone lifted f by up to 592 ulps on a pinned E
ALTERNATE_TOL = 1e-9
ORACLE_CHUNK = 1 << 14
HULL_SLACK = 1e-12


@dataclass(frozen=True)
class ZeroErrorInstance:
    source: Distribution
    channel: Channel
    c_max: int

    def __post_init__(self):
        if self.source.alphabet_size != self.channel.input_size:
            raise InvalidInputError("source alphabet does not match channel input")
        if self.c_max < 1:
            raise InvalidInputError("c_max must be positive")

    @classmethod
    def build(cls, source, channel, c_max=None):
        if c_max is None:
            c_max = intermediate_size_bound(channel.input_size, channel.output_size)
        return cls(source, channel, c_max)


@dataclass(frozen=True)
class Factorization:
    E: Channel
    D: Channel
    mu: Distribution
    objective: float
    trace: tuple = ()
    accuracy: float = None

    def to_json_dict(self) -> dict:
        doc = {"E": self.E.to_json_dict(), "D": self.D.to_json_dict(),
               "mu": self.mu.to_json_dict(), "objective": self.objective,
               "trace": list(self.trace)}
        if self.accuracy is not None:
            doc["accuracy"] = self.accuracy
        return doc


def intermediate_size_bound(x_size: int, y_size: int) -> int:
    """Largest intermediate alphabet an optimal factorization can need."""
    if x_size < 1 or y_size < 1:
        raise InvalidInputError("alphabet sizes must be positive")
    return x_size * y_size - 1


def feasible_check(instance: ZeroErrorInstance, E: Channel, D: Channel):
    """Whether D composed with E reproduces the channel; returns
    (ok, residual) with residual = max absolute entrywise deviation."""
    if E.input_size != instance.channel.input_size \
            or E.output_size != D.input_size \
            or D.output_size != instance.channel.output_size:
        raise InvalidInputError("factor dimensions do not match the instance")
    residual = float(np.abs(E.rows @ D.rows - instance.channel.rows).max())
    return residual <= FEAS_TOL, residual


def _mu_of(instance: ZeroErrorInstance, e_rows: np.ndarray) -> np.ndarray:
    return instance.source.probs @ e_rows


def _entropy_fast(p: np.ndarray) -> float:
    live = p[p > 1e-12]
    return float(-(live * np.log2(live)).sum())


def make_factorization(instance: ZeroErrorInstance, e_rows, d_rows,
                       trace=(), accuracy=None) -> Factorization:
    e_rows = np.asarray(e_rows, dtype=float)
    d_rows = np.asarray(d_rows, dtype=float)
    # squeeze out sub-1e-9 stochasticity drift from the iterative projections
    e_rows = e_rows / e_rows.sum(axis=1, keepdims=True)
    d_rows = d_rows / d_rows.sum(axis=1, keepdims=True)
    E = Channel(instance.channel.input_size, d_rows.shape[0], e_rows)
    D = Channel(d_rows.shape[0], instance.channel.output_size, d_rows)
    ok, residual = feasible_check(instance, E, D)
    if not ok:
        raise InfeasibleError(f"factorization residual {residual:.3g} exceeds "
                              f"{FEAS_TOL:g}")
    mu = Distribution(D.input_size, _mu_of(instance, E.rows))
    return Factorization(E, D, mu, entropy(mu), tuple(trace), accuracy)


def row_vertices(d_rows: np.ndarray, w_row: np.ndarray):
    """Extreme points of {e >= 0 : e @ d_rows = w_row}, each with at most
    |Y| nonzero entries, sorted by support pattern for deterministic ties.
    The supports of each size are solved in one _solve_supports call, and
    all of them are placed in one _place_vertices pass."""
    groups = _support_groups(*d_rows.shape)
    e = np.zeros((sum(len(supps) for supps, _ in groups), d_rows.shape[0]))
    ok = np.zeros(len(e), dtype=bool)
    for supps, at in groups:
        sol, accepted = _solve_supports(d_rows[supps], w_row)
        e[at, supps] = sol
        ok[at[:, 0]] = accepted
    return _distinct_vertices(_place_vertices(e, ok, d_rows, w_row))


def _supports(c_size: int, y_size: int):
    """The row-position tuples row_vertices solves on, by size and then in
    combinations order."""
    return [tuple(supp) for supps, _ in _support_groups(c_size, y_size)
            for supp in supps.tolist()]


@functools.lru_cache(maxsize=None)
def _support_groups(c_size: int, y_size: int):
    """The supports of each size r = 1 .. min(|Y|, c) as one (count, r)
    array of row positions in combinations order, paired with the (count,
    1) indices of those supports in the list of all sizes; read-only."""
    groups, start = [], 0
    for r in range(1, min(y_size, c_size) + 1):
        supps = np.array(list(itertools.combinations(range(c_size), r)), dtype=np.intp)
        at = np.arange(start, start + len(supps))[:, None]
        supps.flags.writeable = at.flags.writeable = False
        groups.append((supps, at))
        start += len(supps)
    return tuple(groups)


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(a: np.ndarray, b: np.ndarray):
    """np.linalg.lstsq(a[i], b, rcond=None) for each (m, n) matrix a[i] of
    the stack a and the one (m,) right-hand side b, as (k, n) solutions and
    (k,) ranks.

    lstsq makes one call of the LAPACK gelsd gufunc on its single matrix.
    This makes the same call on the whole stack, with lstsq's rcond =
    eps * max(m, n) and its error state (LinAlgError when the SVD fails, as
    on NaN input). The gufunc solves each matrix of a stack on its own, so
    every solution and rank is lstsq's bit for bit."""
    m, n = a.shape[-2:]
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x, _, rank, _ = _umath_linalg.lstsq(a, np.asarray(b)[:, None],
                                            np.finfo(float).eps * max(m, n),
                                            signature="ddd->ddid")
    return x[..., 0], rank


def _solve_supports(cols: np.ndarray, w_row: np.ndarray):
    """Least-squares weights of the r rows of each (r, |Y|) matrix in the
    stack cols for w_row, clipped at 0, and whether each solve is accepted:
    full rank r and no weight below -SOLVE_TOL."""
    sol, rank = _lstsq_stack(cols.transpose(0, 2, 1), w_row)
    accepted = (rank == cols.shape[1]) & ~(sol < -SOLVE_TOL).any(axis=1)
    return np.maximum(sol, 0.0), accepted


def _place_vertices(e: np.ndarray, ok: np.ndarray, d: np.ndarray, w_row: np.ndarray):
    """The candidate vertex in each row of the (k, c) stack e, whose entries
    are zero off its support, as (dedupe key, sort key, e row); None where
    ok is False or |e @ D - w_row|_inf > SOLVE_TOL. D is the one (c, |Y|)
    decoder d or, for a (k, c, |Y|) stack d, its own matrix per row.

    e @ D is taken as k (1, c) @ (c, |Y|) products, each rounded as the
    product of one row vector is (a (k, c) @ (c, |Y|) matrix product rounds
    differently). A row's result depends on D only through its support
    positions and the rows of D there: its zeros add exact zeros."""
    resid = np.abs(np.matmul(e[:, None], d)[:, 0] - w_row).max(axis=1)
    live = np.flatnonzero(ok & ~(resid > SOLVE_TOL))
    kept = e[live]
    found = [None] * len(e)
    for i, key, ties, pos in zip(live.tolist(), np.round(kept, 10).tolist(),
                                 np.round(kept, 12).tolist(), (kept > SOLVE_TOL).tolist()):
        found[i] = (tuple(key), (tuple([j for j, v in enumerate(pos) if v]), tuple(ties)),
                    e[i])
    return found


def _distinct_vertices(found):
    """The vertices among _place_vertices results in support order, None
    skipped and the first of each dedupe key kept, sorted by sort key."""
    seen, kept = set(), []
    for vertex in found:
        if vertex is not None and vertex[0] not in seen:
            seen.add(vertex[0])
            kept.append(vertex)
    kept.sort(key=lambda vertex: vertex[1])
    return [vertex[2] for vertex in kept]


def e_step(instance: ZeroErrorInstance, d_rows: np.ndarray) -> np.ndarray:
    """E rows minimizing H(mu) for fixed D: exact search over per-row vertex
    combinations when their product is at most EXACT_COMBO_CAP, coordinate
    descent otherwise."""
    d_rows = np.asarray(d_rows, dtype=float)
    per_x = []
    for x in range(instance.channel.input_size):
        verts = row_vertices(d_rows, instance.channel.rows[x])
        if not verts:
            raise InfeasibleError(f"no nonnegative decomposition of channel "
                                  f"row {x} over the given D")
        per_x.append(verts)
    return _min_entropy_rows(instance.source.probs, per_x)


def _min_entropy_rows(p: np.ndarray, per_x) -> np.ndarray:
    """One vertex per channel row, chosen to minimize H(sum_x p(x) e_x)."""
    counts = [len(v) for v in per_x]
    if math.prod(counts) <= CAPS["EXACT_COMBO_CAP"]:
        return _min_entropy_stack(p, [(np.array(v)[None], np.array([len(v)]))
                                      for v in per_x])[0]
    # coordinate descent over vertices from the lexicographically first corner
    choice = [0] * len(counts)
    improved = True
    while improved:
        improved = False
        for x in range(len(counts)):
            contrib = sum(p[z] * per_x[z][choice[z]]
                          for z in range(len(counts)) if z != x)
            best_h, best_i = None, choice[x]
            for i in range(counts[x]):
                h = _entropy_fast(contrib + p[x] * per_x[x][i])
                if best_h is None or h < best_h - 1e-12:
                    best_h, best_i = h, i
            if best_i != choice[x]:
                choice[x] = best_i
                improved = True
    return np.vstack([per_x[x][choice[x]] for x in range(len(counts))])


def _min_entropy_stack(p: np.ndarray, per_x) -> np.ndarray:
    """_min_entropy_rows' exact search for k stacked instances at once.

    per_x holds, for each channel row x, a (k, L, c) stack of vertex lists
    and their (k,) lengths (entries past a length are ignored); returns the
    (k, |X|, c) chosen rows. Each instance's combinations are scored in
    itertools.product order, mu summed as (p_0 v_0 + p_1 v_1) + ... and H
    by _entropy_rows, and the one chosen is the last to pass
    h < best - 1e-12 in that order. That is the first minimizer unless an
    earlier h lies within 2e-12 above the minimum (only such an acceptance
    can block it, and no later h can pass once it is taken), so only those
    instances are scanned one by one. Instances are scored in pieces of
    about ORACLE_CHUNK padded combinations."""
    shape = tuple(verts.shape[1] for verts, _ in per_x)
    k, _, c = per_x[0][0].shape
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    step = max(1, ORACLE_CHUNK // len(index[0]))
    chosen = np.empty(k, dtype=np.intp)
    for lo in range(0, k, step):
        mu = padded = None
        for x, (verts, counts) in enumerate(per_x):
            term = p[x] * verts[lo:lo + step, index[x]]
            past = index[x] >= counts[lo:lo + step, None]
            mu = term if mu is None else mu + term
            padded = past if padded is None else padded | past
        h = _entropy_rows(mu.reshape(-1, c)).reshape(padded.shape)
        h[padded] = np.inf
        pick = h.argmin(axis=1)
        # every h before the first minimizer lies above it
        near = (h <= h.min(axis=1, keepdims=True) + 2e-12).argmax(axis=1) < pick
        for j in np.flatnonzero(near):
            pick[j] = _sequential_pick(h[j, :pick[j] + 1])
        chosen[lo:lo + step] = pick
    return np.stack([verts[np.arange(k), i[chosen]]
                     for (verts, _), i in zip(per_x, index)], axis=1)


def _sequential_pick(values: np.ndarray) -> int:
    """Index of the last value to pass h < best - 1e-12, scanning in order
    from no best."""
    best_h = best = None
    for i, h in enumerate(values.tolist()):
        if best_h is None or h < best_h - 1e-12:
            best_h, best = h, i
    return best


def _entropy_rows(mu: np.ndarray) -> np.ndarray:
    """_entropy_fast of each row of a 2-D stack, bit for bit. NumPy sums
    fewer than 8 terms left to right, so live entries are added in column
    order with zeros (1 log 1) in place of the others; a row with 8 or more
    live entries goes through _entropy_fast itself."""
    safe = np.where(mu > 1e-12, mu, 1.0)
    h = -functools.reduce(operator.add, (safe * np.log2(safe)).T)
    if mu.shape[1] >= 8:
        for i in np.flatnonzero((mu > 1e-12).sum(axis=1) >= 8):
            h[i] = _entropy_fast(mu[i])
    return h


class _AffineProjector:
    """Euclidean projection onto {D : E @ D = W, rows of D sum to 1}."""

    def __init__(self, e_rows: np.ndarray, w_rows: np.ndarray):
        x_size, c_size = e_rows.shape
        y_size = w_rows.shape[1]
        n_vars = c_size * y_size
        rows, rhs = [], []
        for x in range(x_size):
            for y in range(y_size):
                a = np.zeros(n_vars)
                a[y::y_size] = e_rows[x]
                rows.append(a)
                rhs.append(w_rows[x, y])
        for c in range(c_size):
            a = np.zeros(n_vars)
            a[c * y_size:(c + 1) * y_size] = 1.0
            rows.append(a)
            rhs.append(1.0)
        self.A = np.vstack(rows)
        self.b = np.array(rhs)
        self.shape = (c_size, y_size)
        self.correction = self.A.T @ np.linalg.pinv(self.A @ self.A.T)

    def affine(self, d_rows: np.ndarray) -> np.ndarray:
        v = d_rows.ravel()
        v = v - self.correction @ (self.A @ v - self.b)
        return v.reshape(self.shape)

    def onto_feasible(self, d_rows: np.ndarray):
        """Dykstra alternation (at most DYKSTRA_ITERS rounds) between the
        affine set and the nonnegative orthant; returns (point, satisfied)."""
        x = np.asarray(d_rows, dtype=float)
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        for _ in range(DYKSTRA_ITERS):
            y = self.affine(x + p)
            p = x + p - y
            x_new = np.maximum(y + q, 0.0)
            q = y + q - x_new
            if np.abs(x_new - x).max() < 1e-12:
                x = x_new
                break
            x = x_new
        ok = (x >= -SOLVE_TOL).all() and \
            np.abs(self.A @ x.ravel() - self.b).max() <= FEAS_TOL
        return np.clip(x, 0.0, None), ok


def d_step(instance: ZeroErrorInstance, e_rows: np.ndarray,
           d_start: np.ndarray = None) -> np.ndarray:
    """D maximizing the mixture entropy sum_c mu_c H(D row c) over the
    feasibility set, by projected gradient ascent with backtracking (at most
    D_STEP_ITERS steps, each halved down to 1e-12 until it gains more than
    D_STEP_GAIN_ULPS ulps of the objective f, a threshold relative to f
    above what rounding alone gains).

    When E pins the rows the mixture reads (_pins_live_rows), every feasible
    D has the same live rows, so every candidate projects to the same point
    up to rounding: the ascent then stops at the first feasible candidate
    that does not gain instead of halving its step 40 times. The first
    candidate is still scored, and taken when it gains past the threshold.
    A later one the full ladder would take (not seen on the six pairs of
    the tests) is the same D up to rounding.

    Rows whose intermediate symbol is unreachable are free (they carry no
    weight in the maximized mixture, so any completion is maximal); they are
    recycled as channel rows, which hands the next E-step ready-made routing
    targets instead of wasting the dead symbols."""
    e_rows = np.asarray(e_rows, dtype=float)
    proj = _AffineProjector(e_rows, instance.channel.rows)
    if d_start is None:
        d_start = np.full(proj.shape, 1.0 / proj.shape[1])
    d, ok = proj.onto_feasible(d_start)
    if not ok:
        raise InfeasibleError("no feasible D for the given E")
    mu = _mu_of(instance, e_rows)
    pinned = _pins_live_rows(e_rows, mu)

    def objective(rows):
        vals = 0.0
        for c in range(rows.shape[0]):
            if mu[c] > 1e-12:
                vals += mu[c] * _entropy_fast(rows[c])
        return vals

    f = objective(d)
    step = 1.0
    for _ in range(D_STEP_ITERS):
        grad = np.zeros_like(d)
        for c in range(d.shape[0]):
            if mu[c] > 1e-12:
                grad[c] = -mu[c] * (np.log2(np.clip(d[c], 1e-12, None)) + 1 / math.log(2))
        moved = False
        while step > 1e-12:
            cand, ok = proj.onto_feasible(d + step * grad)
            if ok:
                f_cand = objective(cand)
                if f_cand > f + D_STEP_GAIN_ULPS * np.spacing(f):
                    gain = f_cand - f
                    d, f = cand, f_cand
                    step = min(step * 2.0, 1.0)
                    moved = True
                    break
                if pinned:
                    break
            step *= 0.5
        if not moved or gain < D_STEP_TOL:
            break
    dead = np.flatnonzero(e_rows.max(axis=0) <= 1e-12)
    for j, c in enumerate(dead):
        d[c] = instance.channel.rows[j % instance.channel.input_size]
    return d


def _pins_live_rows(e_rows: np.ndarray, mu: np.ndarray) -> bool:
    """Whether E @ D = W fixes the rows of D with mu_c > 1e-12, the rows
    d_step's objective reads. A move of D that keeps E @ D and the row sums
    moves the rows along vectors v with E v = 0, so the live rows are fixed
    when every such v is zero on them: when rank E = #live + rank E[:, dead].
    The dead rows are then the only free direction, and the objective
    ignores them."""
    live = mu > 1e-12
    return bool(np.linalg.matrix_rank(e_rows)
                == live.sum() + np.linalg.matrix_rank(e_rows[:, ~live]))


def _trivial_init(instance: ZeroErrorInstance):
    """Route each input to its own intermediate symbol; objective H(P)."""
    x_size = instance.channel.input_size
    c = instance.c_max
    if c < x_size:
        return None
    e_rows = np.zeros((x_size, c))
    e_rows[np.arange(x_size), np.arange(x_size)] = 1.0
    d_rows = np.full((c, instance.channel.output_size),
                     1.0 / instance.channel.output_size)
    d_rows[:x_size] = instance.channel.rows
    return e_rows, d_rows


def _random_init(instance: ZeroErrorInstance, rng):
    """(E, D) from the first of RANDOM_INIT_TRIES random stochastic D, drawn
    as one (tries, c_max, |Y|) Dirichlet stack (the same numbers as one
    c_max-row draw per try), over which every channel row decomposes; None
    when none does. Draws the box test of _hull_candidates rejects are
    dropped without an e_step: it rejects only what e_step would."""
    draws = rng.dirichlet(np.ones(instance.channel.output_size),
                          size=(RANDOM_INIT_TRIES, instance.c_max))
    for d_rows in draws[_hull_candidates(draws, instance.channel.rows)]:
        try:
            return e_step(instance, d_rows), d_rows
        except InfeasibleError:
            continue
    return None


def alternate(instance: ZeroErrorInstance, seed: int = 0,
              restarts: int = 20) -> Factorization:
    """Best factorization over restarts of e_step/d_step alternation.

    Restart 0 starts from the route-through code (always feasible when
    c_max >= |X|); later restarts draw random stochastic D and keep it only
    if every channel row decomposes. Iteration stops when the objective
    improves by less than ALTERNATE_TOL, or after ALTERNATE_ITERS rounds;
    the per-iteration objective is traced."""
    if restarts < 1:
        raise InvalidInputError("restarts must be at least 1")
    best = None
    for restart in range(restarts):
        if restart == 0:
            init = _trivial_init(instance)
        else:
            init = _random_init(instance, child_rng(seed, f"zero_error:restart:{restart}"))
        if init is None:
            continue
        e_rows, d_rows = init
        trace = [_entropy_fast(_mu_of(instance, e_rows))]
        for _ in range(ALTERNATE_ITERS):
            d_rows = d_step(instance, e_rows, d_start=d_rows)
            e_rows = e_step(instance, d_rows)
            h = _entropy_fast(_mu_of(instance, e_rows))
            trace.append(h)
            if trace[-2] - h < ALTERNATE_TOL:
                break
        fact = make_factorization(instance, e_rows, d_rows, trace=trace)
        if best is None or fact.objective < best.objective - 1e-12:
            best = fact
    if best is None:
        raise InfeasibleError("no feasible initialization found; raise c_max")
    return best


def brute_force_oracle(instance: ZeroErrorInstance,
                       grid_resolution: int) -> Factorization:
    """Exhaustive minimum over D with rows on a simplex grid. Declared
    accuracy is an empirical Lipschitz modulus near the optimum times the
    grid pitch.

    D rows are exchangeable, so the candidates are the multisets of c_max
    grid rows, visited in combinations_with_replacement order; more than
    ORACLE_MULTISET_CAP of them is refused before any is built. They are
    taken ORACLE_CHUNK at a time, and each chunk is handled by array passes
    that give e_step's result on every multiset, bit for bit:
    - the box test of _hull_candidates drops every multiset over which some
      channel row has no vertex (it only drops what e_step would reject as
      infeasible);
    - per channel row, _block_vertices gives every survivor its
      row_vertices list, solving each distinct set of grid rows once per
      call and placing and testing the solve once per support position,
      each in one stacked pass per chunk, and the survivors left without a
      vertex are dropped;
    - _min_entropy_stack makes e_step's vertex choice for all survivors
      (the caps keep every product of list lengths, at most 14^3, below
      EXACT_COMBO_CAP, so the exact search is the one that applies);
    - one stacked p @ E scores them, and they are scanned in multiset
      order, a multiset replacing the best only when its entropy is lower
      by more than 1e-12."""
    x_size = instance.channel.input_size
    y_size = instance.channel.output_size
    require_cap("ORACLE_XY_CAP", max(x_size, y_size),
                f"oracle alphabets have |X| = {x_size} and |Y| = {y_size}")
    require_cap("ORACLE_C_CAP", instance.c_max,
                "oracle intermediate alphabet has c_max = {}")
    if grid_resolution < 2:
        raise InvalidInputError("grid resolution must be at least 2")
    g = math.comb(grid_resolution + y_size - 1, y_size - 1)
    n_multisets = math.comb(g + instance.c_max - 1, instance.c_max)
    require_cap("ORACLE_MULTISET_CAP", n_multisets, "oracle grid has {} multisets of D rows")
    rows = simplex_grid(y_size, grid_resolution)
    w_rows = instance.channel.rows
    p = instance.source.probs
    supports = _supports(instance.c_max, y_size)
    lookups = [({}, {}) for _ in range(x_size)]
    best_h, best_e, best_d = None, None, None
    multisets = itertools.combinations_with_replacement(range(g), instance.c_max)
    for _ in range(0, n_multisets, ORACLE_CHUNK):
        block = np.array(list(itertools.islice(multisets, ORACLE_CHUNK)), dtype=np.intp)
        block = block[_hull_candidates(rows[block], w_rows)]
        per_x = []
        for x in range(x_size):
            if not len(block):
                break
            verts, counts = _block_vertices(rows, block, w_rows[x], supports,
                                            *lookups[x])
            feasible = counts > 0
            block = block[feasible]
            per_x = [(v[feasible], n[feasible]) for v, n in per_x] \
                + [(verts[feasible], counts[feasible])]
        if not len(block):
            continue
        e_stack = _min_entropy_stack(p, per_x)
        for i, h in enumerate(_entropy_rows(p @ e_stack).tolist()):
            if best_h is None or h < best_h - 1e-12:
                best_h, best_e, best_d = h, e_stack[i], rows[block[i]]
    if best_h is None:
        raise InfeasibleError("no feasible D on the grid; raise resolution")
    pitch = y_size / grid_resolution
    modulus = _local_modulus(instance, best_d, best_h, grid_resolution)
    accuracy = modulus * pitch * instance.c_max + 1e-9
    return make_factorization(instance, best_e, best_d, accuracy=accuracy)


def _block_vertices(rows, block, w_row, supports, table, solves):
    """row_vertices(rows[combo], w_row) for every multiset combo in block:
    a (k, L, c) stack of vertex lists, each padded past its length, and the
    (k,) lengths.

    Each distinct (support, grid rows at it) pair is looked up once. table
    maps (supp, key) to its _place_vertices result and solves maps key, the
    grid rows, to its clipped _solve_supports weights (None when rejected):
    the solve sees only the rows, so supports holding the same rows share
    it, while the residual test does not, since e @ D's rounding depends on
    where e's zeros sit. Both persist across the chunks of one oracle call.
    A chunk first gathers its unsolved keys and solves those of each size in
    one stacked gelsd call, then places all its unplaced pairs in one pass,
    each with the first combo in the chunk that holds it as D; the stacked
    calls round every solve and residual as the per-support ones of
    row_vertices do, so the lists are row_vertices' bit for bit. Per combo
    the first vertex in support order of each dedupe key is kept and the
    kept ones are ordered by sort key, as _distinct_vertices does."""
    # code (support index, grid rows at it) as one integer per position
    size = len(supports)
    digits = np.zeros((block.shape[1], size), dtype=np.intp)
    for s, supp in enumerate(supports):
        for j, position in enumerate(supp):
            digits[position, s] = len(rows) ** j
    _, first, ids = np.unique((block @ digits) * size + np.arange(size),
                              return_index=True, return_inverse=True)
    at = (first % size).tolist()
    pairs = [(supports[s], tuple([combo[j] for j in supports[s]]))
             for combo, s in zip(block[first // size].tolist(), at)]
    new = [i for i, pair in enumerate(pairs) if pair not in table]
    unsolved = {}
    for i in new:
        key = pairs[i][1]
        if key not in solves:
            unsolved.setdefault(len(key), {})[key] = None
    for keys in unsolved.values():
        sol, accepted = _solve_supports(rows[np.array(list(keys))], w_row)
        solves.update(zip(keys, [weights if ok else None
                                 for weights, ok in zip(sol.tolist(), accepted.tolist())]))
    if new:
        e = np.zeros((len(new), block.shape[1]))
        placed, at_row, at_col, weights = [], [], [], []
        for n, i in enumerate(new):
            supp, key = pairs[i]
            if solves[key] is not None:
                placed.append(n)
                at_row += [n] * len(supp)
                at_col += supp
                weights += solves[key]
        e[at_row, at_col] = weights
        ok = np.zeros(len(new), dtype=bool)
        ok[placed] = True
        table.update(zip([pairs[i] for i in new],
                         _place_vertices(e, ok, rows[block[first[new] // size]], w_row)))
    found = [table[pair] for pair in pairs]
    ids = ids.reshape(len(block), size)
    live = [j for j, vertex in enumerate(found) if vertex is not None]
    group = np.full(len(found), -1)
    dedupe = {}
    for j in live:
        group[j] = dedupe.setdefault(found[j][0], len(dedupe))
    rank = np.full(len(found), len(found))
    # ties in sort key keep support order, as the stable sort there does
    rank[sorted(live, key=lambda j: (found[j][1], at[j]))] = np.arange(len(live))
    group = group[ids]
    repeat = (group[:, :, None] == group[:, None, :]) & np.tri(size, k=-1, dtype=bool)
    kept = (group >= 0) & ~repeat.any(axis=2)
    counts = kept.sum(axis=1)
    order = np.argsort(np.where(kept, rank[ids], len(found)), axis=1)
    e = np.zeros((len(found), block.shape[1]))
    if live:
        e[live] = [found[j][2] for j in live]
    return e[np.take_along_axis(ids, order[:, :counts.max()], axis=1)], counts


def _hull_candidates(d_stack: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """Mask over a (k, c, |Y|) stack of nonnegative D matrices: False only
    where some channel row w certainly has no vertex in row_vertices.

    row_vertices accepts an e >= 0 only when |e @ D - w|_inf <= tau
    (SOLVE_TOL). With s_c the row sums of D, sum_c e_c s_c is then within
    |Y| tau of sum(w), so sum(e) lies in [(sum(w) - |Y| tau) / max s,
    (sum(w) + |Y| tau) / min s], and every coordinate obeys
    min_c D[c, y] sum(e) - tau <= w_y <= max_c D[c, y] sum(e) + tau.
    A row is rejected only outside that band by more than HULL_SLACK
    (relative to the band's edge, which covers the rounding of the test
    itself); a NaN edge (from 0 * inf) never rejects."""
    tau = SOLVE_TOL
    y_size = d_stack.shape[2]
    sums = d_stack.sum(axis=2)
    lo, hi = d_stack.min(axis=1), d_stack.max(axis=1)
    keep = np.ones(d_stack.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in w_rows:
            s_lo = (w.sum() - y_size * tau) / sums.max(axis=1)
            s_hi = (w.sum() + y_size * tau) / sums.min(axis=1)
            low = lo * s_lo[:, None] - tau
            high = hi * s_hi[:, None] + tau
            out = (w < low - HULL_SLACK * (1 + np.abs(low))) \
                | (w > high + HULL_SLACK * (1 + np.abs(high)))
            keep &= ~out.any(axis=1)
    return keep


def _local_modulus(instance, d_rows, h_at, resolution):
    """Largest observed objective change per unit l1 move of one D row,
    probed at grid neighbors of the optimum."""
    y_size = d_rows.shape[1]
    worst = 0.0
    for c in range(d_rows.shape[0]):
        for up in range(y_size):
            for down in range(y_size):
                if up == down:
                    continue
                cand = d_rows.copy()
                cand[c, up] += 1.0 / resolution
                cand[c, down] -= 1.0 / resolution
                if cand[c, down] < -SOLVE_TOL or cand[c, up] > 1 + SOLVE_TOL:
                    continue
                cand[c] = np.clip(cand[c], 0.0, None)
                try:
                    e_rows = e_step(instance, cand)
                except InfeasibleError:
                    continue
                h = _entropy_fast(_mu_of(instance, e_rows))
                worst = max(worst, abs(h - h_at) / (2.0 / resolution))
    return max(worst, 1e-6)


def gamma_bracket(instance: ZeroErrorInstance, single_letter: float):
    """Bracket for the asymptotic perfect-restitution rate: mutual
    information below, best per-letter achieved value above."""
    lower, upper = mutual_information(instance.source, instance.channel), single_letter
    if upper < lower - 1e-9:
        raise InvalidInputError("bracket inverted; factorization values "
                                "are inconsistent")
    return lower, upper
