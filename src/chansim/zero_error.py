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
support of at most |Y| rows of D, accepted when the rows have full rank,
every weight is above SOLVE_TOL and it meets the channel row within
SOLVE_TOL, so each vertex is found once, from its own positive support, and
the vertices are listed in lexicographic order of their supports. The
supports of one size are solved in one call of the LAPACK gelsd gufunc over
their stack, the call np.linalg.lstsq makes for a single matrix, with its
rcond and error state; the gufunc solves each matrix of a stack on its own,
so every solve is lstsq's bit for bit. For fixed E the
feasible D set is affine and the D-step maximizes the concave mixture entropy
sum_c mu_c H(D row c) by projected gradient ascent, each candidate projected
once onto that set and clipped at 0; this cannot change H(mu) but widens the
next E-step's polytope; when E pins the rows the mixture reads, every
feasible D scores the same and the ascent stops after one step that does not
gain. Alternation therefore never increases the objective.
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
from collections import ChainMap
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ._seeds import child_rng
from .core_prob import (Channel, Distribution, _sum_in_order, entropy, entropy_rows,
                        mutual_information, simplex_grid)
from .errors import CAPS, InfeasibleError, InvalidInputError, require_cap

FEAS_TOL = 1e-7
ALTERNATE_ITERS = 200
D_STEP_ITERS = 500
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
        sizes = range(1, min(self.channel.output_size, self.c_max) + 1)
        require_cap("WORD_ENUM_CAP", self.c_max * sum(math.comb(self.c_max, r) for r in sizes),
                    "zero-error vertex table has {} entries")

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


def make_factorization(instance: ZeroErrorInstance, e_rows, d_rows,
                       trace=(), accuracy=None) -> Factorization:
    e_rows = np.asarray(e_rows, dtype=float)
    d_rows = np.asarray(d_rows, dtype=float)
    # squeeze out sub-1e-9 stochasticity drift from the projections
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
    |Y| nonzero entries: the solves _solve_supports accepts, each on its
    own positive support, listed in lexicographic order of the supports.
    The supports of each size are solved in one call, so a vertex depends
    only on the rows of d_rows at its support and on w_row."""
    groups = _support_groups(*d_rows.shape)
    e = np.zeros((sum(len(supps) for supps, _ in groups), d_rows.shape[0]))
    ok = np.zeros(len(e), dtype=bool)
    for supps, at in groups:
        sol, accepted = _solve_supports(d_rows[supps], w_row)
        e[at, supps] = sol
        ok[at[:, 0]] = accepted
    return list(e[ok])


@functools.lru_cache(maxsize=None)
def _support_groups(c_size: int, y_size: int):
    """The supports of each size r = 1 .. min(|Y|, c) as one (count, r)
    array of row positions in combinations order, paired with the (count,
    1) positions of those supports in the lexicographic order of the
    supports of all sizes; read-only."""
    sizes = range(1, min(y_size, c_size) + 1)
    supports = sorted(supp for r in sizes for supp in itertools.combinations(range(c_size), r))
    groups = []
    for r in sizes:
        at = np.array([[i] for i, supp in enumerate(supports) if len(supp) == r], dtype=np.intp)
        supps = np.array([supports[i] for i in at[:, 0]], dtype=np.intp)
        supps.flags.writeable = at.flags.writeable = False
        groups.append((supps, at))
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
    stack cols for w_row, and whether each solve is a vertex on that
    support: full rank r, every weight above SOLVE_TOL, and
    |weights @ rows - w_row|_inf <= SOLVE_TOL. The residual is one
    (1, r) @ (r, |Y|) product per matrix, so each result depends only on
    its own rows and on w_row."""
    sol, rank = _lstsq_stack(cols.transpose(0, 2, 1), w_row)
    resid = np.abs(np.matmul(sol[:, None], cols)[:, 0] - w_row).max(axis=1)
    accepted = (rank == cols.shape[1]) & (sol > SOLVE_TOL).all(axis=1) \
        & (resid <= SOLVE_TOL)
    return sol, accepted


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
                h = entropy(contrib + p[x] * per_x[x][i])
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
    by entropy_rows, and the one chosen is the last to pass
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
        h = entropy_rows(mu.reshape(-1, c)).reshape(padded.shape)
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


class _AffineProjector:
    """Euclidean projection onto {D : E @ D = W, rows of D sum to 1}."""

    def __init__(self, e_rows: np.ndarray, w_rows: np.ndarray):
        c_size = e_rows.shape[1]
        y_size = w_rows.shape[1]
        # D is raveled row by row: E @ D = W, then each row of D sums to 1;
        # the blocks are kron(E, I_|Y|) and kron(I_c, ones(1, |Y|))
        eye = np.eye(y_size)
        self.A = np.vstack([
            (e_rows[:, None, :, None] * eye[None, :, None, :]).reshape(-1, c_size * y_size),
            np.repeat(np.eye(c_size), y_size, axis=1)])
        self.b = np.concatenate([w_rows.ravel(), np.ones(c_size)])
        self.shape = (c_size, y_size)
        self.correction = self.A.T @ np.linalg.pinv(self.A @ self.A.T)

    def affine(self, d_rows: np.ndarray) -> np.ndarray:
        v = d_rows.ravel()
        v = v - self.correction @ (self.A @ v - self.b)
        return v.reshape(self.shape)

    def onto_feasible(self, d_rows: np.ndarray):
        """The affine projection of d_rows clipped at 0; returns (point,
        satisfied), satisfied when the clipped point meets E @ D = W and the
        row sums within FEAS_TOL."""
        x = np.maximum(self.affine(np.asarray(d_rows, dtype=float)), 0.0)
        return x, np.abs(self.A @ x.ravel() - self.b).max() <= FEAS_TOL


def d_step(instance: ZeroErrorInstance, e_rows: np.ndarray,
           d_start: np.ndarray) -> np.ndarray:
    """D maximizing the mixture entropy sum_c mu_c H(D row c) over the
    feasibility set, by projected gradient ascent with backtracking (at most
    D_STEP_ITERS steps, each halved down to 1e-12 until it gains more than
    D_STEP_GAIN_ULPS ulps of the objective f, a threshold relative to f
    above what rounding alone gains). Each candidate is projected once, by
    _AffineProjector.onto_feasible. The ascent starts from d_start, which
    alternate sets to the D its E was solved against (feasible within
    SOLVE_TOL); a start whose projection is not feasible raises
    InfeasibleError. The live rows (mu_c > 1e-12) are read as one array: a
    candidate's score is one entropy_rows call, its terms summed left to
    right from 0.0, and the gradient is one array expression over them.

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
    d, ok = proj.onto_feasible(d_start)
    if not ok:
        raise InfeasibleError("the start does not project onto the feasible D set "
                              "of the given E")
    mu = _mu_of(instance, e_rows)
    live = mu > 1e-12
    mu_live = mu[live]
    pinned = _pins_live_rows(e_rows, live)

    def objective(rows):
        return functools.reduce(operator.add,
                                (mu_live * entropy_rows(rows[live])).tolist(), 0.0)

    f = objective(d)
    step = 1.0
    for _ in range(D_STEP_ITERS):
        grad = np.zeros_like(d)
        grad[live] = (-mu_live)[:, None] * (np.log2(np.clip(d[live], 1e-12, None))
                                            + 1 / math.log(2))
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


def _pins_live_rows(e_rows: np.ndarray, live: np.ndarray) -> bool:
    """Whether E @ D = W fixes the live rows of D (the mask live, where
    mu_c > 1e-12), the rows d_step's objective reads. A move of D that
    keeps E @ D and the row sums moves the rows along vectors v with
    E v = 0, so the live rows are fixed when every such v is zero on them:
    when rank E = #live + rank E[:, dead]. The dead rows are then the only
    free direction, and the objective ignores them."""
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
        trace = [entropy(_mu_of(instance, e_rows))]
        for _ in range(ALTERNATE_ITERS):
            d_rows = d_step(instance, e_rows, d_start=d_rows)
            e_rows = e_step(instance, d_rows)
            h = entropy(_mu_of(instance, e_rows))
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
    taken ORACLE_CHUNK at a time (_multisets), a bound on memory only, and
    each chunk is handled by array passes that give e_step's result on every
    multiset, bit for bit:
    - the box test of _hull_candidates drops every multiset over which some
      channel row has no vertex (it only drops what e_step would reject as
      infeasible);
    - per channel row, _block_vertices gives every survivor its
      row_vertices list, solving and testing each distinct set of grid rows
      once per call and gathering the accepted solves in lexicographic
      support order, and the survivors left without a vertex are dropped;
    - _min_entropy_stack makes e_step's vertex choice for all survivors
      (the caps keep every product of list lengths, at most 14^3, below
      EXACT_COMBO_CAP, so the exact search is the one that applies);
    - one stacked p @ E scores them, and they are scanned in multiset
      order, a multiset replacing the best only when its entropy is lower
      by more than 1e-12.
    _local_modulus probes the optimum's neighbors from the same solves."""
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
    solves = [{} for _ in range(x_size)]
    best_h, best_e, best_combo = None, None, None
    for start in range(0, n_multisets, ORACLE_CHUNK):
        block = _multisets(g, instance.c_max, start, min(start + ORACLE_CHUNK, n_multisets))
        block = block[_hull_candidates(rows[block], w_rows)]
        per_x = []
        for x in range(x_size):
            if not len(block):
                break
            verts, counts = _block_vertices(rows, block, w_rows[x], solves[x])
            feasible = counts > 0
            block = block[feasible]
            per_x = [(v[feasible], n[feasible]) for v, n in per_x] \
                + [(verts[feasible], counts[feasible])]
        if not len(block):
            continue
        e_stack = _min_entropy_stack(p, per_x)
        for i, h in enumerate(entropy_rows(p @ e_stack).tolist()):
            if best_h is None or h < best_h - 1e-12:
                best_h, best_e, best_combo = h, e_stack[i], block[i]
    if best_h is None:
        raise InfeasibleError("no feasible D on the grid; raise resolution")
    pitch = y_size / grid_resolution
    modulus = _local_modulus(instance, rows, best_combo, best_h, grid_resolution, solves)
    accuracy = modulus * pitch * instance.c_max + 1e-9
    return make_factorization(instance, best_e, rows[best_combo], accuracy=accuracy)


def _multisets(g: int, c: int, start: int, stop: int) -> np.ndarray:
    """Entries start .. stop - 1 of combinations_with_replacement(range(g),
    c), as one (stop - start, c) intp array, each unranked from its index.

    With above[v] the number of multisets of the open positions whose
    entries are all at least v, the ones whose next entry is v follow
    above[low] - above[v] ones that start lower, low being the entry
    before. So each position takes the largest v with above[v] at least
    above[low] minus the rank, by one searchsorted on the decreasing above,
    and passes the rest of the rank on."""
    rank = np.arange(start, stop)
    low = np.zeros(len(rank), dtype=np.intp)
    block = np.empty((len(rank), c), dtype=np.intp)
    for j in range(c):
        above = np.array([math.comb(g - v + c - j - 1, c - j) for v in range(g + 1)])
        base = above[low]
        low = np.searchsorted(-above, rank - base, side="right") - 1
        rank = rank - (base - above[low])
        block[:, j] = low
    return block


def _block_vertices(rows, block, w_row, solves):
    """row_vertices(rows[combo], w_row) for every combo in block, a row of
    indices into rows (a multiset of grid rows, or a grid neighbor): a
    (k, L, c) stack of vertex lists, each padded past its length, and the
    (k,) lengths.

    solves maps key, the grid rows at a support, to the weights
    _solve_supports gives for them and whether it accepts them; it persists
    across the chunks of one oracle call. A vertex depends only on its key and on
    w_row, so per support size a chunk codes each position's key as one
    integer, finds the distinct ones by np.unique, solves those it misses
    in one stacked call and gathers the weights back; the accepted
    positions are then taken in lexicographic support order."""
    k, c_size = block.shape
    groups = _support_groups(c_size, rows.shape[1])
    e = np.zeros((k, sum(len(supps) for supps, _ in groups), c_size))
    ok = np.zeros(e.shape[:2], dtype=bool)
    for supps, at in groups:
        keys = block[:, supps]
        _, first, inverse = np.unique(keys @ len(rows) ** np.arange(supps.shape[1]),
                                      return_index=True, return_inverse=True)
        distinct = list(map(tuple, keys.reshape(-1, supps.shape[1])[first].tolist()))
        missing = [key for key in distinct if key not in solves]
        if missing:
            sol, accepted = _solve_supports(rows[np.array(missing)], w_row)
            solves.update(zip(missing, zip(sol, accepted.tolist())))
        weights, live = map(np.array, zip(*[solves[key] for key in distinct]))
        inverse = inverse.reshape(k, len(supps))
        e[:, at, supps] = weights[inverse]
        ok[:, at[:, 0]] = live[inverse]
    counts = ok.sum(axis=1)
    order = np.argsort(~ok, axis=1, kind="stable")[:, :counts.max(), None]
    return np.take_along_axis(e, order, axis=1), counts


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
    itself); a NaN edge (from 0 * inf) never rejects.

    The row sums, their extremes and the column extremes over the c rows
    are taken once, by elementwise passes over the rows and columns (the
    sums in column order, as np.sum adds them), and each channel row is
    tested column by column."""
    tau = SOLVE_TOL
    _, c_size, y_size = d_stack.shape
    columns = [d_stack[:, :, y] for y in range(y_size)]
    sums = _sum_in_order(columns)
    sums_max = functools.reduce(np.maximum, [sums[:, c] for c in range(c_size)])
    sums_min = functools.reduce(np.minimum, [sums[:, c] for c in range(c_size)])
    lo = [functools.reduce(np.minimum, [col[:, c] for c in range(c_size)]) for col in columns]
    hi = [functools.reduce(np.maximum, [col[:, c] for c in range(c_size)]) for col in columns]
    keep = np.ones(d_stack.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in w_rows:
            s_lo = (w.sum() - y_size * tau) / sums_max
            s_hi = (w.sum() + y_size * tau) / sums_min
            for w_y, lo_y, hi_y in zip(w, lo, hi):
                low = lo_y * s_lo - tau
                high = hi_y * s_hi + tau
                keep &= ~((w_y < low - HULL_SLACK * (1 + np.abs(low)))
                          | (w_y > high + HULL_SLACK * (1 + np.abs(high))))
    return keep


def _local_modulus(instance, rows, combo, h_at, resolution, solves):
    """Largest observed objective change per unit l1 move of one D row,
    probed at grid neighbors of the optimum D = rows[combo]: row c moves
    1/resolution of mass from column down to column up, a move that leaves
    [0, 1] by more than SOLVE_TOL is not made, and the moved row is clipped
    at 0. A neighbor over which some channel row has no vertex is skipped.

    Each neighbor's E is e_step's, bit for bit, chosen as brute_force_oracle
    chooses it: the moved rows are appended to the grid rows, so that
    _block_vertices reads the oracle's per-row solves for every support of
    unmoved rows (and keeps the others to itself), and one
    _min_entropy_stack call scores all neighbors."""
    c_size, y_size = len(combo), rows.shape[1]
    moved, block = [], []
    for c in range(c_size):
        for up in range(y_size):
            for down in range(y_size):
                if up == down:
                    continue
                row = rows[combo[c]].copy()
                row[up] += 1.0 / resolution
                row[down] -= 1.0 / resolution
                if row[down] < -SOLVE_TOL or row[up] > 1 + SOLVE_TOL:
                    continue
                moved.append(np.clip(row, 0.0, None))
                block.append(combo.copy())
                block[-1][c] = len(rows) + len(moved) - 1
    worst = 0.0
    if moved:
        table, block = np.vstack([rows, *moved]), np.array(block)
        per_x = []
        for x, w in enumerate(instance.channel.rows):
            # a layer over the oracle's solves: a moved row's index names
            # another row in another call
            verts, counts = _block_vertices(table, block, w, ChainMap({}, solves[x]))
            per_x.append((verts, counts))
        feasible = np.logical_and.reduce([counts > 0 for _, counts in per_x])
        if feasible.any():
            per_x = [(verts[feasible], counts[feasible]) for verts, counts in per_x]
            for e_rows in _min_entropy_stack(instance.source.probs, per_x):
                h = entropy(_mu_of(instance, e_rows))
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
