"""Covering families of conditional type classes.

A covering family for a joint type T with row marginal R and column marginal
S consists of N lists of M words drawn from the class of S. Write c_nu(x) for
the number of entries of list nu that are compatible with x (i.e. form joint
type T with it). The family is good when

  (I)  for every list nu and every x in the class of R,
       c_nu(x) is within (1 +- eps) of its mean M |T_T| / (|T_R| |T_S|), and
  (II) for every y in the class of S, the total number of occurrences of y
       across all lists is within (1 +- eps) of N M / |T_S|.

Condition (I) makes the uniform distribution over compatible entries of any
single list imitate the per-letter channel on the class; condition (II)
makes the whole family blanket the class of S evenly. Random families of the
threshold size succeed with constant probability, so construction is
rejection sampling with verification. Since both conditions, and every
later use of the family, see a list only through how often it holds each
word of the class of S, a family is stored as that multiplicity table, and
each attempt draws the table directly: N rows of Multinomial(M, uniform)
counts, taken by Poisson splitting, each Poisson cell drawn by inverting a
cached float64 CDF through a guide table. That law is exact up to the
CDF's rounding, a total variation below 1e-12 per cell; every family is
still verified exactly.

Margins are reported in eps units: margin = eps - max relative deviation, so
any nonnegative margin means the condition holds.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._seeds import child_rng
from .errors import InvalidInputError, RetriesExhaustedError, require_cap
from .typeclasses import JointType, enumerate_type_class

LN2 = math.log(2.0)
DEFAULT_MAX_RETRIES = 64
POISSON_GUIDE = 2 ** 9   # guide cells of a Poisson inversion table


def lemma2_failure_bound(K_size: int, M: int, eta: float, s: float) -> float:
    """Upper bound on the probability that some of K_size target cells of
    relative mass s gets a hit count outside (1 +- eta) M s in M uniform
    draws: a union over the cells of the multiplicative Chernoff tails,
    K_size (e^(-M eta^2 s / (2 + eta)) + e^(-M eta^2 s / 2)), upper then
    lower. Requires 0 < eta < 1/2 and s > 0."""
    if not 0.0 < eta < 0.5:
        raise InvalidInputError(f"eta must lie in (0, 1/2), got {eta}")
    if s <= 0.0:
        raise InvalidInputError(f"s must be positive, got {s}")
    if K_size < 1 or M < 1:
        raise InvalidInputError("K_size and M must be positive")
    exponent = M * eta * eta * s
    return K_size * (math.exp(-exponent / (2.0 + eta)) + math.exp(-exponent / 2.0))


def _min_M_condition_I(t: JointType, epsilon: float, N: int) -> int:
    size_r, size_s, size_t = t.class_sizes
    ratio = size_r * size_s / size_t
    rhs = (2.0 * LN2 / epsilon**2) * ratio * math.log2(4.0 * N * size_r)
    return int(math.floor(rhs)) + 1


def _rhs_condition_II(t: JointType, epsilon: float) -> float:
    size_s = t.class_sizes[1]
    return (2.0 * LN2 / epsilon**2) * size_s * math.log2(4.0 * size_s)


def required_M_N(t: JointType, epsilon: float, forced_N: int = None):
    """Smallest (M, N) satisfying both covering inequalities.

    Starts from N = 1 and alternates the two threshold formulas until they
    agree; each pass only raises N, so the loop terminates. With forced_N the
    list count is pinned and only M is computed.
    """
    if not 0.0 < epsilon < 0.5:
        raise InvalidInputError("epsilon must lie in (0, 1/2)")
    rhs_ii = _rhs_condition_II(t, epsilon)
    if forced_N is not None:
        M = _min_M_condition_I(t, epsilon, forced_N)
        M = max(M, int(math.floor(rhs_ii / forced_N)) + 1)
        return M, forced_N
    N = 1
    while True:
        M = _min_M_condition_I(t, epsilon, N)
        if N * M > rhs_ii:
            return M, N
        N = int(math.floor(rhs_ii / M)) + 1


@dataclass
class CoveringCheck:
    condition_I_margin: np.ndarray  # per list nu, in eps units
    condition_II_margin: float
    passed: bool


class CoveringFamily:
    """N lists of M words from the class of the column marginal of joint_type.

    Every use of a list depends on it only through how often it holds each
    word, so the family is stored as counts[nu, r]: the multiplicity of the
    class word of lexicographic rank r in list nu, shape (N, |T_S|), each row
    summing to M. Slot mu of list nu is the mu-th entry of the list sorted by
    rank; list_ranks(nu) gives the M ranks in slot order. check holds the
    passing verification when the family came from build_covering. A
    read-only int64 counts table that owns its memory is shared, not
    copied, so build_covering hands over the table it drew; any other table,
    a read-only view of a writable array among them, is copied. The class
    words, their Y^n ranks, the compatibility matrix, c_nu(x) and the running
    totals are built on first use and kept read-only; build_covering shares
    one matrix among attempts.
    """

    def __init__(self, joint_type: JointType, N: int, M: int, counts,
                 epsilon: float, retries: int = 0):
        if not 0.0 < epsilon < 0.5:
            raise InvalidInputError("epsilon must lie in (0, 1/2)")
        size_s = joint_type.class_sizes[1]
        if not (isinstance(counts, np.ndarray) and counts.dtype == np.int64
                and not counts.flags.writeable and counts.flags.owndata):
            counts = np.array(counts, dtype=np.int64)
            counts.flags.writeable = False
        if counts.shape != (N, size_s):
            raise InvalidInputError(f"counts shape {counts.shape} != ({N}, {size_s})")
        if counts.size and counts.min() < 0:
            raise InvalidInputError("negative word multiplicity")
        if np.any(counts.sum(axis=1) != M):
            raise InvalidInputError(f"a list does not hold exactly M = {M} entries")
        self.joint_type, self.N, self.M = joint_type, N, M
        self.counts = counts
        self.epsilon, self.retries = epsilon, retries
        self.check = None
        self._y_words = self._y_ranks = self._compat = self._c = None
        self._cum = None

    def y_class_words(self) -> np.ndarray:
        """The lexicographic enumeration of the column-marginal class, as an
        array of shape (|T_S|, n)."""
        if self._y_words is None:
            self._y_words = enumerate_type_class(self.joint_type.col_marginal())
        return self._y_words

    def y_ranks(self) -> np.ndarray:
        """The lexicographic Y^n rank of every class word, shape (|T_S|,)."""
        if self._y_ranks is None:
            t = self.joint_type
            self._y_ranks = np.ravel_multi_index(self.y_class_words().T, (t.y_size,) * t.n)
            self._y_ranks.flags.writeable = False
        return self._y_ranks

    def compat(self) -> np.ndarray:
        """The compatibility matrix of the joint type, shape (|T_R|, |T_S|):
        rows the row-marginal class, columns the column-marginal class."""
        if self._compat is None:
            t = self.joint_type
            self._compat = compatibility_matrix(
                t, enumerate_type_class(t.row_marginal()), self.y_class_words())
            self._compat.flags.writeable = False
        return self._compat

    def compatible_counts(self) -> np.ndarray:
        """c_nu(x) for every list nu and every x of the row-marginal class,
        shape (N, |T_R|), for the exact-law kernels. Taken as a float64
        product, which is exact because every entry is at most M < 2^53."""
        if self._c is None:
            self._c = self.counts.astype(np.float64) @ self.compat().T.astype(np.float64)
            self._c.flags.writeable = False
        return self._c

    def cumulative(self) -> np.ndarray:
        """Per-list running totals of counts: slots [cum[nu, r] - counts[nu, r],
        cum[nu, r]) of list nu hold the word of rank r."""
        if self._cum is None:
            self._cum = np.cumsum(self.counts, axis=1)
            self._cum.flags.writeable = False
        return self._cum

    def list_ranks(self, nu: int) -> np.ndarray:
        """List nu as M class ranks in slot order."""
        return np.repeat(np.arange(self.counts.shape[1]), self.counts[nu])

    def word(self, nu: int, mu: int) -> tuple:
        rank = np.searchsorted(self.cumulative()[nu], mu, side="right")
        return tuple(int(s) for s in self.y_class_words()[rank])

    def to_json_dict(self) -> dict:
        return {
            "joint_type": self.joint_type.to_json_dict(),
            "N": int(self.N),
            "M": int(self.M),
            "epsilon": float(self.epsilon),
            "retries": int(self.retries),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoveringFamily":
        return cls(
            joint_type=JointType.from_json_dict(doc["joint_type"]),
            N=int(doc["N"]),
            M=int(doc["M"]),
            counts=doc["counts"],
            epsilon=float(doc["epsilon"]),
            retries=int(doc.get("retries", 0)),
        )


def compatibility_matrix(t: JointType, x_words: np.ndarray, y_words: np.ndarray) -> np.ndarray:
    """Boolean matrix: entry (i, j) says whether (x_words[i], y_words[j]) has
    joint type exactly t, for x_words from the class of t's row marginal and
    y_words from the class of its column marginal. With both marginals fixed
    the (|X|-1)(|Y|-1) interior cells (x < |X|-1, y < |Y|-1) determine the
    joint type, so only those are compared: one indicator product per cell,
    in float32, which is exact because every product is a count of at most n."""
    ok = np.ones((x_words.shape[0], y_words.shape[0]), dtype=bool)
    y_ind = [(y_words == b).astype(np.float32).T for b in range(t.y_size - 1)]
    for a in range(t.x_size - 1):
        xa = (x_words == a).astype(np.float32)
        for b, yb in enumerate(y_ind):
            ok &= (xa @ yb) == t.counts[a][b]
    return ok


def verify_covering(family: CoveringFamily) -> CoveringCheck:
    """Exact exhaustive verification of both covering conditions. c_nu(x)
    is taken afresh from the counts and not kept: kept, it would double the
    memory of every family a build keeps. It is a float32 product when
    M < 2^24, exact because every partial sum is an integer of at most M,
    and a float64 one otherwise; the margins are taken in float64."""
    size_r, size_s, size_t = family.joint_type.class_sizes
    dtype = np.float32 if family.M < 2 ** 24 else np.float64
    hits = family.counts.astype(dtype) @ family.compat().T.astype(dtype)

    mean_i = family.M * size_t / (size_r * size_s)
    dev_i = np.abs(np.divide(hits, mean_i, dtype=np.float64) - 1.0)
    margin_i = family.epsilon - dev_i.max(axis=1)

    mean_ii = family.N * family.M / size_s
    dev_ii = np.abs(family.counts.sum(axis=0) / mean_ii - 1.0)
    margin_ii = float(family.epsilon - dev_ii.max())

    passed = bool(margin_ii >= 0.0 and np.all(margin_i >= 0.0))
    return CoveringCheck(margin_i, margin_ii, passed)


@functools.lru_cache(maxsize=256)
def _poisson_table(lam: float):
    """The inversion table of Poisson(lam), lam > 0, truncated at
    K = floor(lam + 10 sqrt(lam)) + 40, as (K, edges, guide, ambiguous).

    The tail past K is below e^-50 < 2^-72: Bernstein's bound
    P(X >= lam + t) <= exp(-t^2 / (2 (lam + t/3))) at t = 10 sqrt(lam) + 40
    is at most e^-50 for every lam. The pmf is built by a ratio recurrence
    from the mode, so no term near the mode underflows (e^-lam does for
    lam > 745). edges[k] is G = POISSON_GUIDE times the float64 CDF at k,
    cut before its first entry that rounds to 1: a draw is the number of
    edges at or below G u for u uniform on [0, 1), which is Poisson(lam)
    truncated at K up to the rounding of the CDF: a total variation of
    1.3e-14 at lam = 1119 and 1.4e-14 at 1378, the largest mean the
    benchmark draws (the tests check 1e-12 exactly for lam from 0.5 to
    1119). guide[i] is that number at G u = i, and ambiguous[i] says an
    edge lies inside guide cell (i, i + 1), where the draw must search. The
    arrays are read-only."""
    K = int(lam + 10.0 * math.sqrt(lam)) + 40
    mode = int(lam)
    k = np.arange(1.0, K + 1)
    pmf = np.concatenate((np.cumprod(k[mode - 1::-1] / lam)[::-1] if mode else [],
                          [1.0], np.cumprod(lam / k[mode:])))
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    edges = cdf[:np.searchsorted(cdf, 1.0)] * POISSON_GUIDE   # exact: a power of two
    cells = np.arange(POISSON_GUIDE + 1.0)
    guide = np.searchsorted(edges, cells[:-1], side="right")
    ambiguous = np.searchsorted(edges, cells[1:], side="left") > guide
    for table in (edges, guide, ambiguous):
        table.flags.writeable = False
    return K, edges, guide, ambiguous


def _poisson_cells(rng, table, shape) -> np.ndarray:
    """Poisson cells of the given shape from one _poisson_table: one uniform
    each, its guide cell's count, and a search only where the guide cell
    holds an edge. An int64 array that owns its memory."""
    _, edges, guide, ambiguous = table
    u = rng.random(shape)
    u *= POISSON_GUIDE              # exact, as the edges are scaled
    cell = u.astype(np.intp)
    fine = np.flatnonzero(ambiguous[cell])
    u = u.reshape(-1)[fine]         # frees the full table of uniforms
    counts = guide[cell]
    counts.reshape(-1)[fine] = np.searchsorted(edges, u, side="right")
    return counts


def _uniform_counts(rng, M: int, size_s: int, N: int) -> np.ndarray:
    """N rows of Multinomial(M, uniform on size_s cells), the multiplicity
    tables of N lists of M i.i.d. uniform ranks, as a read-only int64 table
    that owns its memory. Drawn by Poisson splitting: independent Poisson
    cells are, given their total k, Multinomial(k, uniform) (Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. XI). The cells of a row
    have total mean M - 2 sqrt(M) (no cell is drawn when M <= 4), so about
    2% of rows pass M and only those are drawn again, from the same table,
    which conditions on the total only. The shortfall M - k, about 2 sqrt(M)
    per row, is then added as uniform ranks, an independent
    Multinomial(M - k), which makes the row Multinomial(M, uniform) whatever
    k is. Each cell is drawn by inverting the float64 CDF of Poisson(lam)
    truncated at K, through a guide table (Chen and Asau, 1974; Devroye,
    1986, sec. III.2.4; _poisson_table), so each row is Multinomial(M,
    uniform) to within that table's error: a total variation below 1e-12
    per cell, and every family is verified exactly."""
    lam = max(M - 2.0 * math.sqrt(M), 0.0) / size_s
    if lam == 0.0:
        counts = np.zeros((N, size_s), dtype=np.int64)
    else:
        table = _poisson_table(lam)
        counts = _poisson_cells(rng, table, (N, size_s))
    totals = counts.sum(axis=1)
    over = np.flatnonzero(totals > M)
    while over.size:
        counts[over] = _poisson_cells(rng, table, (over.size, size_s))
        totals[over] = counts[over].sum(axis=1)
        over = over[totals[over] > M]
    short = M - totals
    cells = rng.integers(size_s, size=int(short.sum()))
    cells += np.repeat(np.arange(0, N * size_s, size_s), short)
    # in place: a bincount table as large as counts added about 1 MB to the
    # peak RSS of an n = 10 build
    np.add.at(counts.reshape(-1), cells, 1)
    counts.flags.writeable = False
    return counts


def build_covering(t: JointType, epsilon: float, seed: int = 0,
                   forced_N: int = None) -> CoveringFamily:
    """Rejection-sample a covering family and verify it exactly.

    (M, N) come from the threshold formulas of required_M_N, with the list
    count pinned to forced_N when given. Each attempt draws all N lists at
    once as their counts, Multinomial(M, uniform) per list, the law of M
    i.i.d. uniform ranks (_uniform_counts), until verification passes; the
    passing check is kept on the family.
    Raises CapExceededError, before anything is enumerated or sampled, when
    the counts table or the compatibility matrix would exceed
    COVER_TABLE_CAP entries, and RetriesExhaustedError after
    DEFAULT_MAX_RETRIES failures; both are read at call time.
    """
    M, N = required_M_N(t, epsilon, forced_N=forced_N)
    size_r, size_s, _ = t.class_sizes
    require_cap("COVER_TABLE_CAP", max(N, size_r) * size_s, "covering tables of {} entries")
    compat = None   # built by the first attempt, shared by every later one
    for attempt in range(DEFAULT_MAX_RETRIES):
        counts = _uniform_counts(child_rng(seed, f"covering:try:{attempt}"), M, size_s, N)
        family = CoveringFamily(t, N, M, counts, epsilon, retries=attempt)
        family._compat = compat
        family.check = verify_covering(family)
        if family.check.passed:
            return family
        compat = family.compat()
    raise RetriesExhaustedError(f"covering for joint type {t.counts} failed "
                                f"verification {DEFAULT_MAX_RETRIES} times")
