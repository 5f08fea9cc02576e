"""Method of types: exact count vectors, joint types, typicality, class sizes.

An exact type of a word w in X^n is its count vector (N(0|w), ..., N(a-1|w)).
A joint type of a word pair is the count matrix over X x Y. All class sizes
are exact integers (multinomial coefficients); bounds and probabilities are
floats.

Typicality uses the root-n window
    |N(x|w) - n P(x)| <= delta * sqrt(n) * sigma_x,
    sigma_x = sqrt(P(x) (1 - P(x))),
with the convention that sigma_x = 0 demands the exact count n P(x). The same
window is applied cell by cell (with row counts in place of n) to joint types
relative to a channel.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._seeds import _as_rng
from .core_prob import ZERO_TOL, Channel, Distribution, _compositions
from .errors import CapExceededError, InvalidInputError

JOINT_ENUM_N_CAP = 16
JOINT_ENUM_CELLS_CAP = 9
WORD_ENUM_CAP = 2_000_000
EXACT_PROB_N_CAP = 170


@dataclass(frozen=True)
class ExactType:
    """Count vector of a word of length n over {0, ..., a-1}."""

    n: int
    counts: tuple

    def __post_init__(self):
        if any((not isinstance(c, int)) or c < 0 for c in self.counts):
            raise InvalidInputError("type counts must be nonnegative integers")
        if sum(self.counts) != self.n:
            raise InvalidInputError(f"type counts sum to {sum(self.counts)}, not n={self.n}")

    @property
    def alphabet_size(self) -> int:
        return len(self.counts)

    def distribution(self) -> Distribution:
        return Distribution.from_probs(np.asarray(self.counts, dtype=float) / self.n)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "counts": list(self.counts)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExactType":
        return cls(int(doc["n"]), tuple(int(c) for c in doc["counts"]))


@dataclass(frozen=True)
class JointType:
    """Count matrix of a word pair; counts[x][y] = #{k : x_k = x, y_k = y}."""

    n: int
    counts: tuple  # tuple of tuples, x_size rows of y_size entries

    def __post_init__(self):
        if any(any((not isinstance(c, int)) or c < 0 for c in row) for row in self.counts):
            raise InvalidInputError("joint type counts must be nonnegative integers")
        total = sum(sum(row) for row in self.counts)
        if total != self.n:
            raise InvalidInputError(f"joint counts sum to {total}, not n={self.n}")
        if len({len(row) for row in self.counts}) != 1:
            raise InvalidInputError("joint count rows must have equal length")

    @property
    def x_size(self) -> int:
        return len(self.counts)

    @property
    def y_size(self) -> int:
        return len(self.counts[0])

    def row_marginal(self) -> ExactType:
        return ExactType(self.n, tuple(sum(row) for row in self.counts))

    def col_marginal(self) -> ExactType:
        return ExactType(self.n, tuple(sum(row[y] for row in self.counts)
                                       for y in range(self.y_size)))

    def transpose(self) -> "JointType":
        return JointType(self.n, tuple(tuple(self.counts[x][y] for x in range(self.x_size))
                                       for y in range(self.y_size)))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "counts": [list(row) for row in self.counts]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointType":
        return cls(int(doc["n"]), tuple(tuple(int(c) for c in row) for row in doc["counts"]))


@dataclass(frozen=True)
class TypicalSpec:
    """A typicality window: distribution p, word length n, width delta."""

    p: Distribution
    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("n must be positive")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise InvalidInputError("delta must be finite and nonnegative")


def count_occurrences(word, alphabet_size: int) -> ExactType:
    word = np.asarray(word, dtype=int)
    if word.size and (word.min() < 0 or word.max() >= alphabet_size):
        raise InvalidInputError("word letter out of alphabet range")
    counts = np.bincount(word, minlength=alphabet_size)
    return ExactType(word.size, tuple(int(c) for c in counts))


def count_joint_occurrences(x_word, y_word, x_size: int, y_size: int) -> JointType:
    x = np.asarray(x_word, dtype=int)
    y = np.asarray(y_word, dtype=int)
    if x.size != y.size:
        raise InvalidInputError("word lengths differ")
    flat = np.bincount(x * y_size + y, minlength=x_size * y_size)
    mat = flat.reshape(x_size, y_size)
    return JointType(x.size, tuple(tuple(int(c) for c in row) for row in mat))


def _count_window(n: int, mean: float, sigma: float, delta: float):
    """Integer counts c in [0, n] with |c - mean| <= delta * sigma', where a
    zero sigma demands the exact (integral) mean."""
    if sigma < ZERO_TOL:
        c = int(round(mean))
        return [c] if abs(c - mean) < 1e-9 and 0 <= c <= n else []
    lo = math.ceil(mean - delta * sigma - 1e-12)
    hi = math.floor(mean + delta * sigma + 1e-12)
    return list(range(max(lo, 0), min(hi, n) + 1))


def type_is_typical(t: ExactType, spec: TypicalSpec) -> bool:
    if t.alphabet_size != spec.p.alphabet_size or t.n != spec.n:
        raise InvalidInputError("type does not match the typicality spec")
    root_n = math.sqrt(spec.n)
    for x, c in enumerate(t.counts):
        px = spec.p.probs[x]
        sigma = math.sqrt(max(px * (1.0 - px), 0.0))
        if sigma < ZERO_TOL:
            if abs(c - spec.n * px) > 1e-9:
                return False
        elif abs(c - spec.n * px) > spec.delta * root_n * sigma + 1e-12:
            return False
    return True


def is_conditionally_typical(t: JointType, w: Channel, delta: float) -> bool:
    """Cell-wise window for the conditional part of a joint type: for each x
    with row count r_x, |t[x][y] - r_x W(y|x)| <= delta sqrt(r_x) sigma_xy."""
    if t.x_size != w.input_size or t.y_size != w.output_size:
        raise InvalidInputError("joint type does not match the channel")
    for x, row in enumerate(t.counts):
        r = sum(row)
        if r == 0:
            continue
        root_r = math.sqrt(r)
        for y, c in enumerate(row):
            wxy = w.rows[x][y]
            sigma = math.sqrt(max(wxy * (1.0 - wxy), 0.0))
            if sigma < ZERO_TOL:
                if abs(c - r * wxy) > 1e-9:
                    return False
            elif abs(c - r * wxy) > delta * root_r * sigma + 1e-12:
                return False
    return True


class TypicalBounds(NamedTuple):
    chebyshev: float
    chernoff: float
    exact: float


def _binary_kl_nats(q: float, p: float) -> float:
    """D(q || p) in nats between Bernoulli(q) and Bernoulli(p), 0 < p < 1."""
    d = 0.0
    if q > 0.0:
        d += q * math.log(q / p)
    if q < 1.0:
        d += (1.0 - q) * math.log((1.0 - q) / (1.0 - p))
    return d


def _chernoff_floor(spec: TypicalSpec) -> float:
    """The chernoff field of typical_probability_bounds. A letter with sigma_x
    below ZERO_TOL must hit its count exactly, which fails only if some
    position does (not) draw it: miss_x <= n min(P(x), 1 - P(x)), which is
    0 when P(x) is 0 or 1.
    """
    n, root_n = spec.n, math.sqrt(spec.n)
    miss = 0.0
    for px in spec.p.probs:
        px = float(px)
        sigma = math.sqrt(max(px * (1.0 - px), 0.0))
        if sigma < ZERO_TOL:
            miss += min(1.0, n * min(px, 1.0 - px))
            continue
        step = spec.delta * sigma / root_n
        tails = sum(math.exp(-n * _binary_kl_nats(q, px))
                    for q in (px + step, px - step) if 0.0 <= q <= 1.0)
        miss += min(1.0, tails)
    return 1.0 - miss


def typical_probability_bounds(spec: TypicalSpec) -> TypicalBounds:
    """Probability that an i.i.d. word lands in the typicality window.

    chebyshev = 1 - a / delta^2 (the union-of-variances bound; -inf sentinel
    at delta = 0), chernoff = 1 - sum_x min(1, upper_x + lower_x) (the
    Chernoff union floor: with q = P(x) +- delta sigma_x / sqrt(n), each tail
    of the Bin(n, P(x)) count of letter x beyond the window is at most
    exp(-n D(q || P(x))), D in nats, and a tail with q outside [0, 1] is
    empty; a proven lower bound on exact at every n, delta and source),
    exact = the true mass, computed by coefficient extraction from the
    product of truncated exponential generating functions.
    """
    a, n, delta = spec.p.alphabet_size, spec.n, spec.delta
    if n > EXACT_PROB_N_CAP:
        raise CapExceededError(f"exact typicality mass capped at n <= {EXACT_PROB_N_CAP}")
    chebyshev = -math.inf if delta == 0 else 1.0 - a / delta**2
    chernoff = _chernoff_floor(spec)

    # Factors are renormalized and the scale carried in log space; the raw
    # coefficients underflow float64 well before the cap is reached.
    root_n = math.sqrt(n)
    poly = np.zeros(n + 1)
    poly[0] = 1.0
    log_scale = 0.0
    for x in range(a):
        px = float(spec.p.probs[x])
        sigma = math.sqrt(max(px * (1.0 - px), 0.0))
        window = _count_window(n, n * px, delta * root_n * sigma, 1.0)
        logs = {}
        for c in window:
            if px > 0.0:
                logs[c] = c * math.log(px) - math.lgamma(c + 1)
            elif c == 0:
                logs[c] = 0.0
        if not logs:
            return TypicalBounds(chebyshev, chernoff, 0.0)
        peak = max(logs.values())
        factor = np.zeros(n + 1)
        for c, lg in logs.items():
            factor[c] = math.exp(lg - peak)
        log_scale += peak
        poly = np.convolve(poly, factor)[: n + 1]
        top = float(poly.max())
        if top <= 0.0:
            return TypicalBounds(chebyshev, chernoff, 0.0)
        poly /= top
        log_scale += math.log(top)
    coeff = float(poly[n])
    if coeff <= 0.0:
        return TypicalBounds(chebyshev, chernoff, 0.0)
    exact = math.exp(math.log(coeff) + log_scale + math.lgamma(n + 1))
    return TypicalBounds(chebyshev, chernoff, min(exact, 1.0))


def _multinomial(counts) -> int:
    """(sum counts)! / prod(c!), exactly."""
    size = math.factorial(sum(counts))
    for c in counts:
        size //= math.factorial(c)
    return size


def type_class_size(t: ExactType) -> int:
    """Number of words with exact type t (a multinomial coefficient)."""
    return _multinomial(t.counts)


def joint_type_class_size(t: JointType) -> int:
    """Number of word pairs with joint type t."""
    return _multinomial([c for row in t.counts for c in row])


def conditional_type_class_size(t: JointType, x_word) -> int:
    """Number of y-words forming joint type t against the fixed x_word."""
    x_type = count_occurrences(x_word, t.x_size)
    if x_type != t.row_marginal():
        raise InvalidInputError("x_word type does not match the joint type's row marginal")
    size = 1
    for row in t.counts:
        size *= _multinomial(row)
    return size


def conditional_class_size_given_y(t: JointType, y_word) -> int:
    """Number of x-words forming joint type t against the fixed y_word."""
    return conditional_type_class_size(t.transpose(), y_word)


def enumerate_type_classes(n: int, alphabet_size: int):
    """All exact types of length-n words, lexicographic by count vector."""
    return [ExactType(n, c) for c in _compositions(n, alphabet_size)]


def enumerate_joint_types(n: int, x_size: int, y_size: int, base_type: ExactType = None):
    """All joint types over X x Y for length n, lexicographic on the flattened
    count matrix. With base_type given, only joint types whose row marginal
    equals base_type. JOINT_ENUM_N_CAP and JOINT_ENUM_CELLS_CAP, read at call
    time, guard against blowup."""
    if n > JOINT_ENUM_N_CAP:
        raise CapExceededError(f"joint type enumeration capped at n <= {JOINT_ENUM_N_CAP}")
    if x_size * y_size > JOINT_ENUM_CELLS_CAP:
        raise CapExceededError(
            f"joint type enumeration capped at {JOINT_ENUM_CELLS_CAP} cells")
    out = []
    if base_type is None:
        for flat in _compositions(n, x_size * y_size):
            rows = tuple(flat[x * y_size:(x + 1) * y_size] for x in range(x_size))
            out.append(JointType(n, rows))
        return out
    if base_type.n != n or base_type.alphabet_size != x_size:
        raise InvalidInputError("base_type does not match n and x_size")
    per_row = [list(_compositions(r, y_size)) for r in base_type.counts]
    for rows in itertools.product(*per_row):
        out.append(JointType(n, tuple(rows)))
    return out


def enumerate_type_class(t: ExactType) -> np.ndarray:
    """All words with exact type t as a read-only (|T|, n) int64 array in
    lexicographic order; at most WORD_ENUM_CAP of them. The cap is read and
    checked on every call, the array built once per type and cached."""
    size = type_class_size(t)
    if size > WORD_ENUM_CAP:
        raise CapExceededError(f"type class has {size} words, cap is {WORD_ENUM_CAP}")
    return _class_words(t)


@functools.lru_cache(maxsize=64)
def _class_words(t: ExactType) -> np.ndarray:
    words = []
    word = [0] * t.n
    counts = list(t.counts)

    def descend(pos: int):
        if pos == t.n:
            words.extend(word)
            return
        for sym in range(t.alphabet_size):
            if counts[sym] > 0:
                counts[sym] -= 1
                word[pos] = sym
                descend(pos + 1)
                counts[sym] += 1

    descend(0)
    table = np.array(words, dtype=np.int64).reshape(type_class_size(t), t.n)
    table.flags.writeable = False
    return table


def typical_types(spec: TypicalSpec):
    """Exact types inside the typicality window, lexicographic order."""
    return [t for t in enumerate_type_classes(spec.n, spec.p.alphabet_size)
            if type_is_typical(t, spec)]


def type_word_log2_prob(t: ExactType, p: Distribution) -> float:
    """log2 of the i.i.d. probability of any single word of type t."""
    if t.alphabet_size != p.alphabet_size:
        raise InvalidInputError("alphabets differ")
    total = 0.0
    for c, px in zip(t.counts, p.probs):
        if c == 0:
            continue
        if px < ZERO_TOL:
            return -math.inf
        total += c * math.log2(px)
    return total


def sample_type_word(t: ExactType, seed) -> tuple:
    """A uniformly random word with exact type t."""
    rng = _as_rng(seed)
    pool = np.repeat(np.arange(t.alphabet_size), t.counts)
    return tuple(int(s) for s in rng.permutation(pool))


def sample_conditional_type_word(t: JointType, x_word, seed) -> tuple:
    """A uniformly random y-word with joint type t against the fixed x_word.

    Positions holding the same x letter receive an independent uniform
    arrangement of the multiset prescribed by that row of t.
    """
    rng = _as_rng(seed)
    x = np.asarray(x_word, dtype=int)
    x_type = count_occurrences(x, t.x_size)
    if x_type != t.row_marginal():
        raise InvalidInputError("x_word type does not match the joint type's row marginal")
    y = np.zeros(t.n, dtype=int)
    for sym in range(t.x_size):
        positions = np.flatnonzero(x == sym)
        if positions.size == 0:
            continue
        pool = np.repeat(np.arange(t.y_size), t.counts[sym])
        y[positions] = rng.permutation(pool)
    return tuple(int(s) for s in y)
