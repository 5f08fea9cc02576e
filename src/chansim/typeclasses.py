"""Method of types: exact count vectors, joint types, typicality, class sizes.

An exact type of a word w in X^n is its count vector (N(0|w), ..., N(a-1|w)).
A joint type of a word pair is the count matrix over X x Y. All class sizes
are exact integers (multinomial coefficients); bounds and probabilities are
floats.

Typicality is one window rule, written once in _window: a count c of a
letter of probability P out of total positions is typical when
    |c - total P| <= delta * sqrt(total) * sigma + 1e-12,
    sigma = sqrt(P (1 - P)),
and, when sigma < ZERO_TOL, when c equals total P to within 1e-9. A type is
typical when every letter's count is (total = n); a joint type is
conditionally typical for a channel when every cell is (P = W(y|x), total =
the row count of x). typical_probability_bounds(spec).exact is the mass of
exactly the types typical_types(spec) lists.
"""

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_prob import ZERO_TOL, Channel, Distribution, _compositions
from .errors import InvalidInputError, require_cap


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


@dataclass(frozen=True)
class JointType:
    """Count matrix of a word pair; counts[x][y] = #{k : x_k = x, y_k = y}.

    The marginals and class_sizes are computed on first use and kept on the
    instance, outside ==, hash and repr."""

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
        return self._marginals[0]

    def col_marginal(self) -> ExactType:
        return self._marginals[1]

    @functools.cached_property
    def _marginals(self) -> tuple:
        return (ExactType(self.n, tuple(sum(row) for row in self.counts)),
                ExactType(self.n, tuple(map(sum, zip(*self.counts)))))

    @functools.cached_property
    def class_sizes(self) -> tuple:
        """(|T_R|, |T_S|, |T_t|): the class sizes of the row marginal R, the
        column marginal S and the joint type t itself."""
        row, col = self._marginals
        return type_class_size(row), type_class_size(col), joint_type_class_size(self)


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


def _sigma(prob) -> float:
    return math.sqrt(max(prob * (1.0 - prob), 0.0))


def _window(total: int, prob, delta: float) -> range:
    """The typical counts in [0, total] of one letter (or one cell) of
    probability prob, by the rule in the module docstring."""
    mean, sigma = total * prob, _sigma(prob)
    if sigma < ZERO_TOL:
        c = int(round(mean))
        return range(c, c + 1) if abs(c - mean) <= 1e-9 and 0 <= c <= total else range(0)
    slack = delta * math.sqrt(total) * sigma + 1e-12
    return range(max(math.ceil(mean - slack), 0), min(math.floor(mean + slack), total) + 1)


def type_is_typical(t: ExactType, spec: TypicalSpec) -> bool:
    if t.alphabet_size != spec.p.alphabet_size or t.n != spec.n:
        raise InvalidInputError("type does not match the typicality spec")
    return all(c in _window(spec.n, px, spec.delta) for c, px in zip(t.counts, spec.p.probs))


def typical_joint_classes(base: ExactType, w: Channel, delta: float):
    """Yield (counts, class_sizes) of the joint types of
    conditional_classes(base, |Y|), in that order, whose every cell lies in
    the window of its channel entry W(y|x), with base's count of x as the
    total; class_sizes is (|T_R|, |T_S|, |T_t|). Only the product of each
    row's windowed compositions is visited, and no JointType is built. The
    sizes share factors: |T_R| once, one multinomial per windowed row,
    |T_t| = |T_R| times its rows' multinomials, |T_S| once per column
    marginal. All joint types of length n are counted first, under
    WORD_ENUM_CAP."""
    if base.alphabet_size != w.input_size:
        raise InvalidInputError("input type does not match the channel")
    _require_type_count(base.n, base.alphabet_size * w.output_size, "joint")
    rows, mults = [], []
    for r, w_row in zip(base.counts, w.rows):
        wins = [_window(r, wxy, delta) for wxy in w_row]
        rows.append([(*head, last) for head in itertools.product(*wins[:-1])
                     if (last := r - sum(head)) in wins[-1]])
        mults.append([_multinomial(row) for row in rows[-1]])
    size_r, size_s = type_class_size(base), {}
    for counts, factors in zip(itertools.product(*rows), itertools.product(*mults)):
        col = tuple(map(sum, zip(*counts)))
        if col not in size_s:
            size_s[col] = _multinomial(col)
        yield counts, (size_r, size_s[col], size_r * math.prod(factors))


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
        sigma = _sigma(px)
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
    require_cap("EXACT_PROB_N_CAP", n, "exact typicality mass at n = {}")
    chebyshev = -math.inf if delta == 0 else 1.0 - a / delta**2
    chernoff = _chernoff_floor(spec)

    # Factors are renormalized and the scale carried in log space; the raw
    # coefficients underflow float64 well before the cap is reached.
    poly = np.zeros(n + 1)
    poly[0] = 1.0
    log_scale = 0.0
    for px in spec.p.probs:
        px = float(px)
        logs = {}
        for c in _window(n, px, delta):
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


def _require_type_count(n: int, cells: int, kind: str):
    """WORD_ENUM_CAP on the C(n + cells - 1, cells - 1) types of length n,
    cells being |X| for exact types and |X||Y| for joint types."""
    require_cap("WORD_ENUM_CAP", math.comb(n + cells - 1, cells - 1),
                "words of one length have {} " + kind + " types")


def enumerate_type_classes(n: int, alphabet_size: int):
    """All exact types of length-n words, lexicographic by count vector; at
    most WORD_ENUM_CAP of them."""
    _require_type_count(n, alphabet_size, "exact")
    return [ExactType(n, c) for c in _compositions(n, alphabet_size)]


def conditional_classes(base: ExactType, y_size: int) -> list:
    """(counts, size) of every joint type over X x Y whose row marginal is
    base, lexicographic on the flattened count matrix: its count rows and
    its conditional class size, the number of y words that form it against
    any one x word of type base, the exact product of its rows'
    multinomials. No JointType is built. All joint types of length n are
    counted first, under WORD_ENUM_CAP: that total bounds this list and the
    ones typical_joint_classes yields."""
    _require_type_count(base.n, base.alphabet_size * y_size, "joint")
    per_row = [list(_compositions(r, y_size)) for r in base.counts]
    mults = [[_multinomial(row) for row in rows] for rows in per_row]
    return [(counts, math.prod(factors))
            for counts, factors in zip(itertools.product(*per_row), itertools.product(*mults))]


def enumerate_joint_types(base: ExactType, y_size: int):
    """The JointType of every conditional_classes entry, in its order."""
    return [JointType(base.n, counts) for counts, _ in conditional_classes(base, y_size)]


def enumerate_type_class(t: ExactType) -> np.ndarray:
    """All words with exact type t as a read-only (|T|, n) int64 array in
    lexicographic order; at most WORD_ENUM_CAP of them. The cap is checked
    on every call, the array built once per type and cached."""
    require_cap("WORD_ENUM_CAP", type_class_size(t), "type class has {} words")
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
