"""Finite probability primitives: distributions, channels, information measures.

Conventions used throughout the package:
  * all logarithms are base 2,
  * 0 * log 0 = 0, and any probability below ZERO_TOL = 1e-12 is treated as
    an exact zero inside entropy-like sums,
  * distributions and channel rows must sum to 1 within STOCH_TOL = 1e-9 at
    construction; deviations below the tolerance are renormalized away,
    larger ones are rejected, and so are NaN and infinite entries,
  * Distribution and Channel are frozen, hold read-only arrays and compare
    by identity (eq=False).
"""

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

ZERO_TOL = 1e-12
STOCH_TOL = 1e-9


def _clean_prob_vector(v, what: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).copy()
    if arr.ndim != 1:
        raise InvalidInputError(f"{what} must be one dimensional")
    if arr.size == 0:
        raise InvalidInputError(f"{what} must be nonempty")
    if not np.isfinite(arr).all():
        raise InvalidInputError(
            f"{what} has a non-finite entry: {arr[~np.isfinite(arr)][0]}")
    if np.any(arr < -ZERO_TOL):
        raise InvalidInputError(f"{what} has a negative entry: {arr.min()}")
    arr[arr < 0] = 0.0
    total = arr.sum()
    if abs(total - 1.0) >= STOCH_TOL:
        raise InvalidInputError(f"{what} sums to {total}, not 1")
    arr /= total
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over the alphabet {0, ..., alphabet_size - 1}."""

    alphabet_size: int
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _clean_prob_vector(self.probs, "distribution"))
        if self.alphabet_size != self.probs.size:
            raise InvalidInputError(
                f"alphabet_size {self.alphabet_size} != len(probs) {self.probs.size}")

    @classmethod
    def from_probs(cls, probs) -> "Distribution":
        probs = np.asarray(probs, dtype=float)
        return cls(probs.size, probs)

    @classmethod
    def uniform(cls, alphabet_size: int) -> "Distribution":
        return cls(alphabet_size, np.full(alphabet_size, 1.0 / alphabet_size))

    def to_json_dict(self) -> dict:
        return {"probs": [float(p) for p in self.probs]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Distribution":
        return cls.from_probs(doc["probs"])


@dataclass(frozen=True, eq=False)
class Channel:
    """A row-stochastic matrix: rows[x][y] = W(y | x)."""

    input_size: int
    output_size: int
    rows: np.ndarray

    def __post_init__(self):
        """Apply `_clean_prob_vector`'s rules to every row in one pass.

        The rows are copied in C order, so `sum(axis=1)` adds each row as
        the per-row sum of a contiguous vector would, and the cleaned rows
        equal a row-by-row loop bit for bit. A bad row (non-finite entry,
        entry below -ZERO_TOL, or sum off by STOCH_TOL or more) raises
        InvalidInputError naming the first such row.
        """
        given = np.asarray(self.rows, dtype=float)
        if given.ndim != 2:
            raise InvalidInputError("channel rows must be a matrix")
        if given.shape != (self.input_size, self.output_size):
            raise InvalidInputError(
                f"channel shape {given.shape} != ({self.input_size}, {self.output_size})")
        if given.shape[0] == 0:
            raise InvalidInputError("channel has no rows")
        rows = np.array(given, order="C")
        bad = ~np.isfinite(rows).all(axis=1) | (rows < -ZERO_TOL).any(axis=1)
        rows[rows < 0] = 0.0
        totals = rows.sum(axis=1)
        bad |= np.abs(totals - 1.0) >= STOCH_TOL
        if bad.any():
            # the per-row check raises the first bad row's message
            x = int(np.argmax(bad))
            _clean_prob_vector(given[x], f"channel row {x}")
        rows /= totals[:, None]
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "Channel":
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise InvalidInputError("channel rows must be a matrix")
        return cls(rows.shape[0], rows.shape[1], rows)

    def to_json_dict(self) -> dict:
        return {"rows": [[float(p) for p in r] for r in self.rows]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Channel":
        return cls.from_rows(doc["rows"])


def _prob_array(p) -> np.ndarray:
    probs = getattr(p, "probs", p)
    return np.asarray(probs, dtype=float).reshape(-1)


def entropy(p) -> float:
    """Shannon entropy in bits. Accepts a Distribution or a bare array of
    probabilities of any shape."""
    arr = _prob_array(p)
    mask = arr >= ZERO_TOL
    vals = arr[mask]
    # + 0.0 turns the -0.0 of a point mass into +0.0
    return float(-(vals * np.log2(vals)).sum()) + 0.0


def entropy_rows(rows: np.ndarray) -> np.ndarray:
    """entropy(r) of each row of a 2-D stack, bit for bit: entries below
    ZERO_TOL add 1 log 1 = 0 in their place, and NumPy sums fewer than 8
    terms left to right; a row with 8 or more entries at or above ZERO_TOL
    goes through entropy itself."""
    live = rows >= ZERO_TOL
    safe = np.where(live, rows, 1.0)
    h = -functools.reduce(operator.add, (safe * np.log2(safe)).T) + 0.0
    if rows.shape[1] >= 8:
        for i in np.flatnonzero(live.sum(axis=1) >= 8):
            h[i] = entropy(rows[i])
    return h


def binary_entropy(t: float) -> float:
    """h(t) = -t log2 t - (1-t) log2 (1-t)."""
    return entropy(np.array([t, 1.0 - t]))


def conditional_entropy(p: Distribution, w: Channel) -> float:
    """H(output | input) = sum_x P(x) H(W_x)."""
    if p.alphabet_size != w.input_size:
        raise InvalidInputError("source alphabet does not match channel input")
    return float(sum(p.probs[x] * entropy(w.rows[x])
                     for x in range(w.input_size) if p.probs[x] >= ZERO_TOL))


def output_marginal(p: Distribution, w: Channel) -> Distribution:
    """The output distribution PW of source p pushed through channel w."""
    if p.alphabet_size != w.input_size:
        raise InvalidInputError("source alphabet does not match channel input")
    return Distribution(w.output_size, p.probs @ w.rows)


def mutual_information(p: Distribution, w: Channel) -> float:
    """I(input; output) = H(PW) - H(output | input)."""
    return entropy(output_marginal(p, w)) - conditional_entropy(p, w)


def tv_distance(p, q) -> float:
    """Total variation distance (1/2) sum |p - q|."""
    a, b = _prob_array(p), _prob_array(q)
    if a.shape != b.shape:
        raise InvalidInputError("tv_distance requires equal-length vectors")
    return float(0.5 * np.abs(a - b).sum())


def rate_lower_bound_defect(lam: float, x_size: int, y_size: int) -> float:
    """The additive defect f(lam) = lam (log2|X| + 2 log2|Y|) + 2 h(lam)
    appearing in the converse rate bound for simulations with error lam.

    Only valid for 0 <= lam <= 1/2.
    """
    if not 0.0 <= lam <= 0.5 + ZERO_TOL:
        raise InvalidInputError(f"defect formula needs 0 <= lam <= 1/2, got {lam}")
    return float(lam * (np.log2(x_size) + 2 * np.log2(y_size)) + 2 * binary_entropy(lam))


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _sum_in_order(terms) -> np.ndarray:
    """The sum of a list of equal-shape arrays, bit for bit as
    np.stack(terms, axis=-1).sum(axis=-1): NumPy adds fewer than 8 terms
    left to right, so those are added elementwise in list order; 8 or more
    go through np.sum itself."""
    if len(terms) < 8:
        return functools.reduce(operator.add, terms)
    return np.stack(terms, axis=-1).sum(axis=-1)


def simplex_grid(size: int, resolution: int) -> np.ndarray:
    """Every distribution on {0, ..., size-1} whose entries are multiples of
    1/resolution, one per row: the types of length-resolution words, in
    lexicographic order of their counts."""
    return np.array(list(_compositions(resolution, size)), dtype=float) / resolution
