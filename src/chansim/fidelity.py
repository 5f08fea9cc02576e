"""Fidelity criteria for block codes and derandomization of shared randomness.

A code is judged as a channel from input words to output words against the
i.i.d. target. Four error measures, all with total variation as the inner
distance and all in [0, 1]:

  global_err             average over input words of the block-level TV,
  local_err              average over words and positions of the per-letter TV,
  letterwise_source_err  per-letter TV after conditioning only on that
                         letter's source symbol,
  empirical_joint_err    TV between the position-averaged input-output pair
                         distribution and the single-letter joint law.

Each is weaker than the one before it (averaging inside the TV can only
shrink it), so reports always satisfy local <= global and letterwise <= local
up to float noise.

Derandomization replaces the shared uniform index by a short list of sampled
indices: with Q past the Chernoff threshold, a uniform choice among the
sampled indices reproduces every per-letter marginal of the averaged code
within a (1 +- eps) factor, and the choice can be sent in the message at
ceil(log2 Q) bits, so no common randomness remains.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import covering
from ._seeds import _as_rng, child_rng
from .core_prob import Channel, Distribution, tv_distance
from .errors import CAPS, InvalidInputError, RetriesExhaustedError, require_cap
from .simulate import (
    SimCode,
    Transcript,
    _channel_tv_rows,
    fixed_nu_block_channels,
    iid_block_law,
    run_protocol,
    word_letters,
)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class FidelityReport:
    global_err: float
    local_err: float
    letterwise_source_err: float
    empirical_joint_err: float

    def __post_init__(self):
        for name in ("global_err", "local_err", "letterwise_source_err",
                     "empirical_joint_err"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise InvalidInputError(f"{name} {v} outside [0, 1]")


@dataclass(frozen=True)
class DerandomizedCode:
    selected_indices: tuple
    Q: int
    base: SimCode
    epsilon: float
    u: float
    verified: bool
    retries: int

    def index_bits(self) -> int:
        return math.ceil(math.log2(self.Q)) if self.Q > 1 else 0


def min_nonzero_entry(channel: Channel) -> float:
    rows = channel.rows
    live = rows[rows > 0]
    if live.size == 0:
        raise InvalidInputError("channel has no nonzero entries")
    return float(live.min())


def required_Q(n: int, x_size: int, y_size: int, epsilon: float, u: float) -> int:
    """Smallest sample count strictly above the Chernoff threshold
    (4 ln 2 / (eps^2 u)) * (n log2|X| + log2(2|Y|))."""
    if not 0 < epsilon < 1:
        raise InvalidInputError("epsilon must lie in (0, 1)")
    if not 0 < u <= 1:
        raise InvalidInputError("u must lie in (0, 1]")
    bound = (4 * LN2 / (epsilon ** 2 * u)) * (n * math.log2(x_size)
                                              + math.log2(2 * y_size))
    return math.floor(bound) + 1


def _family_average(family, weights):
    if isinstance(family, Channel):
        family = [family]
    if not family:
        raise InvalidInputError("empty code family")
    shape = (family[0].input_size, family[0].output_size)
    for ch in family:
        if (ch.input_size, ch.output_size) != shape:
            raise InvalidInputError("code family members differ in shape")
    if weights is None:
        weights = np.full(len(family), 1.0 / len(family))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(family),):
            raise InvalidInputError("weights length does not match family")
        if (weights < 0).any() or not math.isclose(weights.sum(), 1.0, abs_tol=1e-9):
            raise InvalidInputError("weights must be a probability vector")
    rows = np.zeros((shape[0], shape[1]))
    for w, ch in zip(weights, family):
        rows += w * ch.rows
    return rows


def _infer_block_length(rows_shape, x_size: int, y_size: int) -> int:
    """The n with rows_shape == (x_size**n, y_size**n), counted in integer
    powers of the larger alphabet; n = 1 when both alphabets have one letter."""
    size, count = max((x_size, rows_shape[0]), (y_size, rows_shape[1]))
    n, power = 1, size
    while 1 < power < count:
        n, power = n + 1, power * size
    if y_size ** n != rows_shape[1] or x_size ** n != rows_shape[0]:
        raise InvalidInputError("code family shape is not a block power of the "
                                "single-letter alphabets")
    return n


def _letter_marginals(rows: np.ndarray, n: int, y_size: int) -> np.ndarray:
    """Per-position output marginals of block rows: shape (..., y_size**n)
    becomes (..., n, y_size)."""
    lead = rows.ndim - 1
    cube = rows.reshape(rows.shape[:-1] + (y_size,) * n)
    return np.stack([cube.sum(axis=tuple(lead + i for i in range(n) if i != k))
                     for k in range(n)], axis=-2)


def measure_fidelity(source: Distribution, channel: Channel, family,
                     weights=None) -> FidelityReport:
    """All four fidelity criteria for a code given as a block channel or a
    weighted family of block channels (weighted averaging happens first),
    computed exactly by enumerating the input space."""
    if source.alphabet_size != channel.input_size:
        raise InvalidInputError("source alphabet does not match channel input")
    rows = _family_average(family, weights)
    a, b = channel.input_size, channel.output_size
    n = _infer_block_length(rows.shape, a, b)
    require_cap("FIDELITY_ENUM_CAP", rows.size, "exact fidelity over {} block entries")
    x = word_letters(a, n)
    p_x = iid_block_law(source.probs, n)
    eq3 = float(p_x @ _channel_tv_rows(rows, channel, n))
    margs = _letter_marginals(rows, n, b)                  # (a^n, n, b)
    letter_tv = 0.5 * np.abs(margs - channel.rows[x]).sum(axis=2)
    eq4 = float(p_x @ letter_tv.sum(axis=1)) / n
    # letter-k output law conditioned on x_k, weighted by the source
    on_sym = (x[:, :, None] == np.arange(a)) * p_x[:, None, None]
    cond = np.einsum("rka,rkb->kab", on_sym, margs)
    pair = cond.sum(axis=0) / n     # position-averaged input-output pairs
    eq5 = 0.0
    for k in range(n):
        for sym in range(a):
            p_sym = source.probs[sym]
            if p_sym <= 0:
                continue
            eq5 += p_sym * tv_distance(cond[k, sym] / p_sym, channel.rows[sym]) / n
    joint_true = source.probs[:, None] * channel.rows
    eq6 = tv_distance(pair.ravel(), joint_true.ravel())
    return FidelityReport(eq3, eq4, eq5, eq6)


def _check_family_cap(code: SimCode, count: int):
    """count block laws of the code, held at once, must fit FIDELITY_ENUM_CAP."""
    require_cap("FIDELITY_ENUM_CAP",
                count * code.source.alphabet_size ** code.n * code.channel.output_size ** code.n,
                f"{count} block laws hold {{}} entries")


def sim_code_family(code: SimCode):
    """The code as one block channel per shared-index value, uniform weights."""
    _check_family_cap(code, code.N)
    fam = list(fixed_nu_block_channels(code, range(code.N)))
    return fam, np.full(code.N, 1.0 / code.N)


def _sampled_indices(dcode: DerandomizedCode):
    """The distinct sampled indices, ascending, and the share of the Q
    samples that drew each."""
    counts = np.bincount(dcode.selected_indices, minlength=dcode.base.N)
    nus = np.flatnonzero(counts)
    return nus, counts[nus] / dcode.Q


def derandomized_family(dcode: DerandomizedCode):
    """The fixed code as distinct-index block channels weighted by how often
    each index was sampled."""
    nus, weights = _sampled_indices(dcode)
    _check_family_cap(dcode.base, nus.size)
    return list(fixed_nu_block_channels(dcode.base, nus)), weights


def derandomize_with_family(code: SimCode, epsilon: float, seed: int):
    """derandomize(code, epsilon, seed) with derandomized_family's family and
    weights: (dcode, family, weights). When the sample was verified on the
    exact laws, the family's channels are those laws, not a second sweep."""
    dcode, laws = _derandomize(code, epsilon, seed)
    if laws is None:
        return (dcode, *derandomized_family(dcode))
    nus, weights = _sampled_indices(dcode)
    return dcode, [laws[nu] for nu in nus], weights


def derandomize(code: SimCode, epsilon: float, seed: int) -> DerandomizedCode:
    """Sample Q shared-index values so a uniform choice among them replaces
    the common randomness.

    For n <= EXACT_VERIFY_N_CAP the sample is verified exactly: every
    typical word's per-letter marginals must stay within (1 +- eps) of the
    averaged code's value on the support of the true channel row, and the
    sample is redrawn on failure, up to covering.DEFAULT_MAX_RETRIES draws;
    both limits are read at call time. Above the cap the first sample is
    declared good on the Chernoff bound that sized Q, with verified False.
    Precondition, checked when verifying: the averaged code's per-letter
    marginals reach u/2 on those support entries."""
    return _derandomize(code, epsilon, seed)[0]


def _derandomize(code: SimCode, epsilon: float, seed: int):
    """derandomize, returning (dcode, laws): laws lists the N pinned block
    channels in index order when the sample was verified on them, and is
    None otherwise."""
    if code.N == 1:
        return DerandomizedCode((0,), 1, code, epsilon, min_nonzero_entry(code.channel),
                                True, 0), None
    u = min_nonzero_entry(code.channel)
    n = code.n
    Q = required_Q(n, code.source.alphabet_size, code.channel.output_size, epsilon, u)
    if n > CAPS["EXACT_VERIFY_N_CAP"]:
        drawn = child_rng(seed, "derandomize:try:0").integers(0, code.N, size=Q)
        selected = tuple(drawn.tolist())
        return DerandomizedCode(selected, Q, code, epsilon, u, False, 0), None

    _check_family_cap(code, code.N)
    a, b = code.source.alphabet_size, code.channel.output_size
    laws = list(fixed_nu_block_channels(code, range(code.N)))
    averaged = sum(ch.rows for ch in laws) / code.N     # one index at a time, in index order
    typical = ~code.atypical_words
    base_margs = _letter_marginals(averaged[typical], n, b)
    supp = code.channel.rows[word_letters(a, n)[typical]] > 0
    if (base_margs[supp] < u / 2).any():
        raise InvalidInputError(
            "averaged per-letter marginals fall below u/2 on the "
            "channel support; shrink epsilon or delta")
    for attempt in range(covering.DEFAULT_MAX_RETRIES):
        drawn = child_rng(seed, f"derandomize:try:{attempt}").integers(0, code.N, size=Q)
        counts = np.bincount(drawn, minlength=code.N)
        mixed_rows = sum(counts[nu] / Q * laws[nu].rows for nu in np.flatnonzero(counts))
        mixed_margs = _letter_marginals(mixed_rows[typical], n, b)
        if not (np.abs(mixed_margs - base_margs) > epsilon * base_margs + 1e-12).any():
            return DerandomizedCode(tuple(drawn.tolist()), Q, code, epsilon, u, True,
                                    attempt), laws
    raise RetriesExhaustedError("derandomization failed exact verification "
                                f"{covering.DEFAULT_MAX_RETRIES} times")


def run_fixed_code(dcode: DerandomizedCode, x_word, seed) -> Transcript:
    """Run the base protocol with a sender-chosen index from the sampled list;
    the index rides in the message, so no common randomness is consumed."""
    rng = _as_rng(seed)
    nu = dcode.selected_indices[int(rng.integers(dcode.Q))]
    tr = run_protocol(dcode.base, x_word, nu, rng)
    return Transcript(tr.x_word, tr.announced_type, nu, tr.mu, tr.y_word,
                      tr.bits_sent + dcode.index_bits(), 0.0)
