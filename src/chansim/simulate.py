"""Block simulation of a noisy channel from a message plus shared randomness.

Protocol for one block x = (x_1 ... x_n), with nu a shared uniform index:
  1. the encoder samples a joint type T with the probability that the true
     channel output falls in the conditional class of T given x,
  2. if the type of x is not delta-typical for the source, or T is not
     jointly typical, the encoder announces termination and the decoder
     emits the fixed fallback word (0, ..., 0),
  3. otherwise the encoder announces T and sends the index mu of a uniformly
     chosen compatible entry of list nu mod N_T of T's covering family,
     entries numbered in the lexicographic order of the words they hold,
  4. the decoder outputs the word stored at (nu mod N_T, mu).

Each jointly typical type T has its own list count N_T, the power of two
that class_sizing sizes its covering family at, and the shared index ranges
over [0, N) with N the largest N_T. Every N_T divides N, so nu mod N_T is
uniform on T's lists. A code is its covering families and nothing else:
it is frozen, and its records, offsets and counts are derived from them.
It is a function of its build inputs alone: build_sim_code(code.source,
code.channel, code.n, code.delta, code.epsilon, code.seed) rebuilds it,
records and lists bit for bit. draw_families streams the same families
one at a time, so a caller that reads each family once keeps none.

The covering conditions squeeze the protocol's output, conditioned on any
announced type, between (1-eps)/(1+eps) and (1+eps)/(1-eps) times the true
conditional distribution, so the per-word total variation error stays below
eps/(1-eps) plus the mass of atypical joint types.

A block's message is one of sum_T M_T + 1: slot mu of jointly typical type
T is message offset_T + mu, with offset_T the M of the types announced
before T, and terminate is message sum_T M_T. Every block costs log2 of
that count; shared randomness costs log2(N).
"""

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._seeds import _as_rng, child_seed
from .core_prob import Channel, Distribution
from .covering import CoveringFamily, build_covering, class_sizing, require_table_cap
from .errors import CAPS, InvalidInputError, require_cap
from .typeclasses import (
    ExactType,
    JointType,
    TypicalSpec,
    conditional_classes,
    count_occurrences,
    enumerate_type_class,
    type_is_typical,
    typical_joint_classes,
    typical_probability_bounds,
    typical_types,
)

TERMINATE = "terminate"


@dataclass(frozen=True)
class FamilyRecord:
    """Size and verification summary of one covering family."""

    joint_type: JointType
    M: int
    N: int
    retries: int
    condition_I_min_margin: float
    condition_II_margin: float

    @classmethod
    def of(cls, fam: CoveringFamily) -> "FamilyRecord":
        """The record of a family: its sizes, retries and its check's margins."""
        check = fam.check
        return cls(fam.joint_type, fam.M, fam.N, fam.retries,
                   float(check.condition_I_margin.min()), float(check.condition_II_margin))


@dataclass(frozen=True, eq=False)
class SimCode:
    """A simulation code as its build chose it: the covering family of each
    jointly typical type, in announcement order (lexicographic), held as a
    read-only mapping. The code is frozen; the announcement order, each
    family's FamilyRecord (records, read-only), the shared index range N
    (the largest list count), each type's first message slot (offsets, the
    running sums of M in announcement order), the message count
    sum_t M_t + 1 and the typicality window are derived once. Each family
    must sit under its own joint type and have a power of two list count,
    so that it divides N; InvalidInputError otherwise."""

    n: int
    source: Distribution
    channel: Channel
    delta: float
    epsilon: float
    seed: int
    families: dict          # JointType -> CoveringFamily, in announcement order

    def __post_init__(self):
        *_, N = sized_rates([(f.M, f.N) for f in self.families.values()], self.n)
        if any(t != fam.joint_type for t, fam in self.families.items()):
            raise InvalidInputError("a code's families must sit under their own joint types")
        for count in (fam.N for fam in self.families.values()):
            if count < 1 or count & (count - 1):
                raise InvalidInputError(f"a family's list count {count} is not a power of two")
        firsts = list(itertools.accumulate((f.M for f in self.families.values()), initial=0))
        derived = {"families": MappingProxyType(dict(self.families)),
                   "records": MappingProxyType({t: FamilyRecord.of(f)
                                                for t, f in self.families.items()}),
                   "typical_joint_types": tuple(self.families),
                   "N": N, "offsets": MappingProxyType(dict(zip(self.families, firsts))),
                   "message_count": firsts[-1] + 1,
                   "spec": TypicalSpec(self.source, self.n, self.delta)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @functools.cached_property
    def typical_classes(self) -> MappingProxyType:
        """The _BaseTables of each source-typical input type, in typical_types order."""
        return MappingProxyType({base: _BaseTables.of(self, base)
                                 for base in typical_types(self.spec)})

    @functools.cached_property
    def atypical_words(self) -> np.ndarray:
        """Read-only mask over X^n of the words of no typical class (fallback word)."""
        mask = np.ones(self.source.alphabet_size ** self.n, dtype=bool)
        for bt in self.typical_classes.values():
            mask[bt.x_global] = False
        mask.flags.writeable = False
        return mask

    def fallback_word(self) -> tuple:
        return (0,) * self.n


@dataclass(frozen=True)
class Transcript:
    x_word: tuple
    announced_type: object      # JointType or TERMINATE
    nu: int
    mu: object                  # int or None when terminated
    y_word: tuple
    bits_sent: float
    randomness_used: float


def jointly_typical_types(source: Distribution, channel: Channel, n: int, delta: float):
    """The one walk of the jointly typical types: (counts, class_sizes) of
    every joint type whose row marginal is delta-typical for the source and
    whose conditional part sits in the channel's typicality window, as
    typical_joint_classes yields them per input type of typical_types, with
    no JointType built and nothing sorted. Sorting by counts gives the
    announcement order, lexicographic in the flattened count matrix (that
    of the tuple of rows, which all have |Y| entries)."""
    if source.alphabet_size != channel.input_size:
        raise InvalidInputError("source alphabet does not match channel input")
    return [row for base in typical_types(TypicalSpec(source, n, delta))
            for row in typical_joint_classes(base, channel, delta)]


def sized_types(source: Distribution, channel: Channel, n: int, delta: float,
                epsilon: float) -> list:
    """(counts, (M_t, N_t)) of every jointly typical type t, in the order of
    the walk: class_sizing of its class sizes, the sizing its family is drawn
    at, run once per distinct class-size triple. Nothing is drawn or
    allocated, so only WORD_ENUM_CAP applies, to the count of all joint
    types of length n; 2 x 2 instances reach n = 226, 2 x 3 n = 44 and
    3 x 3 n = 18 under its default."""
    sizing = functools.cache(lambda sizes: class_sizing(sizes, epsilon, n))
    return [(counts, sizing(sizes))
            for counts, sizes in jointly_typical_types(source, channel, n, delta)]


def draw_families(source: Distribution, channel: Channel, n: int, delta: float,
                  epsilon: float, seed: int):
    """Yield the verified covering family of every jointly typical type, in
    announcement order, each drawn at its sized_types sizing, a power of two
    list count N_t and the M that meets both covering inequalities there,
    from child seed simulate:covering:{index}. A JointType is built for each
    drawn type only, and every type's tables are checked against
    COVER_TABLE_CAP, in announcement order, before the first draw. The
    generator keeps no family it has yielded."""
    types = [(JointType(n, counts), M, N)
             for counts, (M, N) in sorted(sized_types(source, channel, n, delta, epsilon))]
    for t, _, N in types:
        require_table_cap(t, N)
    for idx, (t, M, N) in enumerate(types):
        yield build_covering(t, epsilon, M, N,
                             seed=child_seed(seed, f"simulate:covering:{idx}"))


def build_sim_code(source: Distribution, channel: Channel, n: int, delta: float,
                   epsilon: float, seed: int) -> SimCode:
    """The code of draw_families' families. The shared index is uniform on
    [0, N) with N the largest N_t; every N_t divides N, so type t reads
    list nu mod N_t, uniform on its N_t lists. The rates alone need no draw
    (sized_rates over sized_types)."""
    families = {fam.joint_type: fam
                for fam in draw_families(source, channel, n, delta, epsilon, seed)}
    return SimCode(n, source, channel, delta, epsilon, seed, families)


def word_letters(size: int, n: int) -> np.ndarray:
    """Every word of length n over {0, ..., size-1} as a row of letters, in
    lexicographic rank order, shape (size**n, n)."""
    return np.stack(np.unravel_index(np.arange(size ** n), (size,) * n), axis=1)


def iid_block_law(law, n: int) -> np.ndarray:
    """The n-fold i.i.d. extension of a single-letter law in lexicographic rank
    order: a distribution of shape (a,) gives its law over X^n, channel rows of
    shape (a, b) give the block channel, shape (a**n, b**n)."""
    law = np.asarray(law, dtype=float)
    out = np.ones((1,) * law.ndim)
    for _ in range(n):
        out = np.kron(out, law)
    return out


@dataclass(frozen=True, eq=False)
class _BaseTables:
    """Per input type: the ranks in X^n of the class words, ascending because
    the class is enumerated in lexicographic order, and every joint type with
    this row marginal, as the JointType of each _type_weights row, with its
    weight; both arrays read-only."""

    alphabet_size: int
    x_global: np.ndarray
    t_list: list
    weights: np.ndarray

    @classmethod
    def of(cls, code: SimCode, base: ExactType) -> "_BaseTables":
        x_words = enumerate_type_class(base)
        x_global = np.ravel_multi_index(x_words.T, (base.alphabet_size,) * base.n)
        rows, weights = _type_weights(code.channel, base)
        x_global.flags.writeable = weights.flags.writeable = False
        return cls(base.alphabet_size, x_global,
                   [JointType(base.n, counts) for counts in rows], weights)

    def position(self, x_word) -> int:
        """Class position of a word of this type: where its X^n rank sits
        in x_global."""
        rank = 0
        for v in x_word:
            rank = rank * self.alphabet_size + v
        return int(np.searchsorted(self.x_global, rank))


def _type_weights(channel: Channel, base: ExactType):
    """(rows, weights): the count rows of every joint type with the given
    row marginal, in conditional_classes order, and the probability that
    the channel output against a base-typed input falls in each conditional
    class, its size times 2 to the log-mass, the log-mass summed cell by
    cell in row-major order. No JointType is built. Weights sum to 1 up to
    float rounding."""
    classes = conditional_classes(base, channel.output_size)
    weights = np.empty(len(classes))
    log_rows = np.log2(channel.rows, where=channel.rows > 0,
                       out=np.full_like(channel.rows, -np.inf)).tolist()
    for i, (counts, size) in enumerate(classes):
        log_mass = 0.0
        for row, logs in zip(counts, log_rows):
            for c, log_w in zip(row, logs):
                if c:
                    log_mass += c * log_w
        weights[i] = 0.0 if log_mass == -math.inf else size * 2.0 ** log_mass
    total = weights.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise InvalidInputError(f"type weights sum to {total}")
    return [counts for counts, _ in classes], weights / total


def _law_blocks(code: SimCode, base: ExactType, nus=None, rows=None):
    """The protocol's exact output law on the class of a typical input type.

    Given joint type t, index nu and input x, the output is uniform over the
    compatible slots of list l = nu mod N_t: y gets counts[l, y] compat[x, y]
    / c[l, x], and the block terminates when c[l, x] = 0. So t's law lives on
    its compatible pairs (i, j), and since every (x, y) has exactly one
    joint type, no two types share a pair. Averaged over the shared index
    (nus None), each of t's k = N_t lists is read equally often, so t gives
    (w_t / k) (1/c)^T @ counts at its pairs. Pinned to an index array nus,
    t gives w_t (1/c[l, i]) counts[l, j] on a leading axis, the same bits as
    a one-list matrix product; when the indices outnumber t's lists, each
    list's values are computed once and gathered by nu mod N_t. rows picks
    class rows. Returns the [(family, pairs, values)] of covered types,
    pairs holding the row-major positions of the compatible pairs in
    (picked rows, t's output class), and the terminate mass per row, both
    with the leading index axis when pinned.
    """
    bt = code.typical_classes[base]
    sel = slice(None) if rows is None else rows
    lead = () if nus is None else (len(nus),)
    terminate = np.zeros(lead + (bt.x_global[sel].size,))
    blocks = []
    for t, w_t in zip(bt.t_list, bt.weights):
        if w_t == 0.0:
            continue
        if t not in code.families:
            terminate += w_t
            continue
        fam = code.families[t]
        pairs = np.flatnonzero(fam.compat[sel])
        if nus is None:
            c = fam.compatible_counts[:, sel]
            k = c.shape[0]
            inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
            terminate += w_t * (np.count_nonzero(c == 0, axis=0) / k)
            values = (w_t / k) * (inv_c.T @ fam.counts).reshape(-1)[pairs]
        else:
            lists = np.asarray(nus) % fam.N
            if lists.size > fam.N:      # each of t's lists once, then gathered
                lists, at = np.arange(fam.N), lists
            else:
                at = slice(None)
            c = fam.compatible_counts[lists][:, sel]
            inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
            terminate += (w_t * (c == 0))[at]
            law = w_t * (inv_c[:, :, None] * fam.counts[lists][:, None, :])
            values = law.reshape(lists.size, -1)[:, pairs][at]
        blocks.append((fam, pairs, values))
    return blocks, terminate


def word_type(code: SimCode, x_word):
    """(letters, type): x_word as a tuple of ints and its exact type, once
    its length is the code's block length and its letters lie in the
    source alphabet; InvalidInputError otherwise. Nothing is drawn."""
    x_word = tuple(int(v) for v in x_word)
    if len(x_word) != code.n:
        raise InvalidInputError(f"a word of length {len(x_word)} given to a code "
                                f"of block length {code.n}")
    return x_word, count_occurrences(x_word, code.source.alphabet_size)


def encode(code: SimCode, x_word, nu: int, seed):
    """One protocol run; returns (announced_type, mu) or TERMINATE. The
    announced type's count rows are drawn from _type_weights, atypical
    inputs included, and only the drawn type is built as a JointType. A
    rejected block draws nothing."""
    if not 0 <= nu < code.N:
        raise InvalidInputError(f"nu {nu} outside [0, {code.N})")
    x_word, base = word_type(code, x_word)
    rng = _as_rng(seed)
    rows, weights = _type_weights(code.channel, base)
    counts = rows[int(rng.choice(len(rows), p=weights))]
    if not type_is_typical(base, code.spec):
        return TERMINATE
    t = JointType(code.n, counts)
    if t not in code.families:
        return TERMINATE
    fam = code.families[t]
    lst = nu % fam.N
    # compatible slots per class rank; slots are numbered in rank order
    hits = fam.counts[lst] * fam.compat[code.typical_classes[base].position(x_word)]
    hit_cum = np.cumsum(hits)
    total = int(hit_cum[-1])
    if total == 0:
        return TERMINATE
    k = int(rng.integers(total))
    r = int(np.searchsorted(hit_cum, k, side="right"))
    mu = int(fam.cumulative[lst, r] - hit_cum[r] + k)
    return t, mu


def decode(code: SimCode, announced_type, nu: int, mu) -> tuple:
    """Pure table lookup in list nu mod N_t; TERMINATE maps to the fallback
    word."""
    if announced_type == TERMINATE:
        return code.fallback_word()
    fam = code.families.get(announced_type)
    if fam is None:
        raise InvalidInputError("announced type has no covering family")
    if not 0 <= nu < code.N:
        raise InvalidInputError(f"nu {nu} outside [0, {code.N})")
    if not 0 <= mu < fam.M:
        raise InvalidInputError(f"mu {mu} outside [0, {fam.M})")
    return fam.word(nu % fam.N, mu)


def run_protocol(code: SimCode, x_word, nu: int, seed) -> Transcript:
    """Encode, decode, and account one block; the encoder's reconstruction of
    the output word is the same table lookup the decoder performs. Every
    block sends one of code.message_count messages."""
    outcome = encode(code, x_word, nu, seed)
    t, mu = (TERMINATE, None) if outcome == TERMINATE else outcome
    y_word = decode(code, t, nu, mu)
    return Transcript(tuple(int(v) for v in x_word), t, nu, mu, y_word,
                      math.log2(code.message_count), math.log2(code.N))


def output_distribution(code: SimCode, x_word) -> Distribution:
    """Exact law of the decoder output for a fixed input word, averaged over
    the uniform shared index and all protocol sampling."""
    size = code.channel.output_size ** code.n
    require_cap("OUTPUT_ENUM_CAP", size, "output law over {} words")
    x_word, base = word_type(code, x_word)
    out = np.zeros(size)
    if not type_is_typical(base, code.spec):
        out[0] = 1.0
        return Distribution(size, out)
    blocks, terminate = _law_blocks(code, base,
                                    rows=[code.typical_classes[base].position(x_word)])
    for fam, pairs, values in blocks:
        out[fam.y_ranks[pairs]] = values      # one row: pairs are class ranks
    out[0] += terminate[0]
    return Distribution(size, out)


def _block_law(code: SimCode, nus=None) -> np.ndarray:
    """The protocol as block channel rows X^n -> Y^n, averaged over the
    shared index, or pinned to each index of the array nus on a leading
    axis; atypical inputs emit the fallback word."""
    y_words = code.channel.output_size ** code.n
    require_cap("OUTPUT_ENUM_CAP", y_words, "output law over {} words")
    require_cap("BLOCK_ENUM_CAP", code.source.alphabet_size ** code.n * y_words,
                "block channel has {} entries")
    atypical = code.atypical_words
    lead = () if nus is None else (len(nus),)
    rows = np.zeros(lead + (atypical.size, y_words))
    cells = rows.reshape(lead + (-1,))
    for base, bt in code.typical_classes.items():
        blocks, terminate = _law_blocks(code, base, nus)
        for fam, pairs, values in blocks:
            rect = bt.x_global[:, None] * y_words + fam.y_ranks
            cells[..., rect.reshape(-1)[pairs]] = values
        rows[..., bt.x_global, 0] += terminate
    rows[..., atypical, 0] = 1.0
    return rows


def _channel_tv_rows(rows: np.ndarray, channel: Channel, n: int) -> np.ndarray:
    """Total variation of every row of a block channel X^n -> Y^n against the
    i.i.d. channel row of its input word, with one block-sized temporary."""
    gap = iid_block_law(channel.rows, n)
    np.subtract(rows, gap, out=gap)
    return 0.5 * np.abs(gap, out=gap).sum(axis=1)


def strong_fidelity_report(code: SimCode) -> dict:
    """Exact per-word and average fidelity of the protocol.

    For every source-typical input word the output law is compared with the
    true block channel law; the claimed ceiling is eps/(1-eps) (the covering
    corridor) plus that word's mass on non-covered joint types. The average
    error sums over all input words, typical or not.
    """
    n = code.n
    tv = _channel_tv_rows(averaged_block_channel(code).rows, code.channel, n)
    per_word = tv[~code.atypical_words].tolist()
    lambda_bound, atypicality = fidelity_ceiling(code)
    return {
        "lambda_measured": max(per_word) if per_word else 1.0,
        "lambda_bound": lambda_bound,
        "per_word_tv": per_word,
        "global_err": float(iid_block_law(code.source.probs, n) @ tv),
        "atypicality_mass": atypicality,
    }


def fidelity_ceiling(code: SimCode):
    """(lambda_bound, atypicality_mass) of strong_fidelity_report without
    the protocol law: the largest per-word ceiling over the source-typical
    input types, and the source's mass outside them. A joint type counts
    as covered when the code has its family."""
    bound_parts = [code.epsilon / (1 - code.epsilon)
                   + sum(w for t, w in zip(bt.t_list, bt.weights) if t not in code.families)
                   for bt in code.typical_classes.values()]
    atypicality = 1.0 - typical_probability_bounds(code.spec).exact
    return (max(bound_parts) if bound_parts else 1.0), atypicality


def averaged_block_channel(code: SimCode) -> Channel:
    """The protocol as a block channel X^n -> Y^n, averaged over nu."""
    return Channel.from_rows(_block_law(code))


def fixed_nu_block_channels(code: SimCode, nus):
    """The block channel induced by pinning the shared index to each value of
    nus, yielded in the order given. The laws are computed in one sweep per
    chunk of indices, each chunk holding at most BLOCK_ENUM_CAP entries in
    its raw stack, one index when a single law fills it."""
    nus = np.asarray(nus, dtype=np.int64)
    bad = nus[(nus < 0) | (nus >= code.N)]
    if bad.size:
        raise InvalidInputError(f"nu {int(bad[0])} outside [0, {code.N})")
    step = max(1, CAPS["BLOCK_ENUM_CAP"] // (code.source.alphabet_size ** code.n
                                             * code.channel.output_size ** code.n))
    return (Channel.from_rows(raw) for start in range(0, nus.size, step)
            for raw in _block_law(code, nus[start:start + step]))


def fixed_nu_block_channel(code: SimCode, nu: int) -> Channel:
    """The block channel induced by pinning the shared index to one value."""
    return next(fixed_nu_block_channels(code, [nu]))


class MessageBlock(NamedTuple):
    """One nonzero block of a pinned message law, kept per class rank:
    probs[i, k] is the probability, given the input word of X^n rank
    x_ranks[i], of the copies[k] message slots from slots[k] on, each of
    which the decoder turns into the Y^n word of rank y_ranks[k]. Each of
    those slots has probability probs[i, k] / copies[k]. probs is
    row-major, its rows in ascending X^n rank and its columns in ascending
    slot order."""

    x_ranks: np.ndarray
    slots: np.ndarray
    copies: np.ndarray
    y_ranks: np.ndarray
    probs: np.ndarray


def encoder_message_law(code: SimCode, nu: int):
    """Exact law of the encoder's transmitted message for a pinned shared
    index, as its nonzero blocks.

    Returns (blocks, code.message_count). Message offset_t + mu is slot mu
    of joint type t (code.offsets), the types in announcement order
    (code.typical_joint_types), and terminate is the last message.
    blocks is a list: one MessageBlock per covered joint type t of positive
    weight, over the class of its row marginal and the class ranks that
    list nu mod N_t holds, then one terminate block over every input word,
    which emits the fallback word (Y^n rank 0). A message outside a word's
    blocks has probability 0 given that word, and each word's blocks sum
    to 1. Before any block is built, the |X|^n terminate entries plus
    sum_t |T_R| |T_S| must fit BLOCK_ENUM_CAP.
    """
    if not 0 <= nu < code.N:
        raise InvalidInputError(f"nu {nu} outside [0, {code.N})")
    require_cap("BLOCK_ENUM_CAP", code.source.alphabet_size ** code.n
                + sum(t.class_sizes[0] * t.class_sizes[1] for t in code.typical_joint_types),
                "message law holds {} block entries")
    terminate = code.atypical_words.astype(float)
    blocks = []
    for base, bt in code.typical_classes.items():
        law, class_terminate = _law_blocks(code, base, [nu])
        for fam, pairs, values in law:
            block = np.zeros(fam.compat.shape)
            block.reshape(-1)[pairs] = values[0]
            lst = nu % fam.N
            held = np.flatnonzero(fam.counts[lst])
            copies = fam.counts[lst, held]
            slots = code.offsets[fam.joint_type] + fam.cumulative[lst, held] - copies
            blocks.append(MessageBlock(bt.x_global, slots, copies, fam.y_ranks[held],
                                       np.take(block, held, axis=1)))
        terminate[bt.x_global] = class_terminate[0]
    last = np.array([code.message_count - 1], dtype=np.int64)
    blocks.append(MessageBlock(np.arange(terminate.size), last, np.ones(1, dtype=np.int64),
                               np.zeros(1, dtype=np.int64), terminate[:, None]))
    return blocks, code.message_count


def sized_rates(sizes, n: int):
    """(rate, cr_rate, N) of the (M_t, N_t) sizes of a code's types, each
    over n: the message, log2(sum_t M_t + 1), one index over every type's
    slots in announcement order and then terminate, and the shared
    randomness, log2 N with N the largest N_t."""
    if not sizes:
        raise InvalidInputError("no jointly typical types; widen delta")
    N = max(N_t for _, N_t in sizes)
    return math.log2(sum(M for M, _ in sizes) + 1) / n, math.log2(N) / n, N


def accounting(code: SimCode):
    """(rate, cr_rate) in bits per letter: log2(code.message_count) / n and
    log2(code.N) / n, the sized_rates of the code's families."""
    return math.log2(code.message_count) / code.n, math.log2(code.N) / code.n
