"""Block simulation of a noisy channel from a message plus shared randomness.

Protocol for one block x = (x_1 ... x_n), with nu a shared uniform index:
  1. the encoder samples a joint type T with the probability that the true
     channel output falls in the conditional class of T given x,
  2. if the type of x is not delta-typical for the source, or T is not
     jointly typical, the encoder announces termination and the decoder
     emits the fixed fallback word (0, ..., 0),
  3. otherwise the encoder announces T and sends the index mu of a uniformly
     chosen compatible entry of list nu of T's covering family, entries
     numbered in the lexicographic order of the words they hold,
  4. the decoder outputs the word stored at (nu, mu).

The covering conditions squeeze the protocol's output, conditioned on any
announced type, between (1-eps)/(1+eps) and (1+eps)/(1-eps) times the true
conditional distribution, so the per-word total variation error stays below
eps/(1-eps) plus the mass of atypical joint types.

Message cost is log2(M) plus the type announcement, counted as exactly
ceil(log2(#jointly typical types)) bits; shared randomness cost is log2(N).
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._seeds import _as_rng, child_seed
from .core_prob import Channel, Distribution
from .covering import CoveringFamily, build_covering, required_M_N
from .errors import CapExceededError, InvalidInputError
from .typeclasses import (
    ExactType,
    JointType,
    TypicalSpec,
    conditional_type_class_size,
    count_occurrences,
    enumerate_joint_types,
    enumerate_type_class,
    is_conditionally_typical,
    type_class_size,
    type_is_typical,
    typical_probability_bounds,
    typical_types,
)

TERMINATE = "terminate"
OUTPUT_ENUM_CAP = 1 << 20
BLOCK_ENUM_CAP = 1 << 22


@dataclass
class FamilyRecord:
    """Size and verification summary of one covering family."""

    joint_type: JointType
    M: int
    N: int
    retries: int
    condition_I_min_margin: float
    condition_II_margin: float

    def to_json_dict(self) -> dict:
        return {
            "joint_type": self.joint_type.to_json_dict(),
            "M": self.M, "N": self.N, "retries": self.retries,
            "condition_I_min_margin": self.condition_I_min_margin,
            "condition_II_margin": self.condition_II_margin,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "FamilyRecord":
        return cls(JointType.from_json_dict(doc["joint_type"]), int(doc["M"]),
                   int(doc["N"]), int(doc["retries"]),
                   float(doc["condition_I_min_margin"]), float(doc["condition_II_margin"]))


@dataclass
class SimCode:
    n: int
    source: Distribution
    channel: Channel
    delta: float
    epsilon: float
    families: dict          # JointType -> CoveringFamily ({} when rates_only)
    records: dict           # JointType -> FamilyRecord (always populated)
    typical_joint_types: tuple  # canonical (lexicographic) announcement order
    N: int
    announce_bits: int
    seed: int
    rates_only: bool = False
    _tables: dict = field(default_factory=dict, repr=False)

    def fallback_word(self) -> tuple:
        return (0,) * self.n

    def family_M(self, t: JointType) -> int:
        return self.records[t].M

    def max_log2_M(self) -> float:
        return max(math.log2(r.M) for r in self.records.values()) if self.records else 0.0


@dataclass
class Transcript:
    x_word: tuple
    announced_type: object      # JointType or TERMINATE
    nu: int
    mu: object                  # int or None when terminated
    y_word: tuple
    bits_sent: float
    randomness_used: float


def jointly_typical_types(source: Distribution, channel: Channel, n: int, delta: float):
    """Joint types whose row marginal is delta-typical for the source and
    whose conditional part sits in the channel's typicality window, in
    lexicographic order of the flattened count matrix."""
    spec = TypicalSpec(source, n, delta)
    found = []
    for base in typical_types(spec):
        for t in enumerate_joint_types(n, channel.input_size, channel.output_size,
                                       base_type=base):
            if is_conditionally_typical(t, channel, delta):
                found.append(t)
    found.sort(key=lambda t: tuple(c for row in t.counts for c in row))
    return found


def build_sim_code(source: Distribution, channel: Channel, n: int, delta: float,
                   epsilon: float, seed: int, keep_words: bool = True) -> SimCode:
    """Construct verified covering families for every jointly typical type.

    The shared-randomness index must be uniform over one common range, so N
    is first sized per type, then fixed globally to the maximum, and every
    family's M is re-derived at that N. With keep_words=False the families
    are verified and then dropped, keeping only size/margin records (rates
    and bound accounting remain available; encoding does not).
    """
    if source.alphabet_size != channel.input_size:
        raise InvalidInputError("source alphabet does not match channel input")
    jt_list = jointly_typical_types(source, channel, n, delta)
    if not jt_list:
        raise InvalidInputError("no jointly typical types; widen delta")
    n_global = max(required_M_N(t, epsilon)[1] for t in jt_list)
    families, records = {}, {}
    for idx, t in enumerate(jt_list):
        fam = build_covering(t, epsilon, forced_N=n_global,
                             seed=child_seed(seed, f"simulate:covering:{idx}"))
        check = fam.check
        records[t] = FamilyRecord(t, fam.M, fam.N, fam.retries,
                                  float(check.condition_I_margin.min()),
                                  float(check.condition_II_margin))
        if keep_words:
            families[t] = fam
    announce_bits = math.ceil(math.log2(max(len(jt_list), 1)))
    return SimCode(n=n, source=source, channel=channel, delta=delta, epsilon=epsilon,
                   families=families, records=records,
                   typical_joint_types=tuple(jt_list), N=n_global,
                   announce_bits=announce_bits, seed=seed, rates_only=not keep_words)


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


def _require_words(code: SimCode):
    if code.rates_only:
        raise InvalidInputError("code was built rates-only; rebuild with keep_words=True")


class _BaseTables:
    """Per input type: the class position of each class word, their ranks in
    X^n, and every joint type with this row marginal with its weight."""

    def __init__(self, code: SimCode, base: ExactType):
        x_words = enumerate_type_class(base)
        self.x_index = {tuple(int(v) for v in w): i for i, w in enumerate(x_words)}
        self.x_global = np.ravel_multi_index(x_words.T, (base.alphabet_size,) * base.n)
        self.t_list, self.weights = _type_weights(code, base)


def _base_tables_for(code: SimCode, base: ExactType) -> _BaseTables:
    if base not in code._tables:
        code._tables[base] = _BaseTables(code, base)
    return code._tables[base]


def _type_weights(code: SimCode, base: ExactType):
    """All joint types with the given row marginal, with the probability that
    the channel output against a base-typed input falls in each conditional
    class. Weights sum to 1 up to float rounding."""
    x_word = tuple(np.repeat(np.arange(base.alphabet_size), base.counts))
    t_list = enumerate_joint_types(code.n, code.channel.input_size,
                                   code.channel.output_size, base_type=base)
    weights = np.empty(len(t_list))
    log_rows = np.log2(code.channel.rows, where=code.channel.rows > 0,
                       out=np.full_like(code.channel.rows, -np.inf))
    for i, t in enumerate(t_list):
        log_mass = 0.0
        for x, row in enumerate(t.counts):
            for y, c in enumerate(row):
                if c == 0:
                    continue
                log_mass += c * log_rows[x, y]
        if log_mass == -np.inf:
            weights[i] = 0.0
        else:
            weights[i] = conditional_type_class_size(t, x_word) * 2.0 ** log_mass
    total = weights.sum()
    if not math.isclose(total, 1.0, abs_tol=1e-9):
        raise InvalidInputError(f"type weights sum to {total}")
    return t_list, weights / total


def _law_blocks(code: SimCode, base: ExactType, nus=None, rows=None):
    """The protocol's exact output law on the class of a typical input type.

    Given joint type t, index nu and input x, the output is uniform over the
    compatible slots of list nu: y gets counts[nu, y] compat[x, y] / c[nu, x],
    and the block terminates when c[nu, x] = 0. Averaged over the k = N
    lists (nus None), t adds (w_t / k) (1/c)^T @ counts * compat over (class
    rows, t's output class). Pinned to an index array nus, one sweep over the
    joint types computes every listed index's law on a leading axis: t adds
    w_t (counts[nu, y] / c[nu, x]) compat[x, y], the same bits as a one-list
    matrix product. rows picks class rows. Returns the [(family, block)] of
    covered types and the terminate mass per row, both with the leading
    index axis when pinned.
    """
    _require_words(code)
    bt = _base_tables_for(code, base)
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
        if nus is None:
            c = fam.compatible_counts()[:, sel]
            k = c.shape[0]
            inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
            terminate += w_t * (np.count_nonzero(c == 0, axis=0) / k)
            block = (w_t / k) * (inv_c.T @ fam.counts) * fam.compat()[sel]
        else:
            c = fam.compatible_counts()[nus][:, sel]
            inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
            terminate += w_t * (c == 0)
            block = w_t * (inv_c[:, :, None] * fam.counts[nus][:, None, :]) \
                * fam.compat()[sel]
        blocks.append((fam, block))
    return blocks, terminate


def encode(code: SimCode, x_word, nu: int, seed):
    """One protocol run; returns (announced_type, mu) or TERMINATE."""
    _require_words(code)
    if not 0 <= nu < code.N:
        raise InvalidInputError(f"nu {nu} outside [0, {code.N})")
    x_word = tuple(int(v) for v in x_word)
    rng = _as_rng(seed)
    base = count_occurrences(x_word, code.source.alphabet_size)
    t_list, weights = _type_weights(code, base)
    t = t_list[int(rng.choice(len(t_list), p=weights))]
    spec = TypicalSpec(code.source, code.n, code.delta)
    if not type_is_typical(base, spec) or t not in code.families:
        return TERMINATE
    fam = code.families[t]
    # compatible slots per class rank; slots are numbered in rank order
    hits = fam.counts[nu] * fam.compat()[_base_tables_for(code, base).x_index[x_word]]
    hit_cum = np.cumsum(hits)
    total = int(hit_cum[-1])
    if total == 0:
        return TERMINATE
    k = int(rng.integers(total))
    r = int(np.searchsorted(hit_cum, k, side="right"))
    mu = int(fam.cumulative()[nu, r] - hit_cum[r] + k)
    return t, mu


def decode(code: SimCode, announced_type, nu: int, mu) -> tuple:
    """Pure table lookup; TERMINATE maps to the fallback word."""
    if announced_type == TERMINATE:
        return code.fallback_word()
    _require_words(code)
    fam = code.families.get(announced_type)
    if fam is None:
        raise InvalidInputError("announced type has no covering family")
    if not 0 <= nu < fam.N:
        raise InvalidInputError(f"nu {nu} outside [0, {fam.N})")
    if not 0 <= mu < fam.M:
        raise InvalidInputError(f"mu {mu} outside [0, {fam.M})")
    return fam.word(nu, mu)


def run_protocol(code: SimCode, x_word, nu: int, seed) -> Transcript:
    """Encode, decode, and account one block; the encoder's reconstruction of
    the output word is the same table lookup the decoder performs."""
    outcome = encode(code, x_word, nu, seed)
    if outcome == TERMINATE:
        return Transcript(tuple(int(v) for v in x_word), TERMINATE, nu, None,
                          code.fallback_word(), float(code.announce_bits),
                          math.log2(code.N))
    t, mu = outcome
    y_word = decode(code, t, nu, mu)
    bits = math.log2(code.family_M(t)) + code.announce_bits
    return Transcript(tuple(int(v) for v in x_word), t, nu, mu, y_word, bits,
                      math.log2(code.N))


def _check_output_cap(code: SimCode):
    if code.channel.output_size ** code.n > OUTPUT_ENUM_CAP:
        raise CapExceededError("output word space exceeds the enumeration cap")


def _check_block_cap(x_size: int, y_size: int, n: int):
    """A table over X^n x Y^n must fit BLOCK_ENUM_CAP, read at call time."""
    if x_size ** n * y_size ** n > BLOCK_ENUM_CAP:
        raise CapExceededError("block channel exceeds the enumeration cap")


def _typical_classes(code: SimCode):
    """Base tables of every source-typical input type, and a mask over X^n of
    the words outside them, which emit the fallback word."""
    spec = TypicalSpec(code.source, code.n, code.delta)
    classes = {base: _base_tables_for(code, base) for base in typical_types(spec)}
    atypical = np.ones(code.source.alphabet_size ** code.n, dtype=bool)
    for bt in classes.values():
        atypical[bt.x_global] = False
    return classes, atypical


def output_distribution(code: SimCode, x_word) -> Distribution:
    """Exact law of the decoder output for a fixed input word, averaged over
    the uniform shared index and all protocol sampling."""
    _require_words(code)
    _check_output_cap(code)
    x_word = tuple(int(v) for v in x_word)
    size = code.channel.output_size ** code.n
    out = np.zeros(size)
    base = count_occurrences(x_word, code.source.alphabet_size)
    if not type_is_typical(base, TypicalSpec(code.source, code.n, code.delta)):
        out[0] = 1.0
        return Distribution(size, out)
    xi = _base_tables_for(code, base).x_index[x_word]
    blocks, terminate = _law_blocks(code, base, rows=[xi])
    for fam, block in blocks:
        out[fam.y_ranks()] += block[0]
    out[0] += terminate[0]
    return Distribution(size, out)


def _block_law(code: SimCode, nus=None) -> np.ndarray:
    """The protocol as block channel rows X^n -> Y^n, averaged over the
    shared index, or pinned to each index of the array nus on a leading
    axis; atypical inputs emit the fallback word."""
    _check_output_cap(code)
    _check_block_cap(code.source.alphabet_size, code.channel.output_size, code.n)
    classes, atypical = _typical_classes(code)
    lead = () if nus is None else (len(nus),)
    rows = np.zeros(lead + (atypical.size, code.channel.output_size ** code.n))
    for base, bt in classes.items():
        blocks, terminate = _law_blocks(code, base, nus)
        for fam, block in blocks:
            rows[..., bt.x_global[:, None], fam.y_ranks()[None, :]] += block
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
    classes, atypical = _typical_classes(code)
    bound_parts = [code.epsilon / (1 - code.epsilon)
                   + sum(w for t, w in zip(bt.t_list, bt.weights) if t not in code.families)
                   for bt in classes.values()]
    per_word = tv[~atypical].tolist()
    atypicality = 1.0 - typical_probability_bounds(
        TypicalSpec(code.source, n, code.delta)).exact
    return {
        "lambda_measured": max(per_word) if per_word else 1.0,
        "lambda_bound": max(bound_parts) if bound_parts else 1.0,
        "per_word_tv": per_word,
        "global_err": float(iid_block_law(code.source.probs, n) @ tv),
        "atypicality_mass": atypicality,
    }


def averaged_block_channel(code: SimCode) -> Channel:
    """The protocol as a block channel X^n -> Y^n, averaged over nu."""
    return Channel.from_rows(_block_law(code))


def fixed_nu_block_channels(code: SimCode, nus):
    """The block channel induced by pinning the shared index to each value of
    nus, yielded in the order given. The laws are computed in one sweep per
    chunk of indices, each chunk holding at most BLOCK_ENUM_CAP entries (read
    at call time) in its raw stack, one index when a single law fills it."""
    nus = np.asarray(nus, dtype=np.int64)
    bad = nus[(nus < 0) | (nus >= code.N)]
    if bad.size:
        raise InvalidInputError(f"nu {int(bad[0])} outside [0, {code.N})")
    step = max(1, BLOCK_ENUM_CAP // (code.source.alphabet_size ** code.n
                                     * code.channel.output_size ** code.n))
    return (Channel.from_rows(raw) for start in range(0, nus.size, step)
            for raw in _block_law(code, nus[start:start + step]))


def fixed_nu_block_channel(code: SimCode, nu: int) -> Channel:
    """The block channel induced by pinning the shared index to one value."""
    return next(fixed_nu_block_channels(code, [nu]))


class MessageBlock(NamedTuple):
    """One nonzero block of a pinned message law: probs[i, k] is the
    probability of message slots[k], which the decoder turns into the Y^n
    word of rank y_ranks[k], given the input word of X^n rank x_ranks[i].
    probs is row-major, its rows in ascending X^n rank and its slots
    ascending along each row. Blocks come from encoder_message_law's
    one-pass iterator, one input type's blocks at a time."""

    x_ranks: np.ndarray
    slots: np.ndarray
    y_ranks: np.ndarray
    probs: np.ndarray


def encoder_message_law(code: SimCode, nu: int):
    """Exact law of the encoder's transmitted message for a pinned shared
    index, streamed as its nonzero blocks.

    Returns (blocks, count). The count messages are the M slots
    (announced_type, mu), mu ascending, of each joint type in announcement
    order (code.typical_joint_types), then the terminate sentinel last.
    blocks is a one-pass iterator: one MessageBlock per covered joint type
    of positive weight, over the class of its row marginal, built one
    source-typical input type at a time, then one terminate block over
    every input word, which emits the fallback word (Y^n rank 0). A message
    outside a word's blocks has probability 0 given that word, and each
    word's blocks sum to 1. Every check runs at the call: the blocks of one
    input type R plus the terminate block hold at most
    sum_{t: row marginal R} |T_R| M_t + |X|^n entries at once, and the
    largest such sum must fit BLOCK_ENUM_CAP. Call again for a second sweep.
    """
    _require_words(code)
    if not 0 <= nu < code.N:
        raise InvalidInputError(f"nu {nu} outside [0, {code.N})")
    sizes = [code.records[t].M for t in code.typical_joint_types]
    held = {}
    for t, m in zip(code.typical_joint_types, sizes):
        base = t.row_marginal()
        held[base] = held.get(base, 0) + type_class_size(base) * m
    entries = code.source.alphabet_size ** code.n + max(held.values(), default=0)
    if entries > BLOCK_ENUM_CAP:
        raise CapExceededError(f"message law holds {entries} block entries of one "
                               f"input type, cap is {BLOCK_ENUM_CAP}")
    offsets = dict(zip(code.typical_joint_types, np.cumsum([0] + sizes).tolist()))
    count = sum(sizes) + 1
    return _message_blocks(code, nu, offsets, count), count


def _message_blocks(code: SimCode, nu: int, offsets: dict, count: int):
    classes, atypical = _typical_classes(code)
    terminate = atypical.astype(float)
    for base, bt in classes.items():
        law, class_terminate = _law_blocks(code, base, [nu])
        for fam, block in law:
            # a slot holding class rank r has probability block[x, r] / counts[nu, r]
            sel = fam.list_ranks(nu)
            yield MessageBlock(bt.x_global, offsets[fam.joint_type] + np.arange(sel.size),
                               fam.y_ranks()[sel],
                               np.take(block[0], sel, axis=1) / fam.counts[nu, sel])
        terminate[bt.x_global] = class_terminate[0]
    yield MessageBlock(np.arange(terminate.size), np.array([count - 1]),
                       np.zeros(1, dtype=np.int64), terminate[:, None])


def accounting(code: SimCode):
    """(rate, cr_rate) in bits per letter: message (largest log2 M plus the
    announcement) and shared randomness (log2 N), each over n."""
    rate = (code.max_log2_M() + code.announce_bits) / code.n
    return rate, math.log2(code.N) / code.n


def save_code(code: SimCode, directory: str):
    """Persist manifest plus one covering file per joint type."""
    os.makedirs(directory, exist_ok=True)
    rate, cr_rate = accounting(code)
    manifest = {
        "n": code.n, "delta": code.delta, "epsilon": code.epsilon,
        "seed": code.seed, "N": code.N, "announce_bits": code.announce_bits,
        "rates_only": code.rates_only,
        "rate": rate, "cr_rate": cr_rate,
        "source": code.source.to_json_dict(),
        "channel": code.channel.to_json_dict(),
        "records": [code.records[t].to_json_dict() for t in code.typical_joint_types],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)
    if not code.rates_only:
        fam_dir = os.path.join(directory, "families")
        os.makedirs(fam_dir, exist_ok=True)
        for idx, t in enumerate(code.typical_joint_types):
            with open(os.path.join(fam_dir, f"type_{idx:04d}.json"), "w") as fh:
                json.dump(code.families[t].to_json_dict(), fh)


def load_code(directory: str) -> SimCode:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    source = Distribution.from_json_dict(manifest["source"])
    channel = Channel.from_json_dict(manifest["channel"])
    records = {}
    order = []
    for doc in manifest["records"]:
        rec = FamilyRecord.from_json_dict(doc)
        records[rec.joint_type] = rec
        order.append(rec.joint_type)
    families = {}
    if not manifest["rates_only"]:
        fam_dir = os.path.join(directory, "families")
        for idx, t in enumerate(order):
            with open(os.path.join(fam_dir, f"type_{idx:04d}.json")) as fh:
                families[t] = CoveringFamily.from_json_dict(json.load(fh))
    return SimCode(n=manifest["n"], source=source, channel=channel,
                   delta=manifest["delta"], epsilon=manifest["epsilon"],
                   families=families, records=records,
                   typical_joint_types=tuple(order), N=manifest["N"],
                   announce_bits=manifest["announce_bits"], seed=manifest["seed"],
                   rates_only=manifest["rates_only"])
