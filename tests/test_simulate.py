"""Protocol-level tests for the block channel simulation code."""

import dataclasses
import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from chansim.core_prob import (Channel, Distribution, entropy, mutual_information,
                               output_marginal, tv_distance)
from chansim import applications, simulate, typeclasses
from chansim.cli import main
from chansim.covering import CoveringFamily
from chansim.errors import CAPS, CapExceededError, InvalidInputError
from chansim.fidelity import derandomize, measure_fidelity, run_fixed_code, sim_code_family
from chansim.simulate import (
    TERMINATE,
    FamilyRecord,
    SimCode,
    accounting,
    averaged_block_channel,
    build_sim_code,
    decode,
    encode,
    encoder_message_law,
    fidelity_ceiling,
    fixed_nu_block_channel,
    fixed_nu_block_channels,
    iid_block_law,
    jointly_typical_types,
    output_distribution,
    run_protocol,
    sized_rates,
    sized_types,
    strong_fidelity_report,
    word_letters,
)
from chansim.typeclasses import (
    JointType,
    TypicalSpec,
    count_joint_occurrences,
    count_occurrences,
    enumerate_type_class,
)

from test_covering import announced_types, list_ranks, type_sizing
from test_typeclasses import is_typical

BSC = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
UNIF = Distribution.uniform(2)


def channel_block_row(channel, x_word):
    """The i.i.d. channel law over Y^n for one input word, lexicographic."""
    row = np.ones(1)
    for x in x_word:
        row = np.kron(row, channel.rows[int(x)])
    return row


def unrounded_sizing(t, epsilon, N=None):
    """(M, N) as sized before list counts were rounded to powers of two: the
    count where the two covering inequalities meet by alternation from
    N = 1, or the given N, with the smallest M that meets both there. The
    two thresholds are written out from the covering module's docstring,
    with the class sizes taken from scratch."""
    size_r, size_s = (typeclasses.type_class_size(m) for m in (t.row_marginal(), t.col_marginal()))
    size_t = typeclasses.joint_type_class_size(t)
    scale = 2.0 * math.log(2.0) / epsilon**2

    def min_m(n_lists):
        rhs_i = scale * (size_r * size_s / size_t) * math.log2(4.0 * n_lists * size_r)
        return math.floor(rhs_i) + 1

    rhs_ii = scale * size_s * math.log2(4.0 * size_s)
    if N is None:
        N = 1
        while N * min_m(N) <= rhs_ii:
            N = math.floor(rhs_ii / min_m(N)) + 1
    return max(min_m(N), math.floor(rhs_ii / N) + 1), N


@pytest.fixture(scope="module")
def small_code():
    return build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7)


def test_jointly_typical_types_sorted_and_consistent(small_code):
    """The walk, sorted by its count rows, is the code's announcement order:
    lexicographic in the flattened count matrix."""
    jt = [JointType(4, counts) for counts, _ in sorted(jointly_typical_types(UNIF, BSC, 4, 2.0))]
    keys = [tuple(c for row in t.counts for c in row) for t in jt]
    assert keys == sorted(keys)
    assert tuple(jt) == small_code.typical_joint_types


def test_message_count_is_every_types_slots_then_terminate(small_code):
    """offset_t is the M of the types announced before t, and the count
    holds every type's M slots plus terminate."""
    ms = [small_code.records[t].M for t in small_code.typical_joint_types]
    assert list(small_code.offsets.values()) == np.cumsum([0] + ms[:-1]).tolist()
    assert tuple(small_code.offsets) == small_code.typical_joint_types
    assert small_code.message_count == sum(ms) + 1


def test_every_family_verified(small_code):
    for t, rec in small_code.records.items():
        # the type's own list count, rounded up to a power of two, and M
        # re-derived there
        own_N = unrounded_sizing(t, small_code.epsilon)[1]
        assert rec.N & (rec.N - 1) == 0 and own_N <= rec.N < 2 * own_N
        assert (rec.M, rec.N) == type_sizing(t, small_code.epsilon) \
            == unrounded_sizing(t, small_code.epsilon, rec.N)
        assert rec.condition_I_min_margin >= 0.0
        assert rec.condition_II_margin >= 0.0


def test_encoder_decoder_agree_on_transcripts(small_code):
    rng = np.random.default_rng(3)
    for trial in range(1000):
        x = tuple(int(v) for v in rng.integers(0, 2, size=4))
        nu = int(rng.integers(small_code.N))
        tr = run_protocol(small_code, x, nu, seed=int(rng.integers(2**32)))
        assert tr.x_word == x and tr.nu == nu
        if tr.announced_type == TERMINATE:
            assert tr.mu is None
            assert tr.y_word == (0, 0, 0, 0)
        else:
            assert decode(small_code, tr.announced_type, nu, tr.mu) == tr.y_word
            joint = count_joint_occurrences(x, tr.y_word, 2, 2)
            assert joint == tr.announced_type
        assert tr.bits_sent == math.log2(small_code.message_count)
        assert tr.randomness_used == math.log2(small_code.N)


def test_mu_uniform_over_compatible_slots(small_code):
    x = (0, 1, 0, 1)
    nu = 2
    rng = np.random.default_rng(11)
    seen = {}
    # enough draws that a slot expects about a dozen, where the 4.5 sigma
    # band below holds for the largest of several hundred slot counts
    for _ in range(24000):
        outcome = encode(small_code, x, nu, rng)
        if outcome == TERMINATE:
            continue
        seen.setdefault(outcome[0], []).append(outcome[1])
    t, mus = max(seen.items(), key=lambda kv: len(kv[1]))
    fam = small_code.families[t]
    y_words = fam.y_class_words
    compat_t = {tuple(map(int, w)) for w in y_words
                if count_joint_occurrences(x, tuple(map(int, w)), 2, 2) == t}
    ranks = list_ranks(fam, nu % fam.N)
    slots = [mu for mu in range(fam.M)
             if tuple(map(int, y_words[ranks[mu]])) in compat_t]
    counts = {mu: 0 for mu in slots}
    for mu in mus:
        assert mu in counts
        counts[mu] += 1
    total = len(mus)
    expect = total / len(slots)
    sigma = math.sqrt(total * (1 / len(slots)) * (1 - 1 / len(slots)))
    assert max(abs(c - expect) for c in counts.values()) <= 4.5 * max(sigma, 1.0)


def test_decode_validations(small_code):
    t = small_code.typical_joint_types[0]
    fam = small_code.families[t]
    assert decode(small_code, TERMINATE, 0, None) == (0, 0, 0, 0)
    for nu in (-1, small_code.N):
        with pytest.raises(InvalidInputError):
            decode(small_code, t, nu, 0)
    with pytest.raises(InvalidInputError):
        decode(small_code, t, 0, fam.M)
    with pytest.raises(InvalidInputError):
        decode(small_code, JointType(4, ((0, 4), (0, 0))), 0, 0)


def test_encode_rejects_bad_nu(small_code):
    with pytest.raises(InvalidInputError):
        encode(small_code, (0, 0, 1, 1), small_code.N, seed=0)


@pytest.mark.parametrize("code_name", ["small_code", "skewed_code"])
def test_class_position_is_the_rank_order(code_name, request):
    # encode and output_distribution find a word's class position by
    # searchsorted on the ranks, which the lexicographic class keeps ascending
    code = request.getfixturevalue(code_name)
    for base in {t.row_marginal() for t in code.typical_joint_types}:
        bt = code.typical_classes[base]
        assert np.all(np.diff(bt.x_global) > 0)
        for i, word in enumerate(enumerate_type_class(base)):
            assert bt.position(tuple(int(v) for v in word)) == i


def test_protocol_deterministic_under_seed(small_code):
    a = run_protocol(small_code, (1, 0, 0, 1), 5, seed=123)
    b = run_protocol(small_code, (1, 0, 0, 1), 5, seed=123)
    assert a == b


def test_output_distribution_sums_to_one_and_moves_mass_right(small_code):
    for x in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 1, 1, 1)]:
        out = output_distribution(small_code, x)
        assert math.isclose(out.probs.sum(), 1.0, abs_tol=1e-12)
        true_row = channel_block_row(BSC, x)
        assert tv_distance(true_row, out.probs) <= 0.2


def test_output_distribution_matches_sampled_transcripts(small_code):
    x = (0, 1, 1, 0)
    exact = output_distribution(small_code, x).probs
    rng = np.random.default_rng(29)
    hist = np.zeros(16)
    trials = 4000
    for _ in range(trials):
        nu = int(rng.integers(small_code.N))
        tr = run_protocol(small_code, x, nu, rng)
        rank = int(np.ravel_multi_index(tr.y_word, (2, 2, 2, 2)))
        hist[rank] += 1
    emp = hist / trials
    # mean TV bound plus concentration margin for the sampling check
    mean_bound = 0.5 * np.sqrt(exact * (1 - exact) / trials).sum()
    assert tv_distance(emp, exact) <= mean_bound + 3 / (2 * math.sqrt(trials))


@pytest.fixture(scope="module")
def skewed_code():
    source = Distribution.from_probs([0.6, 0.4])
    channel = Channel.from_rows([[0.9, 0.1], [0.3, 0.7]])
    return build_sim_code(source, channel, n=5, delta=2.0, epsilon=0.1, seed=11)


@pytest.fixture(scope="module")
def lopsided_code(small_code):
    """small_code with one family whose lists all hold only the first word
    of its class, so most inputs find no compatible slot and terminate."""
    t = small_code.typical_joint_types[len(small_code.typical_joint_types) // 2]
    fam = small_code.families[t]
    counts = np.zeros_like(fam.counts)
    counts[:, 0] = fam.M
    lopsided = CoveringFamily(t, fam.N, fam.M, counts=counts, epsilon=fam.epsilon)
    return dataclasses.replace(small_code, families={**small_code.families, t: lopsided})


CODES = ["small_code", "skewed_code", "lopsided_code"]


def reference_pinned_law(code, x, nu):
    """The output law for input x and shared index nu, from the protocol's
    definition: the channel output's joint type t with x is announced (or
    the block terminates), then a slot of list nu mod N_t whose word forms t
    with x is drawn uniformly."""
    a, b, n = code.source.alphabet_size, code.channel.output_size, code.n
    out = np.zeros(b ** n)
    if not is_typical(x, TypicalSpec(code.source, n, code.delta)):
        out[0] = 1.0
        return out
    weight = {}
    for y in np.ndindex(*(b,) * n):
        t = count_joint_occurrences(x, y, a, b)
        weight[t] = weight.get(t, 0.0) + np.prod(code.channel.rows[list(x), list(y)])
    for t, w in weight.items():
        fam = code.families.get(t)
        slots = np.zeros(1)
        if fam is not None:
            words = fam.y_class_words
            slots = fam.counts[nu % fam.N] * np.array(
                [count_joint_occurrences(x, y, a, b) == t for y in words])
        if slots.sum() == 0:
            out[0] += w
            continue
        out[np.ravel_multi_index(words.T, (b,) * n)] += w * slots / slots.sum()
    return out


@pytest.mark.parametrize("code_name", CODES)
def test_pinned_laws_match_the_protocol_definition(code_name, request):
    code = request.getfixturevalue(code_name)
    letters = word_letters(code.source.alphabet_size, code.n)
    for nu in range(code.N):
        rows = fixed_nu_block_channel(code, nu).rows
        for rank, x in enumerate(letters):
            np.testing.assert_allclose(rows[rank], reference_pinned_law(code, x, nu),
                                       rtol=0, atol=1e-12)


def test_each_type_reads_its_lists_uniformly_under_the_shared_index(monkeypatch):
    code = build_sim_code(UNIF, BSC, n=5, delta=2.0, epsilon=0.1, seed=7)
    assert code.N == max(fam.N for fam in code.families.values())
    assert len({fam.N for fam in code.families.values()}) > 1
    for t, fam in code.families.items():
        assert fam.N & (fam.N - 1) == 0 and code.N % fam.N == 0
        assert fam.N >= type_sizing(t, code.epsilon)[1]
    read, word = [], CoveringFamily.word
    monkeypatch.setattr(CoveringFamily, "word", lambda fam, lst, mu:
                        read.append((fam.joint_type, lst)) or word(fam, lst, mu))
    for nu in range(code.N):
        for t in code.typical_joint_types:
            decode(code, t, nu, 0)
    for t, fam in code.families.items():
        lists = [lst for s, lst in read if s == t]
        assert np.bincount(lists).tolist() == [code.N // fam.N] * fam.N
    letters = word_letters(2, 5)
    for nu in range(code.N):
        rows = fixed_nu_block_channel(code, nu).rows
        for rank, x in enumerate(letters):
            np.testing.assert_allclose(rows[rank], reference_pinned_law(code, x, nu),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_per_type_list_counts_lower_the_message_rate(n):
    """Against every family forced to the largest own list count, unrounded,
    with M re-derived there: the message rate falls and the
    shared-randomness rate rises by at most 1/n. The sizing alone gives
    the rates, with no family drawn."""
    sizes = sized_types(UNIF, BSC, n, 2.0, 0.1)
    types = [JointType(n, counts) for counts, _ in sizes]
    old_N = max(unrounded_sizing(t, 0.1)[1] for t in types)
    old_count = sum(unrounded_sizing(t, 0.1, old_N)[0] for t in types) + 1
    rate, cr_rate, _ = sized_rates([sizing for _, sizing in sizes], n)
    assert rate < math.log2(old_count) / n
    assert math.log2(old_N) / n <= cr_rate <= math.log2(old_N) / n + 1 / n


def per_index_law_blocks(code, base, nu):
    """The pinned exact-law kernel as it ran before the sweep: one index at a
    time, as a K = 1 product (1/c)^T @ counts per joint type, on list
    nu mod N_t."""
    bt = code.typical_classes[base]
    terminate = np.zeros(bt.x_global.size)
    blocks = []
    for t, w_t in zip(bt.t_list, bt.weights):
        if w_t == 0.0:
            continue
        if t not in code.families:
            terminate += w_t
            continue
        fam = code.families[t]
        lst = nu % fam.N
        c = fam.compatible_counts[lst:lst + 1]
        inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
        terminate += w_t * (np.count_nonzero(c == 0, axis=0) / 1)
        block = (w_t / 1) * (inv_c.T @ fam.counts[lst:lst + 1]) * fam.compat
        blocks.append((fam, block))
    return blocks, terminate


def per_index_block_law(code, nu):
    """The pinned block channel rows from the per-index loop."""
    classes, atypical = code.typical_classes, code.atypical_words
    rows = np.zeros((atypical.size, code.channel.output_size ** code.n))
    for base, bt in classes.items():
        blocks, terminate = per_index_law_blocks(code, base, nu)
        for fam, block in blocks:
            rows[np.ix_(bt.x_global, fam.y_ranks)] += block
        rows[bt.x_global, 0] += terminate
    rows[atypical, 0] = 1.0
    return rows


INSTANCES = {"bsc25": (UNIF, BSC),
             "skewed_pair": (Distribution.from_probs([0.6, 0.4]),
                             Channel.from_rows([[0.9, 0.1], [0.3, 0.7]]))}


def rectangle_law_blocks(code, base, rows=None):
    """The averaged exact-law kernel as it ran over whole rectangles: each
    covered type's (w_t / k) (1/c)^T @ counts * compat over (class rows,
    t's output class), zeros at its incompatible pairs included."""
    bt = code.typical_classes[base]
    sel = slice(None) if rows is None else rows
    terminate = np.zeros(bt.x_global[sel].size)
    blocks = []
    for t, w_t in zip(bt.t_list, bt.weights):
        if w_t == 0.0:
            continue
        if t not in code.families:
            terminate += w_t
            continue
        fam = code.families[t]
        c = fam.compatible_counts[:, sel]
        k = c.shape[0]
        inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
        terminate += w_t * (np.count_nonzero(c == 0, axis=0) / k)
        blocks.append((fam, (w_t / k) * (inv_c.T @ fam.counts) * fam.compat[sel]))
    return blocks, terminate


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_averaged_law_from_pairs_matches_the_rectangle_kernel(name, n):
    """Each (x, y) has one joint type, so adding every type's rectangle,
    whose other cells are +0.0, gives the same bits as writing each type's
    compatible pairs."""
    source, channel = INSTANCES[name]
    code = build_sim_code(source, channel, n=n, delta=2.0, epsilon=0.1, seed=7)
    size = channel.output_size ** n
    classes, atypical = code.typical_classes, code.atypical_words
    rows = np.zeros((atypical.size, size))
    for base, bt in classes.items():
        blocks, terminate = rectangle_law_blocks(code, base)
        for fam, block in blocks:
            rows[np.ix_(bt.x_global, fam.y_ranks)] += block
        rows[bt.x_global, 0] += terminate
        for pos, x in enumerate(enumerate_type_class(base)):
            blocks, terminate = rectangle_law_blocks(code, base, rows=[pos])
            out = np.zeros(size)
            for fam, block in blocks:
                out[fam.y_ranks] += block[0]
            out[0] += terminate[0]
            assert output_distribution(code, x).probs.tobytes() == \
                Distribution(size, out).probs.tobytes()
    rows[atypical, 0] = 1.0
    assert simulate._block_law(code).tobytes() == rows.tobytes()


@pytest.mark.parametrize("one_per_chunk", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_pinned_law_sweep_matches_the_per_index_loop(name, n, one_per_chunk,
                                                     monkeypatch):
    source, channel = INSTANCES[name]
    code = build_sim_code(source, channel, n=n, delta=2.0, epsilon=0.1, seed=7)
    if one_per_chunk:
        # a cap of exactly one law leaves room for one index per chunk
        monkeypatch.setitem(CAPS, "BLOCK_ENUM_CAP", 2 ** n * 2 ** n)
    order = list(range(code.N)) + [code.N - 1, 0]    # any order, repeats kept
    chunks, block_law = [], simulate._block_law
    with monkeypatch.context() as m:
        m.setattr(simulate, "_block_law",
                  lambda code, nus: chunks.append(len(nus)) or block_law(code, nus))
        laws = list(fixed_nu_block_channels(code, order))
    assert len(laws) == len(order) == sum(chunks)
    # each chunk's raw stack stays within the cap that bounds one law
    assert max(chunks) * 2 ** n * 2 ** n <= CAPS["BLOCK_ENUM_CAP"]
    for nu, law in zip(order, laws):
        expect = Channel.from_rows(per_index_block_law(code, nu)).rows
        assert law.rows.tobytes() == expect.tobytes()
        assert fixed_nu_block_channel(code, nu).rows.tobytes() == expect.tobytes()
        assert np.abs(law.rows.sum(axis=1) - 1.0).max() <= 1e-12


def dense_message_law(code, nu):
    """The pinned message law as a dense |X|^n x messages table, fed by the
    per-index kernel: (cond, y_ranks), one column per slot of each type's
    list in announcement order, then the terminate column last."""
    sizes = [code.records[t].M for t in code.typical_joint_types]
    offsets = dict(zip(code.typical_joint_types, np.cumsum([0] + sizes).tolist()))
    cond = np.zeros((code.source.alphabet_size ** code.n, sum(sizes) + 1))
    y_ranks = np.zeros(cond.shape[1], dtype=np.int64)
    classes, atypical = code.typical_classes, code.atypical_words
    for base, bt in classes.items():
        blocks, terminate = per_index_law_blocks(code, base, nu)
        for fam, block in blocks:
            sel = list_ranks(fam, nu % fam.N)
            slots = offsets[fam.joint_type] + np.arange(sel.size)
            cond[np.ix_(bt.x_global, slots)] = block[:, sel] / fam.counts[nu % fam.N, sel]
            y_ranks[slots] = fam.y_ranks[sel]
        cond[bt.x_global, -1] = terminate
    cond[atypical, -1] = 1.0
    return cond, y_ranks


def slot_block(blk):
    """A class-rank message block expanded to its message slots, as
    (slots, y_ranks, probs): each of a rank's copies gets the rank's
    probability divided by its copies."""
    slots = np.concatenate([np.arange(s, s + c) for s, c in zip(blk.slots, blk.copies)])
    return (slots, np.repeat(blk.y_ranks, blk.copies),
            np.repeat(blk.probs / blk.copies, blk.copies, axis=1))


def message_law_entries(code):
    """Entries the message law's cap counts: the |X|^n terminate block plus
    every joint type's |T_R| x |T_S| block."""
    return code.source.alphabet_size ** code.n + sum(
        t.class_sizes[0] * t.class_sizes[1] for t in code.typical_joint_types)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_encoder_message_law_matches_the_per_index_loop(name, n):
    source, channel = INSTANCES[name]
    code = build_sim_code(source, channel, n=n, delta=2.0, epsilon=0.1, seed=7)
    for nu in (0, code.N - 1):
        blocks, count = encoder_message_law(code, nu)
        expect_cond, expect_ranks = dense_message_law(code, nu)
        cond = np.zeros((2 ** n, count))
        covered = np.zeros(count, dtype=bool)
        for blk in blocks:
            # rows in ascending X^n rank, ranks in ascending slot order
            assert np.all(np.diff(blk.x_ranks) > 0) and np.all(np.diff(blk.slots) > 0)
            assert np.all(blk.copies > 0)
            assert blk.probs.flags.c_contiguous
            assert blk.probs.shape == (blk.x_ranks.size, blk.slots.size)
            slots, y_ranks, probs = slot_block(blk)
            assert not covered[slots].any()        # each slot in one block
            covered[slots] = True
            cond[np.ix_(blk.x_ranks, slots)] = probs
            assert np.array_equal(y_ranks, expect_ranks[slots])
        assert covered.all()
        assert cond.tobytes() == expect_cond.tobytes()
        last = blocks[-1]
        assert np.array_equal(last.slots, [count - 1]) and np.array_equal(last.y_ranks, [0])
        assert np.array_equal(last.copies, [1])
        assert np.array_equal(last.x_ranks, np.arange(2 ** n))


@pytest.mark.parametrize("delta", [1.0, 2.0])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_rate_prices_every_message_the_message_law_numbers(name, n, delta):
    """n * rate is log2 of the count encoder_message_law numbers, every
    type's slots and then terminate, and every block sends that many bits."""
    source, channel = INSTANCES[name]
    code = build_sim_code(source, channel, n, delta, 0.1, seed=7)
    _, count = encoder_message_law(code, code.N - 1)
    rate, _ = accounting(code)
    assert count == code.message_count
    assert rate == math.log2(count) / n
    assert run_protocol(code, (0,) * n, 0, seed=1).bits_sent == math.log2(count)
    if (name, n, delta) == ("bsc25", 4, 1.0):
        assert (count, round(rate, 6)) == (16049, 3.492549)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_message_blocks_sit_in_their_types_slots(name, n):
    """Each joint type's MessageBlock holds slots in [offset_t, offset_t +
    M_t), t read from the block's words, and terminate's slot is sum_t M_t."""
    source, channel = INSTANCES[name]
    code = build_sim_code(source, channel, n, 1.0, 0.1, seed=7)
    x_letters, y_letters = word_letters(2, n), word_letters(2, n)
    for nu in (0, code.N - 1):
        blocks, count = encoder_message_law(code, nu)
        for blk in blocks[:-1]:
            types = {count_joint_occurrences(x_letters[blk.x_ranks[i]], y_letters[blk.y_ranks[k]],
                                             2, 2) for i, k in np.argwhere(blk.probs > 0)}
            assert len(types) == 1
            t = types.pop()
            first = code.offsets[t]
            assert first <= blk.slots[0] and blk.slots[-1] + blk.copies[-1] <= first + code.records[t].M
        assert blocks[-1].slots.tolist() == [sum(r.M for r in code.records.values())] == [count - 1]


def test_message_law_checks_its_block_entries_before_building(small_code, monkeypatch):
    entries = message_law_entries(small_code)
    built, law_blocks = [], simulate._law_blocks
    monkeypatch.setattr(simulate, "_law_blocks",
                        lambda *args: built.append(args) or law_blocks(*args))
    monkeypatch.setitem(CAPS, "BLOCK_ENUM_CAP", entries - 1)
    with pytest.raises(CapExceededError, match="block entries"):
        encoder_message_law(small_code, 0)
    assert built == []
    monkeypatch.setitem(CAPS, "BLOCK_ENUM_CAP", entries)
    blocks, _ = encoder_message_law(small_code, 0)
    # one kernel call per input type; every joint type of the BSC has
    # positive weight and a family, so each has a block of its full class
    # rows, over no more ranks than its column class holds
    assert len(built) == len({t.row_marginal() for t in small_code.typical_joint_types})
    assert len(blocks) == len(small_code.typical_joint_types) + 1
    held = sum(blk.probs.size for blk in blocks)
    assert held <= entries
    assert blocks[-1].probs.size == 2 ** small_code.n


def test_pinned_laws_reject_out_of_range_indices(small_code):
    for nus in ([small_code.N], [0, -1], [1, small_code.N + 3]):
        with pytest.raises(InvalidInputError, match="outside"):
            fixed_nu_block_channels(small_code, nus)
    for nu in (-1, small_code.N):
        with pytest.raises(InvalidInputError, match="outside"):
            fixed_nu_block_channel(small_code, nu)
    assert list(fixed_nu_block_channels(small_code, [])) == []


def test_averaged_block_channel_rows(request):
    for code in map(request.getfixturevalue, CODES):
        block = averaged_block_channel(code)
        letters = word_letters(code.source.alphabet_size, code.n)
        assert block.rows.shape == (letters.shape[0], code.channel.output_size ** code.n)
        for rank, x in enumerate(letters):
            expect = output_distribution(code, x).probs
            np.testing.assert_allclose(block.rows[rank], expect, rtol=0, atol=1e-12)
            assert abs(block.rows[rank].sum() - 1.0) <= 1e-12


def test_word_letters_and_iid_block_law_round_trip():
    assert word_letters(3, 2)[:4].tolist() == [[0, 0], [0, 1], [0, 2], [1, 0]]
    for size, n in [(2, 1), (2, 5), (3, 4)]:
        letters = word_letters(size, n)
        expect = np.stack(np.unravel_index(np.arange(size ** n), (size,) * n), axis=1)
        assert np.array_equal(letters, expect)
        assert np.array_equal(np.ravel_multi_index(letters.T, (size,) * n),
                              np.arange(size ** n))
    channel = Channel.from_rows([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    source = Distribution.from_probs([0.7, 0.3])
    block = iid_block_law(channel.rows, 4)
    p_block = iid_block_law(source.probs, 4)
    assert block.shape == (16, 81) and p_block.shape == (16,)
    for rank, x in enumerate(word_letters(2, 4)):
        assert np.array_equal(block[rank], channel_block_row(channel, x))
        assert p_block[rank] == pytest.approx(np.prod(source.probs[x]), rel=1e-15)


def test_fixed_nu_rows_average_to_block_channel(request):
    for code in map(request.getfixturevalue, CODES):
        acc = sum(fixed_nu_block_channel(code, nu).rows for nu in range(code.N)) / code.N
        block = averaged_block_channel(code)
        assert np.allclose(acc, block.rows, atol=1e-12)


def test_strong_fidelity_report_structure(small_code):
    rep = strong_fidelity_report(small_code)
    assert rep["lambda_measured"] <= rep["lambda_bound"] + 1e-12
    assert all(tv <= rep["lambda_bound"] + 1e-12 for tv in rep["per_word_tv"])
    assert 0.0 <= rep["global_err"] <= 1.0
    assert rep["global_err"] <= rep["lambda_measured"] + rep["atypicality_mass"] + 1e-12


def test_accounting_rates_and_bounds(small_code):
    rate, cr_rate = accounting(small_code)
    assert rate == math.log2(sum(r.M for r in small_code.records.values()) + 1) / 4
    assert cr_rate == math.log2(small_code.N) / 4
    assert rate >= mutual_information(UNIF, BSC) - 1e-9
    assert rate + cr_rate >= entropy(output_marginal(UNIF, BSC)) - 1e-9


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_sizing_alone_gives_the_drawn_codes_rates(name, n):
    """sized_types holds the (M, N) of every record build_sim_code draws, in
    its announcement order, so sized_rates over it gives the code's rates,
    N and type count exactly, with no family drawn."""
    source, channel = INSTANCES[name]
    sizes = sized_types(source, channel, n, 2.0, 0.1)
    code = build_sim_code(source, channel, n, 2.0, 0.1, seed=7)
    assert sorted(sizes) == [(t.counts, (rec.M, rec.N)) for t, rec in code.records.items()]
    rate, cr_rate, N = sized_rates([sizing for _, sizing in sizes], n)
    assert (rate, cr_rate) == accounting(code)
    assert (N, len(sizes)) == (code.N, len(code.typical_joint_types))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_sized_types_match_the_sizing_of_fresh_types(name):
    """The sizes sized_types reads from the class sizes of the walk are
    those of fresh joint types, which take theirs from scratch, at n = 4
    to 16."""
    source, channel = INSTANCES[name]
    for n in range(4, 17):
        sizes = sized_types(source, channel, n, 2.0, 0.1)
        assert sizes == [(counts, type_sizing(JointType(n, counts), 0.1))
                         for counts, _ in sizes]


def refuse_joint_types(monkeypatch):
    def refuse(t):
        raise AssertionError(f"a joint type was built: {t.counts}")
    monkeypatch.setattr(JointType, "__post_init__", refuse)


def test_sized_types_build_only_the_types_they_return(monkeypatch):
    """At n = 32 the walk and the sizing return count rows and build no
    joint type."""
    refuse_joint_types(monkeypatch)
    assert len(jointly_typical_types(UNIF, BSC, 32, 2.0)) > 100
    assert len(sized_types(UNIF, BSC, 32, 2.0, 0.1)) > 100


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_draw_families_builds_each_drawn_type_once(monkeypatch, name):
    """At n = 6 draw_families builds the JointType of each type it draws,
    once, in announcement order, and no other joint type."""
    source, channel = INSTANCES[name]
    walk = sorted(counts for counts, _ in jointly_typical_types(source, channel, 6, 2.0))
    built = []
    check = JointType.__post_init__
    monkeypatch.setattr(JointType, "__post_init__", lambda t: (built.append(t), check(t)))
    families = list(simulate.draw_families(source, channel, 6, 2.0, 0.1, seed=7))
    assert built == [fam.joint_type for fam in families]
    assert [t.counts for t in built] == walk


def test_the_walk_refuses_a_channel_of_another_input_alphabet():
    with pytest.raises(InvalidInputError, match="source alphabet does not match"):
        jointly_typical_types(Distribution.uniform(3), BSC, 4, 2.0)


def test_the_sizing_runs_once_per_class_size_triple(monkeypatch):
    """bsc25 at n = 10 has 90 jointly typical types and 44 distinct
    class-size triples: sized_types runs the sizing formula once per
    triple."""
    calls = []
    sizing = simulate.class_sizing
    monkeypatch.setattr(simulate, "class_sizing",
                        lambda *args: (calls.append(args[0]), sizing(*args))[1])
    sizes = sized_types(UNIF, BSC, 10, 2.0, 0.1)
    triples = {class_sizes for _, class_sizes in jointly_typical_types(UNIF, BSC, 10, 2.0)}
    assert (len(sizes), len(triples)) == (90, 44)
    assert sorted(calls) == sorted(triples)


def test_rates_only_simulate_builds_no_joint_type(monkeypatch, tmp_path):
    """simulate --n 32 --rates-only sizes every type from the kernel's class
    sizes: with JointType construction raising, it still exits 0."""
    refuse_joint_types(monkeypatch)
    bsc25 = str(Path(__file__).resolve().parent.parent / "demos/instances/bsc25.json")
    assert main(["simulate", bsc25, "--n", "32", "--rates-only", "--out", str(tmp_path)]) == 0


def test_cover_table_cap_is_checked_before_the_first_draw(monkeypatch):
    """At n = 16 (delta = 2, epsilon = 0.1) some type's covering tables
    exceed COVER_TABLE_CAP: build_sim_code checks every sized type, in
    announcement order, and refuses before it draws any family, with the
    message build_covering gives for the same type."""
    drawn = []

    def draw(*args, **kwargs):
        drawn.append(args)
        raise AssertionError("a family was drawn")

    monkeypatch.setattr(simulate, "build_covering", draw)
    with pytest.raises(CapExceededError) as refused:
        build_sim_code(UNIF, BSC, 16, 2.0, 0.1, seed=0)
    assert str(refused.value) == ("covering tables of 93716480 entries, "
                                  "above COVER_TABLE_CAP = 33554432")
    assert drawn == []


def test_identity_channel_protocol():
    ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    code = build_sim_code(UNIF, ident, n=4, delta=2.0, epsilon=0.1, seed=5)
    # the only jointly typical types are diagonal, so y must reproduce x
    for t in code.typical_joint_types:
        assert t.counts[0][1] == 0 and t.counts[1][0] == 0
    tr = run_protocol(code, (0, 1, 1, 0), 0, seed=2)
    assert tr.announced_type != TERMINATE
    assert tr.y_word == (0, 1, 1, 0)


def test_constant_channel_protocol():
    const = Channel.from_rows([[0.0, 1.0], [0.0, 1.0]])
    code = build_sim_code(UNIF, const, n=4, delta=2.0, epsilon=0.1, seed=5)
    out = output_distribution(code, (0, 1, 0, 1))
    expect = np.zeros(16)
    expect[15] = 1.0
    assert np.allclose(out.probs, expect)


def test_atypical_word_gets_fallback_mass():
    skewed = Distribution.from_probs([0.9, 0.1])
    code = build_sim_code(skewed, BSC, n=4, delta=1.0, epsilon=0.1, seed=3)
    out = output_distribution(code, (1, 1, 1, 1))
    expect = np.zeros(16)
    expect[0] = 1.0
    assert np.allclose(out.probs, expect)


def test_source_channel_size_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        build_sim_code(Distribution.uniform(3), BSC, n=4, delta=2.0,
                       epsilon=0.1, seed=0)


def test_output_cap_enforced(small_code, monkeypatch):
    # the output law of an n = 4 binary code spans 16 words
    monkeypatch.setitem(CAPS, "OUTPUT_ENUM_CAP", 15)
    with pytest.raises(CapExceededError, match="OUTPUT_ENUM_CAP"):
        output_distribution(small_code, (0, 1, 1, 0))
    monkeypatch.setitem(CAPS, "OUTPUT_ENUM_CAP", 16)
    assert output_distribution(small_code, (0, 1, 1, 0)).probs.sum() == pytest.approx(1.0)


def test_message_law_aggregates_to_block_channel(small_code):
    blocks, count = encoder_message_law(small_code, nu=2)
    cond, y_ranks = dense_message_law(small_code, 2)
    fams = [small_code.families[t] for t in small_code.typical_joint_types]
    starts = np.cumsum([0] + [fam.M for fam in fams])
    assert cond.shape == (16, count) == (16, starts[-1] + 1)  # terminate is last
    assert np.allclose(cond.sum(axis=1), 1.0, atol=1e-9)
    assert y_ranks[-1] == 0
    x_types = [count_occurrences(x, 2) for x in word_letters(2, 4)]
    # one block per joint type, then the terminate block
    assert len(blocks) == len(fams) + 1
    for blk in blocks[:-1]:
        i = int(np.searchsorted(starts, blk.slots[0], side="right")) - 1
        fam = fams[i]
        lst = 2 % fam.N
        # the block holds the ranks of its type's list, whose copies span
        # the type's M slots in slot order, on its input class
        held = np.flatnonzero(fam.counts[lst])
        assert np.array_equal(blk.copies, fam.counts[lst, held])
        assert np.array_equal(blk.y_ranks, fam.y_ranks[held])
        slots, slot_y_ranks, probs = slot_block(blk)
        assert np.array_equal(slots, np.arange(starts[i], starts[i + 1]))
        assert np.array_equal(slot_y_ranks, fam.y_ranks[list_ranks(fam, lst)])
        assert np.array_equal(slot_y_ranks, y_ranks[starts[i]:starts[i + 1]])
        base = fam.joint_type.row_marginal()
        assert np.array_equal(blk.x_ranks, [r for r, t in enumerate(x_types) if t == base])
        assert np.array_equal(cond[blk.x_ranks][:, slots], probs)
    rows = np.zeros((16, small_code.channel.output_size ** 4))
    for blk in blocks:
        np.add.at(rows, (blk.x_ranks[:, None], blk.y_ranks[None, :]), blk.probs)
    assert np.allclose(rows, fixed_nu_block_channel(small_code, 2).rows,
                       atol=1e-12)


def test_a_code_is_rebuilt_from_its_own_fields(small_code):
    """build_sim_code on a code's own source, channel, n, delta, epsilon and
    seed gives its records, its lists byte for byte and its transcripts."""
    inputs = (small_code.source, small_code.channel, small_code.n, small_code.delta,
              small_code.epsilon, small_code.seed)
    rebuilt = build_sim_code(*inputs)
    assert list(rebuilt.records.items()) == list(small_code.records.items())
    for t, fam in small_code.families.items():
        assert rebuilt.families[t].counts.tobytes() == fam.counts.tobytes()
    rng = np.random.default_rng(5)
    for x in word_letters(2, 4):
        nu, seed = int(rng.integers(small_code.N)), int(rng.integers(2**32))
        assert run_protocol(rebuilt, x, nu, seed) == run_protocol(small_code, x, nu, seed)


@pytest.fixture(scope="module")
def fourteen_list_families():
    """The families of a bsc25 n = 4 code with every family at 14 lists,
    the largest list count before counts were rounded to powers of two,
    with M re-derived there and its lists drawn uniformly."""
    types = announced_types(UNIF, BSC, 4, 2.0)
    assert max(unrounded_sizing(t, 0.1)[1] for t in types) == 14
    rng = np.random.default_rng(0)
    families = {}
    for t in types:
        M, size_s = unrounded_sizing(t, 0.1, 14)[0], t.class_sizes[1]
        families[t] = CoveringFamily(t, 14, M,
                                     rng.multinomial(M, np.full(size_s, 1 / size_s), 14), 0.1)
    return families


def test_decode_reads_the_sorted_slot_of_every_list():
    code = build_sim_code(UNIF, BSC, n=3, delta=2.0, epsilon=0.1, seed=7)
    for t, fam in code.families.items():
        y_words = fam.y_class_words
        for nu in range(code.N):
            expected = [tuple(int(v) for v in y_words[r]) for r in list_ranks(fam, nu % fam.N)]
            assert [decode(code, t, nu, mu) for mu in range(fam.M)] == expected


def test_each_joint_type_sizes_its_classes_once(monkeypatch):
    """The sizing reads the walk's class sizes, and each drawn type takes
    its own once, on first use, kept for build_covering and every later
    reader."""
    sized = []
    real = typeclasses.joint_type_class_size
    for name, module in list(sys.modules.items()):    # every namespace that binds it
        if name.startswith("chansim") and getattr(module, "joint_type_class_size", None) is real:
            monkeypatch.setattr(module, "joint_type_class_size",
                                lambda t: sized.append(t) or real(t))
    code = build_sim_code(UNIF, BSC, n=6, delta=2.0, epsilon=0.1, seed=7)
    assert len(code.typical_joint_types) == 37
    assert sized == list(code.typical_joint_types)
    assert all("class_sizes" in vars(t) for t in code.typical_joint_types)


def test_online_path_transcripts_are_pinned_bit_for_bit():
    """300 run_protocol blocks of a bsc25 n = 6 code, then 300 run_fixed_code
    blocks of a derandomized skewed_pair n = 6 code, all drawing from one
    encoder stream. The digest covers every announced type, index pair,
    output word and bit count, so it pins the encoder's draws: a change that
    alters the type weights or the order of draws moves it. Every block of
    a code sends one of its message_count messages, and a fixed code adds
    its index bits."""
    skew_source = Distribution.from_probs([0.6, 0.4])
    skew_channel = Channel.from_rows([[0.9, 0.1], [0.3, 0.7]])
    code = build_sim_code(UNIF, BSC, n=6, delta=2.0, epsilon=0.1, seed=7)
    dcode = derandomize(build_sim_code(skew_source, skew_channel, n=6, delta=2.0,
                                       epsilon=0.1, seed=11), 0.1, 11)
    rng = np.random.default_rng(2718)
    x_bsc = rng.choice(2, size=(300, 6), p=UNIF.probs)
    nus = rng.integers(0, code.N, size=300)
    x_skew = rng.choice(2, size=(300, 6), p=skew_source.probs)
    enc = np.random.default_rng(3141)
    transcripts = [run_protocol(code, x, int(nu), enc) for x, nu in zip(x_bsc, nus)]
    transcripts += [run_fixed_code(dcode, x, enc) for x in x_skew]
    digest = hashlib.sha256()
    for tr in transcripts:
        announced = TERMINATE if tr.announced_type == TERMINATE else tr.announced_type.counts
        digest.update(repr((announced, tr.nu, tr.mu, tr.y_word, tr.bits_sent)).encode())
    assert sum(tr.announced_type == TERMINATE for tr in transcripts) == 58
    assert {tr.bits_sent for tr in transcripts[:300]} == {math.log2(code.message_count)}
    assert {tr.bits_sent for tr in transcripts[300:]} == {
        math.log2(dcode.base.message_count) + dcode.index_bits()}
    assert digest.hexdigest() == \
        "fb3f767da57c20bb4a5976bbeb088a141076c1e2d4f29d6e48d3e8b756879d5e"


def test_a_code_holds_a_family_for_every_record_or_none(small_code):
    """A code's records are those of its families, so a code without a
    type's family has no record of it, and a code of no family is refused."""
    first = small_code.typical_joint_types[0]
    partial = dataclasses.replace(small_code, families={
        t: fam for t, fam in small_code.families.items() if t != first})
    assert list(partial.records) == list(partial.families) == list(small_code.families)[1:]
    assert all(rec == FamilyRecord.of(partial.families[t]) for t, rec in partial.records.items())
    assert partial.message_count == small_code.message_count - small_code.records[first].M
    with pytest.raises(InvalidInputError, match="widen delta"):
        dataclasses.replace(small_code, families={})


def test_a_code_is_frozen(small_code):
    derived = ["records", "typical_joint_types", "N", "offsets", "message_count", "spec"]
    for name in [f.name for f in dataclasses.fields(SimCode)] + derived:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(small_code, name, getattr(small_code, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_code.records[small_code.typical_joint_types[0]].N = 8


@pytest.fixture(scope="module")
def frozen_values():
    """One value of each class the library hands out, by class name."""
    code = build_sim_code(UNIF, BSC, n=3, delta=2.0, epsilon=0.1, seed=7)
    fam = next(iter(code.families.values()))
    return {
        "Distribution": UNIF, "Channel": BSC, "CoveringFamily": fam,
        "CoveringCheck": fam.check, "FamilyRecord": code.records[fam.joint_type],
        "SimCode": code, "Transcript": run_protocol(code, (0, 1, 0), 0, 1),
        "RDCodeResult": applications.rd_code_via_simulation(
            UNIF, applications.DistortionSpec.hamming(2, 0.1), 2, 3, 2.0, 0.1, 7),
        "PairSimulationResult": applications.pair_simulation_pipeline(
            UNIF, BSC, 3, 2.0, 0.1, 7),
    }


@pytest.mark.parametrize("name", ["Distribution", "Channel", "CoveringFamily", "CoveringCheck",
                                  "FamilyRecord", "SimCode", "Transcript", "RDCodeResult",
                                  "PairSimulationResult"])
def test_no_field_of_a_library_value_can_be_assigned(name, frozen_values):
    value = frozen_values[name]
    assert type(value).__name__ == name
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))


def test_a_built_code_cannot_be_changed_under_its_records(small_code):
    """The assignments that used to succeed on a built code raise, and the
    code encodes as it did."""
    t = next(t for t, rec in small_code.records.items() if rec.N == 16)
    with pytest.raises(TypeError):
        small_code.records[t] = dataclasses.replace(small_code.records[t], N=12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_code.families[t].M = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_code.source.probs = np.array([0.999, 0.001])
    with pytest.raises(ValueError):
        small_code.atypical_words[0] = False
    assert small_code.records[t].N == small_code.families[t].N == 16
    assert encode(small_code, (0, 1, 0, 1), 0, 1) == (JointType(4, ((2, 0), (0, 2))), 1102)


# A code is built from its families, or from another code's by
# dataclasses.replace; both run the constructor's checks.
BUILDS = {"families": lambda code, families: SimCode(4, UNIF, BSC, 2.0, 0.1, 7, families),
          "replace": lambda code, families: dataclasses.replace(code, families=families)}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("base, forged, rejected", [
    ("small", 12, 12),          # one type at 12 lists beside powers of two up to 16
    ("fourteen", None, 14),     # every type at 14 lists, the shared range itself
    ("fourteen", 28, 28),       # 14 divides 28, but neither is a power of two
    ("fourteen", 16, 14),       # 16 is one, and the other types' 14 does not divide it
    ("fourteen", 7, 7),         # 7 divides the others' 14, but is no power of two
], ids=["12-in-16", "all-14", "28-in-14", "16-in-14", "7-in-14"])
def test_a_code_checks_its_list_counts_however_it_was_built(
        base, forged, rejected, build, small_code, fourteen_list_families):
    families = dict(small_code.families if base == "small" else fourteen_list_families)
    if forged is not None:      # the first family of 8 (small) or 14 lists
        t = next(t for t, fam in families.items() if fam.N == (8 if base == "small" else 14))
        fam = families[t]
        families[t] = CoveringFamily(t, forged, fam.M,
                                     np.resize(fam.counts, (forged, fam.counts.shape[1])),
                                     fam.epsilon)
    with pytest.raises(InvalidInputError, match=f"list count {rejected} is not a power of two"):
        BUILDS[build](small_code, families)


@pytest.mark.parametrize("build", sorted(BUILDS))
def test_a_record_must_sit_under_its_own_joint_type(small_code, build):
    """A record is its family's, so the family must sit under its own joint
    type. Moved under ((0, 2), (2, 0)), a type that is not jointly typical,
    the first family would make that type the first announced and leave
    its own type uncovered: the fidelity ceiling would read 0.478, not
    0.232."""
    first, stray = small_code.typical_joint_types[0], JointType(4, ((0, 2), (2, 0)))
    assert stray not in small_code.records
    assert fidelity_ceiling(small_code)[0] == pytest.approx(0.232, abs=1e-3)
    moved = {(stray if t == first else t): fam for t, fam in small_code.families.items()}
    with pytest.raises(InvalidInputError, match="families must sit under their own joint types"):
        BUILDS[build](small_code, moved)


def test_rates_only_code_has_the_fidelity_ceiling_of_its_words():
    """The ceiling reads only which types have a family; at n = 6 the
    drawn code's is 0.2212."""
    code = build_sim_code(UNIF, BSC, n=6, delta=2.0, epsilon=0.1, seed=7)
    assert fidelity_ceiling(code)[0] == pytest.approx(0.2212, abs=1e-4)


def test_a_word_of_the_wrong_length_is_rejected(small_code):
    for call in (lambda: encode(small_code, (0, 1, 0), 0, seed=1),
                 lambda: run_protocol(small_code, (0, 1, 0), 0, 1),
                 lambda: output_distribution(small_code, (0, 1, 0, 1, 1))):
        with pytest.raises(InvalidInputError):
            call()


def test_instances_compare_by_identity_so_a_code_and_its_window_hash(small_code):
    assert Distribution.from_probs([0.5, 0.5]) != Distribution.from_probs([0.5, 0.5])
    assert Channel.from_rows(BSC.rows) != Channel.from_rows(BSC.rows)
    assert hash(small_code.spec) == hash(small_code.spec)
    assert small_code == small_code


SKEWED_PAIR = (Distribution.from_probs([0.6, 0.4]), Channel.from_rows([[0.9, 0.1], [0.3, 0.7]]))
# A kernel and the closed form round differently: entries may differ by a
# few units in the last place, at most 4 machine epsilons since no entry
# exceeds 1; a quantity summed over a row or over X^n by that many epsilons
# per summed entry.
ULPS = 4 * np.finfo(float).eps


@pytest.fixture(scope="module",
                params=[(name, n) for name in ("bsc25", "skewed_pair") for n in (4, 5, 6)],
                ids=lambda p: f"{p[0]}-n{p[1]}")
def full_class_code(request):
    """A code whose every jointly typical type t has one list holding each
    word of its column class once, an exact covering family (every
    compatible count equals its mean, so the margin is epsilon); N = 1."""
    name, n = request.param
    source, channel = (UNIF, BSC) if name == "bsc25" else SKEWED_PAIR
    families = {}
    for t in announced_types(source, channel, n, 2.0):
        size_s = t.class_sizes[1]
        fam = CoveringFamily(t, 1, size_s, np.ones((1, size_s), dtype=np.int64), 0.1)
        assert fam.check.passed
        np.testing.assert_allclose(fam.check.condition_I_margin, 0.1, rtol=0, atol=1e-12)
        families[t] = fam
    return SimCode(n, source, channel, 2.0, 0.1, 0, families)


def closed_form_law(code):
    """The full-class code's law, (law, covered): a typical x gets W^n(y|x) on
    every y whose joint type with x is jointly typical (covered), and the
    rest of its row on the fallback word; an atypical x emits the fallback
    word."""
    a, b, n = code.source.alphabet_size, code.channel.output_size, code.n
    exact = iid_block_law(code.channel.rows, n)
    covered = np.zeros_like(exact, dtype=bool)
    for i, x in enumerate(word_letters(a, n)):
        if is_typical(x, code.spec):
            covered[i] = [count_joint_occurrences(x, y, a, b) in code.records
                          for y in word_letters(b, n)]
    law = np.where(covered, exact, 0.0)
    law[:, 0] += 1.0 - law.sum(axis=1)
    return law, covered


def test_every_exact_law_kernel_matches_the_closed_form_of_full_class_families(
        full_class_code):
    code = full_class_code
    assert code.N == 1
    law, covered = closed_form_law(code)
    a, b, n = code.source.alphabet_size, code.channel.output_size, code.n
    close = dict(rtol=0, atol=ULPS)
    np.testing.assert_allclose(averaged_block_channel(code).rows, law, **close)
    np.testing.assert_allclose(next(fixed_nu_block_channels(code, [0])).rows, law, **close)
    for rank, x in enumerate(word_letters(a, n)):
        np.testing.assert_allclose(output_distribution(code, x).probs, law[rank], **close)
    summed = np.zeros_like(law)
    for blk in encoder_message_law(code, 0)[0]:
        np.add.at(summed, (blk.x_ranks[:, None], blk.y_ranks[None, :]), blk.probs)
    np.testing.assert_allclose(summed, law, **close)

    exact = iid_block_law(code.channel.rows, n)
    tv = 0.5 * np.abs(law - exact).sum(axis=1)
    typical = np.array([is_typical(x, code.spec) for x in word_letters(a, n)])
    report = strong_fidelity_report(code)
    row_tol = b ** n * ULPS
    assert report["lambda_measured"] == pytest.approx(tv[typical].max(), rel=0, abs=row_tol)
    assert report["global_err"] == pytest.approx(iid_block_law(code.source.probs, n) @ tv,
                                                 rel=0, abs=a ** n * row_tol)
    uncovered = 1.0 - np.where(covered, exact, 0.0).sum(axis=1)
    assert report["lambda_bound"] == pytest.approx(0.1 / 0.9 + uncovered[typical].max(),
                                                   rel=0, abs=row_tol)
    got = measure_fidelity(code.source, code.channel, *sim_code_family(code))
    want = measure_fidelity(code.source, code.channel, Channel.from_rows(law))
    for name in ("global_err", "local_err", "letterwise_source_err", "empirical_joint_err"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0,
                                                   abs=a ** n * row_tol)
