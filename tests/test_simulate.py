"""Protocol-level tests for the block channel simulation code."""

import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from chansim.core_prob import (Channel, Distribution, entropy, mutual_information,
                               output_marginal, tv_distance)
from chansim import simulate, typeclasses
from chansim.covering import CoveringFamily, build_covering, required_M_N
from chansim.errors import CAPS, CapExceededError, InvalidInputError
from chansim.fidelity import derandomize, run_fixed_code
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
    fixed_nu_block_channel,
    fixed_nu_block_channels,
    iid_block_law,
    jointly_typical_types,
    load_code,
    output_distribution,
    run_protocol,
    save_code,
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

from test_typeclasses import is_typical

BSC = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
UNIF = Distribution.uniform(2)


def channel_block_row(channel, x_word):
    """The i.i.d. channel law over Y^n for one input word, lexicographic."""
    row = np.ones(1)
    for x in x_word:
        row = np.kron(row, channel.rows[int(x)])
    return row


@pytest.fixture(scope="module")
def small_code():
    return build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7)


def test_jointly_typical_types_sorted_and_consistent(small_code):
    jt = jointly_typical_types(UNIF, BSC, 4, 2.0)
    keys = [tuple(c for row in t.counts for c in row) for t in jt]
    assert keys == sorted(keys)
    assert tuple(jt) == small_code.typical_joint_types
    assert all(t.n == 4 for t in jt)


def test_announce_bits_is_ceil_log2_type_count(small_code):
    assert small_code.announce_bits == math.ceil(
        math.log2(len(small_code.typical_joint_types)))


def test_every_family_verified(small_code):
    for t, rec in small_code.records.items():
        # the type's own list count, rounded up to a power of two
        own_N = required_M_N(t, small_code.epsilon)[1]
        assert rec.N & (rec.N - 1) == 0 and own_N <= rec.N < 2 * own_N
        assert (rec.M, rec.N) == required_M_N(t, small_code.epsilon, forced_N=rec.N)
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
            assert tr.bits_sent == small_code.announce_bits
        else:
            assert decode(small_code, tr.announced_type, nu, tr.mu) == tr.y_word
            joint = count_joint_occurrences(x, tr.y_word, 2, 2)
            assert joint == tr.announced_type
            m = small_code.family_M(tr.announced_type)
            assert tr.bits_sent == math.log2(m) + small_code.announce_bits
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
    y_words = fam.y_class_words()
    compat_t = {tuple(map(int, w)) for w in y_words
                if count_joint_occurrences(x, tuple(map(int, w)), 2, 2) == t}
    ranks = fam.list_ranks(nu % fam.N)
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
        bt = simulate._base_tables_for(code, base)
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
    return dataclasses.replace(small_code, families={**small_code.families, t: lopsided},
                               _tables={})


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
            words = fam.y_class_words()
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
        assert fam.N >= required_M_N(t, code.epsilon)[1]
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
    shared-randomness rate rises by at most 1/n."""
    code = build_sim_code(UNIF, BSC, n=n, delta=2.0, epsilon=0.1, seed=7,
                          keep_words=False)
    types = code.typical_joint_types
    old_N = max(required_M_N(t, code.epsilon)[1] for t in types)
    old_M = max(required_M_N(t, code.epsilon, forced_N=old_N)[0] for t in types)
    rate, cr_rate = accounting(code)
    assert rate < (math.log2(old_M) + code.announce_bits) / n
    assert math.log2(old_N) / n <= cr_rate <= math.log2(old_N) / n + 1 / n


def per_index_law_blocks(code, base, nu):
    """The pinned exact-law kernel as it ran before the sweep: one index at a
    time, as a K = 1 product (1/c)^T @ counts per joint type, on list
    nu mod N_t."""
    bt = simulate._base_tables_for(code, base)
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
        c = fam.compatible_counts()[lst:lst + 1]
        inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
        terminate += w_t * (np.count_nonzero(c == 0, axis=0) / 1)
        block = (w_t / 1) * (inv_c.T @ fam.counts[lst:lst + 1]) * fam.compat()
        blocks.append((fam, block))
    return blocks, terminate


def per_index_block_law(code, nu):
    """The pinned block channel rows from the per-index loop."""
    classes, atypical = simulate._typical_classes(code)
    rows = np.zeros((atypical.size, code.channel.output_size ** code.n))
    for base, bt in classes.items():
        blocks, terminate = per_index_law_blocks(code, base, nu)
        for fam, block in blocks:
            rows[np.ix_(bt.x_global, fam.y_ranks())] += block
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
    bt = simulate._base_tables_for(code, base)
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
        c = fam.compatible_counts()[:, sel]
        k = c.shape[0]
        inv_c = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
        terminate += w_t * (np.count_nonzero(c == 0, axis=0) / k)
        blocks.append((fam, (w_t / k) * (inv_c.T @ fam.counts) * fam.compat()[sel]))
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
    classes, atypical = simulate._typical_classes(code)
    rows = np.zeros((atypical.size, size))
    for base, bt in classes.items():
        blocks, terminate = rectangle_law_blocks(code, base)
        for fam, block in blocks:
            rows[np.ix_(bt.x_global, fam.y_ranks())] += block
        rows[bt.x_global, 0] += terminate
        for pos, x in enumerate(enumerate_type_class(base)):
            blocks, terminate = rectangle_law_blocks(code, base, rows=[pos])
            out = np.zeros(size)
            for fam, block in blocks:
                out[fam.y_ranks()] += block[0]
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
    classes, atypical = simulate._typical_classes(code)
    for base, bt in classes.items():
        blocks, terminate = per_index_law_blocks(code, base, nu)
        for fam, block in blocks:
            sel = fam.list_ranks(nu % fam.N)
            slots = offsets[fam.joint_type] + np.arange(sel.size)
            cond[np.ix_(bt.x_global, slots)] = block[:, sel] / fam.counts[nu % fam.N, sel]
            y_ranks[slots] = fam.y_ranks()[sel]
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
    max_m = max(r.M for r in small_code.records.values())
    assert rate == (math.log2(max_m) + small_code.announce_bits) / 4
    assert cr_rate == math.log2(small_code.N) / 4
    assert rate >= mutual_information(UNIF, BSC) - 1e-9
    assert rate + cr_rate >= entropy(output_marginal(UNIF, BSC)) - 1e-9


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


def test_rates_only_build_blocks_encoding():
    code = build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7,
                          keep_words=False)
    assert code.rates_only and not code.families and code.records
    rate, cr_rate = accounting(code)
    assert rate > 0 and cr_rate > 0
    with pytest.raises(InvalidInputError):
        encode(code, (0, 1, 0, 1), 0, seed=0)
    with pytest.raises(InvalidInputError):
        output_distribution(code, (0, 1, 0, 1))


def test_source_channel_size_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        build_sim_code(Distribution.uniform(3), BSC, n=4, delta=2.0,
                       epsilon=0.1, seed=0)


def test_output_cap_enforced():
    code = build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7)
    code.n = 25  # forged block length to trip the cap check
    with pytest.raises(CapExceededError):
        output_distribution(code, (0,) * 25)


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
        assert np.array_equal(blk.y_ranks, fam.y_ranks()[held])
        slots, slot_y_ranks, probs = slot_block(blk)
        assert np.array_equal(slots, np.arange(starts[i], starts[i + 1]))
        assert np.array_equal(slot_y_ranks, fam.y_ranks()[fam.list_ranks(lst)])
        assert np.array_equal(slot_y_ranks, y_ranks[starts[i]:starts[i + 1]])
        base = fam.joint_type.row_marginal()
        assert np.array_equal(blk.x_ranks, [r for r, t in enumerate(x_types) if t == base])
        assert np.array_equal(cond[blk.x_ranks][:, slots], probs)
    rows = np.zeros((16, small_code.channel.output_size ** 4))
    for blk in blocks:
        np.add.at(rows, (blk.x_ranks[:, None], blk.y_ranks[None, :]), blk.probs)
    assert np.allclose(rows, fixed_nu_block_channel(small_code, 2).rows,
                       atol=1e-12)


def test_save_load_round_trip(tmp_path, small_code):
    save_code(small_code, str(tmp_path / "code"))
    loaded = load_code(str(tmp_path / "code"))
    assert loaded.typical_joint_types == small_code.typical_joint_types
    assert loaded.N == small_code.N
    assert loaded.announce_bits == small_code.announce_bits
    for t in small_code.typical_joint_types:
        assert np.array_equal(loaded.families[t].counts, small_code.families[t].counts)
    tr_a = run_protocol(small_code, (0, 1, 1, 0), 4, seed=99)
    tr_b = run_protocol(loaded, (0, 1, 1, 0), 4, seed=99)
    assert tr_a == tr_b


def test_output_distribution_survives_save_load(tmp_path, small_code):
    save_code(small_code, str(tmp_path / "code"))
    loaded = load_code(str(tmp_path / "code"))
    for x in word_letters(2, 4):
        a = output_distribution(small_code, x).probs
        b = output_distribution(loaded, x).probs
        assert a.tobytes() == b.tobytes()


def test_save_load_rates_only(tmp_path):
    code = build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7,
                          keep_words=False)
    save_code(code, str(tmp_path / "ro"))
    loaded = load_code(str(tmp_path / "ro"))
    assert loaded.rates_only and not loaded.families
    assert accounting(loaded)[0] == accounting(code)[0]


@pytest.fixture(scope="module")
def shared_range_code():
    """A bsc25 n = 4 code as saved before list counts were sized per type:
    every family at the largest own list count, N = 14, not a power of two."""
    types = jointly_typical_types(UNIF, BSC, 4, 2.0)
    n_shared = max(required_M_N(t, 0.1)[1] for t in types)
    families = {t: build_covering(t, 0.1, seed=idx, forced_N=n_shared)
                for idx, t in enumerate(types)}
    records = {t: FamilyRecord.of(fam) for t, fam in families.items()}
    return SimCode(n=4, source=UNIF, channel=BSC, delta=2.0, epsilon=0.1,
                   families=families, records=records,
                   typical_joint_types=tuple(types), N=n_shared, announce_bits=5, seed=0)


def test_load_code_reads_a_code_with_one_shared_list_count(tmp_path, shared_range_code):
    code = shared_range_code
    assert code.N == 14
    save_code(code, str(tmp_path / "code"))
    loaded = load_code(str(tmp_path / "code"))
    for t, fam in code.families.items():
        assert loaded.families[t].N == 14
        for nu in range(14):
            for mu in (0, fam.M // 3, fam.M - 1):
                assert decode(loaded, t, nu, mu) == fam.word(nu, mu)


@pytest.mark.parametrize("n_shared", [28, 16, 7])
def test_load_code_rejects_a_list_count_that_is_not_a_power_of_two_dividing_N(
        tmp_path, shared_range_code, n_shared):
    # 14 divides 28 but is no power of two; it divides neither 16 nor 7,
    # and a family above the shared range, 14 > 7, reads lists nu never reaches
    save_code(shared_range_code, str(tmp_path / "code"))
    path = tmp_path / "code" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["N"] = n_shared
    path.write_text(json.dumps(manifest))
    with pytest.raises(InvalidInputError, match="list count 14"):
        load_code(str(tmp_path / "code"))


def test_decode_reads_the_sorted_slot_of_every_list():
    code = build_sim_code(UNIF, BSC, n=3, delta=2.0, epsilon=0.1, seed=7)
    for t, fam in code.families.items():
        y_words = fam.y_class_words()
        for nu in range(code.N):
            expected = [tuple(int(v) for v in y_words[r]) for r in fam.list_ranks(nu % fam.N)]
            assert [decode(code, t, nu, mu) for mu in range(fam.M)] == expected


def test_each_joint_type_sizes_its_classes_once(monkeypatch):
    sized = []
    real = typeclasses.joint_type_class_size
    for name, module in list(sys.modules.items()):    # every namespace that binds it
        if name.startswith("chansim") and getattr(module, "joint_type_class_size", None) is real:
            monkeypatch.setattr(module, "joint_type_class_size",
                                lambda t: sized.append(t) or real(t))
    code = build_sim_code(UNIF, BSC, n=6, delta=2.0, epsilon=0.1, seed=7)
    assert len(code.typical_joint_types) == 37
    assert sorted(sized, key=repr) == sorted(code.typical_joint_types, key=repr)


def test_online_path_transcripts_are_pinned_bit_for_bit():
    """300 run_protocol blocks of a bsc25 n = 6 code, then 300 run_fixed_code
    blocks of a derandomized skewed_pair n = 6 code, all drawing from one
    encoder stream. The digest covers every announced type, index pair,
    output word and bit count, so it pins the encoder's draws: a change that
    alters the type weights or the order of draws moves it."""
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
    assert digest.hexdigest() == \
        "5f56a81ff1737aae76b1e5e251e6b19760820ce0125a8709adc0e97893f84f26"
