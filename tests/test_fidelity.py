"""Tests for the fidelity criteria and the fixed-code derandomization."""

import math

import numpy as np
import pytest

from chansim import covering, fidelity, simulate
from chansim._seeds import child_rng
from chansim.core_prob import Channel, Distribution
from chansim.errors import CAPS, CapExceededError, InvalidInputError, RetriesExhaustedError
from chansim.fidelity import (
    DerandomizedCode,
    FidelityReport,
    derandomize,
    derandomize_with_family,
    derandomized_family,
    measure_fidelity,
    min_nonzero_entry,
    required_Q,
    run_fixed_code,
    sim_code_family,
)
from chansim.simulate import (
    averaged_block_channel,
    build_sim_code,
    fixed_nu_block_channel,
    word_letters,
)

from test_simulate import channel_block_row

BSC = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
UNIF = Distribution.uniform(2)


@pytest.fixture(scope="module")
def base_code():
    return build_sim_code(UNIF, BSC, n=4, delta=2.0, epsilon=0.1, seed=7)


def exact_block_channel(channel, n):
    a = channel.input_size
    rows = np.empty((a ** n, channel.output_size ** n))
    for rank in range(a ** n):
        x = tuple((rank // a ** (n - 1 - k)) % a for k in range(n))
        rows[rank] = channel_block_row(channel, x)
    return Channel(a ** n, channel.output_size ** n, rows)


def test_perfect_code_scores_zero():
    rep = measure_fidelity(UNIF, BSC, exact_block_channel(BSC, 3))
    assert rep.global_err == pytest.approx(0.0, abs=1e-12)
    assert rep.local_err == pytest.approx(0.0, abs=1e-12)
    assert rep.letterwise_source_err == pytest.approx(0.0, abs=1e-12)
    assert rep.empirical_joint_err == pytest.approx(0.0, abs=1e-12)


def test_identity_channel_lossless_code_scores_zero():
    ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    rep = measure_fidelity(UNIF, ident, exact_block_channel(ident, 3))
    assert rep.global_err == 0.0 and rep.empirical_joint_err == 0.0


def test_identity_code_against_noisy_channel_hand_values():
    # the code that copies its input, judged against the 0.25 flip channel:
    # block error 1 - 0.75^2, letter error 1 - 0.75 at every position
    ident_block = exact_block_channel(Channel.from_rows([[1, 0], [0, 1]]), 2)
    rep = measure_fidelity(UNIF, BSC, ident_block)
    assert rep.global_err == pytest.approx(1 - 0.75 ** 2, abs=1e-12)
    assert rep.local_err == pytest.approx(0.25, abs=1e-12)
    assert rep.letterwise_source_err == pytest.approx(0.25, abs=1e-12)
    assert rep.empirical_joint_err == pytest.approx(0.25, abs=1e-12)


def test_two_letter_stochastic_code_matches_manual_summation():
    code_rows = np.array([
        [0.70, 0.10, 0.10, 0.10],
        [0.05, 0.65, 0.15, 0.15],
        [0.15, 0.15, 0.65, 0.05],
        [0.10, 0.10, 0.10, 0.70],
    ])
    block = Channel(4, 4, code_rows)
    rep = measure_fidelity(UNIF, BSC, block)

    p_x = 0.25
    eq3 = eq4 = 0.0
    cond = np.zeros((2, 2, 2))
    pair = np.zeros((2, 2))
    for x0 in range(2):
        for x1 in range(2):
            row = code_rows[2 * x0 + x1]
            true = np.array([BSC.rows[x0][y0] * BSC.rows[x1][y1]
                             for y0 in range(2) for y1 in range(2)])
            eq3 += p_x * 0.5 * np.abs(row - true).sum()
            m0 = np.array([row[0] + row[1], row[2] + row[3]])
            m1 = np.array([row[0] + row[2], row[1] + row[3]])
            eq4 += p_x * 0.5 * (0.5 * np.abs(m0 - BSC.rows[x0]).sum()
                                + 0.5 * np.abs(m1 - BSC.rows[x1]).sum())
            cond[0, x0] += 0.5 * m0
            cond[1, x1] += 0.5 * m1
            pair[x0] += p_x * m0 / 2
            pair[x1] += p_x * m1 / 2
    eq5 = sum(0.5 * 0.5 * np.abs(cond[k, s] - BSC.rows[s]).sum()
              for k in range(2) for s in range(2)) / 2
    eq6 = 0.5 * np.abs(pair - 0.5 * BSC.rows).sum()

    assert rep.global_err == pytest.approx(eq3, abs=1e-12)
    assert rep.local_err == pytest.approx(eq4, abs=1e-12)
    assert rep.letterwise_source_err == pytest.approx(eq5, abs=1e-12)
    assert rep.empirical_joint_err == pytest.approx(eq6, abs=1e-12)


def test_exact_criteria_match_per_word_sums_on_skewed_source():
    source = Distribution.from_probs([0.7, 0.3])
    channel = Channel.from_rows([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6]])
    n, a, b = 3, 2, 3
    rows = np.random.default_rng(4).dirichlet(np.ones(b ** n), size=a ** n)
    rep = measure_fidelity(source, channel, Channel(a ** n, b ** n, rows))

    eq3 = eq4 = 0.0
    cond = np.zeros((n, a, b))
    for rank, x in enumerate(np.ndindex(*(a,) * n)):
        p_x = float(np.prod(source.probs[list(x)]))
        cube = rows[rank].reshape((b,) * n)
        margs = [cube.sum(axis=tuple(i for i in range(n) if i != k)) for k in range(n)]
        eq3 += p_x * 0.5 * np.abs(rows[rank] - channel_block_row(channel, x)).sum()
        eq4 += p_x * sum(0.5 * np.abs(margs[k] - channel.rows[x[k]]).sum()
                         for k in range(n)) / n
        for k in range(n):
            cond[k, x[k]] += p_x * margs[k]
    eq5 = sum(source.probs[s] * 0.5 * np.abs(cond[k, s] / source.probs[s]
                                             - channel.rows[s]).sum()
              for k in range(n) for s in range(a)) / n
    pair = cond.sum(axis=0) / n
    eq6 = 0.5 * np.abs(pair - source.probs[:, None] * channel.rows).sum()

    assert rep.global_err == pytest.approx(eq3, abs=1e-12)
    assert rep.local_err == pytest.approx(eq4, abs=1e-12)
    assert rep.letterwise_source_err == pytest.approx(eq5, abs=1e-12)
    assert rep.empirical_joint_err == pytest.approx(eq6, abs=1e-12)


def test_criterion_ordering_on_protocol_code(base_code):
    rep = measure_fidelity(UNIF, BSC, averaged_block_channel(base_code))
    assert rep.local_err <= rep.global_err + 1e-9
    assert rep.letterwise_source_err <= rep.local_err + 1e-9
    assert 0.0 <= rep.empirical_joint_err <= 1.0


def test_family_and_averaged_channel_agree(base_code):
    fam, wts = sim_code_family(base_code)
    rep_fam = measure_fidelity(UNIF, BSC, fam, wts)
    rep_avg = measure_fidelity(UNIF, BSC, averaged_block_channel(base_code))
    assert rep_fam.global_err == pytest.approx(rep_avg.global_err, abs=1e-12)
    assert rep_fam.local_err == pytest.approx(rep_avg.local_err, abs=1e-12)


@pytest.mark.parametrize("one_per_chunk", [False, True])
def test_families_are_the_pinned_laws_in_index_order(base_code, one_per_chunk,
                                                     monkeypatch):
    # the per-index laws are read before the cap shrinks to one law per chunk
    per_nu = [fixed_nu_block_channel(base_code, nu).rows.tobytes()
              for nu in range(base_code.N)]
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    if one_per_chunk:
        monkeypatch.setitem(CAPS, "BLOCK_ENUM_CAP", 16 * 16)
        again = derandomize(base_code, epsilon=0.1, seed=11)
        assert (again.selected_indices, again.retries) == (dcode.selected_indices,
                                                           dcode.retries)
    fam, _ = sim_code_family(base_code)
    assert [ch.rows.tobytes() for ch in fam] == per_nu
    fam, _ = derandomized_family(dcode)
    distinct = sorted(set(dcode.selected_indices))
    assert [ch.rows.tobytes() for ch in fam] == [per_nu[nu] for nu in distinct]


def test_families_check_the_fidelity_cap_before_building(base_code, monkeypatch):
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    held = base_code.N * 16 * 16        # every pinned 16 x 16 law at once
    distinct = len(set(dcode.selected_indices))
    sweep = simulate.fixed_nu_block_channels
    monkeypatch.setattr(fidelity, "fixed_nu_block_channels",
                        lambda *args: pytest.fail("built laws past the cap"))
    monkeypatch.setitem(CAPS, "FIDELITY_ENUM_CAP", held - 1)
    for build in (lambda: derandomize(base_code, epsilon=0.1, seed=11),
                  lambda: sim_code_family(base_code)):
        with pytest.raises(CapExceededError, match=f"{base_code.N} block laws"):
            build()
    monkeypatch.setitem(CAPS, "FIDELITY_ENUM_CAP", distinct * 16 * 16 - 1)
    with pytest.raises(CapExceededError, match=f"{distinct} block laws"):
        derandomized_family(dcode)
    monkeypatch.setattr(fidelity, "fixed_nu_block_channels", sweep)
    monkeypatch.setitem(CAPS, "FIDELITY_ENUM_CAP", held)
    again = derandomize(base_code, epsilon=0.1, seed=11)
    assert (again.selected_indices, again.retries) == (dcode.selected_indices, dcode.retries)
    assert len(sim_code_family(base_code)[0]) == base_code.N
    assert len(derandomized_family(dcode)[0]) == distinct


@pytest.mark.parametrize("verified", [True, False], ids=["verified", "declared"])
def test_derandomize_with_family_sweeps_each_law_once(base_code, verified, monkeypatch):
    if not verified:
        monkeypatch.setitem(CAPS, "EXACT_VERIFY_N_CAP", 0)
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    fam, weights = derandomized_family(dcode)
    sweep, swept = fidelity.fixed_nu_block_channels, []

    def recorded(code, nus):
        swept.extend(int(nu) for nu in nus)
        return sweep(code, nus)

    monkeypatch.setattr(fidelity, "fixed_nu_block_channels", recorded)
    again, fam_again, weights_again = derandomize_with_family(base_code, 0.1, 11)
    assert (again.selected_indices, again.verified, again.retries) == \
        (dcode.selected_indices, dcode.verified, dcode.retries)
    assert [ch.rows.tobytes() for ch in fam_again] == [ch.rows.tobytes() for ch in fam]
    assert weights_again.tobytes() == weights.tobytes()
    # verifying sweeps every index once; a declared sample sweeps its own
    assert swept == (list(range(base_code.N)) if verified
                     else sorted(set(dcode.selected_indices)))


def test_report_rejects_out_of_range_values():
    with pytest.raises(InvalidInputError):
        FidelityReport(1.5, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        FidelityReport(0.0, -0.5, 0.0, 0.0)


def test_measure_validations():
    with pytest.raises(InvalidInputError):
        measure_fidelity(Distribution.uniform(3), BSC, exact_block_channel(BSC, 2))
    with pytest.raises(InvalidInputError):
        measure_fidelity(UNIF, BSC, Channel(3, 4, np.full((3, 4), [0.25] * 4)))
    with pytest.raises(InvalidInputError):
        measure_fidelity(UNIF, BSC, [exact_block_channel(BSC, 2)],
                         weights=[0.5, 0.5])


def test_measure_one_output_letter():
    # |Y| = 1: n is read off the input alphabet; one letter each: n = 1
    one = Channel.from_rows([[1.0], [1.0], [1.0]])
    rep = measure_fidelity(Distribution.uniform(3), one, Channel.from_rows(np.ones((9, 1))))
    assert rep == FidelityReport(0.0, 0.0, 0.0, 0.0)
    single = Channel.from_rows([[1.0]])
    rep = measure_fidelity(Distribution.uniform(1), single, single)
    assert rep == FidelityReport(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        measure_fidelity(Distribution.uniform(3), one, Channel.from_rows(np.ones((8, 1))))


def test_min_nonzero_entry():
    assert min_nonzero_entry(BSC) == 0.25
    mixed = Channel.from_rows([[0.5, 0.5, 0.0], [0.0, 0.125, 0.875]])
    assert min_nonzero_entry(mixed) == 0.125


def test_required_Q_frozen_sequence_and_overhead():
    bits = []
    for n in range(4, 11):
        q = required_Q(n, 2, 2, 0.1, 0.25)
        expect = math.floor((4 * math.log(2) / (0.01 * 0.25)) * (n + 2)) + 1
        assert q == expect
        bits.append(math.ceil(math.log2(q)) / n)
    assert required_Q(4, 2, 2, 0.1, 0.25) == 6655
    assert all(b2 < b1 for b1, b2 in zip(bits, bits[1:]))


def test_required_Q_halved_epsilon_quadruples():
    q1 = required_Q(4, 2, 2, 0.1, 0.25)
    q2 = required_Q(4, 2, 2, 0.05, 0.25)
    assert q2 >= 4 * q1 - 4


def test_required_Q_validation():
    with pytest.raises(InvalidInputError):
        required_Q(4, 2, 2, 0.0, 0.25)
    with pytest.raises(InvalidInputError):
        required_Q(4, 2, 2, 0.1, 0.0)


def test_derandomize_exact_mode(base_code):
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    assert dcode.verified and dcode.Q == 6655
    assert len(dcode.selected_indices) == dcode.Q
    assert all(0 <= nu < base_code.N for nu in dcode.selected_indices)
    fam, wts = derandomized_family(dcode)
    rep = measure_fidelity(UNIF, BSC, fam, wts)
    assert rep.local_err <= 3 * 0.1


def test_derandomize_deterministic_under_seed(base_code):
    a = derandomize(base_code, epsilon=0.1, seed=11)
    b = derandomize(base_code, epsilon=0.1, seed=11)
    assert a.selected_indices == b.selected_indices


def test_derandomize_declared_mode(base_code, monkeypatch):
    monkeypatch.setitem(CAPS, "EXACT_VERIFY_N_CAP", 0)
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    assert not dcode.verified and dcode.Q == 6655


@pytest.fixture(scope="module")
def bsc30_code():
    bsc30 = Channel.from_rows([[0.7, 0.3], [0.3, 0.7]])
    return build_sim_code(UNIF, bsc30, n=3, delta=2.0, epsilon=0.1, seed=3)


def _letter_deviation(code):
    """Largest relative gap between the per-letter output marginals of a
    sampled index list's mixture and of the averaged code, over typical
    inputs, as a function of the list."""
    per_nu = np.stack([fixed_nu_block_channel(code, nu).rows for nu in range(code.N)])
    typical = ~code.atypical_words
    letters = word_letters(code.channel.output_size, code.n)
    masks = [letters[:, k] == b for k in range(code.n)
             for b in range(code.channel.output_size)]
    base = [per_nu.mean(axis=0)[typical][:, cols].sum(axis=1) for cols in masks]

    def deviation(selected):
        mixed = per_nu[list(selected)].mean(axis=0)[typical]
        return max(float(np.max(np.abs(mixed[:, cols].sum(axis=1) - b) / b))
                   for cols, b in zip(masks, base))
    return deviation


def test_derandomize_redraws_until_the_sample_verifies(bsc30_code, monkeypatch):
    # With Q = 2 most draws miss epsilon, so derandomize must redraw. The
    # index pairs of this code deviate by 0.0269 or less, or by 0.0324 or
    # more; epsilon = 0.0319 sits between, so an acceptance test loosened by
    # 2% takes a draw that must be redrawn.
    monkeypatch.setattr(fidelity, "required_Q", lambda *args: 2)
    deviation = _letter_deviation(bsc30_code)
    retries = []
    for seed in range(8):
        dcode = derandomize(bsc30_code, epsilon=0.0319, seed=seed)
        assert dcode.verified and dcode.Q == 2
        assert deviation(dcode.selected_indices) <= 0.0319
        for attempt in range(dcode.retries):
            draw = child_rng(seed, f"derandomize:try:{attempt}").integers(
                0, bsc30_code.N, size=2)
            assert deviation(draw) > 0.0319
        retries.append(dcode.retries)
    assert min(retries) == 0 and max(retries) >= 2


def test_derandomize_gives_up_after_max_retries(bsc30_code, monkeypatch):
    monkeypatch.setattr(fidelity, "required_Q", lambda *args: 2)
    monkeypatch.setattr(covering, "DEFAULT_MAX_RETRIES", 1)
    with pytest.raises(RetriesExhaustedError, match="1 times"):
        derandomize(bsc30_code, epsilon=0.0319, seed=1)


def test_derandomize_checks_the_half_u_precondition(bsc30_code, monkeypatch):
    # u = 0.9 puts u/2 above the averaged marginals of the 0.3 letters
    monkeypatch.setattr(fidelity, "min_nonzero_entry", lambda channel: 0.9)
    with pytest.raises(InvalidInputError, match="u/2"):
        derandomize(bsc30_code, epsilon=0.037, seed=1)


def test_derandomize_single_index_shortcut():
    const = Channel.from_rows([[0.0, 1.0], [0.0, 1.0]])
    code = build_sim_code(UNIF, const, n=4, delta=2.0, epsilon=0.1, seed=5)
    assert code.N == 1
    dcode = derandomize(code, epsilon=0.1, seed=0)
    assert dcode.Q == 1 and dcode.selected_indices == (0,)
    assert dcode.verified and dcode.index_bits() == 0
    tr = run_fixed_code(dcode, (0, 1, 0, 1), seed=9)
    assert tr.nu == 0 and tr.randomness_used == 0.0


def test_run_fixed_code_accounting(base_code):
    dcode = derandomize(base_code, epsilon=0.1, seed=11)
    rng = np.random.default_rng(17)
    for _ in range(50):
        tr = run_fixed_code(dcode, (0, 1, 1, 0), rng)
        assert tr.randomness_used == 0.0
        assert tr.nu in dcode.selected_indices
        assert tr.bits_sent == math.log2(base_code.message_count) + dcode.index_bits()
