"""Tests for the exact-factorization solver and its certification oracle."""

import itertools
import json
import math

import numpy as np
import pytest

from chansim import zero_error
from chansim.core_prob import (
    Channel,
    Distribution,
    binary_entropy,
    entropy,
    mutual_information,
    simplex_grid,
)
from chansim._seeds import child_rng
from chansim.errors import CAPS, CapExceededError, InfeasibleError, InvalidInputError
from chansim.zero_error import (
    ZeroErrorInstance,
    alternate,
    brute_force_oracle,
    d_step,
    e_step,
    feasible_check,
    gamma_bracket,
    intermediate_size_bound,
    make_factorization,
    row_vertices,
)

BSC = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
UNIF = Distribution.uniform(2)
OPT_D = np.array([[0.75, 0.25], [0.0, 1.0], [0.5, 0.5]])


@pytest.fixture(scope="module")
def bsc_instance():
    return ZeroErrorInstance.build(UNIF, BSC)


@pytest.fixture(scope="module")
def bsc_oracle(bsc_instance):
    return brute_force_oracle(bsc_instance, 32)


@pytest.fixture(scope="module")
def bsc_alternate(bsc_instance):
    return alternate(bsc_instance, seed=0, restarts=20)


def test_intermediate_size_bound_values():
    assert intermediate_size_bound(2, 2) == 3
    assert intermediate_size_bound(3, 2) == 5
    assert intermediate_size_bound(3, 3) == 8
    with pytest.raises(InvalidInputError):
        intermediate_size_bound(0, 2)


def test_instance_validation():
    with pytest.raises(InvalidInputError):
        ZeroErrorInstance(Distribution.uniform(3), BSC, 3)
    with pytest.raises(InvalidInputError):
        ZeroErrorInstance(UNIF, BSC, 0)
    assert ZeroErrorInstance.build(UNIF, BSC).c_max == 3


def test_feasible_check_identity_factors(bsc_instance):
    E = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    ok, residual = feasible_check(bsc_instance, E, BSC)
    assert ok and residual == 0.0


def test_feasible_check_rank_obstruction(bsc_instance):
    E = Channel.from_rows([[1.0], [1.0]])
    D = Channel.from_rows([[0.5, 0.5]])
    ok, residual = feasible_check(bsc_instance, E, D)
    assert not ok and residual == pytest.approx(0.25)


def test_feasible_check_hand_product(bsc_instance):
    e_rows = np.array([[0.6, 0.4, 0.0], [0.0, 0.4, 0.6]])
    d_rows = np.array([[1.0, 0.0], [0.375, 0.625], [0.0, 1.0]])
    E = Channel.from_rows(e_rows)
    D = Channel.from_rows(d_rows)
    # (ED)_00 = 0.6 + 0.4*0.375 = 0.75 exactly; row 1 lands on (0.15, 0.85)
    ok, residual = feasible_check(bsc_instance, E, D)
    assert not ok
    assert residual == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(InvalidInputError):
        feasible_check(bsc_instance, Channel.from_rows([[1.0]]), D)


def test_row_vertices_identity_decoder_forces_row():
    verts = row_vertices(np.eye(2), np.array([0.75, 0.25]))
    assert len(verts) == 1
    assert np.allclose(verts[0], [0.75, 0.25])


def test_row_vertices_support_bound():
    d_rows = np.array([[0.75, 0.25], [0.0, 1.0], [0.5, 0.5], [0.25, 0.75]])
    for v in row_vertices(d_rows, np.array([0.25, 0.75])):
        assert np.count_nonzero(v > 1e-9) <= 2
        assert np.allclose(v @ d_rows, [0.25, 0.75], atol=1e-9)
        assert v.sum() == pytest.approx(1.0, abs=1e-9)


def _column_stacks(y_size, r, count, rng):
    """count (|Y|, r) matrices: random columns on the simplex, a third of
    them rounded onto a grid of pitch 1/4; when r > 1, every fifth with its
    last column a copy of its first, every seventh with a zero column, and
    every eleventh with its last column off its first by 1e-17 to 1e-13,
    around the rank cutoff eps * max(|Y|, r)."""
    a = rng.dirichlet(np.ones(y_size), size=(count, r)).transpose(0, 2, 1).copy()
    a[::3] = np.round(a[::3] * 4) / 4
    if r > 1:
        a[::5, :, -1] = a[::5, :, 0]
        a[::7, :, 0] = 0.0
        near = a[::11]
        near[:, :, -1] = near[:, :, 0] + rng.standard_normal(near.shape[:2]) \
            * 10.0 ** rng.uniform(-17, -13, size=(len(near), 1))
    return a


@pytest.mark.parametrize("y_size, r", [(y, r) for y in (1, 2, 3) for r in range(1, y + 1)])
def test_lstsq_stack_equals_lstsq_bit_for_bit(y_size, r):
    rng = np.random.default_rng(100 * y_size + r)
    a = _column_stacks(y_size, r, 2000, rng)
    for b in (rng.dirichlet(np.ones(y_size)), np.round(rng.dirichlet(np.ones(y_size)) * 4) / 4):
        sol, rank = zero_error._lstsq_stack(a, b)
        deficient = 0
        for i in range(len(a)):
            want, _, want_rank, _ = np.linalg.lstsq(a[i], b, rcond=None)
            assert np.array_equal(sol[i], want) and rank[i] == want_rank
            deficient += want_rank < r
        assert (deficient > 0) == (r > 1)


def test_lstsq_stack_nan_raises_as_lstsq_does():
    a = np.array([[[0.5, 0.25], [0.5, 0.75]], [[np.nan, 0.0], [1.0, 1.0]]])
    b = np.array([0.5, 0.5])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(a[1], b, rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        zero_error._lstsq_stack(a, b)


def _reference_row_vertices(d_rows, w_row):
    """row_vertices as one np.linalg.lstsq and one placement per support,
    by the former rule: a solve with no weight below -SOLVE_TOL, clipped at
    0, the first of the vertices equal to 10 decimals kept, and the kept
    ones sorted by the entries above SOLVE_TOL. That is row_vertices' list
    (each vertex solved on its own positive support, in lexicographic
    support order) unless some solve has a weight within SOLVE_TOL of 0
    that does not round to 0 at 10 decimals: only the former rule lists
    such a point."""
    tol = zero_error.SOLVE_TOL
    found = {}
    for r in range(1, min(d_rows.shape) + 1):
        for supp in itertools.combinations(range(d_rows.shape[0]), r):
            sol, _, rank, _ = np.linalg.lstsq(d_rows[list(supp)].T, w_row, rcond=None)
            if rank < r or (sol < -tol).any():
                continue
            e = np.zeros(d_rows.shape[0])
            e[list(supp)] = np.maximum(sol, 0.0)
            if np.abs(e @ d_rows - w_row).max() > tol:
                continue
            found.setdefault(tuple(np.round(e, 10).tolist()),
                             ((tuple(np.flatnonzero(e > tol).tolist()),
                               tuple(np.round(e, 12).tolist())), e))
    return [e for _, e in sorted(found.values(), key=lambda vertex: vertex[0])]


def test_row_vertices_equal_per_support_lstsq():
    """Random 3 x 3 channels through c = 4 decoder rows; half the decoders
    on a grid of pitch 1/4 with a repeated row. In four trials of five the
    channel is W = E0 D for a random E0, so its rows decompose in several
    ways; in the fifth W is drawn on its own, so some rows have no vertex."""
    rng = np.random.default_rng(21)
    counts = []
    for trial in range(200):
        d_rows = rng.dirichlet(np.ones(3), size=4)
        if trial % 2:
            d_rows = np.round(d_rows * 4) / 4
            d_rows[3] = d_rows[0]
            d_rows[d_rows.sum(axis=1) != 1.0] = [0.25, 0.25, 0.5]
        w_rows = rng.dirichlet(np.ones(4), size=3) @ d_rows
        if trial % 5 == 0:
            w_rows = rng.dirichlet(np.ones(3), size=3)
        for w in w_rows:
            got = row_vertices(d_rows, w)
            want = _reference_row_vertices(d_rows, w)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            counts.append(len(want))
    assert min(counts) == 0 and max(counts) >= 4


@pytest.mark.parametrize("t, supports", [
    (3e-10, [(1,)]),
    (2e-9, [(0, 1), (1,), (1, 2)]),
])
def test_row_vertices_lists_each_vertex_once(t, supports):
    """w = (1 - t) D[1] + t D[0] sits within t of the vertex (0, 1, 0). Below
    SOLVE_TOL the weights t on row 0 and 0.6 t on row 2 are not a support,
    so only (0, ~1, 0) is listed; above it the solves on (0, 1) and (1, 2)
    are vertices of their own. Each vertex is the solve on the entries above
    SOLVE_TOL, zero elsewhere, and the supports come in lexicographic order."""
    tol = zero_error.SOLVE_TOL
    d_rows = np.array([[0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    w = (1 - t) * d_rows[1] + t * d_rows[0]
    got = row_vertices(d_rows, w)
    assert [tuple(np.flatnonzero(v > tol).tolist()) for v in got] == supports
    for v, supp in zip(got, supports):
        sol, _, _, _ = np.linalg.lstsq(d_rows[list(supp)].T, w, rcond=None)
        assert np.array_equal(v[list(supp)], sol)
        assert not np.delete(v, supp).any()
    if t < tol:
        assert np.allclose(got[0], [0.0, 1.0, 0.0], atol=1e-9)
    verts, counts = zero_error._block_vertices(d_rows, np.array([[0, 1, 2]]), w, {})
    assert counts.tolist() == [len(got)]
    assert all(np.array_equal(a, b) for a, b in zip(verts[0], got))


def test_e_step_identity_decoder(bsc_instance):
    e_rows = e_step(bsc_instance, np.eye(2))
    assert np.allclose(e_rows, BSC.rows)


def test_e_step_reproduces_optimum_from_optimal_D(bsc_instance):
    e_rows = e_step(bsc_instance, OPT_D)
    assert np.allclose(e_rows[0], [1.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(e_rows[1], [1 / 3, 2 / 3, 0.0], atol=1e-9)
    mu = UNIF.probs @ e_rows
    assert entropy(mu) == pytest.approx(binary_entropy(1 / 3), abs=1e-12)


def test_e_step_infeasible_decoder(bsc_instance):
    with pytest.raises(InfeasibleError):
        e_step(bsc_instance, np.array([[0.9, 0.1], [0.9, 0.1], [0.9, 0.1]]))


def test_e_step_greedy_matches_exact_here(bsc_instance, monkeypatch):
    exact = e_step(bsc_instance, OPT_D)
    monkeypatch.setitem(CAPS, "EXACT_COMBO_CAP", 1)
    greedy = e_step(bsc_instance, OPT_D)
    h_exact = entropy(UNIF.probs @ exact)
    h_greedy = entropy(UNIF.probs @ greedy)
    assert h_greedy == pytest.approx(h_exact, abs=1e-9)


def test_d_step_unique_feasible_returned_unchanged():
    inst = ZeroErrorInstance(UNIF, BSC, 2)
    d_rows = d_step(inst, np.eye(2), np.full((2, 2), 0.5))
    assert np.allclose(d_rows, BSC.rows, atol=1e-7)


def test_d_step_one_parameter_family_maximum():
    # single input, two dice: feasible set is rows (t, 1-t), (1-t, t)
    src = Distribution.from_probs([1.0])
    ch = Channel.from_rows([[0.5, 0.5]])
    inst = ZeroErrorInstance(src, ch, 2)
    d_rows = d_step(inst, np.array([[0.5, 0.5]]), np.array([[0.2, 0.8], [0.8, 0.2]]))
    got = 0.5 * entropy(d_rows[0]) + 0.5 * entropy(d_rows[1])
    best = max(0.5 * binary_entropy(t) + 0.5 * binary_entropy(1 - t)
               for t in np.linspace(0.0, 1.0, 2001))
    assert got >= best - 1e-6
    assert np.allclose(d_rows, 0.5, atol=1e-4)


def test_d_step_objective_neutral(bsc_instance):
    e_rows = e_step(bsc_instance, OPT_D)
    h_before = entropy(UNIF.probs @ e_rows)
    d_step(bsc_instance, e_rows, d_start=OPT_D)
    assert entropy(UNIF.probs @ e_rows) == h_before


def test_d_step_infeasible_encoder(bsc_instance):
    bad_e = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(InfeasibleError, match="does not project"):
        d_step(bsc_instance, bad_e, np.full((3, 2), 0.5))


def test_alternate_identical_rows_reaches_zero():
    flat = Channel.from_rows([[0.3, 0.7], [0.3, 0.7]])
    inst = ZeroErrorInstance.build(UNIF, flat)
    fact = alternate(inst, seed=0, restarts=5)
    assert fact.objective == pytest.approx(0.0, abs=1e-12)


def test_alternate_point_mass_rows_cost_source_entropy():
    ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    src = Distribution.from_probs([0.7, 0.3])
    inst = ZeroErrorInstance.build(src, ident)
    fact = alternate(inst, seed=0, restarts=5)
    assert fact.objective == pytest.approx(entropy(src), abs=1e-9)


def test_alternate_matches_oracle_on_bsc(bsc_instance, bsc_oracle, bsc_alternate):
    assert bsc_oracle.objective == pytest.approx(binary_entropy(1 / 3), abs=1e-12)
    gap = abs(bsc_alternate.objective - bsc_oracle.objective)
    assert gap <= bsc_oracle.accuracy + 1e-4


def test_bsc_objectives_above_wyner_common_information(bsc_oracle, bsc_alternate):
    """Any exact factorization's label carries at least Wyner's common
    information, which for the doubly symmetric binary source with crossover
    a is 1 + h(a) - 2 h(a1), a1 = (1 - sqrt(1 - 2a)) / 2 (Wyner, IEEE Trans.
    IT 21(2), 1975); here a = 1/4."""
    wyner = 1 + binary_entropy(0.25) - 2 * binary_entropy((1 - math.sqrt(0.5)) / 2)
    assert wyner == pytest.approx(0.60953, abs=1e-5)
    assert bsc_alternate.objective >= wyner
    assert bsc_oracle.objective >= wyner


def test_alternate_trace_non_increasing(bsc_alternate):
    trace = bsc_alternate.trace
    assert len(trace) >= 2
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(bsc_alternate.objective, abs=1e-9)


def test_alternate_deterministic(bsc_instance, bsc_alternate):
    again = alternate(bsc_instance, seed=0, restarts=20)
    assert again.objective == bsc_alternate.objective
    assert np.array_equal(again.E.rows, bsc_alternate.E.rows)
    assert np.array_equal(again.D.rows, bsc_alternate.D.rows)


def test_alternate_infeasible_when_c_max_too_small():
    inst = ZeroErrorInstance(UNIF, BSC, 1)
    with pytest.raises(InfeasibleError):
        alternate(inst, seed=0, restarts=3)


def test_every_factorization_invariants(bsc_instance, bsc_oracle, bsc_alternate):
    lower = mutual_information(UNIF, BSC)
    upper = entropy(UNIF)
    for fact in (bsc_oracle, bsc_alternate):
        ok, residual = feasible_check(bsc_instance, fact.E, fact.D)
        assert ok
        assert np.allclose(fact.mu.probs, UNIF.probs @ fact.E.rows, atol=1e-12)
        assert fact.objective == pytest.approx(entropy(fact.mu), abs=1e-12)
        assert lower - 1e-9 <= fact.objective <= upper + 1e-9
        for row in fact.E.rows:
            assert np.count_nonzero(row > 1e-9) <= BSC.output_size
        live_cols = np.count_nonzero(fact.E.rows.max(axis=0) > 1e-9)
        assert live_cols <= intermediate_size_bound(2, 2)


def test_oracle_trivial_instances_exact():
    flat = Channel.from_rows([[0.3, 0.7], [0.3, 0.7]])
    fact = brute_force_oracle(ZeroErrorInstance.build(UNIF, flat), 10)
    assert fact.objective == pytest.approx(0.0, abs=1e-12)
    ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
    src = Distribution.from_probs([0.7, 0.3])
    fact = brute_force_oracle(ZeroErrorInstance.build(src, ident), 10)
    assert fact.objective == pytest.approx(entropy(src), abs=1e-12)


def test_oracle_refinement_non_increasing(bsc_instance):
    coarse = brute_force_oracle(bsc_instance, 16)
    fine = brute_force_oracle(bsc_instance, 32)
    assert fine.objective <= coarse.objective + 1e-12
    assert fine.accuracy > 0


def test_oracle_caps():
    big = ZeroErrorInstance(Distribution.uniform(4),
                            Channel.from_rows(np.full((4, 2), 0.5)), 3)
    with pytest.raises(CapExceededError):
        brute_force_oracle(big, 8)
    wide = ZeroErrorInstance(UNIF, BSC, 5)
    with pytest.raises(CapExceededError):
        brute_force_oracle(wide, 8)
    with pytest.raises(InvalidInputError):
        brute_force_oracle(ZeroErrorInstance.build(UNIF, BSC), 1)


def _random_d_stack(rng, c_size, y_size):
    d_rows = rng.dirichlet(np.ones(y_size), size=c_size)
    d_rows[rng.random((c_size, y_size)) < 0.3] = 0.0
    d_rows[d_rows.sum(axis=1) == 0.0, rng.integers(y_size)] = 1.0
    d_rows /= d_rows.sum(axis=1, keepdims=True)
    return d_rows * (1.0 + rng.uniform(-1e-9, 1e-9, size=(c_size, 1)))


def _random_w_row(rng, d_rows):
    """Channel rows inside, on the edge of and outside the cone of D."""
    y_size = d_rows.shape[1]
    kind = rng.integers(4)
    if kind == 0:
        return rng.dirichlet(np.ones(y_size))
    if kind == 1:
        return d_rows[rng.integers(len(d_rows))] \
            + rng.uniform(-2e-9, 2e-9, size=y_size)
    e = rng.dirichlet(np.ones(len(d_rows)))
    e[rng.random(len(d_rows)) < 0.5] = 0.0
    return e @ d_rows + rng.uniform(-2e-9, 2e-9, size=y_size) * (kind == 2)


@pytest.mark.parametrize("y_size", [2, 3])
def test_hull_prefilter_rejects_only_rows_without_vertices(y_size):
    rng = np.random.default_rng(20 + y_size)
    rejected = kept_with_vertices = 0
    for _ in range(1500):
        d_rows = _random_d_stack(rng, int(rng.integers(1, 5)), y_size)
        w = _random_w_row(rng, d_rows)
        if zero_error._hull_candidates(d_rows[None], w[None])[0]:
            kept_with_vertices += bool(row_vertices(d_rows, w))
        else:
            rejected += 1
            assert row_vertices(d_rows, w) == []
    assert rejected > 100 and kept_with_vertices > 100


def _reference_local_modulus(instance, d_rows, h_at, resolution):
    """_local_modulus as the per-neighbor loop it replaced: one e_step per
    grid neighbor of d_rows."""
    y_size = d_rows.shape[1]
    worst = 0.0
    for c in range(d_rows.shape[0]):
        for up in range(y_size):
            for down in range(y_size):
                if up == down:
                    continue
                cand = d_rows.copy()
                cand[c, up] += 1.0 / resolution
                cand[c, down] -= 1.0 / resolution
                if cand[c, down] < -zero_error.SOLVE_TOL or cand[c, up] > 1 + zero_error.SOLVE_TOL:
                    continue
                cand[c] = np.clip(cand[c], 0.0, None)
                try:
                    e_rows = e_step(instance, cand)
                except InfeasibleError:
                    continue
                h = entropy(instance.source.probs @ e_rows)
                worst = max(worst, abs(h - h_at) / (2.0 / resolution))
    return max(worst, 1e-6)


def _reference_oracle(instance, resolution):
    """The oracle as a plain loop: one e_step per multiset of grid rows."""
    y_size = instance.channel.output_size
    rows = simplex_grid(y_size, resolution)
    best_h = best_e = best_d = None
    for combo in itertools.combinations_with_replacement(range(len(rows)),
                                                         instance.c_max):
        d_rows = np.vstack([rows[i] for i in combo])
        try:
            e_rows = e_step(instance, d_rows)
        except InfeasibleError:
            continue
        h = entropy(instance.source.probs @ e_rows)
        if best_h is None or h < best_h - 1e-12:
            best_h, best_e, best_d = h, e_rows, d_rows
    modulus = _reference_local_modulus(instance, best_d, best_h, resolution)
    accuracy = modulus * (y_size / resolution) * instance.c_max + 1e-9
    return make_factorization(instance, best_e, best_d, accuracy=accuracy)


SKEWED = Channel.from_rows([[0.9, 0.1], [0.3, 0.7]])
TWO_BY_THREE = Channel.from_rows([[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]])


@pytest.mark.parametrize("source, channel, c_max, resolution", [
    (UNIF, BSC, None, 8),
    (UNIF, BSC, None, 12),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 8),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 12),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 3, 4),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 4, 4),
])
def test_oracle_equals_plain_loop(source, channel, c_max, resolution):
    instance = ZeroErrorInstance.build(source, channel, c_max)
    got = brute_force_oracle(instance, resolution)
    want = _reference_oracle(instance, resolution)
    assert np.array_equal(got.E.rows, want.E.rows)
    assert np.array_equal(got.D.rows, want.D.rows)
    assert got.objective == want.objective
    assert got.accuracy == want.accuracy


@pytest.mark.parametrize("channel, c_max, resolution", [
    (BSC, 3, 8),
    (SKEWED, 3, 10),
    (Channel.from_rows([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]]), 3, 4),
], ids=["bsc25-8", "skewed_pair-10", "three_by_three-4"])
def test_block_vertices_equal_row_vertices(channel, c_max, resolution):
    """Channel rows on the grid make supports that differ in size meet at
    one point with different bits; the block lookup must list the same
    solves as row_vertices (each on its own positive support), in the same
    lexicographic support order."""
    rows = simplex_grid(channel.output_size, resolution)
    block = np.array(list(itertools.combinations_with_replacement(range(len(rows)), c_max)),
                     dtype=np.intp)
    for w in channel.rows:
        verts, counts = zero_error._block_vertices(rows, block, w, {})
        for combo, got, n in zip(block, verts, counts):
            want = row_vertices(rows[combo], w)
            assert n == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _reference_min_entropy_rows(p, per_x):
    """The exact vertex choice as the plain loop over itertools.product that
    _min_entropy_stack replaced (_min_entropy_rows' coordinate descent above
    EXACT_COMBO_CAP is unchanged)."""
    best_h, best = None, None
    for combo in itertools.product(*(range(len(v)) for v in per_x)):
        mu = sum(p[x] * per_x[x][i] for x, i in enumerate(combo))
        h = entropy(mu)
        if best_h is None or h < best_h - 1e-12:
            best_h, best = h, combo
    return np.vstack([per_x[x][i] for x, i in enumerate(best)])


def _vertex_with_entropy(h, c, pair):
    """A length-c vertex, live at the two positions in pair, of entropy h
    (bisection on its smaller entry)."""
    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if binary_entropy(mid) < h else (lo, mid)
    v = np.zeros(c)
    v[list(pair)] = lo, 1.0 - lo
    return v


def _stack_lists(instances):
    """Per channel row, the (k, L, c) zero-padded stack of k instances'
    vertex lists and their (k,) lengths."""
    stacks = []
    for x in range(len(instances[0])):
        width = max(len(per_x[x]) for per_x in instances)
        verts = np.zeros((len(instances), width, len(instances[0][x][0])))
        for k, per_x in enumerate(instances):
            verts[k, :len(per_x[x])] = per_x[x]
        stacks.append((verts, np.array([len(per_x[x]) for per_x in instances])))
    return stacks


def test_stacked_choice_equals_product_loop_with_near_ties():
    """Row 0's vertices live on positions 0 and 1 and the other rows' on the
    rest, so H(mu) moves by p_0 times row 0's entropy offsets: 0, 0.5e-12,
    1.5e-12 and more, in random order. Where an offset of 0.5e-12 comes
    first, the sequential rule keeps it and an argmin does not. Up to 9
    positions, so some mu have 8 live entries."""
    rng = np.random.default_rng(41)
    disagree = 0
    for _ in range(40):
        x_size, c = int(rng.integers(1, 4)), int(rng.integers(4, 10))
        p = rng.dirichlet(np.ones(x_size))
        instances = []
        for _ in range(int(rng.integers(1, 5))):
            offsets = rng.permutation([0.0, 0.5e-12, 1.5e-12, 2.5e-12, 0.2])
            base = rng.uniform(0.3, 0.9)
            per_x = [[_vertex_with_entropy(base + d / p[0], c, (0, 1))
                      for d in offsets[:rng.integers(2, 6)]]]
            for _ in range(1, x_size):
                verts = []
                for _ in range(rng.integers(1, 4)):
                    v = np.zeros(c)
                    live = rng.choice(np.arange(2, c), size=min(3, c - 2), replace=False)
                    v[live] = rng.dirichlet(np.ones(len(live)))
                    verts.append(v)
                per_x.append(verts)
            instances.append(per_x)
        got = zero_error._min_entropy_stack(p, _stack_lists(instances))
        for k, per_x in enumerate(instances):
            want = _reference_min_entropy_rows(p, per_x)
            assert np.array_equal(got[k], want)
            assert np.array_equal(zero_error._min_entropy_rows(p, per_x), want)
            combos = list(itertools.product(*(range(len(v)) for v in per_x)))
            hs = [entropy(sum(p[x] * per_x[x][i] for x, i in enumerate(combo)))
                  for combo in combos]
            best = combos[int(np.argmin(hs))]
            disagree += not np.array_equal(
                want, np.vstack([per_x[x][i] for x, i in enumerate(best)]))
    assert disagree >= 10


def _per_multiset_oracle(instance, resolution):
    """The oracle with the vertex search redone for every multiset: the hull
    prefilter, then row_vertices on each channel row of each survivor."""
    rows = simplex_grid(instance.channel.output_size, resolution)
    w_rows = instance.channel.rows
    combos = np.array(list(itertools.combinations_with_replacement(
        range(len(rows)), instance.c_max)), dtype=np.intp)
    best_h = best_e = best_d = None
    for combo in combos[zero_error._hull_candidates(rows[combos], w_rows)]:
        d_rows = rows[combo]
        per_x = [row_vertices(d_rows, w) for w in w_rows]
        if not all(per_x):
            continue
        e_rows = _reference_min_entropy_rows(instance.source.probs, per_x)
        h = entropy(instance.source.probs @ e_rows)
        if best_h is None or h < best_h - 1e-12:
            best_h, best_e, best_d = h, e_rows, d_rows
    modulus = _reference_local_modulus(instance, best_d, best_h, resolution)
    accuracy = modulus * (instance.channel.output_size / resolution) * instance.c_max + 1e-9
    return make_factorization(instance, best_e, best_d, accuracy=accuracy)


def _random_pair(seed, x_size, y_size):
    rng = np.random.default_rng(seed)
    return (Distribution(x_size, rng.dirichlet(np.ones(x_size))),
            Channel(x_size, y_size, rng.dirichlet(np.ones(y_size), size=x_size)))


@pytest.mark.parametrize("source, channel, c_max, resolution", [
    (UNIF, BSC, None, 8),
    (UNIF, BSC, None, 32),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 8),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 32),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 4, 4),
    (*_random_pair(1, 3, 2), 3, 16),
    (*_random_pair(2, 3, 2), 4, 8),
    (*_random_pair(3, 3, 3), 3, 4),
    (*_random_pair(4, 3, 3), 4, 4),
], ids=["bsc25-8", "bsc25-32", "skewed_pair-8", "skewed_pair-32", "two_by_three-4",
        "random3x2-c3-16", "random3x2-c4-8", "random3x3-c3-4", "random3x3-c4-4"])
def test_vertex_table_equals_per_multiset_search(source, channel, c_max, resolution):
    instance = ZeroErrorInstance.build(source, channel, c_max)
    got = brute_force_oracle(instance, resolution)
    want = _per_multiset_oracle(instance, resolution)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("source, channel, c_max, resolution", [
    (UNIF, BSC, None, 8),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, 4, 8),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 3, 4),
    (*_random_pair(1, 3, 2), 3, 16),
    (*_random_pair(2, 3, 2), 4, 8),
    (*_random_pair(3, 3, 3), 3, 4),
    (*_random_pair(4, 3, 3), 4, 4),
], ids=["bsc25-c3-8", "skewed_pair-c4-8", "two_by_three-c3-4", "random3x2-c3-16",
        "random3x2-c4-8", "random3x3-c3-4", "random3x3-c4-4"])
def test_oracle_chunk_only_bounds_memory(monkeypatch, source, channel, c_max, resolution):
    instance = ZeroErrorInstance.build(source, channel, c_max)

    def bits(fact):
        return [float(v).hex() for v in (*fact.E.rows.ravel(), *fact.D.rows.ravel(),
                                         fact.objective, fact.accuracy)]

    want = bits(brute_force_oracle(instance, resolution))
    for chunk in (7, 97):
        monkeypatch.setattr(zero_error, "ORACLE_CHUNK", chunk)
        assert bits(brute_force_oracle(instance, resolution)) == want


def _reference_hull_candidates(d_stack, w_rows):
    """_hull_candidates as the axis reductions it replaced, redone per
    channel row."""
    tau = zero_error.SOLVE_TOL
    y_size = d_stack.shape[2]
    sums = d_stack.sum(axis=2)
    lo, hi = d_stack.min(axis=1), d_stack.max(axis=1)
    keep = np.ones(d_stack.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in w_rows:
            s_lo = (w.sum() - y_size * tau) / sums.max(axis=1)
            s_hi = (w.sum() + y_size * tau) / sums.min(axis=1)
            low = lo * s_lo[:, None] - tau
            high = hi * s_hi[:, None] + tau
            out = (w < low - zero_error.HULL_SLACK * (1 + np.abs(low))) \
                | (w > high + zero_error.HULL_SLACK * (1 + np.abs(high)))
            keep &= ~out.any(axis=1)
    return keep


@pytest.mark.parametrize("y_size", [2, 3])
def test_hull_candidates_equal_axis_reductions(y_size):
    """Random stacks with zero rows (an infinite upper edge) and all-zero
    stacks (0 * inf, a NaN edge), channel rows inside, on the edge of and
    outside the cone of one stack, and every multiset of a grid."""
    rng = np.random.default_rng(60 + y_size)
    for _ in range(300):
        c_size, k = int(rng.integers(1, 5)), int(rng.integers(1, 40))
        d_stack = np.stack([_random_d_stack(rng, c_size, y_size) for _ in range(k)])
        d_stack[rng.random((k, c_size)) < 0.2] = 0.0
        d_stack[rng.random(k) < 0.1] = 0.0
        w_rows = np.stack([_random_w_row(rng, d_stack[0]) for _ in range(int(rng.integers(1, 4)))])
        assert np.array_equal(zero_error._hull_candidates(d_stack, w_rows),
                              _reference_hull_candidates(d_stack, w_rows))
    rows = simplex_grid(y_size, 6)
    for c_size in (2, 3):
        block = zero_error._multisets(len(rows), c_size, 0, math.comb(len(rows) + c_size - 1, c_size))
        for w_rows in (BSC.rows, TWO_BY_THREE.rows, rng.dirichlet(np.ones(y_size), size=3)):
            if w_rows.shape[1] == y_size:
                got = zero_error._hull_candidates(rows[block], w_rows)
                assert np.array_equal(got, _reference_hull_candidates(rows[block], w_rows))
                assert 0 < got.sum() < len(block)


@pytest.mark.parametrize("chunk", [7, 97, zero_error.ORACLE_CHUNK])
def test_multisets_follow_combinations_with_replacement(monkeypatch, chunk):
    """The oracle's blocks, cut at its ORACLE_CHUNK boundaries, concatenate
    to itertools' multisets for g = 2..40 grid rows and c = 1..4. Blocks of
    7 are checked where there are at most 20,000 multisets (every c up to 3,
    and c = 4 up to g = 23), which keeps the test near a second."""
    monkeypatch.setattr(zero_error, "ORACLE_CHUNK", chunk)
    for g in range(2, 41):
        for c in range(1, 5):
            total = math.comb(g + c - 1, c)
            if chunk == 7 and total > 20_000:
                continue
            want = np.array(list(itertools.combinations_with_replacement(range(g), c)))
            got = [zero_error._multisets(g, c, start, min(start + zero_error.ORACLE_CHUNK, total))
                   for start in range(0, total, zero_error.ORACLE_CHUNK)]
            assert all(b.dtype == np.intp for b in got)
            assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("source, channel, c_max, resolution", [
    (UNIF, BSC, None, 8),
    (UNIF, BSC, None, 12),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 8),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None, 12),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 3, 4),
    (Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 4, 4),
])
def test_local_modulus_equals_per_neighbor_e_step(source, channel, c_max, resolution):
    """On the oracle's optimum, then on up to 24 feasible multisets in
    random order, sharing one solve cache per channel row as the oracle
    does. At resolution 12 a moved row k/12 + 1/12 need not be the grid row
    (k + 1)/12, so it is solved afresh."""
    instance = ZeroErrorInstance.build(source, channel, c_max)
    rows = simplex_grid(channel.output_size, resolution)
    combos = zero_error._multisets(len(rows), instance.c_max, 0,
                                   math.comb(len(rows) + instance.c_max - 1, instance.c_max))
    best = brute_force_oracle(instance, resolution).D.rows
    order = np.random.default_rng(resolution).permutation(len(combos))
    first = [c for c in combos if np.array_equal(rows[c], best)]
    solves = [{} for _ in channel.rows]
    checked = 0
    for combo in [*first, *combos[order]]:
        try:
            h = entropy(instance.source.probs @ e_step(instance, rows[combo]))
        except InfeasibleError:
            continue
        want = _reference_local_modulus(instance, rows[combo], h, resolution)
        assert zero_error._local_modulus(instance, rows, combo, h, resolution, solves) == want
        checked += 1
        if checked == 25:
            break
    assert len(first) == 1 and checked >= 13


def test_oracle_infeasible_grid():
    # the box test keeps some pairs of grid rows, yet for one channel row
    # none of the kept pairs has a vertex
    instance = ZeroErrorInstance(Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 2)
    with pytest.raises(InfeasibleError, match="no feasible D on the grid"):
        brute_force_oracle(instance, 2)


def test_oracle_multiset_cap(monkeypatch):
    wide = ZeroErrorInstance.build(Distribution.from_probs([0.6, 0.4]), TWO_BY_THREE, 4)
    with pytest.raises(CapExceededError, match="4171338501 multisets"):   # C(564, 4)
        brute_force_oracle(wide, 32)
    bsc = ZeroErrorInstance.build(UNIF, BSC)
    monkeypatch.setitem(CAPS, "ORACLE_MULTISET_CAP", math.comb(35, 3) - 1)
    with pytest.raises(CapExceededError):
        brute_force_oracle(bsc, 32)
    monkeypatch.setitem(CAPS, "ORACLE_MULTISET_CAP", math.comb(35, 3))
    assert brute_force_oracle(bsc, 32).objective == pytest.approx(
        binary_entropy(1 / 3), abs=1e-12)


def test_gamma_bracket(bsc_instance, bsc_alternate):
    s1 = bsc_alternate.objective
    lower, upper = gamma_bracket(bsc_instance, s1)
    assert lower == pytest.approx(mutual_information(UNIF, BSC), abs=1e-12)
    assert upper == s1
    with pytest.raises(InvalidInputError):
        gamma_bracket(bsc_instance, 0.01)


def test_factorization_serialization_round_trip(bsc_alternate):
    # factorization.json keeps every float of the factorization exactly
    doc = json.loads(json.dumps(bsc_alternate.to_json_dict()))
    assert doc["objective"] == bsc_alternate.objective
    assert np.array_equal(doc["E"]["rows"], bsc_alternate.E.rows)
    assert np.array_equal(doc["D"]["rows"], bsc_alternate.D.rows)
    assert np.array_equal(doc["mu"]["probs"], bsc_alternate.mu.probs)
    assert tuple(doc["trace"]) == bsc_alternate.trace


def test_make_factorization_rejects_infeasible(bsc_instance):
    with pytest.raises(InfeasibleError):
        make_factorization(bsc_instance, np.eye(2), np.array([[0.5, 0.5],
                                                              [0.5, 0.5]]))


def _reference_d_step(instance, e_rows, d_start):
    """d_step with the full halving ladder: every step is halved down to
    1e-12 before the ascent gives up, whether E pins D or not."""
    proj = zero_error._AffineProjector(e_rows, instance.channel.rows)
    d, ok = proj.onto_feasible(d_start)
    assert ok
    mu = instance.source.probs @ e_rows

    def objective(rows):
        vals = 0.0
        for c in range(rows.shape[0]):
            if mu[c] > 1e-12:
                vals += mu[c] * entropy(rows[c])
        return vals

    f = objective(d)
    step = 1.0
    for _ in range(500):
        grad = np.zeros_like(d)
        for c in range(d.shape[0]):
            if mu[c] > 1e-12:
                grad[c] = -mu[c] * (np.log2(np.clip(d[c], 1e-12, None)) + 1 / math.log(2))
        moved = False
        while step > 1e-12:
            cand, ok = proj.onto_feasible(d + step * grad)
            if ok:
                f_cand = objective(cand)
                if f_cand > f + zero_error.D_STEP_GAIN_ULPS * np.spacing(f):
                    gain = f_cand - f
                    d, f = cand, f_cand
                    step = min(step * 2.0, 1.0)
                    moved = True
                    break
            step *= 0.5
        if not moved or gain < zero_error.D_STEP_TOL:
            break
    dead = np.flatnonzero(e_rows.max(axis=0) <= 1e-12)
    for j, c in enumerate(dead):
        d[c] = instance.channel.rows[j % instance.channel.input_size]
    return d


def _live_rows_fixed(instance, e_rows):
    """Whether every direction that keeps E @ D = W and the row sums leaves
    the rows with mu_c > 1e-12 alone, from the null space of the constraint
    matrix (independent of the rank test d_step uses)."""
    proj = zero_error._AffineProjector(e_rows, instance.channel.rows)
    _, s, vt = np.linalg.svd(proj.A)
    null = vt[int((s > 1e-9 * s[0]).sum()):].reshape(-1, *proj.shape)
    live = instance.source.probs @ e_rows > 1e-12
    return np.abs(null[:, live]).max(initial=0.0) < 1e-9


@pytest.mark.parametrize("probs, e_rows, pinned", [
    ([0.5, 0.5], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True),
    ([0.5, 0.5], [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]], False),
    ([1.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], True),
    ([1.0, 0.0], [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], False),
    ([0.5, 0.5, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]], True),
], ids=["dead-zero", "three-live", "dead-used-pinned", "dead-used-free", "three-inputs"])
def test_pins_live_rows_hand_cases(probs, e_rows, pinned):
    """A zero-probability input may route to a dead symbol: the live rows
    stay pinned unless that column lies in the span of the live ones."""
    e_rows = np.array(e_rows)
    d_true = np.array([[0.75, 0.25], [0.1, 0.9], [0.5, 0.5]])
    instance = ZeroErrorInstance(Distribution.from_probs(probs),
                                 Channel.from_rows(e_rows @ d_true), 3)
    mu = instance.source.probs @ e_rows
    assert zero_error._pins_live_rows(e_rows, mu > 1e-12) == pinned
    assert _live_rows_fixed(instance, e_rows) == pinned
    got = d_step(instance, e_rows, d_true)
    assert got.tobytes() == _reference_d_step(instance, e_rows, d_true).tobytes()


def _d_step_calls(instance, seed, restarts, monkeypatch):
    """(e_rows, d_start) of every d_step call one alternate run makes."""
    calls = []
    original = zero_error.d_step

    def record(inst, e_rows, d_start):
        calls.append((e_rows.copy(), d_start.copy()))
        return original(inst, e_rows, d_start)

    monkeypatch.setattr(zero_error, "d_step", record)
    alternate(instance, seed=seed, restarts=restarts)
    monkeypatch.undo()
    return calls


ALTERNATE_BATTERY = [
    (UNIF, BSC),
    (Distribution.from_probs([0.6, 0.4]), SKEWED),
    _random_pair(11, 2, 2),
    _random_pair(12, 2, 3),
    _random_pair(13, 3, 2),
    _random_pair(14, 3, 3),
]


@pytest.mark.parametrize("source, channel", ALTERNATE_BATTERY,
                         ids=["bsc25", "skewed_pair", "random2x2", "random2x3", "random3x2",
                              "random3x3"])
def test_d_step_pinned_stop_equals_full_ladder(source, channel, monkeypatch):
    """On every E the alternation hands d_step, the rank test says E pins
    the live rows of D exactly when the constraints' null space leaves them
    alone (here every E pins them on the two-output pairs, and some leave
    three live symbols on two inputs). Unpinned, d_step is the full ladder, bit
    for bit. Pinned, it stops at the first candidate that does not gain
    past D_STEP_GAIN_ULPS ulps of f; rounding alone lifts f by far less, so
    the full ladder takes no later candidate and returns the same bytes."""
    instance = ZeroErrorInstance.build(source, channel)
    calls = _d_step_calls(instance, 3, 10, monkeypatch)
    pinned = 0
    for e_rows, d_start in calls:
        flag = zero_error._pins_live_rows(e_rows, source.probs @ e_rows > 1e-12)
        assert flag == _live_rows_fixed(instance, e_rows)
        got = d_step(instance, e_rows, d_start=d_start)
        want = _reference_d_step(instance, e_rows, d_start)
        pinned += flag
        assert got.tobytes() == want.tobytes()
    assert pinned >= 6
    assert (pinned == len(calls)) == (channel.output_size == 2)


def _unpinned_battery():
    """(instance, E, D start) where E @ D = W leaves live rows of D free: the
    one-parameter family of a single input on two symbols, from the feasible
    starts (t, 1 - t), (1 - t, t), and random E with 3 live symbols on 2
    inputs, from the D their W was built from."""
    rng = np.random.default_rng(31)
    half = ZeroErrorInstance(Distribution.from_probs([1.0]),
                             Channel.from_rows([[0.5, 0.5]]), 2)
    cases = [(half, np.array([[0.5, 0.5]]), np.array([[t, 1 - t], [1 - t, t]]))
             for t in (0.0, 0.1, 0.3, 0.45)]
    for y_size in (2, 3, 2, 3, 2, 3):
        e_rows = rng.dirichlet(np.ones(3), size=2)
        d_rows = rng.dirichlet(np.full(y_size, 4.0), size=3)
        w = Channel(2, y_size, e_rows @ d_rows)
        instance = ZeroErrorInstance(Distribution(2, rng.dirichlet(np.ones(2))), w, 3)
        cases.append((instance, e_rows, d_rows))
    return cases


def _mixture_entropy(instance, e_rows, d_rows):
    mu = instance.source.probs @ e_rows
    return sum(mu[c] * entropy(d_rows[c]) for c in range(len(mu)) if mu[c] > 1e-12)


def test_d_step_unpinned_equals_full_ladder():
    """From a feasible start that leaves live rows free, d_step moves D and
    gains, and returns the full ladder's bytes."""
    for instance, e_rows, d_start in _unpinned_battery():
        assert not zero_error._pins_live_rows(e_rows,
                                           instance.source.probs @ e_rows > 1e-12)
        assert not _live_rows_fixed(instance, e_rows)
        got = d_step(instance, e_rows, d_start=d_start)
        assert not np.array_equal(got, d_start)
        assert _mixture_entropy(instance, e_rows, got) > _mixture_entropy(instance, e_rows,
                                                                          d_start)
        assert got.tobytes() == _reference_d_step(instance, e_rows, d_start).tobytes()


def test_d_step_projects_each_candidate_once(monkeypatch):
    """Every candidate of the ascent costs one affine projection: on
    instance 31 of the zero-error golden battery (2 x 3, source (0.965,
    0.035)), whose ascents reject most candidates, alternate calls
    onto_feasible and affine equally often."""
    source = Distribution.from_probs([float.fromhex(v) for v in
                                      ("0x1.ee53703dec55ep-1", "0x1.1ac8fc213aa18p-5")])
    channel = Channel.from_rows([[float.fromhex(v) for v in row] for row in (
        ("0x1.314ad77426d4dp-3", "0x1.7aa9fb680353bp-4", "0x1.84580ab5f5e06p-1"),
        ("0x1.84a35cde3d8c9p-6", "0x1.0a94af78f8a5fp-1", "0x1.d28c6b402adb7p-2"))])
    calls = {"affine": 0, "onto_feasible": 0}
    projector = zero_error._AffineProjector
    for name in calls:
        def counted(self, d_rows, original=getattr(projector, name), name=name):
            calls[name] += 1
            return original(self, d_rows)
        monkeypatch.setattr(projector, name, counted)
    alternate(ZeroErrorInstance.build(source, channel), seed=31, restarts=3)
    assert calls["onto_feasible"] > 0
    assert calls["affine"] == calls["onto_feasible"]


def _reference_random_init(instance, rng):
    """_random_init as the per-try loop: one draw and one e_step per try.
    Also returns how many e_step calls the box test would not skip."""
    kept = 0
    for _ in range(200):
        d_rows = rng.dirichlet(np.ones(instance.channel.output_size), size=instance.c_max)
        kept += bool(zero_error._hull_candidates(d_rows[None], instance.channel.rows)[0])
        try:
            e_rows = e_step(instance, d_rows)
        except InfeasibleError:
            continue
        return (e_rows, d_rows), kept
    return None, kept


def test_dirichlet_stack_equals_per_try_draws():
    for y_size, c in ((2, 3), (3, 8), (3, 2)):
        stacked = np.random.default_rng(7).dirichlet(np.ones(y_size), size=(200, c))
        rng = np.random.default_rng(7)
        per_try = [rng.dirichlet(np.ones(y_size), size=c) for _ in range(200)]
        assert stacked.tobytes() == np.stack(per_try).tobytes()


@pytest.mark.parametrize("source, channel, c_max", [
    (UNIF, BSC, None),
    (Distribution.from_probs([0.6, 0.4]), SKEWED, None),
    (UNIF, BSC, 2),
    (UNIF, BSC, 1),
    (*_random_pair(12, 2, 3), 2),
    (*_random_pair(13, 3, 2), 3),
    (*_random_pair(14, 3, 3), 3),
    (*_random_pair(14, 3, 3), 4),
], ids=["bsc25", "skewed_pair", "bsc25-c2", "bsc25-c1", "random2x3-c2",
        "random3x2-c3", "random3x3-c3", "random3x3-c4"])
def test_random_init_equals_per_try_loop(source, channel, c_max, monkeypatch):
    """Same (E, D) bytes, or None, as the per-try loop, with e_step run only
    on the draws the box test keeps, up to the first feasible one."""
    instance = ZeroErrorInstance.build(source, channel, c_max)
    calls = []
    original = zero_error.e_step

    def counted(inst, d_rows):
        calls.append(d_rows)
        return original(inst, d_rows)

    for restart in range(1, 6):
        label = f"zero_error:restart:{restart}"
        want, kept = _reference_random_init(instance, child_rng(3, label))
        calls.clear()
        monkeypatch.setattr(zero_error, "e_step", counted)
        got = zero_error._random_init(instance, child_rng(3, label))
        monkeypatch.undo()
        assert len(calls) == kept
        assert (got is None) == (want is None)
        if want is not None:
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
    if c_max == 1:
        assert want is None and kept == 0
