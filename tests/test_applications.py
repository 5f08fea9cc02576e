"""Tests for dilution plans, the rate-distortion solver, and the codes
built on top of the simulation machinery."""

import itertools
import math

import numpy as np
import pytest

from chansim import applications
from chansim.core_prob import Channel, Distribution, binary_entropy, entropy, simplex_grid
from chansim.errors import CapExceededError, InvalidInputError
from chansim.applications import (
    DilutionPlan,
    DistortionSpec,
    block_distortion_matrix,
    build_dilution,
    expected_distortion,
    pair_simulation_pipeline,
    rd_code_via_simulation,
    rd_function,
    rd_grid_oracle,
    realize_from_uniform,
    uniform_index_stream,
)

UNIF2 = Distribution.uniform(2)


def test_build_dilution_hand_instance():
    plan = build_dilution(Distribution.from_probs([0.5, 0.3, 0.2]), 0.1)
    assert plan.k == math.ceil((math.log2(3) - math.log2(0.1)) / 0.1) == 50
    assert plan.helper_size == 2500
    assert [b.members for b in plan.buckets] == [(0,), (1,), (2,)]
    assert plan.buckets[0].interval_index == 8  # 1.1**-8 <= 0.5 < 1.1**-7
    assert sum(b.weight_count for b in plan.buckets) == 2500
    assert plan.infinite_mass == 0.0
    # every probability got its own bucket and the weights divide evenly
    assert plan.tv_error() == pytest.approx(0.0, abs=1e-15)


def test_build_dilution_uniform_target_is_exact():
    plan = build_dilution(Distribution.uniform(7), 0.05)
    assert len(plan.buckets) == 1
    assert plan.tv_error() == 0.0
    assert plan.total_uniform_size == plan.helper_size * 7


def test_build_dilution_bucket_scale_and_tail():
    rng = np.random.default_rng(3)
    for eps in (0.05, 0.1, 0.2):
        for _ in range(20):
            size = int(rng.integers(2, 17))
            target = Distribution.from_probs(rng.dirichlet(np.ones(size)))
            plan = build_dilution(target, eps)
            assert plan.infinite_mass <= eps + 1e-12
            assert plan.tv_error() <= 2 * eps + 1.0 / plan.k + 1e-12
            for b in plan.buckets:
                vals = [target.probs[c] for c in b.members]
                assert max(vals) <= (1 + eps) * min(vals) * (1 + 1e-9)


def test_build_dilution_validation():
    with pytest.raises(InvalidInputError):
        build_dilution(UNIF2, 0.0)
    with pytest.raises(InvalidInputError):
        build_dilution(UNIF2, 1.0)


def test_realize_uniform_passthrough():
    plan = build_dilution(Distribution.uniform(5), 0.1)
    seen = {realize_from_uniform(plan, iter([u]))
            for u in range(plan.total_uniform_size)}
    assert seen == set(range(5))
    counts = np.bincount([realize_from_uniform(plan, iter([u]))
                          for u in range(plan.total_uniform_size)], minlength=5)
    assert np.all(counts == plan.total_uniform_size // 5)


def test_realize_tail_never_sampled():
    # 0.03 falls below 1.2**-17, so only the heavy element is realizable
    plan = build_dilution(Distribution.from_probs([0.97, 0.03]), 0.2)
    assert plan.infinite_mass == pytest.approx(0.03)
    stream = uniform_index_stream(plan.total_uniform_size, 5)
    assert all(realize_from_uniform(plan, stream) == 0 for _ in range(500))


def test_realize_empirical_frequencies():
    plan = build_dilution(Distribution.from_probs([0.45, 0.25, 0.18, 0.12]), 0.1)
    n = 10_000
    stream = uniform_index_stream(plan.total_uniform_size, 17)
    draws = [realize_from_uniform(plan, stream) for _ in range(n)]
    emp = np.bincount(draws, minlength=4) / n
    mix = plan.realized_mixture().probs
    mean_bound = 0.5 * sum(math.sqrt(p * (1 - p) / n) for p in mix)
    tv = 0.5 * np.abs(emp - mix).sum()
    assert tv <= mean_bound + 3.0 / (2.0 * math.sqrt(n))


def test_realize_stream_validation():
    plan = build_dilution(Distribution.from_probs([0.6, 0.4]), 0.1)
    with pytest.raises(InvalidInputError):
        realize_from_uniform(plan, iter([]))
    with pytest.raises(InvalidInputError):
        realize_from_uniform(plan, iter([plan.total_uniform_size]))
    with pytest.raises(InvalidInputError):
        realize_from_uniform(plan, iter([-1]))


def test_dilution_plan_serialization():
    plan = build_dilution(Distribution.from_probs([0.5, 0.3, 0.2]), 0.1)
    back = DilutionPlan.from_json_dict(plan.to_json_dict())
    assert back.buckets == plan.buckets
    assert (back.k, back.helper_size, back.total_uniform_size) \
        == (plan.k, plan.helper_size, plan.total_uniform_size)
    assert np.allclose(back.target.probs, plan.target.probs)


def test_distortion_spec_validation():
    with pytest.raises(InvalidInputError):
        DistortionSpec(((0.0, -1.0), (1.0, 0.0)), 0.1)
    with pytest.raises(InvalidInputError):
        DistortionSpec(((0.0, math.nan), (1.0, 0.0)), 0.1)
    with pytest.raises(InvalidInputError):
        DistortionSpec(((0.0, 1.0), (1.0, 0.0)), -0.1)
    with pytest.raises(InvalidInputError):
        DistortionSpec((0.0, 1.0), 0.1)
    spec = DistortionSpec.hamming(2, 0.1)
    assert spec.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert DistortionSpec.from_json_dict(spec.to_json_dict()) == spec


def test_expected_distortion_hand_value():
    bsc = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
    assert expected_distortion(UNIF2, bsc, DistortionSpec.hamming(2, 0.0)) \
        == pytest.approx(0.25)
    with pytest.raises(InvalidInputError):
        expected_distortion(UNIF2, bsc, DistortionSpec(((0.0, 1.0, 1.0),
                                                        (1.0, 0.0, 1.0)), 0.1))


def test_rd_function_binary_hamming_curve():
    for d in (0.05, 0.1, 0.25):
        rate, w = rd_function(UNIF2, DistortionSpec.hamming(2, d), 2)
        assert rate == pytest.approx(1.0 - binary_entropy(d), abs=1e-6)
        meas = expected_distortion(UNIF2, w, DistortionSpec.hamming(2, d))
        assert meas == pytest.approx(d, abs=1e-6)


def test_rd_function_corners():
    rate, w = rd_function(UNIF2, DistortionSpec.hamming(2, 0.0), 2)
    assert rate == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(w.rows, np.eye(2), atol=1e-9)
    src = Distribution.from_probs([0.7, 0.3])
    rate, w = rd_function(src, DistortionSpec.hamming(2, 0.0), 2)
    assert rate == pytest.approx(entropy(src), abs=1e-9)
    rate, w = rd_function(UNIF2, DistortionSpec.hamming(2, 0.6), 2)
    assert rate == 0.0
    assert np.allclose(w.rows, [[1.0, 0.0], [1.0, 0.0]])
    assert expected_distortion(UNIF2, w, DistortionSpec.hamming(2, 0.6)) <= 0.6


def test_rd_function_infeasible_and_shape_errors():
    spec = DistortionSpec(((0.5, 1.0), (1.0, 0.5)), 0.3)
    with pytest.raises(InvalidInputError):
        rd_function(UNIF2, spec, 2)
    with pytest.raises(InvalidInputError):
        rd_function(Distribution.uniform(3), DistortionSpec.hamming(2, 0.1), 2)
    with pytest.raises(InvalidInputError):
        rd_function(UNIF2, DistortionSpec.hamming(2, 0.1), 3)


def test_rd_function_monotone_and_convex():
    ds = np.linspace(0.02, 0.48, 12)
    rates = [rd_function(UNIF2, DistortionSpec.hamming(2, float(d)), 2)[0]
             for d in ds]
    assert all(b <= a + 1e-8 for a, b in zip(rates, rates[1:]))
    for i in range(1, len(rates) - 1):
        assert rates[i - 1] + rates[i + 1] >= 2 * rates[i] - 1e-8


def test_rd_grid_oracle_certifies_binary_hamming():
    # resolution 400 puts the optimal channel exactly on the grid
    for d in (0.05, 0.1, 0.25):
        spec = DistortionSpec.hamming(2, d)
        r_grid, w_grid = rd_grid_oracle(UNIF2, spec, 2, 400)
        assert r_grid == pytest.approx(1.0 - binary_entropy(d), abs=1e-12)
        assert expected_distortion(UNIF2, w_grid, spec) <= d + 1e-12
        r_alt, _ = rd_function(UNIF2, spec, 2)
        assert abs(r_alt - r_grid) <= 1e-6


def test_rd_grid_oracle_two_by_three():
    src = Distribution.from_probs([0.6, 0.4])
    spec = DistortionSpec(((0.0, 1.0, 0.5), (1.0, 0.0, 0.5)), 0.2)
    r_alt, w_alt = rd_function(src, spec, 3)
    r_grid, w_grid = rd_grid_oracle(src, spec, 3, 40)
    assert r_grid >= r_alt - 1e-6      # grid points are feasible channels
    assert r_grid - r_alt <= 0.05      # pitch-limited gap
    assert expected_distortion(src, w_grid, spec) <= 0.2 + 1e-12


def _reference_grid_oracle(source, spec, y_size, resolution, chunk_size):
    """rd_grid_oracle's per-chunk arithmetic on chunks cut from a plain
    itertools.product loop over grid-row indices."""
    rows = simplex_grid(y_size, resolution)
    x_size = source.alphabet_size
    row_cost = rows @ spec.matrix.T
    row_ent = np.array([entropy(r) for r in rows])
    best_rate, best_idx = math.inf, None
    combos = itertools.product(range(len(rows)), repeat=x_size)
    while True:
        chunk = np.array(list(itertools.islice(combos, chunk_size)), dtype=np.int64)
        if chunk.size == 0:
            return best_rate, rows[best_idx]
        dist = (row_cost[chunk, np.arange(x_size)] * source.probs).sum(axis=1)
        ok = np.flatnonzero(dist <= spec.target_d + 1e-12)
        if ok.size == 0:
            continue
        q = np.einsum("x,cxy->cy", source.probs, rows[chunk[ok]])
        with np.errstate(divide="ignore", invalid="ignore"):
            h_q = -np.where(q > 0, q * np.log2(np.where(q > 0, q, 1.0)), 0.0).sum(axis=1)
        rate = h_q - row_ent[chunk[ok]] @ source.probs
        j = int(np.argmin(rate))
        if rate[j] < best_rate - 1e-15:
            best_rate, best_idx = float(rate[j]), chunk[ok[j]]


@pytest.mark.parametrize("source, spec, y_size, resolution", [
    (UNIF2, DistortionSpec.hamming(2, 0.1), 2, 400),
    (Distribution.from_probs([0.6, 0.4]),
     DistortionSpec(((0.0, 1.0, 0.5), (1.0, 0.0, 0.5)), 0.2), 3, 20),
    (Distribution.from_probs([0.6, 0.4]),
     DistortionSpec(((0.0, 1.0, 0.5), (1.0, 0.0, 0.5)), 0.3), 3, 20),
])
@pytest.mark.parametrize("chunk_size", [7, 1000])
def test_rd_grid_chunks_follow_product_order(monkeypatch, chunk_size, source,
                                             spec, y_size, resolution):
    default_rate, default_channel = rd_grid_oracle(source, spec, y_size, resolution)
    monkeypatch.setattr(applications, "GRID_CHUNK", chunk_size)
    rate, channel = rd_grid_oracle(source, spec, y_size, resolution)
    ref_rate, ref_rows = _reference_grid_oracle(source, spec, y_size, resolution,
                                                chunk_size)
    assert (rate, channel.rows.tolist()) == (ref_rate, ref_rows.tolist())
    assert channel.rows.tolist() == default_channel.rows.tolist()
    # other chunk sizes send other batch lengths through the vector kernels,
    # which may move the rate's last bits (at d = 0.3: 1.1e-16 at size 7)
    assert rate == pytest.approx(default_rate, rel=0, abs=1e-15)


def test_rd_grid_oracle_validation():
    with pytest.raises(InvalidInputError):
        rd_grid_oracle(UNIF2, DistortionSpec.hamming(2, 0.1), 2, 1)
    big = Distribution.uniform(3)
    spec = DistortionSpec(tuple(tuple(float(i != j) for j in range(3))
                                for i in range(3)), 0.2)
    with pytest.raises(CapExceededError):
        rd_grid_oracle(big, spec, 3, 300)


def test_block_distortion_matrix_hand_values():
    m = block_distortion_matrix(DistortionSpec.hamming(2, 0.0), 2)
    assert m.shape == (4, 4)
    assert m[1, 3] == pytest.approx(0.5)   # (0,1) vs (1,1): one mismatch
    assert m[2, 2] == 0.0
    assert m[0, 3] == 1.0


def test_rd_code_via_simulation_small_block():
    spec = DistortionSpec.hamming(2, 0.25)
    res = rd_code_via_simulation(UNIF2, spec, 2, n=4, delta=2.0, epsilon=0.1,
                                 seed=7)
    assert 0 <= res.nu < res.code.N
    assert res.distortion <= res.average_distortion + 1e-12
    assert res.distortion <= res.target_d + res.slack
    assert res.rate >= res.rd_value - 1e-6
    assert res.rd_value == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-6)
    doc = res.to_json_dict()
    assert doc["nu"] == res.nu and doc["rate"] == res.rate


def test_rd_code_constant_target_needs_no_shared_randomness():
    spec = DistortionSpec.hamming(2, 0.9)
    res = rd_code_via_simulation(UNIF2, spec, 2, n=4, delta=2.0, epsilon=0.1,
                                 seed=7)
    assert res.rd_value == 0.0
    assert np.allclose(res.channel.rows, [[1.0, 0.0], [1.0, 0.0]])
    # the output word is forced, so a single shared index suffices; the
    # message budget still pays the full union-bound M for its families
    assert res.code.N == 1
    assert res.rate == pytest.approx(
        (res.code.max_log2_M() + res.code.announce_bits) / 4)
    assert res.distortion == pytest.approx(0.5)  # half the letters disagree
    assert res.distortion <= 0.9


def test_pair_simulation_pipeline_exact_accounting():
    bsc = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
    pipe = pair_simulation_pipeline(UNIF2, bsc, n=4, delta=2.0, epsilon=0.1,
                                    seed=7)
    assert pipe.message_law.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert pipe.message_count == len(pipe.message_law.probs)
    assert pipe.joint_tv <= pipe.code_joint_tv + pipe.dilution_tv + 1e-9
    assert pipe.dilution_tv <= 2 * pipe.plan.epsilon + 1.0 / pipe.plan.k + 1e-12
    assert pipe.cr_bits_exact > 0
    assert pipe.cr_bits_per_letter == pytest.approx(pipe.cr_bits_exact / 4)
    assert "conjectural" in pipe.note
