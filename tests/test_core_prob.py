import numpy as np
import pytest

from chansim.core_prob import (
    Channel,
    Distribution,
    _clean_prob_vector,
    binary_entropy,
    conditional_entropy,
    entropy,
    entropy_rows,
    mutual_information,
    output_marginal,
    rate_lower_bound_defect,
    simplex_grid,
    tv_distance,
)
from chansim.errors import InvalidInputError

SEED = 20260819


def random_distribution(rng, a):
    return Distribution.from_probs(rng.dirichlet(np.ones(a)))


def random_channel(rng, a, b):
    return Channel.from_rows(rng.dirichlet(np.ones(b), size=a))


class TestConstruction:
    def test_renormalizes_small_deviation(self):
        p = Distribution.from_probs([0.5 + 2e-10, 0.5])
        assert abs(p.probs.sum() - 1.0) < 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(InvalidInputError):
            Distribution.from_probs([0.5, 0.6])

    def test_rejects_negative_entry(self):
        with pytest.raises(InvalidInputError):
            Distribution.from_probs([1.1, -0.1])

    def test_clips_tiny_negative_drift(self):
        p = Distribution.from_probs([1.0 + 5e-13, -5e-13])
        assert p.probs[1] == 0.0

    def test_channel_shape_checked(self):
        with pytest.raises(InvalidInputError):
            Channel(2, 3, np.ones((2, 2)) / 2)

    def test_probs_read_only(self):
        p = Distribution.from_probs([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(SEED)
        p = random_distribution(rng, 5)
        w = random_channel(rng, 3, 4)
        assert np.allclose(Distribution.from_json_dict(p.to_json_dict()).probs, p.probs)
        assert np.allclose(Channel.from_json_dict(w.to_json_dict()).rows, w.rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            Distribution.from_probs([bad, 1.0])
        with pytest.raises(InvalidInputError, match="channel row 1 has a non-finite"):
            Channel.from_rows([[0.5, 0.5], [bad, 1.0]])

    @pytest.mark.parametrize("rows", [[], np.zeros((0, 2)), np.zeros((2, 0)), [[]]])
    def test_rejects_empty_channel(self, rows):
        with pytest.raises(InvalidInputError):
            Channel.from_rows(rows)

def _loop_channel_rows(rows):
    """Row-by-row reference for Channel's vectorised validation."""
    return np.stack([_clean_prob_vector(r, f"channel row {x}")
                     for x, r in enumerate(np.asarray(rows, dtype=float))])


def _error_text(build, rows):
    with pytest.raises(InvalidInputError) as info:
        build(rows)
    return str(info.value)


class TestChannelValidation:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 9), (7, 130), (64, 64), (3, 300)])
    def test_rows_equal_per_row_loop(self, shape):
        rng = np.random.default_rng(SEED + shape[1])
        for trial in range(20):
            rows = rng.dirichlet(np.full(shape[1], 0.3), size=shape[0])
            if trial % 2:   # entries in (-1e-12, 0), mass moved to each row's largest
                drift = rng.random(shape) < 0.2
                rows[drift] = -rng.uniform(0.0, 1e-12, size=drift.sum())
                rows[np.arange(shape[0]), rows.argmax(axis=1)] += 1.0 - rows.sum(axis=1)
            rows *= 1.0 + rng.uniform(-9e-10, 9e-10, size=(shape[0], 1))
            for given in (rows, np.asfortranarray(rows), np.ascontiguousarray(rows.T).T,
                          rows[:, ::-1]):
                got = Channel.from_rows(given).rows
                assert got.flags.c_contiguous and not got.flags.writeable
                assert np.array_equal(got, _loop_channel_rows(given))

    def test_error_names_first_bad_row(self):
        good = [0.25, 0.75]
        cases = [
            [good, [0.5, 0.6], [1.1, -0.1], [np.nan, 1.0]],
            [good, good, [1.1, -0.1], [0.5, 0.6]],
            [good, [np.inf, 0.0], [0.5, 0.6]],
            [[1.2, -0.2], good, [0.5, 0.6]],
            [good, [0.5, 0.5 + 2e-9]],
            [good, [np.nan, -1.0]],
        ]
        for rows in cases:
            arr = np.array(rows, dtype=float)
            for given in (arr, np.asfortranarray(arr)):
                assert _error_text(Channel.from_rows, given) \
                    == _error_text(_loop_channel_rows, given)


class TestEntropy:
    def test_uniform(self):
        assert entropy(Distribution.uniform(8)) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass(self):
        h = entropy(Distribution.from_probs([1.0, 0.0, 0.0]))
        assert h == 0.0 and np.copysign(1.0, h) == 1.0     # +0, not -0

    def test_binary_entropy_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_zero_tolerance_entries_ignored(self):
        assert entropy(np.array([1.0, 1e-13])) == 0.0

    def test_bsc_mutual_information(self):
        p = Distribution.uniform(2)
        w = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
        assert mutual_information(p, w) == pytest.approx(1 - binary_entropy(0.25), abs=1e-12)

    def test_entropy_rows_equal_entropy_per_row(self):
        """Bit for bit, on simplex grids (wide ones too), and on 9-wide rows
        with 0 to 9 entries at or above ZERO_TOL, some exactly at it."""
        stacks = [simplex_grid(y_size, resolution) for y_size, resolution
                  in [(1, 5), (2, 400), (3, 30), (3, 12), (4, 10), (7, 4), (9, 2)]]
        rng = np.random.default_rng(SEED)
        rows = rng.dirichlet(np.ones(9), size=200)
        for row, live in zip(rows, rng.integers(0, 10, size=len(rows))):
            row[rng.permutation(9)[live:]] = rng.choice([0.0, 1e-12, 9e-13], size=9 - live)
        stacks.append(rows)
        for rows in stacks:
            want = np.array([entropy(r) for r in rows])
            assert entropy_rows(rows).tobytes() == want.tobytes()


def _reverse_channel(p, w):
    """Reference for the identities below: the output law q and the reverse
    channel V(x|y) = P(x) W(y|x) / q(y) of a source pushed through w."""
    joint = p.probs[:, None] * w.rows
    q = joint.sum(axis=0)
    return Distribution.from_probs(q), Channel.from_rows(joint.T / q[:, None])


class TestIdentities:
    """Information identities on random instances, alphabets 2..6."""

    def test_battery(self):
        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            a = int(rng.integers(2, 7))
            b = int(rng.integers(2, 7))
            p = random_distribution(rng, a)
            w = random_channel(rng, a, b)
            joint = p.probs[:, None] * w.rows
            q, v = _reverse_channel(p, w)

            hj = entropy(joint)
            assert hj == pytest.approx(entropy(p) + conditional_entropy(p, w), abs=1e-9)
            assert hj == pytest.approx(entropy(q) + conditional_entropy(q, v), abs=1e-9)

            i_fwd = mutual_information(p, w)
            i_bwd = mutual_information(q, v)
            assert i_fwd == pytest.approx(i_bwd, abs=1e-9)
            assert i_fwd == pytest.approx(entropy(p) + entropy(q) - hj, abs=1e-9)
            assert -1e-12 <= i_fwd <= min(entropy(p), entropy(q)) + 1e-9

            assert np.allclose(q.probs, output_marginal(p, w).probs)


class TestTVDistance:
    def test_triangle_inequality(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(2000):
            a = int(rng.integers(2, 9))
            p, q, r = (random_distribution(rng, a) for _ in range(3))
            assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(500):
            a = int(rng.integers(2, 9))
            p, q = random_distribution(rng, a), random_distribution(rng, a)
            d = tv_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert d == pytest.approx(tv_distance(q, p), abs=1e-15)

    def test_disjoint_supports(self):
        p = Distribution.from_probs([1.0, 0.0])
        q = Distribution.from_probs([0.0, 1.0])
        assert tv_distance(p, q) == 1.0


class TestRateDefect:
    def test_zero_at_zero(self):
        assert rate_lower_bound_defect(0.0, 4, 4) == 0.0

    def test_formula_value(self):
        lam = 0.1
        expect = 0.1 * (2 + 2 * 2) + 2 * binary_entropy(0.1)
        assert rate_lower_bound_defect(lam, 4, 4) == pytest.approx(expect, abs=1e-12)

    def test_monotone_on_valid_range(self):
        vals = [rate_lower_bound_defect(l, 3, 3) for l in np.linspace(0, 0.5, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            rate_lower_bound_defect(0.6, 2, 2)
