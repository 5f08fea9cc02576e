import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansim import covering
from chansim.core_prob import Channel, Distribution
from chansim.covering import (
    CoveringFamily,
    build_covering,
    class_sizing,
    compatibility_matrix,
    lemma2_failure_bound,
    verify_covering,
)
from chansim.errors import CAPS, CapExceededError, InvalidInputError, RetriesExhaustedError
from chansim.simulate import FamilyRecord, jointly_typical_types
from chansim.typeclasses import (
    ExactType,
    JointType,
    count_joint_occurrences,
    enumerate_joint_types,
    enumerate_type_class,
    enumerate_type_classes,
    joint_type_class_size,
    type_class_size,
)

from test_typeclasses import conditional_type_class_size

SEED = 424242

T_N4 = JointType(4, ((2, 1), (0, 1)))
# the identity-style instance: R = S = (2, 2), diagonal joint counts
T_DIAG = JointType(4, ((2, 0), (0, 2)))


def type_sizing(t, epsilon):
    """The (M, N) t's covering family is drawn at: class_sizing of its
    class sizes."""
    return class_sizing(t.class_sizes, epsilon, t.n)


def announced_types(source, channel, n, delta):
    """The jointly typical types as JointTypes, in announcement order."""
    return [JointType(n, counts)
            for counts, _ in sorted(jointly_typical_types(source, channel, n, delta))]


def rank_counts(t, words):
    """The multiplicity table of an explicit (N, M) array of class ranks; a
    rank outside the class widens the table past |T_S|."""
    size_s = type_class_size(t.col_marginal())
    return np.array([np.bincount(row, minlength=size_s) for row in np.asarray(words)])


def all_cells_reference(t, x_words, y_words):
    """The compatibility matrix with every cell of the joint type compared,
    in integer arithmetic: the rule before the interior cells sufficed."""
    ok = np.ones((len(x_words), len(y_words)), dtype=bool)
    for a in range(t.x_size):
        xa = (x_words == a).astype(np.int64)
        for b in range(t.y_size):
            ok &= (xa @ (y_words == b).astype(np.int64).T) == t.counts[a][b]
    return ok


def list_ranks(fam, nu):
    """List nu of the family as its M class ranks in slot order."""
    return np.repeat(np.arange(fam.counts.shape[1]), fam.counts[nu])


def all_lists(fam):
    """Every list of the family as class ranks in slot order, shape (N, M)."""
    return np.stack([list_ranks(fam, nu) for nu in range(fam.N)])


def log_binomial_tails(M, s, eta):
    """Natural logs of the exact P(Bin(M, s) >= (1 + eta) M s) and
    P(Bin(M, s) <= (1 - eta) M s), summed in log space (-inf when empty)."""
    def log_sum(ks):
        terms = np.array([math.lgamma(M + 1) - math.lgamma(k + 1) - math.lgamma(M - k + 1)
                          + k * math.log(s) + (M - k) * math.log1p(-s) for k in ks])
        if terms.size == 0:
            return -math.inf
        return float(terms.max() + np.log(np.exp(terms - terms.max()).sum()))
    mean = M * s
    return (log_sum(range(math.ceil((1 + eta) * mean - 1e-9), M + 1)),
            log_sum(range(0, math.floor((1 - eta) * mean + 1e-9) + 1)))


class TestFailureBound:
    def test_plug_in_value(self):
        got = lemma2_failure_bound(2, 1000, 0.1, 0.5)
        assert got == pytest.approx(2 * (math.exp(-5 / 2.1) + math.exp(-5 / 2)), rel=1e-12)

    # at (100000, 0.01, 0.49) the exact P(X >= 1490) is e^-108.86, above the
    # old 2K e^(-M eta^2 s / 2) = e^-119.36; the bound is now e^-96.43
    @pytest.mark.parametrize("M, s, eta", [(100_000, 0.01, 0.49)] + [
        (M, s, eta) for M in (20, 500, 5000) for s in (0.01, 0.3, 0.9)
        for eta in (0.05, 0.25, 0.49)])
    def test_bounds_the_exact_tails(self, M, s, eta):
        upper, lower = log_binomial_tails(M, s, eta)
        exact = np.logaddexp(upper, lower)
        for K in (1, 5):
            bound = lemma2_failure_bound(K, M, eta, s)
            assert math.log(bound) >= math.log(K) + exact - 1e-12

    def test_decreasing_in_M(self):
        vals = [lemma2_failure_bound(4, m, 0.2, 0.3) for m in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            lemma2_failure_bound(2, 10, 0.6, 0.5)
        with pytest.raises(InvalidInputError):
            lemma2_failure_bound(2, 10, 0.1, 0.0)
        with pytest.raises(InvalidInputError):
            lemma2_failure_bound(0, 10, 0.1, 0.5)


class TestRequiredSizes:
    def test_strictness_of_both_inequalities(self):
        for t in (T_N4, T_DIAG, JointType(6, ((3, 1), (1, 1)))):
            M, N = type_sizing(t, 0.1)
            size_r = type_class_size(t.row_marginal())
            size_s = type_class_size(t.col_marginal())
            size_t = joint_type_class_size(t)
            c = 2 * math.log(2) / 0.01
            assert M > c * (size_r * size_s / size_t) * math.log2(4 * N * size_r)
            assert N * M > c * size_s * math.log2(4 * size_s)
            # minimality in M at this N
            assert M - 1 <= max(c * (size_r * size_s / size_t) * math.log2(4 * N * size_r),
                                c * size_s * math.log2(4 * size_s) / N)

    def test_diagonal_instance_cardinalities(self):
        # R = S = (2,2) and diagonal counts: all three class sizes equal 6
        assert type_class_size(T_DIAG.row_marginal()) == 6
        assert type_class_size(T_DIAG.col_marginal()) == 6
        assert joint_type_class_size(T_DIAG) == 6
        M, N = type_sizing(T_DIAG, 0.1)
        assert M >= 1 and N >= 1

    def test_epsilon_halving_quadruples_M(self):
        for t in (T_N4, T_DIAG):
            M1, _ = type_sizing(t, 0.2)
            M2, _ = type_sizing(t, 0.1)
            assert M2 >= 4 * M1 - 3

    def test_list_count_is_a_power_of_two_at_or_above_the_alternation(self):
        """On T_N4, T_DIAG and every jointly typical type of bsc25 at n = 6:
        N is the smallest power of two at or above the count where the two
        inequalities meet, and M the smallest size meeting both at N."""
        bsc = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
        c = 2 * math.log(2) / 0.1 ** 2
        for t in [T_N4, T_DIAG] + announced_types(Distribution.uniform(2), bsc, 6, 2.0):
            size_r, size_s, size_t = t.class_sizes
            rhs_ii = c * size_s * math.log2(4 * size_s)

            def rhs_i(N):
                return c * (size_r * size_s / size_t) * math.log2(4 * N * size_r)

            def meets_both(M, N):
                return M > rhs_i(N) and N * M > rhs_ii

            met = 1     # alternate the two inequalities from N = 1
            while not meets_both(math.floor(rhs_i(met)) + 1, met):
                met = math.floor(rhs_ii / (math.floor(rhs_i(met)) + 1)) + 1
            M, N = type_sizing(t, 0.1)
            assert N & (N - 1) == 0 and met <= N < 2 * met
            assert meets_both(M, N) and not meets_both(M - 1, N)

    def test_epsilon_domain(self):
        with pytest.raises(InvalidInputError):
            type_sizing(T_N4, 0.6)


class TestVerification:
    def test_guaranteed_family_passes(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        check = verify_covering(fam)
        assert check.passed
        assert check.condition_I_margin.shape == (fam.N,)
        assert np.all(check.condition_I_margin >= 0)
        assert check.condition_II_margin >= 0

    def test_saturation_family_condition_II_margin_is_epsilon(self):
        # every list enumerates the whole class once: (II) is exact
        size_s = type_class_size(T_N4.col_marginal())
        words = np.tile(np.arange(size_s), (2, 1))
        fam = CoveringFamily(T_N4, 2, size_s, rank_counts(T_N4, words), 0.1)
        check = verify_covering(fam)
        assert check.condition_II_margin == pytest.approx(0.1, abs=1e-12)

    def test_point_mass_family_fails_condition_II(self):
        words = np.zeros((2, 50), dtype=int)
        fam = CoveringFamily(T_N4, 2, 50, rank_counts(T_N4, words), 0.1)
        check = verify_covering(fam)
        assert check.condition_II_margin < 0
        assert not check.passed

    def test_margins_permutation_invariant(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED + 1)
        rng = np.random.default_rng(SEED)
        shuffled = all_lists(fam)
        for nu in range(fam.N):
            rng.shuffle(shuffled[nu])
        fam2 = CoveringFamily(fam.joint_type, fam.N, fam.M,
                              rank_counts(fam.joint_type, shuffled), fam.epsilon)
        c1, c2 = verify_covering(fam), verify_covering(fam2)
        assert np.allclose(c1.condition_I_margin, c2.condition_I_margin)
        assert c1.condition_II_margin == pytest.approx(c2.condition_II_margin, abs=1e-15)

    def test_stored_words_have_type_S(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED + 2)
        s = T_N4.col_marginal()
        for nu in (0, fam.N - 1):
            for mu in (0, 1, fam.M - 1):
                word = fam.word(nu, mu)
                from chansim.typeclasses import count_occurrences
                assert count_occurrences(word, 2) == s


class TestBuild:
    def test_deterministic_under_seed(self):
        f1 = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        f2 = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        assert np.array_equal(f1.counts, f2.counts)
        assert f1.retries == f2.retries

    def test_sized_mode_too_small_exhausts_retries(self, monkeypatch):
        monkeypatch.setattr(covering, "DEFAULT_MAX_RETRIES", 5)
        with pytest.raises(RetriesExhaustedError, match="5 times"):
            build_covering(T_N4, 0.1, 1, 1, seed=SEED)

    def test_rank_validation(self):
        with pytest.raises(InvalidInputError):
            CoveringFamily(T_N4, 1, 2, rank_counts(T_N4, [[0, 99]]), 0.1)

    def test_compatible_counts_positive_on_guaranteed_families(self):
        # condition (I) with margin >= 0 forces c_nu(x) > 0 everywhere
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED + 4)
        x_words = np.asarray(enumerate_type_class(T_N4.row_marginal()))
        y_words = fam.y_class_words
        for nu in range(fam.N):
            ranks = list_ranks(fam, nu)
            for xi in range(x_words.shape[0]):
                c = sum(count_joint_occurrences(x_words[xi], y_words[r], 2, 2) == T_N4
                        for r in ranks[:200])
                # only a prefix is checked here; full check is in verify_covering
                assert c >= 0
        check = verify_covering(fam)
        assert np.all(check.condition_I_margin >= 0)


class RecordingRng:
    """A seeded generator that records the shape of each table of uniforms
    it draws."""

    def __init__(self, seed):
        self.rng, self.random_calls = np.random.default_rng(seed), []

    def random(self, shape):
        self.random_calls.append(shape)
        return self.rng.random(shape)

    def integers(self, high, size):
        return self.rng.integers(high, size=size)


def exact_truncated_poisson(lam, K):
    """The pmf proportional to lam^k / k! on 0..K, exactly, as Fractions
    (lam is a float, so a rational), and an exact upper bound on the
    Poisson(lam) mass past K: sum_{k > K} lam^k / k! is at most
    lam^(K+1) / (K+1)! / (1 - lam / (K + 2)), a geometric series, and
    dividing it by sum_{k <= K} lam^k / k! bounds the tail, since
    e^-lam sum_{k <= K} lam^k / k! <= 1."""
    lam = Fraction(lam)
    terms = [Fraction(1)]
    for k in range(1, K + 2):
        terms.append(terms[-1] * lam / k)
    head = sum(terms[:-1])
    return [t / head for t in terms[:-1]], terms[-1] / (1 - lam / (K + 2)) / head


def table_law(table):
    """The exact law of _poisson_cells' draws from one table: NumPy's
    uniforms are j / 2^53 for j in [0, 2^53), and a draw is the number of
    edges at or below G u, so P(draw <= k) = ceil(2^53 edges[k] / G) / 2^53."""
    _, edges, _, _ = table
    cdf = [math.ceil(Fraction(e) * 2 ** 53 / covering.POISSON_GUIDE) for e in edges]
    cdf = np.array([0] + cdf + [2 ** 53], dtype=object)
    return [Fraction(int(c), 2 ** 53) for c in np.diff(cdf)]


class TestUniformCounts:
    """covering._uniform_counts draws each row as Multinomial(M, uniform)."""

    # chi-square upper 1e-6 quantiles at the degrees of freedom of each law
    @pytest.mark.parametrize("M, size_s, bound", [(6, 3, 77.19), (12, 2, 50.83),
                                                  (3, 2, 30.66)])
    def test_rows_follow_the_multinomial_law(self, M, size_s, bound):
        rows = covering._uniform_counts(np.random.default_rng(M), M, size_s, 200_000)
        outcomes = [c for c in itertools.product(range(M + 1), repeat=size_s)
                    if sum(c) == M]
        pmf = np.array([math.factorial(M) / math.prod(map(math.factorial, c))
                        for c in outcomes]) / size_s ** M
        seen = dict(zip(map(tuple, outcomes), np.zeros(len(outcomes), dtype=int)))
        found, counts = np.unique(rows, axis=0, return_counts=True)
        for row, k in zip(found.tolist(), counts):
            seen[tuple(row)] += k           # a row off the simplex raises KeyError
        expected = rows.shape[0] * pmf
        chi2 = float((((np.array(list(seen.values())) - expected) ** 2) / expected).sum())
        assert chi2 <= bound

    @pytest.mark.parametrize("M, size_s, N", [(1, 4, 50), (4, 3, 1), (7, 1, 5),
                                              (100, 1, 1), (3866, 252, 4)])
    def test_rows_sum_to_M_in_a_frozen_int64_table(self, M, size_s, N):
        rows = covering._uniform_counts(np.random.default_rng(0), M, size_s, N)
        assert rows.shape == (N, size_s) and rows.dtype == np.int64
        assert rows.min() >= 0 and np.all(rows.sum(axis=1) == M)
        assert rows.flags.owndata and not rows.flags.writeable

    def test_small_M_is_all_shortfall(self):
        rng = RecordingRng(1)
        rows = covering._uniform_counts(rng, 4, 3, 10)
        assert rng.random_calls == [] and np.all(rows.sum(axis=1) == 4)

    def test_rows_over_M_are_drawn_again(self, monkeypatch):
        tables, draw = [], covering._poisson_cells
        monkeypatch.setattr(covering, "_poisson_cells",
                            lambda rng, table, shape: tables.append(table) or
                            draw(rng, table, shape))
        rng = RecordingRng(2)
        rows = covering._uniform_counts(rng, 100, 5, 1000)
        sizes = [shape[0] for shape in rng.random_calls]
        # total mean 100 - 2 sqrt(100) = 80 over 5 cells, in every draw
        assert all(table is covering._poisson_table(16.0) for table in tables)
        assert len(tables) == len(sizes) >= 2
        assert all(shape[1] == 5 for shape in rng.random_calls)
        # fewer than 10% of the rows are drawn again
        assert sizes[0] == 1000 and 0 < sum(sizes[1:]) < 100
        assert np.all(rows.sum(axis=1) == 100)

    @pytest.mark.parametrize("lam", [0.5, 15.3, 36.0, 203.0, 1119.0])
    def test_table_law_is_the_truncated_poisson_law(self, lam):
        """The law a table draws is within a total variation of 1e-12 of the
        Poisson pmf truncated at K, both taken exactly, and the mass Poisson
        puts past K is below 2^-60."""
        table = covering._poisson_table(lam)
        K = table[0]
        exact, tail = exact_truncated_poisson(lam, K)
        drawn = table_law(table)
        drawn += [Fraction(0)] * (K + 1 - len(drawn))
        assert len(drawn) == K + 1
        tv = math.fsum(abs(float(d - e)) for d, e in zip(drawn, exact)) / 2
        assert tv <= 1e-12
        assert tail < Fraction(1, 2 ** 60)

    @pytest.mark.parametrize("lam", [0.5, 15.3, 36.0, 1119.0])
    def test_guide_draws_equal_plain_inversion(self, lam):
        """The guide and its searches give the same count as searching every
        uniform, including uniforms on and next to the edges."""
        table = covering._poisson_table(lam)
        _, edges, guide, ambiguous = table
        assert not any(a.flags.writeable for a in (edges, guide, ambiguous))
        got = covering._poisson_cells(np.random.default_rng(5), table, (400, 250))
        u = np.random.default_rng(5).random((400, 250))
        want = np.searchsorted(edges, u * covering.POISSON_GUIDE, side="right")
        assert got.dtype == np.int64 and got.flags.owndata
        assert np.array_equal(got, want)
        near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        near = near[(near >= 0) & (near < covering.POISSON_GUIDE)] / covering.POISSON_GUIDE

        class Fixed:
            def random(self, shape):
                return near.reshape(shape).copy()

        got = covering._poisson_cells(Fixed(), table, near.shape)
        assert np.array_equal(got, np.searchsorted(edges, near * covering.POISSON_GUIDE,
                                                   side="right"))

    def test_a_cleared_table_cache_draws_the_same_rows(self):
        first = covering._uniform_counts(np.random.default_rng(9), 300, 7, 50)
        covering._poisson_table.cache_clear()
        again = covering._uniform_counts(np.random.default_rng(9), 300, 7, 50)
        assert np.array_equal(first, again)

    def test_cells_have_the_binomial_marginal(self):
        """At (M, |T_S|, N) = (3866, 252, 4096), a bsc25 n = 10 shape, each
        cell is Binomial(M, 1/|T_S|): every column's mean, and the mean
        squared deviation over all cells, are within 5 standard errors."""
        M, size_s, N = 3866, 252, 4096
        rows = covering._uniform_counts(np.random.default_rng(17), M, size_s, N)
        p = 1.0 / size_s
        mean, var = M * p, M * p * (1 - p)
        assert np.all(np.abs(rows.mean(axis=0) - mean) <= 5 * math.sqrt(var / N))
        # the rows are independent, so the row averages of the squared
        # deviation give the standard error of their mean
        sq = ((rows - mean) ** 2).mean(axis=1)
        assert abs(sq.mean() - var) <= 5 * sq.std(ddof=1) / math.sqrt(N)

    def test_build_hands_the_drawn_table_over(self, monkeypatch):
        drawn, draw = [], covering._uniform_counts
        monkeypatch.setattr(covering, "_uniform_counts",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        assert fam.counts is drawn[-1] and len(drawn) == fam.retries + 1


@st.composite
def small_families(draw):
    """A joint type of two short words over alphabets of 2 or 3 letters and
    an explicit (N, M) array of column-class ranks."""
    n = draw(st.integers(2, 5))
    x_size, y_size = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    x = draw(st.lists(st.integers(0, x_size - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, y_size - 1), min_size=n, max_size=n))
    t = count_joint_occurrences(x, y, x_size, y_size)
    size_s = type_class_size(t.col_marginal())
    N, M = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    ranks = draw(st.lists(st.integers(0, size_s - 1), min_size=N * M, max_size=N * M))
    return t, np.array(ranks, dtype=np.int64).reshape(N, M)


class TestCompatibilityMatrix:
    @pytest.mark.parametrize("x_size, y_size", itertools.product((2, 3), repeat=2))
    def test_interior_cells_match_every_cell(self, x_size, y_size):
        checked = 0
        for n in range(1, 6):
            for base in enumerate_type_classes(n, x_size):
                x_words = enumerate_type_class(base)
                for t in enumerate_joint_types(base, y_size):
                    y_words = enumerate_type_class(t.col_marginal())
                    got = compatibility_matrix(t, x_words, y_words)
                    assert np.array_equal(got, all_cells_reference(t, x_words, y_words)), t
                    # each x word sees exactly its conditional class
                    assert np.all(got.sum(axis=1) == conditional_type_class_size(t)), t
                    checked += 1
        assert checked == sum(math.comb(n + x_size * y_size - 1, n) for n in range(1, 6))


class TestMultiplicityTables:
    @settings(max_examples=60, deadline=None)
    @given(small_families())
    def test_margins_match_pairwise_brute_force(self, case):
        t, words = case
        N, M = words.shape
        fam = CoveringFamily(t, N, M, rank_counts(t, words), 0.1)
        x_words = enumerate_type_class(t.row_marginal())
        y_words = enumerate_type_class(t.col_marginal())
        size_r, size_s = len(x_words), len(y_words)
        mean_i = M * joint_type_class_size(t) / (size_r * size_s)
        margin_i = [0.1 - max(abs(sum(count_joint_occurrences(x, y_words[r], t.x_size,
                                                                t.y_size) == t
                                      for r in words[nu]) / mean_i - 1.0)
                              for x in x_words)
                    for nu in range(N)]
        occurrences = [np.count_nonzero(words == r) for r in range(size_s)]
        margin_ii = 0.1 - max(abs(c / (N * M / size_s) - 1.0) for c in occurrences)
        check = verify_covering(fam)
        assert np.allclose(check.condition_I_margin, margin_i, rtol=0, atol=1e-12)
        assert check.condition_II_margin == pytest.approx(margin_ii, abs=1e-12)
        assert check.passed == (margin_ii >= 0 and min(margin_i) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(small_families())
    def test_condition_I_margins_equal_the_float64_product_bit_for_bit(self, case):
        """The float32 product gives the margins of the float64 product,
        byte for byte."""
        t, words = case
        N, M = words.shape
        fam = CoveringFamily(t, N, M, rank_counts(t, words), 0.1)
        hits = fam.counts.astype(np.float64) @ fam.compat.T.astype(np.float64)
        mean_i = M * joint_type_class_size(t) / (hits.shape[1] * fam.counts.shape[1])
        want = 0.1 - np.abs(hits / mean_i - 1.0).max(axis=1)
        assert verify_covering(fam).condition_I_margin.tobytes() == want.tobytes()

    def test_a_family_of_2_24_entries_is_verified_in_float64(self):
        """At M = 2^24 + 1 float32 cannot hold c_nu(x) = M, the largest
        deviation of a list whose every entry is compatible with x; the
        margins are still exact."""
        M = 2 ** 24 + 1
        size_s = type_class_size(T_N4.col_marginal())
        counts = np.zeros((2, size_s), dtype=np.int64)
        counts[0, [0, 1, 3]] = (M + 1) // 3, (M + 1) // 3, M - 2 * ((M + 1) // 3)
        counts[1] = M // size_s
        counts[1, :M % size_s] += 1
        fam = CoveringFamily(T_N4, 2, M, counts, 0.1)
        hits = np.array(counts.tolist(), dtype=object) @ fam.compat.T.astype(int)
        assert hits.max() == M and int(np.float32(M)) != M
        mean_i = M * joint_type_class_size(T_N4) / (hits.shape[1] * size_s)
        want = [0.1 - max(abs(int(h) / mean_i - 1.0) for h in row) for row in hits]
        assert verify_covering(fam).condition_I_margin.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(small_families())
    def test_list_ranks_and_words_follow_the_counts(self, case):
        t, words = case
        N, M = words.shape
        fam = CoveringFamily(t, N, M, rank_counts(t, words), 0.1)
        lists = all_lists(fam)
        assert np.array_equal(lists, np.sort(words, axis=1))
        y_words = fam.y_class_words
        for nu in range(N):
            for mu in range(M):
                assert fam.word(nu, mu) == tuple(y_words[lists[nu, mu]])

    def test_counts_validation(self):
        size_s = type_class_size(T_N4.col_marginal())
        with pytest.raises(InvalidInputError):  # a row not summing to M
            CoveringFamily(T_N4, 1, 3, counts=np.ones((1, size_s), dtype=int), epsilon=0.1)
        with pytest.raises(InvalidInputError):  # wrong table width
            CoveringFamily(T_N4, 1, 2, counts=[[1, 1]], epsilon=0.1)

    def test_counts_table_is_read_only(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        assert np.all(fam.counts.sum(axis=1) == fam.M)
        with pytest.raises(ValueError):
            fam.counts[0, 0] = 1

    def test_a_writable_table_is_copied_and_a_read_only_int64_one_shared(self):
        size_s = type_class_size(T_N4.col_marginal())
        table = np.zeros((2, size_s), dtype=np.int64)
        table[:, 0] = 3
        fam = CoveringFamily(T_N4, 2, 3, table, 0.1)
        table[0] = 1
        assert np.all(fam.counts[:, 0] == 3) and fam.counts[0, 1] == 0
        assert table.flags.writeable and not np.shares_memory(fam.counts, table)
        frozen = fam.counts.copy()
        frozen.flags.writeable = False
        assert np.shares_memory(CoveringFamily(T_N4, 2, 3, frozen, 0.1).counts, frozen)
        narrow = frozen.astype(np.int32)
        narrow.flags.writeable = False
        copied = CoveringFamily(T_N4, 2, 3, narrow, 0.1).counts
        assert copied.dtype == np.int64 and not np.shares_memory(copied, narrow)
        base = frozen.copy()
        view = base.view()          # read-only, but its base stays writable
        view.flags.writeable = False
        viewed = CoveringFamily(T_N4, 2, 3, view, 0.1).counts
        base[1] = 1
        assert not np.shares_memory(viewed, base) and np.array_equal(viewed, frozen)

    def test_family_tables_match_a_fresh_build(self):
        built = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        by_hand = CoveringFamily(T_N4, built.N, built.M, built.counts, 0.1)
        x_words = np.array(sorted(set(itertools.permutations((0, 0, 0, 1)))))
        y_words = np.array(sorted(set(itertools.permutations((0, 0, 1, 1)))))
        compat = compatibility_matrix(T_N4, x_words, y_words)
        c = built.counts.astype(np.float64) @ compat.T.astype(np.float64)
        for fam in (built, by_hand):
            assert np.array_equal(fam.y_class_words, y_words)
            assert np.array_equal(fam.compat, compat)
            assert np.array_equal(fam.compatible_counts, c)
            assert np.array_equal(fam.y_ranks, y_words @ (2 ** np.arange(3, -1, -1)))

    def test_forced_failures_leave_a_family_passing_its_check(self, monkeypatch):
        # each attempt's lazy check goes through the module's verify_covering
        real_verify, verified = covering.verify_covering, []

        def fail_twice(fam):
            verified.append(fam)
            check = real_verify(fam)
            return check if len(verified) > 2 else dataclasses.replace(check, passed=False)

        monkeypatch.setattr(covering, "verify_covering", fail_twice)
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        assert fam.retries == 2 and len(verified) == 3 and verified[-1] is fam
        assert fam.check.passed and real_verify(fam).passed

    def test_reverification_reads_the_counts_afresh(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        assert verify_covering(fam).passed
        constant = np.zeros_like(fam.counts)
        constant[:, 0] = fam.M      # every list holds one word M times
        assert not verify_covering(dataclasses.replace(fam, counts=constant)).passed

    def test_family_tables_are_read_only(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        for table in (fam.y_class_words, fam.y_ranks, fam.compat,
                      fam.compatible_counts, fam.cumulative):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1

    def test_a_hand_built_family_verifies_itself_on_first_use(self):
        built = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        fam = CoveringFamily(T_N4, built.N, built.M, built.counts, 0.1, built.retries)
        assert "check" not in vars(fam)
        assert FamilyRecord.of(fam) == FamilyRecord.of(built)
        assert fam.check is fam.check and fam.check.passed
        assert not fam.check.condition_I_margin.flags.writeable

    def test_build_keeps_its_passing_check(self):
        fam = build_covering(T_N4, 0.1, *type_sizing(T_N4, 0.1), seed=SEED)
        again = verify_covering(fam)
        assert fam.check.passed
        assert np.array_equal(fam.check.condition_I_margin, again.condition_I_margin)
        assert fam.check.condition_II_margin == again.condition_II_margin

    def test_table_cap_checked_before_sampling(self, monkeypatch):
        import chansim.covering as covering
        M, N = type_sizing(T_N4, 0.1)
        size_s = type_class_size(T_N4.col_marginal())
        monkeypatch.setitem(CAPS, "COVER_TABLE_CAP", N * size_s - 1)
        monkeypatch.setattr(covering, "enumerate_type_class", None)  # must not be reached
        with pytest.raises(CapExceededError):
            build_covering(T_N4, 0.1, M, N, seed=SEED)
