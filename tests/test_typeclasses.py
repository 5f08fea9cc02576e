import itertools
import math

import numpy as np
import pytest

from chansim import typeclasses
from chansim.core_prob import Channel, Distribution, entropy
from chansim.errors import CapExceededError, InvalidInputError
from chansim.typeclasses import (
    ExactType,
    JointType,
    TypicalSpec,
    conditional_class_size_given_y,
    conditional_type_class_size,
    count_joint_occurrences,
    count_occurrences,
    enumerate_joint_types,
    enumerate_type_class,
    enumerate_type_classes,
    is_conditionally_typical,
    joint_type_class_size,
    sample_conditional_type_word,
    sample_type_word,
    type_class_size,
    type_is_typical,
    type_word_log2_prob,
    typical_probability_bounds,
    typical_types,
)

SEED = 8191


def is_typical(word, spec):
    """Whether a word's type is delta-typical: a reference built on
    type_is_typical."""
    return type_is_typical(count_occurrences(word, spec.p.alphabet_size), spec)


class TestTypeBasics:
    def test_count_occurrences(self):
        t = count_occurrences((0, 2, 0, 1, 0), 3)
        assert t == ExactType(5, (3, 1, 1))

    def test_joint_counts(self):
        t = count_joint_occurrences((0, 0, 1), (1, 0, 1), 2, 2)
        assert t.counts == ((1, 1), (0, 1))
        assert t.row_marginal().counts == (2, 1)
        assert t.col_marginal().counts == (1, 2)
        assert t.transpose().counts == ((1, 0), (1, 1))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ExactType(3, (1, 1))
        with pytest.raises(InvalidInputError):
            JointType(2, ((1, 0), (0, 2)))
        with pytest.raises(InvalidInputError):
            count_occurrences((0, 5), 3)

    def test_serialization_round_trip(self):
        t = ExactType(6, (3, 2, 1))
        assert ExactType.from_json_dict(t.to_json_dict()) == t
        jt = JointType(4, ((2, 1), (0, 1)))
        assert JointType.from_json_dict(jt.to_json_dict()) == jt


class TestClassSizes:
    def test_small_exact_values(self):
        assert type_class_size(ExactType(4, (2, 2))) == 6
        assert type_class_size(ExactType(6, (6, 0))) == 1
        assert joint_type_class_size(JointType(4, ((2, 1), (0, 1)))) == 12

    def test_size_matches_enumeration(self):
        for counts in [(2, 2), (3, 1), (1, 1, 2)]:
            t = ExactType(4, counts)
            assert len(enumerate_type_class(t)) == type_class_size(t)

    def test_class_sizes_partition_word_space(self):
        for n, a in [(5, 2), (4, 3), (3, 4)]:
            total = sum(type_class_size(t) for t in enumerate_type_classes(n, a))
            assert total == a**n

    def test_probability_partition_of_unity(self):
        rng = np.random.default_rng(SEED)
        for n, a in [(6, 2), (5, 3)]:
            p = Distribution.from_probs(rng.dirichlet(np.ones(a)))
            total = sum(type_class_size(t) * 2.0 ** type_word_log2_prob(t, p)
                        for t in enumerate_type_classes(n, a))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_size_sandwich(self):
        # (n+1)^(-a) 2^(n H) <= |class| <= 2^(n H) for every type, n <= 12
        for n, a in [(12, 2), (8, 3)]:
            for t in enumerate_type_classes(n, a):
                h = entropy(np.asarray(t.counts, dtype=float) / n)
                size = type_class_size(t)
                assert size <= 2.0 ** (n * h) * (1 + 1e-9)
                assert size >= (n + 1.0) ** (-a) * 2.0 ** (n * h) * (1 - 1e-9)

    def test_conditional_size_sandwich(self):
        # conditional classes obey the same sandwich with H(col | row)
        n = 8
        base = ExactType(n, (5, 3))
        x_word = (0,) * 5 + (1,) * 3
        for t in enumerate_joint_types(n, 2, 2, base_type=base):
            h_cond = sum((r / n) * entropy(np.asarray(row, dtype=float) / r)
                         for row, r in ((row, sum(row)) for row in t.counts) if r > 0)
            size = conditional_type_class_size(t, x_word)
            assert size <= 2.0 ** (n * h_cond) * (1 + 1e-9)
            assert size >= (n + 1.0) ** (-4) * 2.0 ** (n * h_cond) * (1 - 1e-9)

    def test_conditional_size_is_product_of_row_multinomials(self):
        t = JointType(5, ((2, 1), (1, 1)))
        x_word = (0, 0, 0, 1, 1)
        got = conditional_type_class_size(t, x_word)
        assert got == 3 * 2
        brute = sum(1 for y in itertools.product(range(2), repeat=5)
                    if count_joint_occurrences(x_word, y, 2, 2) == t)
        assert got == brute

    def test_conditional_size_rejects_wrong_marginal(self):
        t = JointType(4, ((2, 1), (0, 1)))
        with pytest.raises(InvalidInputError):
            conditional_type_class_size(t, (0, 0, 1, 1))


class TestConditionalUniformityAndTranspose:
    """Exhaustive small-n facts about conditional classes.

    For any x_word of type R and joint type t with row marginal R:
      * every y in the conditional class has the same i.i.d. channel mass,
      * that mass is prod W(y|x)^t[x][y], so the class mass factorizes,
      * the x-side class against any fixed y in the class has size
        |joint class| / |col marginal class|.
    """

    def test_exhaustive_n_le_6(self):
        w = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
        for n in (3, 5, 6):
            for base in enumerate_type_classes(n, 2):
                x_word = tuple(np.repeat(np.arange(2), base.counts))
                for t in enumerate_joint_types(n, 2, 2, base_type=base):
                    members = [y for y in itertools.product(range(2), repeat=n)
                               if count_joint_occurrences(x_word, y, 2, 2) == t]
                    assert len(members) == conditional_type_class_size(t, x_word)
                    per_word = 1.0
                    for x in range(2):
                        for y in range(2):
                            per_word *= w.rows[x][y] ** t.counts[x][y]
                    for y_word in members:
                        mass = float(np.prod([w.rows[x_word[k]][y_word[k]] for k in range(n)]))
                        assert mass == pytest.approx(per_word, rel=1e-12)
                    if members:
                        y_word = members[0]
                        lhs = conditional_class_size_given_y(t, y_word)
                        rhs = joint_type_class_size(t) // type_class_size(t.col_marginal())
                        assert lhs == rhs

    def test_transpose_size_identity_three_letter(self):
        t = JointType(6, ((2, 1, 0), (0, 1, 2)))
        y_word = (0, 0, 1, 1, 2, 2)
        assert conditional_class_size_given_y(t, y_word) * type_class_size(t.col_marginal()) \
            == joint_type_class_size(t)


class TestEnumeration:
    def test_lexicographic_order(self):
        types = enumerate_type_classes(3, 3)
        flat = [t.counts for t in types]
        assert flat == sorted(flat)
        joints = enumerate_joint_types(3, 2, 2)
        flats = [tuple(c for row in t.counts for c in row) for t in joints]
        assert flats == sorted(flats)

    def test_joint_count_bound(self):
        # number of joint types is at most (n+1)^(|X||Y|)
        for n in (3, 5):
            joints = enumerate_joint_types(n, 2, 2)
            assert len(joints) <= (n + 1) ** 4

    def test_base_type_restriction(self):
        base = ExactType(5, (3, 2))
        joints = enumerate_joint_types(5, 2, 3, base_type=base)
        assert all(t.row_marginal() == base for t in joints)
        # compositions of 3 into 3 parts times compositions of 2 into 3 parts
        assert len(joints) == 10 * 6

    def test_caps(self, monkeypatch):
        with pytest.raises(CapExceededError):
            enumerate_joint_types(17, 2, 2)
        with pytest.raises(CapExceededError):
            enumerate_joint_types(4, 4, 3)
        monkeypatch.setattr(typeclasses, "WORD_ENUM_CAP", 1000)
        with pytest.raises(CapExceededError):
            enumerate_type_class(ExactType(40, (20, 20)))

    def test_caps_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(typeclasses, "JOINT_ENUM_N_CAP", 17)
        assert len(enumerate_joint_types(17, 2, 1)) == 18

    def test_word_enumeration_lex(self):
        words = enumerate_type_class(ExactType(4, (2, 2)))
        assert words.dtype == np.int64
        assert np.array_equal(words, sorted(set(itertools.permutations((0, 0, 1, 1)))))

    def test_class_array_is_cached_and_read_only(self):
        t = ExactType(5, (2, 3))
        words = enumerate_type_class(t)
        assert enumerate_type_class(ExactType(5, (2, 3))) is words
        with pytest.raises(ValueError):
            words[0, 0] = 1

    def test_cap_checked_after_the_class_is_cached(self, monkeypatch):
        t = ExactType(6, (3, 3))
        assert enumerate_type_class(t).shape == (20, 6)
        monkeypatch.setattr(typeclasses, "WORD_ENUM_CAP", 19)
        with pytest.raises(CapExceededError):
            enumerate_type_class(t)


class TestTypicality:
    def test_window_membership(self):
        p = Distribution.from_probs([0.5, 0.5])
        spec = TypicalSpec(p, 16, 1.0)
        # |c - 8| <= 1 * 4 * 0.5 = 2
        assert type_is_typical(ExactType(16, (10, 6)), spec)
        assert not type_is_typical(ExactType(16, (11, 5)), spec)
        assert is_typical((0, 1) * 8, spec)

    def test_degenerate_letter_requires_exact_count(self):
        p = Distribution.from_probs([1.0, 0.0])
        spec = TypicalSpec(p, 4, 3.0)
        assert is_typical((0, 0, 0, 0), spec)
        assert not is_typical((0, 0, 0, 1), spec)

    def test_delta_zero_sentinel(self):
        p = Distribution.from_probs([0.5, 0.5])
        b = typical_probability_bounds(TypicalSpec(p, 4, 0.0))
        assert b.chebyshev == -math.inf
        assert b.chernoff == -1.0
        assert b.exact == pytest.approx(6 / 16, abs=1e-12)

    def test_exact_mass_matches_enumeration(self):
        rng = np.random.default_rng(SEED + 1)
        for a, n in [(2, 8), (3, 6)]:
            p = Distribution.from_probs(rng.dirichlet(np.ones(a)))
            for delta in (0.5, 1.0, 2.0):
                spec = TypicalSpec(p, n, delta)
                brute = sum(type_class_size(t) * 2.0 ** type_word_log2_prob(t, p)
                            for t in typical_types(spec))
                assert typical_probability_bounds(spec).exact == pytest.approx(brute, abs=1e-12)

    def test_exact_dominates_chebyshev(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(30):
            a = int(rng.integers(2, 4))
            p = Distribution.from_probs(rng.dirichlet(np.ones(a)))
            n = int(rng.integers(4, 33))
            delta = float(rng.uniform(0.5, 3.5))
            b = typical_probability_bounds(TypicalSpec(p, n, delta))
            assert b.exact >= b.chebyshev - 1e-12
            assert b.exact >= b.chernoff - 1e-12

    def test_chernoff_floor_value_at_skewed_source(self):
        # only the letter-1 upper tail and the mirrored letter-0 lower tail
        # lie inside [0, 1], and the two are equal
        p = Distribution.from_probs([0.9, 0.1])
        q = 0.1 + 0.9 / math.sqrt(8)
        kl = q * math.log(q / 0.1) + (1 - q) * math.log((1 - q) / 0.9)
        b = typical_probability_bounds(TypicalSpec(p, 8, 3.0))
        assert b.chernoff == pytest.approx(1 - 2 * math.exp(-8 * kl), abs=1e-9)
        assert b.chernoff == pytest.approx(0.872941, abs=1e-6)

    def test_conditional_typicality_window(self):
        w = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
        t = JointType(8, ((3, 1), (1, 3)))
        assert is_conditionally_typical(t, w, 2.0)
        t_bad = JointType(8, ((0, 4), (1, 3)))
        assert not is_conditionally_typical(t_bad, w, 2.0)

    def test_conditional_typicality_zero_noise(self):
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert is_conditionally_typical(JointType(4, ((2, 0), (0, 2))), ident, 1.0)
        assert not is_conditionally_typical(JointType(4, ((1, 1), (0, 2))), ident, 1.0)


class TestSampling:
    def test_sample_type_word_has_type(self):
        t = ExactType(10, (4, 3, 3))
        for k in range(20):
            w = sample_type_word(t, SEED + k)
            assert count_occurrences(w, 3) == t

    def test_conditional_sample_in_class_and_uniform(self):
        t = JointType(6, ((2, 2), (1, 1)))
        x_word = (0, 0, 0, 0, 1, 1)
        size = conditional_type_class_size(t, x_word)
        assert size == 12
        rng = np.random.default_rng(SEED)
        freq = {}
        draws = 6000
        for _ in range(draws):
            y = sample_conditional_type_word(t, x_word, rng)
            assert count_joint_occurrences(x_word, y, 2, 2) == t
            freq[y] = freq.get(y, 0) + 1
        assert len(freq) == size
        expected = draws / size
        # 4.5 sigma on a binomial(6000, 1/12) count
        slack = 4.5 * math.sqrt(draws * (1 / size) * (1 - 1 / size))
        for count in freq.values():
            assert abs(count - expected) <= slack

    def test_conditional_sample_rejects_marginal_mismatch(self):
        t = JointType(4, ((2, 1), (0, 1)))
        with pytest.raises(InvalidInputError):
            sample_conditional_type_word(t, (0, 0, 1, 1), SEED)
