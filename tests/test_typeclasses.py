import itertools
import math

import numpy as np
import pytest

from chansim.core_prob import Channel, Distribution, entropy
from chansim.errors import CAPS, CapExceededError, InvalidInputError
from chansim.typeclasses import (
    ExactType,
    JointType,
    TypicalSpec,
    conditional_classes,
    count_joint_occurrences,
    count_occurrences,
    enumerate_joint_types,
    enumerate_type_class,
    enumerate_type_classes,
    joint_type_class_size,
    type_class_size,
    type_is_typical,
    typical_joint_classes,
    typical_probability_bounds,
    typical_types,
)

SEED = 8191
# 3 x 2 with a zero entry and 3 x 3 channel rows
THREE_LETTER_INPUTS = ([[0.6, 0.4], [0.0, 1.0], [0.3, 0.7]],
                       [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.25, 0.25, 0.5]])


def typical_joint_types(base, w, delta):
    """The joint types typical_joint_classes yields, in its order, as
    JointTypes."""
    return [JointType(base.n, counts) for counts, _ in typical_joint_classes(base, w, delta)]


def is_typical(word, spec):
    """Whether a word's type is delta-typical: a reference built on
    type_is_typical."""
    return type_is_typical(count_occurrences(word, spec.p.alphabet_size), spec)


def word_log2_prob(t, p):
    """log2 of the i.i.d. probability of any single word of type t."""
    return sum(c * math.log2(px) for c, px in zip(t.counts, p.probs) if c)


def conditional_type_class_size(t):
    """Number of y-words forming joint type t against any one x word whose
    type is t's row marginal: the product of the row multinomials, from
    factorials."""
    return math.prod(math.factorial(sum(row)) // math.prod(map(math.factorial, row))
                     for row in t.counts)


def x_class_size_given_y(t):
    """Number of x-words forming joint type t against any one y word whose
    type is t's column marginal: the conditional class of the transposed
    joint type."""
    return conditional_type_class_size(JointType(t.n, tuple(zip(*t.counts))))


def cell_rule_reference(t, w, delta):
    """The conditional typicality rule written out cell by cell, as it stood
    before the window was shared: |t[x][y] - r_x W(y|x)| <= delta sqrt(r_x)
    sigma_xy + 1e-12, or exact to 1e-9 when sigma_xy < 1e-12."""
    for x, row in enumerate(t.counts):
        r = sum(row)
        if r == 0:
            continue
        root_r = math.sqrt(r)
        for y, c in enumerate(row):
            wxy = w.rows[x][y]
            sigma = math.sqrt(max(wxy * (1.0 - wxy), 0.0))
            if sigma < 1e-12:
                if abs(c - r * wxy) > 1e-9:
                    return False
            elif abs(c - r * wxy) > delta * root_r * sigma + 1e-12:
                return False
    return True


class TestTypeBasics:
    def test_count_occurrences(self):
        t = count_occurrences((0, 2, 0, 1, 0), 3)
        assert t == ExactType(5, (3, 1, 1))

    def test_joint_counts(self):
        t = count_joint_occurrences((0, 0, 1), (1, 0, 1), 2, 2)
        assert t.counts == ((1, 1), (0, 1))
        assert t.row_marginal().counts == (2, 1)
        assert t.col_marginal().counts == (1, 2)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ExactType(3, (1, 1))
        with pytest.raises(InvalidInputError):
            JointType(2, ((1, 0), (0, 2)))
        with pytest.raises(InvalidInputError):
            count_occurrences((0, 5), 3)

    def test_kept_sizes_and_marginals_are_invisible(self):
        filled, fresh = JointType(4, ((2, 1), (0, 1))), JointType(4, ((2, 1), (0, 1)))
        text = repr(fresh)
        assert filled.class_sizes == (type_class_size(ExactType(4, (3, 1))),
                                      type_class_size(ExactType(4, (2, 2))),
                                      joint_type_class_size(fresh)) == (4, 6, 12)
        assert filled.col_marginal() is filled.col_marginal()
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == text
        assert {filled: 1}[fresh] == 1


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
            total = sum(type_class_size(t) * 2.0 ** word_log2_prob(t, p)
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
        for t in enumerate_joint_types(ExactType(n, (5, 3)), 2):
            h_cond = sum((r / n) * entropy(np.asarray(row, dtype=float) / r)
                         for row, r in ((row, sum(row)) for row in t.counts) if r > 0)
            size = conditional_type_class_size(t)
            assert size <= 2.0 ** (n * h_cond) * (1 + 1e-9)
            assert size >= (n + 1.0) ** (-4) * 2.0 ** (n * h_cond) * (1 - 1e-9)

    def test_conditional_size_is_product_of_row_multinomials(self):
        t = JointType(5, ((2, 1), (1, 1)))
        x_word = (0, 0, 0, 1, 1)
        got = conditional_type_class_size(t)
        assert got == 3 * 2
        brute = sum(1 for y in itertools.product(range(2), repeat=5)
                    if count_joint_occurrences(x_word, y, 2, 2) == t)
        assert got == brute

    @pytest.mark.parametrize("x_size, y_size", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_conditional_classes_are_the_joint_types_with_their_sizes(self, x_size, y_size):
        for n in range(1, 6):
            for base in enumerate_type_classes(n, x_size):
                assert conditional_classes(base, y_size) == [
                    (t.counts, conditional_type_class_size(t))
                    for t in enumerate_joint_types(base, y_size)]


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
                for t in enumerate_joint_types(base, 2):
                    members = [y for y in itertools.product(range(2), repeat=n)
                               if count_joint_occurrences(x_word, y, 2, 2) == t]
                    assert len(members) == conditional_type_class_size(t)
                    per_word = 1.0
                    for x in range(2):
                        for y in range(2):
                            per_word *= w.rows[x][y] ** t.counts[x][y]
                    for y_word in members:
                        mass = float(np.prod([w.rows[x_word[k]][y_word[k]] for k in range(n)]))
                        assert mass == pytest.approx(per_word, rel=1e-12)
                    if members:
                        y_word = members[0]
                        lhs = x_class_size_given_y(t)
                        assert lhs == sum(
                            1 for x in itertools.product(range(2), repeat=n)
                            if count_joint_occurrences(x, y_word, 2, 2) == t)
                        rhs = joint_type_class_size(t) // type_class_size(t.col_marginal())
                        assert lhs == rhs

    def test_transpose_size_identity_three_letter(self):
        t = JointType(6, ((2, 1, 0), (0, 1, 2)))
        assert x_class_size_given_y(t) * type_class_size(t.col_marginal()) \
            == joint_type_class_size(t)


class TestEnumeration:
    def test_lexicographic_order(self):
        types = enumerate_type_classes(3, 3)
        flat = [t.counts for t in types]
        assert flat == sorted(flat)
        for base in enumerate_type_classes(3, 2):
            joints = enumerate_joint_types(base, 2)
            flats = [tuple(c for row in t.counts for c in row) for t in joints]
            assert flats == sorted(flats)

    def test_joint_count_bound(self):
        # the joint types of length n over k = |X||Y| cells are the
        # C(n + k - 1, k - 1) compositions of n into k parts, at most (n+1)^k
        for n, x_size, y_size in [(3, 2, 2), (5, 2, 2), (5, 2, 3), (4, 3, 3)]:
            k = x_size * y_size
            count = sum(len(enumerate_joint_types(base, y_size))
                        for base in enumerate_type_classes(n, x_size))
            assert count == math.comb(n + k - 1, k - 1) <= (n + 1) ** k

    def test_base_type_restriction(self):
        base = ExactType(5, (3, 2))
        joints = enumerate_joint_types(base, 3)
        assert all(t.row_marginal() == base for t in joints)
        # compositions of 3 into 3 parts times compositions of 2 into 3 parts
        assert len(joints) == 10 * 6

    def test_caps(self, monkeypatch):
        # every joint type of length n is counted before one is built: the
        # list is refused one below C(n + k - 1, k - 1), and built at it
        bsc = Channel.from_rows([[0.75, 0.25], [0.25, 0.75]])
        four_by_three = Channel.from_rows([[1 / 3] * 3] * 4)
        for n, w, count in [(17, bsc, math.comb(20, 3)), (4, four_by_three, math.comb(15, 11))]:
            for base in enumerate_type_classes(n, w.input_size):
                monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", count - 1)
                refused = f"{count} joint types, above WORD_ENUM_CAP = {count - 1}"
                with pytest.raises(CapExceededError, match=refused):
                    enumerate_joint_types(base, w.output_size)
                with pytest.raises(CapExceededError, match=refused):
                    typical_joint_types(base, w, 2.0)
                monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", count)
                every = enumerate_joint_types(base, w.output_size)
                assert every and set(typical_joint_types(base, w, 2.0)) <= set(every)
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 1000)
        with pytest.raises(CapExceededError):
            enumerate_type_class(ExactType(40, (20, 20)))
        # the 5 types of length-4 binary words are counted before any is built
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 4)
        with pytest.raises(CapExceededError, match="5 exact types, above WORD_ENUM_CAP = 4"):
            enumerate_type_classes(4, 2)
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 5)
        assert len(enumerate_type_classes(4, 2)) == 5

    def test_caps_are_read_at_call_time(self, monkeypatch):
        # length 17 over 2 x 1 cells has C(18, 1) = 18 joint types
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 18)
        assert sum(len(enumerate_joint_types(base, 1))
                   for base in enumerate_type_classes(17, 2)) == 18
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 17)
        with pytest.raises(CapExceededError, match="18 joint types"):
            enumerate_joint_types(ExactType(17, (9, 8)), 1)

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
        monkeypatch.setitem(CAPS, "WORD_ENUM_CAP", 19)
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
        # the exact mass is that of the listed types, also at delta = 0 and
        # where n P(x) misses an integer by 1e-10
        rng = np.random.default_rng(SEED + 1)
        sources = [(Distribution.from_probs(rng.dirichlet(np.ones(a))), n)
                   for a, n in [(2, 8), (3, 6)]]
        sources.append((Distribution.from_probs([0.3333333333, 0.6666666667]), 3))
        for p, n in sources:
            for delta in (0.0, 0.5, 1.0, 2.0):
                spec = TypicalSpec(p, n, delta)
                brute = sum(type_class_size(t) * 2.0 ** word_log2_prob(t, p)
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
        assert t in typical_joint_types(t.row_marginal(), w, 2.0)
        t_bad = JointType(8, ((0, 4), (1, 3)))
        assert t_bad not in typical_joint_types(t_bad.row_marginal(), w, 2.0)

    def test_conditional_typicality_zero_noise(self):
        ident = Channel.from_rows([[1.0, 0.0], [0.0, 1.0]])
        assert typical_joint_types(ExactType(4, (2, 2)), ident, 1.0) == [
            JointType(4, ((2, 0), (0, 2)))]

    @pytest.mark.parametrize("rows", [[[0.75, 0.25], [0.25, 0.75]], [[0.9, 0.1], [0.3, 0.7]],
                                      [[0.5, 0.5, 0.0], [0.0, 0.2, 0.8]], *THREE_LETTER_INPUTS])
    def test_conditional_window_matches_the_cell_rule(self, rows):
        """The windowed row product lists, in order, exactly the joint types
        of the full enumeration that pass the cell rule, over binary bases
        to n = 8 and three-letter bases to n = 6."""
        w = Channel.from_rows(rows)
        verdicts = set()
        for n in range(1, 9 if w.input_size == 2 else 7):
            for base in enumerate_type_classes(n, w.input_size):
                for delta in (0.0, 1.0, 2.0):
                    every = enumerate_joint_types(base, w.output_size)
                    rule = [cell_rule_reference(t, w, delta) for t in every]
                    got = typical_joint_types(base, w, delta)
                    assert got == [t for t, ok in zip(every, rule) if ok], (base, delta)
                    verdicts.update(rule)
        assert verdicts == {False, True}
        with pytest.raises(InvalidInputError):
            typical_joint_types(ExactType(2, (2,) + (0,) * w.input_size), w, 1.0)

    @pytest.mark.parametrize("rows", [[[0.75, 0.25], [0.25, 0.75]],
                                      [[0.5, 0.5, 0.0], [0.0, 0.2, 0.8]], *THREE_LETTER_INPUTS])
    def test_attached_class_sizes_are_the_multinomials(self, rows):
        """The class sizes the kernel yields beside each type's count rows,
        from its shared factors, equal those of a fresh JointType and the
        multinomials taken from scratch, at every base to n = 8; delta = 50
        keeps every cell of a positive entry."""
        w = Channel.from_rows(rows)
        for n in range(1, 9):
            for base in enumerate_type_classes(n, w.input_size):
                for delta in (2.0, 50.0):
                    for counts, sizes in typical_joint_classes(base, w, delta):
                        t = JointType(n, counts)
                        assert sizes == t.class_sizes == (
                            type_class_size(t.row_marginal()),
                            type_class_size(t.col_marginal()),
                            joint_type_class_size(t)), t
