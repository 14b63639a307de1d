import math
from fractions import Fraction

import numpy as np
import pytest

from cusplab import cli, errors, farey
from cusplab.farey import (
    INFINITY,
    Monodromy,
    Slope,
    act,
    adjacent,
    distance,
    slopes_in_box,
    stable_translation_distance,
    stable_upper,
    translation_distance,
    translation_distances,
    word_to_matrix,
)
from oracles import (canonical_word, farey_bfs, farey_translation_box,
                     ladder_translation_distances)

ZERO = Slope(0, 1)

# d(0/1, F_{k+1}/F_k) for k = 1..12, frozen from the BFS oracle
# (boxes 300 and 360 agree)
FIBONACCI_DISTANCES = [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7]


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def random_slope(rng, span=60):
    while True:
        p = int(rng.integers(-span, span + 1))
        q = int(rng.integers(-span, span + 1))
        if p or q:
            return Slope(p, q)


def random_word(rng, low=1, high=10):
    n = int(rng.integers(low, high + 1))
    return "".join("RL"[int(b)] for b in rng.integers(0, 2, size=n))


def mixed_words(max_len):
    """Every word over {R, L} of length <= max_len using both letters."""
    for n in range(2, max_len + 1):
        for bits in range(1, 2 ** n - 1):
            yield "".join("R" if (bits >> i) & 1 else "L" for i in range(n))


def negated(m):
    return Monodromy(tuple((-x, -y) for x, y in m.matrix))


class TestSlope:

    def test_canonicalisation(self):
        assert Slope(-2, -4) == Slope(1, 2)
        assert Slope(6, 4) == Slope(3, 2)
        assert Slope(-3, 0) == INFINITY
        assert Slope(0, -5) == Slope(0, 1)
        assert Slope(5, -3) == Slope(-5, 3)

    def test_zero_over_zero(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_parse_and_str(self):
        assert Slope.parse("inf") == INFINITY
        assert Slope.parse("1/0") == INFINITY
        assert Slope.parse("-7/3") == Slope(-7, 3)
        assert Slope.parse("4") == Slope(4, 1)
        assert str(INFINITY) == "inf"
        assert str(Slope(-7, 3)) == "-7/3"
        for s in (INFINITY, ZERO, Slope(22, 7), Slope(-3, 8)):
            assert Slope.parse(str(s)) == s


class TestAdjacent:

    def test_examples(self):
        assert adjacent(ZERO, INFINITY)
        assert adjacent(ZERO, Slope(1, 1))
        assert not adjacent(ZERO, Slope(2, 5))

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s, t = random_slope(rng), random_slope(rng)
            assert adjacent(s, t) == adjacent(t, s)

    def test_not_self_adjacent(self):
        assert not adjacent(ZERO, ZERO)


class TestDistance:

    def test_distance_to_self(self):
        for s in (INFINITY, ZERO, Slope(2, 5), Slope(-13, 8)):
            assert distance(s, s) == 0

    def test_small_example_with_witness(self):
        assert distance(ZERO, Slope(2, 5)) == 2
        # an actual midpoint: 0/1 -- 1/2 -- 2/5
        assert adjacent(ZERO, Slope(1, 2))
        assert adjacent(Slope(1, 2), Slope(2, 5))

    def test_fibonacci_distances(self):
        got = [distance(ZERO, Slope(fibonacci(k + 1), fibonacci(k)))
               for k in range(1, 13)]
        assert got == FIBONACCI_DISTANCES
        # linear growth: one new edge per two Fibonacci steps
        for k in range(len(got) - 2):
            assert got[k + 2] - got[k] == 1

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            s, t = random_slope(rng), random_slope(rng)
            assert distance(s, t) == distance(t, s)

    def test_adjacent_iff_distance_one(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s, t = random_slope(rng, span=25), random_slope(rng, span=25)
            assert adjacent(s, t) == (distance(s, t) == 1)

    def test_exhaustive_box_matches_bfs(self):
        # every slope pair with |p|, q <= 20 against BFS in a box of 50;
        # the margin keeps geodesics from being clipped, and any clipping
        # would surface here as an overestimate
        small = [(s.p, s.q) for s in slopes_in_box(20)]
        index, rows = farey_bfs(50, small)
        assert np.all(np.isfinite(rows))
        cols = [index[v] for v in small]
        for i, (p0, q0) in enumerate(small):
            s = Slope(p0, q0)
            row = rows[i]
            for (p1, q1), j in zip(small, cols):
                assert distance(s, Slope(p1, q1)) == int(row[j])


class TestWordToMatrix:

    def test_rl(self):
        m = word_to_matrix("RL")
        assert m.matrix == ((2, 1), (1, 1))
        assert m.trace == 3
        assert m.is_pseudo_anosov

    def test_single_letters(self):
        assert word_to_matrix("R").matrix == ((1, 1), (0, 1))
        assert word_to_matrix("L").matrix == ((1, 0), (1, 1))
        assert not word_to_matrix("R").is_pseudo_anosov

    def test_rrll(self):
        m = word_to_matrix("RRLL")
        assert m.matrix == ((5, 2), (2, 1))
        assert m.trace > 2

    def test_empty_word(self):
        with pytest.raises(errors.EmptyWord):
            word_to_matrix("")

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            word_to_matrix("RLX")

    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            Monodromy(((0, 1), (1, 0)))

    def test_inverse_and_power(self):
        m = word_to_matrix("RRL")
        identity = ((1, 0), (0, 1))
        assert (m * m.inverse()).matrix == identity
        assert m.power(0).matrix == identity
        assert m.power(3).matrix == (m * m * m).matrix
        assert m.power(-1).matrix == m.inverse().matrix


class TestAct:

    def test_identity(self):
        identity = Monodromy(((1, 0), (0, 1)))
        for s in (INFINITY, ZERO, Slope(-3, 7)):
            assert act(identity, s) == s

    def test_rl_on_infinity(self):
        assert act(word_to_matrix("RL"), INFINITY) == Slope(2, 1)

    def test_group_action_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = word_to_matrix(random_word(rng))
            s = random_slope(rng)
            assert act(m, act(m.inverse(), s)) == s

    def test_preserves_adjacency_and_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            m = word_to_matrix(random_word(rng))
            s, t = random_slope(rng), random_slope(rng)
            ms, mt = act(m, s), act(m, t)
            assert adjacent(s, t) == adjacent(ms, mt)
            assert distance(s, t) == distance(ms, mt)


class TestTranslationDistance:

    def test_rl(self):
        assert translation_distance(word_to_matrix("RL")) == 1

    def test_r5l5(self):
        # oracle: for M = [[26,5],[5,1]] the pairing of v with M v has
        # determinant 5(p^2 - 5pq - q^2), never 0 or +-1 since 29 is not a
        # square; checked exhaustively below for |p|, |q| <= 10^4, so no
        # slope in that box is fixed or moved distance 1, while
        # d(inf, 26/5) = 2.  The searched value must agree.
        m = word_to_matrix("RRRRRLLLLL")
        assert m.matrix == ((26, 5), (5, 1))
        p = np.arange(-10_000, 10_001, dtype=np.int64)
        for q0 in range(0, 10_001, 250):
            q = np.arange(q0, min(q0 + 250, 10_001), dtype=np.int64)
            form = (p[None, :] ** 2 - 5 * p[None, :] * q[:, None]
                    - q[:, None] ** 2)
            nonzero = (p[None, :] != 0) | (q[:, None] != 0)
            assert np.min(np.abs(form[nonzero])) >= 1
        assert distance(INFINITY, act(m, INFINITY)) == 2
        assert translation_distance(m) == 2

    def test_never_zero(self):
        rng = np.random.default_rng(6)
        seen = 0
        while seen < 25:
            m = word_to_matrix(random_word(rng, 2, 6))
            if not m.is_pseudo_anosov:
                continue
            seen += 1
            assert translation_distance(m) >= 1

    def test_not_pseudo_anosov(self):
        with pytest.raises(errors.NotPseudoAnosov):
            translation_distance(word_to_matrix("R"))
        with pytest.raises(errors.NotPseudoAnosov):
            translation_distance(Monodromy(((-1, 0), (0, -1))))

    def test_matches_box_search(self):
        # every class of length <= 6, powers up to 4, against the box
        # search with bound doubling that the ladder replaced
        for word in cli.corpus(6):
            m = word_to_matrix(word)
            for n in range(1, 5):
                power = m.power(n)
                assert translation_distance(power) \
                    == farey_translation_box(power), (word, n)

    def test_witness_attains_the_distance(self):
        value, slope = translation_distance(word_to_matrix("RRLRLL"),
                                            with_witness=True)
        assert value == 3
        for word in cli.corpus(6):
            m = word_to_matrix(word)
            for n in range(1, 5):
                power = m.power(n)
                value, slope = translation_distance(power,
                                                    with_witness=True)
                assert value == translation_distance(power)
                assert distance(slope, act(power, slope)) == value

    def test_rotation_and_swap_invariance(self):
        # a rotation conjugates the monodromy, the R/L swap inverts it up
        # to conjugacy; neither moves the translation distance
        by_class = {}
        for word in mixed_words(6):
            m = word_to_matrix(word)
            got = tuple(translation_distance(m.power(n)) for n in (1, 2))
            by_class.setdefault(canonical_word(word), set()).add(got)
        assert len(by_class) == len(cli.corpus(6))
        for word, values in by_class.items():
            assert len(values) == 1, word

    def test_conjugacy_invariance(self):
        # conjugates, negatives and inverses are not positive words, so
        # they go through the conjugacy reduction to a positive frame
        rng = np.random.default_rng(8)
        for word in cli.corpus(6):
            m = word_to_matrix(word)
            expected = translation_distance(m)
            for _ in range(4):
                c = word_to_matrix(random_word(rng, 1, 6))
                if rng.integers(2):
                    c = c.inverse()
                conj = c * m * c.inverse()
                for other in (conj, negated(conj), conj.inverse()):
                    value, slope = translation_distance(other,
                                                        with_witness=True)
                    assert value == expected, (word, other.matrix)
                    assert distance(slope, act(other, slope)) == value

    def test_negative_trace(self):
        m = Monodromy(((-2, -1), (-1, -1)))
        assert m.trace == -3
        assert translation_distance(m) == 1
        assert translation_distance(negated(word_to_matrix("RRRRRLLLLL"))) \
            == 2


def wordless_matrices():
    """The matrices of the conjugacy and negative-trace tests that are not
    positive words: conjugates of every class of length <= 6, their
    negatives and inverses, and two negative traces."""
    rng = np.random.default_rng(8)
    out = [Monodromy(((-2, -1), (-1, -1))),
           negated(word_to_matrix("RRRRRLLLLL"))]
    for word in cli.corpus(6):
        m = word_to_matrix(word)
        for _ in range(4):
            c = word_to_matrix(random_word(rng, 1, 6))
            if rng.integers(2):
                c = c.inverse()
            conj = c * m * c.inverse()
            out += [conj, negated(conj), conj.inverse()]
    return out


class TestTranslationDistances:

    def test_one_matrix_matches_each_power(self):
        for word in mixed_words(9):
            m = word_to_matrix(word)
            assert translation_distances(m, 5) == {
                n: translation_distance(m.power(n)) for n in range(1, 6)}, word

    def test_wordless_and_negative_trace(self):
        for m in wordless_matrices():
            assert translation_distances(m, 5) == {
                n: translation_distance(m.power(n))
                for n in range(1, 6)}, m.matrix

    def test_not_pseudo_anosov(self):
        with pytest.raises(errors.NotPseudoAnosov):
            translation_distances(word_to_matrix("R"), 3)

    def test_matches_the_ladder_up_to_length_12(self):
        # every word of length <= 12 using both letters, powers up to 8
        count = 0
        for word in mixed_words(12):
            m = word_to_matrix(word)
            assert_matches_the_ladder(m, 8)
            count += 1
        assert count == 8166

    def test_matches_the_ladder_on_long_words(self):
        rng = np.random.default_rng(15)
        count = 0
        for _ in range(2000):
            m = word_to_matrix(random_word(rng, 13, 40))
            if m.is_pseudo_anosov:
                assert_matches_the_ladder(m, 8)
                count += 1
        assert count == 2000

    def test_matches_the_ladder_without_a_word(self):
        for m in wordless_matrices():
            assert_matches_the_ladder(m, 8)

    def test_min_plus_powers_are_distances(self):
        # the (i, j) entry of the n-th min-plus power of T is
        # d(C r_i, m^n C r_j), with r_0 = inf and r_1 = 0, and its
        # diagonal minimum is the closed form of translation_distances
        matrices = [word_to_matrix(w) for w in cli.corpus(8)]
        for m in matrices + wordless_matrices():
            frame, t = farey._distance_matrix(m)
            ends = [act(frame, INFINITY), act(frame, ZERO)]
            closed = translation_distances(m, 6)
            power = t
            for n in range(1, 7):
                image = [act(m.power(n), r) for r in ends]
                assert power == tuple(
                    tuple(distance(ends[i], image[j]) for j in range(2))
                    for i in range(2)), (m.matrix, n)
                assert closed[n] == min(power[0][0], power[1][1]), \
                    (m.matrix, n)
                power = tuple(
                    tuple(min(power[i][k] + t[k][j] for k in range(2))
                          for j in range(2))
                    for i in range(2))


def assert_matches_the_ladder(m, n_max):
    assert translation_distances(m, n_max) \
        == ladder_translation_distances(m, n_max), m.matrix


class TestStableTranslationDistance:

    def test_matches_the_estimate_on_the_corpus(self):
        # the canonical words of length <= 10, where the estimate over
        # twenty powers already reaches the limit
        words = cli.corpus(10)
        assert len(words) == 127
        for word in words:
            m = word_to_matrix(word)
            assert stable_translation_distance(m) == min(stable_upper(m, 20)), \
                word

    def test_is_the_growth_rate_of_the_powers(self):
        # every word of length <= 10: never above the subadditive
        # estimate, and within 2 of d(inf, m^60 inf) / 60 at sixty powers
        count = 0
        for word in mixed_words(10):
            m = word_to_matrix(word)
            tau = stable_translation_distance(m)
            assert isinstance(tau, Fraction)
            assert tau <= min(stable_upper(m, 20)), word
            d60 = distance(INFINITY, act(m.power(60), INFINITY))
            assert abs(d60 - 60 * tau) <= 2, word
            count += 1
        assert count == 2026

    def test_is_the_minimum_cycle_mean_without_a_word(self):
        # the cycle means of T are T00, T11 and (T01 + T10) / 2
        for m in wordless_matrices():
            (t00, t01), (t10, t11) = farey._distance_matrix(m)[1]
            assert stable_translation_distance(m) == min(
                Fraction(t00), Fraction(t11), Fraction(t01 + t10, 2)), \
                m.matrix

    def test_figure_eight_is_one(self):
        assert stable_translation_distance(word_to_matrix("RL")) == 1

    def test_conjugates_inverses_and_powers(self):
        # a conjugate, -m and m^-1 move slopes as far in the limit; m^3
        # moves them three times as far
        rng = np.random.default_rng(13)
        for word in cli.corpus(6):
            m = word_to_matrix(word)
            tau = stable_translation_distance(m)
            assert stable_translation_distance(m.power(3)) == 3 * tau, word
            for _ in range(4):
                c = word_to_matrix(random_word(rng, 1, 6))
                conj = c * m * c.inverse()
                for other in (conj, negated(conj), conj.inverse()):
                    assert stable_translation_distance(other) == tau, word

    def test_not_pseudo_anosov(self):
        with pytest.raises(errors.NotPseudoAnosov):
            stable_translation_distance(word_to_matrix("R"))


class TestStableUpper:

    def test_matches_the_acted_powers(self):
        # d(inf, m^n inf) / n, with m^n inf read off the powers themselves
        matrices = [word_to_matrix(w) for w in mixed_words(7)]
        for m in matrices + wordless_matrices():
            assert stable_upper(m, 8) == [
                Fraction(distance(INFINITY, act(m.power(n), INFINITY)), n)
                for n in range(1, 9)], m.matrix

    def test_rl_is_constant_one(self):
        ratios = stable_upper(word_to_matrix("RL"), 30)
        assert ratios == [Fraction(1)] * 30

    def test_first_term_dominates_infimum(self):
        for word in ("RL", "RRL", "RRLL", "RLLRL"):
            ratios = stable_upper(word_to_matrix(word), 12)
            assert min(ratios) <= ratios[0]

    def test_power_scales_estimate(self):
        m = word_to_matrix("RRLL")
        est = min(stable_upper(m, 12))
        est3 = min(stable_upper(m.power(3), 4))
        assert est3 == 3 * est

    def test_upper_bounds_translation_distance_sample(self):
        # d-bar <= d, so the per-n ratios can dip below the searched
        # translation distance but a_1 never does
        for word in ("RL", "RRL", "RRLL"):
            m = word_to_matrix(word)
            assert stable_upper(m, 1)[0] >= translation_distance(m)
