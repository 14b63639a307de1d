import math
from math import exp, inf, log, pi, sinh, sqrt

import numpy as np
import pytest

from cusplab import errors
from cusplab.geometry import (
    TANGENT_MIN,
    WAIST,
    ConeCuspParams,
    Horoball,
    cone_cusp_area,
    horoball_distance,
    max_cusp_area_bound,
    shortest_arc_length_bound,
    tangent_lengths,
)
from oracles import (PACKING, drift_bound, horoball_gap_numeric,
                     packing_area_lower, shadow_radius, tangent_pair_numeric)

TOL = 1e-9


def random_disjoint_pair(rng):
    """Two horoballs with disjoint interiors; one in six rests at infinity."""
    while True:
        if rng.integers(6) == 0:
            h1 = Horoball(inf, float(rng.uniform(0.1, 5.0)))
        else:
            c = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            h1 = Horoball(c, float(rng.uniform(0.05, 3.0)))
        c2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        h2 = Horoball(c2, float(rng.uniform(0.05, 3.0)))
        try:
            if horoball_distance(h1, h2) >= 0:
                return h1, h2
        except errors.CoincidentCenters:
            continue


class TestConstants:

    def test_values(self):
        assert abs(WAIST - 2.0 ** 0.25) < 1e-15
        assert abs(TANGENT_MIN - log(3 + 2 * sqrt(2))) < 1e-15
        assert abs(TANGENT_MIN - 1.7627) < 1e-4
        assert abs(PACKING - 2 * sqrt(3) / pi) < 1e-15


class TestRecords:
    """Horoball and ConeCuspParams are immutable tuple-backed records."""

    def test_fields_keywords_and_defaults(self):
        h = Horoball(center=1 + 2j, diameter=0.5)
        assert (h.center, h.diameter) == (1 + 2j, 0.5)
        assert h == Horoball(1 + 2j, 0.5)
        u, d = h
        assert (u, d) == (1 + 2j, 0.5)
        p = ConeCuspParams(base_area=2.0)
        assert (p.base_area, p.cone_excess, p.x_v) == (2.0, 0.0, 0.0)
        p = ConeCuspParams(2.0, x_v=1.5)
        assert (p.base_area, p.cone_excess, p.x_v) == (2.0, 0.0, 1.5)
        assert ConeCuspParams(3.0, 1.0, 0.5) == \
            ConeCuspParams(base_area=3.0, cone_excess=1.0, x_v=0.5)

    def test_assignment_raises(self):
        h = Horoball(0j, 1.0)
        p = ConeCuspParams(1.0)
        for record, name in [(h, "center"), (h, "diameter"),
                             (p, "base_area"), (p, "cone_excess"),
                             (p, "x_v")]:
            with pytest.raises(AttributeError):
                setattr(record, name, 2.0)
        with pytest.raises(AttributeError):
            h.extra = 1
        assert h == Horoball(0j, 1.0)

    def test_equal_records_hash_equal(self):
        assert Horoball(inf, 2.0) == Horoball(inf, 2.0)
        assert hash(Horoball(1j, 0.3)) == hash(Horoball(1j, 0.3))
        assert Horoball(1j, 0.3) != Horoball(1j, 0.4)
        assert len({Horoball(1j, 0.3), Horoball(1j, 0.3)}) == 1
        assert hash(ConeCuspParams(1.0, 2.0)) == hash(ConeCuspParams(1.0, 2.0))
        assert ConeCuspParams(1.0, 2.0) != ConeCuspParams(1.0, 2.5)

    def test_repr(self):
        assert repr(Horoball(1j, 0.5)) == "Horoball(center=1j, diameter=0.5)"
        assert repr(Horoball(inf, 2.0)) == \
            "Horoball(center=inf, diameter=2.0)"
        assert repr(ConeCuspParams(2.0, x_v=1.0)) == \
            "ConeCuspParams(base_area=2.0, cone_excess=0.0, x_v=1.0)"

    def test_validation_errors_and_messages(self):
        nan = float("nan")
        for diameter in (0.0, -1.0, nan):
            with pytest.raises(ValueError,
                               match="horoball diameter must be positive"):
                Horoball(0j, diameter)
        with pytest.raises(ValueError, match="horoball diameter"):
            Horoball(center=inf, diameter=nan)
        for area in (0.0, -2.0, nan):
            with pytest.raises(errors.NonPositiveArea,
                               match="base_area must be positive"):
                ConeCuspParams(area)
        with pytest.raises(ValueError,
                           match="cone_excess is an angle excess, >= 0"):
            ConeCuspParams(1.0, cone_excess=-0.1)
        with pytest.raises(errors.NegativeDistance,
                           match="x_v is a distance, >= 0"):
            ConeCuspParams(1.0, x_v=-1.0)

    def test_replace_and_make_validate(self):
        h = Horoball(1j, 0.5)
        assert h._replace(diameter=2.0) == Horoball(1j, 2.0)
        assert Horoball._make((inf, 3.0)) == Horoball(inf, 3.0)
        with pytest.raises(ValueError, match="horoball diameter"):
            h._replace(diameter=0.0)
        with pytest.raises(ValueError, match="horoball diameter"):
            Horoball._make((1j, -1.0))
        p = ConeCuspParams(1.0)
        assert p._replace(x_v=2.0) == ConeCuspParams(1.0, 0.0, 2.0)
        with pytest.raises(errors.NegativeDistance):
            p._replace(x_v=-2.0)
        with pytest.raises(errors.NonPositiveArea):
            ConeCuspParams._make((0.0, 0.0, 0.0))


class TestHoroball:

    def test_validation(self):
        with pytest.raises(ValueError):
            Horoball(0j, 0.0)
        with pytest.raises(ValueError):
            Horoball(inf, -1.0)

    def test_distance_examples(self):
        assert abs(horoball_distance(Horoball(0j, 1.0), Horoball(inf, 1.0))) \
            < 1e-12
        got = horoball_distance(Horoball(0j, 1.0), Horoball(2 + 0j, 1.0))
        assert abs(got - log(4)) < 1e-12
        # overlap comes out negative
        assert horoball_distance(Horoball(0j, 2.0), Horoball(1 + 0j, 2.0)) < 0

    def test_distance_symmetry_and_tangency(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h1, h2 = random_disjoint_pair(rng)
            assert horoball_distance(h1, h2) == horoball_distance(h2, h1)
        # constructed tangent pairs: |u - v|^2 = d1 d2
        for d1, d2 in [(1.0, 1.0), (0.25, 4.0), (2.0, 0.3)]:
            span = sqrt(d1 * d2)
            pair = (Horoball(0j, d1), Horoball(complex(span), d2))
            assert abs(horoball_distance(*pair)) < 1e-12

    def test_distance_against_geodesic_integration(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            span = float(rng.uniform(0.2, 6.0))
            d1 = float(rng.uniform(0.05, 2.0))
            d2 = float(rng.uniform(0.05, 2.0))
            got = horoball_distance(Horoball(0j, d1),
                                    Horoball(complex(span), d2))
            want = horoball_gap_numeric(span, d1, d2)
            assert abs(got - want) < TOL, (span, d1, d2)

    def test_distance_only_depends_on_the_gap(self):
        # complex centers enter through |u - v| alone
        a = horoball_distance(Horoball(1 + 2j, 0.7), Horoball(4 + 6j, 1.3))
        b = horoball_distance(Horoball(0j, 0.7), Horoball(5 + 0j, 1.3))
        assert abs(a - b) < 1e-15

    def test_coincident_centers(self):
        with pytest.raises(errors.CoincidentCenters):
            horoball_distance(Horoball(1j, 1.0), Horoball(1j, 2.0))
        with pytest.raises(errors.CoincidentCenters):
            horoball_distance(Horoball(inf, 1.0), Horoball(inf, 2.0))

    def test_underflowing_diameter_product(self):
        # d1 d2 = 1e-400 underflows to 0; the logs taken apart stay finite
        got = horoball_distance(Horoball(0j, 1e-200), Horoball(10 + 0j, 1e-200))
        assert got == pytest.approx(2 * log(10) + 400 * log(10), rel=1e-15)

    def test_overflowing_quotient(self):
        # |u - v|^2 / (d1 d2) = 1e320 and h / d = 1e310 overflow to inf
        got = horoball_distance(Horoball(0j, 1e-150), Horoball(1e10 + 0j, 1e-150))
        assert got == pytest.approx(320 * log(10), rel=1e-15)
        got = horoball_distance(Horoball(inf, 1e300), Horoball(0j, 1e-10))
        assert got == pytest.approx(310 * log(10), rel=1e-15)
        assert horoball_distance(Horoball(0j, 1e-10), Horoball(inf, 1e300)) \
            == got
        # and h / d = 1e-330 underflows to 0, far inside the other ball
        got = horoball_distance(Horoball(inf, 1e-300), Horoball(0j, 1e30))
        assert got == pytest.approx(-330 * log(10), rel=1e-15)

    def test_in_range_pairs_keep_the_direct_quotient(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            h1, h2 = random_disjoint_pair(rng)
            (u, d1), (v, d2) = h1, h2
            if u == inf:
                want = log(d1 / d2)
            else:
                want = log(abs(u - v) ** 2 / (d1 * d2))
            assert horoball_distance(h1, h2) == want


class TestTangentLengths:

    def test_tangent_pair_attains_the_extremes(self):
        l1, l2 = tangent_lengths(Horoball(inf, 1.0), Horoball(0j, 1.0))
        assert abs(l1 - TANGENT_MIN) < 1e-12
        assert abs(l2 - sqrt(2)) < 1e-12
        # a finite-finite tangent pair gives the same values
        l1f, l2f = tangent_lengths(Horoball(0j, 2.0), Horoball(1 + 0j, 0.5))
        assert abs(l1f - TANGENT_MIN) < 1e-12
        assert abs(l2f - sqrt(2)) < 1e-12

    def test_shrinking_one_ball_moves_both_inward(self):
        l1, l2 = tangent_lengths(Horoball(inf, 1.0), Horoball(0j, 0.5))
        assert l1 > TANGENT_MIN
        assert l2 < sqrt(2)

    def test_swap_symmetry(self):
        h1, h2 = Horoball(0j, 1.0), Horoball(3 + 0j, 0.7)
        assert tangent_lengths(h1, h2) == tangent_lengths(h2, h1)

    def test_against_numeric_tangency_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = float(rng.uniform(0.02, 1.0))
            got = tangent_lengths(Horoball(inf, 1.0), Horoball(0j, d))
            want = tangent_pair_numeric(d)
            assert abs(got[0] - want[0]) < TOL, d
            assert abs(got[1] - want[1]) < TOL, d

    def test_monte_carlo_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            h1, h2 = random_disjoint_pair(rng)
            l1, l2 = tangent_lengths(h1, h2)
            assert l1 >= TANGENT_MIN - TOL
            assert l2 <= sqrt(2) + TOL

    def test_equality_approached_at_tangency(self):
        gaps = [10.0 ** -k for k in range(1, 9)]
        excesses = []
        for delta in gaps:
            h2 = Horoball(0j, exp(-delta))
            l1, l2 = tangent_lengths(Horoball(inf, 1.0), h2)
            excesses.append(l1 - TANGENT_MIN)
            assert sqrt(2) - l2 < 2 * delta
        assert all(e > 0 for e in excesses)
        assert excesses == sorted(excesses, reverse=True)
        assert excesses[-1] < 1e-7

    def test_overlap_rejected(self):
        with pytest.raises(errors.OverlappingHoroballs):
            tangent_lengths(Horoball(0j, 2.0), Horoball(1 + 0j, 2.0))

    def test_far_apart_pair(self):
        # delta = 310 ln 10: r = e^-delta / 2 is subnormal and (1 + r + c)/r
        # overflows, so l1 = delta + ln(2 (1 + r + c)) = delta + ln 4
        delta = 310 * log(10)
        l1, l2 = tangent_lengths(Horoball(inf, 1e300), Horoball(0j, 1e-10))
        assert l1 == pytest.approx(delta + log(4.0), rel=1e-15)
        assert l2 == 1.0
        # r = 0 outright
        l1, l2 = tangent_lengths(Horoball(0j, 1e-200),
                                 Horoball(1e100 + 0j, 1e-200))
        assert l1 == pytest.approx(600 * log(10) + log(4.0), rel=1e-15)
        assert l2 == 1.0

    def test_sampled_pairs_keep_the_direct_quotient(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            h1, h2 = random_disjoint_pair(rng)
            r = 0.5 * exp(-horoball_distance(h1, h2))
            c = sqrt(1.0 + 2.0 * r)
            assert tangent_lengths(h1, h2) == (log((1.0 + r + c) / r), c)


class TestConeCuspArea:

    def test_validation(self):
        with pytest.raises(errors.NonPositiveArea):
            ConeCuspParams(0.0)
        with pytest.raises(ValueError):
            ConeCuspParams(1.0, cone_excess=-0.1)
        with pytest.raises(errors.NegativeDistance):
            ConeCuspParams(1.0, x_v=-1.0)
        with pytest.raises(errors.NegativeDistance):
            cone_cusp_area(ConeCuspParams(1.0), -0.5)

    def test_closed_forms(self):
        p = ConeCuspParams(3.0, cone_excess=1.0, x_v=2.0)
        assert cone_cusp_area(p, 0.0) == 3.0
        smooth = ConeCuspParams(2.5)
        for x in [0.0, 0.7, 3.0]:
            assert abs(cone_cusp_area(smooth, x) - exp(x) * 2.5) < 1e-12
        p0 = ConeCuspParams(1.0, cone_excess=pi, x_v=0.0)
        want = exp(2) + 2 * pi * sinh(1.0) ** 2
        assert abs(cone_cusp_area(p0, 2.0) - want) < 1e-12

    def test_exponential_growth(self):
        # expanding by d multiplies the area by at least e^d
        rng = np.random.default_rng(17)
        for _ in range(10000):
            p = ConeCuspParams(float(rng.uniform(0.1, 5.0)),
                               float(rng.uniform(0.0, 2 * pi)),
                               float(rng.uniform(0.0, 3.0)))
            x = float(rng.uniform(0.0, 4.0))
            d = float(rng.uniform(0.0, 4.0))
            lhs = cone_cusp_area(p, x + d)
            rhs = exp(d) * cone_cusp_area(p, x)
            assert lhs >= rhs - 1e-12 * max(1.0, rhs)


class TestAreaAndLengthBounds:

    def test_max_cusp_area(self):
        assert max_cusp_area_bound(-1, singular=False) == 6
        assert abs(max_cusp_area_bound(-1, singular=True) - 2 * pi) < 1e-15
        assert max_cusp_area_bound(-2, singular=False) == 12
        with pytest.raises(errors.NonNegativeChi):
            max_cusp_area_bound(0, singular=False)

    def test_shortest_arc_bound(self):
        got = shortest_arc_length_bound(-1, WAIST, singular=False)
        assert abs(got - log(18 * sqrt(2))) < 1e-12
        assert abs(got - 3.2369) < 1e-4
        assert abs(shortest_arc_length_bound(-1, 6.0, singular=False)) < 1e-15
        assert abs(shortest_arc_length_bound(-2, 1.0, singular=False)
                   - 2 * log(12)) < 1e-12
        sing = shortest_arc_length_bound(-1, 1.0, singular=True)
        assert abs(sing - 2 * log(2 * pi)) < 1e-12
        with pytest.raises(errors.NonPositiveArea):
            shortest_arc_length_bound(-1, 0.0, singular=False)
        with pytest.raises(errors.NonNegativeChi):
            shortest_arc_length_bound(1, 1.0, singular=False)

    def test_drift_bound(self):
        assert drift_bound(1e-9) == sqrt(2)
        assert abs(drift_bound(10.0) - (5.0 + 0.53284)) < 1e-4
        spec = 0.5 * (log(18 * sqrt(2)) - TANGENT_MIN + 2 * sqrt(2))
        assert abs(drift_bound(log(18 * sqrt(2))) - spec) < 1e-12
        assert abs(spec - 2.1513) < 1e-4
        # monotone non-decreasing
        rng = np.random.default_rng(19)
        xs = np.sort(rng.uniform(0.0, 12.0, size=200))
        vals = [drift_bound(float(x)) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_shadow_radius(self):
        assert abs(shadow_radius(-1) - sqrt(2) / (8 * pi * pi)) < 1e-15
        assert abs(shadow_radius(-1) - 0.017911) < 1e-6
        assert abs(shadow_radius(-2) - shadow_radius(-1) / 4) < 1e-15
        assert abs(shadow_radius(-3) - sqrt(2) / (72 * pi * pi)) < 1e-15
        with pytest.raises(errors.NonNegativeChi):
            shadow_radius(0)

    def test_packing_area(self):
        assert abs(packing_area_lower(1, 1.0) - 2 * sqrt(3)) < 1e-15
        assert packing_area_lower(5, 1e-9) < 1e-16
        assert abs(packing_area_lower(3, 2.0) - PACKING * 3 * pi * 4.0) < 1e-12
        # 2d disks of shadow radius at chi = -1 pack area sqrt(3) d/(8 pi^4)
        for d in [1, 2, 7]:
            got = packing_area_lower(2 * d, shadow_radius(-1))
            want = sqrt(3) * d / (8 * pi ** 4)
            assert abs(got - want) < 1e-15 * max(1.0, want)
