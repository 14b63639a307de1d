import itertools
import json
import math
from fractions import Fraction

import pytest

from cusplab import bundle, errors, farey
from cusplab.arcs import slope_arc
from cusplab.bounds import (
    CuspReport,
    qf_bound_values,
    verify_fibered,
    verify_lifting,
)
from cusplab.surface import build_cover, once_punctured_torus

FIG8_AREA = 2.0 * math.sqrt(3.0)


@pytest.fixture(scope="module")
def rl_report():
    return verify_fibered("RL", n_max=4)


@pytest.fixture(scope="module")
def torus():
    return once_punctured_torus()


@pytest.fixture(scope="module")
def triple_cover(torus):
    """Connected once-punctured degree-3 cover; chi = -3, genus 2."""
    return build_cover(torus, {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)})


class TestQfBoundValues:

    def test_unit_chi_zero_distance(self):
        area_lo, area_hi, height_lo, height_hi = qf_bound_values(-1, 0)
        assert abs(area_lo - (-1.0 / 23.0)) < 1e-15
        assert area_hi == 26.0
        assert abs(height_lo - (-1.0 / 27.0)) < 1e-15
        assert height_hi == 5.0

    def test_general_chi_recomputation(self):
        chi, d = -2, 10
        area_lo, area_hi, height_lo, height_hi = qf_bound_values(chi, d)
        ln2 = math.log(2.0)
        assert abs(area_lo - (10 / (450.0 * 16) - 1 / (23.0 * 4))) < 1e-12
        assert abs(area_hi - (9 * 4 * 10 + abs(-24 * ln2 - 52))) < 1e-12
        assert abs(height_lo - (10 / (536.0 * 16) - 1 / (27.0 * 4))) < 1e-12
        assert abs(height_hi - (60 + 2 * ln2 + 5)) < 1e-12

    def test_bounds_grow_with_distance(self):
        prev = qf_bound_values(-1, 0)
        for d in range(1, 8):
            cur = qf_bound_values(-1, d)
            assert cur[0] > prev[0] and cur[1] > prev[1]
            assert cur[2] > prev[2] and cur[3] > prev[3]
            prev = cur

    def test_rejects_bad_arguments(self):
        with pytest.raises(errors.NonNegativeChi):
            qf_bound_values(0, 1)
        with pytest.raises(errors.NonNegativeChi):
            qf_bound_values(1, 1)
        with pytest.raises(errors.NegativeDistance):
            qf_bound_values(-1, -1)


class TestVerifyFibered:

    def test_two_bridge_report(self, rl_report):
        assert rl_report.word == "RL"
        assert rl_report.chi == -1
        assert abs(rl_report.cusp_area - FIG8_AREA) < 1e-6
        assert rl_report.d_psi_n == {1: 1, 2: 2, 3: 3, 4: 4}
        assert rl_report.stable_upper == 1.0
        assert rl_report.violations == ()

    def test_margins_match_the_inequalities(self, rl_report):
        area, height = rl_report.cusp_area, rl_report.height
        for n, d in rl_report.d_psi_n.items():
            assert abs(rl_report.margins["area_n%d" % n]
                       - (9.0 * d - n * area)) < 1e-12
            assert abs(rl_report.margins["height_n%d" % n]
                       - (3.0 * d - n * height)) < 1e-12
        assert abs(rl_report.margins["area_stable"]
                   - (area - 1.0 / 450.0)) < 1e-12
        assert abs(rl_report.margins["height_stable"]
                   - (height - 1.0 / 536.0)) < 1e-12

    def test_stable_checks_come_out_strong(self, rl_report):
        assert "consistent-strong:area_stable" in rl_report.flags
        assert "consistent-strong:height_stable" in rl_report.flags
        assert not [f for f in rl_report.flags
                    if f.startswith("inconclusive")]

    def test_n_max_controls_the_scan(self):
        report = verify_fibered("RRL", n_max=2)
        assert sorted(report.d_psi_n) == [1, 2]
        assert sorted(k for k in report.margins if k.startswith("area_n")) \
            == ["area_n1", "area_n2"]
        assert report.violations == ()

    def test_reports_are_equal_across_runs(self, rl_report):
        assert verify_fibered("RL", n_max=4) == rl_report

    def test_report_invariant_enforced(self):
        with pytest.raises(errors.NumericalError) as info:
            CuspReport("RL", -1, 3.0, 2.0, 1.0, {1: 1}, 1.0, {}, ())
        assert str(info.value).startswith("word 'RL': height ")

    def test_bad_word_propagates(self):
        with pytest.raises(errors.NotPseudoAnosov):
            verify_fibered("RR", n_max=1)

    def test_distances_match_the_public_functions(self):
        # d(psi^n) and tau come off one distance matrix per word; tau is
        # also the least of the three cycle means taken as fractions
        count = 0
        for n in range(2, 11):
            for letters in itertools.product("RL", repeat=n):
                word = "".join(letters)
                if "R" not in word or "L" not in word:
                    continue
                m = farey.word_to_matrix(word)
                report = verify_fibered(word, n_max=8)
                assert report.d_psi_n == farey.translation_distances(m, 8)
                tau = farey.stable_translation_distance(m)
                (t00, t01), (t10, t11) = farey._distance_matrix(m)[1]
                assert tau == min(Fraction(t00), Fraction(t11),
                                  Fraction(t01 + t10, 2)), word
                assert report.stable_upper == float(tau), word
                count += 1
        assert count == 2026

    def test_builds_no_edge_classes(self, monkeypatch):
        # the triangulation of a scanned word holds its word and, once
        # solved, its gluing system: no edge classes, gluings or windings
        built = []
        layered = bundle.layered_triangulation

        def captured(word):
            built.append(layered(word))
            return built[-1]

        monkeypatch.setattr(bundle, "layered_triangulation", captured)
        verify_fibered("RRLRL", n_max=3)
        assert len(built) == 1
        assert sorted(vars(built[0])) == ["_system", "word"]


class TestVerifyLifting:

    def test_identity_cover_preserves_distances(self, torus):
        cover = build_cover(torus, {0: (0,), 1: (0,), 2: (0,)})
        pairs = [(slope_arc(torus, "0/1"), slope_arc(torus, "1/0")),
                 (slope_arc(torus, "0/1"), slope_arc(torus, "3/5")),
                 (slope_arc(torus, "1/2"), slope_arc(torus, "-1/1"))]
        report = verify_lifting(cover, pairs, cap=16)
        assert report["degree"] == 1
        for entry in report["pairs"]:
            assert len(entry["lifts"]) == 1
            assert entry["lifts"][0]["d_cover"] == entry["d_base"]

    def test_triple_cover_upper_bound(self, triple_cover, torus):
        pairs = [(slope_arc(torus, "0/1"), slope_arc(torus, "1/0")),
                 (slope_arc(torus, "0/1"), slope_arc(torus, "1/1")),
                 (slope_arc(torus, "0/1"), slope_arc(torus, "2/3")),
                 (slope_arc(torus, "1/2"), slope_arc(torus, "-1/1"))]
        report = verify_lifting(triple_cover, pairs, cap=12)
        assert report["degree"] == 3
        assert report["chi_base"] == -1
        assert report["all_upper_hold"]
        for entry in report["pairs"]:
            assert len(entry["lifts"]) == 9
            assert entry["lower_vacuous"]

    def test_disjoint_arcs_lift_disjoint(self, triple_cover, torus):
        # base distance one forces cover distance at most one
        report = verify_lifting(
            triple_cover,
            [(slope_arc(torus, "0/1"), slope_arc(torus, "1/0"))], cap=12)
        assert {l["d_cover"] for l in report["pairs"][0]["lifts"]} <= {0, 1}

    def test_report_is_deterministic(self, triple_cover, torus):
        pairs = [(slope_arc(torus, "0/1"), slope_arc(torus, "2/3"))]
        one = json.dumps(verify_lifting(triple_cover, pairs, cap=12),
                         sort_keys=True)
        two = json.dumps(verify_lifting(triple_cover, pairs, cap=12),
                         sort_keys=True)
        assert one == two

    def test_budget_propagates(self, triple_cover, torus):
        big = slope_arc(torus, "13/21")
        with pytest.raises(errors.BudgetExceeded):
            verify_lifting(triple_cover,
                           [(big, slope_arc(torus, "0/1"))], cap=4)
