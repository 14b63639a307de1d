"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Each test prints one ``ACCEPTANCE n PASS`` line after its assertions, so a
verbose run reads as a checklist.  Criteria with runtime budgets measure
their own wall time and fail when over.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from cusplab import bounds, bundle, cli, farey, geometry, surface
from cusplab.arcs import distance as arc_distance
from cusplab.arcs import slope_arc
from cusplab.farey import Slope
from oracles import farey_bfs, maximal_cusp_bfs

SQRT3 = math.sqrt(3.0)
WAIST = 2.0 ** 0.25


def report(n, text):
    print("ACCEPTANCE %d PASS  %s" % (n, text))


@pytest.fixture(scope="module")
def corpus_reports():
    """verify_fibered over the whole length <= 6 corpus, timed once."""
    words = cli.corpus(6)
    t0 = time.time()
    reports = [bounds.verify_fibered(w, n_max=4) for w in words]
    return reports, time.time() - t0


def test_criterion_01_figure_eight_geometrization(capsys):
    t0 = time.time()
    assert cli.run(["bundle-report", "RL"]) == 0
    elapsed = time.time() - t0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residual"] < 1e-12
    regular = complex(0.5, SQRT3 / 2)
    offsets = [abs(complex(re_z, im_z) - regular)
               for re_z, im_z in doc["shapes"]]
    assert len(offsets) == 2
    assert max(offsets) < 1e-9
    assert elapsed < 1.0
    with capsys.disabled():
        report(1, "residual %.1e, shapes off by %.1e, %.2fs"
               % (doc["residual"], max(offsets), elapsed))


def test_criterion_02_figure_eight_maximal_cusp(capsys):
    t0 = time.time()
    tri = bundle.layered_triangulation("RL")
    shapes = bundle.solve_shapes(bundle.gluing_system(tri))
    cusp = bundle.maximal_cusp(tri, shapes)
    elapsed = time.time() - t0
    oracle = maximal_cusp_bfs(tri, shapes)
    assert abs(cusp.area - 2 * SQRT3) < 1e-12
    assert abs(cusp.area - oracle.area) < 1e-10
    assert elapsed < 1.0
    with capsys.disabled():
        report(2, "area %.12f vs 2*sqrt(3), edge formula == horoball "
               "search to %.1e, %.3fs"
               % (cusp.area, abs(cusp.area - oracle.area), elapsed))


def test_criterion_03_power_bounds_on_corpus(corpus_reports, capsys):
    reports, elapsed = corpus_reports
    assert len(reports) == 15
    worst = math.inf
    for rep in reports:
        for n in range(1, 5):
            # margins are 9 d_n - n*area and 3 d_n - n*height
            assert rep.margins["area_n%d" % n] >= 0.0, rep.word
            assert rep.margins["height_n%d" % n] > 0.0, rep.word
            worst = min(worst, rep.margins["area_n%d" % n],
                        rep.margins["height_n%d" % n])
        assert rep.violations == ()
    assert elapsed < 300.0
    with capsys.disabled():
        report(3, "%d words, powers to 4, smallest margin %.3f, %.1fs"
               % (len(reports), worst, elapsed))


def test_criterion_04_stable_lower_consistency(corpus_reports, capsys):
    reports, _ = corpus_reports
    worst_area = math.inf
    worst_height = math.inf
    for rep in reports:
        assert rep.margins["area_stable"] > 0.0, rep.word
        assert rep.margins["height_stable"] > 0.0, rep.word
        assert "consistent-strong:area_stable" in rep.flags, rep.word
        assert "consistent-strong:height_stable" in rep.flags, rep.word
        assert not any(f.startswith("inconclusive:") for f in rep.flags)
        worst_area = min(worst_area, rep.margins["area_stable"])
        worst_height = min(worst_height, rep.margins["height_stable"])
    with capsys.disabled():
        report(4, "area margins >= %.3f, height margins >= %.3f, "
               "no inconclusive results" % (worst_area, worst_height))


def test_criterion_05_farey_distance_exhaustive(capsys):
    t0 = time.time()
    small = [(s, q) for q in range(0, 21) for s in range(-20, 21)
             if math.gcd(s, q) == 1 and (q > 0 or s == 1)]
    index, rows = farey_bfs(50, small)
    assert np.all(np.isfinite(rows))
    cols = [index[v] for v in small]
    checked = 0
    for i, (p0, q0) in enumerate(small):
        s = Slope(p0, q0)
        row = rows[i]
        for (p1, q1), j in zip(small, cols):
            assert farey.distance(s, Slope(p1, q1)) == int(row[j]), \
                ((p0, q0), (p1, q1))
            checked += 1
    elapsed = time.time() - t0
    assert checked >= 100000
    assert elapsed < 60.0
    with capsys.disabled():
        report(5, "%d slope pairs, |p|, |q| <= 20, "
               "continued fractions == breadth-first search, %.1fs"
               % (checked, elapsed))


def test_criterion_06_arc_farey_cross_oracle(capsys):
    torus = surface.once_punctured_torus()
    rng = np.random.default_rng(2026)

    def random_slope():
        while True:
            p = int(rng.integers(-60, 61))
            q = int(rng.integers(-60, 61))
            if (p, q) != (0, 0):
                return Slope(p, q)

    done = 0
    while done < 1000:
        s, u = random_slope(), random_slope()
        a, b = slope_arc(torus, s), slope_arc(torus, u)
        if a.coord_sum > 32 or b.coord_sum > 32:
            continue
        assert arc_distance(a, b, budget=32) == farey.distance(s, u), (s, u)
        done += 1
    with capsys.disabled():
        report(6, "%d random arc pairs within coordinate budget 32, "
               "zero mismatches" % done)


def test_criterion_07_tangent_extremals(capsys):
    rng = np.random.default_rng(2027)
    sqrt2 = math.sqrt(2.0)
    min_l1 = math.inf
    max_l2 = 0.0
    done = 0
    while done < 100000:
        if rng.integers(6) == 0:
            h1 = geometry.Horoball(math.inf, float(rng.uniform(0.1, 5.0)))
        else:
            c1 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            h1 = geometry.Horoball(c1, float(rng.uniform(0.05, 3.0)))
        c2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        h2 = geometry.Horoball(c2, float(rng.uniform(0.05, 3.0)))
        if h1.center != math.inf and abs(h1.center - h2.center) < 1e-12:
            continue
        if geometry.horoball_distance(h1, h2) < 0.0:
            continue
        l1, l2 = geometry.tangent_lengths(h1, h2)
        assert l1 >= geometry.TANGENT_MIN - 1e-9
        assert l2 <= sqrt2 + 1e-9
        min_l1 = min(min_l1, l1)
        max_l2 = max(max_l2, l2)
        done += 1

    # constructed tangency attains both constants
    cases = [(geometry.Horoball(math.inf, 1.0), geometry.Horoball(0j, 1.0))]
    for _ in range(100):
        d1 = float(rng.uniform(0.05, 3.0))
        d2 = float(rng.uniform(0.05, 3.0))
        shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        gap = math.sqrt(d1 * d2) * (1.0 + 1e-12)
        cases.append((geometry.Horoball(shift, d1),
                      geometry.Horoball(shift + gap, d2)))
    eq_err = 0.0
    for h1, h2 in cases:
        l1, l2 = geometry.tangent_lengths(h1, h2)
        eq_err = max(eq_err, abs(l1 - geometry.TANGENT_MIN),
                     abs(l2 - sqrt2))
    assert eq_err < 1e-9
    with capsys.disabled():
        report(7, "%d disjoint pairs: l1 >= ln(3+2*sqrt(2)) and l2 <= "
               "sqrt(2); tangency equal to %.1e" % (done, eq_err))


def test_criterion_08_cone_growth(capsys):
    rng = np.random.default_rng(2028)
    worst = math.inf
    for _ in range(10000):
        params = geometry.ConeCuspParams(
            base_area=float(rng.uniform(0.1, 5.0)),
            cone_excess=float(rng.uniform(0.0, 2.0 * math.pi)),
            x_v=float(rng.uniform(0.0, 3.0)))
        x = float(rng.uniform(0.0, 4.0))
        d = float(rng.uniform(0.0, 3.0))
        small = geometry.cone_cusp_area(params, x)
        grown = geometry.cone_cusp_area(params, x + d)
        margin = grown - math.exp(d) * small
        assert margin >= -1e-12 * grown, (params, x, d)
        worst = min(worst, margin / grown)
    with capsys.disabled():
        report(8, "10000 cone samples, growth >= e^d with worst relative "
               "margin %.1e" % worst)


def test_criterion_09_lifting_upper_bound(capsys):
    base = surface.once_punctured_torus()
    cover = surface.build_cover(
        base, {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)})
    assert cover.degree == 3
    # genus-two total space: chi doubles the cover degree minus itself
    chi_total = (cover.total.num_triangles
                 - len(cover.total.edge_labels))
    assert chi_total == -3

    slopes = ["0/1", "1/0", "1/1", "-1/1", "1/2", "2/1", "-1/2"]
    arcs_by_slope = {s: slope_arc(base, s) for s in slopes}
    pairs = [(arcs_by_slope[a], arcs_by_slope[b])
             for a, b in itertools.combinations(slopes, 2)]
    assert len(pairs) >= 20

    rep = bounds.verify_lifting(cover, pairs, cap=12)
    lifted = 0
    for entry in rep["pairs"]:
        assert entry["d_base"] <= 3
        assert entry["lower_vacuous"] is True
        for lift in entry["lifts"]:
            assert lift["upper_ok"] is True
            assert lift["lower_ok"] is True
            lifted += 1
    assert rep["all_upper_hold"] is True
    assert rep["all_lower_hold"] is True
    with capsys.disabled():
        report(9, "degree-3 cover, %d pairs, %d lift comparisons, upper "
               "bound exact, lower bound vacuous as labeled"
               % (len(pairs), lifted))


def test_criterion_10_longitude_waist(corpus_reports, capsys):
    reports, _ = corpus_reports
    shortest = min(rep.longitude for rep in reports)
    for rep in reports:
        assert rep.longitude > WAIST, rep.word
    with capsys.disabled():
        report(10, "all %d longitudes exceed 2^(1/4); shortest %.6f"
               % (len(reports), shortest))
