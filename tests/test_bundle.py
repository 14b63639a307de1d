import itertools
import json
import math

import numpy as np
import pytest

from cusplab import cli, errors
from cusplab.bundle import (
    CuspCrossSection,
    ShapeVector,
    bundle_report,
    cusp_cross_section,
    gluing_system,
    layered_triangulation,
    maximal_cusp,
    solve_shapes,
    tetrahedron_volume,
    total_volume,
)
from oracles import (bloch_wigner, developed_residual, figure_eight_cusp,
                     maximal_cusp_bfs, solve_shapes_developed)

REGULAR = complex(0.5, math.sqrt(3.0) / 2.0)

# frozen from the exact group enumeration in oracles.figure_eight_cusp:
# maximal ball diameter exactly 1, longitude 2 + 4w of length 2 sqrt 3,
# meridian of length 1, maximal cusp area 2 sqrt 3
FIG8_AREA = 2.0 * math.sqrt(3.0)
FIG8_LONGITUDE = 2.0 * math.sqrt(3.0)
FIG8_MERIDIAN = 1.0

# frozen from oracles.bloch_wigner at the hexagonal point
REGULAR_TET_VOLUME = 1.0149416064096535
FIG8_VOLUME = 2.0298832128193070


@pytest.fixture(scope="module")
def solved_rl():
    tri = layered_triangulation("RL")
    system = gluing_system(tri)
    return tri, system, solve_shapes(system)


@pytest.fixture(scope="module")
def maximal_rl(solved_rl):
    tri, _, shapes = solved_rl
    return maximal_cusp(tri, shapes)


def random_upper_shapes(rng, n):
    return [complex(rng.uniform(-1.5, 2.5), rng.uniform(0.05, 2.0))
            for _ in range(n)]


def two_letter_words(max_len):
    for n in range(2, max_len + 1):
        for letters in itertools.product("RL", repeat=n):
            word = "".join(letters)
            if "R" in word and "L" in word:
                yield word


class TestLayeredTriangulation:

    def test_one_tetrahedron_per_letter(self):
        for word in ["RL", "RRL", "RLRL", "RRRLL"]:
            assert layered_triangulation(word).num_tetrahedra == len(word)

    def test_edge_classes_partition_the_edges(self):
        for word in ["RL", "RRL", "RRLL", "RRLRL"]:
            tri = layered_triangulation(word)
            # one edge class per tetrahedron, six slots per tetrahedron
            assert len(tri.edge_classes) == len(word)
            slots = [e for cls in tri.edge_classes for e in cls]
            assert len(slots) == 6 * len(word)
            assert len(set(slots)) == len(slots)

    def test_gluings_form_a_fixed_point_free_involution(self):
        tri = layered_triangulation("RRLRL")
        assert len(tri.gluings) == 4 * tri.num_tetrahedra
        for (i, r), (j, r2, sigma) in tri.gluings.items():
            assert (i, r) != (j, r2)
            back = tri.gluings[(j, r2)]
            assert (back[0], back[1]) == (i, r)
            for m, m2 in sigma.items():
                assert back[2][m2] == m

    def test_winding_degrees_sit_on_the_closure(self):
        tri = layered_triangulation("RRL")
        n = tri.num_tetrahedra
        ups = [f for f, d in tri.degrees.items() if d == 1]
        downs = [f for f, d in tri.degrees.items() if d == -1]
        assert sorted(f[0] for f in ups) == [n - 1, n - 1]
        assert sorted(f[0] for f in downs) == [0, 0]
        zero = [f for f, d in tri.degrees.items() if d == 0]
        assert len(zero) == 4 * n - 4

    def test_fiber_boundary_class_walks_the_bottom_corners(self):
        for word in ["RL", "LR", "RRL", "LLRL"]:
            tri = layered_triangulation(word)
            walk = tri.fiber_boundary_class
            assert len(walk) == 6
            assert all(t == 0 for t, _, _ in walk)
            # each bottom face appears three times, alternating
            faces = [r for _, r, _ in walk]
            assert sorted(faces) == [0, 0, 0, 1, 1, 1]
            assert all(a != b for a, b in zip(faces, faces[1:]))

    def test_bad_words(self):
        with pytest.raises(errors.NotPseudoAnosov):
            layered_triangulation("RRRR")
        with pytest.raises(errors.NotPseudoAnosov):
            layered_triangulation("L")
        with pytest.raises(errors.EmptyWord):
            layered_triangulation("")
        with pytest.raises(ValueError):
            layered_triangulation("RLX")


class TestShapeVector:

    def test_accepts_upper_half_plane(self):
        v = ShapeVector((1j, REGULAR))
        assert len(v) == 2
        assert v[1] == REGULAR

    def test_rejects_bad_entries(self):
        for bad in [(), (1 + 0j,), (0.5 - 0.1j,), (complex("nan"),),
                    (0j,), (1 + 0j, 1j)]:
            with pytest.raises(errors.DegenerateShape):
                ShapeVector(bad)


class TestGluingSystem:

    def test_equation_count(self):
        for word in ["RL", "RRL", "RRLL"]:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            assert system.num_equations == len(tri.edge_classes) + 1
            assert len(system.residual([1j] * len(word))) \
                == system.num_equations

    def test_edge_rows_sum_to_zero_identically(self):
        # the logarithmic parameters of one tetrahedron sum to 2 pi i, so
        # the edge equations carry one exact linear relation at any shapes
        rng = np.random.default_rng(11)
        for word in ["RL", "RRL", "RRLRL"]:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            for _ in range(20):
                zs = random_upper_shapes(rng, len(word))
                res = system.residual(zs)
                assert abs(sum(res[:-1])) < 1e-10

    def test_regular_shape_solves_the_two_bridge_word(self):
        tri = layered_triangulation("RL")
        system = gluing_system(tri)
        res = system.residual([REGULAR, REGULAR])
        assert float(np.max(np.abs(res))) < 1e-12

    def test_residual_matches_the_developed_oracle(self):
        # the monomial completeness row is the principal log of the
        # developed holonomy ratio, and the edge matrix sums the same logs
        rng = np.random.default_rng(5)
        for word in two_letter_words(6):
            system = gluing_system(layered_triangulation(word))
            for _ in range(20):
                zs = random_upper_shapes(rng, len(word))
                got = system.residual(zs)
                want = developed_residual(system, zs)
                assert float(np.max(np.abs(got - want))) < 1e-12, word

    def test_one_system_per_triangulation(self):
        tri = layered_triangulation("RRLRL")
        assert gluing_system(tri) is gluing_system(tri)
        assert gluing_system(tri) is not gluing_system(
            layered_triangulation("RRLRL"))

    def test_other_base_builds_its_own_system(self):
        # a non-default base moves the reference cut, which scales the
        # lattice but keeps the modulus longitude^2 / area
        tri = layered_triangulation("RRLRL")
        shapes = solve_shapes(gluing_system(tri))
        default = cusp_cross_section(tri, shapes)
        moved = cusp_cross_section(tri, shapes, base=(2, 1))
        assert abs(moved.longitude_length ** 2 / moved.area
                   - default.longitude_length ** 2 / default.area) < 1e-8
        assert abs(moved.area - default.area) > 1e-6 * default.area
        assert cusp_cross_section(tri, shapes) == default


class TestSolveShapes:

    def test_default_start_reaches_the_hexagonal_point(self, solved_rl):
        _, system, shapes = solved_rl
        assert max(abs(z - REGULAR) for z in shapes) < 1e-9
        assert float(np.max(np.abs(system.residual(shapes)))) < 1e-12

    def test_custom_and_named_starts(self, solved_rl):
        _, system, _ = solved_rl
        for init in ["regular", [0.5 + 0.8j, 0.4 + 0.9j]]:
            shapes = solve_shapes(system, init=init)
            assert max(abs(z - REGULAR) for z in shapes) < 1e-10

    def test_solved_input_returns_at_once(self, solved_rl):
        _, system, shapes = solved_rl
        again = solve_shapes(system, init=shapes)
        assert tuple(again) == tuple(shapes)

    def test_longer_words_converge(self):
        for word in ["RRL", "RRLL", "RRRLL"]:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            shapes = solve_shapes(system)
            assert float(np.max(np.abs(system.residual(shapes)))) < 1e-12

    def test_near_flat_start_fails_loudly_or_recovers(self, solved_rl):
        _, system, _ = solved_rl
        try:
            shapes = solve_shapes(system, init=[complex(0.5, 1e-9)] * 2)
        except (errors.DegenerateShape, errors.Diverged,
                errors.MaxIterations):
            return
        assert float(np.max(np.abs(system.residual(shapes)))) < 1e-12

    def test_matches_the_developed_solver(self):
        # same start, step, line search and tolerances on the developed
        # residual: the same exception class, or the same shapes
        for word in two_letter_words(7):
            system = gluing_system(layered_triangulation(word))
            try:
                want = solve_shapes_developed(system)
            except errors.NumericalError as exc:
                with pytest.raises(type(exc)):
                    solve_shapes(system)
                continue
            got = solve_shapes(system)
            assert max(abs(z - w) for z, w in zip(got, want)) < 1e-10, word

    def test_degenerate_failure_names_word_step_and_tetrahedron(self):
        system = gluing_system(layered_triangulation("RRRRRLLRR"))
        with pytest.raises(errors.DegenerateShape) as info:
            solve_shapes(system)
        message = str(info.value)
        assert "word 'RRRRRLLRR'" in message
        assert "Newton step" in message
        assert "worst tetrahedron" in message

    def test_diverged_failure_names_word_step_and_tetrahedron(self,
                                                             solved_rl):
        # no step can push the residual below zero; the iterate is the
        # hexagonal point, and either tetrahedron may round to the worst
        _, system, _ = solved_rl
        with pytest.raises(errors.Diverged) as info:
            solve_shapes(system, tol=0.0)
        message = str(info.value)
        assert "word 'RL', Newton step " in message
        named = message.split("worst tetrahedron ")[1].split(" has shape ")
        assert named[0] in ("0", "1")
        assert abs(complex(named[1]) - REGULAR) < 1e-9

    def test_iteration_cap_names_word_step_and_tetrahedron(self):
        # a residual that shrinks on every call but never reaches tol
        class Shrinking:
            triangulation = layered_triangulation("RRL")
            calls = 0

            def residual(self, zs):
                self.calls += 1
                return np.full(3, 1.0 / self.calls, dtype=complex)

            def _evaluate(self, zs):
                return zs

        with pytest.raises(errors.MaxIterations) as info:
            solve_shapes(Shrinking(), init=[2j, 1j, 3j])
        message = str(info.value)
        assert "word 'RRL', Newton step 50:" in message
        assert "worst tetrahedron" in message

    def test_input_validation(self, solved_rl):
        _, system, _ = solved_rl
        with pytest.raises(ValueError):
            solve_shapes(system, init="hexagonal")
        with pytest.raises(ValueError):
            solve_shapes(system, init=[1j, 1j, 1j])


class TestVolume:

    def test_regular_tetrahedron(self):
        assert abs(tetrahedron_volume(REGULAR) - REGULAR_TET_VOLUME) < 1e-12

    def test_matches_dilogarithm_route(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            z = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.05, 2.0))
            assert abs(tetrahedron_volume(z) - bloch_wigner(z)) < 1e-11

    def test_degenerate_shape_rejected(self):
        with pytest.raises(errors.DegenerateShape):
            tetrahedron_volume(0.5 - 0.2j)

    def test_two_bridge_volume(self, solved_rl):
        _, _, shapes = solved_rl
        assert abs(total_volume(shapes) - FIG8_VOLUME) < 1e-9

    def test_double_cover_doubles_the_volume(self, solved_rl):
        _, _, shapes = solved_rl
        tri = layered_triangulation("RLRL")
        cover = solve_shapes(gluing_system(tri))
        assert abs(total_volume(cover) - 2.0 * total_volume(shapes)) < 1e-9

    def test_word_symmetries_preserve_volume(self):
        vols = []
        for word in ["RRL", "RLR", "LRR", "LLR", "RLL", "LRL"]:
            shapes = solve_shapes(gluing_system(layered_triangulation(word)))
            vols.append(total_volume(shapes))
        assert max(vols) - min(vols) < 1e-10


class TestCuspCrossSection:

    def test_reference_cut_of_the_two_bridge_word(self, solved_rl):
        tri, system, shapes = solved_rl
        cusp = cusp_cross_section(tri, shapes)
        assert abs(cusp.area - FIG8_AREA) < 1e-9
        assert abs(cusp.longitude_length - FIG8_LONGITUDE) < 1e-9
        assert abs(cusp.height - 1.0) < 1e-9
        mu, lam = cusp.translations
        assert abs(abs(mu) - FIG8_MERIDIAN) < 1e-9
        assert abs(abs((mu.conjugate() * lam).imag) - cusp.area) < 1e-12

    def test_developed_triangles_tile_the_lattice_torus(self):
        # the per-triangle euclidean areas must add up to the coarea of
        # the translation lattice; inconsistent orientations would not
        for word in ["RL", "RRL", "RRLL"]:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            shapes = solve_shapes(system)
            cusp = cusp_cross_section(tri, shapes)
            assert abs(system.developed_area(shapes) - cusp.area) \
                < 1e-9 * cusp.area

    def test_base_corner_does_not_matter(self):
        tri = layered_triangulation("RRLL")
        shapes = solve_shapes(gluing_system(tri))
        vals = []
        for i in range(tri.num_tetrahedra):
            for k in range(4):
                c = cusp_cross_section(tri, shapes, base=(i, k))
                vals.append(c.longitude_length ** 2 / c.area)
        assert max(vals) - min(vals) < 1e-8

    def test_unsolved_shapes_are_refused(self, solved_rl):
        tri, _, _ = solved_rl
        with pytest.raises(errors.NotSolved):
            cusp_cross_section(tri, [0.3 + 0.9j, 0.3 + 0.9j])

    def test_height_is_area_over_longitude(self, solved_rl):
        tri, _, shapes = solved_rl
        cusp = cusp_cross_section(tri, shapes)
        assert abs(cusp.height * cusp.longitude_length - cusp.area) < 1e-12

    def test_cross_section_validation(self):
        with pytest.raises(errors.NumericalError):
            CuspCrossSection((1 + 0j, 2 + 0j), 0.0, 2.0, 0.0)
        with pytest.raises(errors.NumericalError):
            CuspCrossSection((1 + 0j, 2j), 2.0, 2.0, 0.5)


class TestMaximalCusp:

    def test_two_bridge_maximal_area(self, maximal_rl):
        assert abs(maximal_rl.area - FIG8_AREA) < 1e-6

    def test_maximal_cut_reaches_the_exact_diameter(self, solved_rl,
                                                    maximal_rl):
        # the enumeration oracle proves the largest ball diameter is
        # exactly 1, so the maximal cut coincides with the reference cut
        tri, _, shapes = solved_rl
        reference = cusp_cross_section(tri, shapes)
        assert abs(maximal_rl.area - reference.area) < 1e-9
        assert abs(maximal_rl.longitude_length
                   - reference.longitude_length) < 1e-9

    def test_longitude_and_modulus(self, maximal_rl):
        assert abs(maximal_rl.longitude_length - FIG8_LONGITUDE) < 1e-6
        mu, lam = maximal_rl.translations
        assert abs((lam / mu).imag) > 0.1

    def test_oracle_agreement(self, maximal_rl):
        data = figure_eight_cusp()
        assert abs(maximal_rl.area - data["area"]) < 1e-6
        assert abs(maximal_rl.longitude_length
                   - data["longitude_length"]) < 1e-6
        mu, _ = maximal_rl.translations
        assert abs(abs(mu) - data["meridian_length"]) < 1e-6

    def test_double_cover_doubles_the_area(self, maximal_rl):
        tri = layered_triangulation("RLRL")
        shapes = solve_shapes(gluing_system(tri))
        cover = maximal_cusp(tri, shapes)
        assert abs(cover.area - 2.0 * maximal_rl.area) < 1e-6
        assert abs(cover.longitude_length
                   - maximal_rl.longitude_length) < 1e-6

    def test_unsolved_shapes_are_refused(self, solved_rl):
        tri, _, _ = solved_rl
        with pytest.raises(errors.NotSolved):
            maximal_cusp(tri, [1j, 1j])

    def test_shapes_off_the_upper_half_plane_are_refused(self, solved_rl):
        # the edge formula rests on the triangulation being geometric
        tri, _, shapes = solved_rl
        flipped = [shapes[0], shapes[1].conjugate()]
        with pytest.raises(errors.NotSolved) as info:
            maximal_cusp(tri, flipped)
        assert "'RL'" in str(info.value)
        assert "tetrahedron 1" in str(info.value)

    def test_depth_is_ignored(self, solved_rl, maximal_rl):
        tri, _, shapes = solved_rl
        assert maximal_cusp(tri, shapes, depth=1) == maximal_rl

    def test_edge_formula_matches_the_horoball_search(self):
        for word in cli.corpus(5):
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            got = maximal_cusp(tri, shapes)
            want = maximal_cusp_bfs(tri, shapes)
            assert abs(got.area - want.area) < 1e-10, word
            assert abs(got.height - want.height) < 1e-10, word
            assert abs(got.longitude_length
                       - want.longitude_length) < 1e-10, word

    def test_rotation_and_swap_invariance(self):
        # every word of length <= 6: a rotation relabels the same
        # triangulation and the R/L swap reverses its orientation
        by_class = {}
        for n in range(2, 7):
            for letters in itertools.product("RL", repeat=n):
                word = "".join(letters)
                if "R" not in word or "L" not in word:
                    continue
                tri = layered_triangulation(word)
                cusp = maximal_cusp(tri, solve_shapes(gluing_system(tri)))
                by_class.setdefault(cli._canonical(word), []).append(
                    (cusp.area, cusp.height))
        assert len(by_class) == len(cli.corpus(6))
        for word, values in by_class.items():
            area, height = values[0]
            for a, h in values[1:]:
                assert abs(a - area) < 1e-9 * area, word
                assert abs(h - height) < 1e-9 * height, word


class TestBundleReport:

    def test_report_is_json_ready(self):
        report = bundle_report("RRL")
        assert set(report) == {"word", "shapes", "residual", "volume",
                               "cusp_area", "longitude", "height"}
        parsed = json.loads(json.dumps(report))
        assert parsed["word"] == "RRL"
        assert len(parsed["shapes"]) == 3
        assert parsed["residual"] < 1e-12
        assert abs(parsed["height"] * parsed["longitude"]
                   - parsed["cusp_area"]) < 1e-9

    def test_report_matches_the_pieces(self, solved_rl, maximal_rl):
        _, _, shapes = solved_rl
        report = bundle_report("RL")
        assert abs(report["volume"] - total_volume(shapes)) < 1e-9
        assert abs(report["cusp_area"] - maximal_rl.area) < 1e-6
        got = [complex(a, b) for a, b in report["shapes"]]
        assert max(abs(z - w) for z, w in zip(got, shapes)) < 1e-9

    def test_longitudes_clear_the_waist_bound(self):
        for word in ["RL", "RRL", "RRLL", "RLRL", "RRRLL"]:
            report = bundle_report(word)
            assert report["longitude"] > 2.0 ** 0.25
