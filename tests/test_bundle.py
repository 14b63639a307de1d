import cmath
import dataclasses
import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from cusplab import bundle, cli, errors, farey
from cusplab.bundle import (
    _angle_step,
    _lobachevsky,
    CuspCrossSection,
    GluingSystem,
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
from oracles import (RootedCuspGraph, angle_shift, angle_space,
                     angle_step_basis, birth_order_fill, bloch_wigner,
                     canonical_word, column_derivative,
                     completeness_monomial, developed_area,
                     developed_residual, edge_products, figure_eight_cusp,
                     layered_triangulation_plane, lobachevsky_spence,
                     maximal_cusp_bfs, maximal_cusp_pairwise,
                     maximal_cusp_products, peripheral_basis_gcd,
                     slot_walk_edge_classes, solve_shapes_basis,
                     solve_shapes_developed, solve_shapes_lstsq,
                     sparse_edge_rows, unplaced_loops)

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


# the bundle-pool words on which the damped Newton solve from z = i
# raised DegenerateShape, each with a cyclic run of at least 5 equal letters
RECOVERED = ("LLLLLRLLLLLLLLR", "RLLRLLLLLLLRLL", "RRLLRRRRR",
             "RRRLLLLLLRLLL", "RRRRRLLRR", "LLLLLLRLLRR", "RRLRLLRLLLLLL",
             "RRRRLLLRLLLLLLL", "LLLLLRLLLLLRRLL", "RLLLLLLLRLLLLRLR",
             "RRRRLLRRRRRLLRLR")


def random_upper_shapes(rng, n):
    return [complex(rng.uniform(-1.5, 2.5), rng.uniform(0.05, 2.0))
            for _ in range(n)]


def two_letter_words(max_len):
    for n in range(2, max_len + 1):
        for letters in itertools.product("RL", repeat=n):
            word = "".join(letters)
            if "R" in word and "L" in word:
                yield word


def random_words(count, low, high, seed):
    """Seeded random words with both letters, lengths low..high."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = "".join(rng.choice("RL")
                       for _ in range(rng.randint(low, high)))
        if "R" in word and "L" in word:
            words.append(word)
    return words


# the four word sets on which every word solves, with their sizes
EVERY_WORD_SETS = [
    (lambda: list(two_letter_words(9)), 1004),
    (lambda: bundle_pool(), 48),
    (lambda: random_words(200, 10, 20, seed=7), 200),
    (lambda: random_words(120, 30, 30, seed=30), 120),
]
EVERY_WORD_IDS = ["length<=9", "bundle-pool", "random-10-20", "random-30"]


def exponents(n, sign, terms):
    """A signed monomial as one integer vector: the exponents of z_0 ..
    z_n-1 and of 1 - z_0 .. 1 - z_n-1, then the sign bit."""
    vec = [0] * (2 * n) + [sign]
    for column, exponent in terms:
        vec[column] += exponent
    return vec


def row_exponents(n, row, sign=0):
    """A sparse log row as the exponent vector of its monomial: log z is
    z, log 1/(1 - z) is (1 - z)^-1 and log (z - 1)/z is -(1 - z) z^-1."""
    return exponents(n, sign + sum(c for _, k, c in row if k == 2), [
        term for i, k, c in row
        for term in (((i, c),), ((n + i, -c),), ((i, -c), (n + i, c)))[k]])


def in_lattice(generators, target):
    """Whether target is an integer combination of the generators, by
    Euclid's algorithm on each coordinate in turn (column echelon form)."""
    rest = [list(g) for g in generators]
    pivots = []
    for row in range(len(target)):
        active = [g for g in rest if g[row]]
        rest = [g for g in rest if not g[row]]
        while len(active) > 1:
            active.sort(key=lambda g: abs(g[row]))
            pivot, others = active[0], []
            for g in active[1:]:
                q = g[row] // pivot[row]
                g = [x - q * y for x, y in zip(g, pivot)]
                (others if g[row] else rest).append(g)
            active = [pivot] + others
        pivots += [(row, g) for g in active]
    left = list(target)
    for row, g in pivots:
        if left[row] % g[row]:
            return False
        q = left[row] // g[row]
        left = [x - q * y for x, y in zip(left, g)]
    return not any(left)


def bundle_pool():
    """The 48 words of the bundle-report benchmark pool: lengths 6..16,
    both letters, no repeats, drawn from the paper's arXiv number."""
    rng = random.Random(11085748)
    words = []
    while len(words) < 48:
        word = "".join(rng.choice("RL") for _ in range(rng.randint(6, 16)))
        if "R" in word and "L" in word and word not in words:
            words.append(word)
    return words


class TestLayeredTriangulation:

    def test_one_tetrahedron_per_letter(self):
        for word in ["RL", "RRL", "RLRL", "RRRLL"]:
            assert layered_triangulation(word).num_tetrahedra == len(word)

    def test_one_field(self):
        # the word is the whole triangulation
        tri = layered_triangulation("RRLRL")
        assert [f.name for f in dataclasses.fields(tri)] == ["word"]
        assert tri == bundle.LayeredTriangulation("RRLRL")

    def test_edge_classes_partition_the_edges(self):
        for word in ["RL", "RRL", "RRLL", "RRLRL"]:
            classes = slot_walk_edge_classes(word)
            # one edge class per tetrahedron, six slots per tetrahedron
            assert len(classes) == len(word)
            slots = [e for cls in classes for e in cls]
            assert len(slots) == 6 * len(word)
            assert len(set(slots)) == len(slots)

    def test_class_i_is_the_edge_born_at_layer_i(self):
        for word in ["RL", "RRL", "RRLL", "RRLRL"]:
            for i, cls in enumerate(slot_walk_edge_classes(word)):
                assert (i, (0, 1)) in cls, (word, i)

    @pytest.mark.parametrize("words, count", [
        (lambda: list(two_letter_words(9)), 1004),
        (bundle_pool, 48),
        (lambda: random_words(500, 10, 40, seed=1552), 500),
    ], ids=["length<=9", "bundle-pool", "random-10-40"])
    def test_matches_the_plane_oracle(self, words, count):
        # the letter tables against plane points, face keys and a
        # union-find: layer i's top faces glue to layer i + 1 by the _STACK
        # rows of its letter, winding once at the closure, and the slot
        # walk's classes are the plane's edge partition
        words = words()
        assert len(words) == count
        for word in words:
            n = len(word)
            want = layered_triangulation_plane(word)
            assert len(want.gluings) == len(want.degrees) == 4 * n, word
            for i in range(n):
                j = (i + 1) % n
                for r, r2, sigma in bundle._STACK[word[j]]:
                    assert want.gluings[(i, r)] == (j, r2, sigma), word
                    assert want.degrees[(i, r)] == (j == 0), word
            assert sorted(slot_walk_edge_classes(word)) \
                == sorted(want.edge_classes), word

    def test_gluings_form_a_fixed_point_free_involution(self):
        gluings = layered_triangulation_plane("RRLRL").gluings
        assert len(gluings) == 4 * 5
        for (i, r), (j, r2, sigma) in gluings.items():
            assert (i, r) != (j, r2)
            back = gluings[(j, r2)]
            assert (back[0], back[1]) == (i, r)
            for m, m2 in sigma.items():
                assert back[2][m2] == m

    def test_winding_degrees_sit_on_the_closure(self):
        degrees = layered_triangulation_plane("RRL").degrees
        n = 3
        ups = [f for f, d in degrees.items() if d == 1]
        downs = [f for f, d in degrees.items() if d == -1]
        assert sorted(f[0] for f in ups) == [n - 1, n - 1]
        assert sorted(f[0] for f in downs) == [0, 0]
        zero = [f for f, d in degrees.items() if d == 0]
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

    def test_pseudo_anosov_exactly_with_both_letters(self):
        # read off the letters, as the trace of the word's matrix says
        count = 0
        for n in range(1, 13):
            for letters in itertools.product("RL", repeat=n):
                word = "".join(letters)
                if farey.word_to_matrix(word).is_pseudo_anosov:
                    assert layered_triangulation(word).word == word
                else:
                    with pytest.raises(errors.NotPseudoAnosov):
                        layered_triangulation(word)
                count += 1
        assert count == 2 ** 13 - 2

    @pytest.mark.parametrize("word, error, message", [
        ("", errors.EmptyWord, "monodromy word is empty"),
        ("RLX", ValueError, "monodromy letters are L and R, got 'X'"),
        ("xRL", ValueError, "monodromy letters are L and R, got 'x'"),
        ("R", errors.NotPseudoAnosov, "monodromy 'R' is not pseudo-Anosov"),
        ("RRRR", errors.NotPseudoAnosov,
         "monodromy 'RRRR' is not pseudo-Anosov"),
    ])
    def test_bad_word_messages(self, word, error, message):
        # the messages of the check that multiplied the word out, whose
        # empty-word and letter errors come from the word's matrix
        with pytest.raises(error) as got:
            layered_triangulation(word)
        assert type(got.value) is error
        assert str(got.value) == message
        if error is not errors.NotPseudoAnosov:
            with pytest.raises(error, match="^%s$" % re.escape(message)):
                farey.word_to_matrix(word)


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
        # one edge row per edge class, one per tetrahedron, and the
        # completeness row
        for word in ["RL", "RRL", "RRLL"]:
            system = gluing_system(layered_triangulation(word))
            assert len(system.edge_rows) == len(word)
            assert len(system.residual([1j] * len(word))) == len(word) + 1

    @pytest.mark.parametrize("extra", [-3, -1, 1])
    def test_wrong_shape_count_is_not_solved(self, extra):
        # too few shapes would run off the rows and too many would leave
        # one unread: both are refused where the shapes enter, naming the
        # word and both counts; no shapes at all is a wrong count too,
        # though no ShapeVector holds it
        tri = layered_triangulation("RRL")
        shapes = list(solve_shapes(gluing_system(tri)))
        shapes = shapes + [REGULAR] if extra > 0 else shapes[:3 + extra]
        message = "word 'RRL': %d shapes for 3 tetrahedra" % (3 + extra)
        forms = [shapes, ShapeVector(tuple(shapes))] if shapes else [shapes]
        for call in (gluing_system(tri).residual,
                     lambda zs: cusp_cross_section(tri, zs),
                     lambda zs: maximal_cusp(tri, zs)):
            for zs in forms:
                with pytest.raises(errors.NotSolved) as info:
                    call(zs)
                assert str(info.value) == message

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
        # the edge rows sum the same principal logs as the developed
        # residual, and the letter row is the principal log of the inverse
        # derivative of the loop of cusp triangles at vertex 3
        rng = np.random.default_rng(5)
        for word in two_letter_words(6):
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            for _ in range(20):
                zs = random_upper_shapes(rng, len(word))
                got = system.residual(zs)
                want = developed_residual(system, zs)
                assert float(np.max(np.abs(got[:-1] - want[:-1]))) < 1e-12, \
                    word
                rho = column_derivative(tri, zs)
                assert abs(got[-1].real + math.log(abs(rho))) < 1e-12, word
                assert abs(cmath.exp(got[-1]) * rho - 1.0) < 1e-12, word
                assert -math.pi < got[-1].imag <= math.pi

    @pytest.mark.parametrize("words, count", [
        (lambda: list(two_letter_words(9)), 1004),
        (bundle_pool, 48),
        (lambda: random_words(200, 10, 20, seed=7), 200),
    ], ids=["length<=9", "bundle-pool", "random-10-20"])
    def test_letter_row_matches_the_replayed_monomial(self, words, count):
        # in exponents: the letter row, the inverse derivative of a loop
        # that winds +1 around the fiber, is the replayed completeness
        # monomial to the power minus its loop's winding, times integer
        # powers of the edge rows and of the loops that do not wind (the
        # multiples of lam, on which the two loops may differ), with the
        # sign bit matching modulo 2
        words = words()
        assert len(words) == count
        for word in words:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            graph = RootedCuspGraph(tri)
            n = len(word)
            letter = row_exponents(n, system._complete_row, system._sign)
            generators = [[0] * (2 * n) + [2]]
            generators += [row_exponents(n, edge) for edge in system.edge_rows]
            generators += [exponents(n, *completeness_monomial(graph, loop))
                           for loop in graph.nontree if loop[2] == 0]
            replayed = exponents(n, *completeness_monomial(graph))
            power = -graph.complete[2]
            assert in_lattice(generators, [
                a - power * b for a, b in zip(letter, replayed)]), word

    @pytest.mark.parametrize("words, count", [
        (lambda: list(two_letter_words(9)), 1004),
        (bundle_pool, 48),
        (lambda: random_words(200, 10, 20, seed=7), 200),
    ], ids=["length<=9", "bundle-pool", "random-10-20"])
    def test_edge_rows_match_the_class_sums(self, words, count):
        # the slot walk writes each edge row in the order, and with the
        # coefficients, of the class sums, so every solve iterate is the
        # one the class sums give
        words = words()
        assert len(words) == count
        for word in words:
            tri = layered_triangulation(word)
            assert gluing_system(tri).edge_rows == sparse_edge_rows(tri), word

    def test_holonomies_wind_once_in_all(self):
        # the 2n + 1 sides the column development leaves unplaced: the four
        # column closings wind once round the fiber, so the windings have
        # gcd 1, and each derivative is 1 at the complete structure
        for word in ["RL", "LR", "RRL", "LRR", "RLLLL", "LRRRR", "RRLRL",
                     "RRLLRLRL"]:
            system = gluing_system(layered_triangulation(word))
            loops = unplaced_loops(system, solve_shapes(system))
            assert len(loops) == 2 * len(word) + 1, word
            assert [w for w, _, _ in loops[:4]] == [1, 1, 1, 1], word
            assert math.gcd(*[w for w, _, _ in loops]) == 1, word
            assert max(abs(rho - 1.0) for _, rho, _ in loops) < 1e-12, word

    def test_one_system_per_triangulation(self):
        tri = layered_triangulation("RRLRL")
        assert gluing_system(tri) is gluing_system(tri)
        assert gluing_system(tri) is not gluing_system(
            layered_triangulation("RRLRL"))

    def test_other_base_is_a_similarity_of_the_default(self):
        # a non-default base moves the reference cut, which scales the
        # lattice but keeps the modulus longitude^2 / area; a base that is
        # not a corner is refused
        tri = layered_triangulation("RRLRL")
        shapes = solve_shapes(gluing_system(tri))
        default = cusp_cross_section(tri, shapes)
        moved = cusp_cross_section(tri, shapes, base=(2, 1))
        assert abs(moved.longitude_length ** 2 / moved.area
                   - default.longitude_length ** 2 / default.area) < 1e-8
        assert abs(moved.area - default.area) > 1e-6 * default.area
        assert cusp_cross_section(tri, shapes) == default
        for base in [(5, 0), (0, 4), (-1, 0)]:
            with pytest.raises(ValueError):
                cusp_cross_section(tri, shapes, base=base)


class TestSolveShapes:

    def test_default_start_reaches_the_hexagonal_point(self, solved_rl):
        _, system, shapes = solved_rl
        assert max(abs(z - REGULAR) for z in shapes) < 1e-9
        assert float(np.max(np.abs(system.residual(shapes)))) < 1e-12

    def test_longer_words_converge(self):
        for word in ["RRL", "RRLL", "RRRLL"]:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            shapes = solve_shapes(system)
            assert float(np.max(np.abs(system.residual(shapes)))) < 1e-12

    @pytest.mark.parametrize("words, count", EVERY_WORD_SETS,
                             ids=EVERY_WORD_IDS)
    def test_every_word_solves(self, words, count):
        # every layered triangulation of these bundles is geometric
        # (Gueritaud 2006), so every word has a complete structure
        words = words()
        assert len(words) == count
        for word in words:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            shapes = solve_shapes(system)
            assert max(map(abs, system.residual(shapes))) < 1e-12, word
            maximal_cusp(tri, shapes)

    @pytest.mark.parametrize("words, count", EVERY_WORD_SETS,
                             ids=EVERY_WORD_IDS)
    def test_matches_the_basis_solver(self, words, count):
        # the same quadratic program for every angle step, solved through
        # the edge rows or over a basis of the angle structures
        words = words()
        assert len(words) == count
        for word in words:
            system = gluing_system(layered_triangulation(word))
            got = solve_shapes(system)
            want = solve_shapes_basis(system)
            assert max(abs(z - w) for z, w in zip(got, want)) < 1e-10, word

    @pytest.mark.parametrize("word", ["RRLLRRLL", "RRRLRLLRRLLLRLRRRLLR",
                                      "RL" * 20 + "RRRRRLLLL"],
                             ids=["RRLLRRLL", "length-20", "length-49"])
    def test_step_matches_the_basis_step(self, word):
        # at random angles between pi/9 and 3 pi/5, for the centring
        # weights with a share of the edge defect still to remove and for
        # the volume's cot weights
        system = gluing_system(layered_triangulation(word))
        space = angle_space(system)
        rng = random.Random(word)
        for _ in range(10):
            theta = []
            for _ in range(system.triangulation.num_tetrahedra):
                parts = [rng.uniform(0.5, 1.5) for _ in range(3)]
                theta += [math.pi * x / sum(parts) for x in parts]
            share = rng.uniform(0.1, 1.0)
            shift = [share * e for e in angle_shift(space, theta)]
            defect = [sum(c * shift[3 * i + k] for i, k, c in row)
                      for row in system.edge_rows[:-1]]
            cases = (([1.0 / (a * a) for a in theta],
                      [1.0 / a for a in theta], shift, defect),
                     ([1.0 / math.tan(a) for a in theta],
                      [-math.log(2.0 * math.sin(a)) for a in theta],
                      [0.0] * len(theta), None))
            for weights, values, shift, defect in cases:
                got, _, _ = _angle_step(system, 1, theta, defect)
                want = angle_step_basis(space, weights, values, shift)
                size = max(1.0, max(map(abs, want)))
                assert max(abs(g - w) for g, w in zip(got, want)) \
                    < 1e-12 * size

    @pytest.mark.parametrize("word, per_letter", [
        ("R" * 99 + "L", 2.0), ("R" * 299 + "L", 2.0), ("RL" * 50, 2.0),
        ("RL" * 150, 2.0), ("RRL" * 33, 2.5), ("RRL" * 100, 2.5),
    ], ids=["R^99L", "R^299L", "(RL)^50", "(RL)^150", "(RRL)^33",
            "(RRL)^100"])
    def test_birth_order_fill_is_linear(self, monkeypatch, word,
                                        per_letter):
        # the angle step's LDL^T adds exactly the entries that a symbolic
        # birth-order elimination of E Q E^T's pattern adds, and they grow
        # linearly; R^kL fills about n, (RL)^k 2n and (RRL)^k 2.3n
        system = gluing_system(layered_triangulation(word))
        ldl, counts = bundle._ldl, []

        def counted(diag, upper, rhs):
            before = sum(map(len, upper))
            x = ldl(diag, upper, rhs)
            counts.append((before, sum(map(len, upper)) - before))
            return x

        monkeypatch.setattr(bundle, "_ldl", counted)
        theta = [math.pi / 3.0] * (3 * len(word))
        defect = [sum(c * theta[3 * i + k] for i, k, c in row) - 2 * math.pi
                  for row in system.edge_rows[:-1]]
        _angle_step(system, 1, theta, defect)
        _angle_step(system, 2, theta)
        entries, fill = birth_order_fill(system)
        assert counts == [(entries, fill)] * 2
        assert fill <= per_letter * len(word)

    @pytest.mark.parametrize("unit, power", [
        ("R" * 99 + "L", 1), ("R" * 199 + "L", 1), ("R" * 299 + "L", 1),
        ("RL", 50), ("RL", 100), ("RL", 150),
        ("RRL", 33), ("RRL", 67), ("RRL", 100),
    ], ids=["R^99L", "R^199L", "R^299L", "(RL)^50", "(RL)^100", "(RL)^150",
            "(RRL)^33", "(RRL)^67", "(RRL)^100"])
    def test_long_words_solve(self, unit, power):
        # each angle step costs one sparse elimination and every residual
        # row is summed exactly, so these reach the default tol; a power
        # covers its unit power times over
        system = gluing_system(layered_triangulation(unit * power))
        shapes = solve_shapes(system)
        assert max(map(abs, system.residual(shapes))) < 1e-12
        if power > 1:
            once = solve_shapes(gluing_system(layered_triangulation(unit)))
            assert abs(total_volume(shapes) - power * total_volume(once)) \
                < 1e-9 * power

    @staticmethod
    def count_steps(monkeypatch, words):
        # (angle steps, shape polish steps) that solving the words takes
        counts = [0, 0]
        angle_step, eliminate = bundle._angle_step, bundle._eliminate

        def counted_angle_step(*args):
            counts[0] += 1
            return angle_step(*args)

        def counted_eliminate(rows):
            counts[1] += 1
            return eliminate(rows)

        monkeypatch.setattr(bundle, "_angle_step", counted_angle_step)
        monkeypatch.setattr(bundle, "_eliminate", counted_eliminate)
        for word in words:
            system = gluing_system(layered_triangulation(word))
            shapes = solve_shapes(system)
            assert max(map(abs, system.residual(shapes))) < 1e-12, word
        return tuple(counts)

    def test_noise_floor_ends_the_volume_steps(self, monkeypatch):
        # on R^299L the decrement stalls near 1e-7 after about a dozen
        # steps; the solve stops there, not on a reading below 1e-12
        angle, polish = self.count_steps(monkeypatch, ["R" * 299 + "L"])
        assert angle <= 16
        assert polish <= 1

    def test_corpus_step_counts(self, monkeypatch):
        # count guard for the benchmark's verify-thm14 corpus
        assert self.count_steps(monkeypatch, cli.corpus(5)) == (34, 0)

    def test_damped_steps_try_each_length_once(self, monkeypatch):
        # a damped step reads the rise along its move once per step length
        # it tries: no two consecutive calls share theta, move and t
        rise = bundle._rise
        calls = []

        def counted(theta, step, t):
            calls.append((tuple(theta), tuple(step), t))
            return rise(theta, step, t)

        monkeypatch.setattr(bundle, "_rise", counted)
        for k in (2, 5, 9, 20, 50):
            del calls[:]
            solve_shapes(gluing_system(layered_triangulation("R" * k + "L")))
            assert calls, k
            assert all(a != b for a, b in zip(calls, calls[1:])), k

    @staticmethod
    def _check_against(solver, words):
        # the oracle's shapes where they are complete; where the oracle
        # converges to an incomplete structure the volume maximum has the
        # larger volume.  Returns the counts of the two cases.
        same = incomplete = 0
        for word in words:
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            try:
                want = solver(system)
            except errors.NumericalError:
                continue
            got = solve_shapes(system)
            try:
                cusp_cross_section(tri, want)
            except errors.NotSolved:
                assert total_volume(got) > total_volume(want) + 1e-6, word
                incomplete += 1
                continue
            assert max(abs(z - w) for z, w in zip(got, want)) < 1e-10, word
            same += 1
        return same, incomplete

    def test_matches_the_developed_solver(self):
        # the developed residual from z = i, where it finds the complete
        # structure: every word up to length 7 but those it cannot solve
        assert self._check_against(solve_shapes_developed,
                                   two_letter_words(7)) == (233, 0)

    # (complete, incomplete) outcomes of the least-squares solve from
    # z = i, frozen from the oracle; it fails on the rest of each set
    @pytest.mark.parametrize("words, outcomes", [
        (lambda: list(two_letter_words(9)), (927, 0)),
        (bundle_pool, (37, 0)),
        (lambda: random_words(200, 10, 20, seed=7), (171, 0)),
        (lambda: random_words(120, 30, 30, seed=30), (71, 5)),
    ], ids=["length<=9", "bundle-pool", "random-10-20", "random-30"])
    def test_matches_the_lstsq_solver(self, words, outcomes):
        assert self._check_against(solve_shapes_lstsq, words()) == outcomes

    def test_degenerate_failure_names_word_step_and_tetrahedron(self):
        # the word whose degenerate failure this test once pinned solves
        tri = layered_triangulation("RRRRRLLRR")
        shapes = solve_shapes(gluing_system(tri))
        assert maximal_cusp(tri, shapes).area > 0.0

        # an edge row that asks for alpha_1 = pi leaves tetrahedron 1 no
        # room: no angle structure has every angle positive
        class Flat(GluingSystem):
            def __init__(self):
                super().__init__(layered_triangulation("RRL"))
                self.edge_rows = (((1, 0, 1), (2, 0, 1), (2, 1, 1),
                                   (2, 2, 1)),) + self.edge_rows[1:]

        with pytest.raises(errors.DegenerateShape) as info:
            solve_shapes(Flat())
        message = str(info.value)
        assert message.startswith("word 'RRL', Newton step ")
        assert ": no angle structure has every angle positive; " in message
        assert "worst tetrahedron 1 has angles " in message

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
        # a residual that shrinks on every call but never reaches tol,
        # under an identity Newton system: every step scales the shapes
        # by the same real factor, so the worst tetrahedron stays put up
        # to rounding.  RRL's three shapes share Im z = sqrt(7)/2, so the
        # named one is any of them whose scaled shape is the smallest
        class Shrinking(GluingSystem):
            calls = 0

            def _evaluate(self, zs):
                self.calls += 1
                return [complex(1.0 / self.calls)] * 4

            def _jacobian(self, zs, f):
                return [[complex(r == c) for c in range(3)] + [-f[r]]
                        for r in range(3)]

        tri = layered_triangulation("RRL")
        shapes = solve_shapes(gluing_system(tri))
        with pytest.raises(errors.MaxIterations) as info:
            solve_shapes(Shrinking(tri))
        message = str(info.value)
        assert "word 'RRL', Newton step 50:" in message
        named = message.split("worst tetrahedron ")[1].split(" has shape ")
        worst, shape = int(named[0]), complex(named[1])
        assert abs(cmath.phase(shape) - cmath.phase(shapes[worst])) < 1e-12
        scale = shape.imag / shapes[worst].imag
        assert all(shape.imag <= z.imag * scale * (1.0 + 1e-12)
                   for z in shapes)

    def test_singular_step_is_a_divergence(self):
        # a zero pivot is a step that is not finite, reported like the
        # other failures, never a ZeroDivisionError: in the Newton
        # polish, and in the angle steps
        class Singular(GluingSystem):
            def _evaluate(self, zs):
                return [1.0 + 0j] * 4

            def _jacobian(self, zs, f):
                return [[0j, 0j, 0j, -f[r]] for r in range(3)]

        class Stuck(GluingSystem):
            def __init__(self, triangulation):
                # an empty first edge row leaves E Q E^T a zero row and
                # column, so the first angle step meets a zero pivot
                super().__init__(triangulation)
                self.edge_rows = ((),) + self.edge_rows[1:]

        tri = layered_triangulation("RRL")
        for stub, has in ((Singular, "shape"), (Stuck, "angles")):
            with pytest.raises(errors.Diverged) as info:
                solve_shapes(stub(tri))
            message = str(info.value)
            assert message.startswith("word 'RRL', Newton step ")
            assert ": Newton step is not finite; worst tetrahedron " \
                in message
            assert " has %s " % has in message


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

    def test_clausen_series_matches_spence(self):
        n = 20001
        worst = max(abs(_lobachevsky(t) - lobachevsky_spence(t))
                    for t in (math.pi * i / (n + 1) for i in range(1, n + 1)))
        assert worst < 1e-14

    def test_lobachevsky_is_odd_and_pi_periodic(self):
        assert _lobachevsky(0.0) == 0.0 == _lobachevsky(math.pi)
        for t in (0.3, 1.1, 1.5):
            assert abs(_lobachevsky(-t) + _lobachevsky(t)) < 1e-15
            assert abs(_lobachevsky(t + 3 * math.pi) - _lobachevsky(t)) < 1e-14

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
            assert abs(developed_area(system, shapes) - cusp.area) \
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
        with pytest.raises(errors.NotSolved) as info:
            cusp_cross_section(tri, [0.3 + 0.9j, 0.3 + 0.9j])
        assert str(info.value).startswith("word 'RL': ")
        assert "np." not in str(info.value)

    def test_incomplete_shapes_are_refused(self):
        # the least-squares solve from z = i ends on this word at a point
        # that meets every equation but is incomplete: the completeness
        # log is a nonzero multiple of 2 pi i.  Its numpy shapes must come
        # back as a plain complex derivative in the message.
        word = "LRRRRRLRRLRRLRRLRRLRLLRLRRRRRR"
        tri = layered_triangulation(word)
        shapes = solve_shapes_lstsq(gluing_system(tri))
        with pytest.raises(errors.NotSolved) as info:
            cusp_cross_section(tri, np.array(shapes.shapes))
        message = str(info.value)
        assert "np." not in message
        rho = complex(message.split("derivative ")[1].split(";")[0])
        assert abs(rho - 1.0) > 1e-6

    # (word, base corner) pairs compared: every word of each set at base
    # (0, 0), and every corner of the words up to length 5
    CORNER_SETS = [
        (lambda: list(two_letter_words(8)), False, 494),
        (bundle_pool, False, 48),
        (lambda: list(two_letter_words(5)), True, 912),
    ]
    CORNER_IDS = ["length<=8", "bundle-pool", "corners-length<=5"]

    @staticmethod
    def _corners(words, corners):
        # (word, triangulation, shapes, base) for each compared pair
        for word in words():
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            bases = [(i, k) for i in range(len(word)) for k in range(4)] \
                if corners else [(0, 0)]
            for base in bases:
                yield word, tri, shapes, base

    @staticmethod
    def _same_lattice(got, mu, lam, where):
        # got's lattice against (mu, lam): the same area, height and lam
        # up to sign, mu up to a multiple of lam
        area = abs((mu.conjugate() * lam).imag)
        assert abs(got.area - area) < 1e-11 * area, where
        assert abs(got.longitude_length - abs(lam)) < 1e-11 * abs(lam), where
        assert abs(got.height - area / abs(lam)) \
            < 1e-11 * area / abs(lam), where
        got_mu, got_lam = got.translations
        assert min(abs(got_lam - lam), abs(got_lam + lam)) \
            < 1e-11 * abs(lam), where
        shift = round(((got_mu - mu) / lam).real)
        assert abs(got_mu - mu - shift * lam) < 1e-11 * abs(mu), where
        assert abs((got_mu / got_lam).real) <= 0.5 + 1e-12, where

    @pytest.mark.parametrize("words, corners, compared", CORNER_SETS,
                             ids=CORNER_IDS)
    def test_matches_the_gcd_basis(self, words, corners, compared):
        # the two named loops against integer reduction over every
        # non-tree loop of the cusp graph rooted at the base, and a float
        # gcd: the same lattice, lam up to sign and mu up to a multiple
        # of lam, which the gcd basis leaves unreduced
        seen = 0
        for word, tri, shapes, base in self._corners(words, corners):
            got = cusp_cross_section(tri, shapes, base=base)
            graph = RootedCuspGraph(tri, base)
            mu, lam = peripheral_basis_gcd(graph.holonomies(shapes))
            self._same_lattice(got, mu, lam, (word, base))
            seen += 1
        assert seen == compared

    @pytest.mark.parametrize("words, corners, compared", CORNER_SETS,
                             ids=CORNER_IDS)
    def test_matches_the_rooted_development(self, words, corners, compared):
        # the column development, divided by the base triangle's first
        # side, against the breadth-first development rooted at the base:
        # the same area, lam, mu modulo lam and height; at the default
        # base the column loops give the gcd basis that lattice too
        seen = 0
        for word, tri, shapes, base in self._corners(words, corners):
            got = cusp_cross_section(tri, shapes, base=base)
            want = RootedCuspGraph(tri, base).cross_section(shapes)
            self._same_lattice(got, *want.translations, (word, base))
            lam = want.translations[1]
            assert abs(got.translations[1] - lam) < 1e-11 * abs(lam), \
                (word, base)
            if base == (0, 0):
                mu, lam = peripheral_basis_gcd(
                    unplaced_loops(gluing_system(tri), shapes))
                self._same_lattice(got, mu, lam, word)
            seen += 1
        assert seen == compared

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
        with pytest.raises(errors.NotSolved) as info:
            maximal_cusp(tri, [1j, 1j])
        assert str(info.value).startswith("word 'RL': ")
        assert "np." not in str(info.value)

    @pytest.mark.parametrize("call", [maximal_cusp, cusp_cross_section])
    def test_shapes_off_the_upper_half_plane_are_refused(self, solved_rl,
                                                         call):
        # the cusp lattice and the edge formula rest on the triangulation
        # being geometric
        tri, _, shapes = solved_rl
        flipped = [shapes[0], shapes[1].conjugate()]
        with pytest.raises(errors.NotSolved) as info:
            call(tri, flipped)
        assert "'RL'" in str(info.value)
        assert "tetrahedron 1" in str(info.value)
        assert "np." not in str(info.value)

    def test_one_development_per_call(self, monkeypatch):
        # the reference section and the edge formula read one development,
        # 16 flat positions per tetrahedron
        develop = GluingSystem._develop
        calls = []

        def counted(system, zs):
            pos = develop(system, zs)
            calls.append((system, len(pos)))
            return pos

        monkeypatch.setattr(GluingSystem, "_develop", counted)
        for word in ("RL", "RRLRL"):
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            del calls[:]
            maximal_cusp(tri, shapes)
            assert calls == [(gluing_system(tri), 16 * len(word))], word

    def test_one_record_per_call(self, monkeypatch):
        # the reference cut is read as raw numbers, so each call validates
        # only the section it returns
        post_init = CuspCrossSection.__post_init__
        calls = []

        def counted(section):
            calls.append(section)
            post_init(section)

        monkeypatch.setattr(CuspCrossSection, "__post_init__", counted)
        for word in ("RL", "RRLRL"):
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            del calls[:]
            got = maximal_cusp(tri, shapes)
            assert len(calls) == 1 and calls[0] is got, word
            del calls[:]
            got = cusp_cross_section(tri, shapes, base=(1, 2))
            assert len(calls) == 1 and calls[0] is got, word

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

    @pytest.mark.parametrize("words, solved", [
        (lambda: list(two_letter_words(9)), 1004),
        (bundle_pool, 48),
        (lambda: random_words(200, 10, 20, seed=7), 200),
    ], ids=["length<=9", "bundle-pool", "random-10-20"])
    def test_matches_the_pairwise_edge_formula(self, words, solved):
        # the two oracles multiply the same side lengths in the same
        # pairs: equal to the last bit.  maximal_cusp takes one product
        # per edge class, equal to the largest of its class up to rounding
        seen = 0
        for word in words():
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            got = maximal_cusp(tri, shapes)
            want = maximal_cusp_pairwise(tri, shapes)
            assert maximal_cusp_products(tri, shapes) == want, word
            assert abs(got.area / want.area - 1.0) < 1e-12, word
            assert abs(got.longitude_length / want.longitude_length
                       - 1.0) < 1e-12, word
            assert abs(got.height / want.height - 1.0) < 1e-12, word
            for g, w in zip(got.translations, want.translations):
                assert abs(g / w - 1.0) < 1e-12, word
            seen += 1
        assert seen == solved

    @pytest.mark.parametrize("words, count", EVERY_WORD_SETS,
                             ids=EVERY_WORD_IDS)
    def test_one_product_per_edge_class(self, words, count):
        # h_k h_m = e^(-delta) depends only on the edge, so the 12n
        # products agree within each class, and the largest over the n
        # classes is the largest of all of them
        words = words()
        assert len(words) == count
        for word in words:
            tri = layered_triangulation(word)
            shapes = solve_shapes(gluing_system(tri))
            _, products = edge_products(tri, shapes)
            assert sum(map(len, products)) == 12 * len(word), word
            for same in products:
                assert max(same) / min(same) - 1.0 < 1e-10, word
            got = maximal_cusp(tri, shapes).area
            want = maximal_cusp_products(tri, shapes).area
            assert abs(got / want - 1.0) < 1e-12, word

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
                by_class.setdefault(canonical_word(word), []).append(
                    (cusp.area, cusp.height))
        assert len(by_class) == len(cli.corpus(6))
        for word, values in by_class.items():
            area, height = values[0]
            for a, h in values[1:]:
                assert abs(a - area) < 1e-9 * area, word
                assert abs(h - height) < 1e-9 * height, word

        # the pool words that the solve from z = i lost, each with every
        # rotation of it and of its swap
        for word in RECOVERED:
            values = []
            for w in (word, word.translate(str.maketrans("RL", "LR"))):
                for k in range(len(w)):
                    tri = layered_triangulation(w[k:] + w[:k])
                    shapes = solve_shapes(gluing_system(tri))
                    cusp = maximal_cusp(tri, shapes)
                    values.append((cusp.area, cusp.height,
                                   total_volume(shapes)))
            for got in values[1:]:
                for a, b in zip(got, values[0]):
                    assert abs(a - b) < 1e-10 * b, word


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

    def test_reads_the_residual_the_solve_left(self, monkeypatch):
        # the same report as recomputing the residual of the solved shapes,
        # with no residual call
        def recomputed(word):
            tri = layered_triangulation(word)
            system = gluing_system(tri)
            solved = solve_shapes(system)
            cusp = maximal_cusp(tri, solved)
            return {"word": word,
                    "shapes": [[z.real, z.imag] for z in solved],
                    "residual": max(map(abs, system.residual(solved))),
                    "volume": total_volume(solved),
                    "cusp_area": cusp.area,
                    "longitude": cusp.longitude_length,
                    "height": cusp.height}

        words = bundle_pool()
        want = [json.dumps(recomputed(word), sort_keys=True)
                for word in words]
        calls = []
        residual = GluingSystem.residual

        def counted(system, shapes):
            calls.append(system)
            return residual(system, shapes)

        monkeypatch.setattr(GluingSystem, "residual", counted)
        got = [json.dumps(bundle_report(word), sort_keys=True)
               for word in words]
        assert got == want
        assert calls == []

    def test_longitudes_clear_the_waist_bound(self):
        for word in ["RL", "RRL", "RRLL", "RLRL", "RRRLL"]:
            report = bundle_report(word)
            assert report["longitude"] > 2.0 ** 0.25
