import re
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from cusplab import arcs, errors, farey
from cusplab.arcs import (
    MappingClass,
    NormalArc,
    _neighbors,
    apply_mcg,
    arc_from_json,
    arc_slope,
    arcs_of,
    distance,
    intersection_number,
    iso_mapping_class,
    lift_arc,
    mapping_class,
    parse_arc,
    slope_arc,
)
from cusplab.farey import Slope, act, word_to_matrix
from cusplab.surface import (
    IdealTriangulation,
    Relabeling,
    build_cover,
    find_relabelings,
    once_punctured_torus,
)
from oracles import (arc_walk, distance_forward, segment_crossings,
                     slope_arc_walk, strand_components)

ZERO_CORNERS = (0, 0, 0, 0, 0, 0)


def twice_punctured_torus():
    pairs = [((0, 0), (2, 0)), ((1, 0), (3, 0)),
             ((0, 1), (1, 2)), ((1, 1), (2, 2)),
             ((2, 1), (3, 2)), ((3, 1), (0, 2))]
    return IdealTriangulation.from_gluings(pairs, name="s12", preferred=(0, 0))


def degree_three_cover(base):
    """Connected once-punctured degree-3 cover; chi = -3, genus 2."""
    return build_cover(base, {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)})


def random_slope(rng, span=8):
    while True:
        p = int(rng.integers(-span, span + 1))
        q = int(rng.integers(1, span + 1))
        g = gcd(p, q)
        if g:
            return Slope(p // g, q // g)


def random_word(rng, low=1, high=6):
    n = int(rng.integers(low, high + 1))
    return "".join("RL"[int(b)] for b in rng.integers(0, 2, size=n))


class TestNormalArc:

    def test_edge_arcs_of_the_base(self):
        T = once_punctured_torus()
        arcs = arcs_of(T)
        assert [a.along for a in arcs] == [0, 1, 2]
        assert all(a.coord_sum == 1 for a in arcs)
        assert arcs[0] == NormalArc(T, along=0)

    def test_slope_dictionary_on_edges(self):
        T = once_punctured_torus()
        for text, e in [("0/1", 0), ("1/0", 1), ("1/1", 2)]:
            a = slope_arc(T, text)
            assert a.along == e
            assert arc_slope(a) == Slope.parse(text)

    # straight-line representatives walked through the plane model, frozen
    SLOPE_COORDS = {
        "2/5": ((1, 4, 2), (0, 1, 2, 2, 0, 1)),
        "3/2": ((2, 1, 0), (0, 1, 0, 0, 0, 1)),
        "-3/5": ((2, 4, 7), (2, 0, 4, 4, 2, 0)),
        "-1/1": ((0, 0, 1), ZERO_CORNERS),
        "2/1": ((1, 0, 0), ZERO_CORNERS),
        "1/2": ((0, 1, 0), ZERO_CORNERS),
    }

    def test_slope_coordinates(self):
        T = once_punctured_torus()
        for text, (wv, cv) in self.SLOPE_COORDS.items():
            a = slope_arc(T, text)
            assert a.edge_weights == wv, text
            assert a.corner_data == cv, text
            assert a.along is None, text

    def test_slope_round_trip(self):
        T = once_punctured_torus()
        rng = np.random.default_rng(11)
        for _ in range(150):
            s = random_slope(rng, span=12)
            assert arc_slope(slope_arc(T, s)) == s

    def test_closed_form_matches_the_walk(self):
        T = once_punctured_torus()
        slopes = farey.slopes_in_box(40)
        assert len(slopes) == 1960
        for s in slopes:
            a, want = slope_arc(T, s), slope_arc_walk(T, s)
            assert a.edge_weights == want.edge_weights, s
            assert a.corner_data == want.corner_data, s
            assert a.along == want.along, s
            assert arc_slope(a) == s

    def test_indicator_weights_mean_the_edge_arc(self):
        # the arc crossing edge 0 once and the arc lying along edge 0 have
        # the same published vector; the plain constructor takes the latter
        T = once_punctured_torus()
        built = NormalArc(T, edge_weights=(1, 0, 0), corner_data=ZERO_CORNERS)
        assert built == NormalArc(T, along=0) == slope_arc(T, "0/1")
        dual = slope_arc(T, "2/1")
        assert dual != built
        assert hash(dual) != hash(built)
        assert intersection_number(dual, built) == 1
        assert distance(dual, built, budget=16) == 2

    def test_rejects_non_arcs(self):
        T = once_punctured_torus()
        bad = [((2, 0, 0), ZERO_CORNERS),     # two parallel strands
               ((0, 0, 0), (5, 0, 0, 0, 0, 0)),
               ((1, 1, 0), ZERO_CORNERS),
               ((-1, 0, 0), ZERO_CORNERS)]
        for wv, cv in bad:
            with pytest.raises(errors.NotAnArc):
                NormalArc(T, edge_weights=wv, corner_data=cv)

    def test_flip_carries_the_other_diagonal(self):
        # flipping an edge of the square replaces it by the slope that
        # crosses it once; flipping the new edge comes straight back
        T = once_punctured_torus()
        for e, s in [(0, "2/1"), (1, "1/2"), (2, "-1/1")]:
            arcs = arcs_of(T, flips=(e,))
            assert slope_arc(T, s) in arcs
            assert len(arcs) == 3
        assert set(arcs_of(T, flips=(0, 3))) == set(arcs_of(T))

    def test_twice_punctured_base_arcs(self):
        s12 = twice_punctured_torus()
        arcs = arcs_of(s12)
        assert [a.along for a in arcs] == [0, 3]
        assert intersection_number(arcs[0], arcs[1]) == 0
        assert distance(arcs[0], arcs[1], budget=16) == 1


def small_vectors(n, top, total):
    """Nonnegative integer n-vectors with entries <= top and sum <= total."""
    return [v for v in product(range(top + 1), repeat=n) if sum(v) <= total]


def _segment_verdict(tri, w, c):
    """The oracle's verdict: NotAnArc message or (chain ends, any loops)."""
    try:
        chains, loops = strand_components(tri, w, c)
    except errors.NotAnArc as exc:
        return str(exc)
    return chains, loops > 0


class TestTrace:

    def test_matches_the_segment_walkers(self):
        T = once_punctured_torus()
        # (surface, largest weight, weight sum, largest corner, corner sum)
        sets = [(T, 4, 12, 2, 12),
                (twice_punctured_torus(), 2, 4, 1, 3),
                (degree_three_cover(T).total, 2, 3, 1, 2)]
        for tri, wtop, wsum, ctop, csum in sets:
            corners = [(t, k) for t in range(tri.num_triangles)
                       for k in range(3)]
            cvecs = [{k: x for k, x in zip(corners, cv) if x}
                     for cv in small_vectors(len(corners), ctop, csum)]
            arcs_seen = 0
            for wv in small_vectors(tri.num_edges, wtop, wsum):
                w = {e: x for e, x in zip(tri.edge_labels, wv) if x}
                for c in cvecs:
                    want = _segment_verdict(tri, w, c)
                    try:
                        chains, loops = arcs._trace(tri, w, c)
                    except errors.NotAnArc as exc:
                        assert str(exc) == want, (tri.name, w, c)
                        continue
                    got = ([ch[:2] for ch in chains], loops)
                    assert got == want, (tri.name, w, c)
                    if len(chains) == 1 and not loops:
                        assert chains[0][2] == arc_walk(tri, w, c), (w, c)
                        arcs_seen += 1
            assert arcs_seen > 50, tri.name


def _sparse_key(a):
    """The identity key arcs carried before the dense one: (along, w, c)."""
    w, c, _ = a._dicts()
    return (a.along, tuple(sorted(w.items())), tuple(sorted(c.items())))


def _property_key(a):
    """The sort key rebuilt from the sparse coordinates and the base."""
    w, c, _ = a._dicts()
    if a.along is None:
        wv = tuple(w.get(e, 0) for e in a.base.edge_labels)
    else:
        wv = tuple(int(e == a.along) for e in a.base.edge_labels)
    cv = tuple(c.get((t, k), 0)
               for t in range(a.base.num_triangles) for k in range(3))
    return (sum(wv) + sum(cv), wv, cv, -1 if a.along is None else a.along)


class TestIdentityKey:

    def reached_arcs(self):
        """Torus arcs around 20 pool slopes and their degree-3 lifts.

        Each arc appears twice, as found and rebuilt from its JSON form,
        so equal keys on distinct objects are exercised too.
        """
        T = once_punctured_torus()
        pool = [s for s in farey.slopes_in_box(20)
                if slope_arc(T, s).coord_sum <= 64]
        rng = np.random.default_rng(5)
        found = []
        for i in rng.choice(len(pool), size=20, replace=False):
            a = slope_arc(T, pool[int(i)])
            found.append(a)
            found.extend(_neighbors(a, 64))
        cover = degree_three_cover(T)
        found.extend([lift for a in list(found) for lift in lift_arc(cover, a)])
        return found + [arc_from_json(a.base, a.to_json()) for a in found]

    def test_equality_is_the_sparse_key(self):
        found = self.reached_arcs()
        assert len({a.base for a in found}) == 2
        keys = [(a.base, _sparse_key(a)) for a in found]
        for a, ka in zip(found, keys):
            for b, kb in zip(found, keys):
                assert (a == b) == (ka == kb), (a, b)
                if ka == kb:
                    assert hash(a) == hash(b)

    def test_sort_order_is_the_property_order(self):
        found = self.reached_arcs()
        for a in found:
            assert a._sort_key() == _property_key(a)
            assert a.coord_sum == sum(a.edge_weights) + sum(a.corner_data)
        assert (sorted(found, key=NormalArc._sort_key)
                == sorted(found, key=_property_key))


class TestSerialization:

    def test_literal_round_trip(self):
        T = once_punctured_torus()
        for text in ["0/1", "2/5", "-3/5", "3/2"]:
            a = slope_arc(T, text)
            assert parse_arc(T, a.literal()) == a

    def test_parse_slope_form(self):
        T = once_punctured_torus()
        assert parse_arc(T, "slope 2/5") == slope_arc(T, "2/5")
        assert parse_arc(T, " arc  1,4,2;0,1,2,2,0,1") == slope_arc(T, "2/5")

    def test_literal_shadows_the_dual(self):
        # the published vector of the crossing arc reads back as the edge
        # arc; json keeps the two apart
        T = once_punctured_torus()
        dual = slope_arc(T, "2/1")
        assert parse_arc(T, dual.literal()) == NormalArc(T, along=0)

    def test_parse_rejects_garbage(self):
        T = once_punctured_torus()
        for text in ["", "arc", "arc 1,2", "arc 1;2;3", "arc a,b,c;0,0,0,0,0,0",
                     "loop 1,0,0;0,0,0,0,0,0", "slope 0/0", "slope x",
                     "slope 1/2/3"]:
            with pytest.raises(errors.NotAnArc):
                parse_arc(T, text)

    def test_bad_slope_names_the_literal(self):
        T = once_punctured_torus()
        with pytest.raises(errors.NotAnArc, match="'slope 1/2/3'"):
            parse_arc(T, "slope 1/2/3")

    def test_json_round_trip_is_faithful(self):
        T = once_punctured_torus()
        for text in ["0/1", "1/0", "2/1", "1/2", "-1/1", "2/5", "-3/5"]:
            a = slope_arc(T, text)
            obj = a.to_json()
            assert arc_from_json(T, obj) == a
        assert slope_arc(T, "0/1").to_json()["along"] == 0
        assert slope_arc(T, "2/1").to_json()["along"] is None

    def test_json_validates_lengths(self):
        T = once_punctured_torus()
        with pytest.raises(errors.NotAnArc, match="need 3 edge weights"):
            arc_from_json(T, {"edge_weights": [1, 0], "corner_data": [0] * 6,
                              "along": None})
        with pytest.raises(errors.NotAnArc, match="need 6 corner entries"):
            arc_from_json(T, {"edge_weights": [1, 0, 0],
                              "corner_data": [0] * 5, "along": None})


def centre_preferred():
    """twice_punctured_torus with its centre puncture preferred, so the
    arcs between lattice punctures end at the wrong puncture."""
    return IdealTriangulation(twice_punctured_torus()._glued, name="s12",
                              preferred=1)


class TestInputChecks:
    """One input per NotAnArc message of the arc constructors, through
    NormalArc(...), parse_arc, arc_from_json and, for the degenerate-edge
    check no public constructor reaches, NormalArc._make."""

    CASES = {
        "vectors-and-edge": (
            lambda T: NormalArc(T, (1, 0, 0), ZERO_CORNERS, along=0),
            "give either vectors or a degenerate edge"),
        "short-weights": (
            lambda T: NormalArc(T, (1, 0), ZERO_CORNERS),
            "need 3 edge weights"),
        "short-corners": (
            lambda T: parse_arc(T, "arc 1,0,0;0,0,0,0,0"),
            "need 6 corner entries"),
        "negative-literal": (
            lambda T: parse_arc(T, "arc 2,-1,0;0,0,0,0,0,0"),
            "coordinates must be nonnegative"),
        "float-entry": (
            lambda T: NormalArc(T, (1.9, 4, 2), (0, 1, 2, 2, 0, 1)),
            "coordinates must be integers"),
        "float-json": (
            lambda T: arc_from_json(T, {"edge_weights": [1.9, 4, 2],
                                        "corner_data": [0, 1, 2, 2, 0, 1],
                                        "along": None}),
            "coordinates must be integers"),
        "weights-not-a-vector": (
            lambda T: NormalArc(T, 5, ZERO_CORNERS),
            "edge weights must be a sequence"),
        "corners-not-a-vector": (
            lambda T: NormalArc(T, (1, 0, 0), 0),
            "corner data must be a sequence"),
        "json-without-corners": (
            lambda T: arc_from_json(T, {"edge_weights": [1, 4, 2]}),
            "arc JSON has no 'corner_data'"),
        "json-not-an-object": (
            lambda T: arc_from_json(T, [1, 2]),
            "an arc's JSON is an object, got [1, 2]"),
        "float-along": (
            lambda T: NormalArc(T, along=1.0),
            "no edge labelled 1.0"),
        "negative-json": (
            lambda T: arc_from_json(T, {"edge_weights": [-1, 0, 0],
                                        "corner_data": [0] * 6,
                                        "along": None}),
            "coordinates must be nonnegative"),
        "edge-and-more": (
            lambda T: NormalArc._make(T, {0: 1}, {}, {1: 1}),
            "a degenerate arc is one edge and nothing else"),
        "unknown-along": (
            lambda T: arc_from_json(T, {"along": 7}),
            "no edge labelled 7"),
        "along-between-punctures": (
            lambda T: NormalArc(twice_punctured_torus(), along=1),
            "edge 1 does not run from the preferred puncture to itself"),
        "empty": (
            lambda T: NormalArc(T, (0, 0, 0), ZERO_CORNERS),
            "empty coordinates describe no arc"),
        "closed-curve": (
            lambda T: parse_arc(T, "arc 2,2,2;1,1,1,1,1,1"),
            "coordinates contain a closed curve"),
        "two-arcs": (
            lambda T: NormalArc(T, (2, 0, 0), ZERO_CORNERS),
            "coordinates describe 2 arcs, not one"),
        "wrong-puncture": (
            lambda T: parse_arc(centre_preferred(),
                                "arc 0,0,0,0,1,1;0,0,0,0,0,0,0,0,1,0,0,0"),
            "endpoint at puncture 0, not the preferred 1"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_message(self, case):
        build, message = self.CASES[case]
        with pytest.raises(errors.NotAnArc, match=re.escape(message)):
            build(once_punctured_torus())

    def test_numpy_vectors(self):
        # numpy integers read as integers; an array is tested against None,
        # never for truth
        T = once_punctured_torus()
        a = NormalArc(T, np.array([1, 4, 2]), np.array([0, 1, 2, 2, 0, 1]))
        assert a == slope_arc(T, "2/5")
        assert type(a.edge_weights[0]) is int
        assert NormalArc(T, np.array([1, 0, 0]), np.zeros(6, int)).along == 0
        assert type(NormalArc(T, along=np.int64(1)).to_json()["along"]) is int

    def test_negative_entries_are_checked_before_the_unit_indicator(self):
        # (2, -1, 0) sums to 1 like a unit indicator
        T = once_punctured_torus()
        with pytest.raises(errors.NotAnArc,
                           match="coordinates must be nonnegative"):
            NormalArc(T, (2, -1, 0), ZERO_CORNERS)


class TestIntersection:

    def test_edge_cases(self):
        T = once_punctured_torus()
        assert intersection_number(slope_arc(T, "0/1"), slope_arc(T, "1/1")) == 0
        assert intersection_number(slope_arc(T, "0/1"), slope_arc(T, "1/0")) == 0
        assert intersection_number(slope_arc(T, "0/1"), slope_arc(T, "2/5")) == 1

    def test_self_intersection_is_zero(self):
        T = once_punctured_torus()
        for text in ["0/1", "2/5", "-3/5"]:
            a = slope_arc(T, text)
            assert intersection_number(a, a) == 0

    def test_against_lattice_oracle(self):
        T = once_punctured_torus()
        rng = np.random.default_rng(23)
        for _ in range(200):
            s, u = random_slope(rng), random_slope(rng)
            a, b = slope_arc(T, s), slope_arc(T, u)
            want = segment_crossings(s.p, s.q, u.p, u.q)
            assert intersection_number(a, b) == want, (s, u)
            assert intersection_number(b, a) == want, (s, u)

    def test_mapping_class_invariance(self):
        T = once_punctured_torus()
        phi = mapping_class(T, "RL")
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = slope_arc(T, random_slope(rng, span=5))
            b = slope_arc(T, random_slope(rng, span=5))
            assert (intersection_number(apply_mcg(phi, a), apply_mcg(phi, b))
                    == intersection_number(a, b))

    def test_base_mismatch(self):
        T = once_punctured_torus()
        s12 = twice_punctured_torus()
        with pytest.raises(errors.BaseMismatch):
            intersection_number(arcs_of(T)[0], arcs_of(s12)[0])


class TestDistance:

    def test_small_values(self):
        T = once_punctured_torus()
        z = slope_arc(T, "0/1")
        assert distance(z, z, budget=8) == 0
        assert distance(z, slope_arc(T, "1/0"), budget=8) == 1
        assert distance(z, slope_arc(T, "2/5"), budget=32) == 2

    def test_matches_farey_graph(self):
        T = once_punctured_torus()
        rng = np.random.default_rng(41)
        done = 0
        while done < 100:
            s, u = random_slope(rng), random_slope(rng)
            a, b = slope_arc(T, s), slope_arc(T, u)
            if a.coord_sum > 32 or b.coord_sum > 32:
                continue
            assert distance(a, b, budget=32) == farey.distance(s, u), (s, u)
            done += 1

    def test_mapping_class_invariance(self):
        T = once_punctured_torus()
        phi = mapping_class(T, "LLR")
        rng = np.random.default_rng(43)
        done = 0
        while done < 10:
            a = slope_arc(T, random_slope(rng, span=4))
            b = slope_arc(T, random_slope(rng, span=4))
            fa, fb = apply_mcg(phi, a), apply_mcg(phi, b)
            if max(x.coord_sum for x in (a, b, fa, fb)) > 48:
                continue
            assert distance(fa, fb, budget=48) == distance(a, b, budget=48)
            done += 1

    def test_matches_forward_search_on_the_torus_pool(self):
        """Every unordered pair of the torus-queries pool, at budget 64."""
        T = once_punctured_torus()
        pool = [s for s in farey.slopes_in_box(20)
                if slope_arc(T, s).coord_sum <= 64]
        assert len(pool) == 288
        arc = {s: slope_arc(T, s) for s in pool}
        for s, u in combinations(pool, 2):
            d = distance(arc[s], arc[u], budget=64)
            assert d == distance_forward(arc[s], arc[u], budget=64), (s, u)
            assert d == farey.distance(s, u), (s, u)

    def test_capped_neighbours_are_symmetric(self):
        """The bidirectional search is exact when disjointness survives the
        cap both ways; check it on the whole capped torus complex."""
        T = once_punctured_torus()
        start = slope_arc(T, "0/1")
        seen, stack, edges = {start}, [start], 0
        while stack:
            v = stack.pop()
            for nb in _neighbors(v, 64):
                edges += 1
                assert v in _neighbors(nb, 64), (v, nb)
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert (len(seen), edges) == (288, 1146)

    def test_budget_guard(self):
        T = once_punctured_torus()
        big = slope_arc(T, "-6/7")        # coordinate sum 45
        assert big.coord_sum == 45
        with pytest.raises(errors.BudgetExceeded):
            distance(slope_arc(T, "0/1"), big, budget=32)


class TestMappingClasses:

    def test_word_action_matches_the_matrices(self):
        T = once_punctured_torus()
        rng = np.random.default_rng(53)
        words = ["R", "L", "RL", "RRL", "LLRR"] + [random_word(rng)
                                                   for _ in range(4)]
        slopes = [random_slope(rng, span=6) for _ in range(12)]
        for word in words:
            phi = mapping_class(T, word)
            m = word_to_matrix(word)
            for s in slopes:
                assert arc_slope(apply_mcg(phi, slope_arc(T, s))) == act(m, s), \
                    (word, s)

    def test_composition_and_inverse(self):
        T = once_punctured_torus()
        phi = mapping_class(T, "R") * mapping_class(T, "L")
        psi = mapping_class(T, "RL")
        rng = np.random.default_rng(59)
        for _ in range(8):
            a = slope_arc(T, random_slope(rng, span=5))
            assert apply_mcg(phi, a) == apply_mcg(psi, a)
            assert apply_mcg(psi.inverse(), apply_mcg(psi, a)) == a

    def test_rejects_bad_words(self):
        T = once_punctured_torus()
        with pytest.raises(ValueError):
            mapping_class(T, "RX")
        with pytest.raises(errors.BaseMismatch):
            mapping_class(twice_punctured_torus(), "R")

    WORDS = ["".join(w) for n in range(1, 5) for w in product("RL", repeat=n)]

    def test_inverse_undoes_every_short_word(self):
        T = once_punctured_torus()
        slopes = farey.slopes_in_box(5)
        assert len(self.WORDS) == 30
        for word in self.WORDS:
            phi = mapping_class(T, word)
            inv = phi.inverse()
            back = word_to_matrix(word).inverse()
            for s in slopes:
                a = slope_arc(T, s)
                image = apply_mcg(inv, a)
                assert arc_slope(image) == act(back, s), (word, s)
                assert apply_mcg(phi, image) == a, (word, s)
                assert apply_mcg(inv, apply_mcg(phi, a)) == a, (word, s)

    def test_inverse_of_products_with_inverses(self):
        # the segments of an inverse start off the base, so inverting them
        # again must track the triangulation each one starts at
        T = once_punctured_torus()
        R, L = mapping_class(T, "R"), mapping_class(T, "L")
        mixed = R * L.inverse() * R.inverse().inverse()
        m = word_to_matrix("R") * word_to_matrix("L").inverse() \
            * word_to_matrix("R")
        for s in farey.slopes_in_box(4):
            a = slope_arc(T, s)
            image = apply_mcg(mixed, a)
            assert arc_slope(image) == act(m, s), s
            assert apply_mcg(mixed.inverse(), image) == a, s
            assert apply_mcg(mixed.inverse().inverse(), a) == image, s

    def test_equality_and_hash_are_by_value(self):
        T = once_punctured_torus()
        R, L = mapping_class(T, "R"), mapping_class(T, "L")
        rl = mapping_class(T, "RL")
        assert rl == R * L and hash(rl) == hash(R * L)
        assert rl != mapping_class(T, "LR")
        inv = rl.inverse()
        assert inv == (R * L).inverse() and hash(inv) == hash((R * L).inverse())
        assert inv != rl
        # rebuilt flips and reverse steps are new objects with equal values
        arcs._flip_cached.cache_clear()
        arcs._reverse_step.cache_clear()
        again = rl.inverse()
        assert again.segments[1] is not inv.segments[1]
        assert again == inv and hash(again) == hash(inv)

    def test_automorphism_inverses_on_the_degree_three_covers(
            self, degree_three_covers):
        T = once_punctured_torus()
        slopes = [s for s in farey.slopes_in_box(2)
                  if slope_arc(T, s).coord_sum == 1]
        assert len(slopes) == 6
        checked = 0
        for cover in degree_three_covers:
            total = cover.total
            lifts = [lift for s in slopes
                     for lift in lift_arc(cover, slope_arc(T, s))]
            for relab in find_relabelings(total, total, match_labels=False):
                phi = iso_mapping_class(total, relab)
                inv = phi.inverse()
                for a in lifts:
                    assert apply_mcg(inv, apply_mcg(phi, a)) == a
                    assert apply_mcg(phi, apply_mcg(inv, a)) == a
                    checked += 1
        assert checked == 3888

    def test_iso_mapping_class_requires_an_automorphism(self):
        T = once_punctured_torus()
        with pytest.raises(errors.BaseMismatch):
            iso_mapping_class(T, Relabeling((0, 1), (1, 0)))

    @pytest.mark.parametrize("relab", [
        ((0,), (0,)),               # too few triangles
        ((0, 0), (0, 0)),           # not a permutation
        ((0, 1, 2), (0, 0, 0)),     # too many triangles
        ((0, 1), (0, 3)),           # rotation out of range
    ])
    def test_iso_mapping_class_checks_the_relabeling(self, relab):
        # the second and fourth are refused by Relabeling itself
        with pytest.raises(errors.BaseMismatch, match="permutation"):
            iso_mapping_class(once_punctured_torus(), Relabeling(*relab))

    def test_deck_swap_moves_the_puncture(self):
        # the hyperelliptic square cover has two punctures; a deck-like
        # automorphism swaps them, and arcs refuse to follow it
        T = once_punctured_torus()
        cover = build_cover(T, {0: (0, 1), 1: (0, 1), 2: (1, 0)})
        total = cover.total
        autos = find_relabelings(total, total, match_labels=False)
        movers, keepers = [], []
        for r in autos:
            c0 = total.punctures[total.preferred][0]
            img = r.corner_image(*c0)
            orbit = next(i for i, orb in enumerate(total.punctures)
                         if img in orb)
            (movers if orbit != total.preferred else keepers).append(r)
        assert len(movers) == 2 and len(keepers) == 2

        a = arcs_of(total)[0]
        swap = iso_mapping_class(total, movers[0], word="swap")
        assert not swap.fixes_p
        with pytest.raises(errors.PunctureMoved):
            apply_mcg(swap, a)

        keep = next(r for r in keepers if r.perm != (0, 1, 2, 3))
        rho = iso_mapping_class(total, keep, word="rho")
        assert rho.fixes_p
        image = apply_mcg(rho, a)
        assert apply_mcg(rho, image) == a       # an involution

    def test_apply_checks_the_base(self):
        T = once_punctured_torus()
        with pytest.raises(errors.BaseMismatch):
            apply_mcg(mapping_class(T, "R"), arcs_of(twice_punctured_torus())[0])


class TestTranslationDistance:

    def test_arc_distance_at_the_witness(self):
        # farey.translation_distance is the one implementation; at its
        # witness slope v the arc complex must realise the same minimum
        # d(v, phi v), on every word of length <= 6 using both letters.
        # The lower bound is checked against the box search in test_farey.
        T = once_punctured_torus()
        checked = 0
        for n in range(2, 7):
            for letters in product("RL", repeat=n):
                word = "".join(letters)
                if len(set(word)) < 2:
                    continue
                d, v = farey.translation_distance(word_to_matrix(word),
                                                  with_witness=True)
                a = slope_arc(T, v)
                image = apply_mcg(mapping_class(T, word), a)
                assert distance(a, image, budget=64) == d, word
                checked += 1
        assert checked == 114


class TestCaches:

    def test_bounds(self):
        assert arcs._flip_cached.cache_info().maxsize == 100000
        assert arcs._reverse_step.cache_info().maxsize == 100000
        assert arcs._neighbors.cache_info().maxsize == 200000
        assert arcs._arc_from_raw.cache_info().maxsize == 200000
        assert arcs._letter_segment.cache_info().maxsize is None

    def test_repeated_query_hits_the_neighbor_cache(self):
        T = once_punctured_torus()
        a, b = slope_arc(T, "0/1"), slope_arc(T, "3/5")
        d = distance(a, b, budget=32)
        before = _neighbors.cache_info()
        assert distance(a, b, budget=32) == d
        after = _neighbors.cache_info()
        assert after.hits > before.hits
        assert after.currsize == before.currsize


class TestInterning:

    def test_a_slope_is_one_object(self):
        T = once_punctured_torus()
        for text in ["0/1", "1/0", "1/1", "2/5", "-3/7", "5/2"]:
            assert slope_arc(T, text) is slope_arc(T, text), text
            assert parse_arc(T, "slope " + text) is slope_arc(T, text), text

    def test_neighbour_lists_hold_the_slope_arcs(self):
        T = once_punctured_torus()
        nbs = _neighbors(slope_arc(T, "2/5"), 64)
        assert nbs
        for nb in nbs:
            assert nb is slope_arc(T, arc_slope(nb)), nb

    def test_each_arc_is_validated_once(self, monkeypatch):
        T = once_punctured_torus()
        traced = []

        def counted(tri, w, c):
            traced.append(tri)
            return trace(tri, w, c)

        trace = arcs._trace
        monkeypatch.setattr(arcs, "_trace", counted)
        # a slope far outside every other test's range, so it is first seen
        text = "7919/7927"
        before = arcs._arc_from_raw.cache_info()
        a = slope_arc(T, text)
        first = arcs._arc_from_raw.cache_info()
        assert first.misses == before.misses + 1
        assert len(traced) == 1
        assert slope_arc(T, text) is a
        again = arcs._arc_from_raw.cache_info()
        assert again.misses == first.misses
        assert again.hits == first.hits + 1
        assert len(traced) == 1


class TestLifts:

    def test_edge_arc_lifts(self):
        T = once_punctured_torus()
        cover = degree_three_cover(T)
        lifts = lift_arc(cover, slope_arc(T, "0/1"))
        assert sorted(a.along for a in lifts) == [0, 3, 6]
        for i in range(3):
            for j in range(i + 1, 3):
                assert intersection_number(lifts[i], lifts[j]) == 0

    def test_crossing_arc_lifts(self):
        T = once_punctured_torus()
        cover = degree_three_cover(T)
        for text, size in [("2/1", 1), ("3/2", 5)]:
            lifts = lift_arc(cover, slope_arc(T, text))
            assert len(lifts) == 3, text
            assert [a.coord_sum for a in lifts] == [size] * 3, text
            for i in range(3):
                for j in range(i + 1, 3):
                    assert intersection_number(lifts[i], lifts[j]) == 0

    def test_disjointness_descends_from_the_base(self):
        # 2/1 and 3/2 are adjacent slopes, so every lift pair is disjoint
        T = once_punctured_torus()
        cover = degree_three_cover(T)
        up21 = lift_arc(cover, slope_arc(T, "2/1"))
        up32 = lift_arc(cover, slope_arc(T, "3/2"))
        for a in up21:
            for b in up32:
                assert intersection_number(a, b) == 0

    def test_lift_distances_do_not_grow(self):
        T = once_punctured_torus()
        cover = degree_three_cover(T)
        up0 = lift_arc(cover, slope_arc(T, "0/1"))
        up21 = lift_arc(cover, slope_arc(T, "2/1"))
        assert distance(up0[0], up0[1], budget=12) == 1
        d_base = distance(slope_arc(T, "0/1"), slope_arc(T, "2/1"), budget=32)
        assert distance(up0[0], up21[0], budget=12) <= d_base

    def test_lift_checks_the_base(self):
        T = once_punctured_torus()
        cover = degree_three_cover(T)
        with pytest.raises(errors.BaseMismatch):
            lift_arc(cover, arcs_of(twice_punctured_torus())[0])
