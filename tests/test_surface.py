import re
from itertools import permutations, product

import numpy as np
import pytest

from cusplab import errors, surface
from cusplab.surface import (
    IdealTriangulation,
    Relabeling,
    build_cover,
    cover_from_text,
    cover_to_text,
    once_punctured_torus,
)
from oracles import (
    apply_dicts,
    find_relabelings_propagate,
    flip_dicts,
    mirrored_dicts,
    pieces_union_find,
    punctures_union_find,
)


def relabel_edge(tri, old, new):
    """The same triangulation with edge `old` relabelled `new`.

    A double flip gives the original surface back with its restored edge
    under a fresh label; this renames it, to compare with the original.
    """
    if old not in tri.edges:
        raise errors.NonInvolution("no edge labelled %r" % (old,))
    if new != old and new in tri.edges:
        raise errors.NonInvolution("label %r already in use" % (new,))
    table = tuple(new if x == old else x for x in tri._edge_of_slot)
    return IdealTriangulation(tri._glued, name=tri.name,
                              preferred=tri.punctures[tri.preferred][0],
                              edge_of_slot=table)


def then(first, second):
    """The composite relabeling: first, then second."""
    return Relabeling(tuple(second.perm[p] for p in first.perm),
                      tuple((first.rot[t] + second.rot[first.perm[t]]) % 3
                            for t in range(len(first.perm))))


def twice_punctured_torus():
    """Square torus with a second puncture at the centre of the square.

    Four triangles around the centre puncture B, whose spokes join B to the
    lattice puncture A; the two side edges of the square survive as A--A
    edges.  chi = -2.
    """
    pairs = [((0, 0), (2, 0)), ((1, 0), (3, 0)),
             ((0, 1), (1, 2)), ((1, 1), (2, 2)),
             ((2, 1), (3, 2)), ((3, 1), (0, 2))]
    return IdealTriangulation.from_gluings(pairs, name="s12", preferred=(0, 0))


def criterion_09_cover():
    """The degree-3 cover of the torus that acceptance criterion 9 lifts to."""
    return build_cover(once_punctured_torus(),
                       {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)}).total


def thrice_punctured_sphere():
    pairs = [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))]
    return IdealTriangulation.from_gluings(pairs, name="s03")


class TestBasics:

    def test_once_punctured_torus(self):
        s = once_punctured_torus()
        assert s.num_triangles == 2
        assert s.num_edges == 3
        assert s.chi == -1
        assert len(s.punctures) == 1
        assert len(s.punctures[0]) == 6
        assert s.edges == {0: ((0, 0), (1, 1)), 1: ((0, 1), (1, 2)),
                           2: ((0, 2), (1, 0))}
        assert s.edge_labels == (0, 1, 2)
        assert [s.edge_label(0, k) for k in range(3)] == [0, 1, 2]
        assert [s.edge_label(1, k) for k in range(3)] == [2, 0, 1]

    def test_puncture_walk_covers_link(self):
        s = once_punctured_torus()
        walk = s.puncture_walk((0, 0))
        assert walk == [(0, 0), (1, 2), (0, 2), (1, 1), (0, 1), (1, 0)]

    def test_twice_punctured_torus(self):
        s = twice_punctured_torus()
        assert s.chi == -2
        assert sorted(len(p) for p in s.punctures) == [4, 8]
        # preferred puncture is the lattice one, of valence 8
        assert len(s.punctures[s.preferred]) == 8
        assert s.puncture_walk((0, 2)) == [(0, 2), (3, 2), (2, 2), (1, 2)]

    def test_edge_punctures(self):
        s = twice_punctured_torus()
        A, B = s.preferred, 1 - s.preferred
        ends = [s.edge_punctures(e) for e in range(6)]
        assert ends[0] == (A, A)
        assert ends[3] == (A, A)
        assert sorted(ends.count(x) for x in {(A, A), (A, B), (B, A)}) == [1, 2, 3]

    def test_thrice_punctured_sphere(self):
        s = thrice_punctured_sphere()
        assert s.chi == -1
        assert len(s.punctures) == 3


class TestValidation:

    def test_asymmetric_gluing(self):
        glued = [(1, 1), (1, 2), (1, 0), (0, 2), (0, 0), (0, 1)]
        glued[3] = (0, 1)
        with pytest.raises(errors.NonInvolution):
            IdealTriangulation(glued)

    def test_fixed_point(self):
        with pytest.raises(errors.NonInvolution):
            IdealTriangulation.from_gluings(
                [((0, 0), (0, 0)), ((0, 1), (1, 0)), ((0, 2), (1, 1)),
                 ((1, 2), (1, 2))])

    def test_slot_glued_twice(self):
        with pytest.raises(errors.NonInvolution):
            IdealTriangulation.from_gluings(
                [((0, 0), (1, 1)), ((0, 0), (1, 2)), ((0, 2), (1, 0))])

    def test_missing_slot(self):
        with pytest.raises(errors.NonInvolution):
            IdealTriangulation.from_gluings([((0, 0), (1, 1)), ((0, 1), (1, 2))])

    def test_disconnected(self):
        pairs = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0)),
                 ((2, 0), (3, 1)), ((2, 1), (3, 2)), ((2, 2), (3, 0))]
        with pytest.raises(errors.Disconnected, match="describes 2 components"):
            IdealTriangulation.from_gluings(pairs)

    @pytest.mark.parametrize("copies", [2, 3, 5])
    def test_disconnected_names_the_piece_count(self, copies):
        # disjoint copies of the torus table, counted by the oracle too
        torus = once_punctured_torus()
        glued = [(u + 2 * i, b) for i in range(copies)
                 for t in range(2) for u, b in
                 (torus.glued_slot(t, s) for s in range(3))]
        assert pieces_union_find(glued) == copies
        with pytest.raises(errors.Disconnected,
                           match="describes %d components" % copies):
            IdealTriangulation(glued)

    @pytest.mark.parametrize("corner", [(9, 0), (0, 3), (0, -1), (1, 3),
                                        (1, -1), (1, 0, 0)])
    def test_bad_preferred_corner(self, corner):
        message = re.escape("no corner %r" % (corner,))
        pairs = [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))]
        with pytest.raises(errors.BadSurfaceFile, match=message):
            IdealTriangulation.from_gluings(pairs, preferred=corner)

    def test_bad_preferred_corner_of_a_cover(self):
        with pytest.raises(errors.BadSurfaceFile,
                           match=re.escape("no corner (40, 0)")):
            build_cover(once_punctured_torus(),
                        {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)},
                        preferred=(40, 0))

    @pytest.mark.parametrize("preferred", [0.7, 0.0, "0"])
    def test_preferred_puncture_must_be_an_integer(self, preferred):
        glued = once_punctured_torus()._glued
        with pytest.raises(errors.BadSurfaceFile,
                           match=re.escape("no puncture p%s" % preferred)):
            IdealTriangulation(glued, preferred=preferred)

    def test_numpy_integer_preferred_puncture(self):
        s = IdealTriangulation(once_punctured_torus()._glued,
                               preferred=np.int64(0))
        assert s.preferred == 0 and type(s.preferred) is int


class TestTextFormat:

    def test_round_trip(self):
        for s in (once_punctured_torus(), twice_punctured_torus()):
            text = s.to_text()
            again = IdealTriangulation.from_text(text)
            assert again == s
            assert again.to_text() == text

    def test_exact_layout(self):
        assert once_punctured_torus().to_text() == (
            "surface s11 preferred_puncture p0\n"
            "tri 0: 1.1 1.2 1.0\n"
            "tri 1: 0.2 0.0 0.1\n")

    def test_comments_and_blank_lines(self):
        text = ("# a torus\n\nsurface s11 preferred_puncture p0\n"
                "tri 0: 1.1 1.2 1.0  # fan\n"
                "tri 1: 0.2 0.0 0.1\n")
        assert IdealTriangulation.from_text(text) == once_punctured_torus()

    @pytest.mark.parametrize("text", [
        "tri 0: 1.1 1.2 1.0",
        "surface x preferred_puncture q0\ntri 0: 1.1 1.2 1.0\ntri 1: 0.2 0.0 0.1",
        "surface x preferred_puncture p7\ntri 0: 1.1 1.2 1.0\ntri 1: 0.2 0.0 0.1",
        "surface x preferred_puncture p0\ntri 0: 1.1 1.2\ntri 1: 0.2 0.0 0.1",
        "surface x preferred_puncture p0\ntri 0: 1.1 1.2 1.0\ntri 2: 0.2 0.0 0.1",
        "surface x preferred_puncture p0\nwhat 0: 1.1 1.2 1.0",
    ])
    def test_bad_files(self, text):
        with pytest.raises(errors.BadSurfaceFile):
            IdealTriangulation.from_text(text)

    TORUS_ROWS = "tri 0: 1.1 1.2 1.0\ntri 1: 0.2 0.0 0.1\n"
    HEADER = "surface x preferred_puncture p0\n"

    @pytest.mark.parametrize("text, message", [
        (HEADER + "surface y preferred_puncture p0\n" + TORUS_ROWS,
         "line 2: bad surface header"),
        ("# torus\nsurface x p0\n" + TORUS_ROWS,
         "line 2: bad surface header"),
        ("tri 0: 1.1 1.2 1.0\n", "line 1: bad triangle line"),
        (HEADER + "tri 0: 1.1 1.x 1.0\ntri 1: 0.2 0.0 0.1\n",
         "line 2: bad slot entry"),
        (HEADER + "tri 0: 1.1 1.2 1.0\n\ntri 0: 0.2 0.0 0.1\n",
         "line 4: triangle 0 repeated"),
        (HEADER + "what 0: 1.1 1.2 1.0\n", "line 2: unexpected 'what'"),
        ("# nothing but a comment\n\n", "missing surface header"),
        (HEADER + "tri 0: 1.1 1.2 1.0\ntri 2: 0.2 0.0 0.1\n",
         "triangle ids are not 0..1"),
        ("surface x preferred_puncture q0\n" + TORUS_ROWS,
         "bad puncture id 'q0'"),
        ("surface x preferred_puncture p7\n" + TORUS_ROWS, "no puncture p7"),
    ])
    def test_each_message(self, text, message):
        with pytest.raises(errors.BadSurfaceFile) as info:
            IdealTriangulation.from_text(text)
        assert str(info.value) == message


class TestFlips:

    def test_not_flippable(self):
        s = thrice_punctured_sphere()
        with pytest.raises(errors.NotFlippable):
            s.flip(0)

    def test_flip_preserves_invariants(self):
        s = twice_punctured_torus()
        t, rec = s.flip(0)
        assert t.chi == s.chi
        assert len(t.punctures) == len(s.punctures)
        assert t.num_edges == s.num_edges
        assert rec.edge == 0
        assert rec.new_edge == 6
        assert rec.sides.keys() == {"A", "B", "C", "D"}

    def test_flip_uses_fresh_label(self):
        s = twice_punctured_torus()
        t, rec = s.flip(0)
        assert 0 not in t.edges
        assert t.edge_labels == (1, 2, 3, 4, 5, 6)
        assert t.edges[rec.new_edge]
        # the four sides keep their labels and their gluing partners
        for side in "ABCD":
            assert rec.sides[side] in t.edges

    def test_flipped_edge_labels_are_sorted_and_complete(self):
        rng = np.random.default_rng(3)
        cur = twice_punctured_torus()
        for _ in range(20):
            labels = cur.edge_labels
            e = labels[int(rng.integers(len(labels)))]
            try:
                cur, rec = cur.flip(e)
            except errors.NotFlippable:
                continue
            slots = {cur.edge_label(t, k)
                     for t in range(cur.num_triangles) for k in range(3)}
            assert cur.edge_labels == tuple(sorted(slots))
            assert rec.new_edge in cur.edge_labels
            assert e not in cur.edge_labels

    def test_flip_moves_edge_between_punctures(self):
        # the quad around the bottom A--A edge has B at both off-diagonal
        # corners, so the flipped edge joins B to B
        s = twice_punctured_torus()
        A = s.preferred
        assert s.edge_punctures(0) == (A, A)
        t, rec = s.flip(0)
        # puncture indices may reorder across a flip; the preferred marker
        # tracks the lattice puncture, and the new edge avoids it
        B = 1 - t.preferred
        assert t.edge_punctures(rec.new_edge) == (B, B)

    def test_relabel_edge(self):
        s = once_punctured_torus()
        t = relabel_edge(s, 2, 9)
        assert t.edge_labels == (0, 1, 9)
        assert t.edges[9] == s.edges[2]
        assert relabel_edge(t, 9, 2) == s
        with pytest.raises(errors.NonInvolution):
            relabel_edge(s, 7, 8)
        with pytest.raises(errors.NonInvolution):
            relabel_edge(s, 0, 1)

    def test_double_flip_is_relabelled_identity(self):
        for s in (once_punctured_torus(), twice_punctured_torus()):
            for e in s.edge_labels:
                t1, rec1 = s.flip(e)
                t2, rec2 = t1.flip(rec1.new_edge)
                back = rec1.inverse_relabeling(s.num_triangles).apply(t2)
                assert relabel_edge(back, rec2.new_edge, e) == s

    def test_random_flip_walk_and_unwind(self):
        rng = np.random.default_rng(7)
        s = twice_punctured_torus()
        stack = []
        cur = s
        while len(stack) < 40:
            labels = cur.edge_labels
            e = labels[int(rng.integers(len(labels)))]
            try:
                nxt, rec = cur.flip(e)
            except errors.NotFlippable:
                continue
            assert nxt.chi == s.chi
            assert len(nxt.punctures) == len(s.punctures)
            stack.append((cur, rec))
            cur = nxt
        while stack:
            prev, rec = stack.pop()
            cur, rec2 = cur.flip(rec.new_edge)
            cur = rec.inverse_relabeling(cur.num_triangles).apply(cur)
            cur = relabel_edge(cur, rec2.new_edge, rec.edge)
            assert cur == prev


    def test_flips_share_slot_and_corner_tuples(self):
        # flip searches keep many triangulations alive; equal (t, k) pairs
        # in their slot tables, edge maps and puncture tables are one object
        s = twice_punctured_torus()
        tris = [s] + [s.flip(e)[0] for e in s.edge_labels
                      if s.edges[e][0][0] != s.edges[e][1][0]]
        seen = {}
        for tri in tris:
            pairs = list(tri._glued)
            for x, y in tri.edges.values():
                pairs += [x, y]
            for orbit in tri.punctures:
                pairs += orbit
            pairs += tri._corner_puncture
            for pair in pairs:
                assert seen.setdefault(pair, pair) is pair, pair
        assert len(seen) == 3 * s.num_triangles


class TestRelabeling:

    def test_apply_and_inverse(self):
        s = twice_punctured_torus()
        r = Relabeling(perm=(2, 0, 3, 1), rot=(1, 2, 0, 1))
        t = r.apply(s)
        assert t.chi == s.chi
        assert r.inverse().apply(t) == s
        assert then(r, r.inverse()).apply(s) == s

    def test_rotation_automorphism_of_torus(self):
        # rotating both plane triangles one step is the order three symmetry
        # cycling the three slopes
        s = once_punctured_torus()
        r = Relabeling(perm=(0, 1), rot=(1, 1))
        assert r.is_automorphism(s)
        assert r.edge_map(s) == {0: 1, 1: 2, 2: 0}
        assert then(then(r, r), r).apply(s) == s

    def test_non_automorphism(self):
        s = once_punctured_torus()
        assert not Relabeling(perm=(1, 0), rot=(0, 0)).is_automorphism(s)

    @pytest.mark.parametrize("perm, rot", [
        ((0, 0), (0, 0)),       # not a permutation
        ((1, 2), (0, 0)),       # not a permutation of range(2)
        ((0, 1), (0, 3)),       # rotation out of range
        ((0, 1), (0,)),         # too few rotations
    ])
    def test_rejects_a_bad_relabeling(self, perm, rot):
        with pytest.raises(errors.BaseMismatch, match="permutation"):
            Relabeling(perm, rot)

    @pytest.mark.parametrize("perm, rot", [
        ((0,), (0,)),           # too few triangles for the torus
        ((0, 1, 2), (0, 0, 0)),  # too many
    ])
    def test_rejects_a_triangulation_of_another_size(self, perm, rot):
        s = once_punctured_torus()
        r = Relabeling(perm, rot)
        with pytest.raises(errors.BaseMismatch, match="triangulation of 2"):
            r.apply(s)
        with pytest.raises(errors.BaseMismatch, match="triangulation of 2"):
            r.is_automorphism(s)


class TestCanonicalForm:

    def test_relabelled_copies_match(self):
        s = twice_punctured_torus()
        r = Relabeling(perm=(3, 1, 0, 2), rot=(2, 0, 1, 2))
        assert s.canonical_key() == r.apply(s).canonical_key()

    def test_different_surfaces_differ(self):
        assert (once_punctured_torus().canonical_key()
                != thrice_punctured_sphere().canonical_key())

    def test_puncture_marking(self):
        s = twice_punctured_torus()
        other = IdealTriangulation(
            [s.glued_slot(t, k) for t in range(4) for k in range(3)],
            preferred=1 - s.preferred)
        assert s.canonical_key() != other.canonical_key()
        assert (s.canonical_key(mark_puncture=False)
                == other.canonical_key(mark_puncture=False))

    def test_mirror(self):
        s = twice_punctured_torus()
        m = s.mirrored()
        assert m.mirrored() == s
        assert s.canonical_key() == m.canonical_key()


class TestCovers:

    def test_degree_three_cover_of_torus(self):
        base = once_punctured_torus()
        cover = build_cover(base, {0: (1, 0, 2), 1: (0, 2, 1), 2: (0, 1, 2)})
        assert cover.total.num_triangles == 6
        assert cover.total.chi == -3
        assert len(cover.total.punctures) == 1
        lifts = cover.edge_lifts(0)
        assert len(set(lifts)) == 3
        assert cover.total.num_edges == 9

    def test_projection_indices(self):
        base = once_punctured_torus()
        cover = build_cover(base, {0: (1, 2, 0), 1: (0, 1, 2), 2: (0, 1, 2)})
        for t in range(2):
            for i in range(3):
                assert divmod(cover.lift_id(t, i), cover.degree) == (t, i)

    def test_intransitive(self):
        base = once_punctured_torus()
        with pytest.raises(errors.Intransitive, match="in 2 pieces"):
            build_cover(base, {e: (0, 1) for e in range(3)})
        # the same 3-cycle on every edge generates a transitive group but
        # still tears the cover into three pieces
        with pytest.raises(errors.Intransitive, match="in 3 pieces"):
            build_cover(base, {e: (1, 2, 0) for e in range(3)})
        with pytest.raises(errors.Intransitive, match="in 4 pieces"):
            build_cover(base, {e: (0, 1, 2, 3) for e in range(3)})

    def test_base_mismatch(self):
        base = once_punctured_torus()
        with pytest.raises(errors.BaseMismatch):
            build_cover(base, {0: (1, 0), 1: (0, 1)})
        with pytest.raises(errors.BaseMismatch):
            build_cover(base, {0: (1, 1), 1: (0, 1), 2: (0, 1)})
        with pytest.raises(errors.BaseMismatch):
            build_cover(base, {0: (1, 0), 1: (0, 1), 2: (0, 1, 2)})

    def test_cover_text_round_trip(self):
        base = once_punctured_torus()
        cover = build_cover(base, {0: (1, 0, 2), 1: (0, 2, 1), 2: (0, 1, 2)})
        text = cover_to_text(cover)
        again = cover_from_text(text)
        assert again.total == cover.total
        assert again.perms == cover.perms
        assert cover_to_text(again) == text

    # line 1 is the header and lines 2-3 the base rows of the torus text
    TORUS = "surface s11 preferred_puncture p0\n" + TestTextFormat.TORUS_ROWS
    PERMS = "perm 0: 1 0\nperm 1: 0 1\nperm 2: 0 1\n"

    @pytest.mark.parametrize("text, message", [
        (TORUS + "cover degree 2\ncover degree 2\n" + PERMS,
         "line 5: bad cover line"),
        (TORUS + "cover deg 2\n" + PERMS, "line 4: bad cover line"),
        (TORUS + "cover degree two\n" + PERMS, "line 4: bad cover degree"),
        (TORUS + "perm 0: 1 0\ncover degree 2\n",
         "line 4: bad perm line"),
        (TORUS + "cover degree 2\nperm 0 1 0\n", "line 5: bad perm line"),
        (TORUS + "cover degree 2\nperm 0: 1 x\n",
         "line 5: bad perm entry"),
        (TORUS + "cover degree 2\ntri 2: 0.0 0.1 0.2\n",
         "line 5: surface data after cover line"),
        (TORUS + PERMS.replace("perm", "# perm"), "missing cover line"),
        (TORUS + "cover degree 2\n" + PERMS + "perm 1: 1 0\n",
         "line 8: edge 1 repeated"),
        (TORUS + "cover degree 2\n# sheets\nperm 0: 1 0 2\n",
         "line 6: permutation has 3 entries, need 2"),
        ("surface s11 preferred_puncture p0\ntri 0: 1.1 1.2 1.0\n"
         "tri 0: 0.2 0.0 0.1\ncover degree 2\n" + PERMS,
         "line 3: triangle 0 repeated"),
        # base lines keep the file's numbers past comments and blank lines
        ("# my cover\n\nsurface s11 preferred_puncture p0\n"
         "tri 0: 1.1 1.2 1.0\ntri 0: 0.2 0.0 0.1\ncover degree 2\n" + PERMS,
         "line 5: triangle 0 repeated"),
    ])
    def test_each_cover_file_message(self, text, message):
        with pytest.raises(errors.BadSurfaceFile) as info:
            cover_from_text(text)
        assert str(info.value) == message

    def test_cover_text_refuses_another_preferred_puncture(self):
        # the degree-2 torus cover has two punctures; the text would read
        # back marked at the sheet-0 lift, puncture 0
        base = once_punctured_torus()
        perms = {0: (0, 1), 1: (0, 1), 2: (1, 0)}
        total = build_cover(base, perms).total
        assert len(total.punctures) == 2 and total.preferred == 0
        cover = build_cover(base, perms, preferred=total.punctures[1][0])
        assert cover.total.preferred == 1
        with pytest.raises(ValueError, match="puncture p1"):
            cover_to_text(cover)

    def test_preferred_puncture_lifts_sheet_zero(self):
        base = twice_punctured_torus()
        cover = build_cover(base, {e: (1, 0) for e in range(6)})
        t0, k0 = base.punctures[base.preferred][0]
        lifted = (cover.lift_id(t0, 0), k0)
        assert cover.total.puncture_of(lifted) == cover.total.preferred


class TestPuncturesAgainstUnionFind:
    """The corner walk and the slot-table walk against the union-find."""

    @staticmethod
    def check(tri):
        want = punctures_union_find(tri)
        assert tri.punctures == want
        for i, orbit in enumerate(want):
            for corner in orbit:
                assert tri.puncture_of(corner) == i
        assert surface._pieces(tri._glued) == pieces_union_find(tri._glued) == 1

    def test_small_surfaces(self):
        for tri in (once_punctured_torus(), twice_punctured_torus(),
                    thrice_punctured_sphere()):
            self.check(tri)

    def test_degree_three_covers(self, degree_three_covers):
        assert len(degree_three_covers) == 108
        for cover in degree_three_covers:
            self.check(cover.total)

    def test_flip_walk_on_the_criterion_09_cover(self):
        tri = build_cover(once_punctured_torus(),
                          {0: (0, 1, 2), 1: (0, 2, 1), 2: (1, 0, 2)}).total
        rng = np.random.default_rng(2009)
        self.check(tri)
        flips = 0
        while flips < 200:
            e = tri.edge_labels[int(rng.integers(tri.num_edges))]
            try:
                tri, _ = tri.flip(e)
            except errors.NotFlippable:
                continue
            self.check(tri)
            flips += 1


def connected_degree_three_covers():
    """Every connected degree-3 cover of the torus, once per puncture of
    the cover, marked preferred at that puncture's first corner."""
    base = once_punctured_torus()
    for perms in product(permutations(range(3)), repeat=3):
        try:
            total = build_cover(base, dict(enumerate(perms))).total
        except errors.Intransitive:
            continue
        for orbit in total.punctures:
            yield IdealTriangulation(total._glued, name=total.name,
                                     preferred=orbit[0])


def random_relabeling(rng, n):
    return Relabeling(tuple(int(x) for x in rng.permutation(n)),
                      tuple(int(x) for x in rng.integers(3, size=n)))


class TestSlotMapsAgainstDicts:
    """Flips, mirrors and relabelings built by one slot map, and the
    flag-walk relabeling search, against the dict-built oracles."""

    @staticmethod
    def same(tri, want):
        assert tri._glued == want._glued
        assert tri._edge_of_slot == want._edge_of_slot
        assert tri.preferred == want.preferred
        assert tri.edges == want.edges
        assert tri.punctures == want.punctures

    def check_builders(self, tri, rng):
        for e in tri.edge_labels:
            try:
                want = flip_dicts(tri, e)
            except errors.NotFlippable:
                with pytest.raises(errors.NotFlippable):
                    tri.flip(e)
                continue
            got = tri.flip(e)
            self.same(got[0], want[0])
            assert got[1] == want[1]
        self.same(tri.mirrored(), mirrored_dicts(tri))
        relab = random_relabeling(rng, tri.num_triangles)
        self.same(relab.apply(tri), apply_dicts(relab, tri))

    def test_builders_on_the_degree_three_covers(self, degree_three_covers):
        rng = np.random.default_rng(25)
        assert len(degree_three_covers) == 108
        for cover in degree_three_covers:
            self.check_builders(cover.total, rng)

    def test_builders_at_every_preferred_puncture(self):
        # the 156 connected covers, 48 of them with several punctures, and
        # the twice-punctured torus, preferred at each puncture in turn
        rng = np.random.default_rng(26)
        s = twice_punctured_torus()
        tris = [IdealTriangulation(s._glued, preferred=p)
                for p in range(len(s.punctures))]
        tris += connected_degree_three_covers()
        assert len({len(t.punctures) for t in tris}) > 1
        for tri in tris:
            self.check_builders(tri, rng)

    def test_builders_along_a_flip_walk_on_the_criterion_09_cover(self):
        rng = np.random.default_rng(2025)
        tri = criterion_09_cover()
        flips = 0
        while flips < 200:
            self.check_builders(tri, rng)
            e = tri.edge_labels[int(rng.integers(tri.num_edges))]
            try:
                tri, _ = tri.flip(e)
            except errors.NotFlippable:
                continue
            flips += 1

    @staticmethod
    def check_search(pairs):
        calls = 0
        for tri, target in pairs:
            for match_labels, match_preferred in product((False, True),
                                                          repeat=2):
                got = surface.find_relabelings(tri, target, match_labels,
                                               match_preferred)
                assert got == find_relabelings_propagate(
                    tri, target, match_labels, match_preferred)
                calls += 1
        return calls

    def test_find_relabelings_on_the_degree_three_covers(
            self, degree_three_covers):
        rng = np.random.default_rng(27)
        tris = [c.total for c in degree_three_covers]
        pairs = [(t, t) for t in tris]
        for t in tris:
            # a relabelled copy, and a seeded partner that is often another
            # cover with the same triangle count
            pairs.append((t, random_relabeling(rng, 6).apply(t)))
            pairs.append((t, tris[int(rng.integers(len(tris)))]))
        found = [surface.find_relabelings(t, u, False) for t, u in pairs]
        assert sum(map(bool, found)) > len(tris) * 2
        assert self.check_search(pairs) == 4 * 3 * 108

    def test_find_relabelings_at_every_preferred_puncture(self):
        tris = list(connected_degree_three_covers())
        rng = np.random.default_rng(28)
        pairs = [(t, t) for t in tris]
        pairs += [(t, random_relabeling(rng, 6).apply(u))
                  for t in tris for u in tris[:3]]
        pairs += [(twice_punctured_torus(), once_punctured_torus()),
                  (once_punctured_torus(), once_punctured_torus().mirrored())]
        assert self.check_search(pairs) == 4 * len(pairs)
