"""Ideal triangulations of punctured surfaces.

A surface is presented as T oriented triangles with vertices 0, 1, 2 in
counterclockwise order and all 3T edge slots glued in pairs.  Slot s of a
triangle is the edge running from vertex s to vertex s + 1 (mod 3).  Gluing
slot (t, a) to slot (u, b) identifies the two edges reversing direction,

    vertex a   of t  ~  vertex b+1 of u,
    vertex a+1 of t  ~  vertex b   of u,

which is the unique convention compatible with both triangles being
counterclockwise.

Punctures are the orbits of triangle corners under the gluings, each walked
once by `puncture_walk`; every vertex of every triangle is a puncture (the
triangulations are ideal).  One puncture is always marked as preferred; the
arc machinery keeps endpoints there.

Edges carry stable integer labels.  A freshly built triangulation numbers its
edges 0 .. E-1 by their smallest slot in lexicographic order, the convention
of the text format.  A flip moves the six slots of its two triangles and
renames one label, its diagonal's, to a fresh one (one past the current
maximum) recorded in the FlipRecord; the four sides of its quadrilateral keep
theirs, so weight vectors keyed by label stay unambiguous along a flip path.
Flips, mirrors, relabelings and edge renamings are slot maps built alike.
"""

import operator
from dataclasses import dataclass

from .errors import (
    BadSurfaceFile,
    BaseMismatch,
    Disconnected,
    Intransitive,
    NonInvolution,
    NotFlippable,
)

_REFLECT = (0, 2, 1)  # vertex relabelling that reverses one triangle

# one copy of every (t, k) slot or corner tuple and of every edge's pair
# of slots, shared by all triangulations
_SHARED = {}


def _shared(value):
    """The one copy of this tuple that triangulations share.

    Flip searches keep tens of thousands of triangulations alive; without
    sharing, each slot table, edge map and puncture table would hold its
    own copy of every (t, k) pair.
    """
    return _SHARED.setdefault(value, value)


def _pieces(glued):
    """The number of connected pieces that a slot table glues up.

    One walk over the table: each piece is found from its smallest
    triangle, and every triangle reached is marked through its three slots.
    """
    reached = [False] * (len(glued) // 3)
    pieces = 0
    for start, done in enumerate(reached):
        if done:
            continue
        pieces += 1
        reached[start] = True
        stack = [start]
        while stack:
            t = stack.pop()
            for u, _ in glued[3 * t:3 * t + 3]:
                if not reached[u]:
                    reached[u] = True
                    stack.append(u)
    return pieces


def _lines(text):
    """(line number, tokens) of each line with a token left once its `#`
    comment is cut; both text formats read their lines here."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if tok:
            yield ln, tok


class IdealTriangulation:
    """Immutable ideal triangulation of a connected oriented punctured surface.

    Construct with `from_gluings`, `from_text`, or a
    ready slot table: entry 3t + s of `glued` is the slot paired with (t, s).
    All derived data (edges, punctures, Euler characteristic) is computed up
    front; instances never mutate, and flips return new instances.

    `edges` maps each edge label to its pair of slots, lexicographically
    smaller slot first; that slot is the edge's oriented representative.
    """

    def __init__(self, glued, name="surface", preferred=None, edge_of_slot=None):
        glued = tuple(_shared((int(u), int(b))) for u, b in glued)
        if len(glued) == 0 or len(glued) % 3:
            raise NonInvolution(
                "slot table has %d entries, not a positive multiple of 3" % len(glued))
        self._glued = glued
        self.num_triangles = len(glued) // 3
        self.name = str(name)
        self._check_involution()
        self._check_connected()
        self._build_edges(edge_of_slot)
        self.edge_labels = tuple(sorted(self.edges))
        self._build_punctures()
        self._set_preferred(preferred)

    # ---- construction checks ----

    def _check_involution(self):
        T = self.num_triangles
        for idx, (u, b) in enumerate(self._glued):
            t, a = divmod(idx, 3)
            if not (0 <= u < T and 0 <= b < 3):
                raise NonInvolution("slot (%d,%d) glued to nonexistent (%d,%d)"
                                    % (t, a, u, b))
            if (u, b) == (t, a):
                raise NonInvolution("slot (%d,%d) glued to itself" % (t, a))
            if self._glued[3 * u + b] != (t, a):
                raise NonInvolution("gluing of (%d,%d) and (%d,%d) is not symmetric"
                                    % (t, a, u, b))

    def _check_connected(self):
        pieces = _pieces(self._glued)
        if pieces > 1:
            raise Disconnected(pieces)

    def _build_edges(self, edge_of_slot):
        if edge_of_slot is None:
            # edges 0 .. E-1 by their smaller slot, in slot order
            edge_of_slot = [None] * len(self._glued)
            e = 0
            for idx, (u, b) in enumerate(self._glued):
                if idx < 3 * u + b:
                    edge_of_slot[idx] = edge_of_slot[3 * u + b] = e
                    e += 1
        table = tuple(int(x) for x in edge_of_slot)
        if len(table) != 3 * self.num_triangles:
            raise NonInvolution("edge label table has wrong length")
        by_label = {}
        for idx, e in enumerate(table):
            by_label.setdefault(e, []).append(_shared(divmod(idx, 3)))
        self.edges = {}
        for e, slots in sorted(by_label.items()):
            (t, a) = slots[0]
            if len(slots) != 2 or self._glued[3 * t + a] != slots[1]:
                raise NonInvolution("edge label %d does not match a gluing" % e)
            self.edges[e] = _shared(tuple(slots))
        self._edge_of_slot = table

    def _build_punctures(self):
        # walking from each corner not yet placed, in (t, k) order, finds
        # the orbits in the order of their smallest corners
        punctures = []
        self._corner_puncture = {}
        for t in range(self.num_triangles):
            for k in range(3):
                if (t, k) in self._corner_puncture:
                    continue
                orbit = tuple(sorted(map(_shared, self.puncture_walk((t, k)))))
                for c in orbit:
                    self._corner_puncture[c] = len(punctures)
                punctures.append(orbit)
        self.punctures = tuple(punctures)

    def _set_preferred(self, preferred):
        if preferred is None:
            self.preferred = 0
        elif isinstance(preferred, tuple):
            if preferred not in self._corner_puncture:
                raise BadSurfaceFile("no corner %r" % (preferred,))
            self.preferred = self._corner_puncture[preferred]
        else:
            try:
                index = operator.index(preferred)
            except TypeError:
                index = -1
            if not 0 <= index < len(self.punctures):
                raise BadSurfaceFile("no puncture p%s" % (preferred,))
            self.preferred = index

    # ---- basic queries ----

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def chi(self):
        return self.num_triangles - self.num_edges

    def glued_slot(self, t, s):
        return self._glued[3 * t + s]

    def edge_label(self, t, s):
        return self._edge_of_slot[3 * t + s]

    def puncture_of(self, corner):
        return self._corner_puncture[corner]

    def edge_punctures(self, e):
        """Punctures at the tail and head of edge e (slot direction)."""
        (t, a), _ = self.edges[e]
        return (self.puncture_of((t, a)), self.puncture_of((t, (a + 1) % 3)))

    def puncture_walk(self, corner):
        """The corners around the puncture of `corner`, in cyclic order.

        From corner (t, c) the walk crosses the outgoing slot c and lands in
        the corner of the neighbouring triangle at the same puncture point.
        """
        t, c = corner
        walk = [corner]
        while True:
            u, b = self.glued_slot(t, c)
            t, c = u, (b + 1) % 3
            if (t, c) == corner:
                return walk
            walk.append((t, c))
            assert len(walk) <= 3 * self.num_triangles

    def __eq__(self, other):
        return (isinstance(other, IdealTriangulation)
                and self._glued == other._glued
                and self._edge_of_slot == other._edge_of_slot
                and self.preferred == other.preferred)

    def __hash__(self):
        return hash((self._glued, self._edge_of_slot, self.preferred))

    def __repr__(self):
        return "<IdealTriangulation %s: %d triangles, chi=%d, %d punctures>" % (
            self.name, self.num_triangles, self.chi, len(self.punctures))

    # ---- flips ----

    def flip(self, e):
        """Replace edge e by the other diagonal of the quadrilateral around it.

        Returns (triangulation, FlipRecord).  The quadrilateral has corners
        P, Q, R, S in counterclockwise order with the old diagonal Q--S and
        the new one P--R; its sides A: P->Q, B: Q->R, C: R->S, D: S->P keep
        their edge labels and the new diagonal receives a fresh label,
        recorded as `new_edge`.  On slots the flip moves six and renames one
        label: with e on slots (t, a) and (u, b), A, B, C, D go to (t, 0),
        (t, 1), (u, 0), (u, 1), and (t, a), (u, b) to (t, 2), (u, 2) under
        the new label.  Raises NotFlippable when both sides of e lie on the
        same triangle.
        """
        if e not in self.edges:
            raise NotFlippable("no edge labelled %r" % (e,))
        (t, a), (u, b) = self.edges[e]
        if t == u:
            raise NotFlippable("edge %d has triangle %d on both sides" % (e, t))
        fresh = max(self.edges) + 1
        A = (t, (a + 2) % 3)
        B = (u, (b + 1) % 3)
        C = (u, (b + 2) % 3)
        D = (t, (a + 1) % 3)
        # new triangles reuse the ids: t' = (P,Q,R), u' = (R,S,P)
        moves = {A: (t, 0), B: (t, 1), C: (u, 0), D: (u, 1),
                 (t, a): (t, 2), (u, b): (u, 2)}
        label = self._edge_of_slot
        record = FlipRecord(edge=e, new_edge=fresh, old_slots=((t, a), (u, b)),
                            sides={k: label[3 * w + s] for k, (w, s)
                                   in zip("ABCD", (A, B, C, D))})
        # corner (w, k) is the tail of slot (w, k), so P, Q, R, S are the
        # corners A, B, C, D and Q, S also (t, a), (u, b); each goes to the
        # new corner at the same letter: P, Q, R to (t, 0), (t, 1), (t, 2),
        # S to (u, 1)
        corner_map = {A: (t, 0), B: (t, 1), C: (t, 2), D: (u, 1),
                      (t, a): (t, 1), (u, b): (u, 1)}
        pref = self.punctures[self.preferred][0]
        return self._remapped(lambda w, s: moves.get((w, s), (w, s)),
                              corner_map.get(pref, pref), {e: fresh}), record

    def _remapped(self, image, corner, ren=None):
        """The triangulation gluing image(x) to image(y) where x glues to y.

        `image(t, s)` is a bijection of slots, each edge label e becomes
        ren.get(e, e), and the preferred puncture is the one at `corner`.
        Flips, mirrors, relabelings and renamings are all built here.
        """
        img = [image(t, s) for t in range(self.num_triangles) for s in range(3)]
        glued = [None] * len(img)
        labels = [None] * len(img)
        for (t, s), (u, b), e in zip(img, self._glued, self._edge_of_slot):
            glued[3 * t + s] = img[3 * u + b]
            labels[3 * t + s] = ren.get(e, e) if ren else e
        return IdealTriangulation(glued, name=self.name, preferred=corner,
                                  edge_of_slot=labels)

    # ---- orientation reversal and canonical form ----

    def mirrored(self):
        """The same surface with the opposite orientation.

        Every triangle is reflected through the swap of vertices 1 and 2;
        slot s becomes slot 2 - s and all gluings stay in convention.
        """
        t0, k0 = self.punctures[self.preferred][0]
        return self._remapped(lambda t, s: (t, 2 - s), (t0, _REFLECT[k0]))

    def _flag_walk(self, t0, r0):
        """(rows, order, rho): the slot table renumbered from one flag.

        Triangles are numbered in breadth-first order from t0, new slot s
        of triangle t being old slot (s + rho[t]) % 3, with rho[t0] = r0;
        row i gives, for each new slot of order[i], the new slot it is glued
        to.  Two walks give the same rows exactly when a relabeling carries
        one flag to the other and one slot table onto the other.
        """
        rho = [None] * self.num_triangles
        ids = list(rho)
        rho[t0], ids[t0] = r0, 0
        order = [t0]
        rows = []
        for t in order:
            r = rho[t]
            row = []
            for s in range(3):
                u, b = self._glued[3 * t + (s + r) % 3]
                if ids[u] is None:
                    ids[u] = len(order)
                    rho[u] = b
                    order.append(u)
                row.append((ids[u], (b - rho[u]) % 3))
            rows.append(tuple(row))
        return tuple(rows), order, rho

    def _flag_key(self, t0, r0, mark_puncture):
        rows, order, rho = self._flag_walk(t0, r0)
        if not mark_puncture:
            return (rows,)
        mask = tuple(tuple(int(self.puncture_of((t, (k + rho[t]) % 3))
                               == self.preferred) for k in range(3))
                     for t in order)
        return (rows, mask)

    def _oriented_key(self, mark_puncture):
        return min(self._flag_key(t0, r0, mark_puncture)
                   for t0 in range(self.num_triangles) for r0 in range(3))

    def canonical_key(self, mark_puncture=True, mirror=True):
        """Hashable invariant, equal exactly for isomorphic triangulations.

        With mark_puncture the isomorphisms must carry the preferred
        puncture to the preferred puncture; with mirror they may reverse
        orientation.  The key is the least `_flag_walk` re-encoding over all
        3T starting flags (and those of the mirror image, with mirror), so it
        doubles as a canonical labeling.  It is recomputed on every call.
        """
        key = self._oriented_key(mark_puncture)
        if mirror:
            key = min(key, self.mirrored()._oriented_key(mark_puncture))
        return key

    # ---- serialization ----

    def to_text(self):
        lines = ["surface %s preferred_puncture p%d" % (self.name, self.preferred)]
        for t in range(self.num_triangles):
            parts = " ".join("%d.%d" % self.glued_slot(t, s) for s in range(3))
            lines.append("tri %d: %s" % (t, parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return cls._from_lines(_lines(text))

    @classmethod
    def _from_lines(cls, lines):
        """The surface of the (line number, tokens) pairs that `_lines` reads."""
        header = None
        rows = {}
        for ln, tok in lines:
            if tok[0] == "surface":
                if header is not None or len(tok) != 4 or tok[2] != "preferred_puncture":
                    raise BadSurfaceFile("line %d: bad surface header" % ln)
                header = (tok[1], tok[3])
            elif tok[0] == "tri":
                if header is None or len(tok) != 5 or not tok[1].endswith(":"):
                    raise BadSurfaceFile("line %d: bad triangle line" % ln)
                try:
                    t = int(tok[1][:-1])
                    row = []
                    for part in tok[2:]:
                        u, b = part.split(".")
                        row.append((int(u), int(b)))
                except ValueError:
                    raise BadSurfaceFile("line %d: bad slot entry" % ln)
                if t in rows:
                    raise BadSurfaceFile("line %d: triangle %d repeated" % (ln, t))
                rows[t] = row
            else:
                raise BadSurfaceFile("line %d: unexpected %r" % (ln, tok[0]))
        if header is None:
            raise BadSurfaceFile("missing surface header")
        if sorted(rows) != list(range(len(rows))):
            raise BadSurfaceFile("triangle ids are not 0..%d" % (len(rows) - 1))
        name, pid = header
        if not (pid.startswith("p") and pid[1:].isdigit()):
            raise BadSurfaceFile("bad puncture id %r" % pid)
        glued = [rows[t][s] for t in range(len(rows)) for s in range(3)]
        return cls(glued, name=name, preferred=int(pid[1:]))

    @classmethod
    def from_gluings(cls, pairs, name="surface", preferred=None):
        """Build from a list of slot pairs ((t, a), (u, b)), each gluing the
        two slots in the convention of the module docstring."""
        pairs = [((int(t), int(a)), (int(u), int(b)))
                 for (t, a), (u, b) in pairs]
        tris = {t for p in pairs for (t, _) in p}
        if tris != set(range(len(tris))):
            raise NonInvolution("triangle ids are not consecutive from 0")
        glued = {}
        for x, y in pairs:
            for s, p in ((x, y), (y, x)):
                if s in glued:
                    raise NonInvolution("slot (%d,%d) glued twice" % s)
                glued[s] = p
        order = [(t, s) for t in range(len(tris)) for s in range(3)]
        missing = [s for s in order if s not in glued]
        if missing:
            raise NonInvolution("slot (%d,%d) is not glued" % missing[0])
        return cls(tuple(glued[s] for s in order), name=name, preferred=preferred)


def find_relabelings(tri, target, match_labels=True, match_preferred=False):
    """All relabelings carrying tri onto target, slot table and labels alike.

    A relabeling is determined by the image of one flag: tri is walked
    from flag (0, 0) and target from each of its 3T flags, and where the
    two walks' rows agree, the i-th triangles of their orders correspond.
    With match_labels each edge label must land on itself; with
    match_preferred the preferred puncture must be carried to the
    preferred puncture.  Both are read slot by slot, with no triangulation
    built.  Results are sorted by (perm, rot).
    """
    out = []
    T = tri.num_triangles
    if T != target.num_triangles:
        return out
    rows, order, rho = tri._flag_walk(0, 0)
    t0, k0 = tri.punctures[tri.preferred][0]
    for u0 in range(T):
        for r0 in range(3):
            rows2, order2, rho2 = target._flag_walk(u0, r0)
            if rows2 != rows:
                continue
            pairs = sorted(zip(order, order2))
            cand = Relabeling(tuple(y for _, y in pairs),
                              tuple((rho2[y] - rho[x]) % 3 for x, y in pairs))
            if match_labels and any(
                    target.edge_label(*cand.slot_image(t, s))
                    != tri.edge_label(t, s) for t in range(T) for s in range(3)):
                continue
            if match_preferred and (target.puncture_of(cand.corner_image(t0, k0))
                                    != target.preferred):
                continue
            out.append(cand)
    return sorted(out, key=lambda r: (r.perm, r.rot))


@dataclass(frozen=True)
class FlipRecord:
    """Everything about one flip that coordinate transport needs.

    Letters P, Q, R, S name the quadrilateral corners (counterclockwise, old
    diagonal Q--S, new diagonal P--R) and A, B, C, D its sides P->Q, Q->R,
    R->S, S->P.  `sides` gives each side's unchanged edge label and
    `new_edge` is the fresh label of the new diagonal.
    """
    edge: int
    new_edge: int
    old_slots: tuple
    sides: dict

    def inverse_relabeling(self, num_triangles):
        """Relabeling that carries the double flip back to the original.

        Flipping `new_edge` in the flipped triangulation gives the original
        surface back with the two triangles trading places; this returns the
        triangle and vertex renaming that undoes that.  The second flip's
        fresh diagonal label still needs renaming to `edge` afterwards.
        """
        (t, a), (u, b) = self.old_slots
        perm = list(range(num_triangles))
        rot = [0] * num_triangles
        perm[t], rot[t] = u, (b + 1) % 3
        perm[u], rot[u] = t, (a + 1) % 3
        return Relabeling(tuple(perm), tuple(rot))


@dataclass(frozen=True)
class Relabeling:
    """Orientation-preserving renaming of triangles and vertices.

    Vertex k of triangle t becomes vertex (k + rot[t]) % 3 of triangle
    perm[t]; slots transform the same way since slot s is anchored at
    vertex s.  Raises BaseMismatch unless perm is a permutation of
    range(len(perm)) and rot has as many entries, each in 0..2; apply and
    is_automorphism raise it on a triangulation of another size.
    """
    perm: tuple
    rot: tuple

    def __post_init__(self):
        n = len(self.perm)
        if (sorted(self.perm) != list(range(n)) or len(self.rot) != n
                or not set(self.rot) <= {0, 1, 2}):
            raise BaseMismatch("relabeling %r is not a permutation of its "
                               "%d triangles with rotations in 0..2"
                               % ((self.perm, self.rot), n))

    def _check_size(self, tri):
        if len(self.perm) != tri.num_triangles:
            raise BaseMismatch("relabeling of %d triangles on a "
                               "triangulation of %d"
                               % (len(self.perm), tri.num_triangles))

    def slot_image(self, t, s):
        return (self.perm[t], (s + self.rot[t]) % 3)

    def corner_image(self, t, k):
        return (self.perm[t], (k + self.rot[t]) % 3)

    def inverse(self):
        n = len(self.perm)
        perm = [0] * n
        rot = [0] * n
        for t in range(n):
            perm[self.perm[t]] = t
            rot[self.perm[t]] = (-self.rot[t]) % 3
        return Relabeling(tuple(perm), tuple(rot))

    def apply(self, tri):
        self._check_size(tri)
        t0, k0 = tri.punctures[tri.preferred][0]
        return tri._remapped(self.slot_image, self.corner_image(t0, k0))

    def is_automorphism(self, tri):
        self._check_size(tri)
        for t in range(tri.num_triangles):
            for s in range(3):
                if (tri.glued_slot(*self.slot_image(t, s))
                        != self.slot_image(*tri.glued_slot(t, s))):
                    return False
        return True

    def edge_map(self, tri):
        """Induced permutation of edge labels, for an automorphism of tri."""
        out = {}
        for e, ((t, a), _) in tri.edges.items():
            out[e] = tri.edge_label(*self.slot_image(t, a))
        return out


# ---- covers ----

@dataclass(frozen=True)
class CoverMap:
    """A finite cover of a triangulated surface.

    Triangle (t, sheet i) of the cover has id t * degree + i.  `perms`
    records, per base edge label, the sheet permutation read on the oriented
    representative of the edge: crossing from the lexicographically smaller
    slot (t, a) into (u, b) carries sheet i to sheet perms[e][i].
    """
    base: IdealTriangulation
    total: IdealTriangulation
    degree: int
    perms: dict

    def lift_id(self, t, sheet):
        return t * self.degree + sheet

    def edge_lifts(self, e):
        """Cover edge labels over base edge e, indexed by the (t, a) sheet."""
        (t, a), _ = self.base.edges[e]
        return tuple(self.total.edge_label(self.lift_id(t, i), a)
                     for i in range(self.degree))


def build_cover(base, perms, preferred=None):
    """Assemble the cover of `base` given one sheet permutation per edge.

    `perms` is a dict mapping each edge label to a tuple listing sigma(0),
    sigma(1), ...; see CoverMap for the orientation convention.
    `preferred` selects the lift of the base preferred puncture by a cover
    corner; the default marks the sheet-0 lift of the base puncture's
    first corner.  Raises BaseMismatch for data that does not fit the base
    and Intransitive when the sheets do not form a single connected cover.
    """
    labels = sorted(base.edges)
    if sorted(perms) != labels:
        raise BaseMismatch("need one permutation per edge label of the base")
    table = {}
    degree = None
    for e in labels:
        sigma = tuple(int(x) for x in perms[e])
        if degree is None:
            degree = len(sigma)
        if len(sigma) != degree or sorted(sigma) != list(range(degree)):
            raise BaseMismatch("edge %d: not a permutation of 0..%d"
                               % (e, (degree or 1) - 1))
        table[e] = sigma
    if degree < 1:
        raise BaseMismatch("cover degree must be at least 1")

    glued = [None] * (3 * base.num_triangles * degree)
    for e, ((t, a), (u, b)) in base.edges.items():
        sigma = table[e]
        for i in range(degree):
            ct = t * degree + i
            cu = u * degree + sigma[i]
            glued[3 * ct + a] = (cu, b)
            glued[3 * cu + b] = (ct, a)

    if preferred is None:
        t0, k0 = base.punctures[base.preferred][0]
        preferred = (t0 * degree + 0, k0)
    # connectivity must be judged on the assembled cover, as the
    # triangulation's own check does: permutations that generate a
    # transitive group can still leave the cover disconnected
    try:
        total = IdealTriangulation(glued, name="%s_cover%d" % (base.name, degree),
                                   preferred=preferred)
    except Disconnected as exc:
        raise Intransitive("gluing permutations leave the cover in %d pieces"
                           % exc.pieces) from exc
    return CoverMap(base=base, total=total, degree=degree, perms=table)


def cover_to_text(cover):
    """The base surface's text, then the degree and one perm line per edge.

    The text reads back with build_cover's default preferred puncture, so
    a cover marked at another raises ValueError instead.
    """
    t0, k0 = cover.base.punctures[cover.base.preferred][0]
    default = cover.total.puncture_of((cover.lift_id(t0, 0), k0))
    if cover.total.preferred != default:
        raise ValueError("the cover format cannot mark puncture p%d preferred; "
                         "it reads back with p%d" % (cover.total.preferred, default))
    lines = [cover.base.to_text().rstrip("\n")]
    lines.append("cover degree %d" % cover.degree)
    for e in sorted(cover.perms):
        lines.append("perm %d: %s" % (e, " ".join(str(x) for x in cover.perms[e])))
    return "\n".join(lines) + "\n"


def cover_from_text(text):
    base_lines = []
    perm_lines = []
    degree = None
    for ln, tok in _lines(text):
        if tok[0] == "cover":
            if degree is not None or len(tok) != 3 or tok[1] != "degree":
                raise BadSurfaceFile("line %d: bad cover line" % ln)
            try:
                degree = int(tok[2])
            except ValueError:
                raise BadSurfaceFile("line %d: bad cover degree" % ln)
        elif tok[0] == "perm":
            if degree is None or len(tok) < 3 or not tok[1].endswith(":"):
                raise BadSurfaceFile("line %d: bad perm line" % ln)
            try:
                e = int(tok[1][:-1])
                sigma = tuple(int(x) for x in tok[2:])
            except ValueError:
                raise BadSurfaceFile("line %d: bad perm entry" % ln)
            perm_lines.append((ln, e, sigma))
        else:
            if degree is not None:
                raise BadSurfaceFile("line %d: surface data after cover line" % ln)
            base_lines.append((ln, tok))
    if degree is None:
        raise BadSurfaceFile("missing cover line")
    base = IdealTriangulation._from_lines(base_lines)
    perms = {}
    for ln, e, sigma in perm_lines:
        if e in perms:
            raise BadSurfaceFile("line %d: edge %d repeated" % (ln, e))
        if len(sigma) != degree:
            raise BadSurfaceFile("line %d: permutation has %d entries, need %d"
                                 % (ln, len(sigma), degree))
        perms[e] = sigma
    return build_cover(base, perms)


def once_punctured_torus(name="s11"):
    """The two-triangle ideal triangulation of the once-punctured torus.

    In the plane model with triangle 0 spanning (0, u, u+v) and triangle 1
    spanning (0, u+v, v) for the standard lattice basis u, v, the edges come
    out labelled 0, 1, 2 in the directions u, v, u+v.
    """
    return IdealTriangulation.from_gluings(
        [((0, 0), (1, 1)), ((0, 1), (1, 2)), ((0, 2), (1, 0))], name=name)
