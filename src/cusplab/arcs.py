"""Essential arcs in normal coordinates and the arc complex metric.

An arc runs from the preferred puncture back to itself and is stored by its
normal position with respect to the base triangulation: `edge_weights` counts
transverse crossings with each edge and `corner_data` counts the strands
cutting off each triangle corner.  Inside a triangle a strand either cuts off
a corner (crossing the two sides at that vertex) or runs from a vertex to the
opposite side, so the weight of the side at slot s of triangle t splits as

    w(t, s) = corner(t, s) + corner(t, s+1) + vertex(t, s+2)

and the vertex counts are derived, never stored.  An arc isotopic onto an
edge has no transverse position at all; it is kept as a degenerate marker
(`along`) and its published weight vector is the unit indicator of that
edge.  The indicator is also the honest crossing vector of a different arc,
the one meeting that edge once and nothing else, so the marker, not the
vector, is what equality and serialization trust.

Coordinates move across a flip by matching strands through the flipped
quadrilateral P, Q, R, S: old diagonal Q-S, new diagonal P-R, sides A: P-Q,
B: Q-R, C: R-S, D: S-P.  Read from the Q end, the crossings of the old
diagonal list first the strands cutting off Q, then the strands into the
opposite vertex, then the strands cutting off S, on both sides at once; the
positional overlap of the two block decompositions classifies every crossing
strand, and `_flip_coords` rewrites each class.

Every coordinate map is a sequence of segments, each a few flips followed
by an edge renaming and a relabeling of triangles, and one loop,
`_transport`, carries coordinates through any such sequence.  A reverse
step is the one-flip segment that flips the new diagonal back and renames
and relabels the result onto the triangulation before the flip; chains of
reverse steps express the arcs found after a flip sequence back in base
coordinates.  A twist letter is its flip word closed onto the base, and
the inverse of a mapping class undoes each segment's closing and then
follows the reverse chain of its flips.

Distances are bidirectional breadth-first searches in the arc complex
restricted to arcs whose coordinate sum fits a budget: each round grows the
smaller of the two frontiers by a whole level, until a neighbour lands in
the other side's seen set.  Disjointness is symmetric, so when the capped
neighbour lists are too this is the one-sided distance; and every edge
either side follows is a disjoint pair within the budget, so the result is
always the length of a real path.  Neighbor enumeration is constructive:
flip the arc down onto an edge, then explore the triangulations that keep
that edge, collecting their puncture-to-puncture edges.  Truncation is
honest; a search that runs out of room raises Unreachable or BudgetExceeded
rather than reporting a number that might be too small.

The arcs that searches, slopes and `arcs_of` produce are interned while
they stay in the bounded cache `_arc_from_raw`: it holds one arc per sparse
raw coordinate key, so neighbour lists and `slope_arc` hand out the same
object for the same arc, set lookups in a search end on identity, and
each distinct arc is validated on its first construction.  An arc the
cache has evicted is built and validated again; the new object equals
the old one by `__eq__`, so results never depend on eviction.
"""

import operator
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import (BaseMismatch, BudgetExceeded, NotAnArc, PunctureMoved,
                     Unreachable)
from .farey import Slope
from .surface import (IdealTriangulation, Relabeling, find_relabelings,
                      once_punctured_torus)

__all__ = [
    "NormalArc", "MappingClass", "arcs_of", "intersection_number", "distance",
    "apply_mcg", "mapping_class", "iso_mapping_class", "lift_arc",
    "slope_arc", "arc_slope", "parse_arc", "arc_from_json",
]

# the base of twist words and slopes, built once for the base checks
_TORUS = once_punctured_torus()

# cache bounds: flips and reverse steps are keyed by (triangulation, edge),
# neighbour lists by (arc, budget) and arcs by their raw coordinates
_FLIP_CACHE_SIZE = 100000
_ARC_CACHE_SIZE = 200000


# ---- coordinate transport ----

def _flip_coords(record, w, c, par):
    """Transport sparse coordinates (w, c, par) across one recorded flip.

    Valid for any normal system of disjoint arcs, not just a single one;
    returns fresh dicts holding only nonzero entries.
    """
    e, f = record.edge, record.new_edge
    (t, a), (u, b) = record.old_slots
    lblA, lblB, lblC, lblD = (record.sides[x] for x in "ABCD")
    w2, c2, par2 = dict(w), dict(c), dict(par)
    w_e = w2.pop(e, 0)
    par_e = par2.pop(e, 0)
    cQt = c2.pop((t, a), 0)
    cSt = c2.pop((t, (a + 1) % 3), 0)
    cPt = c2.pop((t, (a + 2) % 3), 0)
    cSu = c2.pop((u, b), 0)
    cQu = c2.pop((u, (b + 1) % 3), 0)
    cRu = c2.pop((u, (b + 2) % 3), 0)
    vP = w_e - cQt - cSt
    vR = w_e - cQu - cSu
    vQt = w.get(lblD, 0) - cSt - cPt
    vSt = w.get(lblA, 0) - cPt - cQt
    vQu = w.get(lblC, 0) - cRu - cSu
    vSu = w.get(lblB, 0) - cQu - cRu
    if min(vP, vR, vQt, vSt, vQu, vSu) < 0:
        raise NotAnArc("matching equations fail on the flipped quadrilateral")

    # block decomposition of the old diagonal's crossings, from the Q end:
    # breakpoints (0, cQt, cQt+vP, w_e) against (0, cQu, cQu+vR, w_e); only
    # the corner blocks and the middle overlap are needed
    n00 = min(cQt, cQu)
    n22 = max(0, w_e - max(cQt + vP, cQu + vR))
    n02 = max(0, cQt - cQu - vR)
    n20 = max(0, cQu - cQt - vP)
    n11 = max(0, min(cQt + vP, cQu + vR) - max(cQt, cQu))

    # new triangles t' = (P, Q, R) and u' = (R, S, P); sides A, B at slots
    # (t, 0), (t, 1) and C, D at (u, 0), (u, 1); f at slot 2 of both
    new_c = {
        (t, 1): n00,               # A-to-B strands cut off Q
        (u, 1): n22,               # D-to-C strands cut off S
        (t, 0): n02 + cPt + vSt,   # corner P of t'
        (u, 2): n20 + cPt + vQt,   # corner P of u'
        (u, 0): n02 + cRu + vQu,   # corner R of u'
        (t, 2): n20 + cRu + vSu,   # corner R of t'
    }
    for k, v in new_c.items():
        if v:
            c2[k] = v
    wf = n02 + n20 + cPt + cRu + vQt + vSt + vQu + vSu + par_e
    if wf:
        w2[f] = wf
    if n11:
        par2[f] = n11              # P-to-R strands land on the new edge
    return w2, c2, par2


@dataclass(frozen=True, slots=True)
class _Segment:
    """Flips, then an edge renaming and a relabeling, as one coordinate map.

    Coordinates on the triangulation the flips start from go through
    `records` in order; the edge labels of the result are renamed by
    `ren`, which leaves the labels it does not name alone, and its corners
    are moved by `relab`.  A twist letter closes its flips onto the base,
    and a reverse step undoes one flip.  Segments compare by value, so
    mapping classes do too.
    """
    records: tuple
    ren: dict
    relab: Relabeling

    def __hash__(self):
        return hash((tuple(r.edge for r in self.records),
                     tuple(sorted(self.ren.items())), self.relab))


def _transport(w, c, par, segments):
    """Sparse coordinates (w, c, par) carried through segments in order."""
    for seg in segments:
        for rec in seg.records:
            w, c, par = _flip_coords(rec, w, c, par)
        ren, relab = seg.ren, seg.relab
        w = {ren.get(k, k): v for k, v in w.items()}
        par = {ren.get(k, k): v for k, v in par.items()}
        c = {relab.corner_image(t, k): v for (t, k), v in c.items()}
    return w, c, par


@lru_cache(maxsize=_FLIP_CACHE_SIZE)
def _flip_cached(tri, e):
    """tri.flip(e), memoized; searches revisit the same flips constantly."""
    return tri.flip(e)


@lru_cache(maxsize=_FLIP_CACHE_SIZE)
def _reverse_step(tri, e):
    """The one-flip segment undoing the flip of e in tri.

    Flipping the new diagonal back gives tri with its two triangles
    trading places and a fresh label where e was; the segment renames that
    label to e and relabels the triangles back.  Keyed on the triangulation
    before the flip, since a flip record holds dicts and cannot be hashed;
    the flip itself is deterministic.
    """
    flipped, record = _flip_cached(tri, e)
    _, rec2 = _flip_cached(flipped, record.new_edge)
    return _Segment((rec2,), {rec2.new_edge: e},
                    record.inverse_relabeling(flipped.num_triangles))


def _reverse_chain(base, flips):
    """(end triangulation, reverse steps back to base) of a flip word.

    The steps run last flip first, the order in which `_transport` must
    undo them to carry coordinates on the end triangulation to the base.
    """
    tri, chain = base, ()
    for e in flips:
        chain = (_reverse_step(tri, e),) + chain
        tri, _ = _flip_cached(tri, e)
    return tri, chain


def _edge_keys(base, flips):
    """(tri, chain, keys) of a flip word: the flipped triangulation, its
    reverse chain back to base, and each edge's raw base-coordinate key."""
    tri, chain = _reverse_chain(base, flips)
    return tri, chain, {g: _raw_key(*_transport({}, {}, {g: 1}, chain))
                        for g in tri.edge_labels}


# ---- strand tracing ----

def _trace(tri, w, c):
    """(chains, loops) of the strand system with coordinates (w, c).

    The crossings of slot s of triangle t sit at positions 0 .. W[s] - 1
    from the slot's tail; the gluing reverses direction, so position p
    reads W - 1 - p from the other side.  On slot s the first C[s]
    positions belong to strands cutting off corner s, which leave by slot
    s + 2 at W[s + 2] - 1 - p; the last C[s + 1] belong to strands cutting
    off corner s + 1, which leave by slot s + 1 at W[s] - 1 - p; the
    V[s + 2] = W[s] - C[s] - C[s + 1] in between run into vertex s + 2.
    Once every V >= 0 these blocks tile each slot, so every crossing meets
    two strand ends and a walk from a vertex strand ends at another one.

    A chain starts at each vertex strand (t, k, j) that no earlier chain
    ended on, in (t, k, j) order, and is (first corner, last corner, steps)
    with steps ("cross", edge label, leaving slot) and ("corner", (t, k))
    in walking order; the leaving slot drives sheet bookkeeping in a cover.
    `loops` is true when some crossing lies on no chain, that is on a
    closed curve.  Raises NotAnArc when a vertex count goes negative.
    """
    n = tri.num_triangles
    glued, labels = tri._glued, tri._edge_of_slot
    W = [[w.get(labels[3 * t + s], 0) for s in range(3)] for t in range(n)]
    C = [[c.get((t, k), 0) for k in range(3)] for t in range(n)]
    for t in range(n):
        (w0, w1, w2), (c0, c1, c2) = W[t], C[t]
        if w0 < c0 + c1 or w1 < c1 + c2 or w2 < c2 + c0:
            raise NotAnArc("matching equations fail at triangle %d" % t)
    ended = set()
    chains = []
    crossed = 0
    for t in range(n):
        Wt, Ct = W[t], C[t]
        for k in range(3):
            s0 = (k + 1) % 3
            for j in range(Wt[s0] - Ct[s0] - Ct[(k + 2) % 3]):
                if (t, k, j) in ended:
                    continue
                u, s, p = t, s0, Ct[s0] + j
                steps = []
                while True:
                    steps.append(("cross", labels[3 * u + s], (u, s)))
                    u, s = glued[3 * u + s]
                    Wu, Cu = W[u], C[u]
                    p = Wu[s] - 1 - p
                    if p < Cu[s]:
                        steps.append(("corner", (u, s)))
                        s = (s + 2) % 3
                        p = Wu[s] - 1 - p
                    elif p >= Wu[s] - Cu[(s + 1) % 3]:
                        p = Wu[s] - 1 - p
                        s = (s + 1) % 3
                        steps.append(("corner", (u, s)))
                    else:
                        end = (u, (s + 2) % 3)
                        ended.add((u, end[1], p - Cu[s]))
                        break
                # crossings and corners alternate, crossings at both ends
                crossed += (len(steps) + 1) // 2
                chains.append(((t, k), end, steps))
    return chains, crossed < sum(w.values())


# ---- the arc itself ----

class NormalArc:
    """An essential arc from the preferred puncture back to itself.

    Build one from published coordinate vectors, from a degenerate `along`
    edge label, or through the module constructors.  Construction validates
    everything: matching equations, connectedness, no closed components,
    and both endpoints at the preferred puncture.

    Arcs never change, so the identity key is built once, at construction:
    (coord_sum, edge_weights, corner_data, along or -1).  It determines the
    arc on its base, so it drives equality and hashing, and it is also the
    sort key that orders neighbour lists and lifts deterministically.
    """

    __slots__ = ("base", "along", "coord_sum", "_w", "_c", "_key", "_hash")

    def __init__(self, base, edge_weights=None, corner_data=None, along=None):
        if along is not None:
            if edge_weights is not None or corner_data is not None:
                raise NotAnArc("give either vectors or a degenerate edge")
            if not hasattr(along, "__index__") or along not in base.edges:
                raise NotAnArc("no edge labelled %r" % (along,))
            self._init_from(base, {}, {}, {operator.index(along): 1})
            return
        w, c = _vector_dicts(base, edge_weights, corner_data)
        # a unit indicator with no corner data is the published form of the
        # degenerate arc running along that edge; any negative entry fails
        # _vector_dicts first
        if not c and list(w.values()) == [1]:
            self._init_from(base, {}, {}, w)
        else:
            self._init_from(base, w, c, {})

    @classmethod
    def _make(cls, base, w, c, par):
        """Internal: from sparse dicts carrying true crossing semantics.

        Like every caller of _init_from, it passes positive integers on the
        base's own edge labels and corners, which are not checked again.
        """
        self = cls.__new__(cls)
        self._init_from(base, w, c, par)
        return self

    def _init_from(self, base, w, c, par):
        if par:
            if w or c or sorted(par.values()) != [1]:
                raise NotAnArc("a degenerate arc is one edge and nothing else")
            (e,) = par
            tail, head = base.edge_punctures(e)
            if not (tail == base.preferred == head):
                raise NotAnArc("edge %r does not run from the preferred "
                               "puncture to itself" % (e,))
            along = e
        else:
            if not w and not c:
                raise NotAnArc("empty coordinates describe no arc")
            chains, loops = _trace(base, w, c)
            if loops:
                raise NotAnArc("coordinates contain a closed curve")
            if len(chains) != 1:
                raise NotAnArc("coordinates describe %d arcs, not one"
                               % len(chains))
            for corner in chains[0][:2]:
                pk = base.puncture_of(corner)
                if pk != base.preferred:
                    raise NotAnArc("endpoint at puncture %d, not the "
                                   "preferred %d" % (pk, base.preferred))
            along = None
        labels = base.edge_labels
        if along is None:
            wv = tuple(w.get(e, 0) for e in labels)
        else:
            wv = tuple(int(e == along) for e in labels)
        cv = tuple(c.get((t, k), 0)
                   for t in range(base.num_triangles) for k in range(3))
        self.base = base
        self.along = along
        self.coord_sum = sum(wv) + sum(cv)
        self._w = w
        self._c = c
        self._key = (self.coord_sum, wv, cv, -1 if along is None else along)
        self._hash = hash((self._key, base))

    # -- published coordinates --

    @property
    def edge_weights(self):
        return self._key[1]

    @property
    def corner_data(self):
        return self._key[2]

    def _dicts(self):
        if self.along is not None:
            return {}, {}, {self.along: 1}
        return dict(self._w), dict(self._c), {}

    def _sort_key(self):
        return self._key

    # -- identity --

    def __eq__(self, other):
        return (isinstance(other, NormalArc) and self._key == other._key
                and self.base == other.base)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.along is not None:
            return "<NormalArc along edge %r of %s>" % (self.along,
                                                        self.base.name)
        return "<NormalArc %s;%s on %s>" % (
            ",".join(map(str, self.edge_weights)),
            ",".join(map(str, self.corner_data)), self.base.name)

    # -- text and JSON forms --

    def literal(self):
        return "arc %s;%s" % (",".join(map(str, self.edge_weights)),
                              ",".join(map(str, self.corner_data)))

    def to_json(self):
        return {"edge_weights": list(self.edge_weights),
                "corner_data": list(self.corner_data),
                "along": self.along}


def _vector_dicts(base, edge_weights, corner_data):
    """Sparse (w, c) of published vectors, the one reading of them.

    Entries are read through operator.index, so numpy integers pass and
    floats do not.  Raises NotAnArc unless each vector is a sequence of
    nonnegative integers, with one weight per edge label and one entry
    per triangle corner.
    """
    labels = base.edge_labels
    wv, cv = (_entries(v, name) for v, name in
              ((edge_weights, "edge weights"), (corner_data, "corner data")))
    if len(wv) != len(labels):
        raise NotAnArc("need %d edge weights" % len(labels))
    if len(cv) != 3 * base.num_triangles:
        raise NotAnArc("need %d corner entries" % (3 * base.num_triangles))
    if min(wv + cv) < 0:
        raise NotAnArc("coordinates must be nonnegative")
    return ({e: x for e, x in zip(labels, wv) if x},
            {divmod(i, 3): x for i, x in enumerate(cv) if x})


def _entries(vector, name):
    # the entries of one published vector as ints; None reads as empty
    try:
        entries = iter(() if vector is None else vector)
    except TypeError:
        raise NotAnArc("%s must be a sequence" % name)
    try:
        return [operator.index(x) for x in entries]
    except TypeError:
        raise NotAnArc("coordinates must be integers")


def arc_from_json(base, obj):
    """Inverse of to_json; faithful, since "along" is carried explicitly.

    Raises NotAnArc unless obj is an object with an "along" edge or both
    vectors.
    """
    if not isinstance(obj, dict):
        raise NotAnArc("an arc's JSON is an object, got %r" % (obj,))
    if obj.get("along") is not None:
        return NormalArc(base, along=obj["along"])
    for key in ("edge_weights", "corner_data"):
        if key not in obj:
            raise NotAnArc("arc JSON has no %r" % key)
    return NormalArc._make(base, *_vector_dicts(base, obj["edge_weights"],
                                                obj["corner_data"]), {})


def parse_arc(base, text):
    """Arc from `arc w0,..;c0,..` or, on the standard torus, `slope p/q`.

    A unit indicator weight vector with zero corner data reads as the arc
    lying along that edge; the arc crossing one edge transversely once has
    the same published vector and is reached through its slope instead.
    """
    tok = text.strip().split(None, 1)
    if len(tok) != 2:
        raise NotAnArc("expected 'arc ...' or 'slope ...', got %r" % (text,))
    kind, body = tok[0], tok[1].strip()
    if kind == "slope":
        try:
            s = Slope.parse(body)
        except ValueError:
            raise NotAnArc("bad slope in arc literal %r" % (text,))
        return slope_arc(base, s)
    if kind != "arc":
        raise NotAnArc("unknown arc literal %r" % (text,))
    parts = body.split(";")
    if len(parts) != 2:
        raise NotAnArc("arc literal needs 'weights;corners'")
    try:
        wv = [int(x) for x in parts[0].split(",") if x.strip()]
        cv = [int(x) for x in parts[1].split(",") if x.strip()]
    except ValueError:
        raise NotAnArc("arc literal entries must be integers")
    return NormalArc(base, edge_weights=wv, corner_data=cv)


# ---- arcs carried by a flip word ----

def arcs_of(base, flips=()):
    """Puncture-to-puncture edges of the flipped surface, in base coordinates.

    With no flips these are the base edges at the preferred puncture, each a
    degenerate arc.  Edges with an endpoint at another puncture are not
    vertices of the arc complex and are left out.  The arcs are interned
    through `_arc_from_raw`.
    """
    tri, _, keys = _edge_keys(base, flips)
    return [_arc_from_raw(base, keys[g]) for g in tri.edge_labels
            if tri.edge_punctures(g) == (tri.preferred, tri.preferred)]


# ---- reduction to an edge, intersections, neighbors, distance ----

def _reduce(a):
    """Flip until `a` lies along an edge; returns (flip records, edge).

    Greedy choice of the flip minimizing the transported crossing total,
    tolerating plateaus but never revisiting a state, so the walk either
    reaches an edge or raises BudgetExceeded honestly.  The flips go
    through `_flip_cached`, so a reverse chain of the word finds them.
    """
    if a.along is not None:
        return (), a.along
    w, c, par = a._dicts()
    tri = a.base
    records = []
    cap = 6 * sum(w.values()) + 24
    seen = set()
    while not par:
        if len(records) >= cap:
            raise BudgetExceeded("reduction to an edge still running after "
                                 "%d flips" % len(records))
        seen.add((tuple(sorted(w.items())), tuple(sorted(c.items()))))
        total = sum(w.values())
        best = None
        for e in sorted(w):
            (t, _), (u, _) = tri.edges[e]
            if t == u:
                continue
            nxt, rec = _flip_cached(tri, e)
            w2, c2, par2 = _flip_coords(rec, w, c, par)
            total2 = sum(w2.values())
            if total2 > total:
                continue
            key2 = (tuple(sorted(w2.items())), tuple(sorted(c2.items())))
            if total2 == total and key2 in seen:
                continue
            cand = (total2, e, nxt, rec, w2, c2, par2)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None:
            raise BudgetExceeded("no weight-reducing flip from %r" % (a,))
        _, _, tri, rec, w, c, par = best
        records.append(rec)
    (e_star,) = par
    return tuple(records), e_star


def intersection_number(a, b):
    """Geometric intersection number of two arc classes on one base.

    Flips carry `a` onto an edge of some triangulation; `b` is in normal
    position there, minimal with respect to every edge at once, so its
    crossing weight on that edge is the minimal crossing count with `a`.
    Zero exactly when the classes coincide or span an edge of the complex.
    """
    if not isinstance(a, NormalArc) or not isinstance(b, NormalArc):
        raise BaseMismatch("intersection_number wants two NormalArcs")
    if a.base != b.base:
        raise BaseMismatch("arcs live on different triangulations")
    if a == b:
        return 0
    records, e_star = _reduce(a)
    w, c, par = b._dicts()
    for rec in records:
        w, c, par = _flip_coords(rec, w, c, par)
    if par:
        # b lies along an edge of the reduced triangulation, missing a
        return 0
    return w.get(e_star, 0)


def _raw_key(w, c, par):
    return (tuple(sorted(w.items())), tuple(sorted(c.items())),
            tuple(sorted(par.items())))


def _key_size(key):
    return sum(v for part in key for _, v in part)


@lru_cache(maxsize=_ARC_CACHE_SIZE)
def _arc_from_raw(base, key):
    """The arc with raw coordinates `key`, as `_raw_key` builds them.

    The interning point: every caller passes only nonzero entries, so one
    arc has one key, and one object for as long as the bounded cache keeps
    it, validated when it is built.
    """
    w, c, par = (dict(part) for part in key)
    return NormalArc._make(base, w, c, par)


@lru_cache(maxsize=_ARC_CACHE_SIZE)
def _neighbors(a, budget):
    """Arcs disjoint from `a` with coordinate sum at most `budget`.

    Every arc disjoint from `a` shows up as an edge of some triangulation
    having `a` itself as an edge, and those triangulations are connected to
    each other by flips that avoid that edge.  Flips whose new diagonal
    already exceeds the budget are pruned, so the enumeration can only miss
    far-away arcs and distances built on it never come out too small.

    Each search state keeps the raw base-coordinate key of all its edges,
    so a flip only has to pull back the one fresh diagonal: the flipped copy
    of an edge e runs along the new edge, and one step back that is a single
    crossing of e, so its base coords are _transport({e: 1}, {}, {}, chain)
    over the state's chain of reverse steps.  Results, the flips and reverse
    steps they use and the arcs they build are held in bounded LRU caches,
    since distance searches ask for the same neighbourhoods again and again.
    """
    records, e_star = _reduce(a)
    base = a.base
    tri0, chain0, keys0 = _edge_keys(base, [rec.edge for rec in records])
    seen = {frozenset(keys0.values())}
    queue = deque([(tri0, keys0, chain0)])
    out = set()
    while queue:
        tri, keys, chain = queue.popleft()
        for g in tri.edge_labels:
            if g == e_star:
                continue
            tail, head = tri.edge_punctures(g)
            if not (tail == tri.preferred == head):
                continue
            if _key_size(keys[g]) > budget:
                continue
            arc = _arc_from_raw(base, keys[g])
            if arc != a:
                out.add(arc)
        for g in tri.edge_labels:
            if g == e_star:
                continue
            (t, _), (u, _) = tri.edges[g]
            if t == u:
                continue
            fkey = _raw_key(*_transport({g: 1}, {}, {}, chain))
            if _key_size(fkey) > budget:
                continue
            skey = frozenset(v for h, v in keys.items() if h != g) | {fkey}
            if skey in seen:
                continue
            seen.add(skey)
            nxt, rec = _flip_cached(tri, g)
            ckeys = dict(keys)
            del ckeys[g]
            ckeys[rec.new_edge] = fkey
            queue.append((nxt, ckeys, (_reverse_step(tri, g),) + chain))
    return tuple(sorted(out, key=NormalArc._sort_key))


def distance(a, b, budget=64):
    """Length of a shortest path from a to b in the budget-capped complex.

    A level-synchronous bidirectional breadth-first search: one seen set
    and one frontier grow from each end, and each round expands the
    smaller frontier by a whole level.  After the rounds so far the seen
    sets are the balls of radii i and j about a and b, with i + j = r - 1,
    and they are disjoint, or an earlier round would have returned.  Round
    r returns r as soon as a neighbour of the expanded frontier lies in
    the other side's seen set.

    When `_neighbors` is symmetric this is exactly the forward distance.
    Take a shortest path of length d and its vertex x i steps from a, so x
    lies in a's ball.  Were d < r, x would lie within d - i <= j of b, in
    b's ball too, which cannot be; so d >= r.  When d = r and round r
    expands a's side (the other case is its mirror), x is on a's frontier
    and its successor on the path is j steps from b, so round r finds it.
    Even if the capped relation were not symmetric, every edge either side
    follows joins two disjoint arcs within the budget, so the number
    returned is the length of a real path and can never be smaller than
    the true distance.

    Raises BudgetExceeded when an input itself exceeds the budget and
    Unreachable when either side exhausts the capped complex without
    meeting the other; truncation never reports a smaller number.
    """
    if a.base != b.base:
        raise BaseMismatch("arcs live on different triangulations")
    if a.coord_sum > budget or b.coord_sum > budget:
        raise BudgetExceeded("arc coordinates exceed the budget %d" % budget)
    if a == b:
        return 0
    near, far = {a}, {b}
    near_front, far_front = [a], [b]
    r = 0
    while near_front and far_front:
        r += 1
        if len(far_front) < len(near_front):
            near, far = far, near
            near_front, far_front = far_front, near_front
        nxt = []
        for v in near_front:
            for nb in _neighbors(v, budget):
                if nb in far:
                    return r
                if nb not in near:
                    near.add(nb)
                    nxt.append(nb)
        near_front = nxt
    raise Unreachable("the capped complex around one end (budget %d) "
                      "does not reach the other" % budget)


# ---- mapping classes ----

def _rename_edges(tri, ren):
    """tri with edge labels renamed by `ren`, its slots left in place."""
    return tri._remapped(lambda t, s: (t, s), tri.punctures[tri.preferred][0],
                         ren)


def _close_segment(base, flips, ren):
    """The segment of a flip word closed onto the base by an edge renaming.

    Its relabeling is the first that carries the renamed end triangulation
    onto the base, edge labels and preferred puncture alike.
    """
    tri, records = base, []
    for e in flips:
        tri, rec = _flip_cached(tri, e)
        records.append(rec)
    cands = find_relabelings(_rename_edges(tri, ren), base,
                             match_labels=True, match_preferred=True)
    if not cands:
        raise ValueError("flip word does not close up onto the base")
    return _Segment(tuple(records), ren, cands[0])


# flip word and closing edge renaming realizing each standard torus twist; each
# segment acts on slopes exactly as the matching Farey matrix
_LETTER_DATA = {
    "R": ((2,), ((0, 2), (1, 1), (3, 0))),
    "L": ((2,), ((0, 0), (1, 2), (3, 1))),
}


@lru_cache(maxsize=None)
def _letter_segment(letter):
    flips, ren = _LETTER_DATA[letter]
    return _close_segment(_TORUS, flips, dict(ren))


@dataclass(frozen=True)
class MappingClass:
    """A homeomorphism up to isotopy, as flip words closed by isomorphisms.

    `segments` apply left to right; `fixes_p` records whether the preferred
    puncture returns to itself, which acting on A(F, p) requires.
    """
    base: IdealTriangulation
    segments: tuple
    word: str
    fixes_p: bool

    def __mul__(self, other):
        """self after other, matching matrix products of twist words."""
        if not isinstance(other, MappingClass):
            return NotImplemented
        if self.base != other.base:
            raise BaseMismatch("mapping classes on different triangulations")
        return MappingClass(self.base, other.segments + self.segments,
                            self.word + other.word,
                            self.fixes_p and other.fixes_p)

    def inverse(self):
        """The class undoing this one, segment by segment from the last.

        A segment's closing is undone by its inverse renaming and
        relabeling, and its flips by their reverse chain from the
        triangulation they start at.  The walk tracks that triangulation,
        so the segments of an inverse invert again.
        """
        segs = []
        tri = self.base
        for seg in self.segments:
            end, chain = _reverse_chain(tri, [rec.edge for rec in seg.records])
            undo = _Segment((), {g: e for e, g in seg.ren.items()},
                            seg.relab.inverse())
            segs[:0] = (undo,) + chain
            tri = seg.relab.apply(_rename_edges(end, seg.ren))
        return MappingClass(self.base, tuple(segs), "(" + self.word + ")^-1",
                            self.fixes_p)

    def __repr__(self):
        return "<MappingClass %s on %s>" % (self.word or "1", self.base.name)


def mapping_class(base, word):
    """The mapping class of an R/L twist word on the standard torus.

    Letters act like their Farey matrices: the rightmost letter applies
    first, so the induced action on slopes is multiplication by the word's
    matrix product.
    """
    if base != _TORUS:
        raise BaseMismatch("twist words are defined on the standard torus "
                           "triangulation")
    for ch in word:
        if ch not in ("R", "L"):
            raise ValueError("letters must be R or L, got %r" % (ch,))
    segs = tuple(_letter_segment(ch) for ch in reversed(word))
    return MappingClass(base, segs, word, True)


def iso_mapping_class(base, relab, word="iso"):
    """The mapping class of a combinatorial automorphism of the base.

    Each edge is renamed to the base label at its image; the automorphism
    carries glued slots to glued slots, so that renaming restores the
    base's labels.
    """
    n = base.num_triangles
    if len(relab.perm) != n:
        raise BaseMismatch("relabeling is not a permutation of the %d base "
                           "triangles" % n)
    if not relab.is_automorphism(base):
        raise BaseMismatch("relabeling is not an automorphism of the base")
    t0, k0 = base.punctures[base.preferred][0]
    fixes_p = base.puncture_of(relab.corner_image(t0, k0)) == base.preferred
    return MappingClass(base, (_Segment((), relab.edge_map(base), relab),),
                        word, fixes_p)


def apply_mcg(phi, a):
    """The image of the arc under the mapping class, in base coordinates."""
    if phi.base != a.base:
        raise BaseMismatch("arc and mapping class on different bases")
    if not phi.fixes_p:
        raise PunctureMoved("the mapping class moves the preferred puncture, "
                            "so images leave A(F, p)")
    w, c, par = _transport(*a._dicts(), phi.segments)
    return NormalArc._make(phi.base, w, c, par)


# ---- lifting to covers ----

def lift_arc(cover, a):
    """All lifts of the arc to the cover, in cover coordinates.

    One lift per sheet of the starting endpoint; crossing a base edge moves
    between sheets by the cover's gluing permutation for that edge.  For an
    n-fold once-punctured cover this yields n pairwise disjoint arcs.
    """
    if a.base != cover.base:
        raise BaseMismatch("arc does not live on the cover's base")
    if a.along is not None:
        return sorted((NormalArc._make(cover.total, {}, {}, {lbl: 1})
                       for lbl in cover.edge_lifts(a.along)),
                      key=NormalArc._sort_key)
    base = cover.base
    w, c, _ = a._dicts()
    chains, _ = _trace(base, w, c)
    _, _, steps = chains[0]
    out = []
    for sheet0 in range(cover.degree):
        wc = {}
        cc = {}
        sheet = sheet0
        for step in steps:
            if step[0] == "corner":
                t, k = step[1]
                key = (cover.lift_id(t, sheet), k)
                cc[key] = cc.get(key, 0) + 1
                continue
            _, e, slot = step
            smaller, _ = base.edges[e]
            sigma = cover.perms[e]
            if slot == smaller:
                lbl = cover.edge_lifts(e)[sheet]
                sheet = sigma[sheet]
            else:
                sheet = sigma.index(sheet)
                lbl = cover.edge_lifts(e)[sheet]
            wc[lbl] = wc.get(lbl, 0) + 1
        out.append(NormalArc._make(cover.total, wc, cc, {}))
    return sorted(out, key=NormalArc._sort_key)


# ---- slopes on the standard torus ----

_SLOPE_OF_EDGE = (Slope(0, 1), Slope(1, 0), Slope(1, 1))
_EDGE_OF_SLOPE = {s: e for e, s in enumerate(_SLOPE_OF_EDGE)}
# vertex strands (t, k) in the order 3t + k, by endpoint class of the slope:
# p > q, 0 < p < q, p < 0
_ENDPOINTS = ((0, 0, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 1))


def slope_arc(base, s):
    """The arc of a slope on the standard once-punctured torus.

    Edges 0, 1, 2 run in the lattice directions u, v, u + v and carry the
    slopes 0/1, 1/0, 1/1, which give degenerate arcs along those edges.
    Any other slope p/q is the straight segment from the origin in
    direction q u + p v.  Strictly inside, it crosses the horizontals
    (copies of edge 0) |p| - 1 times, the verticals (edge 1) q - 1 times
    and the diagonals (edge 2) |p - q| - 1 times, so

        w = (|p| - 1, q - 1, |p - q| - 1).

    Its first and last strands run from a lattice point to the far side of
    the triangle the segment starts or ends in, and which corners those are
    depends only on the sign class of the slope.  The vertex strands
    V(t, k) over triangles 0 and 1 are

        p > q:       V = (0, 0, 1, 1, 0, 0)
        0 < p < q:   V = (1, 0, 0, 0, 1, 0)
        p < 0:       V = (0, 1, 0, 0, 0, 1).

    The matching equations w(t, s) = C(t, s) + C(t, s+1) + V(t, s+2) then
    fix the corners: with R_s = w(t, s) - V(t, s+2) in triangle t,

        C(t, s) = (R_s - R_{s+1} + R_{s+2}) / 2,

    an integer since R_0 + R_1 + R_2 = |p| + q + |p - q| - 4 is even.

    The arc comes from the interning cache `_arc_from_raw`, under the same
    raw key of nonzero entries that `_neighbors` builds, so while the
    bounded cache keeps it a slope's arc is one object wherever it turns
    up: repeated calls and neighbour lists share it.  It is validated like
    any other arc when the cache builds it.
    """
    if base != _TORUS:
        raise BaseMismatch("slopes live on the standard torus triangulation")
    if not isinstance(s, Slope):
        s = Slope.parse(str(s))
    if s in _EDGE_OF_SLOPE:
        return _arc_from_raw(base, _raw_key({}, {}, {_EDGE_OF_SLOPE[s]: 1}))
    p, q = s.p, s.q
    weights = (abs(p) - 1, q - 1, abs(p - q) - 1)
    ends = _ENDPOINTS[0 if p > q else 1 if p > 0 else 2]
    w = {e: x for e, x in enumerate(weights) if x}
    c = {}
    for t in (0, 1):
        R = [weights[base.edge_label(t, k)] - ends[3 * t + (k + 2) % 3]
             for k in range(3)]
        for k in range(3):
            x = (R[k] - R[(k + 1) % 3] + R[(k + 2) % 3]) // 2
            if x:
                c[(t, k)] = x
    return _arc_from_raw(base, _raw_key(w, c, {}))


def arc_slope(a):
    """The slope of an arc on the standard once-punctured torus."""
    if a.base != _TORUS:
        raise BaseMismatch("slopes live on the standard torus triangulation")
    if a.along is not None:
        return _SLOPE_OF_EDGE[a.along]
    w0, w1, w2 = a.edge_weights
    q = w1 + 1
    p_abs = w0 + 1
    if abs(q - p_abs) == w2 + 1:
        return Slope(p_abs, q)
    if q + p_abs == w2 + 1:
        return Slope(-p_abs, q)
    raise NotAnArc("weights %r are not a slope triple" % (a.edge_weights,))
