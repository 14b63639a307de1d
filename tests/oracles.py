"""Slow independent oracles shared by several test modules.

These deliberately avoid the package's own algorithms: Farey distances come
from breadth-first search over an explicit adjacency matrix, intersection
numbers from counting lattice-line crossings.  Boxes are finite, so oracle
distances can only overestimate; the tests that compare against them treat
any disagreement as a failure and the box sizes carry enough margin that
none occurs.

Two oracles are the searches that the package's exact computations
replaced: the box search for translation distances and the breadth-first
horoball development for the maximal cusp.  They share the package's
Farey distance and reference cusp cut, which other tests check on their
own, and nothing of the min-plus matrix or the edge formula.

The ladder is the translation distance before it read the 2x2 min-plus
matrix: the minimum of d(v, m^n v) over the vertices of one period of the
strip of Farey triangles that the positive word of the monodromy lays
down, one Farey distance per vertex and power.  It shares the package's
positive frame and Farey distance, and nothing of the min-plus matrix.

The edge products are maximal_cusp before it took one product per edge
class: the twelve sides of each tetrahedron's cusp triangles multiplied
face by face, 12n products grouped by edge class, whose largest gives the
area.  The pairwise edge formula is older still: for every edge and every
third vertex it reads the two sides afresh.  Both share the package's
reference cut and development; the pairwise formula checks the
face-by-face bookkeeping to the last bit, and the products check that
one product per class loses no more than rounding.

The birth-order fill is a symbolic elimination of the sparsity pattern
of the angle step's E Q E^T, rows in birth order; the package's LDL^T
must add exactly its fill.

The rotation corpus is cusplab.cli.corpus before it generated necklaces:
every word of each length is canonicalised by all its rotations and those
of its letter swap.  It shares nothing with the necklace generator.

The rooted cusp graph is the cusp development before it climbed the four
letter columns: a breadth-first search over the 4n cusp triangles from
any root corner, through the plane triangulation's gluings and degrees,
with a parent and winding per triangle and every non-tree side kept with
its winding; each triangle is placed in dicts off its tree parent, and
the lattice is read at the root's cut.  It shares the package's face, cycle
and pair tables and nothing of the column tables or the flat positions.

The gcd basis is the cusp lattice before it was read off its two named
loops: integer row reduction on the windings of all non-tree loops of the
cusp graph, then a floating-point Euclid over the translations of winding
zero.  It runs on the rooted cusp graph's loops or on the package's
unplaced sides (unplaced_loops); the package's developed triangles must
also add up to the area of that lattice (developed_area).

The plane triangulation is layered_triangulation before its letter
tables: every tetrahedron is placed in the plane, faces are matched as
lattice triangles up to translation, the last layer is unwound by the
inverse monodromy, and a union-find merges the 6n tetrahedron edges.  It
shares the package's face table and nothing of the stacking or the edge
slots.  A package triangulation is only its word, so the face gluings,
windings and edge classes that the searches above read come from here,
and the birth-order classes from the slot walk (slot_walk_edge_classes),
whose partition must equal the plane's.  The sparse edge rows are
GluingSystem's edge rows before the slot walk wrote them: each edge class
summed member by member, repeats added up.

The developed residual and its Newton loop are the shape solve before the
completeness row became a precomputed monomial: each residual develops the
cusp torus and takes the principal log of the completeness ratio, and each
Jacobian column is its own residual call.  They develop on the rooted
cusp graph.

The replayed monomial is the completeness row before it was read off the
word: the rooted cusp graph's development replayed on signed monomials
(-1)^s prod z^a (1 - z)^b along its tree, for its completeness loop or
any other loop that closes a non-tree side.  It shares nothing of the
letter row, which it is checked against on integer exponents.  The
column development is the loop the letter row is the derivative of,
developed triangle by triangle up the stack; it shares the package's
tables.

The least-squares solve is the shape solve before it left numpy, and
before the volume maximum replaced its start at z = i: the residual is one
array expression, logs times a dense column matrix with the completeness
imaginary part wrapped, the n Jacobian columns are one vectorised
evaluation at z + h*I, and each step is ``numpy.linalg.lstsq`` on the full
system, every edge row kept.  Its completeness row is the replayed
monomial.  It shares the package's edge rows and nothing of its
evaluation, elimination or angle structures.

The angle-basis solve is the volume maximum before its angle steps went
through the edge rows: Gauss-Jordan elimination of the edge rows but the
last gives the angle space as an offset plus a dense basis of n + 1
columns, and each Newton step solves the Gram system of that basis.  It
shares the package's residual, Jacobian, elimination and line-search
helpers, and nothing of the edge-row step.

The slope walk is the torus slope parser before the closed form: the
straight segment of a slope is walked through the triangulated plane with
exact rational arithmetic, counting its crossings with the three line
families and the triangle corner cut off between consecutive crossings.
It shares only the package's arc constructor, which validates the result.

The strand walkers are arc validation and lifting before one tracer
served both: every strand is built as a segment between two crossing
points named by (edge, index), the segments are joined through a point
adjacency map, and chains and loops are read off that graph.  They share
nothing with cusplab.arcs._trace but the triangulation's slot tables.

The spence Lobachevsky function is the package's volume integrand before
the Clausen series: Lambda(theta) = Im Li2(e^(2 i theta)) / 2 through
``scipy.special.spence``, which the package no longer imports.

The forward distance is arc-complex distance before the search grew from
both ends: one breadth-first search from the source over the package's
capped neighbour lists, level by level in sorted order.  It shares the
neighbour lists and nothing of the bidirectional search.

The union-find punctures and pieces are the triangulation's punctures
and connectivity before the corner walk: every edge merges the two pairs
of corners it identifies, and every gluing merges its two triangles.
They share nothing with cusplab.surface but the slot and edge tables.

The scalar lemma checks are lemma-suite before its draws were read from
raw PCG64 words: every draw is its own ``Generator.integers`` or
``Generator.uniform`` call on ``default_rng(seed)``.  They share the
package's geometry and tolerances, and nothing of its draw source.

The slot-walk edge classes are layered_triangulation's edge classes
before they became a property read on first use: built for every
triangulation from the package's slot walk.  The plane triangulation
checks them independently.

The csv-writer report is the verify-thm14 CSV before one format wrote
each row: every row goes through ``csv.writer``, its margins sorted
report by report.  It shares the package's provenance lines and nothing
of its row format.

The dict builders are flips, mirror images and relabelings before one
slot map built them all: each fills a slot-keyed dict of gluings and one
of labels, the flip side by side with the new diagonal glued by hand, and
reads both back in slot order.  The propagating relabeling search is
find_relabelings before it compared flag walks: from each of the 3T seed
flags it propagates a relabeling across the gluings, then builds the
image of every candidate and compares its slot and label tables.  They
share the package's validating constructor and the Relabeling slot and
corner maps, and nothing of its slot map or flag walk.

The closed forms at the end are cusplab.geometry formulas that no
computation in the package reads: the drift bound of a geodesic
re-entering a cusp, the shadow radius of a deep point and the disk-packing
area.  They are kept here with their tests, as stated, for a later
computation to read.
"""

import cmath
import csv
import io
import itertools
import math
from collections import deque, namedtuple
from fractions import Fraction
from math import gcd, pi, sqrt

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from cusplab import geometry
from cusplab.arcs import NormalArc, _neighbors
from cusplab.bundle import (_CYC, _FACE, _MAX_STEPS, _PAIR, CuspCrossSection,
                            _eliminate, _failure, _rise, ShapeVector,
                            _cross_section, _slot_walk, cusp_cross_section)
from cusplab.cli import (CONE_TOL, SCHEMA, TANGENT_TOL, _json_text,
                         _versions)
from cusplab.errors import (BudgetExceeded, DegenerateShape, DepthUnstable,
                            Diverged, MaxIterations, NonNegativeChi,
                            NotAnArc, NotFlippable, NotPseudoAnosov,
                            NumericalError, OverlappingHoroballs,
                            Unreachable)
from cusplab.farey import (Slope, _distance_pq, _positive_frame, act,
                           distance, word_to_matrix)
from cusplab.geometry import TANGENT_MIN
from cusplab.surface import (_REFLECT, FlipRecord, IdealTriangulation,
                             Relabeling)


def farey_box_vertices(bound):
    """All canonical slope pairs (p, q) with |p|, q <= bound, plus 1/0."""
    verts = [(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(p, q) == 1:
                verts.append((p, q))
    return verts


def farey_bfs(bound, sources):
    """BFS distances in the Farey graph restricted to a box.

    Returns (index, dist) where index maps a vertex pair to its column and
    dist[i] is the row of distances from sources[i].  Entries are inf for
    vertices unreachable inside the box.
    """
    verts = farey_box_vertices(bound)
    index = {v: i for i, v in enumerate(verts)}
    p = np.array([v[0] for v in verts], dtype=np.int64)
    q = np.array([v[1] for v in verts], dtype=np.int64)
    det = np.abs(np.outer(p, q) - np.outer(q, p))
    adj = sparse.csr_matrix(det == 1)
    rows = shortest_path(adj, method="D", unweighted=True,
                         indices=[index[s] for s in sources])
    return index, rows


def segment_crossings(p0, q0, p1, q1):
    """Lattice-geometry intersection count for two slopes on the torus.

    Straight representatives of distinct slopes p0/q0 and p1/q1 through the
    puncture lattice cross |p0 q1 - q0 p1| times per fundamental domain;
    one of those crossings is the shared endpoint at the puncture, so the
    interior count is |det| - 1.
    """
    det = abs(p0 * q1 - q0 * p1)
    if det == 0:
        return 0
    return det - 1


def horoball_gap_numeric(span, d1, d2):
    """Signed gap between horoballs by direct geodesic integration.

    Both horoballs rest on the boundary of the half-plane, centers a
    euclidean distance `span` apart with diameters d1 and d2.  The geodesic
    between the two ideal centers is the semicircle of diameter span;
    root-find the angles where it crosses each horoball boundary and
    integrate the hyperbolic length element dtheta/sin(theta) between them.
    Overlapping horoballs put the crossings in reversed order and the
    integral comes out negative, matching the signed convention.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    half = span / 2.0

    def crossing(diam, ideal_at_zero):
        def indicator(theta):
            x = half * (1.0 + np.cos(theta))
            y = half * np.sin(theta)
            if not ideal_at_zero:
                x -= span
            return x * x + y * y - diam * y

        eps = 1e-12
        return brentq(indicator, eps, np.pi - eps, xtol=1e-15)

    inner = crossing(d1, True)       # exit from the ball centered at 0
    outer = crossing(d2, False)      # entry to the ball centered at span
    value, _ = quad(lambda t: 1.0 / np.sin(t), outer, inner,
                    epsabs=1e-13, epsrel=1e-13)
    return value


def bloch_wigner(z):
    """Bloch-Wigner dilogarithm, the volume of an ideal tetrahedron.

    Computed from the dilogarithm series through mpmath rather than the
    angle-integral route, so it shares nothing with the package volume.
    """
    import mpmath

    w = mpmath.mpc(z)
    return float(mpmath.im(mpmath.polylog(2, w))
                 + mpmath.arg(1 - w) * mpmath.log(abs(w)))


def lobachevsky_spence(theta):
    """Lambda(theta) = Im Li2(e^(2 i theta)) / 2; spence(z) is Li2(1 - z)."""
    from scipy.special import spence

    return 0.5 * spence(1.0 - cmath.exp(2j * theta)).imag


def _eis_mul(x, y):
    # product in Z[w], w^2 = -1 - w (Eisenstein integers)
    p1, q1 = x
    p2, q2 = y
    return (p1 * p2 - q1 * q2, p1 * q2 + q1 * p2 - q1 * q2)


def _eis_norm(x):
    p, q = x
    return p * p - p * q + q * q


def figure_eight_cusp(radius=9):
    """Exact cusp data for the figure eight knot complement.

    Enumerates the parabolic holonomy group generated by
    [[1, 1], [0, 1]] and [[1, 0], [-w, 1]], w a primitive cube root of
    unity, by breadth-first multiplication.  All entries live in the
    Eisenstein integers, so the search is exact: horoball diameters at
    the height-one cusp cut are reciprocals of the integer norms of
    lower-left entries, whose smallest positive value over the whole
    group is 1.  The maximal cusp diameter is therefore exactly 1 and
    the cut at height one is already maximal.

    Translations fixing infinity are collected together with the total
    generator exponent of the word reaching them; the longitude is the
    primitive translation of exponent zero.  Returns a dictionary with
    d_max, meridian, longitude (as exact Eisenstein pairs), their
    lengths, and the maximal cusp area.
    """
    one = (1, 0)
    zero = (0, 0)
    gens = (
        ((1, 0), (1, 0), (0, 0), (1, 0)),      # x
        ((1, 0), (-1, 0), (0, 0), (1, 0)),     # x^-1
        ((1, 0), (0, 0), (0, -1), (1, 0)),     # y
        ((1, 0), (0, 0), (0, 1), (1, 0)),      # y^-1
    )
    steps = (1, -1, 1, -1)

    def mat_mul(m, g):
        a, b, c, d = m
        e, f, gg, h = g
        return (
            tuple(u + v for u, v in zip(_eis_mul(a, e), _eis_mul(b, gg))),
            tuple(u + v for u, v in zip(_eis_mul(a, f), _eis_mul(b, h))),
            tuple(u + v for u, v in zip(_eis_mul(c, e), _eis_mul(d, gg))),
            tuple(u + v for u, v in zip(_eis_mul(c, f), _eis_mul(d, h))),
        )

    def canonical(m):
        for entry in m:
            if entry != zero:
                if entry < zero:
                    return tuple((-p, -q) for p, q in m)
                return m
        return m

    ident = (one, zero, zero, one)
    seen = {canonical(ident): 0}
    frontier = [(ident, 0)]
    min_norm = None
    translations = {}
    for _ in range(radius):
        nxt = []
        for m, exp in frontier:
            for g, step in zip(gens, steps):
                m2 = mat_mul(m, g)
                key = canonical(m2)
                if key in seen:
                    continue
                exp2 = exp + step
                seen[key] = exp2
                nxt.append((m2, exp2))
                c = m2[2]
                if c != zero:
                    norm = _eis_norm(c)
                    if min_norm is None or norm < min_norm:
                        min_norm = norm
                else:
                    b = canonical(m2)[1]
                    if b != zero:
                        translations[b] = exp2
        frontier = nxt

    if min_norm != 1:
        raise AssertionError("expected a lower-left entry of norm one")

    # w = (-1 + i sqrt 3) / 2; the translation p + q w has imaginary part
    # q sqrt(3) / 2 and the longitude must not be real
    longs = [b for b, e in translations.items() if e == 0 and b[1] != 0]
    if not longs:
        raise AssertionError("no exponent-zero translation found; "
                             "increase the radius")
    lam = min(longs, key=_eis_norm)
    conj = (lam[0] - lam[1], -lam[1])
    n_l = _eis_norm(lam)
    for b in longs:
        # the kernel lattice has rank one, so b / lam must be a plain
        # integer; divide exactly via the conjugate
        num = _eis_mul(b, conj)
        if num[0] % n_l or num[1] != 0:
            raise AssertionError("exponent-zero translations are not "
                                 "multiples of the least one")
    lam_len = n_l ** 0.5
    # meridian x translates by exactly 1; lattice coarea = Im(lam)
    area = abs(lam[1]) * 3.0 ** 0.5 / 2.0
    return {
        "d_max": 1.0,
        "meridian": one,
        "meridian_length": 1.0,
        "longitude": lam,
        "longitude_length": lam_len,
        "area": area,
    }


def tangent_pair_numeric(d):
    """Tangent-segment data for the half-plane above 1 versus a resting ball.

    The second horoball is the euclidean ball of diameter d centered at the
    boundary origin.  Solve numerically for the geodesic semicircle tangent
    to both (radius 1, center offset m), then measure the segment between
    its two tangency points with the two-point distance formula and the
    horocyclic offset of the touch point from the common perpendicular x=0.
    """
    from scipy.optimize import brentq

    r = d / 2.0

    def tangency(m):
        return np.hypot(m, r) - (1.0 + r)

    m = brentq(tangency, 1e-9, 1e6, xtol=1e-15)
    t1 = (m, 1.0)                    # apex, touching the line y = 1
    scale = r / np.hypot(m, -r)      # toward the semicircle center (m, 0)
    t2 = (0.0 + scale * m, r + scale * (-r))
    dx, dy = t1[0] - t2[0], t1[1] - t2[1]
    ell1 = np.arccosh(1.0 + (dx * dx + dy * dy) / (2.0 * t1[1] * t2[1]))
    return float(ell1), m


def farey_translation_box(m):
    """Minimum of d(s, m s) by box search with bound doubling.

    Every slope with |p|, q <= bound is tried; the box starts at the
    square root of the largest matrix entry and doubles until the minimum
    survives two doublings unchanged.  A search, not a proof: the exact
    cusplab.farey.translation_distance is checked against it.
    """
    if not m.is_pseudo_anosov:
        raise ValueError("|trace| = %d is not > 2" % abs(m.trace))
    (a, b), (c, d) = m.matrix
    bound = max(2, math.isqrt(max(abs(x) for row in m.matrix for x in row)))
    stable = 0
    best = None
    while True:
        cur = None
        for p, q in farey_box_vertices(bound):
            ip, iq = a * p + b * q, c * p + d * q
            if iq < 0 or (iq == 0 and ip < 0):
                ip, iq = -ip, -iq
            step = _distance_pq(p, q, ip, iq)
            if cur is None or step < cur:
                cur = step
            if cur == 1:
                # |trace| > 2 leaves no fixed slope, so 1 is already minimal
                break
        if cur == best:
            stable += 1
            if stable == 2:
                return best
        else:
            best = cur
            stable = 0
        bound *= 2


def _ladder(n):
    # Columns of the partial products P_k of the positive word of n, for
    # k = len(word) .. 0: peel the last letter off (R added the first
    # column to the second, L the second to the first) down to the
    # identity, recording each new column.
    (a, b), (c, d) = n.matrix
    columns = [(a, c), (b, d)]
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= b and c >= d:
            a, c = a - b, c - d
            columns.append((a, c))
        else:
            b, d = b - a, d - c
            columns.append((b, d))
    return columns


def ladder_translation_distances(m, n_max):
    """{n: translation distance of m^n} for n = 1..n_max, by the ladder.

    Conjugate +-m to N = C^-1 (+-m) C with positive entries, the product
    of a positive word w.  The partial products P_k of w, extended by
    P_(k+len w) = N P_k, give Farey triangles P_k{inf, 0, 1} that form a
    strip N carries onto itself, and the columns of P_0, ..., P_len(w)
    meet every value of d(v, N^n v) on its vertices.  The minimum over
    them is the minimum over all slopes: by the dual tree of the
    tessellation, a slope off the strip lies behind a boundary edge
    {u, v}, a geodesic to its image passes through u or v and then
    through N u or N v, and so it is longer than d(x, N x) for one of
    the two ends x.
    """
    frame, positive = _positive_frame(m)
    sign = 1 if m.trace > 0 else -1
    assert (frame * positive).matrix == tuple(
        tuple(sign * x for x in row) for row in (m * frame).matrix)
    assert all(x > 0 for row in positive.matrix for x in row)
    (fa, fb), (fc, fd) = frame.matrix
    slopes = [Slope(fa * x + fb * y, fc * x + fd * y)
              for x, y in _ladder(positive)]
    out = {}
    for n in range(1, n_max + 1):
        power = m.power(n)
        out[n] = min(distance(s, act(power, s)) for s in slopes)
    return out


# ---- breadth-first horoball development ----

def _std3(p, q, r):
    # Moebius matrix sending the projective points p, q, r to 0, inf, 1
    drq = r[0] * q[1] - r[1] * q[0]
    drp = r[0] * p[1] - r[1] * p[0]
    return (p[1] * drq, -p[0] * drq, q[1] * drp, -q[0] * drp)


def _mmul(m, w):
    a, b, c, d = m
    e, f, g, h = w
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _mapply(m, p):
    a, b, c, d = m
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


def _normalized(m):
    a, b, c, d = m
    det = a * d - b * c
    s = cmath.sqrt(det)
    return (a / s, b / s, c / s, d / s)


def _face_map(src_pts, dst_pts):
    # det-1 Moebius carrying the dst triple onto the src triple
    s_src = _std3(*src_pts)
    s_dst = _std3(*dst_pts)
    a, b, c, d = s_src
    inv = (d, -b, -c, a)
    return _normalized(_mmul(inv, s_dst))


class HoroballDevelopment:
    """Breadth-first development of cusp lifts in the half space model.

    The stack is placed once, with tetrahedron 0 at (infinity, 0, 1, z_0)
    and the cusp lift at infinity cut at height one.  Every reachable
    copy of the fundamental domain is a deck image M of the stack, and
    the cusp lift it carries at M(infinity) is a ball of diameter
    1/|c|^2, where c is the lower left entry of M.  States are reduced
    modulo the peripheral lattice, so the pattern of balls over one
    fundamental parallelogram is enumerated once.
    """

    def __init__(self, triangulation, zs, lattice):
        gluings = layered_triangulation_plane(triangulation.word).gluings
        n = triangulation.num_tetrahedra
        self._mu, self._lam = lattice
        self._scale = max(abs(self._mu), abs(self._lam), 1.0)
        det = (self._mu.real * self._lam.imag
               - self._mu.imag * self._lam.real)
        self._lat_inv = ((self._lam.imag / det, -self._lam.real / det),
                         (-self._mu.imag / det, self._mu.real / det))
        std = [((1, 0), (0j, 1), (1, 1), (zs[i], 1)) for i in range(n)]
        base = [None] * n
        base[0] = std[0]
        for i in range(n - 1):
            j, _, sigma = gluings[(i, 2)]
            src = [base[i][m] for m in _FACE[2]]
            dst = [std[j][sigma[m]] for m in _FACE[2]]
            g = _face_map(src, dst)
            base[j] = tuple(_mapply(g, p) for p in std[j])
        self._base = base
        self._trans = {}
        for (i, r), (j, _, sigma) in gluings.items():
            src = [base[i][m] for m in _FACE[r]]
            dst = [base[j][sigma[m]] for m in _FACE[r]]
            self._trans[(i, r)] = (j, _face_map(src, dst))

    def _reduce(self, m):
        # translate the image of infinity into the base parallelogram
        a, b, c, d = m
        if abs(c) > 1e-9:
            w = a / c
        elif abs(d) > 1e-9:
            w = b / d
        else:
            return m
        (p, q), (r, s) = self._lat_inv
        x = math.floor(p * w.real + q * w.imag + 0.5)
        y = math.floor(r * w.real + s * w.imag + 0.5)
        if x or y:
            t = x * self._mu + y * self._lam
            return (a - t * c, b - t * d, c, d)
        return m

    def _key(self, j, m):
        # Coset invariants: left translation by the peripheral lattice
        # leaves c and d alone and moves the ball center by the lattice,
        # so the key uses c, d up to sign and the center's fractional
        # lattice coordinates.  The irrational offsets keep the centers
        # of the actual pattern away from the wrap-around boundary.
        a, b, c, d = m
        f = math.floor
        # quantize both signs and keep the smaller; min over the actual
        # quantizations makes the key exactly even under negation
        kc = (f(c.real * 1e6 + 0.5), f(c.imag * 1e6 + 0.5),
              f(d.real * 1e6 + 0.5), f(d.imag * 1e6 + 0.5))
        nc = (f(-c.real * 1e6 + 0.5), f(-c.imag * 1e6 + 0.5),
              f(-d.real * 1e6 + 0.5), f(-d.imag * 1e6 + 0.5))
        if nc < kc:
            kc = nc
        if abs(c) > 1e-9:
            w = a / c
        elif abs(d) > 1e-9:
            w = b / d
        else:
            w = 0j
        (p, q), (r, s) = self._lat_inv
        x = p * w.real + q * w.imag + 0.287471
        y = r * w.real + s * w.imag + 0.137913
        return (j, kc,
                f((x - f(x)) * 1e6 + 0.5), f((y - f(y)) * 1e6 + 0.5))

    def _small(self, j, m, threshold):
        # a copy far smaller than the best ball so far cannot carry a
        # bigger one; copies touching infinity are never pruned
        pts = []
        for p in self._base[j]:
            q = _mapply(m, p)
            if abs(q[1]) <= 1e-9 * (abs(q[0]) + abs(q[1])):
                return False
            pts.append(q[0] / q[1])
        p0, p1, p2, p3 = pts
        spread = max(abs(p0 - p1), abs(p0 - p2), abs(p0 - p3),
                     abs(p1 - p2), abs(p1 - p3), abs(p2 - p3))
        return spread < threshold

    def run(self, depth, budget=300000):
        """Largest horoball diameter, certified by depth doubling.

        Expands the breadth-first frontier level by level, recording the
        maximum at depths depth, 2*depth, 4*depth, ...; returns once two
        consecutive checkpoints agree (or the frontier is exhausted) and
        raises DepthUnstable past the final cap or the state budget.
        """
        ident = (1 + 0j, 0j, 0j, 1 + 0j)
        frontier = [(0, ident)]
        seen = {self._key(0, ident)}
        best = 0.0
        checkpoints = []
        level = 0
        cap = depth * 32
        while True:
            if not frontier:
                if best <= 0.0:
                    raise DepthUnstable("no horoball found before exhaustion")
                return best
            level += 1
            if level > cap:
                raise DepthUnstable("no stable maximum within depth %d" % cap)
            next_frontier = []
            for j, m in frontier:
                for r in range(4):
                    j2, t = self._trans[(j, r)]
                    m2 = self._reduce(_mmul(m, t))
                    key = self._key(j2, m2)
                    if key in seen:
                        continue
                    seen.add(key)
                    if len(seen) > budget:
                        raise DepthUnstable("horoball development exceeded "
                                            "%d states" % budget)
                    c = m2[2]
                    if abs(c) > 1e-7:
                        d = 1.0 / (abs(c) * abs(c))
                        if d > best:
                            best = d
                    threshold = max(best / 16.0, 1e-6 * self._scale)
                    if not self._small(j2, m2, threshold):
                        next_frontier.append((j2, m2))
            frontier = next_frontier
            if level % depth == 0 and (level // depth) & ((level // depth) - 1) == 0:
                # level is depth, 2*depth, 4*depth, ...
                checkpoints.append(best)
                if len(checkpoints) >= 3 and \
                        abs(checkpoints[-1] - checkpoints[-2]) <= 1e-9 * max(1.0, best) and \
                        abs(checkpoints[-2] - checkpoints[-3]) <= 1e-9 * max(1.0, best):
                    if best <= 0.0:
                        raise DepthUnstable("no horoball found")
                    return best



def maximal_cusp_bfs(triangulation, shapes, depth=8):
    """Maximal cusp by breadth-first horoball development.

    The development runs to the given depth and doubles it until the
    largest ball diameter is stable twice; the maximal cut sits at the
    square root of that diameter over the reference cut.  Raises
    DepthUnstable past the depth and state budgets.  The edge formula of
    cusplab.bundle.maximal_cusp is checked against it.
    """
    reference = cusp_cross_section(triangulation, shapes)
    zs = [complex(z) for z in shapes]
    mu, lam = reference.translations
    dev = HoroballDevelopment(triangulation, zs, (mu, lam))
    diameter = dev.run(depth)
    h = math.sqrt(diameter)
    mu, lam = mu / h, lam / h
    area = reference.area / (h * h)
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


def maximal_cusp_pairwise(triangulation, shapes):
    """Maximal cusp by the edge formula, one edge and third vertex at a time.

    For each tetrahedron, each edge {k, m} (k < m) and each third vertex
    m', h_k h_m with h_k and h_m read afresh off the developed cusp
    triangles (i, k) and (i, m), whose ends sit at the flat positions
    16i + 4k + m: 24 side lengths per tetrahedron where
    maximal_cusp_products reads 12.  The same products of the same side
    lengths, so the two must be equal to the last bit.
    """
    (mu, lam, area), pos = _cross_section(triangulation._system,
                                          ShapeVector(tuple(shapes)).shapes)
    diameter = 0.0
    for i in range(triangulation.num_tetrahedra):
        for k, m in itertools.combinations(range(4), 2):
            for m2 in range(4):
                if m2 != k and m2 != m:
                    o = 16 * i
                    h_k = abs(pos[o + 4 * k + m] - pos[o + 4 * k + m2])
                    h_m = abs(pos[o + 4 * m + k] - pos[o + 4 * m + m2])
                    diameter = max(diameter, h_k * h_m)
    h = math.sqrt(diameter)
    mu, lam = mu / h, lam / h
    area /= diameter
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# The twelve sides of a layer's cusp triangles, the side of (i, k) across
# face r by the offsets of its ends, and for each edge {k, m} of each face
# r the pair of sides (i, k) and (i, m) across r that meet on it, with
# the edge.
_SIDE_NAMES = [(k, r) for k in range(4) for r in range(4) if r != k]
_TOUCH = [(x, y, (k, m)) for x, (k, r) in enumerate(_SIDE_NAMES)
          for y, (m, r2) in enumerate(_SIDE_NAMES) if r == r2 and k < m]
_SIDES = [tuple(4 * k + m for m in _FACE[r] if m != k)
          for k, r in _SIDE_NAMES]


def edge_products(triangulation, shapes):
    """Every product h_k h_m of the edge formula, by edge class.

    The twelve sides of each tetrahedron's four cusp triangles are read
    once (_SIDES) and multiplied face by face, three edges per face
    (_TOUCH): 12n products, two for each of the 6n tetrahedron edges,
    one per face on it.  Returns the reference (mu, lam, area) and, per
    edge class of the slot walk, the list of its products, all equal to
    e^(-delta) of its edge up to rounding.
    """
    reference, pos = _cross_section(triangulation._system,
                                    ShapeVector(tuple(shapes)).shapes)
    classes = slot_walk_edge_classes(triangulation.word)
    cls = {member: c for c, members in enumerate(classes)
           for member in members}
    products = [[] for _ in classes]
    for i, o in enumerate(range(0, len(pos), 16)):
        h = [abs(pos[o + u] - pos[o + v]) for u, v in _SIDES]
        for x, y, edge in _TOUCH:
            products[cls[i, edge]].append(h[x] * h[y])
    return reference, products


def maximal_cusp_products(triangulation, shapes):
    """Maximal cusp by the largest of all 12n edge products.

    cusplab.bundle.maximal_cusp takes one product per edge class; the
    products of a class agree up to rounding, so the two areas agree to
    about 1e-12 relative.
    """
    (mu, lam, area), products = edge_products(triangulation, shapes)
    diameter = max(map(max, products))
    h = math.sqrt(diameter)
    mu, lam = mu / h, lam / h
    area /= diameter
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# ---- rooted breadth-first cusp graph ----

def _corner(z, k, m):
    # the corner parameter of shape z at vertex k towards m
    p = _PAIR[k, m]
    if p == 0:
        return z
    if p == 1:
        return 1.0 / (1.0 - z)
    return (z - 1.0) / z


class RootedCuspGraph:
    """The cusp graph searched breadth first from a root corner.

    The cusp torus is tiled by one triangle per (tetrahedron, vertex).
    ``order`` and ``parent`` are a breadth-first spanning tree of the dual
    graph from ``root``, found through the gluings and degrees of the
    word's plane triangulation; ``nontree`` lists each remaining side once as (side, other
    side, winding), a side being (tetrahedron, vertex, face), and
    ``complete`` is the first of them to wind once round the fiber.
    develop places the root triangle's _CYC ends at 0, 1 and its corner
    parameter and every other triangle off its tree parent, in dicts
    keyed by the opposite vertex.
    """

    def __init__(self, triangulation, root=(0, 0)):
        self.triangulation = t = triangulation
        self.gluings, degrees, _ = layered_triangulation_plane(t.word)
        glu = self.gluings
        self.parent = {root: None}
        winding = {root: 0}
        self.order = [root]
        queue = deque([root])
        seen_sides = set()
        self.nontree = []
        while queue:
            node = queue.popleft()
            i, k = node
            for r in range(4):
                if r == k or (i, k, r) in seen_sides:
                    continue
                j, r2, sigma = glu[(i, r)]
                other = (j, sigma[k])
                seen_sides.add((i, k, r))
                seen_sides.add((j, sigma[k], r2))
                if other not in winding:
                    winding[other] = winding[node] + degrees[(i, r)]
                    self.parent[other] = (node, r)
                    self.order.append(other)
                    queue.append(other)
                else:
                    deg = winding[node] + degrees[(i, r)] - winding[other]
                    self.nontree.append(((i, k, r), (j, sigma[k], r2), deg))
        assert len(self.order) == 4 * t.num_tetrahedra
        self.complete = min((x for x in self.nontree if abs(x[2]) == 1),
                            key=lambda x: x[0])

    def develop(self, zs):
        glu = self.gluings
        i0, k0 = self.order[0]
        cy = _CYC[k0]
        pos = {(i0, k0): {cy[0]: 0j, cy[1]: 1 + 0j,
                          cy[2]: _corner(zs[i0], k0, cy[0])}}
        for node in self.order[1:]:
            (i, k), r = self.parent[node]
            j, _, sigma = glu[(i, r)]
            k2 = node[1]
            known = {sigma[m]: pos[(i, k)][m] for m in _FACE[r] if m != k}
            cy = _CYC[k2]
            ti = next(x for x in range(3) if cy[x] not in known)
            a, b = cy[(ti + 1) % 3], cy[(ti + 2) % 3]
            known[cy[ti]] = known[a] + _corner(zs[j], k2, a) * (
                known[b] - known[a])
            pos[node] = known
        return pos

    def side_holonomy(self, pos, side, other_side):
        # the affine map rewriting the tree placement of the far triangle
        # into the placement this side demands
        i, k, r = side
        j, k2, _ = other_side
        sigma = self.gluings[(i, r)][2]
        m1, m2 = (m for m in _FACE[r] if m != k)
        p, q = pos[(i, k)], pos[(j, k2)]
        rho = (p[m2] - p[m1]) / (q[sigma[m2]] - q[sigma[m1]])
        return rho, p[m1] - rho * q[sigma[m1]]

    def holonomies(self, shapes):
        """(winding, derivative, translation) for each non-tree loop."""
        pos = self.develop(ShapeVector(tuple(shapes)).shapes)
        return [(deg,) + self.side_holonomy(pos, side, other)
                for side, other, deg in self.nontree]

    def cross_section(self, shapes):
        """The cusp lattice at the root's cut, as the package read it.

        lam is the walk of fiber_boundary_class over the developed sides,
        mu the completeness loop turned to wind +1, reduced modulo lam.
        """
        pos = self.develop(ShapeVector(tuple(shapes)).shapes)
        lam = 0j
        for i, r, m in self.triangulation.fiber_boundary_class:
            cy = _CYC[m]
            ti = cy.index(r)
            p = pos[(i, m)]
            lam += p[cy[(ti + 2) % 3]] - p[cy[(ti + 1) % 3]]
        side, other, deg = self.complete
        mu = deg * self.side_holonomy(pos, side, other)[1]
        area = abs((mu.conjugate() * lam).imag)
        mu -= round((mu / lam).real) * lam
        return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# ---- peripheral basis by integer reduction and a float gcd ----

def _primitive_translation(values, scale):
    # generator of a rank-one lattice of collinear complex numbers
    vals = [w for w in values if abs(w) > 1e-9 * scale]
    if not vals:
        raise NumericalError("fiber boundary loop has trivial holonomy")
    ref = max(vals, key=abs)
    unit = ref / abs(ref)
    reals = []
    for w in vals:
        x = w / unit
        if abs(x.imag) > 1e-6 * scale:
            raise NumericalError("peripheral translations are not collinear")
        reals.append(x.real)
    g = 0.0
    for x in reals:
        a, b = g, x
        while abs(b) > 1e-7 * scale:
            a, b = b, a - round(a / b) * b
        g = a
    for x in reals:
        if abs(x / g - round(x / g)) > 1e-6:
            raise NumericalError("peripheral translations are not "
                                 "commensurable")
    return g * unit


def peripheral_basis_gcd(holonomies):
    """Peripheral lattice basis (mu, lam) from every non-tree loop.

    ``holonomies`` is (winding, derivative, translation) per loop, from
    RootedCuspGraph.holonomies or unplaced_loops.  Integer row reduction on the windings leaves
    one generator of winding +-1 (mu, turned to +1) and a kernel of
    winding zero, whose translations are collinear multiples of the fiber
    boundary; lam is their generator, found by a floating-point Euclid.
    Raises NumericalError when the windings do not span or the kernel is
    not a rank-one lattice.  cusplab.bundle reads the same lattice off the
    two named loops and is checked against it.
    """
    gens = [[deg, tr] for deg, _, tr in holonomies]
    scale = max(max(abs(g[1]) for g in gens), 1.0)
    while True:
        nonzero = [g for g in gens if g[0] != 0]
        if len(nonzero) <= 1:
            break
        nonzero.sort(key=lambda g: abs(g[0]))
        pivot = nonzero[0]
        for g in nonzero[1:]:
            q = round(g[0] / pivot[0])
            g[0] -= q * pivot[0]
            g[1] -= q * pivot[1]
    transverse = [g for g in gens if g[0] != 0]
    if len(transverse) != 1 or abs(transverse[0][0]) != 1:
        raise NumericalError("winding degrees do not span the fiber "
                             "direction")
    lam = _primitive_translation([g[1] for g in gens if g[0] == 0], scale)
    mu = transverse[0][1] if transverse[0][0] == 1 else -transverse[0][1]
    return mu, lam


def unplaced_loops(system, shapes):
    """(winding, derivative, translation) of each side that the package's
    column development leaves unplaced: the four column closings, each
    winding once, then the cross links."""
    return system._loops(system._develop(ShapeVector(tuple(shapes)).shapes))


def developed_area(system, shapes):
    """Total euclidean area of the package's developed cusp triangles.

    Consistently oriented triangles tile one fundamental domain of the
    cusp torus, so the sum is the coarea of the peripheral lattice.
    """
    pos = system._develop(ShapeVector(tuple(shapes)).shapes)
    total = 0.0
    for o in range(0, len(pos), 4):
        a, b, c = (o + m for m in _CYC[o // 4 % 4])
        u = pos[b] - pos[a]
        w = pos[c] - pos[a]
        total += 0.5 * abs((u.conjugate() * w).imag)
    return total


# ---- plane-point layered triangulation ----

def _vadd(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _vsub(p, q):
    return (p[0] - q[0], p[1] - q[1])


PlaneTriangulation = namedtuple("PlaneTriangulation",
                                "gluings degrees edge_classes")


def layered_triangulation_plane(word):
    """Layered triangulation of ``word`` built by placing it in the plane.

    The fiber is R^2/Z^2 minus the lattice, triangulated by two triangles
    with edge directions u, v, u + v; R flips the u-edge and replaces u by
    u + v, L flips the v-edge and replaces v by u + v.  Each flip's
    tetrahedron is four plane points, the flip quadrilateral (a, b, c, d)
    counterclockwise taken as (a, c, b, d).  A top face glues to the
    bottom face of the next layer that is the same lattice triangle up to
    translation, matched by sorted difference tuples; the top of the last
    layer is first carried back by the inverse monodromy.  Edge classes
    come from a union-find over all 6n tetrahedron edges, in root order.
    Returns a PlaneTriangulation: face handle (tet, omitted vertex) to
    (other tet, other face, vertex bijection), the winding of each face
    gluing round the fiber direction (+1 crossing the closure upward, -1
    downward, 0 inside the stack) and the edge classes.  The package's
    letter tables are checked against it.
    """
    mono = word_to_matrix(word)
    if not mono.is_pseudo_anosov:
        raise NotPseudoAnosov("monodromy %r is not pseudo-Anosov" % word)

    u, v = (1, 0), (0, 1)
    verts = []
    for letter in word:
        w = _vadd(u, v)
        if letter == "R":
            verts.append(((-v[0], -v[1]), w, u, (0, 0)))
            u = w
        else:
            verts.append(((-u[0], -u[1]), w, (0, 0), v))
            v = w

    (a, b), (c, d) = mono.matrix

    def unwind(p):
        # inverse monodromy on plane vectors (q, p)
        return (a * p[0] - c * p[1], -b * p[0] + d * p[1])

    n = len(verts)
    gluings = {}
    degrees = {}
    for i in range(n):
        j = (i + 1) % n
        wrap = (j == 0)
        bottoms = {}
        for r in (0, 1):
            pts = [verts[j][m] for m in _FACE[r]]
            base = min(pts)
            key = tuple(sorted(_vsub(q, base) for q in pts))
            bottoms[key] = (r, {_vsub(q, base): m
                                for q, m in zip(pts, _FACE[r])})
        for r in (2, 3):
            pts = [verts[i][m] for m in _FACE[r]]
            if wrap:
                pts = [unwind(q) for q in pts]
            base = min(pts)
            key = tuple(sorted(_vsub(q, base) for q in pts))
            if key not in bottoms:
                raise NumericalError("layer %d does not stack onto layer %d"
                                     % (i, j))
            r2, where = bottoms[key]
            sigma = {m: where[_vsub(q, base)]
                     for q, m in zip(pts, _FACE[r])}
            gluings[(i, r)] = (j, r2, sigma)
            gluings[(j, r2)] = (i, r, {m2: m1 for m1, m2 in sigma.items()})
            degrees[(i, r)] = 1 if wrap else 0
            degrees[(j, r2)] = -1 if wrap else 0

    for handle, (j, r2, _) in gluings.items():
        back = gluings[(j, r2)]
        if (back[0], back[1]) != handle or (j, r2) == handle:
            raise NumericalError("face gluing is not an involution")

    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for m1 in range(4):
            for m2 in range(m1 + 1, 4):
                parent[(i, (m1, m2))] = (i, (m1, m2))
    for (i, r), (j, r2, sigma) in gluings.items():
        face = _FACE[r]
        for s in range(3):
            for s2 in range(s + 1, 3):
                m1, m2 = face[s], face[s2]
                e1 = find((i, tuple(sorted((m1, m2)))))
                e2 = find((j, tuple(sorted((sigma[m1], sigma[m2])))))
                if e1 != e2:
                    parent[e1] = e2
    classes = {}
    for edge in parent:
        classes.setdefault(find(edge), []).append(edge)
    edge_classes = tuple(tuple(sorted(members))
                         for _, members in sorted(classes.items()))
    return PlaneTriangulation(gluings, degrees, edge_classes)


# ---- edge classes from the slot walk, built eagerly ----

def slot_walk_edge_classes(word):
    """The edge classes of a word's layered triangulation, from the walk.

    Class i starts with the edge born at layer i, tetrahedron i's top
    diagonal (i, (0, 1)); every other edge of layer i joins the class of
    the fiber slot it lies on.
    """
    classes = [[(i, (0, 1))] for i in range(len(word))]
    for i, table, slots in _slot_walk(word):
        for edge, s in table.items():
            classes[slots[s]].append((i, edge))
    return tuple(tuple(sorted(members)) for members in classes)


# ---- edge rows summed over the edge classes ----

def sparse_edge_rows(triangulation):
    """Edge rows of a triangulation, read off the slot walk's edge classes.

    Each class member (tetrahedron i, vertex pair) adds 1 to the
    coefficient of its dihedral parameter _PAIR on tetrahedron i; repeats
    add up, and each row lists its (i, parameter, coefficient) triples in
    sorted order.  cusplab.bundle.GluingSystem.edge_rows, read off the slot
    walk, must equal it tuple for tuple.
    """
    rows = []
    for cls in slot_walk_edge_classes(triangulation.word):
        row = {}
        for i, edge in cls:
            row[(i, _PAIR[edge])] = row.get((i, _PAIR[edge]), 0) + 1
        rows.append(tuple((i, k, c) for (i, k), c in sorted(row.items())))
    return tuple(rows)


def birth_order_fill(system):
    """The fill of E Q E^T's LDL^T factorisation in birth order.

    E is the edge rows but the last, and entry (e, f) of E Q E^T is
    structurally nonzero when rows e and f meet a tetrahedron on which
    neither is constant (Q kills the constant vector (1, 1, 1)).
    Eliminating row e in order 0, 1, ... joins every pair of the later
    rows it meets.  Returns (the entries above the diagonal, the entries
    the elimination adds), the second being the fill.
    """
    m = len(system.edge_rows) - 1
    meets = [{} for _ in range(system.triangulation.num_tetrahedra)]
    for e, row in enumerate(system.edge_rows[:-1]):
        for i, k, c in row:
            meets[i].setdefault(e, [0, 0, 0])[k] += c
    later = [set() for _ in range(m)]
    for meet in meets:
        rows = sorted(e for e, a in meet.items() if len(set(a)) > 1)
        for x, e in enumerate(rows):
            later[e].update(rows[x + 1:])
    entries = sum(map(len, later))
    for e in range(m):
        for f in later[e]:
            later[f].update(g for g in later[e] if g > f)
    return entries, sum(map(len, later)) - entries


# ---- developed-ratio shape solve ----

def developed_residual(system, shapes, graph=None):
    """Gluing residuals of a GluingSystem, the completeness row developed.

    Edge rows sum the principal log-parameters around each edge class;
    the completeness row is the principal log of the derivative of the
    completeness loop of ``graph`` (by default the RootedCuspGraph of the
    system's triangulation), read off a full development of the cusp
    torus.  cusplab.bundle.GluingSystem.residual is checked against it.
    """
    if graph is None:
        graph = RootedCuspGraph(system.triangulation)
    zs = np.array(ShapeVector(tuple(shapes)).shapes, dtype=complex)
    logs = (np.log(zs), -np.log(1.0 - zs), np.log((zs - 1.0) / zs))
    classes = slot_walk_edge_classes(system.triangulation.word)
    out = np.empty(len(classes) + 1, dtype=complex)
    for e, cls in enumerate(classes):
        out[e] = sum(logs[_PAIR[edge]][i]
                     for i, edge in cls) - 2j * math.pi
    rho, _ = graph.side_holonomy(graph.develop(zs), *graph.complete[:2])
    out[-1] = cmath.log(rho)
    return out


def solve_shapes_developed(system, tol=1e-12):
    """Damped Newton on developed_residual, one residual call per column.

    The shape solve before the volume maximum: every shape starts at i,
    with a forward-difference step, a halving line search and the floor
    Im z > 1e-13.  cusplab.bundle.solve_shapes is checked against it
    wherever its shapes are complete.
    """
    n = system.triangulation.num_tetrahedra
    graph = RootedCuspGraph(system.triangulation)
    z = np.full(n, 1j, dtype=complex)
    floor = 1e-13
    f = developed_residual(system, z, graph)
    if float(np.max(np.abs(f))) < tol:
        return ShapeVector(tuple(z))
    size = float(np.linalg.norm(f))
    h = 1e-7
    for _ in range(50):
        jac = np.empty((len(f), n), dtype=complex)
        for col in range(n):
            zp = z.copy()
            zp[col] += h
            jac[:, col] = (developed_residual(system, zp, graph) - f) / h
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise Diverged("Newton step is not finite")
        t = 1.0
        flattened = False
        while True:
            z2 = z + t * step
            if np.min(z2.imag) <= floor:
                flattened = True
            else:
                f2 = developed_residual(system, z2, graph)
                if np.all(np.isfinite(f2)):
                    size2 = float(np.linalg.norm(f2))
                    if size2 < size or np.max(np.abs(f2)) < tol:
                        z, f, size = z2, f2, size2
                        break
            t *= 0.5
            if t < 1e-12:
                if flattened:
                    raise DegenerateShape(
                        "shapes collapse onto the real line")
                raise Diverged("step halving cannot reduce the residual")
        if float(np.max(np.abs(f))) < tol:
            return ShapeVector(tuple(z))
    raise MaxIterations("no convergence within 50 Newton steps")


# ---- replayed completeness monomial ----

# A monomial (s, terms) over n tetrahedra stands for the function
# (-1)^s prod z_i^a_i (1 - z_i)^b_i of the shapes.  ``terms`` lists
# (column, exponent) pairs, column i for z_i and n + i for 1 - z_i, with
# repeats adding up; multiplying monomials concatenates their terms.
# Every developed cusp side is the root side times a monomial.

def _corner_monomials(i, k, m, n):
    # the corner parameter w at vertex k towards m, and w - 1
    z, w = i, n + i
    p = _PAIR[k, m]
    if p == 0:
        return (0, ((z, 1),)), (1, ((w, 1),))       # z, -(1 - z)
    if p == 1:
        return (0, ((w, -1),)), (0, ((z, 1), (w, -1)))  # 1/(1-z), z/(1-z)
    return (1, ((z, -1), (w, 1))), (1, ((z, -1),))  # -(1-z)/z, -1/z


def _mono_mul(x, y):
    return ((x[0] + y[0]) % 2, x[1] + y[1])


def _mono_div(x, y):
    return ((x[0] + y[0]) % 2, x[1] + tuple((c, -e) for c, e in y[1]))


def _mono_neg(x):
    return ((x[0] + 1) % 2, x[1])


def completeness_monomial(graph, loop=None):
    """The derivative of a peripheral loop as a signed monomial (s, terms).

    ``graph`` is a RootedCuspGraph and ``loop`` one of its non-tree
    sides, by default its completeness loop.  Replays its develop on
    monomials, along the tree paths from the root to the two triangles
    of the loop's side only.  frame[node] = (a, b, c, mono): the side
    a -> b of the node's triangle is mono times the root side, the side
    a -> c is w_a times that and b -> c is w_a - 1 times it, where w_a is
    the corner parameter at a.
    """
    glu = graph.gluings
    n = graph.triangulation.num_tetrahedra
    one = (0, ())
    root = graph.order[0]
    cy = _CYC[root[1]]
    frame = {root: (cy[0], cy[1], cy[2], one)}

    def place(node):
        prev, r = graph.parent[node]
        sigma = glu[(prev[0], r)][2]
        shared = {sigma[m]: m for m in _FACE[r] if m != prev[1]}
        cy = _CYC[node[1]]
        ti = next(x for x in range(3) if cy[x] not in shared)
        a, b = cy[(ti + 1) % 3], cy[(ti + 2) % 3]
        frame[node] = (a, b, cy[ti], side(prev, shared[a], shared[b]))

    def side(node, m1, m2):
        path = []
        up = node
        while up not in frame:
            path.append(up)
            up = graph.parent[up][0]
        for later in reversed(path):
            place(later)
        a, b, c, mono = frame[node]
        w, w_less_one = _corner_monomials(node[0], node[1], a, n)
        if c not in (m1, m2):
            v, start = mono, a
        elif b not in (m1, m2):
            v, start = _mono_mul(w, mono), a
        else:
            v, start = _mono_mul(w_less_one, mono), b
        return v if m1 == start else _mono_neg(v)

    (i, k, r), (j, k2, _), _ = graph.complete if loop is None else loop
    sigma = glu[(i, r)][2]
    m1, m2 = (m for m in _FACE[r] if m != k)
    return _mono_div(side((i, k), m1, m2),
                     side((j, k2), sigma[m1], sigma[m2]))


def column_derivative(triangulation, shapes):
    """Derivative of the loop of cusp triangles (0, 3), ..., (n - 1, 3).

    Develops triangle (0, 3) with unit side 0 -> 1, then each triangle at
    vertex 3 on top of the one below it, across top face 2 as _STACK
    glues it, once round the stack back to (0, 3); returns the ratio of
    the final side 0 -> 1 to the first.
    """
    glu = layered_triangulation_plane(triangulation.word).gluings
    a, b, c = _CYC[3]
    p = {a: 0j, b: 1 + 0j}
    p[c] = _corner(shapes[0], 3, a)
    first = p[1] - p[0]
    for i in range(triangulation.num_tetrahedra):
        j, _, sigma = glu[(i, 2)]
        p = {sigma[m]: p[m] for m in _FACE[2] if m != 3}
        ti = next(x for x in range(3) if _CYC[3][x] not in p)
        a, b = _CYC[3][(ti + 1) % 3], _CYC[3][(ti + 2) % 3]
        p[_CYC[3][ti]] = p[a] + _corner(shapes[j], 3, a) * (p[b] - p[a])
    return (p[1] - p[0]) / first


# ---- least-squares shape solve ----

def _dense_columns(system):
    # Every row of the system as one column over the 3n log-parameters,
    # stacked as the solve did, in the memory layout it had: that layout
    # picks numpy's summation order, and with it the branch side of the
    # completeness sums that sit on the cut at z = i.  The completeness
    # column is the replayed monomial, b.log(1 - z) read as -b times
    # log 1/(1 - z).  Returns the columns and the monomial's sign.
    n = system.triangulation.num_tetrahedra
    edge = np.zeros((len(system.edge_rows), 3 * n), dtype=np.int64)
    for r, row in enumerate(system.edge_rows):
        for i, k, c in row:
            edge[r, k * n + i] = c
    sign, terms = completeness_monomial(RootedCuspGraph(system.triangulation))
    complete = np.zeros(3 * n)
    for c, e in terms:
        complete[c] += e if c < n else -e
    return np.column_stack((edge.T, complete)).astype(complex), sign


def _residual_array(columns, sign, zs):
    # residuals of one shape array (shape (n,)) or of a stack of them
    # (shape (m, n), one residual row each)
    logs = np.concatenate((np.log(zs), -np.log(1.0 - zs),
                           np.log((zs - 1.0) / zs)), axis=-1)
    out = logs @ columns
    out[..., :-1] -= 2j * math.pi
    last = out[..., -1]
    last.imag = math.pi - np.mod(math.pi * (1 - sign) - last.imag,
                                 2.0 * math.pi)
    return out


def solve_shapes_lstsq(system, tol=1e-12):
    """Damped Newton with numpy arrays and a least-squares step.

    The shape solve before the volume maximum: every shape starts at i,
    with a forward-difference step h = 1e-7 on the principal branch, a
    halving line search and the floor Im z > 1e-13.
    cusplab.bundle.solve_shapes is checked against it wherever its shapes
    are complete.
    """
    columns, sign = _dense_columns(system)
    word = system.triangulation.word
    n = system.triangulation.num_tetrahedra
    z = np.full(n, 1j, dtype=complex)
    floor = 1e-13
    f = _residual_array(columns, sign, z)
    if float(np.max(np.abs(f))) < tol:
        return ShapeVector(tuple(z))
    size = float(np.linalg.norm(f))
    h = 1e-7
    shift = h * np.eye(n)
    for it in range(1, 51):
        jac = ((_residual_array(columns, sign, z + shift) - f) / h).T
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise Diverged("%r step %d: Newton step is not finite"
                           % (word, it))
        t = 1.0
        flattened = False
        while True:
            z2 = z + t * step
            if np.min(z2.imag) <= floor:
                flattened = True
            else:
                f2 = _residual_array(columns, sign, z2)
                if np.all(np.isfinite(f2)):
                    size2 = float(np.linalg.norm(f2))
                    if size2 < size or np.max(np.abs(f2)) < tol:
                        z, f, size = z2, f2, size2
                        break
            t *= 0.5
            if t < 1e-12:
                if flattened:
                    raise DegenerateShape("%r step %d: shapes collapse onto "
                                          "the real line" % (word, it))
                raise Diverged("%r step %d: step halving cannot reduce the "
                               "residual" % (word, it))
        if float(np.max(np.abs(f))) < tol:
            return ShapeVector(tuple(z))
    raise MaxIterations("%r: no convergence within 50 Newton steps" % word)


# ---- angle-basis shape solve ----

def angle_space(system):
    """The angle structures of a GluingSystem as offset + basis . y.

    Angle 3i + k is the argument of parameter k of tetrahedron i.  The
    angles sum to pi in each tetrahedron and to 2*pi on every edge row but
    the last: gamma_i = pi - alpha_i - beta_i, and Gauss-Jordan
    elimination of the edge rows over (alpha, beta) leaves n + 1 free
    columns, y.  Returns the offset, one sparse row of (column, value)
    pairs per angle, and the angle each column of y is.
    """
    n = system.triangulation.num_tetrahedra
    rows = []
    for row in system.edge_rows[:-1]:
        line = [0.0] * (2 * n) + [2.0 * math.pi]
        for i, k, c in row:
            if k == 2:
                line[2 * i] -= c
                line[2 * i + 1] -= c
                line[-1] -= c * math.pi
            else:
                line[2 * i + k] += c
        rows.append(line)
    pivots = {}     # column -> its row of the reduced echelon form
    for col in range(2 * n):
        r = len(pivots)
        best = max(range(r, len(rows)), default=None,
                   key=lambda q: abs(rows[q][col]))
        if best is None or abs(rows[best][col]) < 1e-9:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        top = rows[r]
        top[:] = [x / top[col] for x in top]
        for line in rows:
            factor = line[col]
            if line is not top and factor:
                line[:] = [x - factor * y for x, y in zip(line, top)]
        pivots[col] = top
    free = [c for c in range(2 * n) if c not in pivots]
    # (alpha_i, beta_i), columns 2i and 2i + 1, as (offset, coefficients)
    coords = [(pivots[c][-1], [-pivots[c][f] for f in free])
              if c in pivots else (0.0, [float(c == f) for f in free])
              for c in range(2 * n)]
    offset, basis = [], []
    for i in range(n):
        (a, ca), (b, cb) = coords[2 * i], coords[2 * i + 1]
        offset += [a, b, math.pi - a - b]
        for coeffs in (ca, cb, [-x - y for x, y in zip(ca, cb)]):
            basis.append(tuple((j, x) for j, x in enumerate(coeffs) if x))
    return offset, basis, [3 * (c // 2) + c % 2 for c in free]


def angle_shift(space, theta):
    """theta less the angle structure that has theta's free angles."""
    offset, basis, free = space
    y = [theta[a] for a in free]
    return [a - o - sum([x * y[j] for j, x in row])
            for a, o, row in zip(theta, offset, basis)]


def angle_step_basis(space, weights, values, shift):
    """The angle move B dy - shift of least d.W.d / 2 - values.d.

    B is the basis of ``space``, W = diag(weights), and dy solves the Gram
    system (B^T W B) dy = B^T (values + W shift).  Returns None on a zero
    pivot.
    """
    _, basis, free = space
    dim = len(free)
    rows = [[0.0] * (dim + 1) for _ in range(dim)]
    for row, w, v, e in zip(basis, weights, values, shift):
        for a, x in row:
            line = rows[a]
            line[dim] += x * (v + w * e)
            wx = w * x
            for b, y in row:
                line[b] += wx * y
    dy = _eliminate(rows)
    if dy is None:
        return None
    return [sum([x * dy[j] for j, x in row]) - e
            for row, e in zip(basis, shift)]


def _inside(theta, step):
    # the step length 1, or 99% of the way to the first angle to reach 0
    room = min([-a / s for a, s in zip(theta, step) if s < 0.0],
               default=math.inf)
    return min(1.0, 0.99 * room)


def solve_shapes_basis(system, tol=1e-12):
    """cusplab.bundle.solve_shapes with its angle steps over angle_space.

    The same two phases, stop tests, line search and polish in log z,
    each angle step taken by angle_step_basis; raises as solve_shapes
    does.  cusplab.bundle.solve_shapes is checked against it word by
    word.
    """
    space = angle_space(system)
    theta = [math.pi / 3.0] * len(space[0])
    defect = angle_shift(space, theta)
    share = 1.0     # of the defect still to remove
    step = 0

    def move_by(weights, values, shift):
        move = angle_step_basis(space, weights, values, shift)
        if move is None:
            raise Diverged(_failure(system, step, "Newton step is not "
                                    "finite", theta=theta))
        return move

    for step in range(1, _MAX_STEPS + 1):
        move = move_by([1.0 / (a * a) for a in theta],
                       [1.0 / a for a in theta], [share * e for e in defect])
        t = _inside(theta, move)
        theta = [a + t * m for a, m in zip(theta, move)]
        if t == 1.0 or min(theta) < 1e-13:
            break
        share *= 1.0 - t
    if t < 1.0:
        raise DegenerateShape(_failure(
            system, step, "no angle structure has every angle positive",
            theta=theta))

    met = [0.0] * len(theta)
    for step in range(step + 1, _MAX_STEPS + 1):
        gradient = [-math.log(2.0 * math.sin(a)) for a in theta]
        move = move_by([1.0 / math.tan(a) for a in theta], gradient, met)
        decrement = sum([g * m for g, m in zip(gradient, move)])
        t = _inside(theta, move)
        if t < 1.0 or decrement > 0.01:
            rise = _rise(theta, move, t)
            if rise < 0.0:
                t *= decrement / (decrement - rise)
            while t > 1e-12 and _rise(theta, move, t) < 0.0:
                t *= 0.5
        theta = [a + t * m for a, m in zip(theta, move)]
        if t == 1.0 and decrement < 1e-12:
            break
    else:
        raise MaxIterations(_failure(
            system, _MAX_STEPS, "no convergence within %d Newton steps"
            % _MAX_STEPS, theta=theta))

    z = [cmath.rect(math.sin(theta[i + 1]) / math.sin(theta[i + 2]),
                    theta[i]) for i in range(0, len(theta), 3)]
    f = system._evaluate(z)
    size = max(map(abs, f))
    while not size < tol:
        step += 1
        if step > _MAX_STEPS:
            raise MaxIterations(_failure(
                system, _MAX_STEPS, "no convergence within %d Newton steps"
                % _MAX_STEPS, z=z))
        move = _eliminate(system._jacobian(z, f))
        if move is None or not all(map(cmath.isfinite, move)):
            raise Diverged(_failure(system, step, "Newton step is not "
                                    "finite", z=z))
        z2 = [w * cmath.exp(m) for w, m in zip(z, move)]
        f = system._evaluate(z2)
        if not max(map(abs, f)) < size:
            raise Diverged(_failure(system, step, "the Newton step does not "
                                    "reduce the residual", z=z))
        z, size = z2, max(map(abs, f))
    return ShapeVector(tuple(z))


# ---- arc distance from one end ----

def distance_forward(a, b, radius_cap=None, budget=64):
    """Arc-complex distance by breadth-first search from `a` alone.

    Same errors and budget guard as cusplab.arcs.distance; `radius_cap`
    also raises Unreachable once the path would be longer than it.
    """
    if a.coord_sum > budget or b.coord_sum > budget:
        raise BudgetExceeded("arc coordinates exceed the budget %d" % budget)
    if a == b:
        return 0
    visited = {a}
    frontier = [a]
    r = 0
    while frontier:
        r += 1
        if radius_cap is not None and r > radius_cap:
            raise Unreachable("no path of length < %d within budget %d"
                              % (r, budget))
        nxt = []
        for v in sorted(frontier, key=NormalArc._sort_key):
            for nb in _neighbors(v, budget):
                if nb in visited:
                    continue
                if nb == b:
                    return r
                visited.add(nb)
                nxt.append(nb)
        frontier = nxt
    raise Unreachable("the capped complex around the source (budget %d) "
                      "does not reach the target" % budget)


# ---- slope arcs by walking the plane ----

def slope_arc_walk(base, s):
    """The arc of a slope on the standard torus, by an event walk.

    Edges 0, 1, 2 run in the lattice directions u, v, u + v and carry the
    slopes 0/1, 1/0, 1/1.  Any other slope p/q is the straight segment
    from the origin in direction q u + p v; it crosses horizontals (copies
    of edge 0), verticals (edge 1) and the diagonals y - x = const (edge 2)
    at rational times, and between two consecutive crossings it cuts off
    the corner where those two lines meet.  cusplab.arcs.slope_arc is
    checked against it.
    """
    special = {Slope(0, 1): 0, Slope(1, 0): 1, Slope(1, 1): 2}
    if s in special:
        return NormalArc._make(base, {}, {}, {special[s]: 1})
    a, b = s.q, s.p              # direction (a, b) in the (u, v) frame
    events = []
    for i in range(1, a):
        events.append((Fraction(i, a), "v", i))
    lo, hi = sorted((0, b))
    for j in range(lo + 1, hi):
        events.append((Fraction(j, b), "h", j))
    lo, hi = sorted((0, b - a))
    for k in range(lo + 1, hi):
        events.append((Fraction(k, b - a), "d", k))
    events.sort()

    edge_of = {"h": 0, "v": 1, "d": 2}
    w = {}
    for _t, kind, _n in events:
        e = edge_of[kind]
        w[e] = w.get(e, 0) + 1

    local_a = {(0, 0): 0, (1, 0): 1, (1, 1): 2}
    local_b = {(0, 0): 0, (1, 1): 1, (0, 1): 2}
    c = {}
    for (s1, k1, n1), (s2, k2, n2) in zip(events, events[1:]):
        if k1 == k2:
            raise NotAnArc("straight segment crossed two %s lines in a row"
                           % k1)
        corner = _line_meet(k1, n1, k2, n2)
        xm = Fraction(a) * (s1 + s2) / 2
        ym = Fraction(b) * (s1 + s2) / 2
        cx = xm.numerator // xm.denominator
        cy = ym.numerator // ym.denominator
        rel = (corner[0] - cx, corner[1] - cy)
        if (ym - cy) < (xm - cx):
            tri, k = 0, local_a[rel]
        else:
            tri, k = 1, local_b[rel]
        c[(tri, k)] = c.get((tri, k), 0) + 1
    return NormalArc._make(base, w, c, {})


def _line_meet(k1, n1, k2, n2):
    """Lattice point where lines x=n ('v'), y=n ('h'), y-x=n ('d') meet."""
    kinds = {k1: n1, k2: n2}
    if "v" in kinds and "h" in kinds:
        return (kinds["v"], kinds["h"])
    if "v" in kinds and "d" in kinds:
        return (kinds["v"], kinds["v"] + kinds["d"])
    return (kinds["h"] - kinds["d"], kinds["h"])


# ---- strands as segments joined at crossing points ----

def _canonical_pos(tri, t, s, j, width):
    """Crossing j from the tail of slot (t, s), as an (edge, index) point.

    Crossings of an edge are indexed from the tail of its lexicographically
    smaller slot; the gluing reverses direction, so read from the other slot
    position j becomes width - 1 - j.
    """
    e = tri.edge_label(t, s)
    smaller, _ = tri.edges[e]
    if (t, s) == smaller:
        return (e, j)
    return (e, width - 1 - j)


def _strand_segments(tri, w, c):
    """Every strand as (ptA, slotA, ptB, slotB, home corner, kind).

    Corner strands connect two crossing points; vertex strands connect one
    crossing point to an endpoint marker ("end", t, k, j).  Raises NotAnArc
    when a derived vertex count goes negative.
    """
    segments = []
    for t in range(tri.num_triangles):
        W = [w.get(tri.edge_label(t, s), 0) for s in range(3)]
        C = [c.get((t, k), 0) for k in range(3)]
        V = [W[(k + 1) % 3] - C[(k + 1) % 3] - C[(k + 2) % 3] for k in range(3)]
        if min(V) < 0:
            raise NotAnArc("matching equations fail at triangle %d" % t)
        for k in range(3):
            km, kp = (k + 2) % 3, (k + 1) % 3
            for j in range(C[k]):
                segments.append((
                    _canonical_pos(tri, t, k, j, W[k]), (t, k),
                    _canonical_pos(tri, t, km, W[km] - 1 - j, W[km]), (t, km),
                    (t, k), "corner"))
            for j in range(V[k]):
                segments.append((
                    _canonical_pos(tri, t, kp, C[kp] + j, W[kp]), (t, kp),
                    ("end", t, k, j), None,
                    (t, k), "vertex"))
    return segments


def _segment_adjacency(segments):
    adj = {}
    for idx, seg in enumerate(segments):
        adj.setdefault(seg[0], []).append(idx)
        if seg[5] == "corner":
            adj.setdefault(seg[2], []).append(idx)
    for point, inc in adj.items():
        if len(inc) != 2:
            raise NotAnArc("crossing %r met %d strand ends, not 2"
                           % (point, len(inc)))
    return adj


def strand_components(tri, w, c):
    """(open chains, closed loop count) of the strand system.

    Each chain is reported as the pair of corners holding its endpoints.
    """
    segments = _strand_segments(tri, w, c)
    adj = _segment_adjacency(segments)
    used = [False] * len(segments)
    chains = []
    for idx, seg in enumerate(segments):
        if used[idx] or seg[5] != "vertex":
            continue
        used[idx] = True
        first = seg[4]
        point = seg[0]
        while True:
            nidx = next((i for i in adj[point] if not used[i]), None)
            if nidx is None:
                raise NotAnArc("strand chain breaks at %r" % (point,))
            used[nidx] = True
            nseg = segments[nidx]
            if nseg[5] == "vertex":
                chains.append((first, nseg[4]))
                break
            point = nseg[2] if nseg[0] == point else nseg[0]
    loops = 0
    for idx, seg in enumerate(segments):
        if used[idx]:
            continue
        loops += 1
        used[idx] = True
        stop = seg[0]
        point = seg[2]
        while point != stop:
            nidx = next((i for i in adj[point] if not used[i]), None)
            if nidx is None:
                raise NotAnArc("strand loop breaks at %r" % (point,))
            used[nidx] = True
            nseg = segments[nidx]
            point = nseg[2] if nseg[0] == point else nseg[0]
    return chains, loops


def arc_walk(tri, w, c):
    """Ordered steps of a validated single arc, endpoint to endpoint.

    Steps are ("cross", edge label, leaving slot) and ("corner", (t, k));
    the leaving slot drives sheet bookkeeping when walking in a cover.
    """
    segments = _strand_segments(tri, w, c)
    adj = _segment_adjacency(segments)
    start = min(i for i, s in enumerate(segments) if s[5] == "vertex")
    used = {start}
    point, slot = segments[start][0], segments[start][1]
    steps = []
    while True:
        steps.append(("cross", point[0], slot))
        nidx = next(i for i in adj[point] if i not in used)
        used.add(nidx)
        nseg = segments[nidx]
        if nseg[5] == "vertex":
            return steps
        steps.append(("corner", nseg[4]))
        if nseg[0] == point:
            point, slot = nseg[2], nseg[3]
        else:
            point, slot = nseg[0], nseg[1]


# ---- punctures and pieces by union-find ----

class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)

    def classes(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in groups.values()]


def pieces_union_find(glued):
    """The number of connected pieces of a slot table, by merging the two
    triangles of every gluing."""
    uf = _UnionFind(range(len(glued) // 3))
    for idx, (u, _) in enumerate(glued):
        uf.union(idx // 3, u)
    return len(uf.classes())


def punctures_union_find(tri):
    """The puncture orbits of a triangulation, sorted, by merging the two
    pairs of corners that every edge identifies."""
    uf = _UnionFind((t, k) for t in range(tri.num_triangles)
                    for k in range(3))
    for (t, a), (u, b) in tri.edges.values():
        uf.union((t, a), (u, (b + 1) % 3))
        uf.union((t, (a + 1) % 3), (u, b))
    return tuple(sorted(tuple(g) for g in uf.classes()))


# ---- corpus by canonicalising every word ----

_SWAP = str.maketrans("RL", "LR")


def canonical_word(word):
    """Largest rotation of the word or its letter swap, R sorting high."""
    best = None
    for w in (word, word.translate(_SWAP)):
        for i in range(len(w)):
            rot = w[i:] + w[:i]
            if best is None or rot > best:
                best = rot
    return best


def corpus_rotations(max_len):
    """cusplab.cli.corpus by canonicalising all 2^n words of each length.

    Every word with both letters, by its bit pattern, is sent to its
    canonical_word; the distinct results, sorted by length then
    lexicographically.
    """
    if max_len < 2:
        raise ValueError("corpus needs max_len >= 2")
    seen = set()
    for n in range(2, max_len + 1):
        # bit patterns 1 .. 2^n - 2 always contain both letters
        for bits in range(1, 2 ** n - 1):
            word = "".join("R" if (bits >> (n - 1 - i)) & 1 else "L"
                           for i in range(n))
            seen.add(canonical_word(word))
    return sorted(seen, key=lambda w: (len(w), w))


# ---- lemma checks with one Generator call per draw ----

def _random_tangent_lengths(rng):
    # tangent_lengths of a random disjoint pair: occasionally put one ball
    # at infinity, and redraw while tangent_lengths refuses the pair as
    # overlapping, so the geometry calls are the CLI's, one per attempt
    while True:
        if rng.integers(6) == 0:
            h1 = geometry.Horoball(math.inf, float(rng.uniform(0.1, 5.0)))
        else:
            c1 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            h1 = geometry.Horoball(c1, float(rng.uniform(0.05, 3.0)))
        c2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        h2 = geometry.Horoball(c2, float(rng.uniform(0.05, 3.0)))
        if h1.center == math.inf or abs(h1.center - h2.center) > 1e-12:
            try:
                return geometry.tangent_lengths(h1, h2)
            except OverlappingHoroballs:
                pass


def _tangent_check(config, rng):
    sqrt2 = math.sqrt(2.0)
    worst_l1 = math.inf
    worst_l2 = 0.0
    violations = 0
    for _ in range(config.samples):
        l1, l2 = _random_tangent_lengths(rng)
        worst_l1 = min(worst_l1, l1)
        worst_l2 = max(worst_l2, l2)
        if l1 < geometry.TANGENT_MIN - TANGENT_TOL:
            violations += 1
        if l2 > sqrt2 + TANGENT_TOL:
            violations += 1

    equality_error = 0.0
    tangent_cases = [(geometry.Horoball(math.inf, 1.0),
                      geometry.Horoball(0j, 1.0))]
    for _ in range(50):
        d1 = float(rng.uniform(0.05, 3.0))
        d2 = float(rng.uniform(0.05, 3.0))
        shift = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        gap = math.sqrt(d1 * d2) * (1.0 + 1e-12)
        tangent_cases.append((geometry.Horoball(shift, d1),
                              geometry.Horoball(shift + gap, d2)))
    for h1, h2 in tangent_cases:
        l1, l2 = geometry.tangent_lengths(h1, h2)
        equality_error = max(equality_error,
                             abs(l1 - geometry.TANGENT_MIN),
                             abs(l2 - sqrt2))
    if equality_error > TANGENT_TOL:
        violations += 1

    return {"name": "tangent-bounds",
            "samples": config.samples,
            "tolerance": TANGENT_TOL,
            "min_l1": worst_l1,
            "min_l1_bound": geometry.TANGENT_MIN,
            "max_l2": worst_l2,
            "max_l2_bound": sqrt2,
            "equality_error": equality_error,
            "violations": violations,
            "status": "PASS" if violations == 0 else "VIOLATION"}


def _cone_check(config, rng):
    violations = 0
    worst = math.inf
    for _ in range(config.cone_samples):
        params = geometry.ConeCuspParams(
            base_area=float(rng.uniform(0.1, 5.0)),
            cone_excess=float(rng.uniform(0.0, 2.0 * math.pi)),
            x_v=float(rng.uniform(0.0, 3.0)))
        x = float(rng.uniform(0.0, 4.0))
        d = float(rng.uniform(0.0, 3.0))
        small = geometry.cone_cusp_area(params, x)
        grown = geometry.cone_cusp_area(params, x + d)
        margin = grown - math.exp(d) * small
        worst = min(worst, margin / grown)
        if margin < -CONE_TOL * grown:
            violations += 1
    return {"name": "cone-growth",
            "samples": config.cone_samples,
            "tolerance": CONE_TOL,
            "worst_relative_margin": worst,
            "violations": violations,
            "status": "PASS" if violations == 0 else "VIOLATION"}


def lemma_checks_scalar(config):
    """The two lemma-suite checks of a RunConfig, one Generator call per draw.

    Returns the ``checks`` list of the lemma-suite report.
    """
    rng = np.random.default_rng(config.seed)
    return [_tangent_check(config, rng), _cone_check(config, rng)]


# ---- verify-thm14 report through the csv writer ----

def thm14_csv(config, reports):
    """The verify-thm14 CSV of a RunConfig and its CuspReports.

    Every row goes through ``csv.writer``, each margin list sorted per
    report.
    """
    buf = io.StringIO()
    buf.write("# cusplab verify-thm14 schema %d\n" % SCHEMA)
    buf.write("# versions: %s" % _json_text(_versions()))
    buf.write("# config: %s" % _json_text(config.to_json()))
    writer = csv.writer(buf, lineterminator="\n")
    header = ["word", "area", "longitude", "height"]
    header += ["d%d" % n for n in range(1, config.n_max + 1)]
    header += ["stable_upper", "margins", "flags"]
    writer.writerow(header)
    for rep in reports:
        margins = ";".join("%s=%r" % (k, rep.margins[k])
                           for k in sorted(rep.margins))
        row = [rep.word, repr(rep.cusp_area), repr(rep.longitude),
               repr(rep.height)]
        row += [str(rep.d_psi_n[n]) for n in range(1, config.n_max + 1)]
        row += [repr(rep.stable_upper), margins, ";".join(rep.flags)]
        writer.writerow(row)
    return buf.getvalue()


# ---- flips, mirrors and relabelings through slot-keyed dicts ----

def _from_slot_dicts(tri, glued, labels, preferred):
    # the dicts read back in slot order, through the validating constructor
    order = [(w, s) for w in range(tri.num_triangles) for s in range(3)]
    return IdealTriangulation(
        tuple(glued[s] for s in order), name=tri.name, preferred=preferred,
        edge_of_slot=tuple(labels[s] for s in order))


def flip_dicts(tri, e):
    """tri.flip(e): the four sides moved by hand, the new diagonal glued
    across (t, 2) and (u, 2) under a fresh label."""
    if e not in tri.edges:
        raise NotFlippable("no edge labelled %r" % (e,))
    (t, a), (u, b) = tri.edges[e]
    if t == u:
        raise NotFlippable("edge %d has triangle %d on both sides" % (e, t))
    fresh = max(tri.edges) + 1
    A = (t, (a + 2) % 3)
    B = (u, (b + 1) % 3)
    C = (u, (b + 2) % 3)
    D = (t, (a + 1) % 3)
    moves = {A: (t, 0), B: (t, 1), C: (u, 0), D: (u, 1)}
    glued = {}
    labels = {}
    for w in range(tri.num_triangles):
        if w in (t, u):
            continue
        for s in range(3):
            p = tri.glued_slot(w, s)
            glued[(w, s)] = moves.get(p, p)
            labels[(w, s)] = tri.edge_label(w, s)
    for side, ns in moves.items():
        p = tri.glued_slot(*side)
        glued[ns] = moves.get(p, p)
        labels[ns] = tri.edge_label(*side)
    glued[(t, 2)] = (u, 2)
    glued[(u, 2)] = (t, 2)
    labels[(t, 2)] = fresh
    labels[(u, 2)] = fresh
    record = FlipRecord(edge=e, new_edge=fresh, old_slots=((t, a), (u, b)),
                        sides={"A": tri.edge_label(*A),
                               "B": tri.edge_label(*B),
                               "C": tri.edge_label(*C),
                               "D": tri.edge_label(*D)})
    corner_map = {(t, (a + 2) % 3): (t, 0),
                  (t, a): (t, 1), (u, (b + 1) % 3): (t, 1),
                  (u, (b + 2) % 3): (t, 2),
                  (t, (a + 1) % 3): (u, 1), (u, b): (u, 1)}
    old_pref = tri.punctures[tri.preferred][0]
    return (_from_slot_dicts(tri, glued, labels,
                             corner_map.get(old_pref, old_pref)), record)


def mirrored_dicts(tri):
    """tri.mirrored(): slot s of every triangle becomes slot 2 - s."""
    glued = {}
    labels = {}
    for t in range(tri.num_triangles):
        for s in range(3):
            u, b = tri.glued_slot(t, s)
            glued[(t, 2 - s)] = (u, 2 - b)
            labels[(t, 2 - s)] = tri.edge_label(t, s)
    t0, k0 = tri.punctures[tri.preferred][0]
    return _from_slot_dicts(tri, glued, labels, (t0, _REFLECT[k0]))


def apply_dicts(relab, tri):
    """relab.apply(tri): every slot and its partner sent through the
    relabeling."""
    glued = {}
    labels = {}
    for t in range(tri.num_triangles):
        for s in range(3):
            ns = relab.slot_image(t, s)
            glued[ns] = relab.slot_image(*tri.glued_slot(t, s))
            labels[ns] = tri.edge_label(t, s)
    t0, k0 = tri.punctures[tri.preferred][0]
    return _from_slot_dicts(tri, glued, labels, relab.corner_image(t0, k0))


def find_relabelings_propagate(tri, target, match_labels=True,
                               match_preferred=False):
    """find_relabelings by propagating each of the 3T seed flags across
    the gluings, then building and comparing every candidate's image."""
    out = []
    T = tri.num_triangles
    if T != target.num_triangles:
        return out
    for t0 in range(T):
        for r0 in range(3):
            perm = {0: t0}
            rot = {0: r0}
            queue = [0]
            ok = True
            while queue and ok:
                x = queue.pop()
                for s in range(3):
                    y, b = tri.glued_slot(x, s)
                    iy, ib = target.glued_slot(perm[x], (s + rot[x]) % 3)
                    if y in perm:
                        if (perm[y], (b + rot[y]) % 3) != (iy, ib):
                            ok = False
                            break
                    else:
                        perm[y] = iy
                        rot[y] = (ib - b) % 3
                        queue.append(y)
            if not ok or len(perm) < T:
                continue
            cand = Relabeling(tuple(perm[t] for t in range(T)),
                              tuple(rot[t] for t in range(T)))
            image = apply_dicts(cand, tri)
            if image._glued != target._glued:
                continue
            if match_labels and image._edge_of_slot != target._edge_of_slot:
                continue
            if match_preferred and image.preferred != target.preferred:
                continue
            out.append(cand)
    return sorted(out, key=lambda r: (r.perm, r.rot))


# ---- closed forms that no computation reads ----

# density of the optimal disk packing of the euclidean plane
PACKING = 2.0 * sqrt(3.0) / pi


def drift_bound(arc_length):
    """Height change along a geodesic re-entering a cusp neighborhood.

    Crossing between tangency configurations costs at most sqrt(2)
    vertically; otherwise the crossing runs within a tangent segment of the
    arc, giving (arc_length - ln(3 + 2 sqrt(2)) + 2 sqrt(2)) / 2, which is
    arc_length/2 + 0.5328... .  Monotone non-decreasing in arc_length.
    """
    return max(sqrt(2.0),
               0.5 * (arc_length - TANGENT_MIN + 2.0 * sqrt(2.0)))


def shadow_radius(chi):
    """Radius of the boundary shadow of a deep point, sqrt(2)/(8 pi^2 chi^2)."""
    if chi >= 0:
        raise NonNegativeChi("need chi < 0, got %r" % (chi,))
    return sqrt(2.0) / (8.0 * pi * pi * chi * chi)


def packing_area_lower(num_disks, radius):
    """Area needed to pack disjoint disks, 2 sqrt(3) n r^2.

    The optimal plane packing has density 2 sqrt(3)/pi, so n disks of radius
    r occupy at least (2 sqrt(3)/pi) n pi r^2.
    """
    return 2.0 * sqrt(3.0) * num_disks * radius * radius
