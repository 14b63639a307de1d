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
own, and nothing of the ladder or the edge formula.

The developed residual and its Newton loop are the shape solve before the
completeness row became a precomputed monomial: each residual develops the
cusp torus and takes the principal log of the completeness ratio, and each
Jacobian column is its own residual call.  They share the package's cusp
development, which the lattice and area tests check on their own.
"""

import cmath
import math
from math import gcd

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from cusplab.bundle import (_FACE, _PAIR, CuspCrossSection, ShapeVector,
                            cusp_cross_section)
from cusplab.errors import (DegenerateShape, DepthUnstable, Diverged,
                            MaxIterations)
from cusplab.farey import _distance_pq


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
    ladder minimum of cusplab.farey.translation_distance is checked
    against it.
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
        t = triangulation
        n = t.num_tetrahedra
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
            j, _, sigma = t.gluings[(i, 2)]
            src = [base[i][m] for m in _FACE[2]]
            dst = [std[j][sigma[m]] for m in _FACE[2]]
            g = _face_map(src, dst)
            base[j] = tuple(_mapply(g, p) for p in std[j])
        self._base = base
        self._trans = {}
        for (i, r), (j, _, sigma) in t.gluings.items():
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


# ---- developed-ratio shape solve ----

def developed_residual(system, shapes):
    """Gluing residuals of a GluingSystem, the completeness row developed.

    Edge rows sum the principal log-parameters around each edge class;
    the completeness row is the principal log of the derivative of the
    system's completeness loop, read off a full development of the cusp
    torus.  cusplab.bundle.GluingSystem.residual is checked against it.
    """
    zs = np.array(ShapeVector(tuple(shapes)).shapes, dtype=complex)
    logs = (np.log(zs), -np.log(1.0 - zs), np.log((zs - 1.0) / zs))
    classes = system.triangulation.edge_classes
    out = np.empty(len(classes) + 1, dtype=complex)
    for e, cls in enumerate(classes):
        out[e] = sum(logs[_PAIR[frozenset(edge)]][i]
                     for i, edge in cls) - 2j * math.pi
    pos = system._develop(zs)
    rho, _ = system._side_holonomy(pos, system._complete[0],
                                   system._complete[1])
    out[-1] = cmath.log(rho)
    return out


def solve_shapes_developed(system, tol=1e-12):
    """Damped Newton on developed_residual, one residual call per column.

    The same start (every shape at i), forward-difference step, line
    search and tolerances as cusplab.bundle.solve_shapes, which is checked
    against it.
    """
    n = system.triangulation.num_tetrahedra
    z = np.full(n, 1j, dtype=complex)
    floor = 1e-13
    f = developed_residual(system, z)
    if float(np.max(np.abs(f))) < tol:
        return ShapeVector(tuple(z))
    size = float(np.linalg.norm(f))
    h = 1e-7
    for _ in range(50):
        jac = np.empty((len(f), n), dtype=complex)
        for col in range(n):
            zp = z.copy()
            zp[col] += h
            jac[:, col] = (developed_residual(system, zp) - f) / h
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
                f2 = developed_residual(system, z2)
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
