"""Hyperbolic structure of once-punctured-torus bundles.

A pseudo-Anosov word over {L, R} determines a mapping torus fibering over
the circle with once-punctured-torus fiber.  Layering one ideal tetrahedron
per letter between consecutive diagonal flips of the fiber triangulation,
then closing up through the monodromy, yields the standard ideal
triangulation of the bundle.  This module builds that triangulation, writes
Thurston's gluing equations in logarithmic form, solves them by a damped
Newton iteration, and measures the cusp: the translation lattice of the
boundary torus, the length of the fiber boundary (the longitude), and the
maximal horoball neighborhood.

The gluing equations are integer data fixed by the triangulation.  The
edge rows are an integer matrix over the log-parameters, and the
completeness row is one signed monomial (-1)^s prod z_i^a_i (1 - z_i)^b_i,
read off once by developing the cusp torus symbolically; so a residual is
an array expression in log z and log(1 - z) and never develops the cusp.
The system of the default base corner is built once per triangulation and
cached on it; gluing_system, cusp_cross_section and maximal_cusp share it,
and any other base builds its own.  The solver keeps the principal branch
and a forward-difference Jacobian; solve_shapes says why.

Plane bookkeeping.  The fiber is R^2/Z^2 minus the lattice, triangulated by
two triangles with edge directions u, v, u + v.  The letter R flips the
u-edge and replaces u by u + v; the letter L flips the v-edge and replaces
v by u + v.  Either flip spans an ideal tetrahedron whose two bottom faces
lie in the old triangulation and whose two top faces lie in the new one.
Faces are identified with lattice triangles up to translation, and the top
of the last layer is carried onto the bottom of the first by the inverse of
the monodromy acting on the plane.
"""

import cmath
import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .errors import (DegenerateShape, Diverged, MaxIterations, NotPseudoAnosov,
                     NotSolved, NumericalError)
from .farey import word_to_matrix

__all__ = [
    "LayeredTriangulation", "ShapeVector", "CuspCrossSection", "GluingSystem",
    "layered_triangulation", "gluing_system", "solve_shapes",
    "cusp_cross_section", "maximal_cusp",
    "tetrahedron_volume", "total_volume", "bundle_report",
]


# ---- layered triangulation ----------------------------------------------

def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _neg(p):
    return (-p[0], -p[1])


# The vertex order (v0, v1, v2, v3) realizes the flip quadrilateral
# (a, b, c, d), counterclockwise in the plane, as (a, c, b, d): the two
# quad diagonals are then the opposite edge pairs {0,1} (new, top) and
# {2,3} (old, bottom).  Faces are named by the omitted vertex, so faces
# 0 and 1 are the bottom pair and faces 2 and 3 are the top pair.
_FACE = {r: tuple(m for m in range(4) if m != r) for r in range(4)}

# Opposite edges carry equal dihedral parameters: index 0 is z itself on
# the diagonal pair, 1 is 1/(1-z), 2 is (z-1)/z.  The three multiply to -1
# and their principal logarithms sum to pi*i whenever Im z > 0.
_PAIR = {}
for _k, _pairs in enumerate((((0, 1), (2, 3)),
                             ((0, 2), (1, 3)),
                             ((0, 3), (1, 2)))):
    for _p in _pairs:
        _PAIR[frozenset(_p)] = _k


@dataclass(frozen=True)
class _Tet:
    """One layer: the tetrahedron spanned by a single diagonal flip."""
    letter: str
    verts: tuple  # four plane points in (v0, v1, v2, v3) order


# Walking once around the fiber puncture crosses the corners of the two
# bottom faces of the first layer in a fixed cyclic order.  Entries are
# (face, vertex) pairs of tetrahedron 0; the order depends on its letter.
_PUNCTURE_WALK = {
    "R": ((0, 3), (1, 0), (0, 2), (1, 2), (0, 1), (1, 3)),
    "L": ((1, 0), (0, 2), (1, 2), (0, 1), (1, 3), (0, 3)),
}


@dataclass(frozen=True)
class LayeredTriangulation:
    """Ideal triangulation of a once-punctured-torus bundle.

    One tetrahedron per monodromy letter.  ``gluings`` maps a face handle
    (tet, omitted vertex) to (other tet, other face, vertex bijection);
    ``degrees`` records the winding of each gluing around the fiber
    direction (+1 crossing the monodromy closure upward, -1 downward, 0
    inside the stack).  ``edge_classes`` partitions the 6n tetrahedron
    edges (tet, vertex pair) into the edges of the glued manifold, and
    ``fiber_boundary_class`` lists the face corners of tetrahedron 0 that
    a loop around the fiber puncture crosses, in cyclic order: the
    peripheral class of the fiber boundary (the longitude).
    """
    word: str
    tetrahedra: tuple
    gluings: dict
    degrees: dict
    edge_classes: tuple
    fiber_boundary_class: tuple

    @property
    def num_tetrahedra(self):
        return len(self.tetrahedra)

    @cached_property
    def _system(self):
        # the GluingSystem at the default base corner, built on first use
        # and shared by gluing_system, cusp_cross_section and maximal_cusp
        return GluingSystem(self)


def layered_triangulation(word):
    """Build the layered triangulation of the bundle with monodromy ``word``.

    Raises NotPseudoAnosov for single-letter words (parabolic monodromy),
    EmptyWord for "", and ValueError on characters outside {L, R}.
    """
    mono = word_to_matrix(word)
    if not mono.is_pseudo_anosov:
        raise NotPseudoAnosov("monodromy %r is not pseudo-Anosov" % word)

    u, v = (1, 0), (0, 1)
    tets = []
    for letter in word:
        w = _add(u, v)
        if letter == "R":
            tets.append(_Tet(letter, (_neg(v), w, u, (0, 0))))
            u = w
        else:
            tets.append(_Tet(letter, (_neg(u), w, (0, 0), v)))
            v = w

    (a, b), (c, d) = mono.matrix

    def unwind(p):
        # inverse monodromy on plane vectors (q, p); carries the top of the
        # last layer back onto the bottom of the first
        return (a * p[0] - c * p[1], -b * p[0] + d * p[1])

    n = len(tets)
    gluings = {}
    degrees = {}
    for i, tet in enumerate(tets):
        j = (i + 1) % n
        wrap = (j == 0)
        bottoms = {}
        for r in (0, 1):
            pts = [tets[j].verts[m] for m in _FACE[r]]
            base = min(pts)
            key = tuple(sorted(_sub(q, base) for q in pts))
            bottoms[key] = (r, {_sub(q, base): m
                                for q, m in zip(pts, _FACE[r])})
        for r in (2, 3):
            pts = [tet.verts[m] for m in _FACE[r]]
            if wrap:
                pts = [unwind(q) for q in pts]
            base = min(pts)
            key = tuple(sorted(_sub(q, base) for q in pts))
            if key not in bottoms:
                raise NumericalError("layer %d does not stack onto layer %d"
                                     % (i, j))
            r2, where = bottoms[key]
            sigma = {m: where[_sub(q, base)]
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

    walk = tuple((0, r, m) for r, m in _PUNCTURE_WALK[word[0]])
    return LayeredTriangulation(word, tuple(tets), gluings, degrees,
                                edge_classes, walk)


# ---- shapes and gluing equations ----------------------------------------

@dataclass(frozen=True)
class ShapeVector:
    """Tetrahedron shapes, one point of the upper half plane per layer."""
    shapes: tuple

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.shapes)
        if not zs:
            raise DegenerateShape("a shape vector needs at least one entry")
        for z in zs:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DegenerateShape("shape %r is not finite" % (z,))
            if z.imag <= 0.0:
                raise DegenerateShape("shape %r has left the upper half plane"
                                      % (z,))
            if abs(z) < 1e-14 or abs(z - 1) < 1e-14:
                raise DegenerateShape("shape %r sits on a degenerate point"
                                      % (z,))
        object.__setattr__(self, "shapes", zs)

    def __len__(self):
        return len(self.shapes)

    def __iter__(self):
        return iter(self.shapes)

    def __getitem__(self, k):
        return self.shapes[k]


def _shape_array(shapes):
    if isinstance(shapes, ShapeVector):
        return np.array(shapes.shapes, dtype=complex)
    return np.array(ShapeVector(tuple(shapes)).shapes, dtype=complex)


def _corner(z, k, m):
    p = _PAIR[frozenset((k, m))]
    if p == 0:
        return z
    if p == 1:
        return 1.0 / (1.0 - z)
    return (z - 1.0) / z


# A monomial (s, terms) over n tetrahedra stands for the function
# (-1)^s prod z_i^a_i (1 - z_i)^b_i of the shapes.  ``terms`` lists
# (column, exponent) pairs, column i for z_i and n + i for 1 - z_i, with
# repeats adding up; multiplying monomials concatenates their terms.
# Every developed cusp side is the root side times a monomial.

def _corner_monomials(i, k, m, n):
    # the corner parameter w at vertex k towards m, and w - 1
    z, w = i, n + i
    p = _PAIR[frozenset((k, m))]
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


def _cyc(k):
    # cyclic order of the cusp triangle at vertex k; odd vertices reverse
    # orientation relative to even ones
    rest = tuple(m for m in range(4) if m != k)
    return rest if k % 2 == 0 else rest[::-1]


class GluingSystem:
    """Logarithmic gluing equations of a layered triangulation.

    One equation per edge class (the dihedral log-parameters around the
    class sum to 2*pi*i) plus one completeness equation: the log of the
    derivative rho of a fixed peripheral loop with nonzero winding around
    the fiber direction.  The edge equations carry one redundancy (their
    sum is 2*pi*i times the number of edges for any upper-half-plane
    shapes), so Newton steps go through least squares.

    Both kinds of row are fixed integer data, built once.  ``edge_matrix``
    holds the edge rows over the 3n log-parameters (log z_i, then
    log 1/(1 - z_i), then log (z_i - 1)/z_i).  Developing the cusp torus
    from its root corner makes every cusp side the root side times a
    signed monomial (-1)^s prod z_i^a_i (1 - z_i)^b_i, because each corner
    parameter and each corner parameter less one is such a monomial
    (Neumann-Zagier, Topology 24 (1985)).  So rho is a fixed monomial and
    the completeness row is a.log z + b.log(1 - z) + i*pi*s with its
    imaginary part wrapped into (-pi, pi]: the principal log of rho, to
    rounding, with no development at all.

    Branches are fixed once and for all: every dihedral parameter of an
    upper-half-plane shape has argument in (0, pi), so the principal
    logarithm is the correct branch of the edge rows throughout the
    iteration and is never recomputed.  The completeness row stays on the
    principal branch too, even where rho crosses the negative real axis:
    solve_shapes says why.

    ``base`` is the (tetrahedron, vertex) corner at the root of the
    development.  The system of the default base (0, 0) is cached on its
    triangulation and returned by gluing_system; a system for any other
    base is built afresh each time.
    """

    def __init__(self, triangulation, base=(0, 0)):
        self.triangulation = triangulation
        n = triangulation.num_tetrahedra
        rows = [[0] * (3 * n) for _ in triangulation.edge_classes]
        for row, cls in zip(rows, triangulation.edge_classes):
            for i, edge in cls:
                row[_PAIR[frozenset(edge)] * n + i] += 1
        self.edge_matrix = np.array(rows, dtype=np.int64)
        self._build_cusp_graph(base)
        self._sign, terms = self._completeness_monomial()
        # every row as one column over the 3n log-parameters; the
        # completeness column reads b.log(1 - z) as -b times log 1/(1 - z)
        complete = np.zeros(3 * n)
        for c, e in terms:
            complete[c] += e if c < n else -e
        self._columns = np.column_stack(
            (self.edge_matrix.T, complete)).astype(complex)

    @property
    def num_equations(self):
        return len(self.edge_matrix) + 1

    def _build_cusp_graph(self, root):
        # The cusp cross section is a torus tiled by one triangle per
        # (tetrahedron, vertex).  Build a spanning tree of its dual graph;
        # the loops closed by the remaining sides generate the peripheral
        # group, each with an integer winding around the fiber direction.
        t = self.triangulation
        glu = t.gluings
        parent = {root: None}
        winding = {root: 0}
        order = [root]
        queue = deque([root])
        seen_sides = set()
        nontree = []
        while queue:
            node = queue.popleft()
            i, k = node
            for r in range(4):
                if r == k:
                    continue
                if (i, k, r) in seen_sides:
                    continue
                j, r2, sigma = glu[(i, r)]
                other = (j, sigma[k])
                seen_sides.add((i, k, r))
                seen_sides.add((j, sigma[k], r2))
                if other not in winding:
                    winding[other] = winding[node] + t.degrees[(i, r)]
                    parent[other] = (node, r)
                    order.append(other)
                    queue.append(other)
                else:
                    deg = winding[node] + t.degrees[(i, r)] - winding[other]
                    nontree.append(((i, k, r), (j, sigma[k], r2), deg))
        if len(order) != 4 * t.num_tetrahedra:
            raise NumericalError("cusp cross section is not connected")
        self._order = tuple(order)
        self._parent = parent
        self._nontree = tuple(nontree)
        candidates = [x for x in nontree if x[2] != 0]
        if not candidates:
            raise NumericalError("no peripheral loop winds around the fiber")
        self._complete = min(candidates, key=lambda x: (abs(x[2]), x[0]))

    def _completeness_monomial(self):
        # Replays _develop on monomials, along the tree paths from the root
        # to the two triangles of the completeness side only.
        # frame[node] = (a, b, c, mono): the side a -> b of the node's
        # triangle is mono times the root side, the side a -> c is w_a
        # times that and b -> c is w_a - 1 times it, where w_a is the
        # corner parameter at a.
        glu = self.triangulation.gluings
        n = self.triangulation.num_tetrahedra
        one = (0, ())
        root = self._order[0]
        cy = _cyc(root[1])
        frame = {root: (cy[0], cy[1], cy[2], one)}

        def place(node):
            prev, r = self._parent[node]
            sigma = glu[(prev[0], r)][2]
            shared = {sigma[m]: m for m in _FACE[r] if m != prev[1]}
            cy = _cyc(node[1])
            ti = next(x for x in range(3) if cy[x] not in shared)
            a, b = cy[(ti + 1) % 3], cy[(ti + 2) % 3]
            frame[node] = (a, b, cy[ti], side(prev, shared[a], shared[b]))

        def side(node, m1, m2):
            path = []
            up = node
            while up not in frame:
                path.append(up)
                up = self._parent[up][0]
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

        (i, k, r), (j, k2, _), _ = self._complete
        sigma = glu[(i, r)][2]
        m1, m2 = (m for m in _FACE[r] if m != k)
        return _mono_div(side((i, k), m1, m2),
                         side((j, k2), sigma[m1], sigma[m2]))

    def _develop(self, zs):
        # Similarity development of the cusp torus in C, rooted at the
        # reference corner.  Positions are indexed by the opposite vertex:
        # pos[(i, k)][m] is the end of tetrahedron edge {k, m} at vertex k.
        glu = self.triangulation.gluings
        pos = {}
        i0, k0 = self._order[0]
        cy = _cyc(k0)
        pos[(i0, k0)] = {cy[0]: 0j, cy[1]: 1 + 0j,
                         cy[2]: _corner(zs[i0], k0, cy[0])}
        for node in self._order[1:]:
            prev, r = self._parent[node]
            i, k = prev
            j, r2, sigma = glu[(i, r)]
            k2 = node[1]
            p = pos[prev]
            known = {}
            for m in _FACE[r]:
                if m != k:
                    known[sigma[m]] = p[m]
            cy = _cyc(k2)
            missing = next(m for m in cy if m not in known)
            ti = cy.index(missing)
            a_idx = cy[(ti + 1) % 3]
            b_idx = cy[(ti + 2) % 3]
            w = _corner(zs[j], k2, a_idx)
            known[missing] = known[a_idx] + w * (known[b_idx] - known[a_idx])
            pos[node] = known
        return pos

    def _side_holonomy(self, pos, side, other_side):
        # Affine map rewriting the tree placement of the far triangle into
        # the placement demanded by this side; complete structures make
        # every such derivative equal to 1.
        i, k, r = side
        j, k2, r2 = other_side
        sigma = self.triangulation.gluings[(i, r)][2]
        m1, m2 = (m for m in _FACE[r] if m != k)
        p = pos[(i, k)]
        q = pos[(j, k2)]
        rho = (p[m2] - p[m1]) / (q[sigma[m2]] - q[sigma[m1]])
        return rho, p[m1] - rho * q[sigma[m1]]

    def _evaluate(self, zs):
        # Residuals of one shape vector (shape (n,)) or of a stack of them
        # (shape (m, n), one residual row each); no validation.
        logs = np.concatenate((np.log(zs), -np.log(1.0 - zs),
                               np.log((zs - 1.0) / zs)), axis=-1)
        out = logs @ self._columns
        out[..., :-1] -= 2j * math.pi
        # principal branch: Im of the completeness row plus pi*s, wrapped
        # into (-pi, pi]
        last = out[..., -1]
        last.imag = math.pi - np.mod(
            math.pi * (1 - self._sign) - last.imag,
            2.0 * math.pi)
        return out

    def residual(self, shapes):
        """Equation residuals at the given shapes, edge rows first."""
        return self._evaluate(_shape_array(shapes))

    def holonomies(self, shapes):
        """(winding, derivative, translation) for each generating loop."""
        zs = _shape_array(shapes)
        pos = self._develop(zs)
        out = []
        for side, other_side, deg in self._nontree:
            rho, tr = self._side_holonomy(pos, side, other_side)
            out.append((deg, rho, tr))
        return out

    def developed_area(self, shapes):
        """Total euclidean area of the developed cusp triangles."""
        zs = _shape_array(shapes)
        total = 0.0
        for node, p in self._develop(zs).items():
            cy = _cyc(node[1])
            u = p[cy[1]] - p[cy[0]]
            w = p[cy[2]] - p[cy[0]]
            total += 0.5 * abs((u.conjugate() * w).imag)
        return total


def gluing_system(triangulation):
    """The gluing and completeness equations of a layered triangulation.

    The system is built once per triangulation and cached on it, so
    repeated calls return the same object.
    """
    return triangulation._system


def _failure(system, step, z, what):
    worst = int(np.argmin(z.imag))
    return ("word %r, Newton step %d: %s; worst tetrahedron %d has shape %r"
            % (system.triangulation.word, step, what, worst,
               complex(z[worst])))


def solve_shapes(system, init=None, tol=1e-12):
    """Solve the gluing system by damped Newton iteration.

    ``init`` may be a ShapeVector, an iterable of complex numbers, the
    string "i" (every shape at i, the default) or "regular" (every shape
    at the hexagonal point (1 + i*sqrt(3))/2).  Shapes are kept in the
    open upper half plane; steps are halved until the residual drops.
    Raises DegenerateShape when flattening tetrahedra block all progress,
    Diverged when no step length helps, MaxIterations past the cap; the
    message names the word, the Newton step and the worst tetrahedron
    (the smallest Im z) with its shape.  An already solved input returns
    immediately.

    The Jacobian is a forward difference with step h = 1e-7, its n
    columns evaluated in one vectorised call on the shape array z + h*I.
    It stays a forward difference on the principal branch on purpose.
    From the start z = i, the completeness derivative rho of many words
    lies on the negative real axis, the principal log's branch cut.  A
    column that straddles the cut has an entry near 2*pi/h and steers the
    first step, and the iteration's outcome depends on it: an analytic
    Jacobian, or a branch fixed once at z = i, loses words that this
    iteration solves.  A different start point is the place to change
    the derivative.
    """
    n = system.triangulation.num_tetrahedra
    if init is None or (isinstance(init, str) and init == "i"):
        z = np.full(n, 1j, dtype=complex)
    elif isinstance(init, str) and init == "regular":
        z = np.full(n, complex(0.5, math.sqrt(3.0) / 2.0), dtype=complex)
    elif isinstance(init, str):
        raise ValueError("unknown initial guess %r" % init)
    else:
        seed = init.shapes if isinstance(init, ShapeVector) else tuple(init)
        z = _shape_array(seed)
        if len(z) != n:
            raise ValueError("expected %d shapes, got %d" % (n, len(z)))

    floor = 1e-13
    f = system.residual(z)
    worst = float(np.max(np.abs(f)))
    if worst < tol:
        return ShapeVector(tuple(z))

    size = float(np.linalg.norm(f))
    h = 1e-7
    shift = h * np.eye(n)
    for it in range(1, 51):
        jac = ((system._evaluate(z + shift) - f) / h).T
        step = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not np.all(np.isfinite(step)):
            raise Diverged(_failure(system, it, z,
                                    "Newton step is not finite"))
        t = 1.0
        flattened = False
        while True:
            z2 = z + t * step
            if np.min(z2.imag) <= floor:
                flattened = True
            else:
                f2 = system.residual(z2)
                if np.all(np.isfinite(f2)):
                    size2 = float(np.linalg.norm(f2))
                    if size2 < size or np.max(np.abs(f2)) < tol:
                        z, f, size = z2, f2, size2
                        break
            t *= 0.5
            if t < 1e-12:
                if flattened:
                    raise DegenerateShape(_failure(
                        system, it, z, "shapes collapse onto the real line"))
                raise Diverged(_failure(
                    system, it, z, "step halving cannot reduce the residual"))
        worst = float(np.max(np.abs(f)))
        if worst < tol:
            return ShapeVector(tuple(z))
    raise MaxIterations(_failure(system, 50, z,
                                 "no convergence within 50 Newton steps"))


# ---- volume --------------------------------------------------------------

def _lobachevsky(theta):
    # -integral_0^theta log|2 sin t| dt.  The reflection L(pi - t) = -L(t)
    # moves the range onto (0, pi/2]; there the logarithmic singularity is
    # integrated in closed form and the smooth remainder goes to quad.
    if theta > math.pi / 2.0:
        return -_lobachevsky(math.pi - theta)
    if theta <= 0.0:
        return 0.0

    def smooth(s):
        if s == 0.0:
            return math.log(2.0)
        return math.log(2.0 * math.sin(s) / s)

    rest = quad(smooth, 0.0, theta, epsabs=1e-13, epsrel=1e-13)[0]
    return -(theta * (math.log(theta) - 1.0) + rest)

def tetrahedron_volume(shape):
    """Volume of the ideal tetrahedron with the given upper-half shape."""
    z = complex(shape)
    if z.imag <= 0.0:
        raise DegenerateShape("shape %r has no volume" % (z,))
    angles = (cmath.phase(z), cmath.phase(1.0 / (1.0 - z)),
              cmath.phase((z - 1.0) / z))
    return sum(_lobachevsky(a) for a in angles)


def total_volume(shapes):
    """Volume of the bundle: the sum over its tetrahedra."""
    return sum(tetrahedron_volume(z) for z in _shape_array(shapes))


# ---- cusp cross section --------------------------------------------------

@dataclass(frozen=True)
class CuspCrossSection:
    """Flat data of the cusp torus at one horospherical cut.

    ``translations`` is a basis (mu, lam) of the peripheral lattice where
    lam is the holonomy of the fiber boundary (the longitude) and mu is a
    transverse curve winding once around the fiber direction; mu is only
    canonical modulo lam.  The area is the coarea of the lattice and the
    height is area divided by longitude length, so scaling the cut scales
    lengths linearly and the area quadratically.
    """
    translations: tuple
    area: float
    longitude_length: float
    height: float

    def __post_init__(self):
        mu, lam = (complex(w) for w in self.translations)
        object.__setattr__(self, "translations", (mu, lam))
        object.__setattr__(self, "area", float(self.area))
        object.__setattr__(self, "longitude_length",
                           float(self.longitude_length))
        object.__setattr__(self, "height", float(self.height))
        if not self.area > 0.0:
            raise NumericalError("cusp lattice is degenerate")
        if abs(self.height * self.longitude_length - self.area) \
                > 1e-9 * max(1.0, self.area):
            raise NumericalError("cusp height does not match the area")


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
            raise NumericalError("peripheral translations are not commensurable")
    return g * unit


def _peripheral_basis(holonomies):
    # Integer row reduction on winding degrees: one generator keeps the
    # degree gcd (the transverse curve), the rest fall into the kernel of
    # the winding map, which is spanned by the fiber boundary.
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
        raise NumericalError("winding degrees do not span the fiber direction")
    lam = _primitive_translation([g[1] for g in gens if g[0] == 0], scale)
    mu = transverse[0][1] if transverse[0][0] == 1 else -transverse[0][1]
    return mu, lam


def cusp_cross_section(triangulation, shapes, base=(0, 0)):
    """Cusp torus of a solved triangulation at the reference cut.

    The cut is the horosphere on which the corner triangle of ``base``
    (a tetrahedron and vertex pair) develops with unit first side; with
    the default base this is the cut at euclidean height one over the
    first tetrahedron placed at (infinity, 0, 1, z_0).  Raises NotSolved
    unless the shapes satisfy the gluing and completeness equations to
    about 1e-8.  The default base uses the triangulation's cached
    GluingSystem; any other base builds its own.
    """
    if base == (0, 0):
        system = triangulation._system
    else:
        system = GluingSystem(triangulation, base=base)
    zs = _shape_array(shapes)
    res = system.residual(zs)
    if float(np.max(np.abs(res))) > 1e-8:
        raise NotSolved("shapes leave gluing residual %.3e"
                        % float(np.max(np.abs(res))))
    hol = system.holonomies(zs)
    for _, rho, _ in hol:
        if abs(rho - 1.0) > 1e-6:
            raise NotSolved("peripheral holonomy has derivative %r; "
                            "the structure is incomplete" % (rho,))
    mu, lam = _peripheral_basis(hol)
    area = abs((mu.conjugate() * lam).imag)
    if area <= 1e-12 * abs(mu) * abs(lam):
        raise NumericalError("peripheral translations are linearly dependent")
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# ---- maximal cusp --------------------------------------------------------

def maximal_cusp(triangulation, shapes, depth=8):
    """Cusp cross section at the first self-tangency of the cusp.

    Reads the maximal cusp off the edges of the triangulation: the
    largest horoball diameter D at the reference cut of
    cusp_cross_section is the largest value of h_k h_m below, and the
    maximal cut scales the reference lattice by 1 / sqrt(D), so its area
    is the reference area over D.  ``depth`` is accepted and ignored:
    the computation is exact and has no search depth.  Raises
    NotSolved on unsolved shapes and on a shape outside the upper half
    plane, naming the word and the worst tetrahedron.

    Edge formula.  In a tetrahedron with a vertex k at infinity and the
    cusp cut at height one, an ideal vertex m carries the horoball of
    diameter e^(-delta), delta the signed length of the edge {k, m}
    between the two horoballs.  Penner's lambda-lengths lambda = e^(delta
    / 2) fix the horocyclic sides of each face {k, m, m'}: the cusp
    triangle at k has side h_k = lambda(m m') / (lambda(k m) lambda(k m'))
    across that face, and the one at m has h_m = lambda(k m') /
    (lambda(k m) lambda(m m')).  So h_k h_m = e^(-delta(k m)) is the
    diameter of the ball at m seen from k, with h_k and h_m read from the
    developed cusp triangles: h_k = |pos[(i, k)][m] - pos[(i, k)][m']|
    and h_m = |pos[(i, m)][k] - pos[(i, m)][m']|.

    Why the edges suffice.  With every shape in the upper half plane the
    layered triangulation is the geometric one, and for once-punctured
    torus bundles it is the Epstein-Penner canonical decomposition
    (Lackenby, Comment. Math. Helv. 78 (2003); Gueritaud, Geom. Topol. 10
    (2006)).  As the cusp grows, its first self-tangency is along the
    shortest orthogeodesic from the cusp to itself, which is an edge of
    the canonical decomposition: dual to the face of the Ford domain that
    the largest isometric sphere spans.  So the largest ball over all
    horoball pairs is the largest over the edges.
    """
    zs = [complex(z) for z in shapes]
    worst = min(range(len(zs)), key=lambda i: zs[i].imag, default=None)
    if worst is not None and not zs[worst].imag > 0.0:
        raise NotSolved("word %r: tetrahedron %d has shape %r outside the "
                        "upper half plane, so the edges need not be "
                        "canonical" % (triangulation.word, worst, zs[worst]))
    reference = cusp_cross_section(triangulation, zs)
    pos = triangulation._system._develop(_shape_array(zs))
    diameter = 0.0
    for i in range(triangulation.num_tetrahedra):
        for k, m in itertools.combinations(range(4), 2):
            for m2 in range(4):
                if m2 != k and m2 != m:
                    h_k = abs(pos[(i, k)][m] - pos[(i, k)][m2])
                    h_m = abs(pos[(i, m)][k] - pos[(i, m)][m2])
                    diameter = max(diameter, h_k * h_m)
    h = math.sqrt(diameter)
    mu, lam = reference.translations
    mu, lam = mu / h, lam / h
    area = reference.area / diameter
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# ---- reports -------------------------------------------------------------

def bundle_report(word, tol=1e-12, depth=8, init="i"):
    """Solve a bundle end to end; returns a JSON-ready dictionary.

    ``depth`` is accepted and ignored, as in maximal_cusp.
    """
    t = layered_triangulation(word)
    system = gluing_system(t)
    solved = solve_shapes(system, init=init, tol=tol)
    residual = float(np.max(np.abs(system.residual(solved))))
    cusp = maximal_cusp(t, solved, depth=depth)
    return {
        "word": word,
        "shapes": [[z.real, z.imag] for z in solved],
        "residual": residual,
        "volume": total_volume(solved),
        "cusp_area": cusp.area,
        "longitude": cusp.longitude_length,
        "height": cusp.height,
    }
