"""Hyperbolic structure of once-punctured-torus bundles.

A pseudo-Anosov word over {L, R} determines a mapping torus fibering over
the circle with once-punctured-torus fiber.  Layering one ideal tetrahedron
per letter between consecutive diagonal flips of the fiber triangulation,
then closing up through the monodromy, yields the standard ideal
triangulation of the bundle.  That triangulation is fixed by the word, so
a LayeredTriangulation holds only the word, and the letter tables below
stand in for its face gluings and edge classes.  This module writes
Thurston's gluing equations in logarithmic form, solves them at the volume
maximum over angle structures, and measures the cusp: the translation
lattice of the boundary torus, the length of the fiber boundary (the
longitude), and the maximal horoball neighborhood.

The cusp is developed with no search: its 4n triangles stack in four
columns, one per tetrahedron vertex (Gueritaud's layered structure), and
one pass up the columns, as the letter tables say, places them all.  The
2n + 1 sides the pass leaves unplaced carry the derivative checks, and
the lattice is read off two named loops.  lam is the fiber boundary: the
walk round the fiber puncture that fiber_boundary_class names, summed
over the developed cusp triangles, so its sign follows their orientation.
mu is column 3's closing, which winds once around the fiber direction,
reduced modulo lam to the shortest vector of its class.

The gluing equations are integer data fixed by the triangulation.  The
edge rows are sparse integer rows over the log-parameters, written by the
same slot walk that names the edge classes, and the completeness row is
read off the word: the column of cusp triangles at vertex 3 climbs the
layers once (_completeness_row says why).  So a residual is an exact sum
(math.fsum) of log z and log(1 - z) terms and never develops the cusp.
The system is built once per triangulation and cached on it;
gluing_system, cusp_cross_section and maximal_cusp share it.

Every layered triangulation of these bundles is geometric (Gueritaud,
Geom. Topol. 10 (2006)), and its complete structure is the maximum of
volume over angle structures (Casson-Rivin).  solve_shapes finds that
maximum by Newton's method on the angles, each step an LDL^T solve in
birth order over the edge rows, and polishes the shapes by Newton steps
on the gluing equations; maximal_cusp takes one product per edge class.
The systems are small and sparse, one tetrahedron per letter, so this
module runs in plain floating-point arithmetic and imports no numpy.

Letter tables.  The fiber triangulation has three edge slots U, V and
W = U + V; R flips U and L flips V, and either flip spans one tetrahedron
with the new diagonal on vertices {0,1}, the old one on {2,3}, bottom faces
0 and 1 and top faces 2 and 3.  The combinatorics depend only on the word.
_STACK says how a layer's top faces glue to the next layer's bottom faces,
given the next letter; the top of the last layer closes onto the bottom of
the first by the same rule, with winding +1 and -1 on the two sides.
_SLOT says which slot each edge of a layer lies on, given its letter; the
slots hold the layers at which their edges were born, so edge class i is
the edge born as tetrahedron i's top diagonal.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (DegenerateShape, Diverged, EmptyWord, MaxIterations,
                     NotPseudoAnosov, NotSolved, NumericalError)

__all__ = [
    "LayeredTriangulation", "ShapeVector", "CuspCrossSection", "GluingSystem",
    "layered_triangulation", "gluing_system", "solve_shapes",
    "cusp_cross_section", "maximal_cusp",
    "tetrahedron_volume", "total_volume", "bundle_report",
]


# ---- layered triangulation ----------------------------------------------

# Each layer's vertex order puts the diagonal its flip creates (the top
# diagonal) on {0,1} and the diagonal it removes (the bottom diagonal) on
# {2,3}.  Faces are named by the omitted vertex, so faces 0 and 1 are the
# bottom pair and faces 2 and 3 are the top pair.
_FACE = {r: tuple(m for m in range(4) if m != r) for r in range(4)}

# Opposite edges carry equal dihedral parameters: index 0 is z itself on
# the diagonal pair, 1 is 1/(1-z), 2 is (z-1)/z.  The three multiply to -1
# and their principal logarithms sum to pi*i whenever Im z > 0.  Keyed by
# the edge's vertex pair in either order.
_PAIR = {}
for _k, _pairs in enumerate((((0, 1), (2, 3)),
                             ((0, 2), (1, 3)),
                             ((0, 3), (1, 2)))):
    for _a, _b in _pairs:
        _PAIR[(_a, _b)] = _PAIR[(_b, _a)] = _k

# The cyclic order of the cusp triangle at vertex k: the other three
# vertices, reversed at odd k, whose triangles have the opposite
# orientation to those at even k.
_CYC = ((1, 2, 3), (3, 2, 0), (0, 1, 3), (2, 1, 0))

# How a layer's top faces glue to the next layer's bottom faces, keyed by
# the next layer's letter: (top face, bottom face, vertex bijection).  The
# top of the last layer closes onto the bottom of the first by the same
# rule.
_STACK = {
    "L": ((2, 0, {0: 2, 1: 1, 3: 3}), (3, 1, {0: 0, 1: 3, 2: 2})),
    "R": ((2, 1, {0: 0, 1: 2, 3: 3}), (3, 0, {0: 3, 1: 1, 2: 2})),
}

# The fiber slot (0 = U, 1 = V, 2 = W = U + V) under the layer that each
# of its edges other than the top diagonal {0,1} lies on, keyed by its
# letter.  The bottom diagonal {2,3} lies on the slot the flip empties, U
# for R and V for L; that slot then takes W's edge, and W takes the top
# diagonal, the edge the layer gives birth to.
_SLOT = {
    "R": {(2, 3): 0, (0, 2): 2, (1, 3): 2, (0, 3): 1, (1, 2): 1},
    "L": {(2, 3): 1, (0, 2): 0, (1, 3): 0, (0, 3): 2, (1, 2): 2},
}

# Walking once around the fiber puncture crosses the corners of the two
# bottom faces of the first layer in a fixed cyclic order.  Entries are
# (face, vertex) pairs of tetrahedron 0; the order depends on its letter.
_PUNCTURE_WALK = {
    "R": ((0, 3), (1, 0), (0, 2), (1, 2), (0, 1), (1, 3)),
    "L": ((1, 0), (0, 2), (1, 2), (0, 1), (1, 3), (0, 3)),
}


# The development keeps the ends of cusp triangle (i, k) at flat positions
# 16i + 4k + m, m != k.  A gluing sigma onto face r2 places (., sigma[k])
# from (., k): the shared side's ends carry over, and end r2 is a + w (b -
# a), (r2, a, b) in _CYC[sigma[k]] order and w the corner parameter at a.
# A placement: the offsets (from a, from b, to a, to b, to r2), w's index.
def _placement(k, sigma, r2):
    k2 = sigma[k]
    cy = _CYC[k2]
    ti = cy.index(r2)
    a, b = cy[(ti + 1) % 3], cy[(ti + 2) % 3]
    back = {m2: m for m, m2 in sigma.items()}
    return (4 * k + back[a], 4 * k + back[b], 4 * k2 + a, 4 * k2 + b,
            4 * k2 + r2, _PAIR[k2, a])


# Keyed by the next letter: the placement up each column k, across the top
# face keeping vertex k, and the two cross links from column place[0] // 4
# to place[2] // 4.  Column 2 enters off column 0 at the first L layer,
# column 3 at the first R layer, and column 1 down off column 2 there.
_COLUMN = {letter: [None] * 4 for letter in _STACK}
_CROSS = {letter: [] for letter in _STACK}
for _letter, _glue in _STACK.items():
    for _r, _r2, _sigma in _glue:
        for _k in _FACE[_r]:
            _place = _placement(_k, _sigma, _r2)
            if _sigma[_k] == _k:
                _COLUMN[_letter][_k] = _place
            else:
                _CROSS[_letter].append(_place)
_ENTER_2 = _placement(0, _STACK["L"][0][2], 0)
_ENTER_3 = _placement(0, _STACK["R"][1][2], 0)
_ENTER_1 = _placement(2, {m2: m for m, m2 in _STACK["R"][0][2].items()}, 2)


@dataclass(frozen=True)
class LayeredTriangulation:
    """Ideal triangulation of a once-punctured-torus bundle.

    One tetrahedron per monodromy letter, glued as the letter tables say:
    the word is the whole triangulation.  ``fiber_boundary_class`` lists
    the face corners of tetrahedron 0 that a loop around the fiber
    puncture crosses, in cyclic order: the peripheral class of the fiber
    boundary (the longitude), read off the first letter.
    """
    word: str

    @property
    def num_tetrahedra(self):
        return len(self.word)

    @property
    def fiber_boundary_class(self):
        return tuple((0, r, m) for r, m in _PUNCTURE_WALK[self.word[0]])

    @cached_property
    def _system(self):
        # the GluingSystem, built on first use and shared by
        # gluing_system, cusp_cross_section and maximal_cusp
        return GluingSystem(self)


def _slot_walk(word):
    # (i, the _SLOT table of layer i, the fiber slots at its bottom) per
    # layer.  Layer i's flip moves W's edge to the slot it empties and puts
    # the newborn edge i on W.  Two rounds fill the slots that the top of
    # the last layer closes onto (a flip at layer 0 finds W empty at first).
    n = len(word)
    slots = [None, None, None]
    for i, letter in enumerate(word * 3):
        table = _SLOT[letter]
        if i >= 2 * n:
            yield i - 2 * n, table, slots
        slots[table[(2, 3)]] = slots[2]
        slots[2] = i % n


def layered_triangulation(word):
    """Build the layered triangulation of the bundle with monodromy ``word``.

    A word over {L, R} is pseudo-Anosov exactly when it has both letters:
    its matrix is then positive with trace at least 3, while R^n and L^n
    are parabolic.  Raises EmptyWord for "", ValueError naming the first
    character outside {L, R}, and NotPseudoAnosov for single-letter words.
    """
    if not word:
        raise EmptyWord("monodromy word is empty")
    word = str(word)
    bad = word.lstrip("LR")
    if bad:
        raise ValueError("monodromy letters are L and R, got %r" % bad[0])
    if "L" not in word or "R" not in word:
        raise NotPseudoAnosov("monodromy %r is not pseudo-Anosov" % word)
    return LayeredTriangulation(word)


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


def _shapes(shapes, system=None):
    # the validated shapes as a tuple of complex numbers, one per
    # tetrahedron of the system's triangulation when a system is given;
    # the count comes first, so no shapes at all is a wrong count too
    zs = shapes.shapes if isinstance(shapes, ShapeVector) else tuple(shapes)
    if system is not None and len(zs) != system.triangulation.num_tetrahedra:
        raise NotSolved("word %r: %d shapes for %d tetrahedra"
                        % (system.triangulation.word, len(zs),
                           system.triangulation.num_tetrahedra))
    return zs if isinstance(shapes, ShapeVector) else ShapeVector(zs).shapes


def _completeness_row(word):
    """The completeness row of the word's layered triangulation.

    Returns (row, s): sum_i log 1/(1 - z_i) + sum over word[i] = R of
    log z_i = i*pi*s modulo 2*pi*i, s = #R mod 2, as a sparse row.  The
    row less i*pi*s is the log of the inverse derivative of a loop that
    winds once round the fiber direction, so it vanishes when complete.

    The loop is the column of cusp triangles at vertex 3.  Triangle
    (i, 3) has sides across faces 0 and 1 at the bottom of its layer and
    side {0, 1}, across face 2, at the top; either row of _STACK glues top
    face 2 to a bottom face with vertex 3 fixed, so (0, 3), ...,
    (n - 1, 3) stack up and close through the monodromy.  Developed up the
    column, each layer turns its entry side into its exit side {0, 1} by
    the parameter of the corner they share, which in _placement's
    convention is the side towards c over the side towards b at corner a
    of _CYC order (a, b, c).  _STACK[word[i]] enters layer i across

    - face 0 for L: side {1, 2} meets {0, 1} at vertex 1, on edge {1, 3}
      of parameter 1/(1 - z_i), and the ratio is 1 - z_i;
    - face 1 for R: side {0, 2} meets {0, 1} at vertex 0, on edge {0, 3},
      and the ratio is its parameter (z_i - 1)/z_i.

    Top face 2 glues with vertex 1 fixed under _STACK["L"] and vertex 0
    under _STACK["R"], so the next layer measures the side from the same
    end when the letters agree and from the other, a factor -1, when
    they differ.  A cyclic word changes
    letter an even number of times, so the derivative is prod over L of
    (1 - z_i) times prod over R of (z_i - 1)/z_i, whose inverse is (-1)^#R
    prod_i 1/(1 - z_i) prod over R of z_i.
    """
    row = tuple((i, k, 1) for i, letter in enumerate(word)
                for k in (0, 1) if k or letter == "R")
    return row, word.count("R") % 2


class GluingSystem:
    """Logarithmic gluing equations of a layered triangulation.

    One equation per edge class (the dihedral log-parameters around the
    class sum to 2*pi*i) plus one completeness equation, the log of the
    derivative of a peripheral loop that winds once around the fiber
    direction.  The edge equations carry one redundancy (their sum is
    2*pi*i times the number of edges for any upper-half-plane shapes), so
    the solve drops the last of them.

    Both kinds of row are fixed sparse integer data, built once.
    ``edge_rows`` holds one tuple of (tetrahedron i, parameter k,
    coefficient) triples per edge class, sorted, k indexing log z_i,
    log 1/(1 - z_i) and log (z_i - 1)/z_i.  In the slot walk, tetrahedron
    i meets its own class and its bottom diagonal's (k = 0) and twice the
    slots under {0,2} (k = 1) and {0,3} (k = 2).  The completeness row is
    read off the word by _completeness_row.  Residuals take principal
    logs: every parameter of an upper-half-plane shape has argument in
    (0, pi), and the completeness residual, less i*pi*s, is wrapped into
    (-pi, pi].

    _develop climbs the four columns of cusp triangles in one pass, and
    _loops reads the 2n + 1 sides it leaves unplaced, the four column
    closings and 2n - 3 cross links, whose loops generate the peripheral
    group.  The system is cached on its triangulation and returned by
    gluing_system.
    """

    _solved = ((), None)    # the shapes solve_shapes last returned, residual

    def __init__(self, triangulation):
        self.triangulation = triangulation
        word = triangulation.word
        n = len(word)
        rows = [[] for _ in range(n)]
        for i, table, slots in _slot_walk(word):
            bottom = slots[table[(2, 3)]]
            rows[i].append((i, 0, 1 + (bottom == i)))
            if bottom != i:
                rows[bottom].append((i, 0, 1))
            rows[slots[table[(0, 2)]]].append((i, 1, 2))
            rows[slots[table[(0, 3)]]].append((i, 2, 2))
        self.edge_rows = tuple(map(tuple, rows))
        self._complete_row, self._sign = _completeness_row(word)

        # Column k enters at layer entry[k] and climbs round the monodromy
        # wrap, where a link winds +1, so triangle (i, k) winds lift[k] +
        # (i < entry[k]).  Column 1 is entered down off (first_r, 2).
        first_l, first_r = (((word[1:] + word[0]).index(c) + 1) % n
                            for c in "LR")
        entry = (0, (first_r - 1) % n, first_l, first_r)
        lift = (0, (first_l == 0) + (first_r < first_l) - (first_r == 0),
                first_l == 0, first_r == 0)
        # the tree links as (16 source layer, 16 target layer, 3 target
        # layer, placement), in the order _develop takes them
        self._plan = plan = []
        for k, enter, source in ((0, None, 0), (2, _ENTER_2, first_l - 1),
                                 (3, _ENTER_3, first_r - 1),
                                 (1, _ENTER_1, first_r)):
            i = entry[k]
            if enter:
                plan.append((16 * (source % n), 16 * i, 3 * i, enter))
            for j in [*range(i + 1, n), *range(i)]:
                plan.append((16 * i, 16 * j, 3 * j, _COLUMN[word[j]][k]))
                i = j
        # the sides the tree leaves unplaced as (16 lower layer, 16 upper
        # layer, winding, placement): the column closings, then the cross
        # links but the tree's, both at first_r and one at first_l
        links = [(entry[k], _COLUMN[word[entry[k]]][k]) for k in range(4)]
        links += [(j, place) for j, letter in enumerate(word)
                  for place in _CROSS[letter] if j != first_r
                  and (j, place) != (first_l, _ENTER_2)]
        self._sides = []
        for j, place in links:
            i, k, k2 = (j - 1) % n, place[0] // 4, place[2] // 4
            winding = (lift[k] + (i < entry[k]) + (j == 0)
                       - lift[k2] - (j < entry[k2]))
            self._sides.append((16 * i, 16 * j, winding, place))

    def _develop(self, zs):
        # The flat positions of one pass up the columns, the root (0, 0)
        # with its ends 1, 2 and 3 at 0, 1 and z_0.
        w = [x for z in zs for x in (z, 1.0 / (1.0 - z), (z - 1.0) / z)]
        pos = [0j] * (16 * len(zs))
        pos[2], pos[3] = 1 + 0j, w[0]
        for s, d, q, (fa, fb, ta, tb, tx, p) in self._plan:
            a, b = pos[s + fa], pos[s + fb]
            pos[d + ta], pos[d + tb] = a, b
            pos[d + tx] = a + w[q + p] * (b - a)
        return pos

    def _loops(self, pos):
        # (winding, derivative, translation) of each unplaced side: the
        # map taking the upper triangle's placement to the one the lower
        # demands, a translation when complete.  Entry 3 is mu's loop.
        out = []
        for s, d, winding, (fa, fb, ta, tb, _, _) in self._sides:
            a = pos[s + fa]
            rho = (pos[s + fb] - a) / (pos[d + tb] - pos[d + ta])
            out.append((winding, rho, a - rho * pos[d + ta]))
        return out

    @cached_property
    def _flat_rows(self):
        # every row, edge rows first, as the indices 3i + k of its terms
        # among the log-parameters, each repeated c times (all c > 0)
        return [[j for i, k, c in row for j in (3 * i + k,) * c]
                for row in self.edge_rows + (self._complete_row,)]

    def _evaluate(self, zs):
        # Residuals of a sequence of shapes, edge rows first, with no
        # validation, from the principal logs log z, log 1/(1 - z) and
        # log (z - 1)/z of each shape, each row summed exactly by fsum; an
        # edge row's sum is near 2*pi, so taking 2*pi off is exact too.
        logs = [x for z in zs for x in (cmath.log(z), -cmath.log(1.0 - z),
                                        cmath.log((z - 1.0) / z))]
        re = [x.real for x in logs].__getitem__
        im = [x.imag for x in logs].__getitem__
        sums = [(math.fsum(map(re, row)), math.fsum(map(im, row)))
                for row in self._flat_rows]
        x, y = sums.pop()
        return [complex(a, b - 2.0 * math.pi) for a, b in sums] + [complex(
            x, math.pi - (math.pi * (1 - self._sign) - y) % (2.0 * math.pi))]

    def _jacobian(self, zs, f):
        # The Newton system in w = log z as augmented rows [J | -f]: every
        # edge row but the last, then the completeness row.  The logs of
        # the parameters have derivatives 1, z/(1 - z) and 1/(z - 1) in w.
        rates = [(1.0, z / (1.0 - z), 1.0 / (z - 1.0)) for z in zs]
        rows = []
        for row, value in zip(self.edge_rows[:-1] + (self._complete_row,),
                              f[:-2] + f[-1:]):
            line = [0j] * len(zs) + [-value]
            for i, k, c in row:
                line[i] += c * rates[i][k]
            rows.append(line)
        return rows

    @cached_property
    def _angle_plan(self):
        # per tetrahedron, (e, a1 - a2, a0 - a2, a0 - a1, their squares)
        # for each edge row e but the last meeting it (at most 4), a_k its
        # coefficient on angle k, and (e, f, their products) for e < f
        rows = [{} for _ in range(self.triangulation.num_tetrahedra)]
        for e, row in enumerate(self.edge_rows[:-1]):
            for i, k, c in row:
                rows[i].setdefault(e, [0, 0, 0])[k] += c
        plan = []
        for meet in rows:
            terms = [(e, a1 - a2, a0 - a2, a0 - a1)
                     for e, (a0, a1, a2) in meet.items()]
            plan.append(([(e, c0, c1, c2, c0 * c0, c1 * c1, c2 * c2)
                          for e, c0, c1, c2 in terms],
                         [(e, f, c0 * d0, c1 * d1, c2 * d2)
                          for e, c0, c1, c2 in terms
                          for f, d0, d1, d2 in terms if e < f]))
        return plan

    def residual(self, shapes):
        """Equation residuals at the given shapes, edge rows first.

        Returns a list of complex numbers.  Raises NotSolved unless there
        is one shape per tetrahedron.
        """
        return self._evaluate(_shapes(shapes, self))


def gluing_system(triangulation):
    """The gluing and completeness equations of a layered triangulation.

    The system is built once per triangulation and cached on it, so
    repeated calls return the same object.
    """
    return triangulation._system


def _failure(system, step, what, z=None, theta=None):
    # the message of a failed solve: the word, the step, and the worst
    # tetrahedron, by its smallest angle or the smallest Im z
    if theta is not None:
        worst = min(range(len(theta)), key=theta.__getitem__) // 3
        has = "angles %r" % (tuple(theta[3 * worst:3 * worst + 3]),)
    else:
        worst = min(range(len(z)), key=lambda i: z[i].imag)
        has = "shape %r" % (complex(z[worst]),)
    return ("word %r, Newton step %d: %s; worst tetrahedron %d has %s"
            % (system.triangulation.word, step, what, worst, has))


def _eliminate(rows):
    # Solve an augmented square system [A | b] by Gaussian elimination
    # with partial pivoting, in place; None when a pivot is exactly zero.
    n = len(rows)
    for col in range(n):
        # the first row of largest modulus, as max() would pick it
        piv, size = col, abs(rows[col][col])
        for r in range(col + 1, n):
            a = abs(rows[r][col])
            if a > size:
                piv, size = r, a
        if rows[piv][col] == 0:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for row in rows[col + 1:]:
            factor = row[col] / top[col]
            if factor:
                for c in range(col + 1, n + 1):
                    row[c] -= factor * top[c]
    x = [0.0] * n
    for col in range(n - 1, -1, -1):
        top = rows[col]
        acc = top[n]
        for c in range(col + 1, n):
            acc -= top[c] * x[c]
        x[col] = acc / top[col]
    return x


def _ldl(diag, upper, rhs):
    # Solve a positive definite system, its diagonal and its rows above
    # the diagonal as dicts, by LDL^T in row order, in place: row e's
    # multipliers update the later rows it meets.  None at a pivot <= 0.
    for e, row in enumerate(upper):
        d, b = diag[e], rhs[e]
        if not d > 0.0:
            return None
        for f, a in row.items():
            x = a / d
            rhs[f] -= x * b
            diag[f] -= x * a
            later = upper[f]
            for g, c in row.items():
                if g > f:
                    later[g] = later.get(g, 0.0) - x * c
    for e in range(len(diag) - 1, -1, -1):
        rhs[e] = (rhs[e] - sum([a * rhs[f] for f, a in upper[e].items()])) \
            / diag[e]
    return rhs


def _angle_step(system, step, theta, defect=None):
    # The angle step d of solve_shapes from theta: towards the analytic
    # centre, taking ``defect`` off E, or with no defect a volume step.
    # Returns d, the Newton decrement v.d, and the step length 1 or 99% of
    # the way to the first angle to reach 0.  Per tetrahedron, with u_k =
    # w_k / D and dx = (x1 - x2, x0 - x2, x0 - x1), a.Q.x = sum u_k da_k
    # dx_k and Q x = (u1 dx1 + u2 dx2, u0 dx0 - u2 dx2, -u0 dx0 - u1 dx1).
    m = len(system.edge_rows) - 1
    rhs = [0.0] * m if defect is None else list(defect)
    diag = [0.0] * m
    upper = [{} for _ in range(m)]      # E Q E^T above the diagonal
    parts = []
    it = iter(theta)
    for (terms, pairs), a0, a1, a2 in zip(system._angle_plan, it, it, it):
        if defect is None:
            s0, s1, s2 = math.sin(a0), math.sin(a1), math.sin(a2)
            w0, w1, w2 = (math.cos(a0) / s0, math.cos(a1) / s1,
                          math.cos(a2) / s2)
            v0, v1, v2 = (-math.log(2.0 * s0), -math.log(2.0 * s1),
                          -math.log(2.0 * s2))
        else:
            v0, v1, v2 = 1.0 / a0, 1.0 / a1, 1.0 / a2
            w0, w1, w2 = v0 * v0, v1 * v1, v2 * v2
        d = w0 * w1 + w0 * w2 + w1 * w2
        u0, u1, u2 = w0 / d, w1 / d, w2 / d
        y0, y1, y2 = v1 - v2, v0 - v2, v0 - v1
        parts.append((terms, u0, u1, u2, y0, y1, y2, a0, a1, a2, v0, v1, v2))
        s0, s1, s2 = u0 * y0, u1 * y1, u2 * y2
        for e, c0, c1, c2, q0, q1, q2 in terms:
            rhs[e] += c0 * s0 + c1 * s1 + c2 * s2
            diag[e] += u0 * q0 + u1 * q1 + u2 * q2
        for e, f, g0, g1, g2 in pairs:
            row = upper[e]
            row[f] = row.get(f, 0.0) + u0 * g0 + u1 * g1 + u2 * g2
    lam = _ldl(diag, upper, rhs)
    if lam is None:
        raise Diverged(_failure(system, step, "Newton step is not finite",
                                theta=theta))
    out, decrement, room = [], 0.0, math.inf
    for terms, u0, u1, u2, y0, y1, y2, a0, a1, a2, v0, v1, v2 in parts:
        for e, c0, c1, c2, _, _, _ in terms:
            x = lam[e]
            y0, y1, y2 = y0 - x * c0, y1 - x * c1, y2 - x * c2
        m0, m1, m2 = u1 * y1 + u2 * y2, u0 * y0 - u2 * y2, -u0 * y0 - u1 * y1
        decrement += v0 * m0 + v1 * m1 + v2 * m2
        for a, x in ((a0, m0), (a1, m1), (a2, m2)):
            if x < 0.0 and -a / x < room:
                room = -a / x
        out += (m0, m1, m2)
    return out, decrement, min(1.0, 0.99 * room)


def _rise(theta, step, t):
    # the derivative of the volume along step, at theta + t * step
    return sum([-math.log(2.0 * math.sin(a + t * s)) * s
                for a, s in zip(theta, step)])


_MAX_STEPS = 50


def solve_shapes(system, tol=1e-12):
    """Solve the gluing system at the volume maximum over angle structures.

    An angle structure gives each tetrahedron positive angles alpha, beta,
    gamma summing to pi, the arguments of z, 1/(1 - z) and (z - 1)/z, and
    each edge angles summing to 2*pi.  The volume, a sum of Lobachevsky
    functions, is strictly concave on them, and a critical point inside
    is the complete structure (Casson-Rivin; Futer-Gueritaud, Contemp.
    Math. 541 (2011)).  Every layered triangulation of these bundles is
    geometric (Gueritaud, Geom. Topol. 10 (2006)): the maximum is inside.

    Each angle step d minimises d.W.d / 2 - v.d, keeps every angle sum
    and takes a defect off E, the edge rows but the last: d = Q (v -
    E^T lam), (E Q E^T) lam = E Q v + defect, with Q = P (P^T W P)^-1 P^T
    = (1/D) [[w1 + w2, -w2, -w1], [-w2, w0 + w2, -w0], [-w1, -w0, w0 +
    w1]] per tetrahedron, P = [[1, 0], [0, 1], [-1, -1]], D = w0 w1 +
    w0 w2 + w1 w2 > 0.  E Q E^T is positive definite, so it is factored
    as LDL^T with no pivoting, its rows in birth order (edge class i is
    born at layer i), where it fills in only linearly: a step costs O(n).
    From pi/3, steps toward the analytic centre of -sum log theta (W =
    1/theta^2, v = 1/theta) take off what is left of the start's defect
    until a full step meets the edge rows, each stopping 1% short of the
    nearest angle 0; an angle below 1e-13 means there is no inside.
    Newton steps on the volume follow (v = -log(2 sin theta), W = cot
    theta, D = 1, no defect).  Near the boundary, or far from the maximum
    (Newton decrement over 0.01), a step is cut by a secant on the
    derivative along it, then halved until the volume still rises at its
    end.  The steps stop after a full step with decrement below 1e-12, or
    with a decrement not below a quarter of the full step's before it
    when that one was below 1e-6: on long words the decrement reaches a
    floor of rounding noise near 1e-7 and no longer falls quadratically.
    The shapes z = (sin beta / sin gamma) e^(i alpha) then lie close to
    the root, and Newton steps in log z with an analytic Jacobian, on the
    completeness row and E, bring the residual (rows summed by
    math.fsum) under ``tol``: none or one, in practice, each a dense
    elimination with partial pivoting.  The shapes and their residual
    are left on the system for cusp_cross_section to reuse.

    Raises DegenerateShape when no angle structure has all angles
    positive, Diverged on an angle pivot that is not positive, a zero
    shape pivot or a shape step that does not reduce the residual, and
    MaxIterations past 50 Newton steps in all, naming the word, the step
    and the worst tetrahedron (angles or shape).
    """
    theta = [math.pi / 3.0] * (3 * system.triangulation.num_tetrahedra)
    # what is left of the start's excess on every edge row but the last
    defect = [sum([c * theta[3 * i + k] for i, k, c in row]) - 2.0 * math.pi
              for row in system.edge_rows[:-1]]
    for step in range(1, _MAX_STEPS + 1):
        move, _, t = _angle_step(system, step, theta, defect)
        theta = [a + t * m for a, m in zip(theta, move)]
        defect = [(1.0 - t) * e for e in defect]
        if t == 1.0 or min(theta) < 1e-13:
            break
    if t < 1.0:
        raise DegenerateShape(_failure(
            system, step, "no angle structure has every angle positive",
            theta=theta))

    last = math.inf     # the decrement of the step before, if it was full
    for step in range(step + 1, _MAX_STEPS + 1):
        move, decrement, t = _angle_step(system, step, theta)
        if t < 1.0 or decrement > 0.01:
            rise = _rise(theta, move, t)
            if rise < 0.0:
                t *= decrement / (decrement - rise)
                while t > 1e-12 and _rise(theta, move, t) < 0.0:
                    t *= 0.5
        theta = [a + t * m for a, m in zip(theta, move)]
        if t < 1.0:
            last = math.inf
        elif decrement < 1e-12 or (last < 1e-6
                                   and not decrement < 0.25 * last):
            break
        else:
            last = decrement
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
    shapes = ShapeVector(tuple(z))
    system._solved = (shapes.shapes, size)
    return shapes


# ---- volume --------------------------------------------------------------

def _bernoulli_even(n):
    """The exact Bernoulli numbers B_0, B_2, ..., B_2n.

    B_m = -(sum over k < m of C(m + 1, k) B_k) / (m + 1), where B_1 = -1/2
    is the only odd one that does not vanish.
    """
    even = [Fraction(1)]
    for m in range(2, 2 * n + 1, 2):
        total = Fraction(-(m + 1), 2) + sum(
            math.comb(m + 1, 2 * i) * b for i, b in enumerate(even))
        even.append(-total / (m + 1))
    return even


# Cl2(x) = x - x log|x| + sum_k |B_2k| x^(2k+1) / (2k (2k+1)!) on |x| < 2 pi;
# the terms fall by (x / 2 pi)^2, at most 1/4 on |x| <= pi, so 30 of them
# reach double precision
_CL2_SERIES = tuple(
    float(abs(b) / (2 * k * math.factorial(2 * k + 1)))
    for k, b in enumerate(_bernoulli_even(30)) if k)


def _lobachevsky(theta):
    # -integral_0^theta log|2 sin t| dt = Cl2(2 theta) / 2, odd and
    # pi-periodic, so the series only ever sees |2 theta| <= pi
    x = 2.0 * math.remainder(theta, math.pi)
    if x == 0.0:
        return 0.0
    x2 = x * x
    tail = 0.0
    for coeff in reversed(_CL2_SERIES):
        tail = tail * x2 + coeff
    return 0.5 * (x - x * math.log(abs(x)) + tail * x2 * x)


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
    return sum(tetrahedron_volume(z) for z in _shapes(shapes))


# ---- cusp cross section --------------------------------------------------

@dataclass(frozen=True)
class CuspCrossSection:
    """Flat data of the cusp torus at one horospherical cut.

    ``translations`` is a basis (mu, lam) of the peripheral lattice.  lam
    is the fiber boundary (the longitude): the sum of the six cusp
    triangle sides that the triangulation's fiber_boundary_class walks,
    so its sign follows the orientation of the cusp triangles.  mu is the
    completeness loop, which winds once around the fiber direction,
    reduced modulo lam to the shortest vector of its class.  The area is
    the coarea of the lattice and the height is area divided by longitude
    length, so scaling the cut scales lengths linearly and the area
    quadratically.
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


def cusp_cross_section(triangulation, shapes, base=(0, 0)):
    """Cusp torus of a solved triangulation at the reference cut.

    The cut is the horosphere on which the corner triangle of ``base``
    (a tetrahedron and vertex pair) develops with unit first side; with
    the default base this is the cut at euclidean height one over the
    first tetrahedron placed at (infinity, 0, 1, z_0).  Raises NotSolved
    unless there is one shape per tetrahedron, each in the upper half
    plane, and the shapes satisfy the gluing and completeness equations
    to about 1e-8, and ValueError on a base that is not a corner.  Any
    other base is a similarity: the default lattice over the base
    triangle's first side (between its first two _CYC ends) in the
    default cut.
    """
    (mu, lam, area), pos = _reference_cut(triangulation, shapes)
    if base != (0, 0):
        i, k = base
        if not (0 <= i < triangulation.num_tetrahedra and 0 <= k < 4):
            raise ValueError("base %r is not a corner of word %r"
                             % (base, triangulation.word))
        a, b = (pos[16 * i + 4 * k + m] for m in _CYC[k][:2])
        mu, lam = mu / (b - a), lam / (b - a)
        area /= abs(b - a) ** 2
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


def _reference_cut(triangulation, shapes):
    # _cross_section for the two cusp calls.  The cusp is read off the
    # geometric structure, so a shape outside the upper half plane is
    # unsolved, named with the word and the worst tetrahedron.
    if not isinstance(shapes, ShapeVector):
        shapes = [complex(z) for z in shapes]
        worst = min(range(len(shapes)), key=lambda i: shapes[i].imag,
                    default=None)
        if worst is not None and not shapes[worst].imag > 0.0:
            raise NotSolved("word %r: tetrahedron %d has shape %r outside "
                            "the upper half plane, so the triangulation "
                            "need not be geometric"
                            % (triangulation.word, worst, shapes[worst]))
    system = triangulation._system
    return _cross_section(system, _shapes(shapes, system))


def _cross_section(system, zs):
    # (mu, lam, area) of the reference cut and the development they were
    # read from, which maximal_cusp reuses for the edge formula; zs are
    # validated shapes, one per tetrahedron
    word = system.triangulation.word
    solved, residual = system._solved
    if solved != zs:
        residual = max(map(abs, system._evaluate(zs)))
    if residual > 1e-8:
        raise NotSolved("word %r: shapes leave gluing residual %.3e"
                        % (word, residual))
    pos = system._develop(zs)
    loops = system._loops(pos)
    for _, rho, _ in loops:
        if abs(rho - 1.0) > 1e-6:
            raise NotSolved("word %r: peripheral holonomy has derivative "
                            "%r; the structure is incomplete" % (word, rho))
    # Every derivative is 1, so a side's vector is the same in every
    # chart.  lam walks the fiber boundary: corner (0, r, m) is the side
    # of cusp triangle (0, m) across face r, run along _CYC[m].
    lam = 0j
    for i, r, m in system.triangulation.fiber_boundary_class:
        cy = _CYC[m]
        ti = cy.index(r)
        o = 16 * i + 4 * m
        lam += pos[o + cy[(ti + 2) % 3]] - pos[o + cy[(ti + 1) % 3]]
    # mu is column 3's closing, which winds +1 around the fiber
    mu = loops[3][2]
    area = abs((mu.conjugate() * lam).imag)
    if area <= 1e-12 * abs(mu) * abs(lam):
        raise NumericalError("word %r: peripheral translations are linearly "
                             "dependent" % word)
    # the shortest vector of mu's class modulo lam
    mu -= round((mu / lam).real) * lam
    return (mu, lam, area), pos


# ---- maximal cusp --------------------------------------------------------

def maximal_cusp(triangulation, shapes):
    """Cusp cross section at the first self-tangency of the cusp.

    Reads the maximal cusp off the edges of the triangulation: the
    largest horoball diameter D at the reference cut of
    cusp_cross_section is the largest value of h_k h_m below, and the
    maximal cut scales the reference lattice by 1 / sqrt(D), so its area
    is the reference area over D.  The computation is exact and has no
    search depth.  Raises NotSolved on unsolved shapes, on a shape count
    other than one per tetrahedron, and on a shape outside the upper half
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
    developed cusp triangles, whose ends sit at the flat positions 16i +
    4k + m: h_k = |pos[16i + 4k + m] - pos[16i + 4k + m']| and h_m =
    |pos[16i + 4m + k] - pos[16i + 4m + m']|.

    Why the edges suffice.  With every shape in the upper half plane the
    layered triangulation is the geometric one, and for once-punctured
    torus bundles it is the Epstein-Penner canonical decomposition
    (Lackenby, Comment. Math. Helv. 78 (2003); Gueritaud, Geom. Topol. 10
    (2006)).  As the cusp grows, its first self-tangency is along the
    shortest orthogeodesic from the cusp to itself, which is an edge of
    the canonical decomposition: dual to the face of the Ford domain that
    the largest isometric sphere spans.  So the largest ball over all
    horoball pairs is the largest over the edges.

    One product per edge class.  h_k h_m = e^(-delta) depends only on
    the edge, so D is the largest of n products: class i is born as
    tetrahedron i's top diagonal {0, 1}, whose h_0 and h_1 across face 2
    = {0, 1, 3} are |pos[16i + 1] - pos[16i + 3]| and |pos[16i + 4] -
    pos[16i + 7]|.
    """
    (mu, lam, area), pos = _reference_cut(triangulation, shapes)
    diameter = max([abs(pos[o + 1] - pos[o + 3]) * abs(pos[o + 4] - pos[o + 7])
                    for o in range(0, len(pos), 16)])
    h = math.sqrt(diameter)
    mu, lam = mu / h, lam / h
    area /= diameter
    return CuspCrossSection((mu, lam), area, abs(lam), area / abs(lam))


# ---- reports -------------------------------------------------------------

def bundle_report(word, tol=1e-12):
    """Solve a bundle end to end; returns a JSON-ready dictionary."""
    t = layered_triangulation(word)
    system = gluing_system(t)
    solved = solve_shapes(system, tol=tol)
    _, residual = system._solved
    cusp = maximal_cusp(t, solved)
    return {
        "word": word,
        "shapes": [[z.real, z.imag] for z in solved],
        "residual": residual,
        "volume": total_volume(solved),
        "cusp_area": cusp.area,
        "longitude": cusp.longitude_length,
        "height": cusp.height,
    }
