"""Slopes and distances in the Farey graph.

Every essential arc on the once-punctured torus is determined by its slope
p/q, and two arcs have disjoint representatives exactly when the slopes
satisfy |p q' - q p'| = 1.  The graph on the extended rationals with those
edges is the Farey graph; its combinatorial distance is what this module
computes, exactly, together with the action of torus monodromies on slopes,
their translation distances and their stable translation distances.

The translation quantities all read one 2x2 matrix.  Conjugate the
monodromy to a matrix N with positive entries; T_ij is the distance from
r_i to N r_j, where r_0 = inf and r_1 = 0 are the ends of the frame edge.
The diagonal minimum of T's n-th min-plus power is the translation
distance of the n-th power, and T's minimum cycle mean is the stable
translation distance; both are closed forms in T's four entries.

Conventions fixed here: R = [[1,1],[0,1]] and L = [[1,0],[1,1]], and a word
over {L, R} multiplies out to the left-to-right product of its letter
matrices.  Slopes are written p/q with q >= 0 in lowest terms, infinity
being 1/0.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import EmptyWord, NotPseudoAnosov

R_MATRIX = ((1, 1), (0, 1))
L_MATRIX = ((1, 0), (1, 1))


@dataclass(frozen=True)
class Slope:
    """A slope p/q in lowest terms with q >= 0; infinity is 1/0.

    Any integer pair with a nonzero entry canonicalises on construction, so
    Slope(-2, -4) == Slope(1, 2) and Slope(-3, 0) == Slope(1, 0).
    """
    p: int
    q: int = 1

    def __post_init__(self):
        p, q = int(self.p), int(self.q)
        if p == 0 and q == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0 or (q == 0 and p < 0):
            p, q = -p, -q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text == "inf":
            return cls(1, 0)
        if "/" in text:
            a, b = text.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(text), 1)

    def __str__(self):
        return "inf" if self.q == 0 else "%d/%d" % (self.p, self.q)


INFINITY = Slope(1, 0)


def _word_product(word):
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        if letter == "R":
            a, b, c, d = a, a + b, c, c + d
        elif letter == "L":
            a, b, c, d = a + b, b, c + d, d
        else:
            raise ValueError("monodromy letters are L and R, got %r" % letter)
    return ((a, b), (c, d))


@dataclass(frozen=True)
class Monodromy:
    """An integer matrix of determinant +1; a monodromy is its matrix.

    Construction checks the determinant.  A product, an inverse and a power
    are exact by construction and skip the check.
    """
    matrix: tuple

    def __post_init__(self):
        (a, b), (c, d) = self.matrix
        m = ((int(a), int(b)), (int(c), int(d)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
            raise ValueError("matrix determinant is not +1")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _exact(cls, matrix):
        # a matrix of determinant +1 by construction; no check
        out = object.__new__(cls)
        object.__setattr__(out, "matrix", matrix)
        return out

    @property
    def trace(self):
        return self.matrix[0][0] + self.matrix[1][1]

    @property
    def is_pseudo_anosov(self):
        return abs(self.trace) > 2

    def __mul__(self, other):
        (a, b), (c, d) = self.matrix
        (e, f), (g, h) = other.matrix
        return Monodromy._exact(((a * e + b * g, a * f + b * h),
                                 (c * e + d * g, c * f + d * h)))

    def inverse(self):
        (a, b), (c, d) = self.matrix
        return Monodromy._exact(((d, -b), (-c, a)))

    def power(self, n):
        if n < 0:
            return self.inverse().power(-n)
        out = Monodromy._exact(((1, 0), (0, 1)))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def word_to_matrix(word):
    """The Monodromy of a word over {L, R}; raises EmptyWord on ''."""
    if not word:
        raise EmptyWord("monodromy word is empty")
    return Monodromy._exact(_word_product(str(word)))


def act(m, s):
    """The projective action of a monodromy on a slope."""
    (a, b), (c, d) = m.matrix
    return Slope(a * s.p + b * s.q, c * s.p + d * s.q)


def adjacent(s, t):
    """True when the slopes span an edge of the Farey graph."""
    return abs(s.p * t.q - s.q * t.p) == 1


def _xgcd(a, b):
    # returns (g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _steps_from_infinity(p, q):
    # Distance from 1/0 to p/q by the least-absolute-remainder expansion:
    # step to the integer b nearest p/q, then pull b back to infinity with
    # z -> -1/(z - b), sending the target to -q/(p - b q).  The remainder
    # at worst halves q, and an exact tie |p - b q| = q/2 forces q = 2
    # (gcd 1), where both roundings finish in one step, so the rounding
    # direction never matters.
    n = 0
    while q:
        if q < 0:
            p, q = -p, -q
        b = (2 * p + q) // (2 * q)
        p, q = -q, p - b * q
        n += 1
    return n


def _distance_pq(p0, q0, p1, q1):
    # both pairs reduced and canonical (q >= 0, infinity = (1, 0))
    cross = p0 * q1 - q0 * p1
    if cross == 0:
        return 0
    g, alpha, beta = _xgcd(p0, q0)
    return _steps_from_infinity(alpha * p1 + beta * q1, cross)


def distance(s, t):
    """Farey-graph distance between two slopes, exactly.

    The first slope is moved to infinity by an integer isometry of the
    tessellation and the remaining distance is read off the minimal
    continued-fraction expansion of the image of the second.
    """
    return _distance_pq(s.p, s.q, t.p, t.q)


def _box_pairs(bound):
    yield (1, 0)
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(p, q) == 1:
                yield (p, q)


def slopes_in_box(bound):
    """All slopes with |p| <= bound and q <= bound, infinity included."""
    return [Slope(p, q) for p, q in _box_pairs(bound)]


_R = Monodromy(R_MATRIX)
_L = Monodromy(L_MATRIX)
_QUARTER_TURN = Monodromy(((0, -1), (1, 0)))


def _positive_frame(m):
    # Returns (C, N) with N = C^-1 (+-m) C a matrix with positive entries,
    # so the columns of C are a Farey edge crossed by the axis of m.  The
    # fixed points of N are the roots of c x^2 + (d - a) x - b; while they
    # lie on one side of the frame edge {inf, 0} (b c < 0), step into the
    # Farey triangle on that side, onto the edge bounding the arc that
    # holds both roots (their midpoint decides which).  The arcs nest, the
    # roots are distinct irrationals, so some edge separates them; there
    # b and c share a sign, and a quarter turn makes them positive.
    n = m if m.trace > 0 else Monodromy(tuple((-x, -y) for x, y in m.matrix))
    frame = Monodromy(((1, 0), (0, 1)))
    while True:
        (a, b), (c, d) = n.matrix
        if b * c > 0:
            break
        if (a - d) * c > 0:
            step = _R if (a - d - 2 * c) * c > 0 else _L
        else:
            step = _R.inverse() if (a - d + 2 * c) * c < 0 \
                else _L.inverse()
        n = step.inverse() * n * step
        frame = frame * step
    if b < 0:
        n = _QUARTER_TURN.inverse() * n * _QUARTER_TURN
        frame = frame * _QUARTER_TURN
    return frame, n


def _distance_matrix(m):
    # (C, T): the frame C of the positive conjugate N = C^-1 (+-m) C, and
    # the 2x2 matrix T_ij = d(r_i, N r_j) with r_0 = inf and r_1 = 0
    if not m.is_pseudo_anosov:
        raise NotPseudoAnosov("|trace| = %d is not > 2" % abs(m.trace))
    frame, positive = _positive_frame(m)
    (a, b), (c, d) = positive.matrix
    # N inf = a/c and N 0 = b/d, both canonical since every entry is > 0
    return frame, ((_distance_pq(1, 0, a, c), _distance_pq(1, 0, b, d)),
                   (_distance_pq(0, 1, a, c), _distance_pq(0, 1, b, d)))


def translation_distance(m, with_witness=False):
    """Minimum of d(s, m s) over all slopes, exactly.

    The first power of translation_distances: min(T00, T11), where
    T_ij = d(r_i, N r_j) in the positive frame N = C^-1 (+-m) C.
    with_witness=True returns (distance, slope) with the slope C r_b that
    attains it, since d(C r_b, m C r_b) = d(r_b, N r_b).  A pseudo-Anosov
    monodromy fixes no slope, so the result is at least 1; |trace| <= 2
    raises NotPseudoAnosov.
    """
    frame, ((t00, _), (_, t11)) = _distance_matrix(m)
    best = min(t00, t11)
    if with_witness:
        # C inf and C 0 are the columns of C
        (fa, fb), (fc, fd) = frame.matrix
        return best, Slope(fa, fc) if t00 == best else Slope(fb, fd)
    return best


def translation_distances(m, n_max):
    """{n: translation distance of m^n} for n = 1..n_max, exactly.

    Conjugate +-m (same action on slopes) to N = C^-1 (+-m) C with
    positive entries; C is a Farey isometry, so m^n moves slopes as far as
    N^n does.  With r_0 = inf, r_1 = 0 and T_ij = d(r_i, N r_j), the
    (i, j) entry of the n-th min-plus power of T is d(r_i, N^n r_j) (see
    stable_translation_distance), and the translation distance of m^n is
    its diagonal minimum, min over b of d(r_b, N^n r_b), in closed form
    below.  |trace| <= 2 raises NotPseudoAnosov.

    Proof.  The intervals I_k = N^k [0, inf] are nested, and they shrink
    to one irrational fixed point of N as k grows and grow to all but the
    other as k falls, so a slope s lies in some I_k \\ I_(k+1); moving s
    by N^-k changes no d(s, N^n s), so take k = 0.  If s is inf or 0
    there is nothing to prove.  Otherwise s lies strictly inside I_0 and
    outside I_n, while N^n s lies strictly inside I_n.  The Farey edge
    N^n {inf, 0} separates the graph, so a geodesic from s to N^n s
    passes through some N^n r_b, and

        d(s, N^n s) = d(s, N^n r_b) + d(r_b, s) >= d(r_b, N^n r_b).

    The closed form.  A closed walk of length n on T's two nodes crosses
    k times each way and loops n - 2k times.  With k = 0 it stays at one
    node and costs at least n a, for a = min(T00, T11).  Once k > 0 it
    may loop at either node and costs at least n a + k (b - 2 a), for
    b = T01 + T10: linear in k, so least at k = 0 or k = n // 2.
    """
    (t00, t01), (t10, t11) = _distance_matrix(m)[1]
    a, b = min(t00, t11), t01 + t10
    return {n: min(n * a, n // 2 * b + n % 2 * a)
            for n in range(1, n_max + 1)}


def stable_translation_distance(m):
    """The stable translation distance lim d(s, m^k s)/k, exactly.

    Returns min(T00, T11, (T01 + T10)/2) = d(m^2)/2 as a Fraction, where
    T is the 2x2 matrix T_ij = d(r_i, N r_j) of translation_distances.
    The limit does not depend on s, since |d(s, m^k s) - d(t, m^k t)| <=
    2 d(s, t), and C is a Farey isometry, so it is the limit of
    d(r_0, N^k r_0)/k.  |trace| <= 2 raises NotPseudoAnosov.

    Proof.  N has positive entries, so it maps the closed interval of
    slopes [0, inf] into the open interval (0, inf), and the Farey edges
    E_k = N^k {inf, 0} are nested: each lies strictly inside the interval
    that the one before it bounds.  No Farey edge joins a slope inside an
    edge's interval to one outside it, so each E_l separates the graph,
    and a path from E_0 to E_k meets E_1, ..., E_(k-1) in that order.
    Splitting a geodesic from r_i to N^k r_j at its first vertex x_l on
    each E_l, with x_l = N^l r_(j_l), gives
    d(r_i, N^k r_j) = sum over l of d(N^(l-1) r_(j_(l-1)), N^l r_(j_l)) =
    sum of T_(j_(l-1) j_l), minimised over the choices: d(r_i, N^k r_j) is
    the (i, j) entry of the k-th min-plus power of T.  The growth rate of
    the min-plus powers of a matrix with finite entries is its minimum
    cycle mean (Cuninghame-Green, "Minimax algebra", 1979).  The simple
    cycles on two nodes are the two loops and the 2-cycle, and a closed
    walk of length 2 is one loop twice or the 2-cycle once, so the
    minimum cycle mean is d(m^2)/2.
    """
    return Fraction(translation_distances(m, 2)[2], 2)


def stable_upper(m, N):
    """The ratios d(inf, m^n inf)/n for n = 1..N, as exact fractions.

    The distances are subadditive in n, so the running infimum of the list
    is a certified upper estimate for the stable translation distance;
    stable_translation_distance gives the limit itself.  m^n inf is the
    first column of m^n, carried along as an integer pair.
    """
    (a, b), (c, d) = m.matrix
    p, q = 1, 0
    out = []
    for n in range(1, N + 1):
        p, q = a * p + b * q, c * p + d * q
        # d(inf, p/q) with p/q primitive; the sign of the pair is irrelevant
        out.append(Fraction(_steps_from_infinity(p, q) if q else 0, n))
    return out
