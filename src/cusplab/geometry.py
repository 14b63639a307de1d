"""Closed-form hyperbolic estimates in the upper half-space model.

Cusp neighborhoods lift to horoballs, and every estimate this package makes
about them reduces to a handful of exact formulas: the signed distance and
the common tangent segments between horoballs, the area growth of an
expanding cusp neighborhood on a surface with cone points, and the largest
cusp area and shortest arc that a surface's Euler characteristic allows.
This module holds those formulas and nothing else; all of them are
elementary enough to be property-tested against direct numerical integration.

Horoballs are either euclidean balls resting on the boundary plane, recorded
by their ideal center and euclidean diameter, or the region above a
horizontal plane when the center is infinity, recorded by its cut height in
the same field.
"""

from collections import namedtuple
from math import exp, inf, log, pi, sinh, sqrt

from .errors import (
    CoincidentCenters,
    NegativeDistance,
    NonNegativeChi,
    NonPositiveArea,
    OverlappingHoroballs,
)

__all__ = [
    "TANGENT_MIN",
    "WAIST",
    "ConeCuspParams",
    "Horoball",
    "cone_cusp_area",
    "horoball_distance",
    "max_cusp_area_bound",
    "shortest_arc_length_bound",
    "tangent_lengths",
]

# shortest normalized longitude of a once-punctured-torus bundle cusp
WAIST = 2.0 ** 0.25

# least length of a tangent segment between horoballs on a common tangent
# geodesic; attained exactly at tangency
TANGENT_MIN = log(3.0 + 2.0 * sqrt(2.0))

_new_tuple = tuple.__new__


def _checked_make(cls, iterable):
    # namedtuple's _make, and _replace through it, would skip __new__
    return cls(*iterable)


class Horoball(namedtuple("Horoball", "center diameter")):
    """A horoball: ideal center and euclidean diameter.

    center is a finite point of the boundary plane as a complex number, or
    math.inf for the horoball above a horizontal plane; diameter is the
    euclidean height of the top for finite centers and the cut height for
    the center at infinity.

    The record is tuple-backed: an immutable (center, diameter) pair,
    validated once when it is built, that unpacks as ``u, d = ball``.
    """
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, center, diameter):
        if not diameter > 0:
            raise ValueError("horoball diameter must be positive")
        return _new_tuple(cls, (center, diameter))


def horoball_distance(h1, h2):
    """Signed distance between two horoball boundaries.

    Zero exactly at tangency and negative when the interiors overlap.  For
    finite centers u, v with diameters d1, d2 the connecting geodesic meets
    the boundaries a length ln(|u - v|^2 / (d1 d2)) apart; against the
    horoball at cut height h the vertical geodesic gives ln(h / d).  Where
    that quotient underflows to 0 or overflows, the logarithms are taken
    apart, 2 ln|u - v| - ln d1 - ln d2 and ln h - ln d, so extreme
    diameters give a finite distance; every other pair keeps the direct
    quotient's bits.
    """
    u, d1 = h1
    v, d2 = h2
    if u == inf or v == inf:
        if u == v:
            raise CoincidentCenters("both horoballs are centered at infinity")
        h, d = (d1, d2) if u == inf else (d2, d1)
        q = h / d
        if 0.0 < q < inf:
            return log(q)
        return log(h) - log(d)
    gap = abs(u - v)
    if gap == 0:
        raise CoincidentCenters("horoballs share the center %r" % (u,))
    den = d1 * d2
    if den:
        q = gap * gap / den
        if 0.0 < q < inf:
            return log(q)
    return 2.0 * log(gap) - log(d1) - log(d2)


def tangent_lengths(h1, h2):
    """Tangent-segment and horocycle-run lengths for disjoint horoballs.

    Normalize h1 to the half-plane above height one; h2 becomes a disk of
    radius r = e^(-delta)/2 resting on the boundary, delta being the
    distance between the two.  The geodesic tangent to both on a common side
    touches them a length l1 apart, and the touch point on the boundary of
    h1 sits a horocyclic length l2 from the foot of the common perpendicular:

        l1 = ln((1 + r + c) / r),   l2 = c = sqrt(1 + 2 r).

    Both are monotone in delta, so l1 >= ln(3 + 2 sqrt(2)) and l2 <= sqrt(2)
    with equality exactly at tangency.  Far apart, where r underflows or the
    quotient overflows, l1 = delta + ln(2 (1 + r + c)), since 1/r = 2 e^delta.
    """
    delta = horoball_distance(h1, h2)
    if delta < 0:
        raise OverlappingHoroballs("horoball interiors meet (distance %g)"
                                   % delta)
    r = 0.5 * exp(-delta)
    c = sqrt(1.0 + 2.0 * r)
    if r:
        q = (1.0 + r + c) / r
        if q < inf:
            return log(q), c
    return delta + log(2.0 * (1.0 + r + c)), c


class ConeCuspParams(namedtuple("ConeCuspParams",
                                "base_area cone_excess x_v")):
    """Growth data for a cusp neighborhood on a cone surface.

    base_area is the area of the embedded horoball quotient, cone_excess the
    total cone angle excess theta - 2 pi (zero on a smooth surface), and x_v
    the distance from the quotient boundary to the cone point.  Like
    Horoball, an immutable tuple-backed record validated when it is built.
    """
    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, base_area, cone_excess=0.0, x_v=0.0):
        if not base_area > 0:
            raise NonPositiveArea("base_area must be positive")
        if cone_excess < 0:
            raise ValueError("cone_excess is an angle excess, >= 0")
        if x_v < 0:
            raise NegativeDistance("x_v is a distance, >= 0")
        return _new_tuple(cls, (base_area, cone_excess, x_v))


def cone_cusp_area(params, x):
    """Area of the cusp neighborhood expanded a distance x.

    Pure exponential growth until the expanding boundary reaches the cone
    point, then an extra cone contribution 2 (theta - 2 pi) sinh^2((x-x_v)/2)
    on top; in particular area(x + d) >= e^d area(x) for all d >= 0.
    """
    if x < 0:
        raise NegativeDistance("expansion distance must be >= 0")
    base_area, cone_excess, x_v = params
    area = exp(x) * base_area
    if x >= x_v and cone_excess:
        area += 2.0 * cone_excess * sinh(0.5 * (x - x_v)) ** 2
    return area


def max_cusp_area_bound(chi, singular):
    """Largest embedded cusp neighborhood area on a surface of this chi.

    -2 pi chi when cone points are allowed (the Gauss-Bonnet ceiling),
    -6 chi on a smooth surface.
    """
    if chi >= 0:
        raise NonNegativeChi("need chi < 0, got %r" % (chi,))
    return -2.0 * pi * chi if singular else -6.0 * chi


def shortest_arc_length_bound(chi, cusp_area, singular):
    """Upper bound for the shortest arc through a cusp neighborhood.

    Expanding a neighborhood of area A by x keeps it embedded until
    e^x A hits the area ceiling, and an arc through the collision has
    length at most twice that x, so 2 ln|ceiling / A|.
    """
    if chi >= 0:
        raise NonNegativeChi("need chi < 0, got %r" % (chi,))
    if not cusp_area > 0:
        raise NonPositiveArea("cusp_area must be positive")
    return 2.0 * log(max_cusp_area_bound(chi, singular) / cusp_area)
