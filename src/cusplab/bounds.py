"""Inequality harness tying cusp geometry to arc-complex distances.

The bundle module measures the maximal cusp of a mapping torus and the
farey module computes exact translation distances of its monodromy; this
module evaluates the area and height inequalities relating the two and
emits signed margin reports.  A negative margin on one of the proven
inequalities is flagged as a violation.  The lower bounds involve the
stable translation distance tau = d(psi^2)/2, which comes with the
d(psi^n) from one exact farey call.  Those checks keep the labels from
when tau was only estimated from above, consistent-strong or
inconclusive, never violated, until the report schema changes.

The quasi-Fuchsian bound expressions are evaluated as pure arithmetic
for tabulation; no quasi-Fuchsian geometry is computed here.
"""

import math
from dataclasses import dataclass

from . import arcs as arc_tools
from . import bundle, farey
from .errors import NegativeDistance, NonNegativeChi, NumericalError

__all__ = ["CuspReport", "verify_fibered", "verify_lifting",
           "qf_bound_values"]

# the geometrized fibers are once-punctured tori
CHI_FIBER = -1


@dataclass(frozen=True)
class CuspReport:
    """Maximal-cusp measurements of one bundle, with bound margins.

    ``d_psi_n`` maps n to the exact arc-complex translation distance of
    the n-th power of the monodromy; ``stable_upper`` is the stable
    translation distance, exact, under the name it had as an upper
    estimate.  ``margins`` maps each inequality to its signed slack
    (positive means satisfied), and ``flags`` carries one label per
    check: violation:* for a failed proven inequality,
    consistent-strong:*/ inconclusive:* for the stable-distance
    comparisons.
    """
    word: str
    chi: int
    cusp_area: float
    longitude: float
    height: float
    d_psi_n: dict
    stable_upper: float
    margins: dict
    flags: tuple

    def __post_init__(self):
        gap = abs(self.height * self.longitude - self.cusp_area)
        if gap > 1e-10 * max(1.0, self.cusp_area):
            raise NumericalError("word %r: height does not equal area over "
                                 "longitude" % self.word)

    @property
    def violations(self):
        return tuple(f for f in self.flags if f.startswith("violation:"))


def verify_fibered(word, n_max=4, tol=1e-12):
    """Measure a bundle's maximal cusp and check the area/height bounds.

    Checks, for the once-punctured-torus fiber (chi = -1):
    n * area <= 9 chi^2 d(psi^n) and n * height < -3 chi d(psi^n) for
    every n up to n_max (n = 1 is the plain statement), each recorded as
    a signed margin and flagged violation:* when negative.  The stable
    comparisons area > tau / 450 chi^4 and height > tau / 536 chi^4 use
    the exact stable distance tau; a pass is labeled consistent-strong:*
    and a failure inconclusive:*, the labels of the upper estimate they
    were once checked against.

    Solver and geometry errors propagate unchanged.
    """
    chi = CHI_FIBER
    chi2 = chi * chi
    mono = farey.word_to_matrix(word)
    tri = bundle.layered_triangulation(word)
    shapes = bundle.solve_shapes(bundle.gluing_system(tri), tol=tol)
    cusp = bundle.maximal_cusp(tri, shapes)

    # tau = d(psi^2) / 2, so --n-max 1 still needs the second power
    d = farey.translation_distances(mono, max(n_max, 2))
    d_psi_n = {n: d[n] for n in range(1, n_max + 1)}
    stable = d[2] / 2

    margins = {}
    flags = []
    for n in range(1, n_max + 1):
        margins["area_n%d" % n] = 9.0 * chi2 * d[n] - n * cusp.area
        margins["height_n%d" % n] = -3.0 * chi * d[n] - n * cusp.height
        if margins["area_n%d" % n] < 0.0:
            flags.append("violation:area_n%d" % n)
        if margins["height_n%d" % n] <= 0.0:
            flags.append("violation:height_n%d" % n)

    margins["area_stable"] = cusp.area - stable / (450.0 * chi2 * chi2)
    margins["height_stable"] = cusp.height - stable / (536.0 * chi2 * chi2)
    for name in ("area_stable", "height_stable"):
        label = "consistent-strong" if margins[name] > 0.0 \
            else "inconclusive"
        flags.append("%s:%s" % (label, name))

    return CuspReport(word, chi, cusp.area, cusp.longitude_length,
                      cusp.height, d_psi_n, stable, margins, tuple(flags))


def verify_lifting(cover, pairs, cap=12):
    """Compare arc distances with the distances of their lifts.

    For each base pair (a, b) and every pair of lifts (alpha, beta), the
    cover distance must not exceed the base distance; that check is
    exact and a failure anywhere flips all_upper_hold.  The companion
    lower bound d(a, b) / (4050 n |chi|^6) - 2 < d(alpha, beta) is
    recorded per lift; at tabletop distances its left side is negative,
    so the result is marked vacuous rather than celebrated.

    Distances run through the budget-capped search, so BudgetExceeded
    propagates when an arc or a search leaves the cap.
    """
    base = cover.base
    chi = base.chi
    if chi >= 0:
        raise NonNegativeChi("base surface has chi = %d" % chi)
    denominator = 4050.0 * cover.degree * abs(chi) ** 6

    entries = []
    for a, b in pairs:
        d_base = arc_tools.distance(a, b, budget=cap)
        lower = d_base / denominator - 2.0
        lifted = []
        for alpha in arc_tools.lift_arc(cover, a):
            for beta in arc_tools.lift_arc(cover, b):
                d_cover = arc_tools.distance(alpha, beta, budget=cap)
                lifted.append({
                    "d_cover": d_cover,
                    "upper_ok": d_cover <= d_base,
                    "lower_ok": lower < d_cover,
                })
        entries.append({
            "a": a.literal(),
            "b": b.literal(),
            "d_base": d_base,
            "lower_bound": lower,
            "lower_vacuous": lower < 0.0,
            "lifts": lifted,
        })
    return {
        "degree": cover.degree,
        "chi_base": chi,
        "cap": cap,
        "pairs": entries,
        "all_upper_hold": all(l["upper_ok"]
                              for e in entries for l in e["lifts"]),
        "all_lower_hold": all(l["lower_ok"]
                              for e in entries for l in e["lifts"]),
    }


def qf_bound_values(chi, d):
    """The four quasi-Fuchsian bound expressions at distance d.

    Returns (area_lo, area_hi, height_lo, height_hi):

        area_lo   = d / (450 chi^4) - 1 / (23 chi^2)
        area_hi   = 9 chi^2 d + |12 chi ln|chi| + 26 chi|
        height_lo = d / (536 chi^4) - 1 / (27 chi^2)
        height_hi = -3 chi d + 2 ln|chi| + 5

    Pure arithmetic; small d makes the lower bounds negative, hence
    vacuous, which is the expected desk-scale behavior.
    """
    if chi >= 0:
        raise NonNegativeChi("chi must be a negative integer, got %r"
                             % (chi,))
    if d < 0:
        raise NegativeDistance("distance must be nonnegative, got %r"
                               % (d,))
    chi2 = chi * chi
    log_chi = math.log(abs(chi))
    area_lo = d / (450.0 * chi2 * chi2) - 1.0 / (23.0 * chi2)
    area_hi = 9.0 * chi2 * d + abs(12.0 * chi * log_chi + 26.0 * chi)
    height_lo = d / (536.0 * chi2 * chi2) - 1.0 / (27.0 * chi2)
    height_hi = -3.0 * chi * d + 2.0 * log_chi + 5.0
    return (area_lo, area_hi, height_lo, height_hi)
