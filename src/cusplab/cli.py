"""Command-line front end: subcommand dispatch and report emission.

Subcommands:

    farey-dist P/Q R/S          exact Farey-graph distance, printed bare
    arc-dist ARC ARC            arc-complex distance on a surface
    bundle-report WORD          geometrize one bundle, JSON report
    verify-thm14 --max-word-len K   corpus scan of the area/height bounds, CSV
    verify-lifting --cover F --pairs F   lifted-arc distance comparison, JSON
    lemma-suite                 seeded Monte-Carlo checks of the two lemmas

Exit codes: 0 when everything checked passes, 1 when a verification
emits a violation, 2 on usage or input errors, 3 when the numerics give
up (non-convergence or degenerate shapes).

Reports carry ``schema`` 1, the package and numeric-library versions,
and the full run configuration including the random seed.  JSON objects
are emitted with sorted keys; equal configurations produce byte-equal
reports.

The verify-thm14 CSV starts with ``#``-prefixed provenance lines and a
fixed header::

    word,area,longitude,height,d1,...,dN,stable_upper,margins,flags

with one ``dn`` column per checked power, margins as
``name=value`` pairs joined by ``;``, and flags joined by ``;``.  The
pairs file for verify-lifting is a JSON list of two-element lists of arc
literals (``"arc w0,..;c0,.."`` or ``"slope p/q"``) read on the base
surface of the cover.  ``--depth``, ``--init`` and ``--stable-n`` are
accepted and ignored: the maximal cusp is computed exactly, with no
search depth, the shapes are solved from the volume maximum over angle
structures, with no starting guess, and the stable translation distance
is exact, with no number of powers; all three stay in the echoed
configuration.

lemma-suite draws its samples from numpy's PCG64 ``Generator`` stream
for ``--seed``, the one ``numpy.random.default_rng(seed)`` gives.  The
stream is read from raw 64-bit words in blocks, bit for bit equal to one
scalar ``integers`` or ``uniform`` call per draw, so reports stay
byte-identical for the same numpy.  Each check is one loop with one pass
per sample: doubles come from a C-level iterator over the words, and
the draws and the ``geometry`` calls are made inline.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from operator import mul, rshift

from . import __version__, arcs, bounds, bundle, farey, geometry, surface
from .errors import CuspLabError, NumericalError, OverlappingHoroballs

__all__ = ["RunConfig", "corpus", "run", "main"]

SCHEMA = 1

# acceptance tolerances of the lemma checks, not user-settable
TANGENT_TOL = 1e-9
CONE_TOL = 1e-12

_SWAP = str.maketrans("RL", "LR")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on besides the input files.

    One frozen record per invocation; the caps are validated here once so
    the handlers can trust them, and the record is embedded verbatim in
    every emitted report.  Its defaults are the command line's: an option
    left out keeps the field's default.
    """

    subcommand: str
    tol: float = 1e-12
    depth: int = 8
    budget: int = 64
    cap: int = 12
    n_max: int = 4
    max_word_len: int = 6
    stable_n: int = 20
    samples: int = 100000
    cone_samples: int = 10000
    seed: int = 0
    init: str = "i"
    out: str = None
    fmt: str = "json"

    def __post_init__(self):
        if int(self.max_word_len) < 2:
            raise ValueError("--max-word-len must be at least 2")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("--tol must be positive and finite, got %r"
                             % self.tol)
        for name in ("depth", "budget", "cap", "n_max", "max_word_len",
                     "stable_n", "samples", "cone_samples"):
            if int(getattr(self, name)) < 1:
                raise ValueError("--%s must be positive"
                                 % name.replace("_", "-"))
        if int(self.seed) < 0:
            raise ValueError("--seed must be non-negative, got %d" % self.seed)

    def to_json(self):
        # every field is a scalar, so a shallow copy of the instance dict
        # is what asdict would return, without its deep copy
        return dict(vars(self))


@functools.lru_cache(maxsize=1)
def _library_versions():
    # read from the installed distributions, so a report names numpy and
    # scipy without importing them; each lookup scans the import path, so
    # a process does it once
    from importlib.metadata import version
    return version("numpy"), version("scipy")


def _versions():
    numpy, scipy = _library_versions()
    return {"cusplab": __version__, "numpy": numpy, "scipy": scipy}


def _envelope(config):
    return {"schema": SCHEMA,
            "versions": _versions(),
            "config": config.to_json()}


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, separators=(", ", ": ")) + "\n"


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(msg):
    print("cusplab: %s" % msg, file=sys.stderr)


# ---- corpus ----

def _necklaces(n):
    """Words of length n over {R, L} with both letters that are their own
    largest rotation, R sorting high, in decreasing order.

    The Fredricksen-Kessler-Maiorana algorithm (Ruskey, Savage and Wang,
    J. Algorithms 13 (1992)) over the digits R = 0 < L = 1, where the
    largest rotation is the least digit string: a holds the prenecklaces
    in increasing order, p is the period of a, and a is a necklace
    exactly when p divides n.  The first, all R, and the last, all L, are
    skipped.
    """
    a = [0] * n
    while True:
        i = n - 1
        while i >= 0 and a[i]:
            i -= 1
        if i == 0:
            return
        a[i] = 1
        p = i + 1
        for j in range(p, n):
            a[j] = a[j - p]
        if n % p == 0:
            yield "".join(["RL"[x] for x in a])


def _largest_rotation(word):
    return max([word[i:] + word[:i] for i in range(len(word))])


def corpus(max_len):
    """All monodromy words up to max_len, one per symmetry class.

    Words in R and L containing both letters, deduplicated up to cyclic
    rotation and the R/L swap; rotation is conjugation of the monodromy
    and the swap inverts it up to conjugacy, so each class is one
    homeomorphism type.  Pure powers of one letter are parabolic, not
    pseudo-Anosov, and are excluded by construction.  The representative
    of a class is its largest word under rotation and swap, R sorting
    high: a necklace (its own largest rotation) that is at least the
    largest rotation of its swap.  Sorted by length then
    lexicographically; this is the canonical report order.
    """
    if max_len < 2:
        raise ValueError("corpus needs max_len >= 2")
    words = []
    for n in range(2, max_len + 1):
        words += sorted(w for w in _necklaces(n)
                        if w >= _largest_rotation(w.translate(_SWAP)))
    return words


# ---- subcommand handlers ----

def _cmd_farey_dist(args):
    s = farey.Slope.parse(args.slope_a)
    t = farey.Slope.parse(args.slope_b)
    print(farey.distance(s, t))
    return 0


def _read_text(path):
    with open(path) as fh:
        return fh.read()


def _cmd_arc_dist(args, config):
    if args.surface:
        base = surface.IdealTriangulation.from_text(_read_text(args.surface))
    else:
        base = surface.once_punctured_torus()
    a = arcs.parse_arc(base, args.arc_a)
    b = arcs.parse_arc(base, args.arc_b)
    print(arcs.distance(a, b, budget=config.budget))
    return 0


def _cmd_bundle_report(args, config):
    report = bundle.bundle_report(args.word, tol=config.tol)
    doc = _envelope(config)
    doc.update(report)
    _emit(_json_text(doc), config.out)
    return 0


def _thm14_csv(config, reports):
    # Every report of a scan has the same margin names, which depend only
    # on n_max, so one format writes a row.  No field holds a comma, a
    # quote or a line break (words are over R and L, the rest are numbers
    # and fixed names), so the rows are those a csv writer would give,
    # with no quoting.
    powers = range(1, config.n_max + 1)
    names = sorted(reports[0].margins) if reports else []
    header = ["word", "area", "longitude", "height"]
    header += ["d%d" % n for n in powers]
    header += ["stable_upper", "margins", "flags"]
    row = ",".join(["%s", "%r", "%r", "%r"] + ["%s"] * len(powers)
                   + ["%r", ";".join([k + "=%r" for k in names]), "%s"]) \
        + "\n"
    lines = ["# cusplab verify-thm14 schema %d\n" % SCHEMA,
             "# versions: %s" % _json_text(_versions()),
             "# config: %s" % _json_text(config.to_json()),
             ",".join(header) + "\n"]
    for rep in reports:
        lines.append(row % (rep.word, rep.cusp_area, rep.longitude,
                            rep.height, *[rep.d_psi_n[n] for n in powers],
                            rep.stable_upper,
                            *[rep.margins[k] for k in names],
                            ";".join(rep.flags)))
    return "".join(lines)


def _cmd_verify_thm14(args, config):
    reports = [bounds.verify_fibered(word, n_max=config.n_max,
                                     tol=config.tol)
               for word in corpus(config.max_word_len)]

    _emit(_thm14_csv(config, reports), config.out)
    bad = [rep.word for rep in reports if rep.violations]
    if bad:
        _note("violations on %s" % ", ".join(bad))
        return 1
    _note("%d words, all bounds hold" % len(reports))
    return 0


def _load_pairs(base, path):
    doc = json.loads(_read_text(path))
    if not isinstance(doc, list):
        raise ValueError("--pairs file must hold a JSON list of pairs")
    pairs = []
    for i, entry in enumerate(doc):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(x, str) for x in entry)):
            raise ValueError("--pairs entry %d is not a pair of arc literals"
                             % i)
        pairs.append((arcs.parse_arc(base, entry[0]),
                      arcs.parse_arc(base, entry[1])))
    return pairs


def _cmd_verify_lifting(args, config):
    cover = surface.cover_from_text(_read_text(args.cover))
    pairs = _load_pairs(cover.base, args.pairs)
    report = bounds.verify_lifting(cover, pairs, cap=config.cap)
    ok = report["all_upper_hold"] and report["all_lower_hold"]
    doc = _envelope(config)
    doc["report"] = report
    doc["status"] = "PASS" if ok else "VIOLATION"
    _emit(_json_text(doc), config.out)
    return 0 if ok else 1


# ---- lemma suite ----

# raw PCG64 words fetched per refill of the draw source
_BLOCK = 4096


class _Draws:
    """numpy's Generator stream for one seed, read from raw words in blocks.

    ``unit``, ``uniform`` and ``integers`` return exactly what the scalar
    calls ``Generator.random()``, ``Generator.uniform(lo, hi)`` and
    ``Generator.integers(n)`` on ``default_rng(seed)`` return, in the same
    order, without numpy's per-call overhead.  Both sides run on the PCG64
    bit generator:

    - a double is ``(w >> 11) * 2**-53`` of the next 64-bit word ``w``,
      and ``uniform(lo, hi)`` is ``lo + (hi - lo) * unit()``;
    - ``integers(n)``, for 2 <= n <= 2^32, is Lemire's bounded method
      (Lemire, "Fast random integer generation in an interval", ACM
      TOMACS 2019) on 32-bit draws u: m = u * n, redrawn while
      m mod 2^32 < (2^32 - n) mod n, and m >> 32 returned;
    - a 32-bit draw is the buffered high half of the last word taken for
      one, when there is such a half; otherwise it takes a new word,
      returns its low half and buffers the high half.  Doubles never
      touch this buffer (PCG64's ``has_uint32`` and ``uinteger``).

    The words are one endless ``itertools.chain`` of ``random_raw``
    blocks of ``_BLOCK`` words, so memory stays flat at any sample count.
    ``unit`` is the ``__next__`` of a ``map`` over that chain, so a double
    costs no Python frame; ``integers`` reads the same chain and takes its
    32-bit draws inline, so it costs one frame however often Lemire's
    method redraws.  The bit generator runs ahead of the words used, and
    only this source holds it.
    """

    __slots__ = ("unit", "_next", "_half")

    def __init__(self, seed):
        import numpy as np
        blocks = map(np.random.PCG64(seed).random_raw, repeat(_BLOCK))
        words = chain.from_iterable(map(np.ndarray.tolist, blocks))
        self.unit = map(mul, map(rshift, words, repeat(11)),
                        repeat(2.0 ** -53)).__next__
        self._next = words.__next__
        self._half = None

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.unit()

    def integers(self, n):
        # one pass per 32-bit draw u, taken inline so a draw is one frame
        while True:
            half = self._half
            if half is None:
                w = self._next()
                self._half = w >> 32
                m = (w & 0xFFFFFFFF) * n
            else:
                self._half = None
                m = half * n
            low = m & 0xFFFFFFFF
            # the threshold is below n, so most draws need not compute it
            if low >= n or low >= (2 ** 32 - n) % n:
                return m >> 32


def _tangent_check(config, draws):
    """Tangent-segment extremes over random disjoint pairs.

    The segment between touch points is shortest, and the horocyclic run
    longest, exactly at tangency; random pairs must stay on the right
    side of both constants and constructed tangent pairs must attain
    them.  Each sample is one pass of the loop: draws, the diameter check
    and the disjointness test inline, with the ``geometry`` functions
    looked up once per call (so a tracer that rebinds them still sees
    every call).
    """
    unit, integers = draws.unit, draws.integers
    Horoball, tangent_lengths = geometry.Horoball, geometry.tangent_lengths
    new = tuple.__new__
    inf = math.inf
    sqrt2 = math.sqrt(2.0)
    l1_floor = geometry.TANGENT_MIN - TANGENT_TOL
    l2_ceiling = sqrt2 + TANGENT_TOL
    worst_l1 = inf
    worst_l2 = 0.0
    violations = 0
    for _ in range(config.samples):
        # a random disjoint pair: occasionally one ball at infinity, and
        # redrawn until tangent_lengths accepts the pair as disjoint; each
        # draw spells uniform(lo, hi) out as lo + (hi - lo) * u, the same
        # float operations on the same literals
        while True:
            if integers(6) == 0:
                c1 = inf
                d1 = 0.1 + (5.0 - 0.1) * unit()
            else:
                c1 = complex(-5 + (5 - -5) * unit(), -5 + (5 - -5) * unit())
                d1 = 0.05 + (3.0 - 0.05) * unit()
            c2 = complex(-5 + (5 - -5) * unit(), -5 + (5 - -5) * unit())
            d2 = 0.05 + (3.0 - 0.05) * unit()
            # Horoball.__new__'s check, inline: the records below are
            # built by tuple.__new__, which skips that Python frame
            if not (d1 > 0 and d2 > 0):
                raise ValueError("horoball diameter must be positive")
            if c1 == inf or abs(c1 - c2) > 1e-12:
                try:
                    l1, l2 = tangent_lengths(new(Horoball, (c1, d1)),
                                             new(Horoball, (c2, d2)))
                    break
                except OverlappingHoroballs:
                    pass
        if l1 < worst_l1:
            worst_l1 = l1
        if l2 > worst_l2:
            worst_l2 = l2
        if l1 < l1_floor:
            violations += 1
        if l2 > l2_ceiling:
            violations += 1

    # tangency: |u - v|^2 = d1 d2, plus the half-plane normal form
    equality_error = 0.0
    tangent_cases = [(Horoball(inf, 1.0), Horoball(0j, 1.0))]
    for _ in range(50):
        d1 = draws.uniform(0.05, 3.0)
        d2 = draws.uniform(0.05, 3.0)
        shift = complex(draws.uniform(-5, 5), draws.uniform(-5, 5))
        # nudged apart so rounding cannot produce a tiny overlap
        gap = math.sqrt(d1 * d2) * (1.0 + 1e-12)
        tangent_cases.append((Horoball(shift, d1),
                              Horoball(shift + gap, d2)))
    for h1, h2 in tangent_cases:
        l1, l2 = tangent_lengths(h1, h2)
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


def _cone_check(config, draws):
    """Exponential growth of expanded cusp areas on cone surfaces.

    One pass of the loop per sample, drawing inline like _tangent_check.
    """
    unit = draws.unit
    ConeCuspParams = geometry.ConeCuspParams
    cone_cusp_area = geometry.cone_cusp_area
    exp = math.exp
    tau = 2.0 * math.pi
    violations = 0
    worst = math.inf
    for _ in range(config.cone_samples):
        # base_area, cone_excess and x_v, in that order
        params = ConeCuspParams(0.1 + (5.0 - 0.1) * unit(),
                                0.0 + (tau - 0.0) * unit(),
                                0.0 + (3.0 - 0.0) * unit())
        x = 0.0 + (4.0 - 0.0) * unit()
        d = 0.0 + (3.0 - 0.0) * unit()
        small = cone_cusp_area(params, x)
        grown = cone_cusp_area(params, x + d)
        margin = grown - exp(d) * small
        relative = margin / grown
        if relative < worst:
            worst = relative
        if margin < -CONE_TOL * grown:
            violations += 1
    return {"name": "cone-growth",
            "samples": config.cone_samples,
            "tolerance": CONE_TOL,
            "worst_relative_margin": worst,
            "violations": violations,
            "status": "PASS" if violations == 0 else "VIOLATION"}


def _cmd_lemma_suite(args, config):
    draws = _Draws(config.seed)
    checks = [_tangent_check(config, draws), _cone_check(config, draws)]
    ok = all(c["status"] == "PASS" for c in checks)
    doc = _envelope(config)
    doc["checks"] = checks
    doc["status"] = "PASS" if ok else "VIOLATION"
    _emit(_json_text(doc), config.out)
    return 0 if ok else 1


# ---- dispatch ----

@functools.cache
def _build_parser():
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="cusplab",
        description="Arc-complex distances and cusp geometry of "
                    "punctured-torus bundles.")
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("farey-dist",
                       help="exact Farey-graph distance between two slopes")
    p.add_argument("slope_a", metavar="P/Q")
    p.add_argument("slope_b", metavar="R/S")

    p = sub.add_parser("arc-dist",
                       help="arc-complex distance between two arc literals",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("arc_a", metavar="ARC")
    p.add_argument("arc_b", metavar="ARC")
    p.add_argument("--budget", type=int,
                   help="normal-coordinate search cap (default 64)")
    p.add_argument("--surface", metavar="FILE", default=None,
                   help="triangulation file (default: once-punctured torus)")

    p = sub.add_parser("bundle-report",
                       help="solve one bundle and report its maximal cusp",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("word", metavar="WORD")
    p.add_argument("--tol", type=float)
    p.add_argument("--depth", type=int,
                   help="ignored; the maximal cusp needs no search depth")
    p.add_argument("--init", choices=["regular", "i"],
                   help="ignored; the shapes start from the volume maximum")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify-thm14",
                       help="scan the word corpus against the cusp bounds",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--max-word-len", type=int, required=True, metavar="K")
    p.add_argument("--n-max", type=int, metavar="N")
    p.add_argument("--stable-n", type=int, metavar="N",
                   help="ignored; the stable distance is computed exactly")
    p.add_argument("--tol", type=float)
    p.add_argument("--depth", type=int,
                   help="ignored; the maximal cusp needs no search depth")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("verify-lifting",
                       help="compare arc distances with their lifts",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--cover", required=True, metavar="FILE")
    p.add_argument("--pairs", required=True, metavar="FILE")
    p.add_argument("--cap", type=int)
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("lemma-suite",
                       help="seeded Monte-Carlo checks of the lemma bounds",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int)
    p.add_argument("--cone-samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="FILE")

    return parser


# each subcommand's report format; the rest write JSON
_FORMATS = {"arc-dist": "text", "verify-thm14": "csv"}


def _dispatch(args):
    name = args.subcommand
    if name == "farey-dist":
        return _cmd_farey_dist(args)
    handler = {"arc-dist": _cmd_arc_dist,
               "bundle-report": _cmd_bundle_report,
               "verify-thm14": _cmd_verify_thm14,
               "verify-lifting": _cmd_verify_lifting,
               "lemma-suite": _cmd_lemma_suite}[name]
    # the subparsers suppress defaults, so args holds exactly the options
    # given, and RunConfig supplies the rest
    given = {k: v for k, v in vars(args).items()
             if k in RunConfig.__dataclass_fields__}
    return handler(args, RunConfig(fmt=_FORMATS.get(name, "json"), **given))


def run(argv):
    """Parse argv (no program name) and run; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed its message; 2 on usage, 0 on --help
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        _note("a subcommand is required")
        return 2
    try:
        return _dispatch(args)
    except NumericalError as exc:
        _note("numerical failure: %s" % exc)
        return 3
    except (CuspLabError, OSError, ValueError) as exc:
        _note("error: %s" % exc)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
