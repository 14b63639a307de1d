#!/usr/bin/env python3
"""Time the shape solve and the maximal cusp on long words, scaled by tau.

Three families of monodromy words, R^k L, (RL)^k and (RRL)^k, at three
lengths up to a cap: for each word, the in-process time of one
bundle.solve_shapes call on a fresh GluingSystem and of one
bundle.maximal_cusp call on the solved shapes (the medians of several
rounds, the words interleaved within each round, so a slow moment of the
host spreads over all of them), and the maximal cusp's area and height
over the exact stable translation distance tau.  The cusp time grows
linearly with the length: the development is one pass up the cusp's four
letter columns.  A word the solver fails on prints the error class in
place of its numbers.

The default cap is 48 letters, which runs in a few seconds; pass a
different cap, and optionally a round count, on the command line:

    python3 demos/long_words.py 300 5
"""

import statistics
import sys
import time

from cusplab import bundle, errors, farey

FAMILIES = (("R^kL", lambda n: "R" * (n - 1) + "L"),
            ("(RL)^k", lambda n: "RL" * (n // 2)),
            ("(RRL)^k", lambda n: "RRL" * (n // 3)))


def solve_time(tri):
    """Seconds for one solve on a fresh system, or the error it raised."""
    system = bundle.GluingSystem(tri)
    start = time.perf_counter()
    try:
        bundle.solve_shapes(system)
    except errors.NumericalError as exc:
        return type(exc).__name__
    return time.perf_counter() - start


def cusp_time(tri, shapes):
    """Seconds for one maximal_cusp call on solved shapes."""
    start = time.perf_counter()
    bundle.maximal_cusp(tri, shapes)
    return time.perf_counter() - start


def main():
    cap = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    lengths = sorted({max(6, cap // 4), max(6, cap // 2), max(6, cap)})
    words = [(name, make(n)) for name, make in FAMILIES for n in lengths]
    tris = [bundle.layered_triangulation(word) for _, word in words]
    solved = []
    for tri in tris:
        try:
            solved.append(bundle.solve_shapes(bundle.gluing_system(tri)))
        except errors.NumericalError as exc:
            solved.append(type(exc).__name__)

    times = [[] for _ in words]
    cusps = [[] for _ in words]
    for _ in range(rounds):
        for spent, cusp, tri, shapes in zip(times, cusps, tris, solved):
            spent.append(solve_time(tri))
            if not isinstance(shapes, str):
                cusp.append(cusp_time(tri, shapes))

    header = "%-8s %7s %10s %9s %10s %10s %8s" % (
        "family", "letters", "solve ms", "cusp ms", "area/tau", "height/tau",
        "tau")
    print("median of %d interleaved rounds per word\n" % rounds)
    print(header)
    print("-" * len(header))
    for (name, word), tri, spent, cusp, shapes in zip(words, tris, times,
                                                      cusps, solved):
        failed = [x for x in spent if isinstance(x, str)]
        if failed or isinstance(shapes, str):
            print("%-8s %7d %10s" % (name, len(word), (failed or [shapes])[0]))
            continue
        section = bundle.maximal_cusp(tri, shapes)
        tau = float(farey.stable_translation_distance(
            farey.word_to_matrix(word)))
        print("%-8s %7d %10.2f %9.3f %10.5f %10.5f %8.3f"
              % (name, len(word), 1e3 * statistics.median(spent),
                 1e3 * statistics.median(cusp), section.area / tau,
                 section.height / tau, tau))


if __name__ == "__main__":
    main()
