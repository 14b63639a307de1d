#!/usr/bin/env python3
"""A walking tour of the figure-eight knot complement.

The once-punctured torus bundle with monodromy word RL is the
figure-eight knot complement, the smallest hyperbolic knot complement
and the standard first example for everything this package does.  The
script builds its layered triangulation, solves the gluing equations,
develops the cusp, and checks the numbers against their closed forms:

    shapes        both (1 + i sqrt(3)) / 2, the regular ideal tetrahedron
    volume        2 * 1.0149416... = 2.0298832...
    cusp area     2 sqrt(3), with the longitude of length 2 sqrt(3)
    height        exactly 1 at the maximal cusp

Run it as `python3 demos/figure_eight_tour.py`.
"""

import math

from cusplab import bundle

SQRT3 = math.sqrt(3.0)


def main():
    print("monodromy word: RL")
    tri = bundle.layered_triangulation("RL")
    system = bundle.gluing_system(tri)
    print("layered triangulation: %d tetrahedra, %d edge classes"
          % (tri.num_tetrahedra, len(system.edge_rows)))

    shapes = bundle.solve_shapes(system)
    residual = max(abs(r) for r in system.residual(shapes))
    print("\ngluing equations solved, residual %.2e" % residual)
    regular = complex(0.5, SQRT3 / 2)
    for i, z in enumerate(shapes):
        print("  z_%d = %.15f + %.15fi   (off the regular shape by %.1e)"
              % (i, z.real, z.imag, abs(z - regular)))

    volume = bundle.total_volume(shapes)
    print("\nvolume: %.15f" % volume)
    print("  twice the regular ideal tetrahedron, error %.1e"
          % abs(volume - 2 * 1.0149416064096536))

    cusp = bundle.maximal_cusp(tri, shapes)
    print("\nmaximal cusp:")
    print("  area           %.12f  (2 sqrt(3) = %.12f)" % (cusp.area,
                                                           2 * SQRT3))
    print("  longitude      %.12f" % cusp.longitude_length)
    print("  height         %.12f" % cusp.height)
    print("  area error vs closed form: %.1e" % abs(cusp.area - 2 * SQRT3))

    # the bound story in one line: d(psi) = 1, so area <= 9 and height < 3
    print("\ntranslation distance of RL in the Farey graph is 1;")
    print("the area bound 9 and height bound 3 hold with room to spare.")


if __name__ == "__main__":
    main()
