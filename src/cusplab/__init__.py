"""Arc complexes, Farey distances, and cusp geometry of punctured-torus bundles."""

__version__ = "0.1.0"

from . import arcs, bounds, bundle, cli, errors, farey, geometry
from .arcs import MappingClass, NormalArc
from .bounds import CuspReport, qf_bound_values, verify_fibered, verify_lifting
from .bundle import (
    CuspCrossSection,
    LayeredTriangulation,
    ShapeVector,
    bundle_report,
    layered_triangulation,
    maximal_cusp,
    solve_shapes,
)
from .surface import (
    CoverMap,
    FlipRecord,
    IdealTriangulation,
    Relabeling,
    build_cover,
    cover_from_text,
    cover_to_text,
    once_punctured_torus,
)
