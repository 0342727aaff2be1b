"""Taxicab conic sections of L1 cones sliced by the plane x3 = 1.

Exact rational construction, classification and verification of the
piecewise-linear curves cut from cones C(ell, P, kappa) = {x : d(x, ell) =
kappa d(x, P)} in taxicab 3-space, plus SVG rendering and parameter-space
sweeps.
"""

from ._rat import Rat, parse_rat, rat, rat_str
from .cones import (
    CharStrip,
    ConeSpec,
    LineParams,
    PlaneParams,
    characterizing_strip,
    cone_from_json,
    cone_from_raw,
    cone_to_json,
    make_cone,
    normalize_line,
    normalize_plane,
    reference_lines,
    strip_position,
    trace_line_PS,
)
from .geometry import (
    ExtendedPoint,
    Line2,
    Piece,
    Point2,
    Ray,
    Segment,
    intersect_lines,
    line_through,
    point2,
    side_of_line,
)
from .metric import (
    DominanceClass,
    Point3,
    dist_to_line,
    dist_to_plane,
    dominance_class,
    point3,
    taxicab_dist,
    wedge_index,
)
from .sections import (
    ELLIPSE,
    HYPERBOLA,
    PARABOLA,
    AuxPoint,
    ConicSection,
    Vertex,
    adjacency,
    auxiliary_points,
    build_section,
    classify,
    section_from_json,
    section_to_json,
    section_topology,
    vertices,
)
from .special import (
    SimilarityReport,
    focus_directrix_residual,
    horizontal_plane_section,
    parabola_slope_gap,
    parallel_plane_kappa,
    steep_line_similarity,
    u_kappa_classify_check,
    u_kappa_position,
)

__version__ = "0.1.0"
