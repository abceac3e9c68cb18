"""floydlab: finite-ball experiments with Floyd metrics on graphs and groups.

Build finite balls of Cayley graphs (or arbitrary locally finite graphs),
rescale their edges with a Floyd function, and measure the quantities that
separate thick examples from hyperbolic-like ones: sphere Floyd diameters,
divergence growth, quasi-geodesic escape behavior, and declared thick
structures.
"""

from . import errors
from .divergence import (
    DivergenceParams,
    DivergenceSample,
    criterion_check,
    div_function_estimate,
    div_triple,
    growth_fit,
)
from .floyd_metric import (
    FloydFunction,
    FloydWeighting,
    check_sublinearity,
    floyd_distance,
    floyd_weighting,
    karlsson_set_estimate,
    parse_floyd,
    sphere_diameter_trend,
    sphere_floyd_diameter,
    validate_floyd_function,
)
from .graph_core import (
    GraphBall,
    Sphere,
    build_ball,
    read_graph_file,
    sphere,
    write_graph_file,
)
from .group_models import (
    DirectProduct,
    Free,
    FreeAbelian,
    FreeProduct,
    GroupModel,
    Heisenberg,
    cayley_ball,
    cayley_ball_labeled,
    growth_series,
    parse_model,
)
from .quasigeodesic import (
    PathWitness,
    escape_constants,
    escape_ray_search,
    format_witness,
    qg_certify,
    wideness_probe,
)
from .thickness import (
    ThickStructure,
    ThickSubset,
    load_structure,
    verify_chains,
    verify_cover,
    verify_thick,
)

__all__ = [
    "errors",
    "DivergenceParams",
    "DivergenceSample",
    "criterion_check",
    "div_function_estimate",
    "div_triple",
    "growth_fit",
    "FloydFunction",
    "FloydWeighting",
    "check_sublinearity",
    "floyd_distance",
    "floyd_weighting",
    "karlsson_set_estimate",
    "parse_floyd",
    "sphere_diameter_trend",
    "sphere_floyd_diameter",
    "validate_floyd_function",
    "GraphBall",
    "Sphere",
    "build_ball",
    "read_graph_file",
    "sphere",
    "write_graph_file",
    "DirectProduct",
    "Free",
    "FreeAbelian",
    "FreeProduct",
    "GroupModel",
    "Heisenberg",
    "cayley_ball",
    "cayley_ball_labeled",
    "growth_series",
    "parse_model",
    "PathWitness",
    "escape_constants",
    "escape_ray_search",
    "format_witness",
    "qg_certify",
    "wideness_probe",
    "ThickStructure",
    "ThickSubset",
    "load_structure",
    "verify_chains",
    "verify_cover",
    "verify_thick",
]
