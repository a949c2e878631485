"""Exact census, crossing-number and motion toolkit for planar point
sets in general position.

All coordinates are integers and every count is exact; no floating
point enters a combinatorial result.  Point indices are 0-based
everywhere.

``import kedges`` loads no submodule.  ``_EXPORTS`` maps each submodule
to the public names it defines; the first use of a name (``kedges.X``,
``from kedges import X`` or ``from kedges import *``) imports its home
module and caches the name here, so ``kedges.X`` is the object of the
home module.  ``__all__`` is the sorted list of those names.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "geometry": (
        "DuplicatePointError", "GeneralPositionError", "Orientation", "Point", "PointSet",
        "angular_order", "convex_hull", "coord_bits", "cross", "extends_general_position",
        "hull_size", "orientation", "validate_general_position",
    ),
    "census": (
        "CumulativeEdgeVector", "EdgeVector", "cumulative", "edge_depth",
        "edge_vector_bruteforce", "edge_vector_sweep", "good_k_edge_count", "max_depth",
        "oriented_edge_counts", "strictly_inside_triangle",
    ),
    "crossings": (
        "CensusError", "CrossingReport", "crossings_bruteforce", "crossings_via_identity",
        "exact_lcr_from_E", "identity_weighted_sum", "is_convex_quadrilateral",
        "quadruple_constant",
    ),
    "bounds": (
        "BoundRow", "BoundTable", "adaptive_simpson", "asymptotic_coefficient", "bound_refined",
        "bound_simple", "bound_sqrt", "bound_table", "crossing_lower_bound_exact",
        "epsilon_integral", "halving_upper_bound", "sqrt_bound_crossover", "sqrt_bound_dominates",
    ),
    "motion": (
        "ConfigSummary", "HalvingRay", "MotionStep", "MutationEvent", "Ray", "ReductionTrace",
        "SimultaneousEventError", "apply_motion", "config_summary", "halving_ray",
        "halving_ray_stable", "is_halving_ray", "motion_events", "reduce_to_triangle",
    ),
    "generators": ("KINDS", "GenerationError", "GeneratorSpec", "generate"),
    "fileio": (
        "PointSetFormatError", "format_point_set", "load_point_set", "packaged_point_set",
        "parse_point_set",
    ),
    "checks": ("containing_triangle", "verify_point_set"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
