"""Exact combinatorics of color chord diagrams.

Gluings of 2n circle points, their two-colored diagrams over the fixed
alternating pattern, isomorphism under even rotations, boundary cycle
tracing with surface classification, streaming enumeration with a
brute-force orbit census, and the matching closed-form counts.
"""

from .census import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    FixedPointCount,
    OrbitCensus,
    OrbitInfo,
    burnside_check,
    count_fixed,
    enumerate_gluings,
    enumerate_o_gluings,
    orbit_census,
)
from .counting import (
    CountRow,
    CountTable,
    build_table,
    colored_classes,
    colored_classes_prime,
    colored_fixed,
    double_factorial,
    euler_phi,
    n_classes,
    o_classes,
    o_classes_prime,
    o_fixed,
    total_gluings,
    total_o_gluings,
    uncolored_classes,
    uncolored_fixed,
)
from .cycles import (
    ArcStep,
    ChordStep,
    Color,
    Cycle,
    CycleDecomposition,
    SurfaceType,
    cycle_counts,
    surface_type,
    trace_cycles,
)
from .diagram import (
    ColorDiagram,
    DiagramClass,
    Gluing,
    canonical_form,
    classify,
    isomorphic,
    normalize,
    recolor_shift,
    rotate,
)
from .errors import (
    BudgetExceededError,
    ChordCensusError,
    DivisibilityError,
    DuplicateIndexError,
    EvenInputError,
    GluingParseError,
    InconsistentTopologyError,
    InvalidArgumentError,
    InvalidGluingError,
    InvalidSpinError,
    MissingIndexError,
    NonDivisorError,
    NotPrimeError,
    SelfPairError,
    SizeMismatchError,
)
from .render import render_svg
from .spin import (
    SpinGraph,
    diagram_to_spin_graph,
    spin_graph_isomorphic,
    spin_graph_to_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # diagrams
    "Gluing",
    "ColorDiagram",
    "DiagramClass",
    "normalize",
    "classify",
    "rotate",
    "canonical_form",
    "isomorphic",
    "recolor_shift",
    # cycles and surfaces
    "Color",
    "ArcStep",
    "ChordStep",
    "Cycle",
    "CycleDecomposition",
    "SurfaceType",
    "trace_cycles",
    "cycle_counts",
    "surface_type",
    # spin graphs
    "SpinGraph",
    "diagram_to_spin_graph",
    "spin_graph_to_diagram",
    "spin_graph_isomorphic",
    # enumeration and census
    "enumerate_gluings",
    "enumerate_o_gluings",
    "orbit_census",
    "count_fixed",
    "burnside_check",
    "OrbitInfo",
    "OrbitCensus",
    "FixedPointCount",
    "DEFAULT_BUDGET",
    "BUDGET_ENV_VAR",
    # closed forms
    "double_factorial",
    "euler_phi",
    "total_gluings",
    "total_o_gluings",
    "colored_fixed",
    "uncolored_fixed",
    "o_fixed",
    "colored_classes",
    "colored_classes_prime",
    "o_classes",
    "o_classes_prime",
    "n_classes",
    "uncolored_classes",
    "CountRow",
    "CountTable",
    "build_table",
    # rendering
    "render_svg",
    # errors
    "ChordCensusError",
    "InvalidGluingError",
    "InvalidArgumentError",
    "DuplicateIndexError",
    "MissingIndexError",
    "SelfPairError",
    "GluingParseError",
    "SizeMismatchError",
    "InvalidSpinError",
    "EvenInputError",
    "NonDivisorError",
    "NotPrimeError",
    "DivisibilityError",
    "InconsistentTopologyError",
    "BudgetExceededError",
]
