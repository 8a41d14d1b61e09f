"""The package's public names: each module's ``__all__``, re-exported."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import chord_census

PUBLIC_NAMES = [
    "ArcStep",
    "BUDGET_ENV_VAR",
    "BudgetExceededError",
    "ChordCensusError",
    "ChordStep",
    "Color",
    "ColorDiagram",
    "CountRow",
    "CountTable",
    "Cycle",
    "CycleDecomposition",
    "DEFAULT_BUDGET",
    "DiagramClass",
    "DivisibilityError",
    "DuplicateIndexError",
    "EvenInputError",
    "FixedPointCount",
    "Gluing",
    "GluingParseError",
    "InconsistentTopologyError",
    "InvalidArgumentError",
    "InvalidGluingError",
    "InvalidSpinError",
    "MissingIndexError",
    "NonDivisorError",
    "NotPrimeError",
    "OrbitCensus",
    "OrbitInfo",
    "SelfPairError",
    "SizeMismatchError",
    "SpinGraph",
    "SurfaceType",
    "__version__",
    "build_table",
    "burnside_check",
    "canonical_form",
    "classify",
    "colored_classes",
    "colored_classes_prime",
    "colored_fixed",
    "count_fixed",
    "cycle_counts",
    "diagram_to_spin_graph",
    "double_factorial",
    "enumerate_gluings",
    "enumerate_o_gluings",
    "euler_phi",
    "isomorphic",
    "n_classes",
    "normalize",
    "o_classes",
    "o_classes_prime",
    "o_fixed",
    "orbit_census",
    "recolor_shift",
    "render_svg",
    "rotate",
    "spin_graph_isomorphic",
    "spin_graph_to_diagram",
    "surface_type",
    "total_gluings",
    "total_o_gluings",
    "trace_cycles",
    "uncolored_classes",
    "uncolored_fixed",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 65
    assert sorted(chord_census.__all__) == PUBLIC_NAMES
    assert len(set(chord_census.__all__)) == len(chord_census.__all__)


def test_every_public_name_resolves():
    for name in chord_census.__all__:
        assert getattr(chord_census, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from chord_census import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES


def test_no_private_name_is_exported():
    assert [name for name in chord_census.__all__ if name.startswith("_")] == ["__version__"]


def test_numpy_loads_with_the_first_census():
    # a fresh interpreter, since this one has loaded numpy already
    code = (
        "import sys, chord_census; assert 'numpy' not in sys.modules; "
        "chord_census.orbit_census(3); assert 'numpy' in sys.modules"
    )
    src = str(Path(chord_census.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
