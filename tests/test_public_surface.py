"""The package's public names resolve, deleted ones stay deleted, and no import is stale."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import pinchpas

MODULES = ["pinchpas"] + [
    f"pinchpas.{info.name}" for info in pkgutil.iter_modules(pinchpas.__path__)
]

REMOVED = (
    "dilog",
    "SpecFunTolerance",
    "DEFAULT_TOLERANCE",
    "PI_SQUARED_OVER_6",
    "OutageInputs",
    "gl_integrate",
    "asinh",
    "_best_snr",
    "BoundaryCircle",
    "boundary_circle",
    "DegenerateBoundaryError",
    "ImaginaryRadiusError",
    "exact_boundary_x",
    "snr_linear",
    "linear_to_db",
    "simulate_outage_curve",
    "_simulate_outage_curves",
    "_continuous_rate_curve",
    "_params_snapshot",
    "_curves",
    "_baselines",
    "DerivedRf",
    "derive_rf",
    "_rf_values",
    "_chunk_sizes",
    "_chunk_users",
    "_SOFTPLUS_EVEN_DERIVATIVES",
    "_middle_series",
    "_FULL_MATRIX_MAX_M",
    "logger",
    "_rule_pieces",
    "_outer_rule",
    "_TI2_SERIES_EDGE",
    "_TI2_INVERSION_EDGE",
    "_ti2_taylor_coefficients",
    "_TI2_SERIES",
    "_TI2_NEAR_ONE",
    "_ti2_series",
    "_ti2_near_one",
    "_best_gain",
    "_gain_matrix",
    "_kernel_slope_series",
    "_kernel_slope_closed",
    "_IJ_DIRECT_RATIO",
    "_IJ_SERIES_TERMS",
    "_MIDDLE_RULE_SPAN",
    "_MIDDLE_RULE_NODES",
    "_arctan_kernel",
    "reload_run",
    "_window_gain",
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_removed_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED if hasattr(module, name)] == []


@pytest.mark.parametrize("module_name", MODULES)
def test_every_import_is_used_or_exported(module_name):
    # Names a module imports but neither reads nor lists in __all__.
    module = importlib.import_module(module_name)
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []
