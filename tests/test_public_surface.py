"""The package's public names resolve, and deleted ones stay deleted."""

import importlib
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
