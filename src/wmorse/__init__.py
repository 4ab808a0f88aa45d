"""Weighted simplicial complexes: homology, collapses, discrete Morse tools.

The package computes homology of integer-weighted simplicial complexes
exactly, decides when elementary collapses and removals preserve it,
certifies discrete-Morse collapses between level complexes, and turns
symbol sequences into weighted order complexes of their substring
posets.

Every public name below is importable from the package root, but a
module is only loaded when one of its names is first read, so a program
that needs collapses alone never loads homology or Smith reduction.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DivisibilityViolation", "DocumentError", "DuplicateSimplex", "DuplicateVertex",
        "ExtraCritical", "HypothesisError", "HypothesisFailed", "InternalInvariantError",
        "MorseViolation", "NoValidAPrime", "NotACycle", "NotCritical", "NotFaceClosed",
        "NotFreeFace", "NotMaximal", "UnweightedSymbol", "ValidationError", "WmorseError",
        "WSimpleFailed", "ZeroLetterWeight", "ZeroWeight",
    ),
    "complexes": (
        "Simplex", "SimplicialComplex", "WeightedComplex", "faces", "simplex", "validate_complex",
    ),
    "collapse": (
        "CollapseStep", "PreservationVerdict", "Verdict", "check_preservation",
        "collapse_sequence", "elementary_collapse", "greedy_collapse",
    ),
    "homology": ("HomologyGroup", "boundary_matrix", "chain_basis", "group_at", "homology"),
    "morse": (
        "CellClassification", "CriticalWindow", "MorseCollapse", "MorseFunction", "classify",
        "critical_window", "level_subcomplex", "morse_collapse", "validate_morse",
    ),
    "removal": ("ClassOrder", "RemovalReport", "elementary_removal", "homology_class_order"),
    "sequence": (
        "ALPHABETS", "OrderComplex", "WocType", "build_woc", "order_complex", "sequence_fingerprint",
        "substrings",
    ),
    "snf": ("IntMatrix", "SmithDecomposition", "smith_normal_form"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The package module, with wmorse.homology kept as the function.

    Loading the submodule wmorse.homology binds it to the package
    attribute of the same name, which would hide the function. This
    property drops a module assigned to it and keeps any other value.
    """

    @property
    def homology(self):
        return vars(self).get("homology") or importlib.import_module(f"{__name__}.homology").homology

    @homology.setter
    def homology(self, value):
        if not isinstance(value, types.ModuleType):
            vars(self)["homology"] = value


sys.modules[__name__].__class__ = _Package
