"""Mixed quantum-classical linear stochastic systems: realizability and synthesis.

The package checks whether state-space models preserve canonical commutation
relations, rewrites general-form models into the canonical standard form,
splits realizable systems into a quantum subsystem, a classical subsystem and
a static measurement network, and verifies every construction numerically.

`import qcsynth` loads no submodule.  Each exported name is looked up in its
defining module on first use (PEP 562), so a program, and each `qcsynth`
command, imports only the modules it runs.  Submodules resolve as attributes
too (`qcsynth.matkit`); `qcsynth.augment` is the function, not the module.
"""

import importlib
import sys
import types

# Module of each exported name, in the order of __all__: the defining module,
# but synthesis for the realization records it re-exports from sysmodel.
_EXPORTS = {
    "sysmodel": ("J2", "Dimensions", "GeneralSystem", "QuantumOnlySystem", "StandardSystem",
                 "StructureMatrices", "diag_j", "make_structure", "validate"),
    "matkit": ("ItoFactorization", "PzkvDecomposition", "SkewCanonicalResult",
               "SymplecticCompletion", "ito_factorize", "pzkv_decompose",
               "random_symplectic", "skew_canonical", "symplectic_complete"),
    "realizability": ("ConditionResult", "RealizabilityReport", "check_general",
                      "check_quantum", "check_standard", "check_standard_partitioned",
                      "commutator_trajectory"),
    "transform": ("TransformWitness", "to_standard", "transfer_equiv_check"),
    "augment": ("AugmentedSystem", "ReducedSystem", "augment", "reduce"),
    "synthesis": ("ClassicalSubsystem", "NotRealizableError", "QuantumSubsystem",
                  "Realization", "close_loop", "generate_realizable", "synthesize"),
    "moments": ("MomentTrajectory", "simulate", "skew_drift"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Not cached: a name rebound in its defining module is seen here at once.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it here; an exported name of the same
        # spelling (the function augment) keeps resolving through __getattr__.
        if name in _MODULE_OF and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
