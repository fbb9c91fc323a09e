import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcsynth

# Every name the package exports, by defining module, in the order of __all__.
EXPORTS = {
    "sysmodel": ["J2", "Dimensions", "GeneralSystem", "QuantumOnlySystem", "StandardSystem",
                 "StructureMatrices", "diag_j", "make_structure", "validate"],
    "matkit": ["ItoFactorization", "PzkvDecomposition", "SkewCanonicalResult",
               "SymplecticCompletion", "ito_factorize", "pzkv_decompose",
               "random_symplectic", "skew_canonical", "symplectic_complete"],
    "realizability": ["ConditionResult", "RealizabilityReport", "check_general",
                      "check_quantum", "check_standard", "check_standard_partitioned",
                      "commutator_trajectory"],
    "transform": ["TransformWitness", "to_standard", "transfer_equiv_check"],
    "augment": ["AugmentedSystem", "ReducedSystem", "augment", "reduce"],
    "synthesis": ["ClassicalSubsystem", "NotRealizableError", "QuantumSubsystem",
                  "Realization", "close_loop", "generate_realizable", "synthesize"],
    "moments": ["MomentTrajectory", "simulate", "skew_drift"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(qcsynth.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_all_is_the_pinned_list():
    assert len(NAMES) == 42
    assert qcsynth.__all__ == NAMES


@pytest.mark.parametrize("module", list(EXPORTS))
def test_each_name_is_its_defining_modules_attribute(module):
    mod = importlib.import_module(f"qcsynth.{module}")
    for name in EXPORTS[module]:
        assert getattr(qcsynth, name) is getattr(mod, name), name


def test_version_and_submodules_resolve():
    assert qcsynth.__version__ == "0.1.0"
    for module in ("sysmodel", "matkit", "realizability", "transform", "synthesis", "moments"):
        assert getattr(qcsynth, module) is sys.modules[f"qcsynth.{module}"]
    assert set(NAMES) <= set(dir(qcsynth))


def test_star_import_binds_the_names():
    namespace = {}
    exec("from qcsynth import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(NAMES)
    assert all(namespace[name] is getattr(qcsynth, name) for name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcsynth.no_such_name
    assert not hasattr(qcsynth, "cli_main")


def test_augment_stays_the_function():
    module = importlib.import_module("qcsynth.augment")
    assert isinstance(module, types.ModuleType)
    assert inspect.isfunction(qcsynth.augment)
    assert qcsynth.augment is module.augment


def test_augment_stays_the_function_in_a_fresh_interpreter():
    # the submodule loaded first, each way it can be
    for load in ("import qcsynth.augment",
                 "import importlib; importlib.import_module('qcsynth.augment')",
                 "from qcsynth.augment import reduce",
                 "from qcsynth import augment"):
        code = ("import inspect, sys\n"
                f"{load}\n"
                "import qcsynth\n"
                "print(inspect.isfunction(qcsynth.augment),\n"
                "      qcsynth.augment is sys.modules['qcsynth.augment'].augment)\n")
        assert fresh(code) == "True True", load


def test_import_loads_no_submodule():
    code = ("import sys, qcsynth\n"
            "print(sorted(name for name in sys.modules if name.startswith('qcsynth')),\n"
            "      'scipy' in sys.modules)\n")
    assert fresh(code) == "['qcsynth'] False"


def test_a_name_rebound_in_its_module_is_seen_at_once(monkeypatch):
    # a wrapper bound in the defining module (as perfbench's tracer binds
    # its spans) is what the package hands out
    matkit = importlib.import_module("qcsynth.matkit")
    sentinel = object()
    monkeypatch.setattr(matkit, "skew_canonical", sentinel)
    assert qcsynth.skew_canonical is sentinel
    monkeypatch.undo()
    assert qcsynth.skew_canonical is matkit.skew_canonical


def test_scipy_names_resolve_for_the_benchmark_tracer():
    # perfbench's tracer reads and rebinds these two names
    import scipy
    for module in ("matkit", "realizability"):
        mod = importlib.import_module(f"qcsynth.{module}")
        assert getattr(mod, "scipy") is scipy
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(mod, "no_such_name")


def test_library_entry_points_leave_scipy_linalg_unloaded():
    # Every entry point, the generators included, runs on numpy alone.
    tests = str(Path(__file__).resolve().parent)
    probe = f"""
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from refsystems import mixed_reference
from qcsynth import (Dimensions, GeneralSystem, QuantumOnlySystem, augment, check_general,
                     check_quantum, check_standard, check_standard_partitioned, close_loop,
                     commutator_trajectory, generate_realizable, random_symplectic, reduce,
                     simulate, skew_drift, synthesize, to_standard, transfer_equiv_check)
random_symplectic(3, np.random.default_rng(0))
generate_realizable(Dimensions(2, 2, 4, 2, 2), 1)
ref = mixed_reference()
st = ref.structure
commutator_trajectory(ref, [0.0, 0.5, 2.0])
skew_drift(simulate(ref, t_final=0.1, dt=0.01), st.theta_n)
check_standard(ref)
check_standard_partitioned(ref)
check_quantum(QuantumOnlySystem(ref.a[:2, :2], ref.b[:2], ref.c[:2, :2], ref.d[:2]))
general = GeneralSystem(ref.a, ref.b, ref.c, ref.d, st.theta_n, st.f_w,
                        ref.d @ st.f_w @ ref.d.T)
check_general(general)
transfer_equiv_check(general, to_standard(general))
close_loop(synthesize(ref))
reduce(augment(ref), st.theta_w)
print(any(name.split(".")[0] == "scipy" for name in sys.modules))
"""
    assert fresh(probe) == "False"


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SOURCES = sorted(Path(qcsynth.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_parses_at_the_declared_python_floor(path):
    # the suite may run on a newer Python than requires-python names, so the
    # grammar of the floor is checked here, not only by running on it
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text())
    assert floor, "requires-python not found"
    ast.parse(path.read_text(), filename=str(path),
              feature_version=tuple(map(int, floor.groups())))
