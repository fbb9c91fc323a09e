import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import qcsynth
from qcsynth import (Dimensions, GeneralSystem, QuantumOnlySystem, Realization,
                     StandardSystem, augment, diag_j, generate_realizable, simulate,
                     skew_drift, synthesize)
from qcsynth.cli import (_decode, _dumps, _encode_complex, _encode_real, load_system, main,
                         system_to_obj)
from refsystems import MIXED_D, damped_cavity, mixed_reference, scaled_generated
from test_synthesis import dimensions


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")
    return str(path)


def write_system(path, model):
    return write_json(path, system_to_obj(model))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_general(sys_model):
    st = sys_model.structure
    f_y = sys_model.d @ st.f_w @ sys_model.d.T
    return GeneralSystem(sys_model.a, sys_model.b, sys_model.c, sys_model.d,
                         st.theta_n, st.f_w, f_y)


def perturbed_reference():
    sys_model = mixed_reference()
    b = sys_model.b.copy()
    b[0, 0] += 0.05
    return StandardSystem(sys_model.dims, sys_model.a, b, sys_model.c, sys_model.d)


def test_to_standard_validates_its_input_once(tmp_path, capsys, monkeypatch):
    from qcsynth import cli, sysmodel, transform
    calls = []

    def counted(model):
        calls.append(type(model).__name__)
        return sysmodel.validate(model)

    monkeypatch.setattr(cli, "validate", counted)
    monkeypatch.setattr(transform, "validate", counted)
    model = as_general(mixed_reference())
    code, out, _ = run(capsys, "to-standard", write_system(tmp_path / "g.json", model))
    assert code == 0
    assert calls == ["GeneralSystem"]
    # a library call still validates
    calls.clear()
    witness = transform.to_standard(model)
    assert calls == ["GeneralSystem"]
    assert json.loads(out)["standard"] == json.loads(json.dumps(
        system_to_obj(witness.standard)))


# ---------------------------------------------------------------------------
# check


def test_check_standard_pass(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, out, err = run(capsys, "check", path)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["kind"] == "realizability-report"
    assert report["form"] == "standard"
    assert report["verdict"] == "pass"
    assert [c["name"] for c in report["conditions"]] == [
        "state-commutation", "non-demolition", "output-ito"]
    assert "check: PASS" in err


def test_check_partitioned(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, out, _ = run(capsys, "check", "--partitioned", path)
    assert code == 0
    report = json.loads(out)
    assert len(report["conditions"]) == 10
    assert report["verdict"] == "pass"


def test_check_fail_exits_one(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", perturbed_reference())
    code, out, err = run(capsys, "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["worst"] == "state-commutation"
    assert "check: FAIL" in err


def test_check_other_forms(tmp_path, capsys):
    cavity = damped_cavity()
    qpath = write_system(tmp_path / "q.json", QuantumOnlySystem(
        cavity.a, cavity.b, cavity.c, cavity.d))
    code, out, _ = run(capsys, "check", qpath)
    assert code == 0
    assert json.loads(out)["form"] == "quantum"

    gpath = write_system(tmp_path / "g.json", as_general(mixed_reference()))
    code, out, _ = run(capsys, "check", gpath)
    assert code == 0
    assert json.loads(out)["form"] == "general"


@pytest.mark.parametrize("form", ["general", "quantum"])
def test_check_partitioned_needs_a_standard_file(tmp_path, capsys, monkeypatch, form):
    from qcsynth import realizability
    for name in ("check_general", "check_quantum", "check_standard",
                 "check_standard_partitioned"):
        monkeypatch.setattr(realizability, name, None)  # a checker run would raise
    cavity = damped_cavity()
    model = (as_general(mixed_reference()) if form == "general"
             else QuantumOnlySystem(cavity.a, cavity.b, cavity.c, cavity.d))
    path = write_system(tmp_path / "sys.json", model)
    code, out, err = run(capsys, "check", "--partitioned", path)
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: --partitioned checks standard-form files only, "
                   f"got form '{form}'\n")


def test_check_form_mismatch(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, _, err = run(capsys, "check", "--form", "general", path)
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# to-standard


def test_to_standard_round_trip(tmp_path, capsys):
    gpath = write_system(tmp_path / "g.json", as_general(mixed_reference()))
    code, out, err = run(capsys, "to-standard", gpath)
    assert code == 0
    witness = json.loads(out)
    assert witness["kind"] == "transform-witness"
    assert witness["transfer_max_deviation"] <= 1e-8
    assert "to-standard: OK" in err
    # the emitted standard block is itself a loadable, realizable system
    spath = write_json(tmp_path / "s.json", witness["standard"])
    assert run(capsys, "check", spath)[0] == 0


def test_to_standard_rejects_standard_input(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, _, err = run(capsys, "to-standard", path)
    assert code == 2
    assert "general-form" in err


# ---------------------------------------------------------------------------
# synthesize / verify-realization


def test_synthesize_verify_round_trip(tmp_path, capsys):
    spath = write_system(tmp_path / "sys.json", mixed_reference())
    rpath = str(tmp_path / "real.json")
    code, out, err = run(capsys, "synthesize", spath, "-o", rpath)
    assert code == 0
    assert out == ""
    assert "synthesize: OK" in err
    body = json.loads((tmp_path / "real.json").read_text())
    assert body["kind"] == "realization"
    assert body["reconstruction_residual"] <= 1e-8
    assert body["r"] == len(body["g_mat"])

    code, out, err = run(capsys, "verify-realization", rpath,
                         "--reference", spath)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    assert "verify-realization: PASS" in err


def test_verify_detects_tampering(tmp_path, capsys):
    spath = write_system(tmp_path / "sys.json", mixed_reference())
    rpath = str(tmp_path / "real.json")
    run(capsys, "synthesize", spath, "-o", rpath, "--quiet")
    body = json.loads((tmp_path / "real.json").read_text())
    body["g1"]["e_mat"][0][0] += 0.5
    write_json(tmp_path / "real.json", body)
    code, out, err = run(capsys, "verify-realization", rpath,
                         "--reference", spath)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["block_errors"]["a"] > 1e-8
    assert "FAIL" in err


def test_synthesize_rejects_unrealizable(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", perturbed_reference())
    code, out, err = run(capsys, "synthesize", path)
    assert code == 1
    assert json.loads(out)["kind"] == "realizability-report"
    assert "synthesize: FAIL" in err


def test_verify_dimension_mismatch(tmp_path, capsys):
    spath = write_system(tmp_path / "sys.json", mixed_reference())
    rpath = str(tmp_path / "real.json")
    run(capsys, "synthesize", spath, "-o", rpath, "--quiet")
    other = write_system(tmp_path / "other.json", damped_cavity())
    code, _, err = run(capsys, "verify-realization", rpath, "--reference", other)
    assert code == 2
    assert "dimensions differ" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", damped_cavity())
    code, out, err = run(capsys, "simulate", path, "--t-final", "1.0",
                         "--dt", "0.01")
    assert code == 0
    traj = json.loads(out)
    assert traj["kind"] == "trajectory"
    assert len(traj["times"]) == 101
    assert traj["skew_drift"] <= 1e-10
    assert "simulate: OK" in err


def test_simulate_bad_dt(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", damped_cavity())
    code, _, err = run(capsys, "simulate", path, "--dt", "0")
    assert code == 2
    assert "dt must be positive" in err


def test_simulate_bad_horizon(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", damped_cavity())
    for argv, message in ((["--t-final", "-1"], "t_final must be nonnegative"),
                          (["--t-final", "0.0025", "--dt", "0.001"], "whole number of dt"),
                          (["--dt", "nan"], "dt must be positive")):
        code, out, err = run(capsys, "simulate", path, *argv)
        assert code == 2
        assert out == ""
        assert message in err


def test_simulate_output_matches_elementwise_encoding(tmp_path, capsys):
    model = damped_cavity()
    path = write_system(tmp_path / "sys.json", model)
    code, out, _ = run(capsys, "simulate", path, "--t-final", "0.05", "--dt", "0.01")
    assert code == 0
    traj = simulate(model, t_final=0.05, dt=0.01)
    expected = {
        "schema_version": 1,
        "kind": "trajectory",
        "t_final": 0.05,
        "dt": 0.01,
        "skew_drift": skew_drift(traj, model.structure.theta_n),
        "times": [float(t) for t in traj.times],
        "means": [[float(x) for x in mu] for mu in traj.means],
        "second_moments": [[[[float(x.real), float(x.imag)] for x in row] for row in s]
                           for s in traj.second_moments],
    }
    assert out == json.dumps(expected, indent=2) + "\n"


def test_encoders_match_elementwise_floats():
    mat = np.array([[-0.0, 1e-300, 3.0], [complex(2.0, -0.0), complex(-0.0, 1e-300), -7.0]])
    want = [[[float(x.real), float(x.imag)] for x in row] for row in mat]
    assert json.dumps(_encode_complex(mat)) == json.dumps(want)
    assert json.dumps(_encode_complex(mat[:0])) == "[]"
    real = mat.real
    want = [[float(x) for x in row] for row in real]
    assert json.dumps(_encode_real(real)) == json.dumps(want)


# ---------------------------------------------------------------------------
# complete-symplectic / augment


def test_complete_symplectic(tmp_path, capsys):
    path = write_json(tmp_path / "dq.json", {"d_q": MIXED_D[:2].tolist()})
    code, out, _ = run(capsys, "complete-symplectic", path)
    assert code == 0
    report = json.loads(out)
    assert np.asarray(report["n_mat"]).shape == (4, 6)
    assert report["residual"] <= 1e-8


def test_complete_symplectic_rejects_odd_width(tmp_path, capsys):
    path = write_json(tmp_path / "dq.json", {"d_q": [[1.0, 0.0, 0.0]]})
    code, _, err = run(capsys, "complete-symplectic", path)
    assert code == 2
    assert "even" in err


def test_complete_symplectic_bad_rows(tmp_path, capsys):
    # zero rows cannot be part of any symplectic matrix
    path = write_json(tmp_path / "dq.json", {"d_q": [[0.0, 0.0], [0.0, 0.0]]})
    code, _, err = run(capsys, "complete-symplectic", path)
    assert code == 1
    assert err.startswith("error:")


def test_augment_command(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, out, err = run(capsys, "augment", path)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert np.asarray(report["theta_tilde"]).shape == (4, 4)
    assert set(report["relation_residuals"]) == {
        "output-coupling", "auxiliary-skew", "auxiliary-closure"}
    assert report["reduced_check"]["verdict"] == "pass"
    assert "augment: PASS" in err


def test_augment_needs_standard_form(tmp_path, capsys):
    cavity = damped_cavity()
    path = write_system(tmp_path / "q.json", QuantumOnlySystem(
        cavity.a, cavity.b, cavity.c, cavity.d))
    code, _, err = run(capsys, "augment", path)
    assert code == 2
    assert "standard-form" in err


# ---------------------------------------------------------------------------
# generate


def test_generate_round_trips_through_check(tmp_path, capsys):
    path = str(tmp_path / "gen.json")
    code, _, err = run(capsys, "generate", "--n-q", "1", "--n-c", "1",
                       "--m", "2", "--n-yq", "1", "--n-yc", "1",
                       "--seed", "3", "-o", path)
    assert code == 0
    assert "generate: wrote" in err
    assert run(capsys, "check", path)[0] == 0
    assert run(capsys, "check", "--partitioned", path)[0] == 0
    assert run(capsys, "synthesize", path)[0] == 0


def test_generate_deterministic_output(tmp_path, capsys):
    argv = ("generate", "--n-q", "2", "--n-c", "1", "--m", "2",
            "--n-yq", "1", "--n-yc", "2", "--seed", "11")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_generate_rejects_bad_counts(capsys):
    code, _, err = run(capsys, "generate", "--n-q", "1", "--n-c", "0",
                       "--m", "1", "--n-yq", "2", "--n-yc", "0")
    assert code == 2
    assert err.startswith("error:")


def test_generate_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "generate", "--n-q", "1", "--n-c", "1", "--m", "2",
                         "--n-yq", "1", "--n-yc", "1", "--seed", "-5")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative, got -5\n"


# ---------------------------------------------------------------------------
# tolerance plumbing


def test_tol_env_and_flag_precedence(tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path / "sys.json", perturbed_reference())
    assert run(capsys, "check", path)[0] == 1

    monkeypatch.setenv("QCSYNTH_TOL", "1.0")
    assert run(capsys, "check", path)[0] == 0
    # an explicit flag beats the environment
    assert run(capsys, "check", "--tol", "1e-12", path)[0] == 1


def test_tol_env_must_be_numeric(tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    monkeypatch.setenv("QCSYNTH_TOL", "loose")
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "QCSYNTH_TOL" in err


def test_reported_tol_matches_flag(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    _, out, _ = run(capsys, "check", "--tol", "1e-6", path)
    assert json.loads(out)["tol"] == 1e-6


# ---------------------------------------------------------------------------
# input errors and output plumbing


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "no-such-file.json")
    assert code == 2
    assert "cannot read" in err


def test_boolean_entries_rejected(tmp_path, capsys):
    obj = system_to_obj(damped_cavity())
    obj["a"][0][0] = True
    path = write_json(tmp_path / "sys.json", obj)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "expected a number" in err


def test_shape_mismatch_rejected(tmp_path, capsys):
    obj = system_to_obj(mixed_reference())
    obj["b"] = [row[:-1] for row in obj["b"]]
    path = write_json(tmp_path / "sys.json", obj)
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert "expected shape" in err


def test_invalid_quantum_form_rejected(tmp_path, capsys):
    path = write_json(tmp_path / "q.json", {
        "form": "quantum", "a": [[0.0]], "b": [[1.0]],
        "c": [[1.0]], "d": [[1.0]]})
    code, _, err = run(capsys, "check", path)
    assert code == 2
    assert err.startswith("error:")


def test_quiet_silences_summary(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, out, err = run(capsys, "check", "--quiet", path)
    assert code == 0
    assert err == ""
    assert json.loads(out)["verdict"] == "pass"


def test_deterministic_reports(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    _, first, _ = run(capsys, "check", path)
    _, second, _ = run(capsys, "check", path)
    assert first == second


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -10 ** 400])
def test_nonfinite_entries_rejected(tmp_path, capsys, bad):
    standard = system_to_obj(mixed_reference())
    standard["a"][0][0] = bad
    general = system_to_obj(as_general(mixed_reference()))
    general["f_v"][0][1][1] = bad
    cases = [("check", write_json(tmp_path / "s.json", standard)),
             ("to-standard", write_json(tmp_path / "g.json", general)),
             ("complete-symplectic", write_json(tmp_path / "dq.json",
                                                {"d_q": [[bad, 0.0], [0.0, 1.0]]}))]
    for command, path in cases:
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert "finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, monkeypatch, value):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, out, err = run(capsys, "check", f"--tol={value}", path)
    assert (code, out) == (2, "")
    assert "--tol" in err
    monkeypatch.setenv("QCSYNTH_TOL", value)
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (2, "")
    assert "QCSYNTH_TOL" in err


def test_numpy_only_commands_leave_scipy_linalg_unloaded(tmp_path, capsys):
    # No command loads any scipy module, generate included.  The commands
    # share one fresh interpreter.
    sys_path = write_system(tmp_path / "sys.json", mixed_reference())
    real_path = str(tmp_path / "real.json")
    assert run(capsys, "synthesize", sys_path, "-o", real_path)[0] == 0
    bad = system_to_obj(mixed_reference())
    bad["a"] = bad["a"][:-1]
    commands = [
        ["check", sys_path],
        ["check", "--partitioned", sys_path],
        ["to-standard", write_system(tmp_path / "g.json", as_general(mixed_reference()))],
        ["complete-symplectic", write_json(tmp_path / "dq.json", {"d_q": MIXED_D[:2].tolist()})],
        ["augment", sys_path],
        ["verify-realization", real_path, "--reference", sys_path],
        ["synthesize", sys_path],
        ["simulate", sys_path, "--t-final", "0.01"],
        ["check", write_json(tmp_path / "bad.json", bad)],
    ]
    probe = (
        "import json, sys\n"
        "from qcsynth.cli import main\n"
        "codes = [main(argv + ['--quiet', '-o', sys.argv[1]]) for argv in json.loads(sys.argv[2])]\n"
        "def scipy_loaded():\n"
        "    return any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
        "before = scipy_loaded()\n"
        "main(['generate', '--n-q', '1', '--n-c', '1', '--m', '2', '--n-yq', '1',\n"
        "      '--n-yc', '1', '--quiet', '-o', sys.argv[1]])\n"
        "print(json.dumps([codes, before, scipy_loaded()]))\n"
    )
    src = str(Path(qcsynth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QCSYNTH_TOL", None)
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out.json"),
                           json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 2]
    assert not before
    assert not after


# ---------------------------------------------------------------------------
# report writer


@pytest.mark.parametrize("value", [
    np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((2, 0), dtype=complex),
    np.array(2.5), np.array([[1.0]]), np.array([-0.0, 1e-300, 1e16, 0.1, -7.0]),
    np.array([np.nan, np.inf, -np.inf, 1.0]),
    np.arange(24.0).reshape(2, 3, 4) / 7.0,
    np.array([[complex(-0.0, 1e-300), complex(1e16, -0.0)], [complex(np.inf, np.nan), 3.0]]),
])
def test_writer_matches_json_dumps(value):
    encoded = _encode_complex(value) if value.dtype.kind == "c" else _encode_real(value)
    scalars = {"zero": -0.0, "tiny": 1e-300, "big": 1e16, "nan": float("nan"),
               "inf": float("inf"), "ninf": float("-inf"), "int": 3, "none": None,
               "flag": True, "text": "line\nbreak \"quoted\" é", "empty": {},
               "list": [[1.0, 2]], "nested": {"deeper": {}}}
    got = _dumps({"value": value, "inner": {"value": value, **scalars}, **scalars})
    want = json.dumps({"value": encoded, "inner": {"value": encoded, **scalars}, **scalars},
                      indent=2)
    assert got == want
    assert _dumps(value) == json.dumps(encoded, indent=2)


@pytest.mark.parametrize("model", [
    mixed_reference(),
    # classical only
    StandardSystem(Dimensions(0, 2, 1, 0, 1), np.array([[0.0, 1.0], [-2.0, -3.0]]),
                   np.zeros((2, 2)), np.array([[1.0, 0.0]]), np.zeros((1, 2))),
    # n = 1
    StandardSystem(Dimensions(0, 1, 1, 0, 1), np.array([[-1.0]]), np.zeros((1, 2)),
                   np.array([[1.0]]), np.zeros((1, 2))),
])
@pytest.mark.parametrize("t_final", ["0", "0.03"])
def test_simulate_writer_matches_json_dumps(tmp_path, capsys, model, t_final):
    path = write_system(tmp_path / "sys.json", model)
    code, out, _ = run(capsys, "simulate", path, "--t-final", t_final, "--dt", "0.01")
    assert code == 0
    traj = simulate(model, t_final=float(t_final), dt=0.01)
    expected = {
        "schema_version": 1,
        "kind": "trajectory",
        "t_final": float(t_final),
        "dt": 0.01,
        "skew_drift": skew_drift(traj, model.structure.theta_n),
        "times": [float(t) for t in traj.times],
        "means": [[float(x) for x in mu] for mu in traj.means],
        "second_moments": [[[[float(x.real), float(x.imag)] for x in row] for row in s]
                           for s in traj.second_moments],
    }
    assert out == json.dumps(expected, indent=2) + "\n"
    out_path = tmp_path / "out.json"
    assert run(capsys, "simulate", path, "--t-final", t_final, "--dt", "0.01",
               "-o", str(out_path))[0] == 0
    assert out_path.read_text() == out


def test_every_report_matches_json_dumps(tmp_path, capsys):
    # a report re-encoded by json.dumps(indent=2) must come back byte for byte,
    # on stdout and through -o alike
    sys_path = write_system(tmp_path / "sys.json", mixed_reference())
    real_path = str(tmp_path / "real.json")
    assert run(capsys, "synthesize", sys_path, "-o", real_path)[0] == 0
    commands = [
        ["check", sys_path],
        ["check", "--partitioned", sys_path],
        ["check", write_system(tmp_path / "broken.json", perturbed_reference())],
        ["to-standard", write_system(tmp_path / "g.json", as_general(mixed_reference()))],
        ["synthesize", sys_path],
        ["verify-realization", real_path, "--reference", sys_path],
        ["complete-symplectic", write_json(tmp_path / "dq.json", {"d_q": MIXED_D[:2].tolist()})],
        ["augment", sys_path],
        ["generate", "--n-q", "2", "--n-c", "2", "--m", "3", "--n-yq", "1", "--n-yc", "1"],
        ["simulate", sys_path, "--t-final", "0.05"],
    ]
    for argv in commands:
        _, out, _ = run(capsys, *argv)
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
        out_path = tmp_path / "out.json"
        run(capsys, *argv, "-o", str(out_path))
        assert out_path.read_text() == out, argv


def test_overflowing_residual_fails_check(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert run(capsys, "generate", "--n-q", "1", "--n-c", "1", "--m", "2", "--n-yq", "1",
               "--n-yc", "1", "--seed", "3", "-o", path)[0] == 0
    obj = json.loads(Path(path).read_text())
    obj["a"] = [[x * 1e300 for x in row] for row in obj["a"]]
    write_json(tmp_path / "s.json", obj)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run(capsys, "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    cond = report["conditions"][0]
    assert cond["name"] == "state-commutation"
    assert (cond["residual"], cond["threshold"], cond["passed"]) == (None, None, False)
    assert "FAIL" in err


# ---------------------------------------------------------------------------
# matrix parser


@pytest.mark.parametrize("field, edit, message", [
    ("a", lambda m: m.__setitem__(0, 1.0), "a: expected a list of rows"),
    ("a", lambda m: m[0].__setitem__(1, "1.0"), "a[0][1]: expected a number"),
    ("a", lambda m: m[1].__setitem__(0, None), "a[1][0]: expected a number"),
    ("a", lambda m: m[0].__setitem__(2, 10 ** 400), "a[0][2]: expected a finite number"),
    ("a", lambda m: m[1].pop(), "a: row 1 has inconsistent length"),
    ("a", lambda m: m.__setitem__(2, 5.0), "a: row 2 has inconsistent length"),
    ("f_v", lambda m: m[0].__setitem__(1, [1.0, 2.0, 3.0]),
     "f_v[0][1]: complex entries are [re, im] pairs"),
    ("f_v", lambda m: m[1].__setitem__(0, [0.0, "1"]), "f_v[1][0]: expected a number"),
    ("f_v", lambda m: m[1].__setitem__(1, [float("nan"), 0.0]),
     "f_v[1][1]: expected a finite number"),
    ("f_v", lambda m: m[2].__setitem__(2, False), "f_v[2][2]: expected a number"),
])
def test_parser_messages(tmp_path, capsys, field, edit, message):
    obj = system_to_obj(as_general(mixed_reference()))
    edit(obj[field])
    code, out, err = run(capsys, "check", write_json(tmp_path / "g.json", obj))
    assert (code, out) == (2, "")
    assert message in err


def test_parser_accepts_numbers_and_pairs_alike(tmp_path):
    model = as_general(mixed_reference())
    obj = system_to_obj(model)
    # integers, and real complex entries written as plain numbers
    obj["a"] = [[int(x) if x == int(x) else x for x in row] for row in obj["a"]]
    obj["f_v"] = [[re if im == 0.0 else [re, im] for re, im in row] for row in obj["f_v"]]
    loaded = load_system(write_json(tmp_path / "g.json", obj))
    assert any(isinstance(x, int) for row in obj["a"] for x in row)
    assert any(isinstance(x, float) for row in obj["f_v"] for x in row)
    for name in ("a_g", "b_g", "c_g", "d_g", "big_theta_n", "f_v", "f_y"):
        assert np.array_equal(getattr(loaded, name), getattr(model, name)), name
    assert loaded.a_g.dtype == float and loaded.f_v.dtype == complex


def overflowing_system(tmp_path, capsys):
    path = str(tmp_path / "s.json")
    assert run(capsys, "generate", "--n-q", "1", "--n-c", "1", "--m", "2", "--n-yq", "1",
               "--n-yc", "1", "--seed", "3", "-o", path)[0] == 0
    obj = json.loads(Path(path).read_text())
    obj["a"] = [[x * 1e300 for x in row] for row in obj["a"]]
    return write_json(tmp_path / "s.json", obj)


@pytest.mark.parametrize("argv, summary", [
    (["check"], "check: FAIL (worst condition state-commutation, residual inf)"),
    (["check", "--partitioned"], "check: FAIL (worst condition qq-state, residual inf)"),
    (["augment"], "augment: FAIL (reduced check worst state-commutation)"),
    (["synthesize"], "synthesize: FAIL (input fails realizability "
                     "(worst condition: state-commutation))"),
])
def test_overflow_writes_only_the_summary(tmp_path, capsys, argv, summary):
    # no np.errstate here, unlike test_overflowing_residual_fails_check
    path = overflowing_system(tmp_path, capsys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, path)
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == summary + "\n"


def test_overflow_check_process_stderr(tmp_path, capsys):
    # the same check as its own process, with every warning shown
    path = overflowing_system(tmp_path, capsys)
    env = dict(os.environ, PYTHONPATH=str(Path(qcsynth.__file__).resolve().parent.parent))
    env.pop("QCSYNTH_TOL", None)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-W", "always", "-c",
                           "from qcsynth.cli import entry; entry()", "check", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "check: FAIL (worst condition state-commutation, residual inf)\n"
    assert json.loads(proc.stdout)["conditions"][0]["residual"] is None


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv", [["check"], ["check", "--partitioned"], ["augment"],
                                  ["synthesize"]])
def test_overflow_reports_are_strict_json(tmp_path, capsys, argv):
    path = overflowing_system(tmp_path, capsys)
    code, out, _ = run(capsys, *argv, path)
    assert code == 1
    report = json.loads(out, parse_constant=reject_constant)
    if argv == ["augment"]:
        report = report["reduced_check"]
    assert report["schema_version"] == 1
    assert report["verdict"] == "fail"
    flagged = [c for c in report["conditions"] if c.get("non_finite")]
    assert flagged and flagged[0]["name"] == report["worst"]
    for cond in report["conditions"]:
        values = (cond["residual"], cond["threshold"])
        if cond.get("non_finite"):
            assert cond["non_finite"] is True and None in values and not cond["passed"]
        else:
            assert "non_finite" not in cond and None not in values


def test_augment_reports_relation_residuals(tmp_path, capsys):
    model = mixed_reference()
    path = write_system(tmp_path / "sys.json", model)
    code, out, _ = run(capsys, "augment", path)
    assert code == 0
    assert json.loads(out)["relation_residuals"] == augment(model).relation_residuals(model)


# ---------------------------------------------------------------------------
# one form table behind the reader and the writer


@hst.composite
def system_models(draw):
    """A valid model of any form, every block count from 0 to 2."""
    form = draw(hst.sampled_from(["standard", "general", "quantum"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2**16)))
    size = hst.integers(0, 2)
    if form == "standard":
        m = draw(size)
        dims = Dimensions(draw(size), draw(size), m, draw(hst.integers(0, m)), draw(size))
        n, n_y, w = dims.n, dims.n_y, 2 * m
        return StandardSystem(dims, rng.standard_normal((n, n)), rng.standard_normal((n, w)),
                              rng.standard_normal((n_y, n)), rng.standard_normal((n_y, w)))
    if form == "general":
        n, m, n_y = draw(size), draw(size), draw(size)
        x = rng.standard_normal((n, n))
        y_v = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        y_y = rng.standard_normal((n_y, n_y)) + 1j * rng.standard_normal((n_y, n_y))
        return GeneralSystem(rng.standard_normal((n, n)), rng.standard_normal((n, m)),
                             rng.standard_normal((n_y, n)), rng.standard_normal((n_y, m)),
                             x - x.T, y_v @ y_v.conj().T, y_y @ y_y.conj().T)
    n_q, m = draw(size), draw(size)
    n_z = draw(hst.integers(0, m))
    return QuantumOnlySystem(rng.standard_normal((2 * n_q, 2 * n_q)),
                             rng.standard_normal((2 * n_q, 2 * m)),
                             rng.standard_normal((2 * n_z, 2 * n_q)), np.eye(2 * n_z, 2 * m))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(system_models())
def test_system_files_round_trip_bitwise(tmp_path_factory, model):
    path = write_system(tmp_path_factory.getbasetemp() / "round_trip.json", model)
    loaded = load_system(path)
    assert type(loaded) is type(model)
    for f in fields(model):
        got, want = getattr(loaded, f.name), getattr(model, f.name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), f.name
        else:
            assert got == want


def assert_same_record(got, want, where=""):
    """Every field of two records equal, each matrix bit for bit."""
    assert type(got) is type(want), where
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
                where + f.name
        elif is_dataclass(b):
            assert_same_record(a, b, f"{where}{f.name}.")
        else:
            assert a == b, where + f.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dimensions(), hst.integers(0, 2**16))
def test_realization_reports_round_trip_bitwise(tmp_path_factory, dims, seed):
    model = generate_realizable(dims, seed)
    base = tmp_path_factory.getbasetemp()
    report = base / "realization.json"
    assert main(["synthesize", write_system(base / "standard.json", model), "--quiet",
                 "-o", str(report)]) == 0
    obj = json.loads(report.read_text())
    want = synthesize(model)
    assert obj["r"] == len(want.g_mat)
    assert_same_record(_decode(Realization, obj, str(report)), want)


@pytest.mark.parametrize("edit, message", [
    (lambda body: body.update(v_sympl=[[1.0]]), "v_sympl: expected shape (4, 4), got (1, 1)"),
    (lambda body: body["g1"].pop("k_q"), "g1.k_q: expected a list of rows"),
    (lambda body: body.pop("g2"), "g2: expected an object"),
    (lambda body: body.update(r=body["r"] + 1), "r: expected 2, the row count of g_mat, got 3"),
], ids=["mis-shaped v_sympl", "missing g1 matrix", "missing g2", "r against g_mat"])
def test_tampered_realization_is_an_input_error(tmp_path, capsys, edit, message):
    spath = write_system(tmp_path / "sys.json", mixed_reference())
    rpath = tmp_path / "real.json"
    assert run(capsys, "synthesize", spath, "--quiet", "-o", str(rpath))[0] == 0
    body = json.loads(rpath.read_text())
    edit(body)
    write_json(rpath, body)
    code, out, err = run(capsys, "verify-realization", str(rpath), "--reference", spath)
    assert (code, out) == (2, "")
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("model", [
    GeneralSystem(-0.5 * np.eye(2), np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)),
                  diag_j(1), np.eye(2) + 1j * diag_j(1), np.zeros((0, 0))),
    QuantumOnlySystem(-0.5 * np.eye(2), np.eye(2), np.zeros((0, 2)), np.zeros((0, 2))),
], ids=["general", "quantum"])
def test_check_reads_files_without_outputs(tmp_path, capsys, model):
    path = write_system(tmp_path / "sys.json", model)
    assert json.loads(Path(path).read_text())["c"] == []
    code, out, err = run(capsys, "check", path)
    assert code == 0, err
    assert json.loads(out)["verdict"] == "pass"


def test_quantum_file_carries_its_input_count(tmp_path):
    empty = QuantumOnlySystem(np.zeros((0, 0)), np.zeros((0, 4)), np.zeros((0, 0)),
                              np.zeros((0, 4)))
    obj = system_to_obj(empty)
    assert list(obj) == ["form", "m", "a", "b", "c", "d"]
    assert (obj["m"], obj["b"], obj["d"]) == (2, [], [])
    loaded = load_system(write_json(tmp_path / "q.json", obj))
    assert (loaded.b.shape, loaded.d.shape) == ((0, 4), (0, 4))
    # a file without "m" loads as before: nothing fixes the input width
    del obj["m"]
    assert load_system(write_json(tmp_path / "q.json", obj)).m == 0


@pytest.mark.parametrize("m, message", [
    (3, ".m: expected 1, the input count of b and d, got 3"),
    (-1, ".m: expected a nonnegative integer, got -1"),
    (1.0, ".m: expected an integer, got 1.0"),
], ids=["disagrees", "negative", "not an integer"])
def test_quantum_input_count_is_checked(tmp_path, capsys, m, message):
    cavity = damped_cavity()
    obj = system_to_obj(QuantumOnlySystem(cavity.a, cavity.b, cavity.c, cavity.d))
    assert obj["m"] == 1
    path = write_json(tmp_path / "q.json", {**obj, "m": m})
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}") and err.endswith(message + "\n"), err


@pytest.mark.parametrize("argv, have, want", [
    (["check", "--form", "general"], "standard", "general"),
    (["check", "--form", "quantum"], "general", "quantum"),
    (["to-standard"], "quantum", "general"),
    (["synthesize"], "general", "standard"),
    (["simulate"], "quantum", "standard"),
    (["augment"], "general", "standard"),
])
def test_wrong_form_exits_two_without_report(tmp_path, capsys, argv, have, want):
    cavity = damped_cavity()
    models = {"standard": mixed_reference(), "general": as_general(mixed_reference()),
              "quantum": QuantumOnlySystem(cavity.a, cavity.b, cavity.c, cavity.d)}
    path = write_system(tmp_path / "sys.json", models[have])
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: expected a {want}-form system file, got form '{have}'\n"


def test_verify_reference_of_wrong_form(tmp_path, capsys):
    spath = write_system(tmp_path / "sys.json", mixed_reference())
    rpath = str(tmp_path / "real.json")
    run(capsys, "synthesize", spath, "-o", rpath, "--quiet")
    gpath = write_system(tmp_path / "g.json", as_general(mixed_reference()))
    code, out, err = run(capsys, "verify-realization", rpath, "--reference", gpath)
    assert (code, out) == (2, "")
    assert err == (f"error: {gpath}: expected a standard-form system file, "
                   "got form 'general'\n")


def test_to_standard_judges_deviation_against_model_scale(tmp_path, capsys):
    # entries near 1e7: the transfer deviation is round-off relative to them,
    # yet far above tol in absolute terms
    model = generate_realizable(Dimensions(2, 2, 4, 2, 2), 1)
    st = model.structure
    d = 1e6 * model.d
    f_y = d @ st.f_w @ d.T
    general = GeneralSystem(1e6 * model.a, 1e6 * model.b, 1e6 * model.c, d, st.theta_n,
                            st.f_w, (f_y + f_y.conj().T) / 2)
    path = write_system(tmp_path / "g.json", general)
    code, out, err = run(capsys, "to-standard", path)
    assert code == 0, err
    assert "to-standard: OK" in err
    assert json.loads(out)["transfer_max_deviation"] > 1e-8


def test_complete_symplectic_overflowing_scale_is_one_error(tmp_path, capsys):
    path = write_json(tmp_path / "dq.json", {"d_q": [[1e200, 0, 0, 0], [0, 1e-200, 0, 0]]})
    code, out, err = run(capsys, "complete-symplectic", path)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("factor, message", [
    (1e160, "error: augmentation overflowed"),
    (1e140, "error: augment: a relation residual overflowed"),
])
def test_augment_overflow_is_one_error(tmp_path, capsys, factor, message):
    path = write_system(tmp_path / "s.json", scaled_generated(factor))
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "augment", path, "-o", str(report))
    assert (code, out) == (1, "")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.startswith(message) and err.count("\n") == 1
    assert not report.exists()


# ---------------------------------------------------------------------------
# processes: `python -m` and the modules each command imports


def run_process(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(qcsynth.__file__).resolve().parent.parent))
    env.pop("QCSYNTH_TOL", None)
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("module", ["qcsynth", "qcsynth.cli"])
def test_python_m_runs_the_command(tmp_path, module):
    missing = str(tmp_path / "missing.json")
    proc = run_process("-m", module, "check", missing)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: cannot read {missing}")


def test_augment_overflow_process_under_warnings_as_errors(tmp_path):
    path = write_system(tmp_path / "s.json", scaled_generated(1e160))
    proc = run_process("-W", "error", "-m", "qcsynth", "augment", path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: augmentation overflowed")
    assert proc.stderr.count("\n") == 1


def loaded_modules(*argv):
    """Exit code and the qcsynth and scipy modules loaded by one command, in a
    fresh interpreter."""
    probe = ("import json, sys\n"
             "from qcsynth.cli import main\n"
             "code = main(json.loads(sys.argv[1]))\n"
             "print(json.dumps([code, sorted(name for name in sys.modules\n"
             "                               if name.split('.')[0] in ('qcsynth', 'scipy'))]))\n")
    proc = run_process("-c", probe, json.dumps([*argv, "--quiet"]))
    assert proc.returncode == 0, proc.stderr
    code, names = json.loads(proc.stdout.splitlines()[-1])
    return code, set(names)


def test_every_command_runs_without_scipy(tmp_path, capsys):
    # scipy made unimportable before qcsynth loads: each command still
    # gives its usual exit code
    sys_path = write_system(tmp_path / "sys.json", mixed_reference())
    real_path = str(tmp_path / "real.json")
    assert run(capsys, "synthesize", sys_path, "-o", real_path)[0] == 0
    bad = system_to_obj(mixed_reference())
    bad["a"] = bad["a"][:-1]
    generate = ["generate", "--n-q", "1", "--n-c", "1", "--m", "2", "--n-yq", "1", "--n-yc", "1"]
    commands = [
        (["check", sys_path], 0),
        (["check", "--partitioned", sys_path], 0),
        (["check", write_system(tmp_path / "broken.json", perturbed_reference())], 1),
        (["check", write_json(tmp_path / "bad.json", bad)], 2),
        (["to-standard", write_system(tmp_path / "g.json", as_general(mixed_reference()))], 0),
        (["complete-symplectic",
          write_json(tmp_path / "dq.json", {"d_q": MIXED_D[:2].tolist()})], 0),
        (["augment", sys_path], 0),
        (["synthesize", sys_path], 0),
        (["verify-realization", real_path, "--reference", sys_path], 0),
        (["simulate", sys_path, "--t-final", "0.01"], 0),
        (generate, 0),
        ([*generate, "--seed", "-5"], 2),
    ]
    probe = ("import json, sys\n"
             "sys.modules['scipy'] = None\n"
             "from qcsynth.cli import main\n"
             "print(json.dumps([main(argv + ['--quiet', '-o', sys.argv[1]])\n"
             "                  for argv in json.loads(sys.argv[2])]))\n")
    proc = run_process("-c", probe, str(tmp_path / "out.json"),
                       json.dumps([argv for argv, _ in commands]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code for _, code in commands]


def test_bad_file_loads_only_the_reader(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"form": "standard", "dims":')
    code, names = loaded_modules("check", str(path))
    assert code == 2
    assert names == {"qcsynth", "qcsynth.cli", "qcsynth.sysmodel"}


def test_check_loads_no_synthesis_modules(tmp_path):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, names = loaded_modules("check", path, "-o", str(tmp_path / "report.json"))
    assert code == 0
    assert "qcsynth.realizability" in names
    assert not names & {f"qcsynth.{name}" for name in
                        ("synthesis", "transform", "augment", "moments", "matkit")}


def test_simulate_loads_neither_matkit_nor_scipy(tmp_path):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    code, names = loaded_modules("simulate", path, "--t-final", "0.01",
                                 "-o", str(tmp_path / "trajectory.json"))
    assert code == 0
    assert "qcsynth.moments" in names
    assert "qcsynth.matkit" not in names
    assert not any(name.split(".")[0] == "scipy" for name in names)


def test_to_standard_loads_no_checker_module(tmp_path):
    path = write_system(tmp_path / "g.json", as_general(mixed_reference()))
    code, names = loaded_modules("to-standard", path, "-o", str(tmp_path / "witness.json"))
    assert code == 0
    assert "qcsynth.transform" in names
    assert not names & {f"qcsynth.{name}" for name in
                        ("realizability", "synthesis", "augment", "moments")}


# ---------------------------------------------------------------------------
# overflowing inputs and closed pipes


def overflowing_general(a_factor, bc_factor):
    """The generated Dimensions(2, 2, 4, 2, 2) system behind a random
    orthogonal congruence, with a_g times a_factor and b_g, c_g times
    bc_factor."""
    model = generate_realizable(Dimensions(2, 2, 4, 2, 2), 1)
    st = model.structure
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((model.dims.n,) * 2))
    return GeneralSystem(a_factor * q @ model.a @ q.T, bc_factor * q @ model.b,
                         bc_factor * model.c @ q.T, model.d, q @ st.theta_n @ q.T, st.f_w,
                         model.d @ st.f_w @ model.d.T)


def overflow_inputs(tmp_path):
    """The overflow input files by name, and a realization of the system the
    first of them scales."""
    model = generate_realizable(Dimensions(1, 1, 2, 1, 1), seed=3)
    paths = {
        "a1e300": write_system(tmp_path / "a1e300.json", StandardSystem(
            model.dims, model.a * 1e300, model.b, model.c, model.d)),
        "general1e200": write_system(tmp_path / "general1e200.json",
                                     overflowing_general(1e200, 1e200)),
        # both transfer functions overflow, so their difference is NaN
        "bc1e160": write_system(tmp_path / "bc1e160.json", overflowing_general(1.0, 1e160)),
        "dq1e200": write_json(tmp_path / "dq1e200.json",
                              {"d_q": [[1e200, 0, 0, 0], [0, 1e-200, 0, 0]]}),
        "augment1e160": write_system(tmp_path / "augment1e160.json", scaled_generated(1e160)),
        "realization": str(tmp_path / "realization.json"),
    }
    assert main(["synthesize", write_system(tmp_path / "s.json", model), "--quiet",
                 "-o", paths["realization"]]) == 0
    return paths


@pytest.mark.parametrize("argv", [
    ["check", "a1e300"], ["check", "--partitioned", "a1e300"], ["synthesize", "a1e300"],
    ["simulate", "a1e300"], ["augment", "a1e300"],
    ["verify-realization", "realization", "--reference", "a1e300"],
    ["check", "general1e200"], ["to-standard", "general1e200"], ["to-standard", "bc1e160"],
    ["complete-symplectic", "dq1e200"], ["augment", "augment1e160"],
], ids=" ".join)
def test_overflow_warns_nothing_under_warnings_as_errors(tmp_path, argv):
    # a RuntimeWarning that escapes numpy would end this process in a traceback
    paths = overflow_inputs(tmp_path)
    proc = run_process("-W", "error::RuntimeWarning", "-m", "qcsynth",
                       *(paths.get(arg, arg) for arg in argv), "-o", str(tmp_path / "out.json"))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["to-standard", "general1e200"],
     "error: to-standard: the transfer deviation overflowed: transfer_max_deviation inf\n"),
    (["to-standard", "bc1e160"],
     "error: to-standard: the transfer deviation overflowed: transfer_max_deviation nan\n"),
    (["verify-realization", "realization", "--reference", "a1e300"],
     "error: verify-realization: a block error overflowed: a nan, "),
])
def test_overflowed_report_value_is_one_error(tmp_path, capsys, argv, message):
    paths = overflow_inputs(tmp_path)
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv), "-o", str(report))
    assert (code, out) == (1, "")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.startswith(message) and err.count("\n") == 1
    assert not report.exists()


def test_closed_pipe_exits_141_without_traceback(tmp_path):
    # the default simulate report of a 3-state system is about 4 MB, far
    # more than a pipe buffers, so the write meets the closed pipe
    path = write_system(tmp_path / "small.json", generate_realizable(Dimensions(1, 1, 2, 1, 1), 1))
    env = dict(os.environ, PYTHONPATH=str(Path(qcsynth.__file__).resolve().parent.parent))
    env.pop("QCSYNTH_TOL", None)
    proc = subprocess.Popen([sys.executable, "-m", "qcsynth", "simulate", path, "--quiet"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141
    assert err == ""


def skew_overflow_input(tmp_path, n_q=1, rate=36.8):
    """A file of n_q undriven modes, a = rate I, whose default simulate run
    ends with second moments of exp(10 rate): a skew drift of
    sqrt(2 n_q) (exp(10 rate) - 1).  The defaults give moments near 1e160,
    whose squares overflow."""
    n = 2 * n_q
    model = StandardSystem(Dimensions(n_q, 0, 1, 0, 0), rate * np.eye(n), np.zeros((n, 2)),
                           np.zeros((0, n)), np.zeros((0, 2)))
    return write_system(tmp_path / "skew.json", model)


def test_simulate_reports_a_skew_drift_whose_square_overflows(tmp_path, capsys):
    report = tmp_path / "trajectory.json"
    code, out, err = run(capsys, "simulate", skew_overflow_input(tmp_path), "-o", str(report))
    assert (code, out) == (0, ""), err
    drift = json.loads(report.read_text())["skew_drift"]
    assert drift == pytest.approx(np.sqrt(2.0) * np.expm1(368.0), rel=1e-9)
    assert drift == pytest.approx(9.35e159, rel=1e-3)


def test_simulate_overflowed_skew_drift_is_one_error(tmp_path, capsys):
    # three modes at 8.2e307 each: a finite trajectory whose true skew drift,
    # sqrt(6) 8.2e307, is past the float range
    report = tmp_path / "trajectory.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "simulate", skew_overflow_input(tmp_path, 3, 70.9),
                             "-o", str(report))
    assert (code, out) == (1, "")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err == "error: simulate: the skew drift overflowed: skew_drift inf\n"
    assert not report.exists()



# ---------------------------------------------------------------------------
# the input boundary: exit 2, one error line and no report


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("command, edit, message", [
    ("check", lambda obj: [obj], "expected a JSON object"),
    ("check", lambda obj: without(obj, "form"),
     "'form' must be one of standard, general, quantum; got None"),
    ("check", lambda obj: {**obj, "form": "mixed"},
     "'form' must be one of standard, general, quantum; got 'mixed'"),
    ("check", lambda obj: {**obj, "dims": without(obj["dims"], "n_q")},
     "dims: missing required field 'n_q'"),
    ("check", lambda obj: {**obj, "dims": 3}, "dims: expected an object with the counts"),
    ("check", lambda obj: {**obj, "dims": {**obj["dims"], "n_yq": 4}},
     "dims: n_yq=4 exceeds the channel count m=3"),
    ("verify-realization", lambda obj: obj,
     "expected a realization report (kind = 'realization')"),
    ("complete-symplectic", lambda obj: {}, "expected an object with a 'd_q' matrix"),
], ids=["not-an-object", "no-form", "unknown-form", "dims-lacks-a-count",
        "dims-not-an-object", "n_yq-above-m", "verify-a-system-file",
        "complete-symplectic-empty"])
def test_input_boundary_errors(tmp_path, capsys, command, edit, message):
    reference = write_system(tmp_path / "ref.json", mixed_reference())
    path = write_json(tmp_path / "in.json", edit(system_to_obj(mixed_reference())))
    extra = ["--reference", reference] if command == "verify-realization" else []
    report = tmp_path / "report.json"
    code, out, err = run(capsys, command, path, *extra, "-o", str(report))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not report.exists()


GENERATE_ARGV = ["generate", "--n-q", "1", "--n-c", "1", "--m", "2", "--n-yq", "1",
                 "--n-yc", "1", "--seed", "3"]


def test_generate_and_simulate_validate_the_tolerance(tmp_path, capsys, monkeypatch):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    simulate_argv = ["simulate", path, "--t-final", "0.01", "--dt", "0.01"]
    report = tmp_path / "report.json"
    for argv in (GENERATE_ARGV, simulate_argv):
        code, out, err = run(capsys, *argv, "--tol", "nan", "-o", str(report))
        assert (code, out, err) == (2, "", "error: --tol must be finite and positive, got nan\n")
        assert not report.exists()
    monkeypatch.setenv("QCSYNTH_TOL", "abc")
    for argv in (GENERATE_ARGV, simulate_argv):
        code, out, err = run(capsys, *argv, "-o", str(report))
        assert (code, out, err) == (2, "", "error: QCSYNTH_TOL must be a number, got 'abc'\n")
        assert not report.exists()


def test_generate_and_simulate_ignore_a_valid_tolerance(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", mixed_reference())
    simulate_argv = ["simulate", path, "--t-final", "0.01", "--dt", "0.01"]
    for argv in (GENERATE_ARGV, simulate_argv):
        assert run(capsys, *argv, "--tol", "0.5") == run(capsys, *argv)


def test_a_bad_tolerance_is_reported_before_a_bad_file(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path / "missing.json"), "--tol", "-1")
    assert (code, out, err) == (2, "", "error: --tol must be finite and positive, got -1.0\n")
