import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcsynth
from qcsynth import (GeneralSystem, QuantumOnlySystem, StandardSystem, simulate,
                     skew_drift)
from qcsynth.cli import _encode_complex, _encode_real, main, system_to_obj
from refsystems import MIXED_D, damped_cavity, mixed_reference


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
    assert code == 1
    assert "dt must be positive" in err


def test_simulate_bad_horizon(tmp_path, capsys):
    path = write_system(tmp_path / "sys.json", damped_cavity())
    for argv, message in ((["--t-final", "-1"], "t_final must be nonnegative"),
                          (["--t-final", "0.0025", "--dt", "0.001"], "whole number of dt"),
                          (["--dt", "nan"], "dt must be positive")):
        code, out, err = run(capsys, "simulate", path, *argv)
        assert code == 1
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
    # scipy.linalg is imported on first use; only synthesize, simulate and
    # generate need it.  The commands share one fresh interpreter.
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
        ["check", write_json(tmp_path / "bad.json", bad)],
    ]
    probe = (
        "import json, sys\n"
        "from qcsynth.cli import main\n"
        "codes = [main(argv + ['--quiet', '-o', sys.argv[1]]) for argv in json.loads(sys.argv[2])]\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "main(['synthesize', sys.argv[3], '--quiet', '-o', sys.argv[1]])\n"
        "print(json.dumps([codes, before, 'scipy.linalg' in sys.modules]))\n"
    )
    src = str(Path(qcsynth.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QCSYNTH_TOL", None)
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out.json"),
                           json.dumps(commands), sys_path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, before, after = json.loads(proc.stdout)
    assert codes == [0, 0, 0, 0, 0, 0, 2]
    assert not before
    assert after
