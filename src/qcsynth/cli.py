"""Command line front end and file formats.

One JSON system-file format serves all three model forms, discriminated by
a "form" tag, so synthesized or generated systems feed straight back into
the checking commands.  Reports are JSON documents with a schema_version
field; numbers rely on shortest round-trip decimal rendering, so identical
inputs and flags produce byte-identical output.

Exit codes: 0 pass/success, 1 check or precondition failed, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .augment import augment as run_augment
from .augment import reduce as run_reduce
from .matkit import symplectic_complete
from .moments import simulate, skew_drift
from .realizability import (check_general, check_quantum, check_standard,
                            check_standard_partitioned)
from .synthesis import (NotRealizableError, Realization, ClassicalSubsystem,
                        QuantumSubsystem, close_loop, generate_realizable,
                        synthesize)
from .sysmodel import (Dimensions, GeneralSystem, QuantumOnlySystem,
                       StandardSystem, diag_j, validate)
from .transform import to_standard, transfer_equiv_check

__all__ = ["SystemFileError", "main", "entry"]

SCHEMA_VERSION = 1
DEFAULT_CLI_TOL = 1e-8
TOL_ENV_VAR = "QCSYNTH_TOL"


class SystemFileError(ValueError):
    """Raised for unparsable or structurally invalid input files."""


# ---------------------------------------------------------------------------
# JSON helpers

def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SystemFileError(f"{where}: expected a number, got {value!r}")
    # Rejects NaN, the infinities and integers beyond the float range alike.
    if not abs(value) <= sys.float_info.max:
        raise SystemFileError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _bulk_matrix(obj: list, rows: int, cols: int, complex_entries: bool):
    """All entries in one np.array call, or None when any entry needs a closer look.

    Accepts plain numbers and, for complex matrices made only of pairs,
    [re, im] pairs of plain numbers; anything else, and non-finite values,
    go to the per-entry path, which also names the offending entry.
    """
    flat = [value for row in obj for value in row]
    kinds = set(map(type, flat))
    pairs = complex_entries and kinds == {list}
    if pairs:
        if set(map(len, flat)) != {2}:
            return None
        kinds = {type(part) for value in flat for part in value}
    if not kinds <= {float, int}:
        return None
    try:
        mat = np.array(obj, dtype=float)
    except OverflowError:       # an integer beyond the float range
        return None
    if not np.isfinite(mat).all():
        return None
    if pairs:
        return mat.reshape(rows, cols, 2).view(complex)[..., 0]
    return mat.reshape(rows, cols).astype(complex if complex_entries else float)


def _parse_matrix(obj, name: str, shape=None, complex_entries: bool = False) -> np.ndarray:
    """A list of rows as a real matrix, or as a complex one whose entries may
    be numbers or [re, im] pairs."""
    if not isinstance(obj, list) or (obj and not isinstance(obj[0], list)):
        raise SystemFileError(f"{name}: expected a list of rows")
    rows = len(obj)
    cols = len(obj[0]) if rows else (shape[1] if shape else 0)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise SystemFileError(f"{name}: row {i} has inconsistent length")
    mat = _bulk_matrix(obj, rows, cols, complex_entries)
    if mat is None:
        mat = np.empty((rows, cols), dtype=complex if complex_entries else float)
        for i, row in enumerate(obj):
            for j, value in enumerate(row):
                where = f"{name}[{i}][{j}]"
                if complex_entries and isinstance(value, list):
                    if len(value) != 2:
                        raise SystemFileError(f"{where}: complex entries are [re, im] pairs")
                    mat[i, j] = complex(_num(value[0], where), _num(value[1], where))
                else:
                    mat[i, j] = _num(value, where)
    if shape is not None and mat.shape != tuple(shape):
        raise SystemFileError(f"{name}: expected shape {tuple(shape)}, "
                              f"got {mat.shape}")
    return mat


def _encode_real(mat) -> list:
    return np.asarray(mat, dtype=float).tolist()


def _encode_complex(mat) -> list:
    """Entries as [re, im] pairs; a stack of matrices encodes as a list of them."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def _require_int(record, key: str, where: str, default=None) -> int:
    if key not in record:
        if default is not None:
            return default
        raise SystemFileError(f"{where}: missing required field '{key}'")
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SystemFileError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemFileError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}")


def _dims_to_obj(d: Dimensions) -> dict:
    return {"n_q": d.n_q, "n_c": d.n_c, "m": d.m,
            "n_yq": d.n_yq, "n_yc": d.n_yc, "n_w1": d.n_w1}


def _parse_dims(record, where: str) -> Dimensions:
    if not isinstance(record, dict):
        raise SystemFileError(f"{where}: expected an object with the counts")
    kwargs = {key: _require_int(record, key, where)
              for key in ("n_q", "n_c", "m", "n_yq", "n_yc")}
    kwargs["n_w1"] = _require_int(record, "n_w1", where, default=0)
    try:
        return Dimensions(**kwargs)
    except ValueError as exc:
        raise SystemFileError(f"{where}: {exc}")


# ---------------------------------------------------------------------------
# System files

def _system_arrays(sys_model) -> dict:
    """A system file as a dict whose matrices are still ndarrays."""
    if isinstance(sys_model, StandardSystem):
        return {"form": "standard", "dims": _dims_to_obj(sys_model.dims),
                "a": sys_model.a, "b": sys_model.b, "c": sys_model.c, "d": sys_model.d}
    if isinstance(sys_model, GeneralSystem):
        return {"form": "general", "a": sys_model.a_g, "b": sys_model.b_g,
                "c": sys_model.c_g, "d": sys_model.d_g, "theta": sys_model.big_theta_n,
                "f_v": sys_model.f_v, "f_y": sys_model.f_y}
    if isinstance(sys_model, QuantumOnlySystem):
        return {"form": "quantum",
                "a": sys_model.a, "b": sys_model.b, "c": sys_model.c, "d": sys_model.d}
    raise TypeError(f"unsupported system type {type(sys_model).__name__}")


def system_to_obj(sys_model) -> dict:
    """A system file as plain JSON data (matrices as nested lists)."""
    obj = _system_arrays(sys_model)
    for key, value in obj.items():
        if isinstance(value, np.ndarray):
            obj[key] = _encode_complex(value) if value.dtype.kind == "c" else _encode_real(value)
    return obj


def load_system(path: str):
    """Parse a system file; returns a sysmodel instance or raises SystemFileError."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SystemFileError(f"{path}: expected a JSON object")
    form = obj.get("form")
    if form not in ("standard", "general", "quantum"):
        raise SystemFileError(f"{path}: 'form' must be one of standard, general, "
                              f"quantum; got {form!r}")
    if form == "standard":
        dims = _parse_dims(obj.get("dims"), "dims")
        model = StandardSystem(
            dims,
            _parse_matrix(obj.get("a"), "a", (dims.n, dims.n)),
            _parse_matrix(obj.get("b"), "b", (dims.n, 2 * dims.m)),
            _parse_matrix(obj.get("c"), "c", (dims.n_y, dims.n)),
            _parse_matrix(obj.get("d"), "d", (dims.n_y, 2 * dims.m)),
        )
    elif form == "general":
        a = _parse_matrix(obj.get("a"), "a")
        n = a.shape[0]
        if a.shape != (n, n):
            raise SystemFileError(f"a: expected a square matrix, got {a.shape}")
        b = _parse_matrix(obj.get("b"), "b")
        if b.shape[0] != n:
            raise SystemFileError(f"b: expected {n} rows, got {b.shape[0]}")
        m = b.shape[1]
        c = _parse_matrix(obj.get("c"), "c")
        if c.shape[1] != n:
            raise SystemFileError(f"c: expected {n} columns, got {c.shape[1]}")
        n_y = c.shape[0]
        model = GeneralSystem(
            a, b, c,
            _parse_matrix(obj.get("d"), "d", (n_y, m)),
            _parse_matrix(obj.get("theta"), "theta", (n, n)),
            _parse_matrix(obj.get("f_v"), "f_v", (m, m), complex_entries=True),
            _parse_matrix(obj.get("f_y"), "f_y", (n_y, n_y), complex_entries=True),
        )
    else:
        a = _parse_matrix(obj.get("a"), "a")
        n = a.shape[0]
        b = _parse_matrix(obj.get("b"), "b")
        c = _parse_matrix(obj.get("c"), "c")
        d = _parse_matrix(obj.get("d"), "d")
        model = QuantumOnlySystem(a, b, c, d)
    problems = validate(model)
    if problems:
        raise SystemFileError(f"{path}: " + "; ".join(problems))
    return model


# ---------------------------------------------------------------------------
# Output plumbing

def _resolve_tol(args) -> float:
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = TOL_ENV_VAR, os.environ.get(TOL_ENV_VAR)
        if env is None:
            return DEFAULT_CLI_TOL
        try:
            tol = float(env)
        except ValueError:
            raise SystemFileError(f"{TOL_ENV_VAR} must be a number, got {env!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SystemFileError(f"{source} must be finite and positive, got {tol!r}")
    return tol


_INDENT = "  "
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps_array(arr: np.ndarray, level: int) -> str:
    """json.dumps(_encode_real(arr) or _encode_complex(arr), indent=2) at `level`.

    The entries are rendered with float.__repr__ in one map.  The text
    between two neighbours depends only on how many trailing axes wrap
    there, so it is taken from a table of ndim + 1 precomputed separators.
    """
    if arr.dtype.kind == "c":
        arr = np.stack([arr.real, arr.imag], axis=-1)
    arr = np.asarray(arr, dtype=float)
    if arr.size == 0 or arr.ndim == 0:
        return _dumps(arr.tolist(), level)
    nd = arr.ndim
    pad = ["\n" + _INDENT * (level + depth) for depth in range(nd + 1)]
    seps = []
    for wraps in range(nd + 1):
        text = "".join(pad[nd - 1 - i] + "]" for i in range(wraps))
        if wraps < nd:
            text += "," + pad[nd - wraps] + "".join(
                "[" + pad[nd - wraps + 1 + i] for i in range(wraps))
        seps.append(text)
    flat = arr.ravel()
    parts = np.empty(2 * flat.size + 1, dtype=object)
    parts[0] = "".join("[" + pad[depth + 1] for depth in range(nd))
    parts[1::2] = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)):
        parts[2 * i + 1] = _NONFINITE[parts[2 * i + 1]]
    wrap_count = np.zeros(flat.size, dtype=np.intp)
    stride = 1
    for dim in reversed(arr.shape):
        stride *= dim
        wrap_count[stride - 1::stride] += 1
    parts[2::2] = np.array(seps, dtype=object)[wrap_count]
    return "".join(parts.tolist())


def _dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, indent=2) for an object nested `level` deep.

    Dicts (with str keys) are walked, ndarray values are rendered in bulk
    by _dumps_array, and every other value goes through json.dumps,
    re-indented to its depth; JSON text holds no raw newline inside a
    string, so the re-indent cannot touch one.
    """
    if isinstance(obj, np.ndarray):
        return _dumps_array(obj, level)
    if isinstance(obj, dict) and obj:
        pad = "\n" + _INDENT * (level + 1)
        items = [json.dumps(key) + ": " + _dumps(value, level + 1)
                 for key, value in obj.items()]
        return "{" + pad + ("," + pad).join(items) + "\n" + _INDENT * level + "}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + _INDENT * level)


def _emit(args, obj: dict, summary: str) -> None:
    """Write a report: byte-identical to json.dumps(obj, indent=2) with
    every ndarray value replaced by its encoded list."""
    text = _dumps(obj)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if not args.quiet:
        print(summary, file=sys.stderr)


def _report_obj(report, form: str, tol: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "realizability-report",
        "form": form,
        "tol": tol,
        "verdict": "pass" if report.verdict else "fail",
        "worst": report.worst,
        "conditions": [
            {"name": c.name, "residual": c.residual,
             "threshold": c.threshold, "passed": c.passed}
            for c in report.conditions
        ],
    }


def _fro(x) -> float:
    return float(np.linalg.norm(x)) if np.asarray(x).size else 0.0


# ---------------------------------------------------------------------------
# Commands

def cmd_check(args) -> int:
    model = load_system(args.input)
    tol = _resolve_tol(args)
    form = {StandardSystem: "standard", GeneralSystem: "general",
            QuantumOnlySystem: "quantum"}[type(model)]
    if args.form and args.form != form:
        raise SystemFileError(f"{args.input} declares form '{form}', "
                              f"but --form {args.form} was requested")
    if form == "standard":
        checker = check_standard_partitioned if args.partitioned else check_standard
        report = checker(model, tol)
    elif form == "general":
        report = check_general(model, tol)
    else:
        report = check_quantum(model, tol)
    worst = report[report.worst] if report.conditions else None
    detail = (f"worst condition {report.worst}, residual {worst.residual:.3e}"
              if worst else "no conditions")
    _emit(args, _report_obj(report, form, tol),
          f"check: {'PASS' if report.verdict else 'FAIL'} ({detail})")
    return 0 if report.verdict else 1


def cmd_to_standard(args) -> int:
    model = load_system(args.input)
    if not isinstance(model, GeneralSystem):
        raise SystemFileError(f"{args.input}: to-standard expects a general-form "
                              "system file")
    tol = _resolve_tol(args)
    witness = to_standard(model, tol)
    deviation = transfer_equiv_check(model, witness, tol=tol)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "transform-witness",
        "tol": tol,
        "p_n": witness.p_n,
        "w": witness.w,
        "p_y": witness.p_y,
        "standard": _system_arrays(witness.standard),
        "transfer_max_deviation": deviation,
    }
    ok = deviation <= tol
    _emit(args, obj, f"to-standard: {'OK' if ok else 'FAIL'} "
                     f"(transfer deviation {deviation:.3e})")
    return 0 if ok else 1


def _realization_to_obj(r: Realization) -> dict:
    return {
        "dims": _dims_to_obj(r.dims),
        "g1": {f.name: getattr(r.g1, f.name) for f in fields(r.g1)},
        "g2": {f.name: getattr(r.g2, f.name) for f in fields(r.g2)},
        "g_mat": r.g_mat,
        "r": int(r.g_mat.shape[0]),
        "k_sel": r.k_sel,
        "v_sympl": r.v_sympl,
        "p_perm": r.p_perm,
        "z": r.z,
    }


def _realization_from_obj(obj: dict, where: str) -> Realization:
    dims = _parse_dims(obj.get("dims"), f"{where}.dims")
    n_q2, n_c, m2 = 2 * dims.n_q, dims.n_c, 2 * dims.m
    yq2, n_yc, mf2 = 2 * dims.n_yq, dims.n_yc, 2 * (dims.m - dims.n_yq)
    r = _require_int(obj, "r", where)
    g1_obj, g2_obj = obj.get("g1"), obj.get("g2")
    if not isinstance(g1_obj, dict) or not isinstance(g2_obj, dict):
        raise SystemFileError(f"{where}: missing g1/g2 records")

    def real(rec, name, shape):
        return _parse_matrix(rec.get(name), name, shape)

    g1 = QuantumSubsystem(
        real(g1_obj, "a_qq", (n_q2, n_q2)), real(g1_obj, "b_q", (n_q2, m2)),
        real(g1_obj, "e_mat", (n_q2, n_c)), real(g1_obj, "c_qq", (yq2, n_q2)),
        real(g1_obj, "d_q", (yq2, m2)), real(g1_obj, "c_qq_prime", (mf2, n_q2)),
        real(g1_obj, "d_q_prime", (mf2, m2)), real(g1_obj, "k_q", (n_q2, n_c)))
    split = 2 * dims.n_w1
    g2 = ClassicalSubsystem(
        real(g2_obj, "a_cc_prime", (n_c, n_c)), real(g2_obj, "b_c_prime", (n_c, r)),
        real(g2_obj, "c_cc_prime", (n_yc, n_c)), real(g2_obj, "d_c_prime", (n_yc, r)),
        real(g2_obj, "c_c_prime_1", (split, n_c)),
        real(g2_obj, "c_c_prime_2", (m2 - split, n_c)))
    return Realization(
        g1, g2,
        _parse_matrix(obj.get("g_mat"), "g_mat", (r, mf2)),
        _parse_matrix(obj.get("k_sel"), "k_sel", (r, mf2)),
        _parse_matrix(obj.get("v_sympl"), "v_sympl"),
        _parse_matrix(obj.get("p_perm"), "p_perm", (n_c + n_yc, n_c + n_yc)),
        _parse_matrix(obj.get("z"), "z", (n_c + n_yc, r)),
        dims)


def _block_errors(got: StandardSystem, want: StandardSystem) -> dict:
    out = {}
    for name in ("a", "b", "c", "d"):
        diff = _fro(getattr(got, name) - getattr(want, name))
        out[name] = diff / (1.0 + _fro(getattr(want, name)))
    return out


def cmd_synthesize(args) -> int:
    model = load_system(args.input)
    if not isinstance(model, StandardSystem):
        raise SystemFileError(f"{args.input}: synthesize expects a standard-form "
                              "system file")
    tol = _resolve_tol(args)
    try:
        realization = synthesize(model, tol)
    except NotRealizableError as exc:
        _emit(args, _report_obj(exc.report, "standard", tol),
              f"synthesize: FAIL ({exc})")
        return 1
    closed = close_loop(realization)
    errors = _block_errors(closed, model)
    residual = max(errors.values())
    obj = {"schema_version": SCHEMA_VERSION, "kind": "realization", "tol": tol}
    obj.update(_realization_to_obj(realization))
    obj["closed_loop"] = _system_arrays(closed)
    obj["reconstruction_residual"] = residual
    ok = residual <= tol
    _emit(args, obj, f"synthesize: {'OK' if ok else 'FAIL'} "
                     f"(reconstruction residual {residual:.3e})")
    return 0 if ok else 1


def cmd_verify_realization(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or obj.get("kind") != "realization":
        raise SystemFileError(f"{args.input}: expected a realization report "
                              "(kind = 'realization')")
    realization = _realization_from_obj(obj, args.input)
    reference = load_system(args.reference)
    if not isinstance(reference, StandardSystem):
        raise SystemFileError(f"{args.reference}: reference must be a "
                              "standard-form system file")
    if reference.dims != realization.dims:
        raise SystemFileError("realization and reference dimensions differ: "
                              f"{realization.dims} vs {reference.dims}")
    tol = _resolve_tol(args)
    closed = close_loop(realization)
    errors = _block_errors(closed, reference)
    worst = max(errors.values())
    ok = worst <= tol
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "tol": tol,
        "block_errors": errors,
        "max_error": worst,
        "verdict": "pass" if ok else "fail",
        "closed_loop": _system_arrays(closed),
    }
    _emit(args, report, f"verify-realization: {'PASS' if ok else 'FAIL'} "
                        f"(max block error {worst:.3e})")
    return 0 if ok else 1


def cmd_simulate(args) -> int:
    model = load_system(args.input)
    if not isinstance(model, StandardSystem):
        raise SystemFileError(f"{args.input}: simulate expects a standard-form "
                              "system file")
    traj = simulate(model, t_final=args.t_final, dt=args.dt)
    drift = skew_drift(traj, model.structure.theta_n)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trajectory",
        "t_final": args.t_final,
        "dt": args.dt,
        "skew_drift": drift,
        "times": np.asarray(traj.times),
        "means": traj.means,
        "second_moments": traj.second_moments,
    }
    _emit(args, obj, f"simulate: OK (skew drift {drift:.3e})")
    return 0


def cmd_complete_symplectic(args) -> int:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "d_q" not in obj:
        raise SystemFileError(f"{args.input}: expected an object with a 'd_q' "
                              "matrix")
    d_q = _parse_matrix(obj["d_q"], "d_q")
    if d_q.shape[1] % 2:
        raise SystemFileError(f"d_q: column count must be even, got {d_q.shape[1]}")
    tol = _resolve_tol(args)
    theta_w = diag_j(d_q.shape[1] // 2)
    completion = symplectic_complete(d_q, theta_w, tol)
    full = np.vstack([d_q, completion.n_mat])
    residual = _fro(full @ theta_w @ full.T - theta_w)
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "symplectic-completion",
        "tol": tol,
        "d_q": d_q,
        "n_mat": completion.n_mat,
        "residual": residual,
    }
    _emit(args, report, f"complete-symplectic: OK (residual {residual:.3e})")
    return 0


def cmd_augment(args) -> int:
    model = load_system(args.input)
    if not isinstance(model, StandardSystem):
        raise SystemFileError(f"{args.input}: augment expects a standard-form "
                              "system file")
    tol = _resolve_tol(args)
    st = model.structure
    aug = run_augment(model, tol)
    red = run_reduce(aug, st.theta_w)
    relations = aug.relation_residuals(model)
    two_m = 2 * model.dims.m
    quantum = QuantumOnlySystem(aug.a_tilde, aug.b_tilde, red.c_bar, np.eye(two_m))
    reduced_report = check_quantum(quantum, tol, theta=aug.theta_tilde)
    relations_ok = max(relations.values()) <= tol * (1.0 + _fro(model.c))
    ok = relations_ok and reduced_report.verdict
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "augmentation",
        "tol": tol,
        "a_tilde": aug.a_tilde,
        "b_tilde": aug.b_tilde,
        "c_tilde": aug.c_tilde,
        "d_tilde": aug.d_tilde,
        "theta_tilde": aug.theta_tilde,
        "a_prime": aug.a_prime,
        "a_dprime": aug.a_dprime,
        "b_prime": aug.b_prime,
        "relation_residuals": relations,
        "c_bar": red.c_bar,
        "reduced_check": _report_obj(reduced_report, "quantum", tol),
        "verdict": "pass" if ok else "fail",
    }
    _emit(args, report, f"augment: {'PASS' if ok else 'FAIL'} "
                        f"(reduced check worst {reduced_report.worst})")
    return 0 if ok else 1


def cmd_generate(args) -> int:
    try:
        dims = Dimensions(args.n_q, args.n_c, args.m, args.n_yq, args.n_yc,
                          args.n_w1)
    except ValueError as exc:
        raise SystemFileError(str(exc))
    model = generate_realizable(dims, args.seed)
    _emit(args, _system_arrays(model),
          f"generate: wrote a standard system (n={dims.n}, m={dims.m}, "
          f"seed={args.seed})")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="numerical tolerance (default: %(default)s, or the "
                             f"{TOL_ENV_VAR} environment variable)")
    common.add_argument("--output", "-o", default=None,
                        help="write the JSON report to this file instead of stdout")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the summary line on stderr")

    parser = argparse.ArgumentParser(
        prog="qcsynth",
        description="Check, transform, synthesize and simulate mixed "
                    "quantum-classical linear stochastic systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="run the realizability conditions on a system file")
    p.add_argument("input")
    p.add_argument("--form", choices=("standard", "general", "quantum"),
                   help="require the file to declare this form")
    p.add_argument("--partitioned", action="store_true",
                   help="use the ten block conditions (standard form only)")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("to-standard", parents=[common],
                       help="convert a general-form file to standard form")
    p.add_argument("input")
    p.set_defaults(handler=cmd_to_standard)

    p = sub.add_parser("synthesize", parents=[common],
                       help="split a standard-form file into its realization")
    p.add_argument("input")
    p.set_defaults(handler=cmd_synthesize)

    p = sub.add_parser("verify-realization", parents=[common],
                       help="close the loop on a realization report and diff it "
                            "against a reference system file")
    p.add_argument("input")
    p.add_argument("--reference", required=True,
                   help="standard-form system file to compare against")
    p.set_defaults(handler=cmd_verify_realization)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate the first and second moments")
    p.add_argument("input")
    p.add_argument("--t-final", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("complete-symplectic", parents=[common],
                       help="complete quadrature output rows to a symplectic matrix")
    p.add_argument("input")
    p.set_defaults(handler=cmd_complete_symplectic)

    p = sub.add_parser("augment", parents=[common],
                       help="attach conjugate partners to the classical variables")
    p.add_argument("input")
    p.set_defaults(handler=cmd_augment)

    p = sub.add_parser("generate", parents=[common],
                       help="write a random realizable standard-form system file")
    p.add_argument("--n-q", type=int, required=True)
    p.add_argument("--n-c", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n-yq", type=int, required=True)
    p.add_argument("--n-yc", type=int, required=True)
    p.add_argument("--n-w1", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SystemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotRealizableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
