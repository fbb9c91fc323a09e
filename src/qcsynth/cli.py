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
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

# Only sysmodel at module level: each command imports the modules it runs
# once its input has loaded, so a bad file is rejected before any of them.
from .sysmodel import (DEFAULT_CHECK_TOL, _COMPLEX, _SHAPES, Dimensions, GeneralSystem,
                       QuantumOnlySystem, Realization, StandardSystem, _build,
                       _canonical_j, _fro, _maxabs, _symbols, _times_j, validate)

__all__ = ["SystemFileError", "main", "entry"]

SCHEMA_VERSION = 1
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


def _parse_matrix(obj, name: str, complex_entries: bool = False) -> np.ndarray:
    """A list of rows as a real matrix, or as a complex one whose entries may
    be numbers or [re, im] pairs."""
    if not isinstance(obj, list) or (obj and not isinstance(obj[0], list)):
        raise SystemFileError(f"{name}: expected a list of rows")
    rows = len(obj)
    cols = len(obj[0]) if rows else 0
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
    return mat


def _require_int(record, key: str, where: str, default=MISSING) -> int:
    if key not in record:
        if default is not MISSING:
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


def _parse_dims(record, where: str) -> Dimensions:
    if not isinstance(record, dict):
        raise SystemFileError(f"{where}: expected an object with the counts")
    kwargs = {f.name: _require_int(record, f.name, where, f.default)
              for f in fields(Dimensions)}
    try:
        return Dimensions(**kwargs)
    except ValueError as exc:
        raise SystemFileError(f"{where}: {exc}")


# ---------------------------------------------------------------------------
# Records: system files and the matrices of every report

# Each form tag's model class; the file key of each field named otherwise.
_FORMS = {"standard": StandardSystem, "general": GeneralSystem, "quantum": QuantumOnlySystem}
_FORM_OF = {cls: form for form, cls in _FORMS.items()}
_KEYS = {GeneralSystem: {"a_g": "a", "b_g": "b", "c_g": "c", "d_g": "d", "big_theta_n": "theta"}}


def _record(obj) -> dict:
    """A dataclass record as report data: its fields in order under their
    file keys, led by the form tag of a system model.  Nested records (dims
    among them) become dicts; matrices stay ndarrays, which _emit encodes."""
    out = {"form": _FORM_OF[type(obj)]} if type(obj) in _FORM_OF else {}
    if isinstance(obj, QuantumOnlySystem):
        out["m"] = obj.m    # the input count, which [] matrices cannot carry
    keys = _KEYS.get(type(obj), {})
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[keys.get(f.name, f.name)] = _record(value) if is_dataclass(value) else value
    return out


def system_to_obj(sys_model) -> dict:
    """A system file as plain JSON data: _record(sys_model) with each matrix
    as the nested lists of _as_floats, which the report writer renders."""
    return {key: _as_floats(value).tolist() if isinstance(value, np.ndarray) else value
            for key, value in _record(sys_model).items()}


def _fields_of(cls, obj, name: str) -> dict:
    """The field values of cls read from obj, the record under key `name`;
    nested records stay dicts."""
    if not isinstance(obj, dict):
        raise SystemFileError(f"{name}: expected an object with its matrices")
    keys = _KEYS.get(cls, {})
    prefix = f"{name}." if name else ""
    values = {}
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        shape = _SHAPES[cls].get(f.name)
        if f.name == "dims":
            values[f.name] = _parse_dims(obj.get(key), prefix + key)
        elif isinstance(shape, type):
            values[f.name] = _fields_of(shape, obj.get(key), prefix + key)
        else:
            values[f.name] = _parse_matrix(obj.get(key), prefix + key,
                                           complex_entries=f.name in _COMPLEX)
    return values


def _decode(cls, obj: dict, where: str):
    """The cls record that obj encodes, its shapes judged by validate.

    A quantum file may give its input count m: it shapes b and d when
    neither has rows, and must agree with them otherwise.
    """
    values = _fields_of(cls, obj, "")
    sym = _symbols(cls, values)
    m = _require_int(obj, "m", where, None) if cls is QuantumOnlySystem else None
    if m is not None and m < 0:
        raise SystemFileError(f"{where}.m: expected a nonnegative integer, got {m}")
    if m is not None and not (len(values["b"]) or len(values["d"])):
        sym["2m"] = 2 * m
    record = _build(cls, values, sym)
    problems = validate(record)
    if problems:
        raise SystemFileError(f"{where}: " + "; ".join(problems))
    if m is not None and record.m != m:
        raise SystemFileError(f"{where}.m: expected {record.m}, the input count of b and d, "
                              f"got {m}")
    return record


def load_system(path: str, expect: str | None = None):
    """Parse a system file; returns a sysmodel instance or raises SystemFileError.

    expect, when given, is the form the file must declare.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise SystemFileError(f"{path}: expected a JSON object")
    form = obj.get("form")
    if not isinstance(form, str) or form not in _FORMS:
        raise SystemFileError(f"{path}: 'form' must be one of {', '.join(_FORMS)}; "
                              f"got {form!r}")
    if expect is not None and form != expect:
        raise SystemFileError(f"{path}: expected a {expect}-form system file, "
                              f"got form '{form}'")
    return _decode(_FORMS[form], obj, path)


# ---------------------------------------------------------------------------
# Output plumbing

def _resolve_tol(args) -> float:
    source, tol = "--tol", args.tol
    if tol is None:
        source, env = TOL_ENV_VAR, os.environ.get(TOL_ENV_VAR)
        if env is None:
            return DEFAULT_CHECK_TOL
        try:
            tol = float(env)
        except ValueError:
            raise SystemFileError(f"{TOL_ENV_VAR} must be a number, got {env!r}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise SystemFileError(f"{source} must be finite and positive, got {tol!r}")
    return tol


_INDENT = "  "


def _as_floats(arr: np.ndarray) -> np.ndarray:
    """arr as floats, each complex entry as an [re, im] pair on a new last axis."""
    if arr.dtype.kind == "c":
        arr = np.stack([arr.real, arr.imag], axis=-1)
    return np.asarray(arr, dtype=float)


def _dumps_array(arr: np.ndarray, level: int) -> str:
    """json.dumps(_as_floats(arr).tolist(), indent=2) at `level`.

    The entries are rendered with float.__repr__ in one map.  The text
    between two neighbours depends only on how many trailing axes wrap
    there, so it is taken from a table of ndim + 1 precomputed separators.
    """
    arr = _as_floats(arr)
    if not np.isfinite(arr).all():
        raise ValueError("Out of range float values are not JSON compliant")
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
    wrap_count = np.zeros(flat.size, dtype=np.intp)
    stride = 1
    for dim in reversed(arr.shape):
        stride *= dim
        wrap_count[stride - 1::stride] += 1
    parts[2::2] = np.array(seps, dtype=object)[wrap_count]
    return "".join(parts.tolist())


def _dumps(obj, level: int = 0) -> str:
    """json.dumps(obj, indent=2, allow_nan=False) for an object `level` deep.

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
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", "\n" + _INDENT * level)


def _emit(args, obj: dict, summary: str) -> None:
    """Write a report: byte-identical to json.dumps(obj, indent=2) with
    every ndarray value replaced by its encoded list; nothing on ValueError."""
    text = _dumps(obj)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        print(text)
    if not args.quiet:
        print(summary, file=sys.stderr)


def _header(kind: str, tol: float) -> dict:
    """The leading keys of a report computed at tolerance tol."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "tol": tol}


def _require_finite(what: str, values: dict) -> None:
    """Raise, for exit 1 and no report, when a value a report would carry
    has overflowed: JSON has no Infinity or NaN."""
    if not all(map(math.isfinite, values.values())):
        raise ValueError(f"{what} overflowed: "
                         + ", ".join(f"{name} {value:.3e}" for name, value in values.items()))


def _report_obj(report, form: str, tol: float) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "realizability-report", "form": form,
            "tol": tol, **_verdict_obj(report)}


def _verdict_obj(report) -> dict:
    conditions = []
    for c in report.conditions:
        # JSON has no Infinity or NaN: an overflowed residual or threshold is
        # written as null and its condition flagged non_finite
        residual, threshold = (x if math.isfinite(x) else None
                               for x in (c.residual, c.threshold))
        cond = {"name": c.name, "residual": residual, "threshold": threshold,
                "passed": c.passed}
        if None in (residual, threshold):
            cond["non_finite"] = True
        conditions.append(cond)
    return {"verdict": "pass" if report.verdict else "fail", "worst": report.worst,
            "conditions": conditions}


def _closed_loop(command: str, realization: Realization, want: StandardSystem):
    """The closed loop of realization, its error against want in each of the
    blocks a, b, c, d (relative to 1 + |want block|) and the largest one."""
    from .synthesis import close_loop
    closed = close_loop(realization)
    errors = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ("a", "b", "c", "d"):
            diff = _fro(getattr(closed, name) - getattr(want, name))
            errors[name] = diff / (1.0 + _fro(getattr(want, name)))
    _require_finite(f"{command}: a block error", errors)
    return closed, errors, max(errors.values())


# ---------------------------------------------------------------------------
# Commands: each returns (report, ok, summary) and main writes it; args.tol
# holds the tolerance main has resolved.

def cmd_check(args) -> tuple[dict, bool, str]:
    model = load_system(args.input, args.form)
    from .realizability import (check_general, check_quantum, check_standard,
                                check_standard_partitioned)
    form = _FORM_OF[type(model)]
    if args.partitioned and form != "standard":
        raise SystemFileError(f"{args.input}: --partitioned checks standard-form files only, "
                              f"got form '{form}'")
    checkers = {"standard": check_standard_partitioned if args.partitioned else check_standard,
                "general": check_general, "quantum": check_quantum}
    report = checkers[form](model, args.tol)
    worst = report[report.worst] if report.conditions else None
    detail = (f"worst condition {report.worst}, residual {worst.residual:.3e}"
              if worst else "no conditions")
    return (_report_obj(report, form, args.tol), report.verdict,
            f"check: {'PASS' if report.verdict else 'FAIL'} ({detail})")


def cmd_to_standard(args) -> tuple[dict, bool, str]:
    model = load_system(args.input, "general")
    # load_system has validated the model: convert without validating again
    from .transform import _convert, transfer_equiv_check
    tol = args.tol
    witness = _convert(model, tol)
    deviation = transfer_equiv_check(model, witness, tol=tol)
    _require_finite("to-standard: the transfer deviation", {"transfer_max_deviation": deviation})
    scale = max(_maxabs(m) for m in (model.a_g, model.b_g, model.c_g, model.d_g))
    ok = deviation <= tol * (1.0 + scale)
    return ({**_header("transform-witness", tol), **_record(witness),
             "transfer_max_deviation": deviation},
            ok, f"to-standard: {'OK' if ok else 'FAIL'} (transfer deviation {deviation:.3e})")


def cmd_synthesize(args) -> tuple[dict, bool, str]:
    model = load_system(args.input, "standard")
    from .synthesis import NotRealizableError, synthesize
    tol = args.tol
    try:
        realization = synthesize(model, tol)
    except NotRealizableError as exc:
        return _report_obj(exc.report, "standard", tol), False, f"synthesize: FAIL ({exc})"
    closed, _, residual = _closed_loop("synthesize", realization, model)
    ok = residual <= tol
    # r, the rank of the read-out network, is the row count of g_mat
    return ({**_header("realization", tol), **_record(realization),
             "r": len(realization.g_mat), "closed_loop": _record(closed),
             "reconstruction_residual": residual},
            ok, f"synthesize: {'OK' if ok else 'FAIL'} (reconstruction residual {residual:.3e})")


def cmd_verify_realization(args) -> tuple[dict, bool, str]:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or obj.get("kind") != "realization":
        raise SystemFileError(f"{args.input}: expected a realization report "
                              "(kind = 'realization')")
    realization = _decode(Realization, obj, args.input)
    if _require_int(obj, "r", args.input) != len(realization.g_mat):
        raise SystemFileError(f"{args.input}: r: expected {len(realization.g_mat)}, the row "
                              f"count of g_mat, got {obj['r']}")
    reference = load_system(args.reference, "standard")
    if reference.dims != realization.dims:
        raise SystemFileError("realization and reference dimensions differ: "
                              f"{realization.dims} vs {reference.dims}")
    closed, errors, worst = _closed_loop("verify-realization", realization, reference)
    from .synthesis import _network_report
    network = _network_report(realization, args.tol)
    ok = worst <= args.tol and network.verdict
    detail = f"max block error {worst:.3e}"
    failed = [c.name for c in network.conditions if not c.passed]
    if failed:
        detail += f"; network fails {', '.join(failed)}"
    return ({**_header("verification", args.tol), "block_errors": errors, "max_error": worst,
             "verdict": "pass" if ok else "fail", "network": _verdict_obj(network),
             "closed_loop": _record(closed)},
            ok, f"verify-realization: {'PASS' if ok else 'FAIL'} ({detail})")


def cmd_simulate(args) -> tuple[dict, bool, str]:
    model = load_system(args.input, "standard")
    from .moments import _grid_steps, simulate, skew_drift
    try:
        n_steps = _grid_steps(args.t_final, args.dt)
    except ValueError as exc:
        raise SystemFileError(str(exc)) from None
    try:
        traj = simulate(model, t_final=args.t_final, dt=args.dt)
    except MemoryError:
        raise SystemFileError(f"simulate: cannot allocate the {n_steps + 1} samples of "
                              f"t_final / dt = {n_steps} steps") from None
    drift = skew_drift(traj, model.structure.theta_n)
    _require_finite("simulate: the skew drift", {"skew_drift": drift})
    # no tol key: the moment propagation takes no tolerance
    return ({"schema_version": SCHEMA_VERSION, "kind": "trajectory", "t_final": args.t_final,
             "dt": args.dt, "skew_drift": drift, "times": np.asarray(traj.times),
             "means": traj.means, "second_moments": traj.second_moments},
            True, f"simulate: OK (skew drift {drift:.3e})")


def cmd_complete_symplectic(args) -> tuple[dict, bool, str]:
    obj = _load_json(args.input)
    if not isinstance(obj, dict) or "d_q" not in obj:
        raise SystemFileError(f"{args.input}: expected an object with a 'd_q' "
                              "matrix")
    d_q = _parse_matrix(obj["d_q"], "d_q")
    rows, cols = d_q.shape
    if rows % 2 or cols % 2:
        raise SystemFileError(f"d_q: row and column counts must be even, got shape {d_q.shape}")
    if rows > cols:
        raise SystemFileError(f"d_q: {rows // 2} quadrature pairs exceed the m={cols // 2} "
                              f"channels of its {cols} columns")
    from .matkit import _bound, symplectic_complete
    completion = symplectic_complete(d_q, args.tol)
    full = np.vstack([d_q, completion.n_mat])
    residual = _fro(_times_j(full) @ full.T - _canonical_j(cols // 2))
    _require_finite("complete-symplectic: the residual", {"residual": residual})
    relative = residual / _bound(1.0, full)  # at the scale the completion verified
    return ({**_header("symplectic-completion", args.tol), "d_q": d_q,
             "n_mat": completion.n_mat, "residual": residual, "relative_residual": relative},
            True, f"complete-symplectic: OK (residual {residual:.3e}, relative {relative:.3e})")


def cmd_augment(args) -> tuple[dict, bool, str]:
    model = load_system(args.input, "standard")
    from .augment import augment, reduce
    from .realizability import check_quantum
    tol = args.tol
    aug = augment(model, tol)
    red = reduce(aug, model.structure.theta_w)
    relations = aug.relation_residuals(model)
    _require_finite("augment: a relation residual", relations)
    two_m = 2 * model.dims.m
    quantum = QuantumOnlySystem(aug.a_tilde, aug.b_tilde, red.c_bar, np.eye(two_m))
    reduced_report = check_quantum(quantum, tol, theta=aug.theta_tilde)
    relations_ok = max(relations.values()) <= tol * (1.0 + _fro(model.c))
    ok = relations_ok and reduced_report.verdict
    return ({**_header("augmentation", tol), **_record(aug), "relation_residuals": relations,
             "c_bar": red.c_bar, "reduced_check": _report_obj(reduced_report, "quantum", tol),
             "verdict": "pass" if ok else "fail"},
            ok, f"augment: {'PASS' if ok else 'FAIL'} "
                f"(reduced check worst {reduced_report.worst})")


def cmd_generate(args) -> tuple[dict, bool, str]:
    try:
        dims = Dimensions(**{f.name: getattr(args, f.name) for f in fields(Dimensions)})
    except ValueError as exc:
        raise SystemFileError(str(exc))
    if args.seed < 0:
        raise SystemFileError(f"--seed must be non-negative, got {args.seed}")
    from .synthesis import generate_realizable
    model = generate_realizable(dims, args.seed)
    return (_record(model), True,
            f"generate: wrote a standard system (n={dims.n}, m={dims.m}, seed={args.seed})")


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

    # Each command: its handler, help line and the arguments that follow the
    # common ones.  Built per call, so that each parser takes the cmd_* the
    # module holds at that time.
    source = ("input", {})
    commands = {
        "check": (cmd_check, "run the realizability conditions on a system file", source,
                  ("--form", {"choices": tuple(_FORMS),
                              "help": "require the file to declare this form"}),
                  ("--partitioned", {"action": "store_true", "help": "use the ten block "
                                     "conditions (standard form only)"})),
        "to-standard": (cmd_to_standard, "convert a general-form file to standard form", source),
        "synthesize": (cmd_synthesize, "split a standard-form file into its realization",
                       source),
        "verify-realization": (cmd_verify_realization, "close the loop on a realization report "
                               "and diff it against a reference system file", source,
                               ("--reference", {"required": True, "help": "standard-form "
                                                "system file to compare against"})),
        "simulate": (cmd_simulate, "integrate the first and second moments", source,
                     ("--t-final", {"type": float, "default": 5.0}),
                     ("--dt", {"type": float, "default": 1e-3})),
        "complete-symplectic": (cmd_complete_symplectic, "complete quadrature output rows "
                                "to a symplectic matrix", source),
        "augment": (cmd_augment, "attach conjugate partners to the classical variables", source),
        # a flag per Dimensions field, required unless the field has a default
        "generate": (cmd_generate, "write a random realizable standard-form system file",
                     *(("--" + f.name.replace("_", "-"), {"type": int, "required": True}
                        if f.default is MISSING else {"type": int, "default": f.default})
                       for f in fields(Dimensions)),
                     ("--seed", {"type": int, "default": 0})),
    }
    for name, (handler, help_line, *arguments) in commands.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.tol = _resolve_tol(args)
        report, ok, summary = args.handler(args)
        _emit(args, report, summary)
    except SystemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`qcsynth ... | head`): exit as SIGPIPE would,
        # stdout on devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
