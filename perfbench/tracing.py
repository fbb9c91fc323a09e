"""Span tracing around the public functions of qcsynth, without editing it.

`Tracer.install` wraps every public module-level function of the eight
qcsynth modules and rebinds each wrapped name wherever a caller looks it
up: in the defining module, in every module that imported it (including
aliases such as `cli.run_augment`) and in the package namespace.  So
`synthesis.synthesize` splits into `matkit.symplectic_complete`,
`matkit.pzkv_decompose`, ... spans.  `uninstall` restores every binding.

Besides spans, a few counters are taken at the same boundaries:

- `matkit.lapack.svd_calls`: `scipy.linalg.orth` and `numpy.linalg.svd`
  calls made while a matkit span is open.  matkit's own `np` and `scipy`
  names are pointed at copies of those modules whose `linalg` differs only
  in the two counted functions; nothing outside matkit sees them.
- `realizability.commutator_trajectory.expm_calls`: the same for
  `scipy.linalg.expm` looked up by realizability.
- `moments.simulate.steps`: steps in each returned trajectory.
- `cli.bytes_in` / `cli.bytes_out`: characters passed through the `json`
  module that cli looks up, whose `loads`/`dumps` also become the
  `cli.json_decode` / `cli.json_encode` spans.

Spans stay in memory as (name, start, end, parent index, op id) tuples
until `write` dumps them.  Self time is a span's duration minus the time its
direct children cover; calls in one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

MODULES = ("sysmodel", "matkit", "realizability", "transform", "synthesis",
           "augment", "moments", "cli")
COUNTERS = ("matkit.lapack.svd_calls", "realizability.commutator_trajectory.expm_calls",
            "moments.simulate.steps", "cli.bytes_in", "cli.bytes_out")


def _module_copy(real: types.ModuleType, **overrides) -> types.ModuleType:
    # A plain module object: attribute lookups cost what they cost on the
    # real module, and a lazy attribute still resolves through the copied
    # module-level __getattr__.
    proxy = types.ModuleType(real.__name__)
    proxy.__dict__.update(vars(real))
    proxy.__dict__.update(overrides)
    return proxy


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.op_counts: Counter = Counter()   # (counter name, op id) -> count
        self.raised: Counter = Counter()      # (name, op id) -> count
        self.completions: list = []           # (op id, d_q, n_mat)
        self.networks: list = []              # (op id, v_sympl)
        self._open = Counter()                # open spans per module
        self._saved: list = []

    # -- spans ----------------------------------------------------------------
    def _wrap(self, fn, name: str):
        module = name.split(".", 1)[0]
        after = {
            "moments.simulate": self._after_simulate,
            "matkit.symplectic_complete": self._after_completion,
            "matkit.pzkv_decompose": self._after_pzkv,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            self._open[module] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[(name, self.op)] += 1
                raise
            finally:
                end = time.perf_counter()
                self._open[module] -= 1
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count(self, name: str, n: int = 1) -> None:
        self.op_counts[(name, self.op)] += n

    def _counted(self, fn, name: str, module: str):
        def counted(*args, **kwargs):
            if self._open[module]:
                self._count(name)
            return fn(*args, **kwargs)
        return counted

    def _after_simulate(self, args, traj) -> None:
        self._count("moments.simulate.steps", len(traj.times) - 1)

    def _after_completion(self, args, completion) -> None:
        # Conditioning is computed after the run, outside every span.
        self.completions.append((self.op, np.asarray(args[0], dtype=float), completion.n_mat))

    def _after_pzkv(self, args, pzkv) -> None:
        self.networks.append((self.op, pzkv.v_sympl))

    def _json_proxy(self, real_json):
        encode = self._wrap(real_json.dumps, "cli.json_encode")
        decode = self._wrap(real_json.loads, "cli.json_decode")

        def dumps(obj, *args, **kwargs):
            text = encode(obj, *args, **kwargs)
            self._count("cli.bytes_out", len(text))
            return text

        def loads(text, *args, **kwargs):
            self._count("cli.bytes_in", len(text))
            return decode(text, *args, **kwargs)

        return _module_copy(real_json, dumps=dumps, loads=loads)

    # -- install / restore ----------------------------------------------------
    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        package = importlib.import_module("qcsynth")
        mods = {short: importlib.import_module(f"qcsynth.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[value] = self._wrap(value, f"{short}.{attr}")
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])

        np_linalg = _module_copy(np.linalg, svd=self._counted(
            np.linalg.svd, "matkit.lapack.svd_calls", "matkit"))
        sp_linalg = _module_copy(scipy.linalg, orth=self._counted(
            scipy.linalg.orth, "matkit.lapack.svd_calls", "matkit"))
        self._rebind(mods["matkit"], "np", _module_copy(np, linalg=np_linalg))
        self._rebind(mods["matkit"], "scipy", _module_copy(scipy, linalg=sp_linalg))
        expm_linalg = _module_copy(scipy.linalg, expm=self._counted(
            scipy.linalg.expm, "realizability.commutator_trajectory.expm_calls",
            "realizability"))
        self._rebind(mods["realizability"], "scipy", _module_copy(scipy, linalg=expm_linalg))
        self._rebind(mods["cli"], "json", self._json_proxy(json))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- results --------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with `spans`."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (name, start, end, parent, op) in enumerate(self.spans)]

    def by_name(self, keep) -> dict:
        """name -> {"calls", "self_s", "total_s", "raised"} over spans whose op id passes `keep`."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "raised": 0})
        for span, self_s in zip(self.spans, self.self_times()):
            if keep(span[4]):
                row = out[span[0]]
                row["calls"] += 1
                row["self_s"] += self_s
                row["total_s"] += span[2] - span[1]
        for (name, op), count in self.raised.items():
            if keep(op):
                out[name]["raised"] += count
        return dict(out)

    def counts_by(self, keep) -> Counter:
        out = Counter()
        for (name, op), count in self.op_counts.items():
            if keep(op):
                out[name] += count
        return out

    def cond_max(self, keep) -> dict:
        """Largest 2-norm condition number of each traced factor kind."""
        def cond(m):
            return float(np.linalg.cond(m)) if m.size else 1.0
        return {
            "matkit.symplectic_complete.cond_max":
                max((cond(np.vstack([d_q, n_mat])) for op, d_q, n_mat in self.completions
                     if keep(op)), default=0.0),
            "matkit.pzkv_decompose.cond_max":
                max((cond(v) for op, v in self.networks if keep(op)), default=0.0),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
