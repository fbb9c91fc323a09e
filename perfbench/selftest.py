"""Self-test of the benchmark: every workload briefly, untraced and traced.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that:

- every metric BENCHMARK.json names is printed with its unit;
- no op fails, and the only unverified ops are the documented known defects
  (the NaN input on cli, the completion's conditioning on synth-ladder);
- spans nest and every self time is nonnegative;
- `matkit.lapack.svd_calls` repeats exactly for a seed;
- at the largest ladder size the completion and P-Z-K-V decomposition take
  most of synthesize, and check-sweep and moments never call either;
- the benchmark exits nonzero without printing a result when the sources
  are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN = {"cli": ("invalid nan: ",), "synth-ladder": ("k=", "n_c=", "n_yq=", "n_w1=")}


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(workload: str, trace: int, seed: int = 1):
    proc = bench(workload, trace, seed=seed)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, record


def check_metrics(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def check_failures(workload: str, result: dict, record: dict) -> None:
    assert result["correct"] and result["failed"] == 0, record["summary"]["failures"]
    assert record["summary"]["fail_ratio"] == 0.0
    for line in record["summary"]["known_defect_ops"]:
        assert line.startswith(KNOWN.get(workload, ())), line
        if workload == "synth-ladder":
            assert "ROADMAP 2" in line, line


def check_spans(workload: str, trace: int = 1, seed: int = 1) -> None:
    data = json.loads((ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}-spans.json")
                      .read_text())
    spans = data["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        assert start <= end, name
        if parent >= 0:
            p_name, p_start, p_end, _, p_op = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert op == p_op, (name, p_name)
            covered[parent] += end - start
    for (name, start, end, _, _), child in zip(spans, covered):
        assert end - start - child >= -1e-9, name


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        result, record = result_of(workload, 0)
        check_metrics(result, SPEC["end_to_end"])
        check_failures(workload, result, record)
        traced, record = result_of(workload, 1)
        check_metrics(traced, SPEC["per_layer"])
        check_failures(workload, traced, record)
        check_spans(workload)
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        assert all(v >= 0 for k, v in values.items() if k.endswith("self_s")), values
        if workload in ("check-sweep", "moments"):
            assert values["matkit.symplectic_complete.calls"] == 0
            assert values["matkit.pzkv_decompose.calls"] == 0
        if workload == "synth-ladder":
            assert record["ladder_breakdown"]["k=32"]["completion_pzkv_share"] > 0.5
            again, _ = result_of(workload, 1)
            assert values["matkit.lapack.svd_calls"] > 0
            assert again["metrics"]["matkit.lapack.svd_calls"] == \
                traced["metrics"]["matkit.lapack.svd_calls"]
        print(f"selftest: {workload} ok", flush=True)

    bare = ROOT / ".perfbench" / "selftest-without-sources"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("cli", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: refuses to run without sources ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
