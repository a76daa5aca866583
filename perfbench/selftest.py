"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a tiny version (``--tiny``) of every workload twice untraced and twice
traced, with the same seed, and asserts that

- every metric of BENCHMARK.json is reported, with its unit;
- no job failed;
- the stdout digests of all jobs are identical across the two runs;
- every count of the traced run (``*.calls`` and the computed sizes)
  repeats exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    tag = f"{workload}-s{SEED}-t{trace}-tiny"
    with open(os.path.join(ROOT, ".perfbench_out", tag, "summary.json"), encoding="utf-8") as fh:
        return result, json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in bench[section]}
            (first, s1), (second, s2) = run(workload, trace), run(workload, trace)
            for result, summary in ((first, s1), (second, s2)):
                assert {k: v["unit"] for k, v in result["metrics"].items()} == units, workload
                assert result["correct"] and result["failed"] == 0, summary["problems"]
                assert result["attempted"] > 0
            assert s1["digests"] == s2["digests"], f"{workload}: outputs differ between runs"
            if trace:
                counts = [n for n, u in units.items() if u == "count"]
                differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
                assert not differ, f"{workload}: counts differ between runs: {differ}"
            else:
                assert first["metrics"]["ok_frac"]["value"] == 1.0
            print(f"ok {workload} trace={trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
