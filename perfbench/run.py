"""coxrep benchmark.

    python3 perfbench/run.py --workload indecs|decompose|classes --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; it needs nothing but the standard library
and the checkout's ``src``.  The inputs are made from the seed, then a fresh
worker process (``worker.py``) runs the workload's jobs as one closed-loop
client.  Every output is checked independently (``checks.py``); for the
default seed each output digest must also equal the one recorded in
``reference_digests.json``.  A few jobs are re-run as real ``python -m
coxrep.cli`` subprocesses and must print the same bytes and exit code.
Times are scaled to a reference speed by the probes of ``speed.py``, which
run between jobs, since the machine's speed drifts during a run.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` - the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The line before it
records the machine and the inputs.  Files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

import checks  # noqa: E402  (next to this file)
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
WORKER_TIMEOUT = 150


def worker_env() -> dict:
    """Hermetic environment: only src on the path, the splitter's documented
    default seed (no COXREP_SEED), a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "COXREP_"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env):
    """Start a worker and wait for its ``ready``; returns the process and the
    set-up as (wall seconds, probe before, probe after).  The wall time leaves
    out the worker's own probing."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(line) != 4 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed during set-up (exit {proc.returncode})")
    before, after, probing = map(float, line[1:])
    return proc, (wall - probing, before, after)


def finish(proc, timeout=WORKER_TIMEOUT):
    try:
        proc.stdout.read()
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit("worker timed out")
    finally:
        proc.stdout.close()
    if code:
        raise SystemExit(f"worker exited with {code}")


def fidelity(jobs, out_dir, jobfile, env) -> list[str]:
    """Re-run the jobs marked ``fidelity`` in fresh processes: the CLI as
    ``python -m coxrep.cli``, library jobs through ``worker.py --one``."""
    problems = []
    for idx, job in enumerate(jobs):
        if not job.get("fidelity"):
            continue
        if job["kind"] == "cli":
            cmd = [sys.executable, "-m", "coxrep.cli", *job["argv"]]
        else:
            cmd = [sys.executable, os.path.join(HERE, "worker.py"), jobfile, "--one", str(idx)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=WORKER_TIMEOUT)
        with open(os.path.join(out_dir, f"{idx}.out"), "rb") as fh:
            inproc = fh.read()
        if proc.returncode != job["rc"] or proc.stdout != inproc:
            problems.append(f"{job['id']}: subprocess exit {proc.returncode} or stdout differs")
    return problems


def machine(workload, seed) -> dict:
    try:
        sympy = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy = None
    return {
        "workload": workload,
        "seed": seed,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": sympy,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def at_reference_speed(seconds, before, after):
    """A wall time scaled to the reference speed by the probes either side."""
    return seconds * speed.REFERENCE_S * 2 / (before + after)


def job_times(result, scaled=True) -> list[float]:
    """Every timed job's wall time, scaled to the reference speed by the
    probes either side of it unless ``scaled`` is false."""
    return [
        at_reference_speed(t, probes[i], probes[i + 1]) if scaled else t
        for times, probes in zip(result["job_s"], result["probe_s"])
        for i, t in enumerate(times)
    ]


def end_to_end(result, setups, attempted, failed, scaled=True) -> dict:
    job_s = job_times(result, scaled)
    setup_s = [at_reference_speed(*s) if scaled else s[0] for s in setups]
    return {
        "job_s.p50": statistics.median(job_s),
        "job_s.p90": statistics.quantiles(job_s, n=10)[8],
        "jobs_per_s": len(job_s) / sum(job_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(result, names) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes: counts and sizes from the
    first pass (they must repeat in every pass), self times as medians, each
    pass scaled to the reference speed by its median probe."""
    passes = result["layers"]
    # untraced and traced passes alternate, so the traced ones are odd
    scale = [speed.REFERENCE_S / statistics.median(q) for q in result["probe_s"]]
    untraced = [t * k for t, k in zip(result["untraced_pass_s"], scale[0::2])]
    traced = [t * k for t, k in zip(result["traced_pass_s"], scale[1::2])]
    values, problems = {}, []
    for name in names:
        if name == "trace.overhead":
            values[name] = statistics.median(traced) / statistics.median(untraced)
            continue
        if name == "trace.spans":
            per_pass = [p["spans"] for p in passes]
        elif name.endswith(".calls"):
            per_pass = [p["calls"][name[: -len(".calls")]] for p in passes]
        elif name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            table = "self_s" if "." in base else "layer_self_s"
            values[name] = statistics.median(p[table][base] * k for p, k in zip(passes, scale[1::2]))
            continue
        else:
            per_pass = [p["extra"][name] for p in passes]
        if len(set(per_pass)) != 1:
            problems.append(f"{name} differs between traced passes: {per_pass}")
        values[name] = per_pass[0]
    return values, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few small jobs (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coxrep", "__init__.py")):
        print(f"no coxrep sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-tiny" if args.tiny else "")
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, SRC)  # decompose inputs start from coxrep's indecomposables
    inputs = os.path.relpath(os.path.join(work, "inputs"), ROOT)
    spec = workloads.build(args.workload, args.seed, inputs, args.tiny)
    jobs = spec["jobs"]
    jobfile = os.path.join(work, "jobs.json")
    with open(jobfile, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    env = worker_env()
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = start_worker([jobfile, "--setup-only"], env)
        finish(proc)
        setups.append(setup)
    resultfile = os.path.join(work, "result.json")
    proc, _ = start_worker(
        [jobfile, resultfile, "--seconds", str(args.seconds), "--trace", str(args.trace)], env
    )
    finish(proc, timeout=WORKER_TIMEOUT + args.seconds)
    with open(resultfile, encoding="utf-8") as fh:
        result = json.load(fh)

    # Independent checks of the check pass, outside every timed region.
    out_dir = os.path.join(work, "result.outputs")
    problems = []
    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.tiny:
        with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
            reference = json.load(fh).get(args.workload, {})
    for idx, (job, rec) in enumerate(zip(jobs, result["check_pass"])):
        with open(os.path.join(out_dir, f"{idx}.out"), encoding="utf-8") as fh:
            out = fh.read()
        why = rec["error"] or checks.check(job, rec["rc"], out)
        if why is None and reference is not None and reference.get(job["id"]) != rec["digest"]:
            why = "stdout digest differs from the recorded reference"
        if why:
            problems.append(f"{job['id']}: {why}")
    problems += fidelity(jobs, out_dir, jobfile, env)
    attempted = len(jobs) + sum(1 for j in jobs if j.get("fidelity"))
    failed = len(problems) + result["failed"]

    unscaled = None
    if args.trace:
        attempted += result["jobs"]
        metrics, repeat = per_layer(result, units)
        problems += repeat
        failed += len(repeat)
    else:
        attempted += sum(map(len, result["job_s"]))
        metrics = end_to_end(result, setups, attempted, failed)
        unscaled = end_to_end(result, setups, attempted, failed, scaled=False)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    info = machine(args.workload, args.seed)
    summary = {
        "machine": info,
        "setup_s": setups,
        "probe_s": statistics.median(p for q in result["probe_s"] for p in q),
        "problems": problems,
        "digests": {job["id"]: rec["digest"] for job, rec in zip(jobs, result["check_pass"])},
        "metrics": metrics,
        "unscaled": unscaled,
    }
    with open(os.path.join(work, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"machine": info}))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
