"""Benchmark worker: one fresh interpreter running one closed-loop client.

``run.py`` starts it as

    python3 perfbench/worker.py JOBFILE RESULTFILE --seconds S --trace 0|1

with ``src`` on ``PYTHONPATH``.  Set-up is the interpreter start, ``import
coxrep`` and one warm-up job per command; the worker then prints ``ready``.
Next comes one untimed check pass over the job list, whose outputs are saved
for the independent checks in ``checks.py``; it also fills the program's
caches.  After it the worker repeats whole passes, one job at a time with no
threads, for about ``S`` seconds and at least ``MIN_TIMED_JOBS`` jobs; with
``--trace 1`` it alternates untraced and traced passes instead.  A timed job counts as failed if it raises, exits with
another code than the job expects, or prints other bytes than it did in the
check pass.

The ``ready`` line also carries the speed probes taken just before and just
after the set-up, and the seconds spent probing.  ``--setup-only`` stops
after ``ready``; ``--one INDEX`` runs one job and
writes its output to stdout (the fresh-process half of the fidelity check).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed

# p90 needs ten jobs beyond it
MIN_TIMED_JOBS = 110


def _cli(argv) -> int:
    import coxrep.cli

    try:
        return coxrep.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _decompose(path) -> int:
    """Library job: split the representation in the file, then certify each
    leaf by its endomorphism dimension."""
    from coxrep import reps

    with open(path, encoding="utf-8") as fh:
        V = reps.UnfoldedRep.from_json(json.load(fh))
    leaves = [
        {"dims": {u: d for u, d in sorted(W.dims.items()) if d}, "end_dim": reps.end_dim(W)}
        for W in reps.decompose(V)
    ]
    print(json.dumps(leaves, sort_keys=True))
    return 0


def run_job(job):
    """Run one job in-process; return (exit code, stdout, error or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = _cli(job["argv"]) if job["kind"] == "cli" else _decompose(job["rep"])
    except Exception as exc:  # a job that raises is a failed job; keep going
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_pass(jobs, out_dir):
    """Untimed pass: record every job's exit code and output."""
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for idx, job in enumerate(jobs):
        rc, out, error = run_job(job)
        with open(os.path.join(out_dir, f"{idx}.out"), "w", encoding="utf-8") as fh:
            fh.write(out)
        records.append({"id": job["id"], "rc": rc, "error": error, "digest": digest(out)})
    return records


def timed_pass(jobs, reference, tracer=None):
    """One pass over the jobs; returns (wall seconds of the jobs, job seconds,
    speed probes, failures).  A probe runs before every job and after the
    last one, so job ``i`` lies between probes ``i`` and ``i + 1``."""
    times, probes, failures = [], [], 0
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        probes.append(speed.probe())
        t0 = time.perf_counter()
        rc, out, error = run_job(job)
        times.append(time.perf_counter() - t0)
        if error is not None or rc != job["rc"] or digest(out) != reference[idx]["digest"]:
            failures += 1
    probes.append(speed.probe())
    return sum(times), times, probes, failures


def _more(start, seconds, last):
    """Start another round unless it would end mostly past the deadline."""
    return time.perf_counter() - start + last / 2 < seconds


def measure(jobs, reference, seconds):
    job_s, probe_s, pass_s, failures = [], [], [], 0
    start = time.perf_counter()
    while not pass_s or _more(start, seconds, pass_s[-1]) or sum(map(len, job_s)) < MIN_TIMED_JOBS:
        wall, times, probes, failed = timed_pass(jobs, reference)
        job_s.append(times)
        probe_s.append(probes)
        pass_s.append(wall)
        failures += failed
    return {"job_s": job_s, "probe_s": probe_s, "pass_s": pass_s, "failed": failures}


def measure_traced(jobs, reference, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer metrics per traced pass."""
    import tracer as tracing

    tr = tracing.Tracer()
    untraced, traced, layers, probe_s, failures = [], [], [], [], 0
    start = time.perf_counter()
    while not traced or _more(start, seconds, untraced[-1] + traced[-1]):
        wall, _, probes, failed = timed_pass(jobs, reference)
        untraced.append(wall)
        probe_s.append(probes)
        failures += failed
        tr.reset()
        with tr.installed():
            wall, _, probes, failed = timed_pass(jobs, reference, tr)
        traced.append(wall)
        probe_s.append(probes)
        failures += failed
        layers.append(tr.metrics())
        if len(traced) == 1:
            tr.write_spans(spans_path)
    return {
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layers": layers,
        "probe_s": probe_s,
        "failed": failures,
        "jobs": len(jobs) * 2 * len(traced),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("jobfile")
    ap.add_argument("result", nargs="?")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--one", type=int)
    args = ap.parse_args(argv)
    with open(args.jobfile, encoding="utf-8") as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    if args.one is not None:
        rc, out, error = run_job(jobs[args.one])
        sys.stdout.write(out)
        return 1 if error else rc

    # Probe the speed of this process's core before and after the set-up,
    # and report how long the probes took, which is not set-up.
    t0 = time.perf_counter()
    before = speed.probe()
    probing = time.perf_counter() - t0
    import coxrep  # noqa: F401  (set-up: the import is part of what is timed)

    for job in spec["warmup"]:
        rc, _, error = run_job(job)
        if error or rc != job["rc"]:
            raise SystemExit(f"warm-up job {job['id']} failed: rc={rc} {error}")
    t0 = time.perf_counter()
    after = speed.probe()
    probing += time.perf_counter() - t0
    print(f"ready {before!r} {after!r} {probing!r}", flush=True)
    if args.setup_only:
        return 0

    base = os.path.splitext(args.result)[0]
    reference = check_pass(jobs, base + ".outputs")
    if args.trace:
        result = measure_traced(jobs, reference, args.seconds, base + ".spans.jsonl")
    else:
        result = measure(jobs, reference, args.seconds)
    result["check_pass"] = reference
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
