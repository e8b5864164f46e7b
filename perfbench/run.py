#!/usr/bin/env python3
"""stabcert job benchmark: one closed-loop client running CLI jobs.

    python3 perfbench/run.py --workload solve-heavy --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each workload runs in child processes
(worker.py) that import stabcert from ``src/``.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Times are reported in reference seconds (see reference.py).
``--workload all`` runs every workload untraced and traced, repeats the
untraced run on the next seed to show the verdict table does not depend
on the seed, and with ``--record FILE`` writes everything to FILE.  The
last line of stdout is always one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread, here (the reference kernel) and in every child, set
# before numpy loads: the box has two cores and is shared, and a single
# thread keeps job times steady.  Recorded in every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import reference  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Set-up is timed in this many set-up-only children per untraced run,
# each between two reference runs: the median is reported.
SETUP_REPEATS = 7
# Reference parts that scale set-up (imports, interpreter start) and
# rechecks (JSON parsing, small checks) on every workload: both are
# interpreter-bound whatever the workload's critical path.
SETUP_PARTS = RECHECK_PARTS = ("python", "lapack")
# Every child is killed once the run has lasted this long, so a run ends
# well inside the 180-second limit even when the program hangs.
RUN_DEADLINE_S = 170.0
# Time left after the workload child's cap for the job in flight and the
# summary.
CHILD_MARGIN_S = 15.0

END_TO_END_UNITS = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s",
    "recheck_p50_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def spawn(config, deadline):
    """Run one worker; returns (seconds from spawn to ready, result or None)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        try:
            proc.stdin.write(json.dumps(config))
            proc.stdin.close()
        except BrokenPipeError:  # the child died at start-up; reported below
            pass
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
    finally:
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{config['mode']} child exited {code}")
    return setup_s, (json.loads(rest.splitlines()[-1]) if config["mode"] != "setup" else None)


def quantile(samples, pct):
    """Harrell-Davis estimate of the ``pct`` percentile: a mean of all order
    statistics, weighted by the mass a Beta((n+1)p, (n+1)(1-p)) density puts
    on each 1/n slice.  Job times cluster by job, and where a percentile
    falls between two clusters the nearest-rank value jumps from one to the
    other between runs; this estimate moves smoothly."""
    ordered = np.sort(np.asarray(samples, dtype=float))
    n, p = len(ordered), pct / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    steps = 20  # midpoint rule per slice; never evaluates the density at 0 or 1
    grid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(mass @ ordered / mass.sum())


def above(samples, pct):
    """How many samples lie above the nearest-rank ``pct`` percentile."""
    return len(samples) - max(math.ceil(pct / 100.0 * len(samples)), 1)


def _summarise(outcomes):
    failures = [o for o in outcomes if o["problem"]]
    verdicts, times = {}, {}
    for o in outcomes:
        verdicts.setdefault(o["label"], set()).add(f"exit={o['code']} verdict={o['verdict']}")
        times.setdefault(o["label"], []).append(o["job_s"] * o["scale"])
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        "wrong": sorted({o["label"] for o in failures if o["wrong"]}),
        "unknown_failures": sorted({o["label"] for o in failures
                                    if not o["wrong"] and o["label"] not in KNOWN_DEFECTS}),
        "failures": {o["label"]: o["problem"] for o in failures},
        "verdicts": {label: " | ".join(sorted(v)) for label, v in sorted(verdicts.items())},
        "job_s_by_label": {label: statistics.median(t) for label, t in sorted(times.items())},
    }


def _rate(phase):
    """Jobs per reference second of the loop, first rechecks and checks included."""
    outcomes = phase["outcomes"]
    return len(outcomes) / sum(o["loop_s"] * o["scale"] for o in outcomes)


def _end_to_end(phase, setups, tail_pct):
    outcomes = phase["outcomes"]
    jobs = [o["job_s"] * o["scale"] for o in outcomes]
    rechecks = [t * o["recheck_scale"] for o in outcomes for t in o["recheck_s"]]
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw_p50 = quantile([o["job_s"] for o in outcomes], 50)
    values = {
        "setup_s": (statistics.median(setups), len(setups), ""),
        "jobs_per_s": (_rate(phase), len(jobs),
                       f"{phase['cycles']} cycles in {phase['wall_s']:.2f} s wall, "
                       f"{len(phase['refs'])} reference runs, median "
                       f"{1e3 * statistics.median(sum(r.values()) for r in phase['refs']):.1f} ms"),
        "job_p50_s": (quantile(jobs, 50), len(jobs), f"unscaled {raw_p50:.4g} s"),
        "job_tail_s": (quantile(jobs, tail_pct), len(jobs),
                       f"p{tail_pct:g}, {above(jobs, tail_pct)} jobs above it"),
        "recheck_p50_s": (quantile(rechecks, 50), len(rechecks), ""),
        "peak_rss_mb": (rss_mb, 1, "ru_maxrss of the workload children"),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name], "samples": n, "note": note}
            for name, (v, n, note) in values.items()}


def _per_layer(result, parts):
    untraced, traced = result["phases"]
    trace = result["trace"]
    spans = trace["spans"]
    jobs = len(traced["outcomes"])
    # span times in reference seconds, at the median speed of the traced phase
    factor = statistics.median(reference.scale(parts, r, r) for r in traced["refs"])
    metrics = {}
    for name in SPAN_NAMES:
        calls, _total, self_s = spans[name]
        metrics[f"{name}.calls"] = (calls / jobs, "count/job")
        metrics[f"{name}.self_s"] = (factor * self_s / jobs, "s/job")
    expm_calls = spans["numkernel.expm"][0]
    scan_s = (spans["resolvent.verify_bound_right"][1]
              + spans["resolvent.verify_bound_left_strip"][1])
    margin_calls = spans["lyapunov.membership_margin"][0]
    metrics.update({
        "numkernel.solve_linear.failed": (trace["singular_failures"] / jobs, "count/job"),
        "numkernel.expm.distinct_ratio": (
            trace["expm_distinct"] / expm_calls if expm_calls else 1.0, "1"),
        "resolvent.s_per_point": (
            factor * scan_s / trace["scan_points"] if trace["scan_points"] else 0.0, "s"),
        "lyapunov.membership_margin.decomps_per_call": (
            trace["margin_decomps"] / margin_calls if margin_calls else 0.0, "count"),
        "bench.trace_overhead_ratio": (_rate(traced) / _rate(untraced), "1"),
    })
    return {name: {"value": v, "unit": unit, "samples": jobs, "note": ""}
            for name, (v, unit) in metrics.items()}


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns the full record of the run."""
    workload = WORKLOADS[name]
    if not (ROOT / "src" / "stabcert" / "cli.py").is_file():
        raise BenchError(f"no stabcert sources under {ROOT / 'src'}")
    reference.run()  # its first run pays LAPACK's first-call costs

    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = {"src": str(ROOT / "src"), "work_dir": str(work), "warmup": workload.warmup,
                  "jobs": workload.make_jobs(seed, str(work)), "seconds": seconds}
        setups = []
        if not trace:
            for _ in range(SETUP_REPEATS):
                before = reference.run()
                setup_s = spawn({**config, "mode": "setup"}, deadline)[0]
                setups.append(setup_s * reference.scale(SETUP_PARTS, before, reference.run()))
        # the child cuts a cycle short only when the run would overrun its deadline
        config["cap_s"] = deadline - time.perf_counter() - CHILD_MARGIN_S
        result = spawn({**config, "mode": "trace" if trace else "run"}, deadline)[1]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for phase in result["phases"] for o in phase["outcomes"]]
    for o in outcomes:
        o["scale"] = reference.scale(workload.reference, *o["ref_s"])
        o["recheck_scale"] = reference.scale(RECHECK_PARTS, *o["ref_s"])
    summary = _summarise(outcomes)
    problems = [f"wrong outcome: {label}: {summary['failures'][label]}"
                for label in summary["wrong"]]
    problems += [f"failure outside the known defects: {label}: {summary['failures'][label]}"
                 for label in summary["unknown_failures"]]
    if trace:
        metrics = _per_layer(result, workload.reference)
        silent = [s for s in workload.spans if result["trace"]["spans"][s][0] == 0]
        problems += [f"predicted span never fired: {s}" for s in silent]
    else:
        metrics = _end_to_end(result["phases"][0], setups, workload.tail_pct)
    manifest = ROOT / "BENCHMARK.json"
    if manifest.is_file():
        declared = json.loads(manifest.read_text())["per_layer" if trace else "end_to_end"]
        if {m["name"] for m in declared} != set(metrics):
            raise BenchError("metrics differ from the ones BENCHMARK.json declares")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "env": {**result["env"], "git_commit": _git_commit(), "seed": seed},
        "correct": not problems, "problems": problems,
        "attempted": summary["attempted"], "failed": summary["failed"],
        "failed_ratio": summary["failed"] / summary["attempted"],
        "failures": summary["failures"], "known_defects": {
            label: KNOWN_DEFECTS[label] for label in summary["failures"]
            if label in KNOWN_DEFECTS},
        "verdicts": summary["verdicts"], "job_s_by_label": summary["job_s_by_label"],
        "metrics": metrics,
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_record(rec):
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}")
    print("env: " + json.dumps(rec["env"], sort_keys=True))
    width = max(len(n) for n in rec["metrics"])
    for name, m in rec["metrics"].items():
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}  n={m['samples']}{note}")
    print(f"  failed_ratio  {rec['failed']}/{rec['attempted']} = {rec['failed_ratio']:.4f}")
    for label, problem in rec["failures"].items():
        known = "known defect" if label in rec["known_defects"] else "NEW"
        print(f"  failed [{known}] {label}: {problem}")
    for problem in rec["problems"]:
        print(f"  PROBLEM {problem}")
    print("  verdicts (median job time, reference seconds):")
    for label, verdict in rec["verdicts"].items():
        print(f"    {label:<34} {rec['job_s_by_label'][label]:8.4f}  {verdict}")


def _result_line(rec):
    return {"correct": rec["correct"], "attempted": rec["attempted"], "failed": rec["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in rec["metrics"].items()}}


def run_all(seed, seconds, record_path):
    """Every workload untraced and traced, plus the untraced run again on
    seed + 1 to show the verdict table and failed_ratio do not move.  Each
    run is its own process, so RUSAGE_CHILDREN sees one workload only."""
    records = []
    for name in WORKLOADS:
        for s, trace in ((seed, 0), (seed, 1), (seed + 1, 0)):
            path = HERE / ".work" / f"record-{os.getpid()}.json"
            path.parent.mkdir(exist_ok=True)
            try:
                subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                "--workload", name, "--seed", str(s), "--seconds", str(seconds),
                                "--trace", str(trace), "--record", str(path)], check=True)
                records.append(json.loads(path.read_text()))
            except subprocess.CalledProcessError as exc:
                raise BenchError(f"{name} seed={s} trace={trace} failed") from exc
            finally:
                path.unlink(missing_ok=True)
        base, other = records[-3], records[-1]
        same = (base["verdicts"] == other["verdicts"]
                and base["failed_ratio"] == other["failed_ratio"])
        print(f"== {name}: seed {seed} and seed {seed + 1} give the same verdict table "
              f"and failed_ratio: {same}")
        if not same:
            other["problems"].append(f"verdicts or failed_ratio depend on the seed ({name})")
            other["correct"] = False
    if record_path:
        Path(record_path).write_text(json.dumps(records, indent=1) + "\n")
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{n}": {"value": m["value"], "unit": m["unit"]}
                        for r in records if r["seed"] == seed
                        for n, m in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record(s) to this file")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            line = run_all(args.seed, args.seconds, args.record)
        else:
            rec = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print_record(rec)
            if args.record:
                Path(args.record).write_text(json.dumps(rec, indent=1) + "\n")
            line = _result_line(rec)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):  # left in place while other runs use it
            (HERE / ".work").rmdir()
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
