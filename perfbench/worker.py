"""Workload child process: one closed-loop client calling ``stabcert.cli.main``.

Started by run.py with a JSON config on stdin.  It limits its own address
space, imports stabcert, runs one untimed warm-up job and prints ``ready``;
that line ends set-up.  A ``setup`` child exits there.  A ``run`` child then
runs the workload's jobs back to back in whole cycles, rechecks every
report, and prints one JSON line with the raw samples.  It times the
reference kernel (reference.py) between every two jobs; each job carries
the reference times just before and after it, which scale its times to
reference seconds.  A ``trace`` child runs an untraced phase, installs
the tracer, runs a traced phase, and adds the span aggregates.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time

from tracer import Tracer

# An allocation past this limit raises MemoryError inside the job, which
# the oracle counts as a failure, instead of exhausting the box's memory.
ADDRESS_SPACE_LIMIT = 4 << 30

# Each report is rechecked this many times.  A recheck takes 5-20 ms, and
# the median of the few dozen a solve-heavy run makes moved by 15% between
# runs.  The extra rechecks are left out of ``loop_s``, so ``jobs_per_s``
# still counts one recheck per job.
RECHECKS = 3

# Verdicts the README contract pairs with each expected exit code.
EXPECTED_VERDICTS = {0: ("certified", "pass", "not_refuted"), 2: ("refuted",)}


class Client:
    """Runs jobs through ``cli.main`` in-process and checks each outcome."""

    def __init__(self, cli, work_dir, reference):
        self.cli = cli
        self.reference = reference  # () -> wall time of each reference part
        self.work_dir = work_dir
        self.sink = open(os.devnull, "w", encoding="utf-8")
        self.first_digest = {}
        self.tracer = None

    def close(self):
        self.sink.close()

    def _call(self, argv):
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            try:
                return self.cli.main(argv), None
            except Exception as exc:  # a crashing job is a counted failure
                return None, f"{type(exc).__name__}: {exc}"

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def run_job(self, job):
        loop_started = time.perf_counter()
        out_dir = os.path.join(self.work_dir, hashlib.sha1(job["label"].encode()).hexdigest()[:12])
        os.makedirs(out_dir, exist_ok=True)
        target = os.path.join(out_dir, "out.json")
        if os.path.exists(target):
            os.unlink(target)
        argv = job["argv"] + ["--out-dir", out_dir, "--out", "out.json"]

        with self._span("cli.main"):
            started = time.perf_counter()
            code, error = self._call(argv)
            job_s = time.perf_counter() - started
        is_report = job["output"] == "report"
        recheck_s, statuses = [], []
        if is_report and code in EXPECTED_VERDICTS and os.path.exists(target):
            for _ in range(RECHECKS):
                with self._span("cli.recheck"):
                    started = time.perf_counter()
                    status, recheck_error = self._call(["recheck", target])
                    recheck_s.append(time.perf_counter() - started)
                statuses.append(status)
                error = error or recheck_error
        recheck = next((status for status in statuses if status != 0), 0) if statuses else None
        if self.tracer:
            self.tracer.end_job()

        verdict, digest = _inspect(target, out_dir, is_report)
        problem, wrong = None, False
        if error:
            problem = error
        elif code != job["expect"]:
            problem = f"exit {code}, expected {job['expect']}"
            wrong = code in EXPECTED_VERDICTS
        elif is_report and verdict not in EXPECTED_VERDICTS[code]:
            problem, wrong = f"verdict {verdict!r} with exit {code}", True
        elif is_report and recheck != 0:
            problem, wrong = f"recheck exit {recheck}", True
        elif self.first_digest.setdefault(job["label"], digest) != digest:
            problem, wrong = "output differs from an earlier run of this job", True
        return {"label": job["label"], "code": code, "verdict": verdict, "job_s": job_s,
                "recheck_s": recheck_s,
                "loop_s": time.perf_counter() - loop_started - sum(recheck_s[1:]),
                "problem": problem, "wrong": wrong}

    def phase(self, jobs, target_s, cap_s):
        """Whole cycles over ``jobs``, at least one, until ``target_s`` has
        passed; a cycle is cut short only when ``cap_s`` runs out.
        ``loop_s`` of an outcome is the job with its first recheck and
        checks; ``ref_s`` holds the reference runs before and after it."""
        outcomes = []
        refs = [self.reference()]
        cycles = 0
        started = time.perf_counter()
        while True:
            for job in jobs:
                outcome = self.run_job(job)
                refs.append(self.reference())
                outcome["ref_s"] = refs[-2:]
                outcomes.append(outcome)
                if time.perf_counter() - started >= cap_s:
                    break
            else:
                cycles += 1
                if time.perf_counter() - started < target_s:
                    continue
            break
        wall_s = time.perf_counter() - started
        return {"wall_s": wall_s, "cycles": cycles, "refs": refs, "outcomes": outcomes}


def _inspect(path, out_dir, is_report):
    """(verdict, digest of everything the job wrote outside ``timings``)."""
    if not os.path.exists(path):
        return None, None
    with open(path, "rb") as fh:
        raw = fh.read()
    if not is_report:
        return None, hashlib.sha256(raw).hexdigest()
    report = json.loads(raw)
    report.pop("timings", None)
    h = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    for scan in report.get("scans", {}).values():
        with open(os.path.join(out_dir, scan["csv"]), "rb") as fh:
            h.update(fh.read())
    return report.get("verdict"), h.hexdigest()


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "address_space_limit_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def _limit_address_space():
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(
        ADDRESS_SPACE_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def main():
    _limit_address_space()  # before numpy loads, so BLAS buffers count too
    config = json.load(sys.stdin)
    sys.path.insert(0, config["src"])
    from stabcert import cli

    import reference

    client = Client(cli, config["work_dir"], reference.run)
    try:
        warm = client.run_job({"label": "warm-up", "argv": config["warmup"], "expect": 0,
                               "output": "report"})
        if warm["problem"]:
            raise SystemExit(f"warm-up job failed: {warm['problem']}")
        reference.run()  # its first run pays LAPACK's first-call costs
        print("ready", flush=True)
        if config["mode"] == "setup":
            return
        seconds, cap_s = config["seconds"], config["cap_s"]
        result = {"env": _environment()}
        if config["mode"] == "run":
            result["phases"] = [client.phase(config["jobs"], seconds, cap_s)]
        else:
            untraced = client.phase(config["jobs"], seconds / 2.0, cap_s / 2.0)
            client.tracer = tracer = Tracer()
            tracer.install()
            traced = client.phase(config["jobs"], seconds / 2.0, cap_s / 2.0)
            tracer.uninstall()
            result["phases"] = [untraced, traced]
            result["trace"] = {
                "spans": {name: [s.calls, s.total, s.self_time]
                          for name, s in tracer.stats.items()},
                "singular_failures": tracer.singular_failures,
                "expm_distinct": tracer.expm_distinct,
                "scan_points": tracer.scan_points,
                "margin_decomps": tracer.margin_decomps,
            }
        print(json.dumps(result), flush=True)
    finally:
        client.close()


if __name__ == "__main__":
    main()
