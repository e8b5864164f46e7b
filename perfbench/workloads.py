"""The benchmark's three workloads: seeded argv lists for ``stabcert.cli.main``.

Each workload puts a different module on the critical path (see
README.md).  The workload seed only reaches the program through the
generated argv: it picks the random-stable ``--seed`` and the perturbation
``--seed`` of every job, and the entries of the ``--b-file`` matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

from tracer import SPAN_NAMES

STABLE = (
    ("heat", ["--family", "heat"]),
    ("upwind", ["--family", "upwind"]),
    ("jordan(-1)", ["--family", "jordan", "--lambda", "-1"]),
    ("random-stable", ["--family", "random-stable"]),
)
UNSTABLE = (
    ("jordan(+1)", ["--family", "jordan", "--lambda", "1"], 3),
    ("jordan(+0.5)", ["--family", "jordan", "--lambda", "0.5"], 16),
)

# Jobs whose outcome breaks the exit-code contract today.  They stay in the
# workloads and count as failed; the oracle only uses this list to tell a
# known defect from a new one.
KNOWN_DEFECTS = {
    "leftinv heat n=48":
        "exits 1 (at every n >= 44): lower_envelope finds fewer than two samples above "
        "the round-off floor",
    "resolvent jordan(+1) n=3":
        "exits 1, not 2: solve_algebraic raises UnstableGeneratorError (ROADMAP item 4)",
    "perturb jordan(+1) n=3 trials=4":
        "exits 1, not 2: solve_algebraic raises UnstableGeneratorError (ROADMAP item 4)",
    "leftinv jordan(+1) n=3":
        "exits 1, not 2: default_time_grid raises ValueError (ROADMAP item 4)",
}

# A perturbation this small is inside the admissible radius 1/(2|Q|) of
# every stable family at n=12 (the smallest radius there is about 0.077).
B_FILE_SCALE = 1e-3


def derived_seed(seed: int, label: str) -> int:
    """Per-job program seed, a pure function of the workload seed and the job."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _job(sub, family, flags, n, seed, expect=0, extra=(), tag=""):
    label = f"{sub} {family} n={n}" + (f" {tag}" if tag else "")
    argv = [sub, *flags, "--n", str(n), *extra]
    if family == "random-stable" or sub == "perturb":
        argv += ["--seed", str(derived_seed(seed, label))]
    return {"label": label, "argv": argv, "expect": expect,
            "output": "matrix" if sub == "gen" else "report"}


def _write_b_file(path, n, seed):
    rng = random.Random(derived_seed(seed, f"b-file n={n}"))
    scale = B_FILE_SCALE / n  # |B| <= ||B||_F <= B_FILE_SCALE
    data = [scale * rng.uniform(-1.0, 1.0) for _ in range(n * n)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": n, "cols": n, "data_real": data}, fh)


def solve_heavy(seed, work):
    # Each (subcommand, family) pair runs at three sizes, one in each third
    # of 32..48, and the 36 sizes spread evenly over that range.  With every
    # pair at n in {32, 48} the job times form two clusters and the median
    # is the slowest n=32 job; with 24 jobs a 27% gap still sat at the
    # median, and it moved by 10% between runs.  Heat comes last, so that
    # leftinv heat runs at n=48, the known defect.
    pairs = [(sub, fam, flags) for sub in ("certify", "q0", "leftinv")
             for fam, flags in reversed(STABLE)]
    count = 3 * len(pairs)
    sizes = [32 + round(16 * k / (count - 1)) for k in range(count)]
    return [_job(sub, fam, flags, n, seed) for (sub, fam, flags), n in zip(pairs * 3, sizes)]


def resolvent_scan(seed, work):
    # Every stable family at every n from 16 to 32.  With a few
    # well-separated sizes the job times form clusters, and a percentile
    # between two clusters jumps by the gap; 68 distinct jobs keep the
    # distribution dense.
    return [_job("resolvent", fam, flags, n, seed)
            for n in range(16, 33) for fam, flags in STABLE]


def small_batch(seed, work):
    b_file = os.path.join(work, "b-n12.json")
    _write_b_file(b_file, 12, seed)
    jobs = []
    for fam, flags in STABLE:
        jobs += [_job(sub, fam, flags, n, seed) for n in (8, 12) for sub in ("certify", "q0")]
        for n in (8, 16, 24):
            jobs.append(_job("leftinv", fam, flags, n, seed))
            jobs.append(_job("perturb", fam, flags, n, seed,
                             extra=["--random-trials", "10"], tag="trials=10"))
        jobs.append(_job("perturb", fam, flags, 12, seed,
                         extra=["--b-file", b_file], tag="b-file"))
        jobs.append(_job("gen", fam, flags, 16, seed))
    for fam, flags, n in UNSTABLE:
        jobs += [_job(sub, fam, flags, n, seed, expect=2) for sub in ("refute", "certify")]
    fam, flags, n = UNSTABLE[0]
    jobs.append(_job("resolvent", fam, flags, n, seed, expect=2))
    jobs.append(_job("perturb", fam, flags, n, seed, expect=2,
                     extra=["--random-trials", "4"], tag="trials=4"))
    jobs.append(_job("leftinv", fam, flags, n, seed, expect=2))
    return jobs


def _spans(*prefixes):
    return tuple(s for s in SPAN_NAMES if s.startswith(prefixes))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: object  # (seed, work_dir) -> list of job dicts
    warmup: list  # argv of the untimed warm-up job that ends set-up
    tail_pct: float  # job_tail_s percentile: >= 10 jobs above it in a baseline run
    reference: tuple  # reference.PARTS that scale its job times: like its critical path
    spans: tuple  # spans the traced run must see fire on this workload


WORKLOADS = {w.name: w for w in (
    Workload(
        "solve-heavy",
        "certify, q0, leftinv at n from 32 to 48: the Kronecker Lyapunov solve and the "
        "expm certificate grid are the critical path",
        solve_heavy,
        ["certify", "--family", "heat", "--n", "16"],
        70.0,
        ("lapack", "blas"),
        _spans("lyapunov.", "semigroup.", "space.", "numkernel.expm",
               "numkernel.hermitian_eig", "numkernel.singular_extremes",
               "models.build_model", "cli."),
    ),
    Workload(
        "resolvent-scan",
        "resolvent on four families at every n from 16 to 32: about 745 solve_linear and "
        "SVD calls per job dominate, the Lyapunov solve is small",
        resolvent_scan,
        ["resolvent", "--family", "heat", "--n", "8"],
        75.0,
        ("python", "lapack"),
        _spans("resolvent.", "numkernel.solve_linear", "numkernel.singular_extremes",
               "numkernel.hermitian_eig", "models.build_model", "models.random_vector",
               "lyapunov.solve_algebraic", "lyapunov.membership_margin",
               "lyapunov.refute_stability", "space.op_norm", "cli."),
    ),
    Workload(
        "small-batch",
        "many 5-200 ms jobs at n <= 24 across every subcommand: fixed costs, expm grids "
        "and SplitMix64 sampling dominate",
        small_batch,
        ["certify", "--family", "heat", "--n", "8"],
        95.0,
        ("python", "lapack"),
        _spans("lyapunov.", "semigroup.", "space.", "perturb.", "numkernel.expm",
               "numkernel.hermitian_eig", "numkernel.singular_extremes",
               "models.build_model", "models.random_matrix", "models.random_hermitian",
               "cli."),
    ),
)}
