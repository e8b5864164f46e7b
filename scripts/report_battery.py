#!/usr/bin/env python3
"""Run a fixed battery of stabcert jobs from one source tree, and compare
the reports of two batteries.

    python scripts/report_battery.py run SRC OUT [N ...]
    python scripts/report_battery.py compare A B

``run`` starts one ``python -m stabcert`` process per job in OUT, with
``PYTHONPATH=SRC`` and one OpenBLAS thread (reports are byte-identical for
a fixed BLAS build and thread count).  The jobs are the six math commands
(``perturb`` with ``--random-trials 4``) on eight generators, plus ``leftinv
--t-grid 0.01,20,64`` on upwind, at every size N (default 3 8 24 48): 196
jobs.  The hand-made grid has no point at exactly twice another, so its
reports must not move when the default grid does.  One generator runs
under a weighted norm: the SPD weight W_ij = 2^-|i-j|, which ``run``
writes to ``OUT/weight-n<N>.json`` and passes by that relative name,
since reports echo it.  Each job writes its report and CSVs into
``OUT/<job>/``, and the exit codes go to ``OUT/exit_codes.json``.

``compare`` exits 0 when the two batteries hold the same files, every JSON
file is equal outside ``timings`` and ``config.out_dir`` (which echoes the
output path), and every other file is equal byte for byte.  Otherwise it
lists the paths that differ and exits 1.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = {"certify": [], "refute": [], "q0": [], "resolvent": [],
            "perturb": ["--random-trials", "4"], "leftinv": []}
GENERATORS = {
    "heat": ["--family", "heat"],
    "upwind": ["--family", "upwind"],
    "jordan-1": ["--family", "jordan", "--lambda=-1"],
    "random-stable-s3": ["--family", "random-stable", "--seed", "3"],
    "jordan+1": ["--family", "jordan", "--lambda=1"],
    "jordan+0.5": ["--family", "jordan", "--lambda=0.5"],
    "jordan-0.5+1i": ["--family", "jordan", "--lambda=-0.5+1i"],
    "random-stable-s3-weighted": ["--family", "random-stable", "--seed", "3",
                                  "--norm-file", "weight-n{n}.json"],
}
T_GRID_JOB = ("leftinv-t-grid-upwind",
              ["leftinv", *GENERATORS["upwind"], "--t-grid", "0.01,20,64"])
SIZES = [3, 8, 24, 48]
EXIT_CODES = "exit_codes.json"


def run(src: Path, out: Path, sizes: list) -> int:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "OPENBLAS_NUM_THREADS": "1"}
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for n in sizes:
        weight = [2.0 ** -abs(i - j) for i in range(n) for j in range(n)]
        (out / f"weight-n{n}.json").write_text(json.dumps(
            {"rows": n, "cols": n, "data_real": weight}) + "\n")
        jobs = [(f"{command}-{label}-n{n}", [command, *generator, *flags])
                for label, generator in GENERATORS.items()
                for command, flags in COMMANDS.items()]
        jobs.append((f"{T_GRID_JOB[0]}-n{n}", T_GRID_JOB[1]))
        for job, args in jobs:
            argv = [sys.executable, "-m", "stabcert", *(arg.format(n=n) for arg in args),
                    "--n", str(n), "--out-dir", job]
            codes[job] = subprocess.run(argv, cwd=out, env=env,
                                        capture_output=True).returncode
    (out / EXIT_CODES).write_text(json.dumps(codes, indent=1) + "\n")
    tally = collections.Counter(codes.values())
    print(f"{len(codes)} jobs, exit codes "
          + ", ".join(f"{count}x{code}" for code, count in sorted(tally.items())))
    return 0


def _comparable(path: Path) -> bytes:
    """The bytes that must agree: a JSON document without ``timings`` and
    ``config.out_dir``, any other file as it is."""
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    doc = json.loads(data)
    if isinstance(doc, dict):
        doc.pop("timings", None)
        if isinstance(doc.get("config"), dict):
            doc["config"].pop("out_dir", None)
    return json.dumps(doc).encode()


def compare(a: Path, b: Path) -> int:
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    differ = sorted(files[0] ^ files[1])
    differ += sorted(rel for rel in files[0] & files[1]
                     if _comparable(a / rel) != _comparable(b / rel))
    for rel in differ:
        print(f"differs: {rel}")
    if differ:
        return 1
    codes = json.loads((a / EXIT_CODES).read_text()) if (a / EXIT_CODES).is_file() else {}
    tally = collections.Counter(codes.values())
    print(f"identical: {len(files[0])} files, {len(codes)} jobs, exit codes "
          + ", ".join(f"{count}x{code}" for code, count in sorted(tally.items())))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the battery from one source tree")
    p.add_argument("src", type=Path, help="the directory that holds the stabcert package")
    p.add_argument("out", type=Path)
    p.add_argument("sizes", type=int, nargs="*", default=SIZES)
    p = sub.add_parser("compare", help="compare the outputs of two runs")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.out, args.sizes)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
