#!/usr/bin/env python3
"""Run a fixed battery of stabcert jobs from one source tree, and compare
the reports of two batteries.

    python scripts/report_battery.py run SRC OUT [N ...]
    python scripts/report_battery.py compare [--numeric] A B

``run`` starts one ``python -m stabcert`` process per job in OUT, with
``PYTHONPATH=SRC`` and one OpenBLAS thread (reports are byte-identical for
a fixed BLAS build and thread count).  The jobs are the six math commands
(``perturb`` with ``--random-trials 4``) and ``perturb --b-file`` on eight
generators, plus ``leftinv --t-grid 0.01,20,64`` on upwind, at every size N
(default 3 8 24 48): 228 jobs.  The hand-made grid has no point at exactly
twice another, so its reports must not move when the default grid does.
One generator runs under a weighted norm: the SPD weight W_ij = 2^-|i-j|,
which ``run`` writes to ``OUT/weight-n<N>.json``.  ``--b-file`` takes no
``--alpha``, so its jobs go through ``max_alpha``: B has entries drawn
uniformly from [-1e-3/N, 1e-3/N] by ``random.Random(N)`` (so |B|_F <= 1e-3),
which ``run`` writes to ``OUT/b-n<N>.json``; it is inside 1/(2|Q|) for some
members and beyond it (``rejected``) for others.  Both files are passed by
their relative names, since reports echo them.  Each job writes its report
and CSVs into ``OUT/<job>/``.  Then one ``python -m stabcert recheck`` runs
over every job report, by its path relative to OUT, and writes what it
compared and concluded to ``OUT/recheck.txt``.  The exit codes of the jobs
and of ``recheck`` (as ``recheck``) go to ``OUT/exit_codes.json``.

``compare`` exits 0 when the two batteries hold the same files, every JSON
file is equal outside ``timings`` and ``config.out_dir`` (which echoes the
output path), and every other file is equal byte for byte.  Otherwise it
lists the paths that differ, each JSON file in both batteries followed by
the dotted paths of its fields that differ (a matrix or a list is one
field, as in ``certificate.grid.evaluated``), and exits 1.  A matrix
document compares by its decoded value, bit for bit, whichever of the
layouts ``f64le``, ``c128le``, ``data_real`` and ``data`` holds it; as in
the decoder, a matrix is real when every imaginary part is zero.

``compare --numeric`` lets numbers move.  It exits 0 when the two
batteries hold the same files, every file outside the job directories
(``exit_codes.json``, ``recheck.txt``, the weights and B) is equal byte
for byte, and every job file is equal in all but its numbers: the
verdicts, flags, booleans, nulls, strings, list lengths and CSV headers.
Numbers are the numbers of a report outside ``timings`` and
``config.out_dir``, the decoded values of its matrices, and the cells of
its CSVs.  It prints the non-numeric differences as the plain ``compare``
does, then one line per field that moved: its path, the largest relative
difference over the files and how many files moved in it.  A report's
field is its dotted path, and a CSV column is ``<scan>.csv.<column>``, the
scan being the last word of the file's name, as in ``right.csv.ratio``.
Two numbers x and y differ by |x - y| / max(|x|, |y|); a matrix differs
by its largest entrywise difference over its largest entry in magnitude,
since round-off in an entry is relative to the whole matrix.
"""

import argparse
import base64
import collections
import csv
import json
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

# each job's name and its subcommand with the flags of that job
COMMANDS = {"certify": ["certify"], "refute": ["refute"], "q0": ["q0"],
            "resolvent": ["resolvent"], "perturb": ["perturb", "--random-trials", "4"],
            "leftinv": ["leftinv"], "perturb-b-file": ["perturb", "--b-file", "b-n{n}.json"]}
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
B_FILE_SCALE = 1e-3  # |B|_F <= B_FILE_SCALE, as in perfbench
EXIT_CODES = "exit_codes.json"
# floats per entry of each matrix layout that stabcert.models reads
LAYOUTS = {"f64le": 1, "c128le": 2, "data_real": 1, "data": 2}


def run(src: Path, out: Path, sizes: list) -> int:
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "OPENBLAS_NUM_THREADS": "1"}
    out.mkdir(parents=True, exist_ok=True)
    codes = {}
    for n in sizes:
        weight = [2.0 ** -abs(i - j) for i in range(n) for j in range(n)]
        (out / f"weight-n{n}.json").write_text(json.dumps(
            {"rows": n, "cols": n, "data_real": weight}) + "\n")
        rng = random.Random(n)
        b = [B_FILE_SCALE / n * rng.uniform(-1.0, 1.0) for _ in range(n * n)]
        (out / f"b-n{n}.json").write_text(json.dumps(
            {"rows": n, "cols": n, "data_real": b}) + "\n")
        jobs = [(f"{name}-{label}-n{n}", [command, *generator, *flags])
                for label, generator in GENERATORS.items()
                for name, (command, *flags) in COMMANDS.items()]
        jobs.append((f"{T_GRID_JOB[0]}-n{n}", T_GRID_JOB[1]))
        for job, args in jobs:
            argv = [sys.executable, "-m", "stabcert", *(arg.format(n=n) for arg in args),
                    "--n", str(n), "--out-dir", job]
            codes[job] = subprocess.run(argv, cwd=out, env=env,
                                        capture_output=True).returncode
    reports = sorted(str(p.relative_to(out)) for p in out.glob("*/*.json"))
    recheck = subprocess.run([sys.executable, "-m", "stabcert", "recheck", *reports],
                             cwd=out, env=env, capture_output=True, text=True)
    (out / "recheck.txt").write_text(recheck.stdout)
    (out / EXIT_CODES).write_text(json.dumps({**codes, "recheck": recheck.returncode},
                                             indent=1) + "\n")
    print(_tally(codes, recheck.returncode))
    return 0


def _tally(codes: dict, recheck) -> str:
    """One line on the jobs' exit codes and recheck's."""
    tally = collections.Counter(codes.values())
    return (f"{len(codes)} jobs, exit codes "
            + ", ".join(f"{count}x{code}" for code, count in sorted(tally.items()))
            + f"; recheck exit {recheck}")


def _hex(values) -> str:
    return struct.pack(f"<{len(values)}d", *values).hex()


class _Matrix(tuple):
    """A matrix's decoded float64 values, compared as one field."""


def _canonical(doc, pack=_hex):
    """``doc`` with each matrix document's payload replaced by ``pack`` of its
    decoded float64 values (by default their hex), the real parts alone when
    every imaginary part is zero (-0.0 included)."""
    if isinstance(doc, list):
        return [_canonical(item, pack) for item in doc]
    if not isinstance(doc, dict):
        return doc
    key = next((key for key in LAYOUTS if key in doc), None)
    if key is None or not {"rows", "cols"} <= doc.keys():
        return {name: _canonical(value, pack) for name, value in doc.items()}
    payload = doc[key]
    if isinstance(payload, str):
        raw = base64.b64decode(payload, validate=True)
        values = struct.unpack(f"<{len(raw) // 8}d", raw)
    else:
        values = [float(x) for entry in payload for x in (entry if LAYOUTS[key] == 2 else [entry])]
    kind = "complex" if LAYOUTS[key] == 2 and any(values[1::2]) else "real"
    if kind == "real":
        values = values[::LAYOUTS[key]]
    rest = {name: value for name, value in doc.items() if name != key}
    return {**rest, kind: pack(values)}


def _document(path: Path, pack=_hex):
    """A JSON report without ``timings`` and ``config.out_dir``, its
    matrices canonical."""
    doc = json.loads(path.read_bytes())
    if isinstance(doc, dict):
        doc.pop("timings", None)
        if isinstance(doc.get("config"), dict):
            doc["config"].pop("out_dir", None)
    return _canonical(doc, pack)


def _comparable(path: Path) -> bytes:
    """The bytes that must agree: a JSON file's :func:`_document`, any other
    file as it is."""
    return json.dumps(_document(path)).encode() if path.suffix == ".json" else path.read_bytes()


def _fields(a, b, path=""):
    """The dotted paths of the fields in which two documents differ; a
    matrix (a mapping with ``rows`` and ``cols``) and a list are one field."""
    if not (isinstance(a, dict) and isinstance(b, dict)) or {"rows", "cols"} <= a.keys():
        return [] if json.dumps(a) == json.dumps(b) else [path or "."]
    fields = []
    for name in sorted(a.keys() | b.keys()):
        field = f"{path}.{name}" if path else name
        fields += _fields(a[name], b[name], field) if name in a and name in b else [field]
    return fields


def _ratio(diff, scale) -> float:
    """diff / scale: 0 for no difference, inf where the quotient is not finite."""
    if diff == 0.0:
        return 0.0
    d = diff / scale
    return d if math.isfinite(d) else math.inf


def _relative(x, y) -> float:
    """|x - y| / max(|x|, |y|), 0 for two NaNs."""
    if math.isnan(x) and math.isnan(y):
        return 0.0
    return _ratio(abs(x - y), max(abs(x), abs(y)))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk(a, b, path, moved, other):
    """Put into ``moved[path]`` the largest relative difference of the numbers
    of two documents at each field, and into ``other`` each field whose
    non-numeric parts differ; a list's items belong to the list's field."""
    if isinstance(a, _Matrix) and isinstance(b, _Matrix) and len(a) == len(b):
        d = _ratio(max((abs(x - y) for x, y in zip(a, b)), default=0.0),
                   max(map(abs, a + b), default=0.0))
        moved[path] = max(moved.get(path, 0.0), d)
    elif _is_number(a) and _is_number(b):
        moved[path] = max(moved.get(path, 0.0), _relative(a, b))
    elif isinstance(a, dict) and isinstance(b, dict):
        for name in sorted(a.keys() | b.keys()):
            field = f"{path}.{name}" if path else name
            if name in a and name in b:
                _walk(a[name], b[name], field, moved, other)
            elif field not in other:
                other.append(field)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _walk(x, y, path, moved, other)
    elif a != b and (path or ".") not in other:
        other.append(path or ".")


def _cells(path: Path):
    """A CSV as a document: ``{"<scan>.csv.<column>": [cells]}``, with the
    scan the last word of the file's stem (``right``, ``strip``), each cell a
    float where it reads as one, and the header as one more field."""
    rows = list(csv.reader(path.read_text().splitlines()))
    scan = path.stem.rsplit("-", 1)[-1]
    doc = {f"{scan}.csv": rows[0] if rows else []}
    for k, column in enumerate(doc[f"{scan}.csv"]):
        cells = [row[k] if k < len(row) else None for row in rows[1:]]
        doc[f"{scan}.csv.{column}"] = [_float_or_text(cell) for cell in cells]
    return doc


def _float_or_text(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return cell


def _numeric_document(root: Path, rel: Path):
    """A job file as :func:`_walk` reads it; None for a file compared byte for byte."""
    if len(rel.parts) < 2 or rel.suffix not in (".json", ".csv"):
        return None
    if rel.suffix == ".csv":
        return _cells(root / rel)
    return _document(root / rel, pack=_Matrix)


def compare(a: Path, b: Path, numeric: bool = False) -> int:
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    common = files[0] & files[1]
    differ = {rel: [] for rel in sorted(files[0] ^ files[1])}  # path -> fields that differ
    changed = sorted(rel for rel in common if _comparable(a / rel) != _comparable(b / rel))
    moved = collections.defaultdict(list)  # field -> relative difference per file moved
    moved_files = 0
    for rel in changed:
        docs = [_numeric_document(root, rel) for root in (a, b)] if numeric else [None]
        if docs[0] is None:
            differ[rel] = (_fields(_document(a / rel), _document(b / rel))
                           if rel.suffix == ".json" else [])
            continue
        fields, other = {}, []
        _walk(*docs, "", fields, other)
        for field, d in fields.items():
            if d:
                moved[field].append(d)
        moved_files += any(fields.values())
        if other:
            differ[rel] = other
    for rel, fields in differ.items():
        print(f"differs: {rel}")
        for field in fields:
            print(f"  {field}")
    if moved:
        width = max(map(len, moved))
        print(f"{'moved field':<{width}}  max rel diff  files")
        for field, diffs in sorted(moved.items()):
            print(f"{field:<{width}}  {max(diffs):12.3e}  {len(diffs):5d}")
    if differ:
        return 1
    codes = json.loads((a / EXIT_CODES).read_text()) if (a / EXIT_CODES).is_file() else {}
    recheck = codes.pop("recheck", None)
    moves = f", {moved_files} with moved numbers" if numeric else ""
    print(f"{'same verdicts' if numeric else 'identical'}: {len(files[0])} files{moves}, "
          f"{_tally(codes, recheck)}")
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
    p.add_argument("--numeric", action="store_true",
                   help="let numbers move; list each moved field's largest relative difference")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.src, args.out, args.sizes)
    return compare(args.a, args.b, args.numeric)


if __name__ == "__main__":
    sys.exit(main())
