"""Command-line front door: certifications, scans, studies, and
machine-readable reports.

Exit codes are a contract: 0 means certified / pass, 2 means refuted or
failed by mathematics, 1 means inconclusive or an operational error (I/O,
dimensions, bad flags, precision).  Every report embeds the matrices it
talks about (generator, candidate, witnesses) so ``recheck`` can
re-validate the verdict from the report alone, and all flags are echoed
with their defaults so a report fully determines its own reproduction.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .lyapunov import (
    CERTIFICATE_HORIZON,
    CERTIFICATE_POINTS,
    CERTIFICATE_SLACK,
    DEFAULT_MEMBERSHIP_TOL,
    LyapunovCandidate,
    certificate,
    check_quadrature,
    construct_q0,
    membership_margin,
    refute_stability,
    solve_algebraic,
)
from .models import (
    ModelSpec,
    build_model,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    save_matrix,
    write_atomic,
)
from .numkernel import KernelPrecisionError, expm, singular_extremes
from .perturb import (RadiusExceededError, max_alpha, perturbation_holds, random_trials,
                      verify_perturbation)
from .resolvent import (
    DEFAULT_SCAN_TOL,
    MAX_GRID_POINTS,
    check_left_strip,
    check_right_grid,
    export_scan_csv,
    resolvent_norm,
    verify_bound_left_strip,
    verify_bound_right,
)
from .semigroup import (
    WITNESS_SLACK,
    EnvelopeFit,
    UnstableGeneratorError,
    envelope_witness_search,
    left_invertibility_witness,
    lower_envelope,
    refutation_slack,
    spectral_bound,
    stability_gate,
)
from .space import NormModel, RieszMap, op_norm

__all__ = ["main", "entrypoint"]

_WITNESS_RESIDUAL_TOL = 1e-6
_RECHECK_REL_TOL = 1e-9
_STRONG_POSITIVITY_SLACK = 1e-8
_TRIALS_ALPHA = 2.0  # the alpha of --random-trials without --alpha

# The exit code of every verdict a report can carry.  Operational errors
# never reach a report: ``main`` turns them into exit 1.
_EXIT_CODES = {
    "certified": 0, "not_refuted": 0, "pass": 0,
    "inconclusive": 1,
    "refuted": 2, "fail": 2, "rejected": 2,
}


def _perturbation_passes(report: dict) -> bool:
    """The one B, or every random trial, keeps the guarantee.  The worst
    trial decides all: each rescaled margin is k margin_after."""
    p = report["perturbation"]
    w = "worst_" if "trials" in p else ""
    return (perturbation_holds(p[w + "margin_after"], p[w + "rescaled_member"],
                                report["config"]["tol"])
            and p.get("passes") == p.get("trials"))  # None == None for one B


def _left_invertible(report: dict) -> bool:
    """theta >= c^2 / (2 alpha) holds and the witness meets e^{-rate t0}."""
    sp = report["strong_positivity"]
    w = sp["witness"]
    return sp["inequality_ok"] and w is not None and (
        w["m0"] >= math.exp(-sp["witness_rate"] * w["t0"]) * (1.0 - WITNESS_SLACK))


# The one verdict rule of each command, read off the report blocks: the
# first verdict whose test holds, where None always holds.  The command
# applies it to the blocks it writes and ``recheck`` to the blocks it has
# recomputed, so the two agree by construction.  A command writes only the
# verdicts of its rule and ``refuted``: a ``witness`` block (an eigenvalue
# with nonnegative real part) refutes every command.
_RULES = {
    "certify": (("certified", lambda r: "certificate" in r and r["certificate"]["member"]
                 and r["certificate"]["grid_pass"]), ("inconclusive", None)),
    "refute": (("not_refuted", None),),
    "q0": (("pass", lambda r: r["q0"]["member"]), ("inconclusive", None)),
    "resolvent": (("pass", lambda r: r["scans"]["right"]["pass"] and r["scans"]["strip"]["pass"]),
                  ("fail", None)),
    "perturb": (("rejected", lambda r: "excess" in r["perturbation"]),
                ("pass", _perturbation_passes), ("fail", None)),
    "leftinv": (("pass", _left_invertible), ("fail", None)),
}


def _verdict(report: dict) -> str:
    if "witness" in report:
        return "refuted"
    return next(verdict for verdict, holds in _RULES[report["command"]]
                if holds is None or holds(report))


class _CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -0.5+1i is a number, not a flag (argparse in
        # Python 3.13 reads every "-digit" argument this way)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # usage problems are operational errors (exit 1)
        raise _CliUsageError(message)


@functools.cache
def _common() -> _Parser:
    """The flags every subcommand but ``recheck`` shares: the input, the norm
    and the output.  A math subcommand's other flags are its flag echo."""
    p = _Parser(add_help=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=["heat", "upwind", "jordan", "random-stable"])
    source.add_argument("--file", help="matrix JSON file with the generator")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.5, help="random-stable decay margin")
    p.add_argument("--length", type=float, default=1.0, help="heat family domain length")
    p.add_argument("--speed", type=float, default=1.0, help="upwind family wave speed")
    p.add_argument("--h", type=float, default=1.0, help="upwind family cell size")
    p.add_argument("--lambda", dest="lam", type=_parse_complex, default="-1",
                   help="jordan family eigenvalue, a+bi")
    p.add_argument("--norm-file", help="matrix JSON file with the SPD norm weight W")
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_MEMBERSHIP_TOL)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--out", help="report filename (default derived from the input)")
    return p


def build_parser() -> _Parser:
    parser = _Parser(prog="stabcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stabcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[_common()])

    p = command("certify", help="full pipeline: refute or certify with envelope")
    p.set_defaults(func=cmd_certify)

    p = command("refute", help="search for a nonnegative-real-part eigenpair")
    p.set_defaults(func=cmd_refute)

    p = command("q0", help="quadrature member, compared against the algebraic solve")
    p.add_argument("--riesz", help="matrix JSON file with the SPD map P (default: W)")
    p.add_argument("--tmax", type=float, help="quadrature horizon (default: certified)")
    p.add_argument("--panels", type=int, help="quadrature panels (default: stiffness-based)")
    p.set_defaults(func=cmd_q0)

    p = command("resolvent", help="verify right half-plane and left-strip bounds")
    p.add_argument("--delta0", default="auto", help="strip offset (number or 'auto')")
    p.add_argument("--omega-max", type=float, help="imaginary-axis extent (default 10|A|)")
    p.add_argument("--n-axis", type=int, default=129)
    p.add_argument("--n-interior", type=int, default=16)
    p.add_argument("--n-grid", type=int, default=24, help="strip points per axis")
    p.set_defaults(func=cmd_resolvent)

    p = command("perturb", help="verify the bounded-perturbation guarantee")
    p.add_argument("--alpha", type=_finite_float, help="guarantee parameter (> 1)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--b-file", help="matrix JSON file with the perturbation B")
    mode.add_argument("--random-trials", type=int, help="seeded trials at the radius")
    p.set_defaults(func=cmd_perturb)

    p = command("leftinv", help="envelope fit, strong positivity, and the witness")
    p.add_argument("--t-grid", help="start,stop,count for a log-spaced sample grid")
    p.set_defaults(func=cmd_leftinv)

    p = command("gen", help="write a family matrix as matrix JSON")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("recheck", help="re-validate reports from their embedded data")
    p.add_argument("reports", nargs="+")
    p.set_defaults(func=cmd_recheck)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` reuses: building one costs milliseconds, parsing
    leaves it unchanged."""
    return build_parser()


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _finite_float(text: str) -> float:
    """A finite number: a --tol or --alpha of inf or nan would make its check vacuous."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _spec_from_args(args) -> ModelSpec:
    if args.file is not None:
        return ModelSpec(family="file", params={"path": args.file})
    if args.family == "heat":
        params = {"length": args.length}
    elif args.family == "upwind":
        params = {"speed": args.speed, "h": args.h}
    elif args.family == "jordan":
        params = {"lambda": args.lam}
    else:
        params = {"margin": args.margin}
    return ModelSpec(family=args.family, n=args.n, params=params, seed=args.seed)


def _tag(spec: ModelSpec) -> str:
    if spec.family == "file":
        stem = os.path.splitext(os.path.basename(spec.params["path"]))[0]
        return f"file-{stem}"
    tag = f"{spec.family}-n{spec.n}"
    if spec.family == "random-stable":
        tag += f"-s{spec.seed}"
    return tag


def _input_block(spec: ModelSpec) -> dict:
    if spec.family == "file":
        return {"kind": "file", "path": spec.params["path"]}
    params = {
        k: ([v.real, v.imag] if isinstance(v, complex) else float(v))
        for k, v in spec.params.items()
    }
    return {"kind": "family", "family": spec.family, "n": spec.n,
            "params": params, "seed": spec.seed}


def _candidate_fields(cand: LyapunovCandidate) -> dict:
    """The fields of a candidate block that ``recheck`` recomputes from Q."""
    return {
        "margin": float(cand.margin),
        "q_norm": float(cand.q_norm),
        "theta": float(cand.theta),
        "member": bool(cand.is_member),
    }


def _candidate_block(cand: LyapunovCandidate) -> dict:
    return {"q": matrix_to_json_dict(cand.q), **_candidate_fields(cand), "tol": float(cand.tol)}


def _certificate_fields(cand: LyapunovCandidate, worst_ratio: float) -> dict:
    """A member's certificate fields given the grid's worst ratio; the
    grid's last point is t_max exactly (``np.linspace`` sets it to stop)."""
    return {"epsilon": float(cand.decay_rate), "M": float(cand.envelope(0.0)),
            "grid_pass": bool(worst_ratio <= 1.0 + CERTIFICATE_SLACK),
            "worst_ratio": float(worst_ratio),
            "grid": {"points": CERTIFICATE_POINTS,
                     "t_max": float(CERTIFICATE_HORIZON / cand.decay_rate)}}


def _scan_fields(cand: LyapunovCandidate, edge: float, worst_ratio: float) -> dict:
    """A scan's bound at its right edge Re lambda = edge, worst ratio and pass rule."""
    return {"bound": float(cand.resolvent_bound(edge)), "worst_ratio": float(worst_ratio),
            "pass": bool(worst_ratio <= 1.0 + DEFAULT_SCAN_TOL)}


def _strong_positivity_fields(cand: LyapunovCandidate, fit: EnvelopeFit) -> dict:
    """theta against the envelope's c^2 / (2 alpha), and the witness rate
    |W| / (2 theta), where |W| = 1 as a map X -> X*: the whitened W is I."""
    bound = fit.c ** 2 / (2.0 * fit.alpha) if fit.alpha > 0.0 else 0.0
    return {"theta": float(cand.theta), "envelope_bound": float(bound),
            "inequality_ok": bool(cand.theta >= bound - _STRONG_POSITIVITY_SLACK),
            "witness_rate": float(1.0 / (2.0 * cand.theta))}


def _one_b(cand: LyapunovCandidate, b: np.ndarray, alpha: float | None) -> tuple[dict, str | None]:
    """The blocks of the guarantee for one B, and an excess's message: for alpha
    None the ``max_alpha`` block, whose alpha is used (None if there is none),
    then the perturbation fields, or B's excess over the radius."""
    blocks = {}
    try:
        if alpha is None:
            best = max_alpha(cand, b)
            blocks["max_alpha"] = {"alpha": float(best.alpha), "decay": float(best.decay)}
            alpha = blocks["max_alpha"]["alpha"]
        rep = verify_perturbation(cand, b, alpha)
    except RadiusExceededError as exc:
        blocks["perturbation"] = {"alpha": alpha, "excess": float(exc.excess)}
        return blocks, str(exc)
    blocks["perturbation"] = {
        "alpha": float(alpha), "radius": float(rep.radius), "b_norm": float(rep.b_norm),
        "margin_after": float(rep.margin_after), "rescaled_member": bool(rep.rescaled_member),
        "rescaled_margin": float(rep.rescaled_margin)}
    return blocks, None


def _witness_fields(a: np.ndarray, lam: complex, v: np.ndarray) -> dict:
    """The field of a witness block that ``recheck`` recomputes from the eigenpair."""
    return {"residual": float(np.linalg.norm(a @ v - lam * v))}


class _Job:
    """The frame of one math subcommand: the generator, the norm model, the
    report skeleton with the flag echo, and the one way out (``finish``)."""

    def __init__(self, args):
        self.started = time.perf_counter()
        self.args = args
        self.spec = _spec_from_args(args)
        self.a = build_model(self.spec)
        n = self.a.shape[0]
        if args.norm_file:
            w = load_matrix(args.norm_file)
            self.nm = NormModel.from_weight(w)
            descriptor = {"kind": "file", "path": args.norm_file,
                          "w": matrix_to_json_dict(self.nm.w)}
        else:
            self.nm = NormModel.identity(n)
            descriptor = {"kind": "identity", "n": n}
        if self.nm.n != n:
            raise ValueError(f"norm weight is {self.nm.n}x{self.nm.n} but the generator is {n}x{n}")
        shared = {"command", "func", *(action.dest for action in _common()._actions)}
        own = {k: v for k, v in vars(args).items() if k not in shared}
        self.config = {"tol": args.tol, "out_dir": args.out_dir,
                       "norm_file": args.norm_file, **own}
        self.report = {
            "tool": {"name": "stabcert", "version": __version__},
            "command": args.command,
            "input": _input_block(self.spec),
            "norm_model": descriptor,
            "config": self.config,
            "generator": matrix_to_json_dict(self.a),
        }

    def candidate(self) -> LyapunovCandidate:
        """The algebraic solution of A* Q + Q A = -W with its membership margin."""
        q = solve_algebraic(self.a, self.nm.w)
        return membership_margin(q, self.a, self.nm, tol=self.args.tol)

    def finish(self, **blocks) -> int:
        """Write the report atomically under the verdict its command's rule
        gives the blocks; the verdict alone fixes the exit code."""
        report = {**self.report, **blocks}
        verdict = report["verdict"] = _verdict(report)
        report["timings"] = {"total_s": time.perf_counter() - self.started}
        path = _out_path(self.args, self.args.out or f"{report['command']}-{_tag(self.spec)}.json")
        write_atomic(path, json.dumps(report, separators=(",", ":")) + "\n")
        print(f"{verdict}: report written to {path}")
        return _EXIT_CODES[verdict]


def _out_path(args, name: str) -> str:
    """The path of the output ``name`` under --out-dir, which is made on demand."""
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_certify(job: _Job) -> int:
    cand = job.candidate()
    if not cand.is_member:
        return job.finish(candidate=_candidate_block(cand))
    cert = certificate(cand)
    block = {**_candidate_block(cand), **_certificate_fields(cand, cert.worst_ratio)}
    block["grid"].update(worst_t=cert.worst_t, evaluated=cert.evaluated)
    if block["grid_pass"]:
        print(f"epsilon={block['epsilon']:.6e} M={block['M']:.6e} "
              f"|Q|={cand.q_norm:.6e} theta={cand.theta:.6e}")
    return job.finish(certificate=block)


def cmd_refute(job: _Job) -> int:
    return job.finish(spectral_bound=float(np.max(stability_gate(job.a).real)))


def cmd_q0(job: _Job) -> int:
    a, nm, args = job.a, job.nm, job.args
    check_quadrature(args.tmax, args.panels)
    if args.riesz:  # reading and validating P can fail: refute before it
        stability_gate(a)
    riesz = RieszMap.from_matrix(load_matrix(args.riesz) if args.riesz else nm.w, nm)
    cand = construct_q0(a, riesz, nm, t_max=args.tmax, panels=args.panels, tol=args.tol)
    block = {**_candidate_block(cand), "theta_riesz": float(riesz.theta)}
    if not args.riesz:
        q_alg = solve_algebraic(a, nm.w)
        gap = float(
            np.linalg.norm(cand.q - q_alg, "fro") / np.linalg.norm(q_alg, "fro")
        )
        block["algebraic_gap"] = gap
        print(f"relative Frobenius gap against the algebraic solve: {gap:.3e}")
    return job.finish(q0=block)


def cmd_resolvent(job: _Job) -> int:
    args = job.args
    try:
        delta0 = None if args.delta0 == "auto" else float(args.delta0)
    except ValueError as exc:
        raise _CliUsageError(f"--delta0 expects a number or 'auto': {exc}") from exc
    # every argument check of both scans comes before the Lyapunov solve
    check_left_strip(delta0, args.n_grid)
    check_right_grid(args.omega_max, args.n_axis, args.n_interior)
    cand = job.candidate()
    strip = verify_bound_left_strip(cand, delta0, n_grid=args.n_grid)
    job.config["delta0"] = strip.delta0
    right = verify_bound_right(cand, omega_max=args.omega_max,
                               n_axis=args.n_axis, n_interior=args.n_interior)

    def scan_block(scan, region, edge):
        csv_name = f"resolvent-{_tag(job.spec)}-{region}.csv"
        export_scan_csv(scan, _out_path(args, csv_name))
        return {"kind": scan.kind, **_scan_fields(cand, edge, scan.worst_ratio),
                "argmax": [float(scan.argmax.real), float(scan.argmax.imag)],
                "points": len(scan.grid), "evaluated": scan.evaluated,
                "tol": DEFAULT_SCAN_TOL, "csv": csv_name}

    scans = {
        "right": {**scan_block(right, "right", 0.0), "proof_slack": right.proof_slack,
                  "tail_ratio": right.tail_ratio if math.isfinite(right.tail_ratio) else None},
        "strip": {**scan_block(strip, "strip", -strip.delta0), "delta0": float(strip.delta0)},
    }
    print(f"right worst_ratio={right.worst_ratio:.9f} "
          f"strip worst_ratio={strip.worst_ratio:.9f}")
    return job.finish(candidate=_candidate_block(cand), scans=scans)


def cmd_perturb(job: _Job) -> int:
    args = job.args
    if args.random_trials is not None and args.random_trials <= 0:
        raise _CliUsageError("--random-trials must be a positive integer")
    if args.alpha is not None and not args.alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {args.alpha}")
    cand = job.candidate()
    job.report["candidate"] = _candidate_block(cand)

    if args.b_file is not None:
        b = load_matrix(args.b_file)
        blocks, detail = _one_b(cand, b, args.alpha)
        p = blocks["perturbation"]
        blocks["perturbation"] = {"alpha": p["alpha"], "b": matrix_to_json_dict(b), **p}
        if detail is not None:
            blocks["perturbation"]["detail"] = detail
        return job.finish(**blocks)

    alpha = args.alpha if args.alpha is not None else _TRIALS_ALPHA
    rep = random_trials(cand, alpha, args.random_trials, args.seed)
    print(f"perturbation trials passed: {rep.passes}/{args.random_trials}")
    return job.finish(perturbation={
        "alpha": float(alpha),
        "trials": args.random_trials,
        "passes": rep.passes,
        "radius": float(rep.radius),
        "worst_trial": rep.worst_trial,
        "worst_margin_after": float(rep.worst_margin_after),
        "worst_b": matrix_to_json_dict(rep.worst_b),
        "worst_rescaled_member": bool(rep.worst_rescaled_member),
    })


def cmd_leftinv(job: _Job) -> int:
    a, nm, args = job.a, job.nm, job.args
    t_grid = None
    if args.t_grid:
        try:
            start, stop, count = args.t_grid.split(",")
            start, stop, count = float(start), float(stop), int(count)
            if not 0.0 < start < stop < math.inf:
                raise ValueError(f"need 0 < start < stop < inf, got {start!r} and {stop!r}")
            if count < 2:
                raise ValueError(f"count {count} is below 2")
            if count > MAX_GRID_POINTS:  # before the grid is allocated
                raise ValueError(f"count {count} exceeds {MAX_GRID_POINTS} grid points")
            t_grid = np.logspace(math.log10(start), math.log10(stop), count)
        except ValueError as exc:
            raise _CliUsageError(f"--t-grid expects start,stop,count: {exc}") from exc
    cand = job.candidate()
    fit = lower_envelope(a, nm, t_grid)
    sp = _strong_positivity_fields(cand, fit)
    t0 = envelope_witness_search(fit, sp["witness_rate"])
    print(f"c={fit.c:.6e} alpha={fit.alpha:.6e} theta={cand.theta:.6e} "
          f"c^2/(2 alpha)={sp['envelope_bound']:.6e}")
    return job.finish(
        candidate=_candidate_block(cand),
        envelope={
            "c": float(fit.c),
            "alpha": float(fit.alpha),
            "samples": [[float(t), float(m)] for t, m in fit.grid],
        },
        strong_positivity={
            **sp, "witness": None if t0 is None else {"t0": float(t0[0]), "m0": float(t0[1])},
        },
    )


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    a = build_model(spec)
    path = _out_path(args, args.out or f"{_tag(spec)}.json")
    save_matrix(path, a)
    print(f"matrix written to {path}")
    return 0


def _agrees(recomputed, reported) -> bool:
    """Booleans and absent fields (None) exactly, numbers within _RECHECK_REL_TOL."""
    if recomputed is None or reported is None or isinstance(recomputed, bool):
        return recomputed == reported
    return recomputed == reported or abs(recomputed - reported) <= _RECHECK_REL_TOL * max(
        abs(recomputed), abs(reported), 1.0)


def _dotted(derived: dict, reported, prefix: str = "") -> dict:
    """Each recomputed field, a value that is not a dict, under its dotted name
    as the pair (recomputed, reported), where an absent field reads as None."""
    flat = {}
    for key, value in derived.items():
        got = reported.get(key) if isinstance(reported, dict) else None
        if isinstance(value, dict):
            flat.update(_dotted(value, got, f"{prefix}{key}."))
        else:
            flat[prefix + key] = (value, got)
    return flat


def _recheck_one(path: str) -> tuple[str | None, list, list]:
    """Recompute one report's fields from its embedded data, compare them by
    name and apply its command's rule: (verdict, compared names, problems)."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    command = report.get("command")
    a = matrix_from_json_dict(report["generator"])
    norm = report.get("norm_model", {})
    if norm.get("kind") == "file":
        nm = NormModel.from_weight(matrix_from_json_dict(norm["w"]))
    else:
        nm = NormModel.identity(a.shape[0])
    tol = float(report.get("config", {}).get("tol", DEFAULT_MEMBERSHIP_TOL))
    if not math.isfinite(tol):
        return None, [], [f"config.tol {tol!r} is not finite: every check it bounds is vacuous"]
    verdict = report.get("verdict")
    if command not in _RULES or verdict not in {"refuted", *dict(_RULES[command])}:
        return None, [], [f"verdict {verdict!r} is not one that {command!r} writes"]
    # the recomputed blocks, nested and in order as in the report
    problems, derived, slack = [], {}, refutation_slack(a)

    if "witness" in report:
        lam = complex(*report["witness"]["eigenvalue"])
        v = matrix_from_json_dict(report["witness"]["vector"]).reshape(-1)
        derived["witness"] = _witness_fields(a, lam, v)
        residual = derived["witness"]["residual"]
        scale = _WITNESS_RESIDUAL_TOL * (1.0 + singular_extremes(a)[0]) * np.linalg.norm(v)
        if lam.real < -slack or residual > scale:
            problems.append(f"witness fails: real part {lam.real!r}, residual {residual!r} "
                            f"(at most {scale!r})")
    elif (witness := refute_stability(a)) is not None:  # the rule every verdict rests on
        return None, [], [f"eigenvalue {witness.eigenvalue!r} has real part >= "
                          f"-{slack:g}, but the report carries no witness"]
    elif command == "refute":
        derived = {"witness": None, "spectral_bound": spectral_bound(a)}
    else:
        name = next((key for key in ("certificate", "q0") if key in report), "candidate")
        try:
            qq = matrix_from_json_dict(report[name]["q"])
            # a Q with Im Q = 0 reads as float64; the job's Q had the dtype of A and W
            cand = membership_margin(qq.astype(np.result_type(qq, a, nm.w)), a, nm, tol=tol)
        except ValueError as exc:
            return None, [], [f"embedded candidate invalid ({exc})"]
        derived[name] = _candidate_fields(cand)
        if command == "certify" and name == "certificate" and cand.is_member:
            t = report["certificate"]["grid"]["worst_t"]
            derived[name].update(_certificate_fields(
                cand, op_norm(expm(a, t), nm) / cand.envelope(t)))
        elif command == "resolvent":
            scans = report["scans"]
            derived["scans"] = {}
            for kind, edge in (("right", 0.0), ("strip", -scans["strip"]["delta0"])):
                lam = complex(*scans[kind]["argmax"])
                # the pointwise bound at the argmax; the right scan's 2|Q| is
                # the strip's at Re lambda = 0
                ratio = resolvent_norm(a, lam, nm) / cand.resolvent_bound(lam.real)
                derived["scans"][kind] = _scan_fields(cand, edge, ratio)
        elif command == "perturb":
            block = report["perturbation"]
            w = "worst_" if "trials" in block else ""
            alpha = report["config"]["alpha"]  # on a --b-file, None: max_alpha ran
            blocks, _ = _one_b(cand, matrix_from_json_dict(block[w + "b"]),
                               _TRIALS_ALPHA if w and alpha is None else alpha)
            p = blocks["perturbation"]
            if w:  # the worst trial: its margin and member as worst_, no |B| or rescaling
                p = {(w + key if key in ("margin_after", "rescaled_member") else key): value
                     for key, value in p.items() if key not in ("b_norm", "rescaled_margin")}
            derived.update({"max_alpha": None, **blocks,
                            "perturbation": {**p, "excess": p.get("excess")}})
        elif command == "leftinv":
            env, sp = report["envelope"], report["strong_positivity"]
            fit = EnvelopeFit(c=env["c"], alpha=env["alpha"], grid=env["samples"])
            low = [(t, m) for t, m in fit.grid
                   if m < fit.c * math.exp(-fit.alpha * t) * (1 - 1e-12)]
            if low:
                problems.append(f"envelope violated at t={low[0][0]!r}: m={low[0][1]!r}")
            own = derived["strong_positivity"] = _strong_positivity_fields(cand, fit)
            if sp["witness"] is None:  # none reported: search the samples for one
                own["witness"] = envelope_witness_search(fit, own["witness_rate"])
            else:
                own["witness"] = {"m0": left_invertibility_witness(a, nm, sp["witness"]["t0"])}

    fields = _dotted(derived, report)
    for name, (value, reported) in fields.items():
        if not _agrees(value, reported):
            problems.append(f"{name}: recomputed {value!r} vs reported {reported!r}")
    rule = _verdict(report)
    if rule != verdict:
        problems.append(f"verdict {verdict!r}, but the embedded data give {rule!r}")
    return rule, list(fields), problems


def cmd_recheck(args) -> int:
    failures = 0
    broken = 0
    for path in args.reports:
        try:
            derived, compared, problems = _recheck_one(path)
        except (LookupError, AttributeError, TypeError, ValueError, ArithmeticError,
                OSError) as exc:
            broken += 1
            print(f"{path}: not a readable report ({exc})")
            continue
        if problems:
            failures += 1
            print(f"{path}: FAIL")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{path}: ok ({derived}): {' '.join(compared)}")
    if failures:
        return 2
    return 1 if broken else 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command not in _RULES:  # gen and recheck write no verdict
            return args.func(args)
        job = _Job(args)
        try:
            return args.func(job)
        except UnstableGeneratorError as exc:
            # the first stability gate the job reached refutes it
            lam, v = exc.witness
            return job.finish(witness={"eigenvalue": [float(lam.real), float(lam.imag)],
                                       "vector": matrix_to_json_dict(v),
                                       **_witness_fields(job.a, lam, v)})
    except _CliUsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KernelPrecisionError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
