import base64
import fnmatch
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import stabcert.numkernel
import stabcert.resolvent

from stabcert.cli import _EXIT_CODES, _RULES, _recheck_one, _verdict, main
from stabcert.lyapunov import membership_margin, solve_algebraic
from stabcert.models import (
    SplitMix64,
    heat_dirichlet,
    matrix_from_json_dict,
    matrix_to_json_dict,
    random_hermitian,
    random_matrix,
    random_stable,
    save_matrix,
)
from stabcert.numkernel import expm
from stabcert.perturb import admissible_radius, perturbation_holds, verify_perturbation
from stabcert.space import NormModel, op_norm


def run(args):
    return main([str(a) for a in args])


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def as_decimal(doc, layout: str) -> int:
    """Rewrite every base64 matrix document inside ``doc`` in a decimal
    layout older versions wrote: an ``f64le`` matrix as ``layout``
    (``data_real`` numbers or [x, 0.0] ``data`` pairs), a ``c128le`` matrix
    as ``data`` pairs; the count rewritten."""
    if isinstance(doc, dict) and {"f64le", "c128le"} & doc.keys():
        key = "f64le" if "f64le" in doc else "c128le"
        values = np.frombuffer(base64.b64decode(doc.pop(key)), "<f8").tolist()
        if key == "c128le":
            doc["data"] = [values[k:k + 2] for k in range(0, len(values), 2)]
        elif layout == "data_real":
            doc["data_real"] = values
        else:
            doc["data"] = [[x, 0.0] for x in values]
        return 1
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    return sum(as_decimal(child, layout) for child in children)


def count_linalg(monkeypatch, *names):
    """Count the calls of the named ``numpy.linalg`` functions from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counting(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def count_matrices(monkeypatch, *names):
    """Count the matrices the named ``numpy.linalg`` functions decompose from
    here on: one per call on a matrix, one per slice on a stack."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counting(a, *args, name=name, original=original, **kwargs):
            counts[name] += math.prod(np.shape(a)[:-2])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def count_calls(monkeypatch, kernel):
    """Count the calls of the named ``numkernel`` function from here on, in
    every ``stabcert.*`` namespace that binds it."""
    original = getattr(stabcert.numkernel, kernel)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stabcert" and getattr(module, kernel, None) is original:
            monkeypatch.setattr(module, kernel, counting)
    return calls


# hermitian_gate passes of a job on heat n=8 and of one recheck of its report:
# the candidate's Q and the algebraic solve's right-hand side W; q0 adds P
# once in each of strong_positivity_theta and dual_map_norm, and a recheck
# gates the embedded Q alone
GATE_PASSES = {"certify": (2, 1), "refute": (0, 0), "perturb": (2, 1),
               "leftinv": (2, 1), "resolvent": (2, 1), "q0": (4, 1)}


# (eig, eigvals) calls of a stable job on heat n=8: the algebraic solve gates A
# once, and that candidate's spectrum serves both resolvent scans; leftinv's
# default time grid gates A once more, and q0's decay model and its growth
# estimate take two before the algebraic solve
STABLE_EIGENSOLVES = {"certify": (0, 1), "refute": (0, 1), "perturb": (0, 1),
                      "leftinv": (0, 2), "resolvent": (0, 2), "q0": (0, 3)}


# expm calls of a q0 and a leftinv job at n = 40 (random-stable seed 3): a
# default-grid sample with |t A|_1 > theta_13 squares the sample at t/2, and
# each of q0's doubling horizon probes squares the last, so only the samples
# below theta_13, the first probe and the Gramian's six take an expm
EXPM_FAMILIES = {"heat": ["heat"], "upwind": ["upwind"], "jordan": ["jordan", "--lambda", "-1"],
                 "random-stable": ["random-stable", "--seed", "3"]}
EXPM_CALLS = {("q0", "heat"): 13, ("q0", "upwind"): 43, ("q0", "jordan"): 43,
              ("q0", "random-stable"): 32, ("leftinv", "heat"): 18, ("leftinv", "upwind"): 49,
              ("leftinv", "jordan"): 49, ("leftinv", "random-stable"): 25}


class TestCertify:
    def test_heat_certified_against_decay_grid(self, tmp_path):
        code = run(["certify", "--family", "heat", "--n", "16", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "certify-heat-n16.json")
        assert report["verdict"] == "certified"
        cert = report["certificate"]
        assert cert["epsilon"] > 0.0
        assert cert["member"] is True
        # end-to-end oracle: the envelope really dominates the norms
        a = heat_dirichlet(16, 1.0)
        nm = NormModel.identity(16)
        for t in np.linspace(0.0, 10.0 / cert["epsilon"], 40):
            bound = cert["M"] * math.exp(-cert["epsilon"] * t)
            assert op_norm(expm(a, t), nm) <= bound * (1.0 + 1e-8)

    def test_grid_reports_the_points_that_took_an_svd(self, tmp_path):
        # upwind's ratio falls off its peak, so the norm bound rules most points out
        assert run(["certify", "--family", "upwind", "--n", "16", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-upwind-n16.json"
        grid = read_report(path)["certificate"]["grid"]
        assert grid["points"] == 200
        assert 1 <= grid["evaluated"] < 20
        assert run(["recheck", path]) == 0

    def test_jordan_unstable_refuted(self, tmp_path):
        code = run(["certify", "--family", "jordan", "--n", "3", "--lambda", "1",
                    "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "certify-jordan-n3.json")
        assert report["verdict"] == "refuted"
        lam = report["witness"]["eigenvalue"]
        assert lam[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("lam", ["-0.5+1i", "-0.5+0.3i", "-0.5+3i"])
    def test_complex_jordan_block_solves_like_the_real_one(self, tmp_path, lam):
        # the real block -0.5 passes at n = 24; the imaginary shift solves the same equation
        assert run(["certify", "--family", "jordan", f"--lambda={lam}", "--n", "24",
                    "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "certify-jordan-n24.json"]) == 0

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        code = run(["certify", "--file", tmp_path / "notamatrix.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unparseable_file_is_operational_error(self, tmp_path, capsys):
        path = tmp_path / "notamatrix.json"
        path.write_text("{broken")
        code = run(["certify", "--file", path])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_integer_beyond_the_float_range_is_operational_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400))
        assert run(["certify", "--file", path, "--out-dir", tmp_path]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_solution_beyond_the_float_range_is_named(self, tmp_path, capsys):
        # Q = 1/(2 |a|) = 2.5e308 overflows
        save_matrix(tmp_path / "a.json", np.array([[-2e-309]]))
        assert run(["certify", "--file", tmp_path / "a.json", "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: Lyapunov solution overflows float64: |Q| is not representable\n")

    def test_a_residual_failure_names_the_size_of_q(self, tmp_path, capsys):
        # |Q| of the jordan block grows like 2^(2n) and passes 1/eps at n = 32
        assert run(["certify", "--family", "jordan", "--lambda=-0.5", "--n", "32",
                    "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Lyapunov residual ")
        q_norm = float(err.split("|Q| = ")[1].split()[0])
        assert q_norm > 1.0 / np.finfo(float).eps

    def test_family_and_file_conflict(self, capsys):
        code = run(["certify", "--family", "heat", "--file", "x.json"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err


class TestQ0:
    def test_heat_gap(self, tmp_path):
        code = run(["q0", "--family", "heat", "--n", "8", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "q0-heat-n8.json")
        assert report["q0"]["algebraic_gap"] <= 1e-6
        assert report["q0"]["member"] is True

    def test_random_stable_membership(self, tmp_path):
        code = run(["q0", "--family", "random-stable", "--n", "12", "--seed", "7",
                    "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "q0-random-stable-n12-s7.json")
        assert report["q0"]["margin"] <= report["config"]["tol"]

    def test_unstable_jordan_exit_two(self, tmp_path):
        code = run(["q0", "--family", "jordan", "--n", "3", "--lambda", "0.5",
                    "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "q0-jordan-n3.json")
        assert report["verdict"] == "refuted"

    @pytest.mark.parametrize("family", [
        ["--family", "upwind", "--n", "8"],
        ["--family", "jordan", "--n", "3", "--lambda", "1"],
        ["--family", "jordan", "--n", "3", "--lambda", "1", "--riesz", "p.json"],
    ], ids=["upwind", "jordan-unstable", "jordan-unstable-riesz"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--panels", "0", "panels must be >= 1, got 0"),
        ("--tmax", "-1", "t_max must be positive and finite, got -1.0"),
    ], ids=["panels", "tmax"])
    def test_explicit_quadrature_flags_are_checked_before_the_decay_model(
            self, tmp_path, capsys, monkeypatch, family, flag, value, message):
        """With or without --riesz, a bad --tmax or --panels exits 1 before
        the stability gate, so an unstable generator writes no report."""
        def no_expm(*args):
            raise AssertionError("expm called before the quadrature flags were checked")

        monkeypatch.chdir(tmp_path)
        save_matrix("p.json", np.eye(3, dtype=complex))
        for module in ("semigroup", "lyapunov"):
            monkeypatch.setattr(f"stabcert.{module}.expm", no_expm)
        counts = count_linalg(monkeypatch, "eig", "eigvals", "eigh", "eigvalsh", "svd", "inv",
                              "solve", "slogdet", "norm")
        assert run(["q0", *family, flag, value, "--out-dir", "out"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert not any(counts.values())


B_BEYOND_RADIUS = "b-beyond-radius.json"


class TestExitCodeTable:
    @pytest.mark.parametrize("argv, report, verdict, code", [
        (["certify", "--family", "heat", "--n", "4"], "certify-heat-n4",
         "certified", 0),
        (["refute", "--family", "heat", "--n", "4"], "refute-heat-n4",
         "not_refuted", 0),
        (["certify", "--family", "heat", "--n", "4", "--tol", "-1"], "certify-heat-n4",
         "inconclusive", 1),
        (["q0", "--family", "heat", "--n", "4", "--panels", "1"], "q0-heat-n4",
         "inconclusive", 1),
        (["certify", "--family", "jordan", "--n", "3", "--lambda", "1"], "certify-jordan-n3",
         "refuted", 2),
        (["leftinv", "--family", "upwind", "--n", "8", "--t-grid", "0.001,0.002,8"],
         "leftinv-upwind-n8", "fail", 2),
        (["perturb", "--family", "heat", "--n", "8", "--b-file", B_BEYOND_RADIUS,
          "--alpha", "2"], "perturb-heat-n8", "rejected", 2),
    ], ids=["certified", "not_refuted", "inconclusive-certify", "inconclusive-q0",
            "refuted", "fail", "rejected"])
    def test_each_verdict_exits_with_its_code_and_rechecks(self, tmp_path, monkeypatch,
                                                           argv, report, verdict, code):
        monkeypatch.chdir(tmp_path)
        save_matrix(B_BEYOND_RADIUS, 50.0 * np.eye(8, dtype=complex))
        assert run([*argv, "--out-dir", tmp_path]) == code
        path = tmp_path / f"{report}.json"
        assert read_report(path)["verdict"] == verdict
        assert _verdict(read_report(path)) == verdict
        assert run(["recheck", path]) == 0


# flag values that exit 1 on jordan(+1) and jordan(-1) at n = 3 alike
FLAG_ERRORS = [
    ("perturb", []),
    ("perturb", ["--random-trials", "2", "--alpha", "nan"]),
    ("q0", ["--tmax", "nan"]),
    *[("resolvent", flags) for flags in (["--n-grid", "0"], ["--n-grid", "100000"],
                                         ["--delta0", "0"], ["--delta0=-1"], ["--delta0", "nan"],
                                         ["--n-axis", "0"], ["--omega-max", "nan"])],
    *[("leftinv", ["--t-grid", grid]) for grid in ("1,2", "2,1,8", "1,1,8", "0.1,1,0",
                                                    "0.1,1,1", "0.1,inf,8")],
]


class TestRefutationContract:
    @pytest.mark.parametrize("command", ["resolvent", "perturb", "leftinv", "certify",
                                         "refute", "q0"])
    def test_unstable_input_is_refuted_with_exit_two(self, tmp_path, command):
        extra = ["--random-trials", "4"] if command == "perturb" else []
        code = run([command, "--family", "jordan", "--n", "3", "--lambda", "1", *extra,
                    "--out-dir", tmp_path])
        assert code == 2
        path = tmp_path / f"{command}-jordan-n3.json"
        report = read_report(path)
        assert report["verdict"] == "refuted"
        assert report["witness"]["eigenvalue"][0] >= 0.0
        assert run(["recheck", path]) == 0

    @pytest.mark.parametrize("command, extra", FLAG_ERRORS,
                             ids=[" ".join([command, *extra]) for command, extra in FLAG_ERRORS])
    def test_usage_errors_come_before_refutation(self, tmp_path, capsys, command, extra):
        # every flag is checked before the stability gate: an unstable
        # generator gets the stable one's error, not a refuted report
        errors = []
        for lam in ("1", "-1"):
            code = run([command, "--family", "jordan", "--n", "3", f"--lambda={lam}", *extra,
                        "--out-dir", tmp_path])
            assert code == 1
            assert list(tmp_path.iterdir()) == []
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] != ""

    @pytest.mark.parametrize("argv", [
        ["certify", "--n", "4"],
        ["certify", "--family", "heat", "--n", "4", "--file", "a.json"],
        ["perturb", "--family", "heat", "--n", "4"],
        ["perturb", "--family", "heat", "--n", "4", "--b-file", "b.json",
         "--random-trials", "2"],
        ["certify", "--family", "heat", "--n", "4", "--lambda", "zz"],
        ["certify", "--family", "jordan", "--n", "4", "--lambda", "zz"],
        ["resolvent", "--family", "heat", "--n", "4", "--delta0", "abc"],
        ["resolvent", "--family", "jordan", "--n", "3", "--lambda", "1", "--delta0", "abc"],
        # a tolerance or alpha that is not finite would make membership or the guarantee vacuous
        ["certify", "--family", "heat", "--n", "4", "--tol", "inf"],
        ["certify", "--family", "heat", "--n", "4", "--tol", "nan"],
        ["perturb", "--family", "heat", "--n", "4", "--random-trials", "3", "--tol", "inf"],
        ["perturb", "--family", "heat", "--n", "4", "--random-trials", "3", "--alpha", "inf"],
    ], ids=["no-input", "family-and-file", "no-perturb-mode", "both-perturb-modes",
            "lambda-heat", "lambda-jordan", "delta0-heat", "delta0-jordan-unstable",
            "tol-inf", "tol-nan", "perturb-tol-inf", "perturb-alpha-inf"])
    def test_usage_grammar_is_refused_before_any_decomposition(self, tmp_path, capsys,
                                                               monkeypatch, argv):
        counts = count_linalg(monkeypatch, "eig", "eigvals", "eigh", "eigvalsh", "svd", "inv",
                              "solve", "slogdet", "norm")
        assert run([*argv, "--out-dir", tmp_path]) == 1
        assert "usage error: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        assert not any(counts.values())

    @pytest.mark.parametrize("riesz", [None, -np.eye(3, dtype=complex)],
                             ids=["missing", "negative-definite"])
    def test_q0_refutes_before_it_reads_the_riesz_map(self, tmp_path, riesz):
        path = tmp_path / "p.json"
        if riesz is not None:
            save_matrix(path, riesz)
        code = run(["q0", "--family", "jordan", "--n", "3", "--lambda", "1",
                    "--riesz", path, "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "q0-jordan-n3.json")
        assert report["verdict"] == "refuted"
        assert run(["recheck", tmp_path / "q0-jordan-n3.json"]) == 0

    @pytest.mark.parametrize("k", [-1000, -540, -200, -60, 0, 60, 200, 540, 1000])
    @pytest.mark.parametrize("family", [["heat"], ["upwind"], ["jordan", "--lambda", "-1"],
                                        ["random-stable", "--seed", "3"]],
                             ids=["heat", "upwind", "jordan", "random-stable"])
    def test_scaling_by_a_power_of_two_keeps_the_verdict(self, tmp_path, family, k):
        # 2^k A is exact and as stable as A: the refutation slack 1e-10 |A|_1
        # scales with it
        assert run(["gen", "--family", *family, "--n", "8", "--out-dir", tmp_path,
                    "--out", "a.json"]) == 0
        a = matrix_from_json_dict(read_report(tmp_path / "a.json"))
        save_matrix(tmp_path / "scaled.json", a * 2.0 ** k)
        assert run(["certify", "--file", tmp_path / "scaled.json", "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "certify-file-scaled.json"]) == 0

    @pytest.mark.parametrize("entry", [-1e300, -1e-300])
    def test_a_1x1_generator_at_either_end_of_the_range_is_certified(self, tmp_path, entry):
        # Q = 1/(2|a|) is representable, though the sign iteration on [[a]]
        # itself over- or underflows
        save_matrix(tmp_path / "a.json", np.array([[entry]]))
        assert run(["certify", "--file", tmp_path / "a.json", "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "certify-file-a.json"]) == 0

    @pytest.mark.parametrize("argv, stem, code", [
        (["--family", "heat", "--length", "1e6", "--n", "8"], "certify-heat-n8", 0),
        (["--file", "tiny.json"], "certify-file-tiny", 0),
        (["--family", "random-stable", "--margin", "1e-11", "--n", "8"],
         "certify-random-stable-n8-s0", 2),
    ], ids=["heat-length-1e6", "tiny-1x1", "gap-below-slack"])
    def test_the_slack_is_measured_against_the_scale_of_a(self, tmp_path, monkeypatch,
                                                         argv, stem, code):
        # heat's -9.8e-12 and [[-0.99e-10]] are far below 1e-10 |A|_1, while
        # random-stable's gap of 1e-11 is within 1e-10 |A|_1 = 6.4e-10 of zero
        monkeypatch.chdir(tmp_path)
        save_matrix("tiny.json", np.array([[-0.99e-10]]))
        assert run(["certify", *argv, "--out-dir", tmp_path]) == code
        assert read_report(tmp_path / f"{stem}.json")["verdict"] == (
            "certified" if code == 0 else "refuted")
        assert run(["recheck", tmp_path / f"{stem}.json"]) == 0

    @pytest.mark.parametrize("command, family, code, eigensolves", [
        *[(command, ["heat", "--n", "8"], 0, counts)
          for command, counts in STABLE_EIGENSOLVES.items()],
        *[(command, ["jordan", "--lambda", "1", "--n", "3"], 2, (1, 1))
          for command in STABLE_EIGENSOLVES],
    ], ids=[*STABLE_EIGENSOLVES, *(f"{command}-unstable" for command in STABLE_EIGENSOLVES)])
    def test_eigensolves_per_job(self, tmp_path, monkeypatch, command, family, code,
                                 eigensolves):
        # (eig, eigvals) per job.  A stable job takes no eig.  A refuted job's
        # first gate takes one eigvals and one eig for its witness, and the job
        # stops there.
        counts = count_linalg(monkeypatch, "eig", "eigvals")
        extra = ["--random-trials", "2"] if command == "perturb" else []
        assert run([command, "--family", *family, *extra, "--out-dir", tmp_path]) == code
        assert (counts["eig"], counts["eigvals"]) == eigensolves

    @pytest.mark.parametrize("command, extra", [
        *[(command, []) for command in GATE_PASSES if command != "perturb"],
        ("perturb", ["--random-trials", "2"]),
        ("perturb", ["--random-trials", "5"]),
    ], ids=[*(c for c in GATE_PASSES if c != "perturb"), "perturb-2", "perturb-5"])
    def test_gate_passes_per_job_and_recheck(self, tmp_path, monkeypatch, command, extra):
        # the gate runs where a caller hands in a matrix it claims is
        # Hermitian, never on a residual, whitened form or Gramian the package
        # built, so perturb's count does not grow with its trials
        calls = count_calls(monkeypatch, "hermitian_gate")
        assert run([command, "--family", "heat", "--n", "8", *extra,
                    "--out-dir", tmp_path]) == 0
        job = len(calls)
        assert run(["recheck", tmp_path / f"{command}-heat-n8.json"]) == 0
        assert (job, len(calls) - job) == GATE_PASSES[command]

    @pytest.mark.parametrize("weighted", [False, True], ids=["identity", "norm-file"])
    @pytest.mark.parametrize("command", list(GATE_PASSES))
    def test_eigenvectors_per_job_and_recheck(self, tmp_path, monkeypatch, command, weighted):
        # every eigensolve but NormModel.from_weight's discards the vectors,
        # so only a --norm-file job, and the recheck of its report, takes an eigh
        extra = ["--random-trials", "2"] if command == "perturb" else []
        if weighted:
            save_matrix(tmp_path / "w.json", np.diag(np.arange(1.0, 9.0)))
            extra += ["--norm-file", tmp_path / "w.json"]
        calls = count_linalg(monkeypatch, "eigh")
        assert run([command, "--family", "heat", "--n", "8", *extra,
                    "--out-dir", tmp_path]) == 0
        job = calls["eigh"]
        assert run(["recheck", tmp_path / f"{command}-heat-n8.json"]) == 0
        assert (job, calls["eigh"] - job) == ((1, 1) if weighted else (0, 0))

    @pytest.mark.parametrize("command, family", list(EXPM_CALLS),
                             ids=[f"{c}-{f}" for c, f in EXPM_CALLS])
    def test_expm_calls_per_job(self, tmp_path, monkeypatch, command, family):
        # Pade approximants per job, one per time: each ``expm`` call and each
        # grid point that cannot square an earlier sample takes its own
        calls = count_calls(monkeypatch, "_pade_exp")  # (m, times, degree, squarings)
        assert run([command, "--family", *EXPM_FAMILIES[family], "--n", "40",
                    "--out-dir", tmp_path]) == 0
        assert sum(len(args[1]) for args in calls) == EXPM_CALLS[command, family]


class TestResolvent:
    def test_negative_complex_lambda_parses_without_equals(self, tmp_path):
        code = run(["resolvent", "--family", "jordan", "--lambda", "-0.5+1i", "--n", "4",
                    "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "resolvent-jordan-n4.json")
        assert report["input"]["params"]["lambda"] == [-0.5, 1.0]

    def test_heat_auto_delta0_passes(self, tmp_path):
        code = run(["resolvent", "--family", "heat", "--n", "16", "--delta0", "auto",
                    "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "resolvent-heat-n16.json")
        assert report["scans"]["right"]["pass"] is True
        assert report["scans"]["strip"]["pass"] is True
        for csv_name in (report["scans"]["right"]["csv"], report["scans"]["strip"]["csv"]):
            lines = (tmp_path / csv_name).read_text().strip().splitlines()
            assert lines[0] == "re_lambda,im_lambda,resolvent_norm,bound,ratio"
            assert len(lines) > 10

    def test_scalar_tightness_via_file_input(self, tmp_path):
        save_matrix(tmp_path / "minus_identity.json", -np.eye(2, dtype=complex))
        code = run(["resolvent", "--file", tmp_path / "minus_identity.json",
                    "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "resolvent-file-minus_identity.json")
        assert report["scans"]["right"]["worst_ratio"] == pytest.approx(1.0, abs=1e-6)

    def test_oversized_delta0_is_operational_error(self, tmp_path, capsys):
        save_matrix(tmp_path / "minus_identity.json", -np.eye(2, dtype=complex))
        code = run(["resolvent", "--file", tmp_path / "minus_identity.json",
                    "--delta0", "10", "--out-dir", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        assert "delta0 <=" in err  # suggests the admissible maximum

    @pytest.mark.parametrize("flag, value, name", [
        ("--n-grid", "0", "n_grid"),
        ("--n-axis", "-5", "n_axis"),
        ("--n-axis", "0", "n_axis"),
        ("--n-interior", "-1", "n_interior"),
    ])
    def test_bad_grid_size_is_operational_error(self, tmp_path, capsys, flag, value, name):
        code = run(["resolvent", "--family", "heat", "--n", "6", flag, value,
                    "--out-dir", tmp_path])
        assert code == 1
        assert f"error: {name} must be >= " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_right_scan_reports_proof_slack_and_tail_ratio(self, tmp_path):
        assert run(["resolvent", "--family", "heat", "--n", "8", "--out-dir", tmp_path]) == 0
        right = read_report(tmp_path / "resolvent-heat-n8.json")["scans"]["right"]
        assert right["proof_slack"] >= -1e-9
        assert 0.0 < right["tail_ratio"] <= 1.0
        # a sampled disk inside |A| leaves the Neumann tail open: null, not Infinity
        assert run(["resolvent", "--family", "heat", "--n", "8", "--omega-max", "1",
                    "--out", "inside.json", "--out-dir", tmp_path]) == 0
        right = read_report(tmp_path / "inside.json")["scans"]["right"]
        assert right["tail_ratio"] is None
        assert run(["recheck", tmp_path / "inside.json"]) == 0

    def test_scans_report_the_shifts_that_took_an_svd(self, tmp_path):
        # heat is real: one point of each conjugate pair is evaluated
        assert run(["resolvent", "--family", "heat", "--n", "8", "--out-dir", tmp_path]) == 0
        scans = read_report(tmp_path / "resolvent-heat-n8.json")["scans"]
        assert (scans["right"]["points"], scans["right"]["evaluated"]) == (145, 73)
        assert (scans["strip"]["points"], scans["strip"]["evaluated"]) == (600, 312)
        # a non-real eigenvalue makes A complex: every point is evaluated
        assert run(["resolvent", "--family", "jordan", "--lambda=-0.5+1i", "--n", "4",
                    "--out", "complex.json", "--out-dir", tmp_path]) == 0
        scans = read_report(tmp_path / "complex.json")["scans"]
        assert scans["right"]["evaluated"] == scans["right"]["points"]
        assert scans["strip"]["evaluated"] == scans["strip"]["points"]


    def test_auto_delta0_is_decided_by_the_strip_scan(self, tmp_path):
        assert run(["resolvent", "--family", "heat", "--n", "8", "--out-dir", tmp_path]) == 0
        report = read_report(tmp_path / "resolvent-heat-n8.json")
        q_norm = report["candidate"]["q_norm"]
        s = float(np.max(np.linalg.eigvals(heat_dirichlet(8, 1.0)).real))
        delta0 = report["config"]["delta0"]
        assert delta0 == report["scans"]["strip"]["delta0"]
        assert delta0 == pytest.approx(0.5 * min(abs(s), 1.0 / (2.0 * q_norm)), rel=1e-12)
        assert list(report["config"]).index("delta0") == 3  # the first flag of its own

    @pytest.mark.parametrize("flag, value, message", [
        ("--n-grid", "0", "n_grid must be >= 1"),
        ("--delta0", "100", "delta0 <="),
        ("--n-axis", "0", "n_axis must be >= 1"),
        ("--omega-max", "-1", "omega_max must be positive"),
        # the interior grid reaches Re lambda = 2 omega_max, which must be finite
        ("--omega-max", "inf", "omega_max must be positive with 2 omega_max finite"),
        ("--omega-max", "1e308", "omega_max must be positive with 2 omega_max finite"),
        # ... and so must its farthest shift, |2 omega_max + i omega_max| = 5^(1/2) omega_max
        ("--omega-max", "8.1e307", "farthest shift |2 omega_max + i omega_max| finite"),
        ("--omega-max", "8.9e307", "farthest shift |2 omega_max + i omega_max| finite"),
        # grids beyond MAX_GRID_POINTS are refused before they are built
        ("--n-grid", str(10**12), "n_grid = 1000000000000 takes"),
        ("--n-axis", str(10**12), "n_axis + n_interior = 1000000000016 exceeds 100000"),
        ("--n-interior", str(10**12), "n_axis + n_interior = 1000000000129 exceeds 100000"),
    ])
    def test_scan_arguments_are_checked_before_any_svd(self, tmp_path, capsys, monkeypatch,
                                                       flag, value, message):
        # every SVD of a scan goes through _scan_norms; the Lyapunov solve
        # before the scans checks its residual with SVDs of its own
        scans = []
        scan_norms = stabcert.resolvent._scan_norms

        def counting(aw, grid, *args, **kwargs):
            scans.append(len(grid))
            return scan_norms(aw, grid, *args, **kwargs)

        monkeypatch.setattr(stabcert.resolvent, "_scan_norms", counting)
        argv = ["resolvent", "--family", "heat", "--n", "6", "--out-dir", tmp_path]
        assert run(argv + [flag, value]) == 1
        assert message in capsys.readouterr().err
        assert not scans
        assert run(argv) == 0 and scans  # the counter sees the scans of a good job


class TestPerturb:
    def test_random_trials_all_pass(self, tmp_path, capsys):
        code = run(["perturb", "--family", "heat", "--n", "8", "--random-trials", "10",
                    "--alpha", "2", "--out-dir", tmp_path])
        assert code == 0
        assert "10/10" in capsys.readouterr().out
        report = read_report(tmp_path / "perturb-heat-n8.json")
        assert report["perturbation"]["passes"] == 10
        assert report["perturbation"]["worst_margin_after"] <= 1e-9

    def test_explicit_b_beyond_radius_rejected(self, tmp_path):
        save_matrix(tmp_path / "b.json", 50.0 * np.eye(8, dtype=complex))
        code = run(["perturb", "--family", "heat", "--n", "8",
                    "--b-file", tmp_path / "b.json", "--alpha", "2",
                    "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "perturb-heat-n8.json")
        assert report["verdict"] == "rejected"
        assert report["perturbation"]["excess"] > 0.0

    def test_alpha_one_is_operational_error(self, tmp_path, capsys):
        code = run(["perturb", "--family", "heat", "--n", "8", "--random-trials", "3",
                    "--alpha", "1", "--out-dir", tmp_path])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--random-trials", "3"], ["--b-file", "b.json"]])
    def test_an_alpha_whose_radius_is_not_a_normal_float_is_refused(self, tmp_path, capsys,
                                                                     flags, monkeypatch):
        # 2 alpha |Q| overflows, so the radius would be 0 and every B scaled to 0
        monkeypatch.chdir(tmp_path)
        save_matrix(tmp_path / "b.json", np.zeros((4, 4)))
        assert run(["perturb", "--family", "heat", "--n", "4", *flags, "--alpha", "1e308",
                    "--out-dir", tmp_path]) == 1
        assert "not a normal float" in capsys.readouterr().err
        assert not (tmp_path / "perturb-heat-n4.json").exists()

    @pytest.mark.parametrize("entry, code", [(1e-300, 0), (10.0, 2)])
    def test_recheck_compares_the_max_alpha_block(self, tmp_path, capsys, entry, code):
        # within 1/(2|Q|) the report carries alpha and its max_alpha block;
        # beyond it alpha is null and the report carries no block
        b = np.zeros((4, 4))
        b[0, 0] = entry
        save_matrix(tmp_path / "b.json", b)
        assert run(["perturb", "--family", "heat", "--n", "4", "--b-file", tmp_path / "b.json",
                    "--out-dir", tmp_path]) == code
        path = tmp_path / "perturb-heat-n4.json"
        report = read_report(path)
        assert (report["perturbation"]["alpha"] is None) == (code == 2)
        assert ("max_alpha" in report) == (code == 0)
        assert run(["recheck", path]) == 0
        report["max_alpha"] = {"alpha": 0.5, "decay": -5.0}
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert run(["recheck", path]) == 2
        out = capsys.readouterr().out
        if code == 0:
            assert "max_alpha.alpha: recomputed" in out and "max_alpha.decay: recomputed" in out
        else:  # max_alpha finds no alpha > 1, so there is no block to report
            assert "max_alpha: recomputed None vs reported {'alpha': 0.5" in out

    def test_recheck_ties_alpha_to_max_alpha_and_the_flag(self, tmp_path, capsys):
        # without --alpha the guarantee's alpha is max_alpha's (trials take 2);
        # with --alpha, or with trials, the command runs no max_alpha
        b = np.zeros((4, 4))
        b[0, 0] = 1e-3
        save_matrix(tmp_path / "b.json", b)
        heat = ["perturb", "--family", "heat", "--n", "4"]
        for name, flags in (("own", []), ("flag", ["--alpha", "2"]),
                            ("trials", ["--random-trials", "3"])):
            flags = flags if name == "trials" else ["--b-file", tmp_path / "b.json", *flags]
            assert run([*heat, *flags, "--out-dir", tmp_path / name]) == 0
        own = read_report(tmp_path / "own" / "perturb-heat-n4.json")
        forged = dict(own, perturbation=dict(own["perturbation"], alpha=2.0))
        (tmp_path / "own" / "perturb-heat-n4.json").write_text(json.dumps(forged))
        trials = read_report(tmp_path / "trials" / "perturb-heat-n4.json")
        assert trials["perturbation"]["alpha"] == 2.0
        (tmp_path / "config").mkdir()
        (tmp_path / "config" / "perturb-heat-n4.json").write_text(
            json.dumps(dict(trials, config=dict(trials["config"], alpha=3.0))))
        for name in ("flag", "trials"):  # a genuine max_alpha block, where none was run
            path = tmp_path / name / "perturb-heat-n4.json"
            path.write_text(json.dumps(dict(read_report(path), max_alpha=own["max_alpha"])))
        capsys.readouterr()
        for name, problem in (("own", "perturbation.alpha: recomputed"),
                              ("flag", "max_alpha: recomputed None"),
                              ("trials", "max_alpha: recomputed None"),
                              ("config", "perturbation.alpha: recomputed 3.0 vs reported 2.0")):
            assert run(["recheck", tmp_path / name / "perturb-heat-n4.json"]) == 2
            assert problem in capsys.readouterr().out, name

    def test_small_admissible_b_passes_with_max_alpha(self, tmp_path):
        b = np.zeros((8, 8), dtype=complex)
        b[0, 1] = 0.1
        save_matrix(tmp_path / "b.json", b)
        code = run(["perturb", "--family", "heat", "--n", "8",
                    "--b-file", tmp_path / "b.json", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "perturb-heat-n8.json")
        assert report["max_alpha"]["alpha"] > 1.0
        assert report["perturbation"]["margin_after"] <= 1e-9

    @pytest.mark.parametrize("trials", ["-1", "0"])
    def test_nonpositive_random_trials_is_usage_error(self, tmp_path, capsys, trials):
        code = run(["perturb", "--family", "heat", "--n", "4", "--random-trials", trials,
                    "--out-dir", tmp_path])
        assert code == 1
        assert "--random-trials must be a positive integer" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_b_beyond_the_radius_without_alpha_is_rejected(self, tmp_path):
        save_matrix(tmp_path / "b.json", 100.0 * np.eye(4, dtype=complex))
        code = run(["perturb", "--family", "heat", "--n", "4",
                    "--b-file", tmp_path / "b.json", "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "perturb-heat-n4.json")
        assert report["verdict"] == "rejected"
        block = report["perturbation"]
        assert block["alpha"] is None
        assert block["excess"] > 0.0
        assert "no admissible alpha" in block["detail"]
        assert "max_alpha" not in report
        assert run(["recheck", tmp_path / "perturb-heat-n4.json"]) == 0

    def test_zero_perturbation_passes_and_rechecks(self, tmp_path):
        # B = 0 has max_alpha = inf; the rescaling constant takes its limit 1
        save_matrix(tmp_path / "zero.json", np.zeros((6, 6), dtype=complex))
        assert run(["perturb", "--family", "heat", "--n", "6",
                    "--b-file", tmp_path / "zero.json", "--out-dir", tmp_path]) == 0
        report = read_report(tmp_path / "perturb-heat-n6.json")
        assert report["verdict"] == "pass"
        assert report["max_alpha"]["alpha"] == math.inf
        assert report["perturbation"]["rescaled_member"] is True
        assert run(["recheck", tmp_path / "perturb-heat-n6.json"]) == 0

    def test_a_subnormal_b_passes_with_a_finite_max_alpha(self, tmp_path):
        # alpha* = 1/(2 |B| |Q|) overflows here; at alpha = inf the radius was 0
        b = np.zeros((4, 4))
        b[0, 0] = 1e-310
        save_matrix(tmp_path / "b.json", b)
        assert run(["perturb", "--family", "upwind", "--n", "4",
                    "--b-file", tmp_path / "b.json", "--out-dir", tmp_path]) == 0
        path = tmp_path / "perturb-upwind-n4.json"
        report = json.loads(path.read_text(), parse_constant=pytest.fail)  # no NaN or inf
        assert report["verdict"] == "pass"
        assert report["max_alpha"]["decay"] == 1.0
        assert report["perturbation"]["b_norm"] <= report["perturbation"]["radius"]
        assert run(["recheck", path]) == 0

    def test_each_trial_takes_one_eigensolve(self, tmp_path, monkeypatch):
        calls = count_linalg(monkeypatch, "eigvalsh", "eigh")
        matrices = count_matrices(monkeypatch, "eigvalsh")
        assert run(["perturb", "--family", "heat", "--n", "8", "--random-trials", "5",
                    "--out-dir", tmp_path]) == 0
        # the PD check of W, Q's whitened eigensolve and the residual's, then
        # one per trial, the five trials in one stacked call; all values only
        assert matrices == {"eigvalsh": 3 + 5}
        assert calls == {"eigvalsh": 3 + 1, "eigh": 0}
        calls["eigvalsh"] = matrices["eigvalsh"] = 0
        assert run(["recheck", tmp_path / "perturb-heat-n8.json"]) == 0
        assert matrices == {"eigvalsh": 3}
        assert calls == {"eigvalsh": 3, "eigh": 0}

    def test_each_trial_takes_one_svd(self, tmp_path, monkeypatch):
        matrices = count_matrices(monkeypatch, "svd")
        assert run(["perturb", "--family", "heat", "--n", "8", "--random-trials", "20",
                    "--out-dir", tmp_path]) == 0
        # solve_algebraic's one, then the |raw| that scales each trial's B:
        # a trial's |B| is not measured again
        assert matrices == {"svd": 1 + 20}

    @pytest.mark.parametrize("family", ["heat", "random-stable"])
    def test_trial_blocks_match_one_block_and_a_per_trial_oracle(self, tmp_path, monkeypatch,
                                                                 family):
        # blocks of 3 trials start at trial 3, odd, and 6: they must keep the
        # Hermitian/general alternation and the order of the stream
        n, trials, seed, alpha = 6, 7, 6, 2.0
        argv = ["perturb", "--family", family, "--n", n, "--random-trials", trials,
                "--seed", seed, "--out-dir", tmp_path]
        if family == "heat":
            a, nm = heat_dirichlet(n), NormModel.identity(n)
        else:  # under a weighted norm
            w = 2.0 ** -np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            save_matrix(tmp_path / "w.json", w)
            argv += ["--norm-file", tmp_path / "w.json"]
            a, nm = random_stable(n, 0.5, seed), NormModel.from_weight(w)
        reports = []
        for depth in (trials, 3):
            monkeypatch.setattr(stabcert.numkernel, "_GRID_BYTES", depth * 16 * n * n)
            assert run(argv) == 0
            path, = tmp_path.glob("perturb-*.json")
            reports.append(read_report(path))
            del reports[-1]["timings"]
        assert reports[0] == reports[1]

        cand = membership_margin(solve_algebraic(a, nm.w), a, nm)
        radius, rng, bs = admissible_radius(cand, alpha), SplitMix64(seed), []
        for i in range(trials):
            raw = random_hermitian(n, rng) if i % 2 == 0 else random_matrix(n, rng)
            bs.append(raw * (radius / op_norm(raw, nm)))
        reps = [verify_perturbation(cand, b, alpha) for b in bs]
        after = [rep.margin_after for rep in reps]
        block = reports[1]["perturbation"]
        # the worst B is drawn in the second block (trial 4 on heat, 5 on
        # random-stable), where a block that restarts the alternation moves it
        assert block["worst_trial"] == after.index(max(after)) in (4, 5)
        assert block["worst_margin_after"] == max(after)
        assert block["passes"] == sum(perturbation_holds(rep.margin_after, rep.rescaled_member,
                                                         cand.tol) for rep in reps)
        assert np.array_equal(matrix_from_json_dict(block["worst_b"]), bs[block["worst_trial"]])

    @pytest.mark.parametrize("alpha", [[], ["--alpha", "2"]], ids=["max-alpha", "alpha"])
    def test_b_of_another_shape_is_operational_error(self, tmp_path, capsys, alpha):
        # beyond the radius too, so a missing shape check would read as rejected
        save_matrix(tmp_path / "b.json", 100.0 * np.eye(3))
        code = run(["perturb", "--family", "heat", "--n", "4",
                    "--b-file", tmp_path / "b.json", *alpha, "--out-dir", tmp_path])
        assert code == 1
        assert "shape mismatch: a (4, 4), b (3, 3)" in capsys.readouterr().err
        assert not (tmp_path / "perturb-heat-n4.json").exists()

    def test_recheck_rederives_the_excess_of_a_null_alpha(self, tmp_path):
        save_matrix(tmp_path / "b.json", 100.0 * np.eye(4, dtype=complex))
        assert run(["perturb", "--family", "heat", "--n", "4",
                    "--b-file", tmp_path / "b.json", "--out-dir", tmp_path]) == 2
        path = tmp_path / "perturb-heat-n4.json"
        report = read_report(path)
        report["perturbation"]["excess"] *= 0.5
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2


class TestLeftinv:
    def test_scalar_equality(self, tmp_path):
        save_matrix(tmp_path / "minus_identity.json", -np.eye(2, dtype=complex))
        code = run(["leftinv", "--file", tmp_path / "minus_identity.json",
                    "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "leftinv-file-minus_identity.json")
        env = report["envelope"]
        sp = report["strong_positivity"]
        assert env["c"] == pytest.approx(1.0, rel=1e-9)
        assert env["alpha"] == pytest.approx(1.0, rel=1e-9)
        assert sp["theta"] == pytest.approx(0.5, rel=1e-9)
        assert sp["envelope_bound"] == pytest.approx(0.5, rel=1e-8)
        assert sp["inequality_ok"] is True
        assert sp["witness"] is not None

    def test_shifted_rotation_equality(self, tmp_path):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]]) - 0.1 * np.eye(2)
        save_matrix(tmp_path / "rot.json", rot.astype(complex))
        code = run(["leftinv", "--file", tmp_path / "rot.json", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "leftinv-file-rot.json")
        env = report["envelope"]
        sp = report["strong_positivity"]
        assert env["c"] == pytest.approx(1.0, rel=1e-9)
        assert env["alpha"] == pytest.approx(0.1, rel=1e-8)
        assert sp["theta"] == pytest.approx(5.0, rel=1e-9)
        assert sp["envelope_bound"] == pytest.approx(5.0, rel=1e-7)
        assert sp["inequality_ok"] is True

    def test_upwind_passes(self, tmp_path):
        code = run(["leftinv", "--family", "upwind", "--n", "8", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "leftinv-upwind-n8.json")
        env = report["envelope"]
        for t, m in env["samples"]:
            assert m >= env["c"] * math.exp(-env["alpha"] * t) * (1 - 1e-12)

    def test_oversized_t_grid_is_refused_before_it_is_built(self, tmp_path, capsys):
        code = run(["leftinv", "--family", "heat", "--n", "4",
                    "--t-grid", f"0.01,1,{10**12}", "--out-dir", tmp_path])
        assert code == 1
        assert "--t-grid expects start,stop,count: count 1000000000000 exceeds 100000" in (
            capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    def test_heat_grid_starts_before_the_fastest_mode_decays(self, tmp_path):
        # from n = 44 the fastest heat mode had already left sigma_min under
        # the round-off floor at the old grid start t = 0.01
        assert run(["leftinv", "--family", "heat", "--n", "48", "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "leftinv-heat-n48.json"]) == 0


class TestRefute:
    def test_rotation_refuted(self, tmp_path):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        save_matrix(tmp_path / "rot.json", rot)
        code = run(["refute", "--file", tmp_path / "rot.json", "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "refute-file-rot.json")
        assert report["verdict"] == "refuted"
        assert abs(report["witness"]["eigenvalue"][1]) == pytest.approx(1.0)
        assert run(["recheck", tmp_path / "refute-file-rot.json"]) == 0

    def test_stable_not_refuted(self, tmp_path):
        code = run(["refute", "--family", "heat", "--n", "4", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "refute-heat-n4.json")
        assert report["verdict"] == "not_refuted"
        assert report["spectral_bound"] < 0.0
        assert run(["recheck", tmp_path / "refute-heat-n4.json"]) == 0


class TestNormFile:
    def test_certify_with_weighted_norm(self, tmp_path):
        w = np.diag([4.0, 2.0, 1.0, 1.0]).astype(complex)
        save_matrix(tmp_path / "w.json", w)
        code = run(["certify", "--family", "heat", "--n", "4",
                    "--norm-file", tmp_path / "w.json", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "certify-heat-n4.json")
        assert report["norm_model"]["kind"] == "file"
        assert report["verdict"] == "certified"
        # recheck must succeed from the embedded weight alone
        assert run(["recheck", tmp_path / "certify-heat-n4.json"]) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_a_nonhermitian_weight_is_refused_at_every_scale(self, tmp_path, capsys, scale):
        save_matrix(tmp_path / "a.json", -np.eye(2))
        save_matrix(tmp_path / "w.json", scale * np.array([[1.0, 0.0], [0.5, 1.0]]))
        assert run(["certify", "--file", tmp_path / "a.json", "--norm-file",
                    tmp_path / "w.json", "--out-dir", tmp_path]) == 1
        assert capsys.readouterr().err == (
            "error: norm weight is not Hermitian: asymmetry 4.714e-01 of its Frobenius norm\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "w.json"]

    @pytest.mark.filterwarnings("error")
    def test_a_huge_hermitian_weight_certifies_and_rechecks(self, tmp_path):
        save_matrix(tmp_path / "a.json", -np.eye(2))
        save_matrix(tmp_path / "w.json", 1e200 * np.eye(2))
        assert run(["certify", "--file", tmp_path / "a.json", "--norm-file",
                    tmp_path / "w.json", "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "certify-file-a.json"]) == 0

    @pytest.mark.filterwarnings("error")
    def test_a_weight_near_the_float64_limit_certifies_and_rechecks(self, tmp_path, capsys):
        # W + W^H and the sign iteration's sum of two terms would overflow at
        # 1.5e308: both halve before they add
        save_matrix(tmp_path / "a.json", -np.eye(2))
        save_matrix(tmp_path / "w.json", 1.5e308 * np.eye(2))
        assert run(["certify", "--file", tmp_path / "a.json", "--norm-file",
                    tmp_path / "w.json", "--out-dir", tmp_path]) == 0
        assert run(["recheck", tmp_path / "certify-file-a.json"]) == 0
        assert capsys.readouterr().err == ""

    def test_dimension_mismatch_is_operational(self, tmp_path, capsys):
        save_matrix(tmp_path / "w.json", np.eye(3, dtype=complex))
        code = run(["certify", "--family", "heat", "--n", "4",
                    "--norm-file", tmp_path / "w.json", "--out-dir", tmp_path])
        assert code == 1
        assert "4x4" in capsys.readouterr().err


class TestQ0Riesz:
    def test_explicit_riesz_map(self, tmp_path):
        save_matrix(tmp_path / "p.json", 2.0 * np.eye(6, dtype=complex))
        code = run(["q0", "--family", "heat", "--n", "6",
                    "--riesz", tmp_path / "p.json", "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / "q0-heat-n6.json")
        assert report["q0"]["member"] is True
        assert report["q0"]["theta_riesz"] == pytest.approx(2.0)
        assert "algebraic_gap" not in report["q0"]


class TestGenAndRecheck:
    def test_gen_writes_loadable_matrix(self, tmp_path):
        code = run(["gen", "--family", "heat", "--n", "4", "--out-dir", tmp_path])
        assert code == 0
        doc = read_report(tmp_path / "heat-n4.json")
        assert np.array_equal(matrix_from_json_dict(doc), heat_dirichlet(4, 1.0))

    def test_recheck_accepts_all_reports(self, tmp_path):
        assert run(["certify", "--family", "heat", "--n", "8", "--out-dir", tmp_path]) == 0
        assert run(["certify", "--family", "jordan", "--n", "3", "--lambda", "1",
                    "--out-dir", tmp_path]) == 2
        assert run(["q0", "--family", "heat", "--n", "6", "--out-dir", tmp_path]) == 0
        assert run(["resolvent", "--family", "heat", "--n", "6",
                    "--out-dir", tmp_path]) == 0
        assert run(["perturb", "--family", "heat", "--n", "6", "--random-trials", "5",
                    "--alpha", "2", "--out-dir", tmp_path]) == 0
        assert run(["leftinv", "--family", "upwind", "--n", "6",
                    "--out-dir", tmp_path]) == 0
        reports = sorted(
            str(p) for p in tmp_path.iterdir()
            if p.suffix == ".json" and p.name != "heat-n4.json" and "-" in p.stem
        )
        assert run(["recheck", *reports]) == 0

    def test_recheck_catches_tampering(self, tmp_path):
        assert run(["certify", "--family", "heat", "--n", "6", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-heat-n6.json"
        report = read_report(path)
        # forge a smaller membership margin than the embedded candidate has
        report["certificate"]["margin"] = -0.5
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2

    def test_recheck_refuses_a_nonfinite_tol(self, tmp_path, capsys):
        assert run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-heat-n4.json"
        report = read_report(path)
        report["config"]["tol"] = math.inf  # every margin would be a member's
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2
        assert "config.tol inf is not finite" in capsys.readouterr().out

    def test_recheck_catches_halved_strip_worst_ratio(self, tmp_path):
        assert run(["resolvent", "--family", "heat", "--n", "6",
                    "--out-dir", tmp_path]) == 0
        path = tmp_path / "resolvent-heat-n6.json"
        report = read_report(path)
        report["scans"]["strip"]["worst_ratio"] *= 0.5
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2

    def test_recheck_catches_halved_certificate_worst_ratio(self, tmp_path):
        assert run(["certify", "--family", "upwind", "--n", "8", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-upwind-n8.json"
        report = read_report(path)
        assert run(["recheck", path]) == 0
        report["certificate"]["worst_ratio"] *= 0.5
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2

    def test_recheck_rederives_the_leftinv_witness(self, tmp_path):
        assert run(["leftinv", "--family", "upwind", "--n", "8", "--out-dir", tmp_path]) == 0
        path = tmp_path / "leftinv-upwind-n8.json"
        report = read_report(path)
        # a larger m0 still satisfies the witness inequality; only
        # recomputing sigma_min at t0 exposes it
        report["strong_positivity"]["witness"]["m0"] *= 2.0
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2

    def test_recheck_fails_a_verdict_the_command_cannot_write(self, tmp_path, capsys):
        assert run(["leftinv", "--family", "upwind", "--n", "8", "--out-dir", tmp_path]) == 0
        path = tmp_path / "leftinv-upwind-n8.json"
        report = read_report(path)
        report["verdict"] = "certified"
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2
        assert "'certified' is not one that 'leftinv' writes" in capsys.readouterr().out

    def test_verdict_table_covers_exactly_the_exit_code_table(self):
        verdicts = {verdict for rule in _RULES.values() for verdict, _ in rule}
        assert {"refuted"} | verdicts == set(_EXIT_CODES)
        assert all(rule[-1][1] is None for rule in _RULES.values())

    def test_recheck_rejects_non_reports(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text(json.dumps({"hello": 1}))
        assert run(["recheck", path]) == 1

    @pytest.mark.parametrize("block, key, value", [
        (None, "config", None),
        (None, "norm_model", "x"),
        ("certificate", "grid", {"worst_t": 1e300}),
    ])
    def test_recheck_of_a_malformed_report_is_unreadable(self, tmp_path, capsys,
                                                         block, key, value):
        assert run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-heat-n4.json"
        report = read_report(path)
        (report[block] if block else report)[key] = value
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 1
        assert "not a readable report" in capsys.readouterr().out

    @pytest.mark.parametrize("generator, stem, keys", [
        (["--family", "heat"], "certify-heat-n2", ["data_real"]),
        (["--family", "jordan", "--lambda=-0.5+1i"], "certify-jordan-n2", ["data", 0]),
    ], ids=["data_real", "data"])
    def test_recheck_of_a_generator_beyond_the_float_range_is_unreadable(
            self, tmp_path, capsys, generator, stem, keys):
        assert run(["certify", *generator, "--n", "2", "--out-dir", tmp_path]) == 0
        path = tmp_path / f"{stem}.json"
        report = read_report(path)
        entries = report["generator"]
        assert as_decimal(entries, keys[0]) == 1
        for key in keys:
            entries = entries[key]
        entries[0] = 10 ** 400  # the first real part, in either decimal layout
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 1
        assert "not a readable report" in capsys.readouterr().out

    @pytest.mark.parametrize("generator, stem, key", [
        (["--family", "heat"], "certify-heat-n2", "f64le"),
        (["--family", "jordan", "--lambda=-0.5+1i"], "certify-jordan-n2", "c128le"),
    ], ids=["f64le", "c128le"])
    def test_recheck_of_a_nonfinite_binary_generator_is_unreadable(
            self, tmp_path, capsys, generator, stem, key):
        assert run(["certify", *generator, "--n", "2", "--out-dir", tmp_path]) == 0
        path = tmp_path / f"{stem}.json"
        report = read_report(path)
        values = np.frombuffer(base64.b64decode(report["generator"][key]), "<f8").copy()
        values[-1] = np.inf  # the last entry's last part, in either binary layout
        report["generator"][key] = base64.b64encode(values.tobytes()).decode()
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 1
        out = capsys.readouterr().out
        assert "not a readable report" in out
        assert "non-finite entry at offset 3" in out

    def test_recheck_flags_invalid_embedded_candidate(self, tmp_path, capsys):
        assert run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-heat-n4.json"
        report = read_report(path)
        # swap the embedded candidate for an indefinite matrix
        forged = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        report["certificate"]["q"] = matrix_to_json_dict(forged)
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2
        assert "invalid" in capsys.readouterr().out


@pytest.mark.parametrize("argv, stem, edits", [
    (["certify", "--family", "heat", "--n", "4", "--tol", "-1"], "certify-heat-n4",
     {"candidate.margin": 123.0, "candidate.theta": -7.0}),
    (["certify", "--family", "heat", "--n", "4"], "certify-heat-n4",
     {"verdict": "inconclusive"}),
    (["leftinv", "--family", "upwind", "--n", "8"], "leftinv-upwind-n8",
     {"verdict": "fail"}),
    (["leftinv", "--family", "upwind", "--n", "8", "--t-grid", "0.001,0.002,8"],
     "leftinv-upwind-n8", {"verdict": "pass"}),
    (["resolvent", "--family", "heat", "--n", "6"], "resolvent-heat-n6",
     {"verdict": "fail", "scans.right.pass": False}),
    (["perturb", "--family", "heat", "--n", "8", "--b-file", B_BEYOND_RADIUS,
      "--alpha", "2"], "perturb-heat-n8",
     {"perturbation.excess": -5.0, "candidate.margin": 9.0}),
    (["perturb", "--family", "heat", "--n", "8", "--b-file", B_BEYOND_RADIUS,
      "--alpha", "2"], "perturb-heat-n8", {"perturbation.excess": -5.0}),
    (["perturb", "--family", "heat", "--n", "6", "--random-trials", "5", "--alpha", "2"],
     "perturb-heat-n6", {"verdict": "fail"}),
    (["q0", "--family", "heat", "--n", "6"], "q0-heat-n6", {"verdict": "inconclusive"}),
    (["q0", "--family", "heat", "--n", "4", "--panels", "1"], "q0-heat-n4",
     {"verdict": "pass"}),
    (["leftinv", "--family", "upwind", "--n", "8"], "leftinv-upwind-n8",
     {"strong_positivity.witness": None}),
    (["resolvent", "--family", "heat", "--n", "6"], "resolvent-heat-n6",
     {"scans.right.bound": 1e9}),
    (["perturb", "--family", "heat", "--n", "6", "--random-trials", "5", "--alpha", "2"],
     "perturb-heat-n6", {"perturbation.radius": 1e3}),
    (["certify", "--family", "heat", "--n", "4"], "certify-heat-n4",
     {"certificate.grid.t_max": 1.0}),
    (["refute", "--family", "heat", "--n", "4"], "refute-heat-n4", {"spectral_bound": 5.0}),
], ids=["certify-tol-margin-theta", "certified-as-inconclusive", "leftinv-pass-as-fail",
        "leftinv-fail-as-pass", "resolvent-pass-as-fail", "rejected-excess-margin",
        "rejected-excess", "perturb-pass-as-fail", "q0-pass-as-inconclusive",
        "q0-inconclusive-as-pass", "leftinv-witness-dropped", "resolvent-right-bound",
        "perturb-radius", "certify-grid-t-max", "refute-spectral-bound"])
def test_recheck_rederives_the_verdict_of_a_forged_report(tmp_path, monkeypatch, capsys,
                                                          argv, stem, edits):
    monkeypatch.chdir(tmp_path)
    save_matrix(B_BEYOND_RADIUS, 50.0 * np.eye(8, dtype=complex))
    run([*argv, "--out-dir", tmp_path])
    path = tmp_path / f"{stem}.json"
    assert run(["recheck", path]) == 0
    report = read_report(path)
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        block = report
        for name in parents:
            block = block[name]
        assert key in block
        block[key] = value
    path.write_text(json.dumps(report))
    assert run(["recheck", path]) == 2
    assert f"{path}: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("generator, q, tol, eigenvalue", [
    # s(A) = -5e-11 is inside the refutation window, and Q has margin 0
    (np.diag([-5e-11, -1.0, -1.0, -1.0]), np.diag([1e10, 0.5, 0.5, 0.5]), 1e-8, "-5e-11"),
    # Q = I/2 has margin 1.5 for this A: a member only under the forged tol
    (np.diag([0.5, -1.0, -1.0, -1.0]), 0.5 * np.eye(4), 2.0, "0.5"),
], ids=["window", "unstable"])
def test_recheck_applies_the_refutation_rule_to_a_report_without_witness(
        tmp_path, capsys, generator, q, tol, eigenvalue):
    # a certified report on a generator the stability gate refutes, every
    # derived field forged to match the forged A and Q
    run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path])
    path = tmp_path / "certify-heat-n4.json"
    assert run(["recheck", path]) == 0
    report = read_report(path)
    cand = membership_margin(q, generator, NormModel.identity(4), tol=tol)
    epsilon, m = 1.0 / (2.0 * cand.q_norm), math.sqrt(cand.q_norm / cand.theta)
    report["generator"] = matrix_to_json_dict(generator)
    report["config"]["tol"] = tol
    block = report["certificate"]
    block.update(q=matrix_to_json_dict(q), margin=cand.margin, q_norm=cand.q_norm,
                 theta=cand.theta, member=cand.is_member, tol=tol, epsilon=epsilon, M=m,
                 worst_ratio=1.0 / m, grid_pass=True)
    block["grid"].update(t_max=10.0 / epsilon, worst_t=0.0)
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert run(["recheck", path]) == 2
    out = capsys.readouterr().out
    assert f"{path}: FAIL" in out
    assert f"eigenvalue ({eigenvalue}+0j) has real part >= -1e-10" in out
    # the command itself refutes that generator
    save_matrix(tmp_path / "a.json", generator)
    assert run(["certify", "--file", tmp_path / "a.json", "--out-dir", tmp_path]) == 2


@pytest.mark.parametrize("argv, stem, names", [
    (["certify", "--family", "heat", "--n", "4"], "certify-heat-n4",
     ["certificate.margin", "certificate.epsilon", "certificate.M", "certificate.worst_ratio",
      "certificate.grid_pass", "certificate.grid.t_max", "certificate.grid.points"]),
    (["refute", "--family", "heat", "--n", "4"], "refute-heat-n4",
     ["witness", "spectral_bound"]),
    (["q0", "--family", "heat", "--n", "4"], "q0-heat-n4",
     ["q0.margin", "q0.q_norm", "q0.theta", "q0.member"]),
    (["resolvent", "--family", "heat", "--n", "6"], "resolvent-heat-n6",
     ["candidate.margin", "scans.right.bound", "scans.right.worst_ratio", "scans.right.pass",
      "scans.strip.bound", "scans.strip.worst_ratio", "scans.strip.pass"]),
    (["perturb", "--family", "heat", "--n", "6", "--random-trials", "5", "--alpha", "2"],
     "perturb-heat-n6", ["candidate.margin", "perturbation.radius",
                         "perturbation.worst_margin_after", "perturbation.worst_rescaled_member"]),
    (["leftinv", "--family", "upwind", "--n", "8"], "leftinv-upwind-n8",
     ["candidate.theta", "strong_positivity.envelope_bound", "strong_positivity.inequality_ok",
      "strong_positivity.witness_rate", "strong_positivity.witness.m0"]),
], ids=["certify", "refute", "q0", "resolvent", "perturb", "leftinv"])
def test_recheck_ok_line_names_the_fields_it_compared(tmp_path, capsys, argv, stem, names):
    assert run([*argv, "--out-dir", tmp_path]) == 0
    path = tmp_path / f"{stem}.json"
    capsys.readouterr()
    assert run(["recheck", path]) == 0
    head, listed = capsys.readouterr().out.strip().split("): ")
    assert head == f"{path}: ok ({read_report(path)['verdict']}"
    assert listed.split() == _recheck_one(str(path))[1]
    assert set(names) <= set(listed.split())


# Report fields ``recheck`` does not recompute, each for a stated reason; a
# field's dotted path matches an entry (``*`` being any block name) that it
# equals or ends with after a dot.  README names exactly these under "Not
# recomputed".
NOT_RECOMPUTED = {
    # the embedded data it starts from, and echoes of the flags
    "q", "b", "worst_b", "witness.eigenvalue", "witness.vector", "tol", "trials", "kind", "csv",
    # trusted: checked against other fields or used as given, not measured again
    "envelope.c", "envelope.alpha", "envelope.samples", "witness.t0", "grid.worst_t", "delta0",
    "argmax", "passes", "worst_trial",
    # diagnostics, which no verdict rule reads
    "grid.evaluated", "scans.*.points", "scans.*.evaluated", "proof_slack", "tail_ratio",
    "q0.algebraic_gap", "theta_riesz", "perturbation.detail",
}
# the blocks that frame a report rather than carry its fields
FRAME = {"tool", "command", "input", "norm_model", "config", "generator", "verdict", "timings"}


def report_fields(doc: dict, prefix: str = ""):
    """The dotted paths of a report's fields; a matrix or a list is one field."""
    for key, value in doc.items():
        if isinstance(value, dict) and "rows" not in value:
            yield from report_fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def named(field: str, name: str) -> bool:
    return fnmatch.fnmatchcase(field, name) or fnmatch.fnmatchcase(field, "*." + name)


def not_recomputed(field: str) -> bool:
    return any(named(field, name) for name in NOT_RECOMPUTED)


def test_q0_on_a_slow_generator_passes_and_rechecks(tmp_path):
    # |A| = 1.1e-5 and s(A) = -9.8e-8: the growth-bound grid starts where
    # |T(t)| is 1 up to round-off, which once ended in "math range error"
    assert run(["q0", "--family", "heat", "--n", "16", "--length", "1e4",
                "--out-dir", tmp_path]) == 0
    assert run(["recheck", tmp_path / "q0-heat-n16.json"]) == 0


def test_every_report_field_is_rechecked_or_named(tmp_path):
    b = np.zeros((4, 4))
    b[0, 1] = 1e-3
    save_matrix(tmp_path / "b.json", b)
    save_matrix(tmp_path / "big.json", 100.0 * np.eye(4))
    heat = ["--family", "heat", "--n", "4"]
    jobs = {
        "certify": (["certify", *heat], 0), "refute": (["refute", *heat], 0),
        "q0": (["q0", *heat], 0), "resolvent": (["resolvent", *heat], 0),
        "trials": (["perturb", *heat, "--random-trials", "3"], 0),
        "leftinv": (["leftinv", *heat], 0),
        "b-file": (["perturb", *heat, "--b-file", tmp_path / "b.json"], 0),
        "rejected": (["perturb", *heat, "--b-file", tmp_path / "big.json"], 2),
        "refuted": (["certify", "--family", "jordan", "--lambda", "1", "--n", "3"], 2),
    }
    used = set()
    for job, (argv, code) in jobs.items():
        out = tmp_path / job
        assert run([*argv, "--out-dir", out]) == code, job
        (path,) = out.glob("*.json")
        _, compared, problems = _recheck_one(str(path))
        assert problems == [], job
        fields = [f for block, value in read_report(path).items() if block not in FRAME
                  for f in report_fields({block: value})]
        assert [f for f in fields if f not in compared and not not_recomputed(f)] == [], job
        assert [f for f in compared if not_recomputed(f)] == [], job
        used.update(name for name in NOT_RECOMPUTED for f in fields if named(f, name))
    assert used == NOT_RECOMPUTED  # no stale entry


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_names_the_fields_recheck_does_not_recompute():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("Not recomputed")
    paragraph = text[start:text.index("\n\n", start)]
    assert set(re.findall(r"`([^`]+)`", paragraph)) == NOT_RECOMPUTED


def test_readme_example_line_lists_what_recheck_compares(tmp_path):
    with open(README, encoding="utf-8") as fh:
        (line,) = [x for x in fh if x.startswith("report.json: ok (certified): ")]
    assert run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path]) == 0
    compared = _recheck_one(str(tmp_path / "certify-heat-n4.json"))[1]
    assert line.split(": ", 2)[2].split() == compared


@pytest.mark.parametrize("layout", ["data_real", "data"])
@pytest.mark.parametrize("argv, stem", [
    *[([command, "--family", "heat", "--n", "4", *flags], f"{command}-heat-n4")
      for command, flags in [("certify", []), ("refute", []), ("q0", []), ("resolvent", []),
                             ("perturb", ["--random-trials", "3"]), ("leftinv", [])]],
    (["certify", "--family", "jordan", "--lambda", "1", "--n", "3"], "certify-jordan-n3"),
], ids=["certify", "refute", "q0", "resolvent", "perturb", "leftinv", "refuted"])
def test_a_report_in_a_decimal_layout_rechecks_alike(tmp_path, capsys, argv, stem, layout):
    run([*argv, "--out-dir", tmp_path])
    path = tmp_path / f"{stem}.json"
    report = read_report(path)
    assert as_decimal(report, layout) >= 1
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(report))
    assert "f64le" not in legacy.read_text() and "c128le" not in legacy.read_text()
    capsys.readouterr()
    assert run(["recheck", path]) == 0
    listed = capsys.readouterr().out.split("): ")[1]
    assert run(["recheck", legacy]) == 0
    assert capsys.readouterr().out.split("): ")[1] == listed


def test_a_matrix_is_written_as_f64le_exactly_when_it_is_real(tmp_path):
    def layout(doc):
        return set(doc) - {"rows", "cols"}

    for family in (["heat"], ["upwind"], ["jordan", "--lambda=-1"], ["random-stable"]):
        assert run(["certify", "--family", *family, "--n", "4", "--out-dir", tmp_path,
                    "--out", "real.json"]) == 0
        report = read_report(tmp_path / "real.json")
        assert layout(report["generator"]) == layout(report["certificate"]["q"]) == {"f64le"}
    # a generator with a nonzero imaginary part, whose Q is complex too
    save_matrix(tmp_path / "a.json", np.array([[-1.0, 1j], [0.0, -2.0]]))
    assert run(["certify", "--file", tmp_path / "a.json", "--out-dir", tmp_path,
                "--out", "complex.json"]) == 0
    report = read_report(tmp_path / "complex.json")
    assert layout(report["generator"]) == layout(report["certificate"]["q"]) == {"c128le"}
    # the layout follows the values: the shifted jordan block's Q is real to the last bit
    assert run(["certify", "--family", "jordan", "--lambda=-0.5+1i", "--n", "2",
                "--out-dir", tmp_path, "--out", "shifted.json"]) == 0
    report = read_report(tmp_path / "shifted.json")
    assert layout(report["generator"]) == {"c128le"}
    assert layout(report["certificate"]["q"]) == {"f64le"}
    assert run(["perturb", "--family", "heat", "--n", "4", "--random-trials", "3",
                "--out-dir", tmp_path]) == 0
    report = read_report(tmp_path / "perturb-heat-n4.json")
    assert layout(report["candidate"]["q"]) == {"f64le"}
    assert layout(report["perturbation"]["worst_b"]) == {"c128le"}


class TestDesktopScale:
    def test_resolvent_past_the_old_solver_cap(self, tmp_path):
        code = run(["resolvent", "--family", "upwind", "--n", "160", "--n-axis", "9",
                    "--n-interior", "2", "--n-grid", "3", "--out-dir", tmp_path])
        assert code == 0
        assert run(["recheck", tmp_path / "resolvent-upwind-n160.json"]) == 0

    @pytest.mark.parametrize("family,n", [("upwind", 128), ("heat", 150)])
    def test_q0_at_desk_scale(self, tmp_path, family, n):
        # upwind n=128 passes the horizon where |T(t)| underflows to 0.0;
        # heat n=150 sums about 136 000 quadrature panels
        code = run(["q0", "--family", family, "--n", n, "--out-dir", tmp_path])
        assert code == 0
        report = read_report(tmp_path / f"q0-{family}-n{n}.json")
        assert report["verdict"] == "pass"
        assert run(["recheck", tmp_path / f"q0-{family}-n{n}.json"]) == 0

    def test_family_above_the_size_gate_is_operational_error(self, tmp_path, capsys):
        code = run(["gen", "--family", "heat", "--n", "257", "--out-dir", tmp_path])
        assert code == 1
        assert "size limit n <= 256" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["q0", "--family", "heat", "--n", "6", "--tmax", "inf"],
        ["certify", "--family", "heat", "--n", "6", "--length", "1e-300"],
    ], ids=["q0-infinite-tmax", "heat-overflowing-scale"])
    def test_overflow_is_operational_error(self, tmp_path, capsys, argv):
        assert run(argv + ["--out-dir", tmp_path]) == 1
        assert "error: " in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_overflowing_heat_scale_names_the_flag_and_the_scale(self, tmp_path, capsys):
        argv = ["certify", "--family", "heat", "--n", "6", "--length", "1e-300"]
        assert run(argv + ["--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: heat scale ((n+1)/length)^2 = ((6+1)/1e-300)^2")
        assert "--length" in err

    def test_oversized_matrix_file_is_rejected_before_allocation(self, tmp_path, capsys,
                                                                 monkeypatch):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"rows": 100_000, "cols": 100_000, "data_real": []}))

        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size gate")

        monkeypatch.setattr("stabcert.models.np.empty", no_allocation)
        assert run(["certify", "--file", path, "--out-dir", tmp_path]) == 1
        assert "size limit n <= 256" in capsys.readouterr().err


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, tmp_path):
        args = ["certify", "--family", "random-stable", "--n", "12", "--seed", "7",
                "--out-dir", tmp_path]
        assert run(args) == 0
        first = read_report(tmp_path / "certify-random-stable-n12-s7.json")
        assert run(args) == 0
        second = read_report(tmp_path / "certify-random-stable-n12-s7.json")
        first.pop("timings")
        second.pop("timings")
        assert json.dumps(first, indent=2) == json.dumps(second, indent=2)

    def test_config_echo_carries_defaults(self, tmp_path):
        run(["certify", "--family", "heat", "--n", "6", "--out-dir", tmp_path])
        report = read_report(tmp_path / "certify-heat-n6.json")
        assert report["config"]["tol"] == 1e-8
        assert report["tool"]["name"] == "stabcert"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "stabcert" in capsys.readouterr().out
