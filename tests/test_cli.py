import json
import math
import os

import numpy as np
import pytest

from stabcert.cli import main
from stabcert.models import (
    heat_dirichlet,
    matrix_from_json_dict,
    random_stable,
    save_matrix,
)
from stabcert.semigroup import evaluate
from stabcert.space import NormModel, op_norm


def run(args):
    return main([str(a) for a in args])


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
            assert op_norm(evaluate(a, t), nm) <= bound * (1.0 + 1e-8)

    def test_jordan_unstable_refuted(self, tmp_path):
        code = run(["certify", "--family", "jordan", "--n", "3", "--lambda", "1",
                    "--out-dir", tmp_path])
        assert code == 2
        report = read_report(tmp_path / "certify-jordan-n3.json")
        assert report["verdict"] == "refuted"
        lam = report["witness"]["eigenvalue"]
        assert lam[0] == pytest.approx(1.0)

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


class TestRefutationContract:
    @pytest.mark.parametrize("command", ["resolvent", "perturb", "leftinv"])
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

    @pytest.mark.parametrize("command, extra", [
        ("perturb", []),
        ("leftinv", ["--t-grid", "1,2"]),
    ], ids=["perturb", "leftinv"])
    def test_usage_errors_come_before_refutation(self, tmp_path, command, extra):
        code = run([command, "--family", "jordan", "--n", "3", "--lambda", "1", *extra,
                    "--out-dir", tmp_path])
        assert code == 1
        assert list(tmp_path.iterdir()) == []


class TestResolvent:
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

    def test_recheck_catches_halved_strip_worst_ratio(self, tmp_path):
        assert run(["resolvent", "--family", "heat", "--n", "6",
                    "--out-dir", tmp_path]) == 0
        path = tmp_path / "resolvent-heat-n6.json"
        report = read_report(path)
        report["scans"]["strip"]["worst_ratio"] *= 0.5
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2

    def test_recheck_rejects_non_reports(self, tmp_path):
        path = tmp_path / "nonsense.json"
        path.write_text(json.dumps({"hello": 1}))
        assert run(["recheck", path]) == 1

    def test_recheck_flags_invalid_embedded_candidate(self, tmp_path, capsys):
        assert run(["certify", "--family", "heat", "--n", "4", "--out-dir", tmp_path]) == 0
        path = tmp_path / "certify-heat-n4.json"
        report = read_report(path)
        # swap the embedded candidate for an indefinite matrix
        forged = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        from stabcert.models import matrix_to_json_dict

        report["certificate"]["q"] = matrix_to_json_dict(forged)
        path.write_text(json.dumps(report))
        assert run(["recheck", path]) == 2
        assert "invalid" in capsys.readouterr().out


class TestDesktopScale:
    def test_resolvent_past_the_old_solver_cap(self, tmp_path):
        code = run(["resolvent", "--family", "upwind", "--n", "160", "--n-axis", "9",
                    "--n-interior", "2", "--n-grid", "3", "--out-dir", tmp_path])
        assert code == 0
        assert run(["recheck", tmp_path / "resolvent-upwind-n160.json"]) == 0

    def test_family_above_the_size_gate_is_operational_error(self, tmp_path, capsys):
        code = run(["gen", "--family", "heat", "--n", "257", "--out-dir", tmp_path])
        assert code == 1
        assert "size limit n <= 256" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
