import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

from cmacg import StiefelPoint
import cmacg.cli as cli
import cmacg.serialization as ser
import cmacg.verify


@pytest.fixture
def param_csv(tmp_path):
    path = tmp_path / "P.csv"
    path.write_text(ser.matrix_to_csv(np.diag([2.0, 1.0]).astype(complex)))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestSample:
    def test_repeat_runs_byte_identical(self, tmp_path, param_csv):
        out = str(tmp_path / "draws.csv")
        argv = ["sample", "--r", "1", "--n", "100", "--seed", "7", "--param", param_csv, "--out", out]
        assert cli.main(argv) == 0
        first = read_bytes(out)
        assert cli.main(argv) == 0
        assert read_bytes(out) == first

    def test_uniform_draws_revalidate_on_load(self, tmp_path):
        out = str(tmp_path / "draws.csv")
        code = cli.main(
            ["sample", "--uniform", "--m", "3", "--r", "2", "--n", "50", "--seed", "1", "--out", out]
        )
        assert code == 0
        draws = ser.draws_from_csv(read_bytes(out).decode())
        assert draws.shape == (50, 3, 2)
        for frame in draws:
            StiefelPoint(frame)

    def test_first_coordinate_mean_matches_quadrature(self, tmp_path, param_csv):
        # for r=1 and P=diag(2,1) the density w.r.t. the uniform law of
        # u=|h_1|^2 is 0.5*(1-u/2)^-2; its mean is integrable in closed
        # angular coordinates and serves as an independent oracle
        out = str(tmp_path / "draws.csv")
        n = 100000
        code = cli.main(
            ["sample", "--r", "1", "--n", str(n), "--seed", "3", "--param", param_csv, "--out", out]
        )
        assert code == 0
        draws = ser.draws_from_csv(read_bytes(out).decode())
        squared = np.abs(draws[:, 0, 0]) ** 2
        oracle, _ = scipy.integrate.quad(lambda u: u * 0.5 * (1 - u / 2) ** -2, 0.0, 1.0)
        se = squared.std(ddof=1) / np.sqrt(n)
        assert abs(squared.mean() - oracle) <= 4.0 * se

    def test_as_projection(self, tmp_path, param_csv):
        out = str(tmp_path / "proj.csv")
        code = cli.main(
            ["sample", "--r", "1", "--n", "10", "--seed", "2", "--param", param_csv,
             "--out", out, "--as-projection"]
        )
        assert code == 0
        mats = ser.draws_from_csv(read_bytes(out).decode())
        assert mats.shape == (10, 2, 2)
        for mat in mats:
            assert abs(np.trace(mat).real - 1.0) <= 1e-9
            assert np.abs(mat @ mat - mat).max() <= 1e-9

    def test_json_format_round_trip(self, tmp_path, param_csv):
        out = str(tmp_path / "draws.json")
        code = cli.main(
            ["sample", "--r", "1", "--n", "20", "--seed", "4", "--param", param_csv,
             "--out", out, "--format", "json"]
        )
        assert code == 0
        draws = ser.draws_from_json(read_bytes(out).decode())
        assert draws.shape == (20, 2, 1)

    def test_sidecar_schema(self, tmp_path, param_csv):
        out = str(tmp_path / "draws.csv")
        cli.main(["sample", "--r", "1", "--n", "5", "--seed", "11", "--param", param_csv, "--out", out])
        meta = json.load(open(out + ".meta.json"))
        assert set(meta) == {"seed", "m", "r", "n", "param_sha256", "tool_version", "wall_time_ms"}
        assert meta["seed"] == 11
        assert (meta["m"], meta["r"], meta["n"]) == (2, 1, 5)

    def test_output_files_follow_umask(self, tmp_path, param_csv):
        out = str(tmp_path / "draws.csv")
        old = os.umask(0o022)
        try:
            code = cli.main(["sample", "--r", "1", "--n", "5", "--param", param_csv, "--out", out])
        finally:
            os.umask(old)
        assert code == 0
        for path in (out, out + ".meta.json"):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_seed_defaults_and_env(self, tmp_path, param_csv, monkeypatch):
        out = str(tmp_path / "draws.csv")
        cli.main(["sample", "--r", "1", "--n", "5", "--param", param_csv, "--out", out])
        assert json.load(open(out + ".meta.json"))["seed"] == 0
        monkeypatch.setenv("CMACG_DEFAULT_SEED", "5")
        cli.main(["sample", "--r", "1", "--n", "5", "--param", param_csv, "--out", out])
        assert json.load(open(out + ".meta.json"))["seed"] == 5
        cli.main(["sample", "--r", "1", "--n", "5", "--seed", "9", "--param", param_csv, "--out", out])
        assert json.load(open(out + ".meta.json"))["seed"] == 9

    def test_mismatched_m_flag_rejected(self, tmp_path, param_csv, capsys):
        out = str(tmp_path / "draws.csv")
        code = cli.main(
            ["sample", "--m", "3", "--r", "1", "--n", "5", "--param", param_csv, "--out", out]
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_missing_param_rejected(self, tmp_path, capsys):
        code = cli.main(["sample", "--r", "1", "--n", "5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_non_hermitian_param_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(ser.matrix_to_csv(np.array([[1.0, 2.0], [0.0, 1.0]])))
        code = cli.main(
            ["sample", "--r", "1", "--n", "5", "--param", str(bad), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "not Hermitian" in capsys.readouterr().err


class TestDensity:
    def test_uniform_parameter_gives_zeros(self, tmp_path):
        frames = str(tmp_path / "frames.csv")
        out = str(tmp_path / "dens.csv")
        cli.main(["sample", "--uniform", "--m", "3", "--r", "2", "--n", "20", "--seed", "6",
                  "--out", frames])
        code = cli.main(["density", "--uniform", "--m", "3", "--input", frames, "--out", out])
        assert code == 0
        values = [float(line.split(",")[1]) for line in open(out).read().splitlines()]
        assert max(abs(v) for v in values) <= 1e-12

    def test_hand_value(self, tmp_path, param_csv):
        frames = str(tmp_path / "frames.csv")
        out = str(tmp_path / "dens.csv")
        frame = np.array([[[1.0], [0.0]]], dtype=complex)
        with open(frames, "w") as handle:
            handle.write(ser.draws_to_csv(frame))
        code = cli.main(["density", "--param", param_csv, "--input", frames, "--out", out])
        assert code == 0
        value = float(open(out).read().split(",")[1])
        assert value == pytest.approx(np.log(2.0), abs=1e-14)

    def test_off_manifold_frame_reports_row(self, tmp_path, param_csv, capsys):
        frames = str(tmp_path / "frames.csv")
        out = str(tmp_path / "dens.csv")
        stack = np.array([[[1.0], [0.0]], [[1.001], [0.0]]], dtype=complex)
        with open(frames, "w") as handle:
            handle.write(ser.draws_to_csv(stack))
        code = cli.main(["density", "--param", param_csv, "--input", frames, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "frame 1" in err and "residual" in err


class TestVerify:
    def test_square_frame_normalization_small_n(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        param = tmp_path / "any.csv"
        param.write_text(ser.matrix_to_csv(np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)))
        code = cli.main(
            ["verify", "--checks", "normalization", "--r", "2", "--param", str(param),
             "--n", "1000", "--out", report]
        )
        assert code == 0
        entries = json.load(open(report))
        assert entries[0]["verdict"] == "pass"
        assert abs(entries[0]["estimate"] - 1.0) <= 1e-12

    def test_unknown_check(self, tmp_path, capsys):
        code = cli.main(
            ["verify", "--uniform", "--m", "2", "--r", "1", "--checks", "bogus",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_small_n_rejected_before_any_check_runs(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the sample size was validated")

        for name in cmacg.verify.CHECK_NAMES:
            monkeypatch.setattr(cmacg.verify, f"{name}_check", must_not_run)
        report = tmp_path / "r.json"
        code = cli.main(["verify", "--n", "10000", "--out", str(report)])
        assert code == 2
        assert "need n >= 50000, got 10000" in capsys.readouterr().err
        assert not report.exists()

    def test_subset_run_writes_report(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        code = cli.main(
            ["verify", "--uniform", "--m", "2", "--r", "1",
             "--checks", "normalization,normal_covariance", "--n", "50000",
             "--seed", "1", "--out", report]
        )
        assert code == 0
        entries = json.load(open(report))
        assert [e["check_name"] for e in entries] == ["normalization", "normal_covariance"]
        stdout = capsys.readouterr().out
        assert "normalization: pass" in stdout

    def test_report_byte_identical_across_runs(self, tmp_path):
        report = str(tmp_path / "report.json")
        argv = ["verify", "--uniform", "--m", "2", "--r", "1", "--checks", "normalization",
                "--n", "20000", "--seed", "2", "--out", report]
        assert cli.main(argv) == 0
        first = read_bytes(report)
        assert cli.main(argv) == 0
        assert read_bytes(report) == first

    def test_bare_default_suite_passes(self, tmp_path, capsys, monkeypatch):
        # no param, no dims: full default suite on diag(3,2,1) at m=3, r=2
        monkeypatch.chdir(tmp_path)
        code = cli.main(["verify"])
        assert code == 0
        meta = json.load(open("cmacg_verify_report.json.meta.json"))
        assert (meta["m"], meta["r"], meta["n"]) == (3, 2, 100000)
        entries = json.load(open("cmacg_verify_report.json"))
        assert [e["check_name"] for e in entries] == list(cmacg.verify.CHECK_NAMES)
        assert all(e["verdict"] == "pass" for e in entries)

    def test_failing_verdict_exits_one(self, tmp_path, monkeypatch):
        failing = cmacg.verify.VerificationReport(
            check_name="normalization", n_samples=10, estimate=2.0,
            std_error=0.1, target=1.0, verdict="fail", details={},
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [("normalization", failing)])
        code = cli.main(
            ["verify", "--uniform", "--m", "2", "--r", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 1


class TestSqrt:
    def test_diagonal(self, tmp_path):
        inp = tmp_path / "A.csv"
        out = str(tmp_path / "S.csv")
        inp.write_text(ser.matrix_to_csv(np.diag([4.0, 9.0]).astype(complex)))
        code = cli.main(["sqrt", "--input", str(inp), "--out", out])
        assert code == 0
        root = ser.matrix_from_csv(open(out).read())
        np.testing.assert_allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self, tmp_path):
        inp = tmp_path / "A.csv"
        out = str(tmp_path / "S.csv")
        inp.write_text(ser.matrix_to_csv(np.eye(3).astype(complex)))
        assert cli.main(["sqrt", "--input", str(inp), "--out", out]) == 0
        np.testing.assert_allclose(ser.matrix_from_csv(open(out).read()), np.eye(3), atol=1e-13)

    def test_residual_recorded_in_metadata(self, tmp_path):
        rng = np.random.default_rng(27)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = g @ g.conj().T + 0.5 * np.eye(4)
        inp = tmp_path / "A.csv"
        out = str(tmp_path / "S.csv")
        inp.write_text(ser.matrix_to_csv(mat))
        assert cli.main(["sqrt", "--input", str(inp), "--out", out]) == 0
        meta = json.load(open(out + ".meta.json"))
        assert meta["residual"] <= 1e-10 * np.abs(mat).max()

    def test_nonconvergence_exits_three(self, tmp_path, capsys):
        rng = np.random.default_rng(28)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        inp = tmp_path / "A.csv"
        inp.write_text(ser.matrix_to_csv(g @ g.conj().T + 0.5 * np.eye(4)))
        code = cli.main(
            ["sqrt", "--input", str(inp), "--out", str(tmp_path / "S.csv"), "--max-iter", "1"]
        )
        assert code == 3
        assert "residual" in capsys.readouterr().err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmacg", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "cmacg" in proc.stdout
