import hashlib
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

from cmacg import CmacgParams, StiefelPoint
import cmacg.cli as cli
import cmacg.serialization as ser
import cmacg.verify
from conftest import random_hpd


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

    def test_holds_at_parameter_condition_edge(self, tmp_path):
        # CmacgParams accepts condition numbers up to 1e10, and so must sampling
        param = tmp_path / "P.csv"
        param.write_text(ser.matrix_to_csv(random_hpd(np.random.default_rng(5), 3, 1e10)))
        out = str(tmp_path / "draws.csv")
        code = cli.main(["sample", "--r", "2", "--n", "20000", "--seed", "1",
                         "--param", str(param), "--out", out])
        assert code == 0
        with open(out) as handle:
            frames = ser.draws_from_csv(handle.read())
        assert np.abs(np.swapaxes(frames.conj(), 1, 2) @ frames - np.eye(2)).max() <= 1e-10

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


class TestPinnedBytes:
    # One sample file and the density file of it, as 0.6.0 wrote them on
    # x86-64 Linux: the CSV encoder, the draw and the density must all keep
    # these bytes.  The parameter file is written out literally.
    PARAM = "2,0,0.5,-0.25,0,0.125\n0.5,0.25,1,0,0,0\n0,-0.125,0,0,3,0\n"

    def test_sample_and_density_csv_digests(self, tmp_path):
        param, draws, dens = (str(tmp_path / name) for name in ("P.csv", "draws.csv", "dens.csv"))
        with open(param, "w") as handle:
            handle.write(self.PARAM)
        assert cli.main(["sample", "--param", param, "--r", "2", "--n", "2000", "--seed", "2020",
                         "--out", draws]) == 0
        assert cli.main(["density", "--param", param, "--input", draws, "--out", dens]) == 0
        assert hashlib.sha256(read_bytes(draws)).hexdigest() == (
            "ecfca8fa08d1af0bf8d4a65e1a1fbcedbffa8df3de80306d4e306486b71b0fc5")
        assert hashlib.sha256(read_bytes(dens)).hexdigest() == (
            "6ebeb2c99ebe6c34d0f417691361f1f8143ed1dea2634f39fb5d7ebd016a4b73")


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

    @pytest.mark.parametrize(
        "draws",
        [
            [[[[1, 0]], [[0, 0]]], [[[1, 0], [0, 0]]]],  # draws of different shapes
            [[[[1, 0], [0, 0]], [[0, 0]]]],  # ragged rows inside one draw
            [[[[1, 0]], [["zero", 0]]]],  # non-numeric cell
        ],
    )
    def test_malformed_json_frames_exit_two(self, tmp_path, param_csv, capsys, draws):
        frames = tmp_path / "frames.json"
        frames.write_text(json.dumps({"draws": draws}))
        out = str(tmp_path / "dens.json")
        code = cli.main(["density", "--param", param_csv, "--input", str(frames),
                         "--format", "json", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {frames}: ") and "Traceback" not in err
        assert not os.path.exists(out)


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
        assert abs(entries[0]["details"]["estimate"] - 1.0) <= 1e-12

    def test_unknown_check(self, tmp_path, capsys):
        code = cli.main(
            ["verify", "--uniform", "--m", "2", "--r", "1", "--checks", "bogus",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown checks ['bogus']" in err
        assert f"available: {', '.join(cmacg.verify.CHECK_NAMES)}" in err

    def test_report_format_is_json_only(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--format", "csv", "--out", str(report)])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err
        assert not report.exists()

    def test_small_n_rejected_before_any_check_runs(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the sample size was validated")

        for name in cmacg.verify.CHECK_NAMES:
            monkeypatch.setattr(cmacg.verify, f"{name}_check", must_not_run)
        report = tmp_path / "r.json"
        code = cli.main(["verify", "--n", "9999", "--out", str(report)])
        assert code == 2
        assert "need n >= 10000, got 9999" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("level", ["0", "2", "nan"])
    def test_bad_level_rejected_before_any_check_runs(self, tmp_path, capsys, monkeypatch, level):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a check ran before the level was validated")

        for name in cmacg.verify.CHECK_NAMES:
            monkeypatch.setattr(cmacg.verify, f"{name}_check", must_not_run)
        report = tmp_path / "r.json"
        code = cli.main(["verify", "--checks", "normalization,unitary_invariance",
                         "--level", level, "--out", str(report)])
        assert code == 2
        assert "level must be in (0, 1)" in capsys.readouterr().err
        assert not report.exists()

    def test_report_schema(self, tmp_path, capsys):
        report = str(tmp_path / "report.json")
        code = cli.main(["verify", "--uniform", "--m", "2", "--r", "1", "--n", "50000",
                         "--seed", "5", "--out", report])
        entries = json.load(open(report))
        params = CmacgParams(np.eye(2, dtype=complex), 1)
        results = cmacg.verify.run_suite(params, n=50000, seed=5)
        assert code == (0 if all(outcome.passed for _, outcome in results) else 1)
        two_sample = {"n_samples", "functional_description"}
        details = {
            "normalization": {"n_samples", "estimate", "std_error", "target", "k", "atol",
                              "m", "r"},
            "unitary_invariance": two_sample,
            "corollary": two_sample,
            "general_class": two_sample,
            "normal_covariance": two_sample,
        }
        assert [e["check_name"] for e in entries] == list(details)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(entries)
        for entry, (name, outcome), line in zip(entries, results, lines):
            assert set(entry) == {"check_name", "kind", "statistic", "threshold", "verdict",
                                  "details"}
            assert set(entry["details"]) == details[name]
            assert entry == {"check_name": outcome.name, "kind": outcome.kind,
                             "statistic": outcome.statistic, "threshold": outcome.threshold,
                             "verdict": outcome.verdict, "details": outcome.details}
            assert entry["kind"] == ("verification_report" if name == "normalization"
                                     else "two_sample")
            status = "pass" if outcome.passed else "FAIL"
            assert line == (f"{name}: {status} (statistic={outcome.statistic:.6g} "
                            f"threshold={outcome.threshold:.6g})")

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

    def test_report_independent_of_blas_threads(self, tmp_path):
        # the functionals run as threaded BLAS products; the report must not
        # depend on how many threads OpenBLAS uses
        src = os.path.dirname(os.path.dirname(cmacg.verify.__file__))
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            report = tmp_path / f"report_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "cmacg", "verify", "--m", "12", "--r", "4",
                 "--n", "10000", "--seed", "0", "--checks", "unitary_invariance,corollary",
                 "--out", str(report)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode in (0, 1), proc.stderr
            reports.append(read_bytes(report))
        assert reports[0] == reports[1]

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
        failing = cmacg.verify.CheckResult(
            name="normalization", kind="verification_report", statistic=1.0,
            threshold=0.4, verdict="fail", details={},
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


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--param", "{param}", "--input", "{bad}", "--out", "{out}"],
            ["density", "--param", "{param}", "--input", "{bad}", "--format", "json",
             "--out", "{out}"],
            ["sample", "--param", "{bad}", "--r", "1", "--n", "5", "--out", "{out}"],
            ["sqrt", "--input", "{bad}", "--out", "{out}"],
        ],
        ids=["density-csv", "density-json", "sample-param", "sqrt"],
    )
    def test_non_utf8_file_exits_two(self, tmp_path, param_csv, capsys, argv):
        bad, out = str(tmp_path / "bad.csv"), str(tmp_path / "out")
        with open(bad, "wb") as handle:
            handle.write(b"\xff\xfe1,2\n")
        code = cli.main([arg.format(param=param_csv, bad=bad, out=out) for arg in argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and "Traceback" not in err
        assert not os.path.exists(out)


class TestEntryPoints:
    def test_traced_seams_stay_module_attributes(self):
        # perfbench/tracing.py wraps these by name in cli, where the handlers look them up
        for name in ("run_suite", "sample_cmacg_batch", "cmacg_log_density_batch",
                     "hermitian_part"):
            assert callable(getattr(cli, name)), name

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cmacg", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "cmacg" in proc.stdout
