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

    # verify reports as 0.8.1 wrote them on x86-64 Linux: the default suite, the
    # wide shape, one whose n r = 37035 is not a multiple of 4, so that the
    # whitening GEMM's last columns take its edge kernel, two whose lone last
    # draw joins the block before it (n = 5 and 2 blocks and one draw; the
    # exact-law checks need n >= 10000), and the single-column shape
    @pytest.mark.parametrize("flags, digest", [
        (["--n", "50000"],
         "c8094adac275a00e0fc93ddd015a2c74ef1325c5528ee66f9dbbd14782737eb4"),
        (["--n", "10000", "--m", "12", "--r", "4",
          "--checks", "normalization,unitary_invariance,corollary,general_class"],
         "af35106e2b27ce6aabf136cc5d48c823add3f6e87f54d133b68b1c199fed385f"),
        (["--m", "5", "--r", "3", "--n", "12345"],
         "d94a29424eb129c4d2ff7dce2470b744902b0e8aa96fbc3880677f3c9ccb1f3b"),
        (["--n", "10241"],
         "d446935f3752613ad525e8bb2390cc3616c74cef03d41dfbe86e181a03ae462f"),
        (["--n", "4097", "--checks", "normalization"],
         "35510679291e23f892d3d37bd027c71516c0d379c4f08573fdcfff0fff79e40d"),
        (["--m", "4", "--r", "1", "--n", "10000"],
         "7c901b8114e22193ecedb94d449206398f03b05bcdeb5ec3a7c1f9dee0b65efa"),
    ], ids=["default-suite", "wide", "edge-columns", "lone-last-draw",
            "lone-last-draw-normalization", "single-column"])
    def test_verify_report_digests(self, tmp_path, flags, digest):
        report = str(tmp_path / "report.json")
        assert cli.main(["verify", *flags, "--seed", "1", "--out", report]) == 0
        assert hashlib.sha256(read_bytes(report)).hexdigest() == digest


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


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sample", "--uniform", "--m", "2", "--param", "{param}", "--r", "1", "--n", "5"],
             "--uniform and --param are mutually exclusive"),
            (["sample", "--uniform", "--r", "1", "--n", "5"], "--uniform requires --m"),
            (["sample", "--param", "{wide}", "--r", "1", "--n", "5"],
             "{wide}: parameter matrix must be square, got 2x3"),
            (["sample", "--uniform", "--m", "2", "--r", "1", "--n", "0"],
             "--n must be >= 1, got 0"),
            (["density", "--uniform", "--m", "2", "--r", "2", "--input", "{frames}"],
             "--r 2 does not match frames of width 1"),
            (["verify", "--checks", ","], "--checks is empty"),
            (["sqrt", "--input", "{param}", "--tol", "nan"],
             "tol must be positive and finite, got nan"),
            (["sqrt", "--input", "{param}", "--tol", "inf"],
             "tol must be positive and finite, got inf"),
        ],
        ids=["uniform-and-param", "uniform-without-m", "non-square", "sample-n-0",
             "density-r-mismatch", "verify-empty-checks", "sqrt-tol-nan", "sqrt-tol-inf"],
    )
    def test_exits_two_with_message_and_writes_nothing(
            self, tmp_path, param_csv, capsys, argv, message):
        paths = {"param": param_csv, "wide": str(tmp_path / "wide.csv"),
                 "frames": str(tmp_path / "frames.csv")}
        with open(paths["wide"], "w") as handle:
            handle.write(ser.matrix_to_csv(np.ones((2, 3), dtype=complex)))
        with open(paths["frames"], "w") as handle:
            handle.write(ser.draws_to_csv(np.array([[[1.0], [0.0]]], dtype=complex)))
        out = tmp_path / "out"
        code = cli.main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert sorted(os.listdir(tmp_path)) == ["P.csv", "frames.csv", "wide.csv"]

    def test_non_integer_seed_variable_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "abc")
        out = tmp_path / "draws.csv"
        code = cli.main(["sample", "--uniform", "--m", "2", "--r", "1", "--n", "5",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: CMACG_DEFAULT_SEED is not an integer: 'abc'\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_failed_write_names_the_out_path(self, tmp_path, capsys, target):
        # the temp file the write goes through is never named, and never left behind
        out = tmp_path / "out"
        if target == "directory":
            out.mkdir()
        else:
            out = out / "draws.csv"
        code = cli.main(["sample", "--uniform", "--m", "2", "--r", "1", "--n", "5",
                         "--out", str(out)])
        assert code == 2
        reason = "Is a directory" if target == "directory" else "No such file or directory"
        assert capsys.readouterr().err.endswith(f"] {reason}: {str(out)!r}\n")
        left = [name for _, _, names in os.walk(tmp_path) for name in names]
        assert left == []


class TestLineEndings:
    """Inputs are decoded from their bytes: CR and CRLF lines read as line-feed lines."""

    @pytest.mark.parametrize("newline, line_column, char", [
        ("\r\n", "line 4 column 2", 52),
        ("\r", "line 1 column 50", 49),
    ], ids=["crlf", "lone-cr"])
    def test_json_syntax_error_names_its_place_in_the_file(
            self, tmp_path, param_csv, capsys, newline, line_column, char):
        # json counts characters of the file as it is, CRs included, and lines at line
        # feeds only; 0.8.0 read JSON in text mode and said "line 4 column 2 (char 49)"
        text = '{"draws":\n[[[[1,0]],[[0,0]]],\n[[[0,1]],[[0,0]]]\n,]}\n'
        path, out = tmp_path / "d.json", tmp_path / "out"
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        code = cli.main(["density", "--param", param_csv, "--input", str(path),
                         "--format", "json", "--out", str(out)])
        assert code == 2
        assert path.read_bytes().index(b",]") + 1 == char  # the "]" where a value should be
        assert capsys.readouterr().err == (f"error: {path}: not a draws JSON document: "
                                           f"Expecting value: {line_column} (char {char})\n")
        assert not out.exists()

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_parameter_and_sqrt_inputs_read_as_line_feed_files(
            self, tmp_path, capsys, newline):
        text = ser.matrix_to_csv(np.array([[4.0, 1 + 1j], [1 - 1j, 3.0]]))
        bad = "\n" + text.replace(",", ",x", 1)  # a blank line, then a bad cell on line 2
        for name, body in (("lf", text), ("other", text.replace("\n", newline)),
                           ("lf-bad", bad), ("other-bad", bad.replace("\n", newline))):
            (tmp_path / f"{name}.csv").write_bytes(body.encode("ascii"))
        for name in ("lf", "other"):
            assert cli.main(["sqrt", "--input", str(tmp_path / f"{name}.csv"),
                             "--out", str(tmp_path / f"{name}.root")]) == 0
            assert cli.main(["sample", "--param", str(tmp_path / f"{name}.csv"), "--r", "1",
                             "--n", "3", "--out", str(tmp_path / f"{name}.draws")]) == 0
        for suffix in ("root", "draws"):
            assert (tmp_path / f"other.{suffix}").read_bytes() == (
                tmp_path / f"lf.{suffix}").read_bytes()
        for argv in (["sqrt", "--input", "{}", "--out", "o"],
                     ["sample", "--param", "{}", "--r", "1", "--n", "3", "--out", "o"]):
            errors = []
            for name in ("lf-bad", "other-bad"):
                path = str(tmp_path / f"{name}.csv")
                assert cli.main([arg.format(path) for arg in argv]) == 2
                errors.append(capsys.readouterr().err.replace(path, "FILE"))
            assert errors[0] == errors[1]
            assert errors[0].startswith("error: FILE: line 2 is not numeric: ")


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


class FakeLibc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, option, value):
        self.calls.append((option, value))
        return 1


@pytest.fixture
def entry(monkeypatch):
    """The entry's seams patched: a fake Linux libc, and a ``gc.freeze`` that counts."""
    libc, frozen = FakeLibc(), []
    monkeypatch.setattr(cli.sys, "platform", "linux")
    monkeypatch.setattr(cli, "ctypes", type("FakeCtypes", (), {"CDLL": lambda name: libc}))
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(1))
    return libc, frozen


class TestProcessEntry:
    THRESHOLDS = [(cli.M_MMAP_THRESHOLD, 1 << 20), (cli.M_TRIM_THRESHOLD, 4 << 20)]

    def test_thresholds_before_main_and_freeze_after(self, entry, monkeypatch):
        libc, frozen = entry
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append((list(libc.calls), len(frozen))) or 7)
        assert cli.run() == 7
        assert seen == [(self.THRESHOLDS, 0)] and frozen == [1]
        assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (-3, -1)

    def test_freezes_when_argparse_exits(self, entry, monkeypatch, capsys):
        libc, frozen = entry
        monkeypatch.setattr(cli.sys, "argv", ["cmacg", "sample"])
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 2 and "are required: --r" in capsys.readouterr().err
        assert libc.calls == self.THRESHOLDS and frozen == [1]

    def test_main_touches_neither(self, entry, tmp_path):
        libc, frozen = entry
        out = str(tmp_path / "draws.csv")
        assert cli.main(["sample", "--uniform", "--m", "3", "--r", "2", "--n", "5",
                         "--out", out]) == 0
        assert cli.main(["density", "--uniform", "--m", "3", "--input", out,
                         "--out", str(tmp_path / "dens.csv")]) == 0
        assert (libc.calls, frozen) == ([], [])

    @pytest.mark.parametrize("platform, libc", [("linux", object()), ("darwin", None)],
                             ids=["no-mallopt", "not-linux"])
    def test_runs_without_mallopt(self, monkeypatch, tmp_path, platform, libc):
        def cdll(name):
            assert platform == "linux", "looked for mallopt off Linux"
            return libc

        monkeypatch.setattr(cli.sys, "platform", platform)
        monkeypatch.setattr(cli, "ctypes", type("FakeCtypes", (), {"CDLL": cdll}))
        monkeypatch.setattr(cli.gc, "freeze", lambda: None)
        out = tmp_path / "draws.csv"
        monkeypatch.setattr(cli.sys, "argv", ["cmacg", "sample", "--uniform", "--m", "3",
                                              "--r", "2", "--n", "5", "--out", str(out)])
        assert cli.run() == 0
        assert out.read_text().count("\n") == 15  # m rows a draw

    def test_mmap_threshold_above_every_block(self):
        from cmacg.distributions import BLOCK_BYTES

        assert BLOCK_BYTES < cli.MMAP_THRESHOLD_BYTES < cli.TRIM_THRESHOLD_BYTES

    def test_module_and_script_run_the_entry(self, monkeypatch):
        import runpy

        monkeypatch.setattr(cli, "run", lambda: 5)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("cmacg", run_name="__main__")
        assert exc.value.code == 5
        root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as handle:
            assert 'cmacg = "cmacg.cli:run"' in handle.read()


def run_module(tmp_path, *argv):
    """Exit code, stdout and stderr of ``python -m cmacg argv`` in ``tmp_path``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cmacg", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


class TestModuleExit:
    """A fresh ``python -m cmacg`` leaves every output whole, whatever its exit code."""

    def test_verify_exit_0(self, tmp_path, capsys):
        argv = ["verify", "--checks", "normalization,normal_covariance", "--n", "10000",
                "--seed", "1"]
        code, out, err = run_module(tmp_path, *argv, "--out", "fresh.json")
        inproc = str(tmp_path / "inproc.json")
        assert (code, err) == (cli.main([*argv, "--out", inproc]), "") == (0, "")
        assert out == capsys.readouterr().out and out.count("\n") == 2
        assert read_bytes(tmp_path / "fresh.json") == read_bytes(inproc)
        meta = json.loads((tmp_path / "fresh.json.meta.json").read_text())
        assert list(meta["stages"]) == list(meta["faults"]) == ["normal_covariance",
                                                                 "normalization"]

    def test_sample_and_density_exit_0(self, tmp_path):
        assert run_module(tmp_path, "sample", "--uniform", "--m", "3", "--r", "2", "--n",
                          "3000", "--seed", "3", "--out", "draws.csv") == (0, "", "")
        assert run_module(tmp_path, "density", "--uniform", "--m", "3", "--input", "draws.csv",
                          "--out", "dens.csv") == (0, "", "")
        assert (tmp_path / "dens.csv").read_text().count("\n") == 3000
        for name in ("draws.csv", "dens.csv"):
            assert json.loads((tmp_path / (name + ".meta.json")).read_text())["n"] == 3000

    def test_input_error_exit_2(self, tmp_path):
        code, out, err = run_module(tmp_path, "density", "--uniform", "--m", "3", "--input",
                                    "missing.csv", "--out", "dens.csv")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "missing.csv" in err and err.count("\n") == 1
        assert not (tmp_path / "dens.csv").exists()

    def test_numerical_error_exit_3(self, tmp_path):
        rng = np.random.default_rng(28)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        (tmp_path / "A.csv").write_text(ser.matrix_to_csv(g @ g.conj().T + 0.5 * np.eye(4)))
        code, out, err = run_module(tmp_path, "sqrt", "--input", "A.csv", "--out", "S.csv",
                                    "--max-iter", "1")
        assert (code, out) == (3, "")
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not (tmp_path / "S.csv").exists()
