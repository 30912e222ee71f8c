"""`cmacg verify` on two forked helpers, one for the checks at even positions and one for
those at odd positions: the same report, lines and exit codes as a serial run, and no
helper left behind on any path.  A check that a helper does not deliver (no fork, an
error, a helper that died) runs in the parent.

Patching ``workers._blas_thread_cap`` to return None forces the serial path.  While a
forked child lives, the parent holds OpenBLAS at one thread and the child runs on that one
thread alone.
"""

import errno
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import cmacg
import cmacg.cli as cli
from cmacg import _workers as workers
from cmacg import distributions as dist
from cmacg.errors import NotOnManifold, NumericalError, ValidationError
from conftest import assert_no_child_left

WIDE = ["--m", "12", "--r", "4", "--n", "10000", "--checks",
        "normalization,unitary_invariance,corollary,general_class"]

requires_workers = pytest.mark.skipif(
    not hasattr(os, "fork") or len(os.sched_getaffinity(0)) < 2
    or workers._blas_thread_cap() is None,
    reason="the forked path needs os.fork, two usable CPUs and an OpenBLAS thread cap",
)


on_linux_with_a_cap = pytest.mark.skipif(
    not sys.platform.startswith("linux") or workers._blas_thread_cap() is None,
    reason="counting OS threads needs /proc/self/task, and capping OpenBLAS a thread cap",
)


def blas_threads():
    """The thread count of the OpenBLAS whose cap ``workers._blas_thread_cap`` finds."""
    import ctypes

    from numpy.linalg import _umath_linalg

    cap = workers._blas_thread_cap()
    return getattr(ctypes.CDLL(_umath_linalg.__file__), cap.__name__.replace("set", "get"))()


def os_threads_after_a_threaded_gemm():
    """This process's OS threads once a GEMM of a size OpenBLAS threads has run."""
    a = np.ones((512, 512))
    a @ a
    return len(os.listdir("/proc/self/task"))


def run_verify(tmp_path, capsys, argv, serial=False, name="report.json"):
    """Exit code, report bytes, sidecar, stdout and stderr of one in-process `verify`."""
    out = tmp_path / name
    with pytest.MonkeyPatch.context() as patch:
        if serial:
            patch.setattr(workers, "_blas_thread_cap", lambda: None)
        code = cli.main(["verify", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    report = out.read_bytes() if out.exists() else None
    sidecar = out.parent / (out.name + ".meta.json")
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else None
    return code, report, meta, captured.out, captured.err


def failing_result(name):
    return cmacg.verify.CheckResult(name, "two_sample", 1.0, 0.5, "fail",
                                    {"n_samples": 10000, "functional_description": "injected"})


@requires_workers
class TestSameOutputAsSerial:
    @pytest.mark.parametrize("argv", [["--n", "10000"], WIDE], ids=["default-suite", "wide"])
    def test_report_and_lines_byte_identical(self, tmp_path, capsys, argv):
        forked = run_verify(tmp_path, capsys, argv, name="forked.json")
        serial = run_verify(tmp_path, capsys, argv, serial=True, name="serial.json")
        assert_no_child_left()
        assert forked[2]["workers"] == 2 and serial[2]["workers"] == 1
        assert forked[0] == serial[0] == 0
        assert forked[1] == serial[1]
        assert forked[3] == serial[3] and forked[4] == serial[4] == ""
        assert list(forked[2]["stages"]) == list(serial[2]["stages"])
        assert list(forked[2]["faults"]) == list(serial[2]["stages"])

    def test_report_identical_under_blas_thread_settings(self, tmp_path, capsys):
        _, serial, *_ = run_verify(tmp_path, capsys, ["--n", "10000"], serial=True)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            report = tmp_path / f"report_{threads}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "cmacg", "verify", "--n", "10000", "--out", str(report)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads((tmp_path / f"report_{threads}.json.meta.json").read_text()
                              )["workers"] == 2
            assert report.read_bytes() == serial

    def test_parent_blas_threads_untouched(self, tmp_path, capsys):
        before = blas_threads()
        assert run_verify(tmp_path, capsys, ["--n", "10000"])[2]["workers"] == 2
        assert blas_threads() == before

    def test_failed_verdict_in_a_worker_exits_one(self, tmp_path, capsys, monkeypatch):
        # unitary_invariance, position 1, runs in the odd helper
        monkeypatch.setattr(cmacg.verify, "unitary_invariance_check",
                            lambda *a, **k: failing_result("unitary_invariance"))
        argv = ["--n", "10000", "--checks", "normalization,unitary_invariance,corollary"]
        forked = run_verify(tmp_path, capsys, argv, name="forked.json")
        serial = run_verify(tmp_path, capsys, argv, serial=True, name="serial.json")
        assert_no_child_left()
        assert forked[0] == serial[0] == 1
        assert forked[1] == serial[1] and forked[3] == serial[3]
        assert "unitary_invariance: FAIL" in forked[3]

    def test_density_bug_of_criterion_9_caught_through_the_workers(
            self, tmp_path, capsys, monkeypatch):
        real = dist.cmacg_log_density_batch

        def exponent_bug(p, frames):
            good = real(p, frames)
            return good - (good + p.r * p.logdet_cov) / p.m

        monkeypatch.setattr(dist, "cmacg_log_density_batch", exponent_bug)
        code, _, meta, out, _ = run_verify(tmp_path, capsys, ["--n", "50000"])
        assert_no_child_left()
        assert meta["workers"] == 2
        assert code == 1 and "normalization: FAIL" in out


@requires_workers
class TestErrorsFromWorkers:
    @pytest.mark.parametrize("error, code, prefix", [
        (NumericalError("injected numerical failure"), 3, "numerical error: "),
        (ValidationError("injected invalid input"), 2, "error: "),
    ])
    def test_error_matches_serial_run(self, tmp_path, capsys, monkeypatch, error, code, prefix):
        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(cmacg.verify, "corollary_check", fails)
        argv = ["--n", "10000", "--checks", "normalization,unitary_invariance,corollary"]
        forked = run_verify(tmp_path, capsys, argv)
        assert_no_child_left()
        assert forked[0] == code and forked[1] is None and forked[3] == ""
        assert forked[4] == f"{prefix}{error}\n"
        serial = run_verify(tmp_path, capsys, argv, serial=True)
        assert (serial[0], serial[4]) == (forked[0], forked[4])

    def test_first_error_in_check_order_wins(self, tmp_path, capsys, monkeypatch):
        def late(*args, **kwargs):  # position 3, odd helper
            raise NumericalError("late")

        def early(*args, **kwargs):  # position 1, odd helper: read before position 3
            raise ValidationError("early")

        monkeypatch.setattr(cmacg.verify, "general_class_check", late)
        monkeypatch.setattr(cmacg.verify, "unitary_invariance_check", early)
        code, _, _, _, err = run_verify(tmp_path, capsys, ["--n", "10000"])
        assert_no_child_left()
        assert (code, err) == (2, "error: early\n")

    def test_residual_survives_the_pipe(self, monkeypatch):
        def off_manifold(*args, **kwargs):
            raise NotOnManifold("injected", residual=0.25)

        monkeypatch.setattr(cmacg.verify, "corollary_check", off_manifold)
        params = dist.CmacgParams(np.diag([3.0, 2.0, 1.0]).astype(complex), 2)
        with pytest.raises(NotOnManifold, match="^injected$") as info:
            cli.run_suite(params, checks=("normalization", "unitary_invariance", "corollary"),
                          n=10000)
        assert info.value.residual == 0.25
        assert_no_child_left()

    @pytest.mark.parametrize("death", ["exit", "exception"])
    def test_dead_helper_gives_the_serial_outcome(self, tmp_path, capsys, monkeypatch, death):
        # corollary, position 1, kills the odd helper, and the parent runs it again: an exit
        # only in a child, where the parent's run is the real check; an exception anywhere
        parent, check = os.getpid(), cmacg.verify.corollary_check

        def dies(*args, **kwargs):
            if death == "exception":
                raise RuntimeError("not a cmacg error")
            if os.getpid() != parent:
                os._exit(7)
            return check(*args, **kwargs)

        monkeypatch.setattr(cmacg.verify, "corollary_check", dies)
        argv = ["--n", "10000", "--checks", "normalization,corollary"]
        if death == "exception":
            for serial in (False, True):
                with pytest.raises(RuntimeError, match="^not a cmacg error$"):
                    run_verify(tmp_path, capsys, argv, serial=serial)
                assert_no_child_left()
                assert not (tmp_path / "report.json").exists()
            return
        forked = run_verify(tmp_path, capsys, argv, name="forked.json")
        assert_no_child_left()
        serial = run_verify(tmp_path, capsys, argv, serial=True, name="serial.json")
        assert forked[2]["workers"] == 2 and serial[2]["workers"] == 1
        assert forked[0] == serial[0] == 0
        assert forked[1] == serial[1] and forked[3] == serial[3]
        assert forked[4] == serial[4] == ""

    def test_interrupted_parent_kills_and_reaps_its_workers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cmacg.verify, "normalization_check",
                            lambda *a, **k: time.sleep(60))

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["verify", "--n", "10000", "--out", str(tmp_path / "r.json")])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 30
        assert_no_child_left()
        assert not (tmp_path / "r.json").exists()


@requires_workers
class TestFailedFork:
    @pytest.mark.parametrize("failing, workers_used", [
        ("pipe", 1), ("fork", 1), ("first-fork", 2), ("second-fork", 2)])
    def test_checks_run_in_the_parent_with_the_same_report(
            self, tmp_path, capsys, monkeypatch, failing, workers_used):
        serial = run_verify(tmp_path, capsys, ["--n", "10000"], serial=True, name="serial.json")
        calls, fork, pipe = [], os.fork, os.pipe

        def fails(real, *args):
            calls.append(1)
            if (failing, len(calls)) in {("first-fork", 2), ("second-fork", 1)}:
                return real()
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        if failing == "pipe":
            monkeypatch.setattr(os, "pipe", lambda: fails(pipe))
        else:
            monkeypatch.setattr(os, "fork", lambda: fails(fork))
        before = blas_threads()
        code, report, meta, out, err = run_verify(tmp_path, capsys, ["--n", "10000"])
        assert_no_child_left()
        assert blas_threads() == before
        assert len(calls) == 2
        assert (code, report, out, err) == (0, serial[1], serial[3], "")
        assert meta["workers"] == workers_used


@requires_workers
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="parent-death signal is Linux's")
def test_workers_die_with_a_killed_parent(tmp_path):
    driver = (
        "import os, sys, time\n"
        "import cmacg.cli as cli, cmacg.verify as verify\n"
        "def hang(*args, **kwargs):\n"
        "    open(f'{os.getpid()}.pid', 'w').close()\n"
        "    time.sleep(60)\n"
        "verify.normalization_check = verify.corollary_check = hang\n"
        "cli.main(['verify', '--n', '10000', '--checks', 'normalization,corollary'])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(
        cli.__file__)), env.get("PYTHONPATH")]))
    parent = subprocess.Popen([sys.executable, "-c", driver], cwd=tmp_path, env=env)
    try:
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob("*.pid"))) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        pids = [int(path.stem) for path in tmp_path.glob("*.pid")]
        assert len(pids) == 2
    finally:
        parent.kill()
        parent.wait()

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 10
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids))


@on_linux_with_a_cap
class TestOneBlasThreadWhileForked:
    """A thread-count call made after a fork starts an OpenBLAS pool whose idle thread
    busy-waits, so no child makes one: it inherits the one thread its parent holds."""

    def test_child_runs_a_threaded_gemm_on_one_os_thread(self):
        before = blas_threads()

        def work(pipe):
            pipe.write(str(os_threads_after_a_threaded_gemm()).encode())

        with workers.forked(work) as pipe:
            assert int(pipe.read()) == 1
            assert blas_threads() == 1
        assert_no_child_left()
        assert blas_threads() == before

    @requires_workers
    def test_verify_workers_run_on_one_os_thread(self, monkeypatch):
        def counting(*args, **kwargs):
            return cmacg.verify.CheckResult(
                "counted", "two_sample", 0.0, 1.0, "pass",
                {"pid": os.getpid(), "os_threads": os_threads_after_a_threaded_gemm()})

        names = ("normalization", "unitary_invariance", "corollary")
        for name in names:
            monkeypatch.setattr(cmacg.verify, f"{name}_check", counting)
        params = dist.CmacgParams(np.diag([3.0, 2.0, 1.0]).astype(complex), 2)
        before, sidecar = blas_threads(), {}
        results = workers.run_checks(params, checks=names, n=10000, sidecar=sidecar)
        assert_no_child_left()
        assert sidecar["workers"] == 2 and blas_threads() == before
        details = [outcome.details for _, outcome in results]
        assert len({d["pid"] for d in details} | {os.getpid()}) == 3
        assert [d["os_threads"] for d in details] == [1, 1, 1]


class TestWhenNotToFork:
    def test_single_check_never_forks(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a single check")

        monkeypatch.setattr(os, "fork", no_fork)
        code, _, meta, _, _ = run_verify(
            tmp_path, capsys, ["--checks", "normalization", "--n", "2000"])
        assert code == 0 and meta["workers"] == 1

    def test_bad_input_never_forks(self, tmp_path, capsys, monkeypatch):
        def no_fork():
            raise AssertionError("forked before the input was validated")

        monkeypatch.setattr(os, "fork", no_fork)
        for argv, message in [(["--n", "9999"], "need n >= 10000, got 9999"),
                              (["--level", "2"], "level must be in (0, 1)"),
                              (["--checks", "normalization,nope"], "unknown checks ['nope']"),
                              (["--checks", "corollary,normal_covariance,corollary"],
                               "repeated checks ['corollary']")]:
            code, report, _, _, err = run_verify(tmp_path, capsys, argv)
            assert code == 2 and report is None and message in err

    def test_no_thread_cap_runs_serially(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(workers, "_blas_thread_cap", lambda: calls.append(1))
        code, _, meta, _, _ = run_verify(tmp_path, capsys,
                                         ["--checks", "normalization,unitary_invariance",
                                          "--n", "10000"])
        assert (code, meta["workers"], calls) == (0, 1, [1])


class TestVerifySidecar:
    def test_exact_keys(self, tmp_path, capsys):
        code, _, meta, _, _ = run_verify(
            tmp_path, capsys, ["--checks", "normal_covariance,normalization", "--n", "10000"])
        assert code == 0
        assert set(meta) == {"seed", "m", "r", "n", "param_sha256", "tool_version",
                             "wall_time_ms", "stages", "faults", "workers"}
        assert meta["n"] == 10000 and meta["workers"] in (1, 2)
        assert list(meta["stages"]) == list(meta["faults"]) == ["normal_covariance",
                                                                 "normalization"]
        assert all(ms > 0 for ms in meta["stages"].values())
        assert all(isinstance(count, int) and count >= 0 for count in meta["faults"].values())
