#!/usr/bin/env python3
"""Benchmark of the ``cmacg`` command line, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sample-csv --seed 0 --seconds 30 --trace 0

With ``--trace 0`` every invocation is a fresh ``python -m cmacg`` process
(``PYTHONPATH=src``), run back to back: a closed loop with one client.  The
run reports the median wall time of an invocation, draws per second at the
workload's ``--n``, the child's median peak RSS from ``os.wait4``, and the
median set-up time of a fresh interpreter that imports ``cmacg.cli`` and
builds its parser.  Both times are scaled by the host's speed, which a
reference interpreter that only imports numpy gauges before and after
each invocation (see ``run_e2e``).  With ``--trace 1`` fresh children that time their own
``cli.main(argv)`` split the invocation into process and ``main``; then
in-process calls of ``cli.main(argv)``, in pairs without and with the
wrappers of ``tracing.py``, give per-layer times and counts.

Every output is checked outside the timed region.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, the failure ratio and the run's conditions.  Run
records and spans are kept under ``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

import tracing
from workloads import Verdict, default_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PROBES = 9
SETUP_CODE = "import cmacg.cli as cli; cli.build_parser()"
# A fresh interpreter that imports numpy and runs no cmacg code.  Its wall
# time gauges the host's speed at that moment; no change to the program can
# move it.
REFERENCE_CODE = "import numpy"
# The reference probe's wall time at the host speed the times are quoted at:
# its fast-phase time on a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.125
# What ``python -m cmacg`` does, plus timing ``main`` from inside the child.
TIMED_MAIN = (
    "import sys, time\n"
    "import cmacg.cli as cli\n"
    "start = time.perf_counter()\n"
    "code = cli.main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w', encoding='ascii') as out:\n"
    "    out.write(repr(time.perf_counter() - start))\n"
    "sys.exit(code)\n"
)
INVOCATION_TIMEOUT_S = 120.0
# Every run ends, children included, well inside 180 seconds.
RUN_DEADLINE_S = 165.0

E2E_UNITS = {"wall_s": "s", "draws_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    **{name: "s" for name in tracing.SPAN_METRICS},
    **{name: "count" for name in tracing.COUNT_METRICS},
    "distributions.useful_draw_ratio": "ratio",
    "cli.main_s": "s",
    "cli.process_s": "s",
    "cli.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Shot:
    """One child process: wall seconds, peak RSS, user+sys CPU, exit code (None if killed)."""

    wall_s: float
    rss_mib: float
    cpu_s: float
    code: int | None


def launch(argv, cwd, env, timeout) -> Shot:
    """Run one child to completion and take its own rusage from ``os.wait4``."""
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        with lock:
            state["reaped"] = True
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = state["killed"] and os.WIFSIGNALED(status)
    return Shot(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                None if timed_out else proc.returncode)


class Runner:
    """Invokes one workload in its work directory and counts what failed."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload, self.workdir = workload, workdir
        self.argv = workload.argv(seed)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []

    def _timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return max(5.0, min(INVOCATION_TIMEOUT_S, left))

    def _clear_outputs(self):
        for name in self.workload.outputs():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.workdir, name))

    def _stderr_tail(self) -> str:
        with contextlib.suppress(OSError), open(os.path.join(self.workdir, "stderr.txt")) as f:
            return " | ".join(f.read().strip().splitlines()[-3:])
        return ""

    def _record(self, what: str, verdict: Verdict, detail: str = "") -> Verdict:
        self.attempted += 1
        if not verdict.ok:
            self.failures.append(f"{what}: {verdict.reason} {detail}".strip())
        return verdict

    def judge(self, what: str, code, detail: str = "") -> Verdict:
        """A failure is exit 2 or 3, a crash or timeout, or a failed output check."""
        if code is None:
            return self._record(what, Verdict(False, "timed out or crashed"), detail)
        try:
            verdict = self.workload.check(self.workdir, code)
        except (OSError, ValueError) as exc:
            verdict = Verdict(False, f"output unreadable: {exc}")
        return self._record(what, verdict, detail)

    def warm_up(self) -> None:
        """Fill the bytecode cache, untimed and uncounted: users do not pay it every run."""
        launch([sys.executable, "-c", SETUP_CODE], self.workdir, self.env, self._timeout())

    def setup_probe(self) -> Shot:
        shot = launch([sys.executable, "-c", SETUP_CODE], self.workdir, self.env, self._timeout())
        ok = shot.code == 0
        self._record("setup", Verdict(ok, "" if ok else f"exit {shot.code}"), self._stderr_tail())
        return shot

    def reference_probe(self) -> float:
        shot = launch([sys.executable, "-c", REFERENCE_CODE], self.workdir, self.env,
                      self._timeout())
        if shot.code != 0:
            raise RuntimeError(f"reference probe exited {shot.code}: {self._stderr_tail()}")
        return shot.wall_s

    def invoke(self) -> tuple[Shot, Verdict]:
        self._clear_outputs()
        shot = launch([sys.executable, "-m", "cmacg", *self.argv], self.workdir, self.env,
                      self._timeout())
        return shot, self.judge("invocation", shot.code, self._stderr_tail())

    def invoke_timing_main(self) -> tuple[Shot, float | None]:
        """Like ``invoke``, but the child also times its own ``cli.main(argv)``."""
        self._clear_outputs()
        path = os.path.join(self.workdir, "main_s.txt")
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        shot = launch([sys.executable, "-c", TIMED_MAIN, path, *self.argv], self.workdir,
                      self.env, self._timeout())
        verdict = self.judge("invocation", shot.code, self._stderr_tail())
        if not verdict.ok:
            return shot, None
        with open(path, encoding="ascii") as handle:
            return shot, float(handle.read())

    def call_main(self, cli) -> float:
        """Time ``cli.main(argv)`` in this process, with its output discarded."""
        self._clear_outputs()
        sink = io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                try:
                    code = cli.main(self.argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                elapsed = time.perf_counter() - start
        except Exception:
            self._record("in-process", Verdict(False, "crashed"), traceback.format_exc(limit=3))
            return 0.0
        finally:
            os.chdir(here)
        self.judge("in-process", code, sink.getvalue()[-300:])
        return elapsed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail_note(values) -> str:
    """The highest of p90/p99 with ten samples beyond it, or why there is none."""
    for p in (0.99, 0.9):
        if len(values) * (1.0 - p) >= 10:
            cut = statistics.quantiles(values, n=100)[round(p * 100) - 1]
            return f"p{round(p * 100)} {cut:.6g}"
    return "no tail percentile (p90 needs 100 samples)"


def run_e2e(runner: Runner, seconds: int) -> tuple[dict, dict]:
    """Cycles of set-up probe, invocation and reference probe until ``seconds`` pass.

    The host's speed drifts by up to 1.8x within seconds and by 20-30% over
    ten minutes, so raw wall times of the same code differ from run to run
    by more than any useful bound.  Each set-up probe and invocation is
    therefore scaled by the host speed of its moment: REFERENCE_S over the
    faster of the two reference probes that bracket it.  The times reported
    are medians of these scaled samples, in seconds at the reference speed;
    the raw samples are printed and kept in the run record.
    """
    refs = [runner.reference_probe()]
    setups, shots = [], []
    start = time.perf_counter()
    cycle = 0.0
    # Start a cycle only if it should end in time, so the run does not overrun.
    while not shots or time.perf_counter() - start + cycle <= seconds:
        began = time.perf_counter()
        setups.append((runner.setup_probe(), len(refs) - 1))
        shot, verdict = runner.invoke()
        shots.append((shot, verdict.ok, len(refs) - 1))
        refs.append(runner.reference_probe())
        cycle = time.perf_counter() - began
    while len(setups) < SETUP_PROBES:
        setups.append((runner.setup_probe(), len(refs) - 1))
        refs.append(runner.reference_probe())

    def scaled(wall: float, before: int) -> float:
        return wall * REFERENCE_S / min(refs[before], refs[before + 1])

    timed = [(shot, before) for shot, ok, before in shots if ok] or \
        [(shot, before) for shot, _, before in shots]
    good_setups = [(probe, before) for probe, before in setups if probe.code == 0] or setups
    wall = statistics.median(scaled(shot.wall_s, before) for shot, before in timed)
    metrics = {
        "wall_s": wall,
        "draws_per_s": runner.workload.n / wall,
        "peak_rss_mib": statistics.median(shot.rss_mib for shot, _ in timed),
        "setup_s": statistics.median(scaled(probe.wall_s, before)
                                     for probe, before in good_setups),
    }
    samples = {"wall_s": [shot.wall_s for shot, _ in timed],
               "rss_mib": [shot.rss_mib for shot, _ in timed],
               "cpu_s": [shot.cpu_s for shot, _ in timed],
               "setup_s": [probe.wall_s for probe, _ in good_setups],
               "reference_s": refs}
    return metrics, samples


def _import_cmacg():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from cmacg import cli, distributions, serialization, verify
    return cli, distributions, verify, serialization


def run_traced(runner: Runner, seconds: int, run_prefix: str) -> tuple[dict, dict]:
    """Fresh children for the process split, then in-process pairs for the layers.

    An in-process call right after a child, or the first one in this
    process, runs slower than the next; so the children come first, and an
    untimed call precedes the pairs.  Within a pair, the untraced and traced
    calls swap order every time.
    """
    modules = _import_cmacg()
    cli = modules[0]
    start = time.perf_counter()
    children = []
    while not children or time.perf_counter() - start < seconds / 3:
        children.append(runner.invoke_timing_main())
    runner.call_main(cli)
    pairs, spans = [], []
    last = time.perf_counter()
    # Start a pair only if it should end in time.
    while not pairs or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        tracer = tracing.Tracer()
        tracer.run = f"{run_prefix}/pair{len(pairs)}"

        def call_traced():
            with tracer.installed(*modules):
                return runner.call_main(cli)

        if len(pairs) % 2:
            traced, plain = call_traced(), runner.call_main(cli)
        else:
            plain, traced = runner.call_main(cli), call_traced()
        spans.extend(tracer.spans)
        pairs.append({"plain_main_s": plain, "traced_main_s": traced,
                      "layers": tracing.layer_metrics(tracer.spans, tracer.counts)})
    metrics = {}
    for name in pairs[0]["layers"]:
        middle = statistics.median_low if LAYER_UNITS[name] == "count" else statistics.median
        metrics[name] = middle(p["layers"][name] for p in pairs)
    timed = [(shot, main) for shot, main in children if main is not None]
    metrics["cli.main_s"] = statistics.median(main for _, main in timed) if timed else 0.0
    metrics["cli.process_s"] = (
        statistics.median(shot.wall_s - main for shot, main in timed) if timed else 0.0)
    metrics["cli.cpu_s"] = statistics.median(shot.cpu_s for shot, _ in children)
    # The two calls of a pair run back to back, so they share the machine's state.
    metrics["trace.overhead_ratio"] = statistics.median(
        p["traced_main_s"] / p["plain_main_s"] if p["plain_main_s"] > 0 else 0.0 for p in pairs)
    detail = {"children": [{"wall_s": shot.wall_s, "cpu_s": shot.cpu_s, "main_s": main}
                           for shot, main in children],
              "pairs": pairs, "spans": spans}
    return metrics, detail


def src_line_count() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def conditions() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    mask = os.umask(0o022)
    os.umask(mask)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "umask": f"{mask:04o}",
        "src_lines": src_line_count(),
        "platform": platform.platform(),
    }


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload; returns the result and everything behind it."""
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "argv": workload.argv(seed), "conditions": conditions()}
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        workload.prepare(seed, workdir)
        runner = Runner(workload, seed, workdir)
        runner.warm_up()
        run_id = f"{workload.name}/seed{seed}/pid{os.getpid()}"
        if trace:
            metrics, detail = run_traced(runner, seconds, run_id)
            units = LAYER_UNITS
        else:
            metrics, detail = run_e2e(runner, seconds)
            units = E2E_UNITS
        out = os.path.join(workdir, workload.outputs()[0])
        if os.path.exists(out):
            record["output_file_mode"] = f"{os.stat(out).st_mode & 0o777:04o}"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["conditions"]["loadavg_after"] = os.getloadavg()
    spans = detail.pop("spans", None)
    failed = len(runner.failures)
    record.update(detail, failures=runner.failures)
    record["result"] = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    stem = os.path.join(WORK, "results",
                        f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "run"], "spans": spans},
                      handle)
    return record


def report(record: dict) -> None:
    result = record["result"]
    mode = "traced, per layer" if record["trace"] else "end to end, closed loop, one client"
    print(f"workload {record['workload']}  seed {record['seed']}  {mode}")
    print("command: cmacg " + " ".join(record["argv"]))
    samples = record.get("wall_s")
    if samples:
        low, high = quartiles(samples)
        refs = record["reference_s"]
        print(f"  raw wall_s samples {len(samples)}  median {statistics.median(samples):.6g}  "
              f"quartiles {low:.6g} .. {high:.6g}  {tail_note(samples)}")
        print(f"  raw setup_s median {statistics.median(record['setup_s']):.6g}; reference "
              f"probe samples {len(refs)}  median {statistics.median(refs):.6g}  "
              f"(times below are scaled to it reading {REFERENCE_S})")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} {shown} {metric['unit']}")
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio {ratio:.6g} ratio ({result['failed']} of {result['attempted']} "
          f"attempted)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("conditions " + json.dumps(record["conditions"], sort_keys=True))
    print(json.dumps(result, allow_nan=False))


def main(argv=None, workloads=None) -> int:
    workloads = workloads or default_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so that ``launch`` kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "cmacg", "cli.py")):
        print(f"error: no cmacg sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    record = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
