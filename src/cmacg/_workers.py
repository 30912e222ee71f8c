"""The checks of ``cmacg verify``, run on two forked worker processes where that is possible.

Each check draws from its own stream, ``derive_rng(seed, lane)``, so a check's result does
not depend on the process that runs it, and the report is the same serial or forked.  Each
worker caps its own OpenBLAS at one thread: uncapped, two workers put twice as many BLAS
threads as CPUs to work, and measured slower than one serial process.  The parent's BLAS
setting is never touched.  Fork, not spawn: a forked worker skips the interpreter's
start-up, and it inherits every module attribute the parent patched.  OpenBLAS shuts its
thread pool down around a fork (``pthread_atfork``), so a worker starts with none.
``verify.run_suite`` stays serial, so a library caller never forks unasked.  Only the
``verify`` command loads this module.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import sys
import time

from numpy.linalg import _umath_linalg

from . import verify
from .errors import NumericalError, ValidationError

# The thread-cap function of each OpenBLAS build numpy ships or links, found by name as
# threadpoolctl finds it; each is OpenBLAS's openblas_set_num_threads(int): numpy 2's
# scipy-openblas, numpy 1's 64-bit OpenBLAS, a system OpenBLAS.
BLAS_THREAD_CAPS = (
    "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)
# Positions in the selected checks that the second verify worker runs; the first runs the
# rest.  For the default checks each half takes about half the time.
SECOND_WORKER = (1, 2)
PR_SET_PDEATHSIG = 1  # Linux's prctl option: a signal for this process when its parent dies


def run_checks(params, seed=0, checks=None, sidecar=None, n=verify.DEFAULT_SAMPLES,
               level=verify.DEFAULT_LEVEL):
    """``verify.run_suite``'s results, one timed check at a time.  Where ``os.fork``, two
    usable CPUs, two selected checks and a BLAS thread cap are all there, the checks run on
    two forked workers, else serially.  ``sidecar``, if given, receives ``n``, ``stages``
    ({check: ms}) and ``workers``."""
    selected = verify.select_checks(checks, n, level)  # bad input never forks
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else ()
    fork = hasattr(os, "fork") and len(cpus) >= 2 and len(selected) >= 2
    cap = _blas_thread_cap() if fork else None

    def run(names):
        for name in names:
            started = time.perf_counter()
            outcome = verify._run_check(name, params, n, seed, level)
            yield name, outcome, round(1000.0 * (time.perf_counter() - started), 3)

    timed = list(run(selected)) if cap is None else _on_two_workers(cap, selected, run)
    if sidecar is not None:
        sidecar.update(n=n, stages={name: ms for name, _, ms in timed},
                       workers=1 if cap is None else 2)
    return [(name, outcome) for name, outcome, _ in timed]


def _blas_thread_cap():
    """The thread-cap function of the BLAS that numpy's linalg loaded, or None."""
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for name in BLAS_THREAD_CAPS:
        if hasattr(library, name):
            cap = getattr(library, name)
            cap.argtypes, cap.restype = [ctypes.c_int], None
            return cap
    return None


def _on_two_workers(cap, names, run):
    """``run``'s items for ``names``, split between two forked workers each capped at one
    BLAS thread, in the order of ``names``.  The first ValidationError or NumericalError
    in that order is raised, as a serial run raises it; a worker that ends without a result
    is a NumericalError at its first check.  Every worker is reaped on every path, and
    killed first if the parent leaves early."""
    groups = ([i for i in range(len(names)) if i not in SECOND_WORKER],
              [i for i in range(len(names)) if i in SECOND_WORKER])
    live, slots, parent = {}, {}, os.getpid()
    try:
        for group in groups:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(cap, run, [names[i] for i in group], read_end, write_end, parent)
            os.close(write_end)
            live[pid] = group, os.fdopen(read_end, "rb")
        for pid, (group, pipe) in list(live.items()):
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if status == 0:
                slots.update(zip(group, pickle.loads(payload)))
    finally:
        for pid, (_, pipe) in live.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    for i in range(len(names)):
        if i not in slots:
            lost = groups[1] if i in SECOND_WORKER else groups[0]
            raise NumericalError(f"the verify worker for checks "
                                 f"{', '.join(names[j] for j in lost)} ended without a result")
        if isinstance(slots[i], Exception):
            raise slots[i]
    return [slots[i] for i in range(len(names))]


def _work(cap, run, names, read_end, write_end, parent):
    """A worker's whole life: one BLAS thread, then ``run(names)``'s items, and the
    ValidationError or NumericalError that stopped it if one did, pickled down the pipe.
    It leaves by ``os._exit``, so it never returns into the parent's code or flushes the
    parent's stdio; any other exception prints its traceback and leaves no result.  On
    Linux it dies with the ``parent`` process, even one killed by a signal it cannot catch."""
    status = 1
    try:
        os.close(read_end)
        if sys.platform.startswith("linux"):
            ctypes.CDLL(None).prctl(ctypes.c_int(PR_SET_PDEATHSIG), ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # the parent died before that took hold
            return
        cap(1)
        done = []
        try:
            for item in run(names):
                done.append(item)
        except (ValidationError, NumericalError) as exc:
            done.append(exc)
        payload = pickle.dumps(done)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)
