"""Forked processes: the package's one fork path, ``forked``, and the checks of
``cmacg verify`` on two forked workers where that is possible.

``forked`` forks a child that runs a function writing to a pipe, and gives the parent the
pipe's read end, or None where the pipe or the fork fails, so that the parent does that
work itself.  However the parent's block ends, the child is killed if it still runs, and
reaped.  Fork, not spawn: a child skips the interpreter's start-up, and it inherits every
module attribute the parent patched.  ``cmacg verify`` forks its two workers through it,
and ``serialization.read_draws`` the helper that decodes every other piece of a
``cmacg density`` CSV input.  This module loads the harness, ``verify``, only to run
checks.

Each check draws from its own stream, ``derive_rng(seed, lane)``, so a check's result does
not depend on the process that runs it, and the report is the same serial or forked.  While
a forked child lives, the parent holds OpenBLAS at one thread, and the child inherits it:
uncapped, two processes put twice as many BLAS threads as CPUs to work, and a thread-count
call made after a fork, which shuts OpenBLAS's pool down (``pthread_atfork``), starts a new
pool whose idle thread busy-waits for about 0.13 s.  ``verify.run_suite`` stays serial, so a
library caller never forks unasked.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import sys
import time
from resource import RUSAGE_SELF, getrusage

from numpy.linalg import _umath_linalg

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


def two_cpus() -> bool:
    """Whether this process can fork and has two usable CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@contextlib.contextmanager
def forked(work):
    """The read end of a pipe from a child forked to run ``work(pipe)``, ``pipe`` the
    buffered binary write end, or None where ``os.pipe`` or ``os.fork`` failed, so that the
    parent does that work itself.  A result the child did not finish writing reads as
    truncated.  The parent holds OpenBLAS at one thread from before the fork; when the block
    ends, the child is killed if it still runs, reaped, and the count from before is set
    back, so nested blocks set theirs back in reverse order."""
    parent, pid = os.getpid(), None
    try:
        read_end, write_end = os.pipe()
    except OSError:
        pass
    else:
        release = _one_blas_thread()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            release()
    if pid is None:
        yield None
        return
    if pid == 0:
        _run_child(work, read_end, write_end, parent)
    os.close(write_end)
    pipe = os.fdopen(read_end, "rb")
    try:
        yield pipe
    finally:  # kill first: a child writing to a closed pipe would print an error
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pipe.close()
        release()


def _one_blas_thread():
    """Cap OpenBLAS at one thread where a cap is found, and return the call that undoes it."""
    cap = _blas_thread_cap()
    if cap is None:
        return lambda: None
    threads = ctypes.CDLL(_umath_linalg.__file__)[cap.__name__.replace("set", "get")]
    threads.argtypes, threads.restype = [], ctypes.c_int
    before = threads()
    cap(1)
    return functools.partial(cap, before)


def _run_child(work, read_end, write_end, parent):
    """A child's whole life: ``work`` on the pipe's write end, then ``os._exit``, 0 if it
    returned, else 1 with its traceback on stderr, so that it never returns into the
    parent's code or flushes the parent's stdio.  On Linux it dies with the ``parent``
    process, even one killed by a signal it cannot catch."""
    status = 1
    try:
        os.close(read_end)
        if sys.platform.startswith("linux"):
            ctypes.CDLL(None).prctl(ctypes.c_int(PR_SET_PDEATHSIG), ctypes.c_ulong(signal.SIGKILL))
        if os.getppid() != parent:  # the parent died before that took hold
            return
        with os.fdopen(write_end, "wb") as pipe:
            work(pipe)
        status = 0
    except BaseException:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def run_checks(params, seed=0, checks=None, sidecar=None, n=None, level=None):
    """``verify.run_suite``'s results, one timed check at a time; ``n`` and ``level``
    default to its own.  Where two usable CPUs, two selected checks and a BLAS thread cap
    are all there, the checks run on two workers ``forked`` at one BLAS thread, else
    serially.  ``sidecar``, if given, receives ``n``, ``stages`` ({check: ms}), ``faults``
    ({check: minor page faults}) and ``workers``, the number of processes that ran checks."""
    from . import verify

    n = verify.DEFAULT_SAMPLES if n is None else n
    level = verify.DEFAULT_LEVEL if level is None else level
    selected = verify.select_checks(checks, n, level)  # bad input never forks
    forks = two_cpus() and len(selected) >= 2 and _blas_thread_cap() is not None

    def run(names):
        for name in names:
            started, faults = time.perf_counter(), getrusage(RUSAGE_SELF).ru_minflt
            outcome = verify._run_check(name, params, n, seed, level)
            yield (name, outcome, round(1000.0 * (time.perf_counter() - started), 3),
                   getrusage(RUSAGE_SELF).ru_minflt - faults)

    timed, workers = _on_two_workers(selected, run) if forks else (list(run(selected)), 1)
    if sidecar is not None:
        sidecar.update(n=n, stages={name: ms for name, _, ms, _ in timed},
                       faults={name: faults for name, *_, faults in timed}, workers=workers)
    return [(name, outcome) for name, outcome, *_ in timed]


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


def _on_two_workers(names, run):
    """``run``'s items for ``names`` in their order, split between two forked workers, and
    the number of processes that ran them; a group that cannot be forked runs in the parent.
    The first ValidationError or NumericalError in that order is raised, as a serial run
    raises it; a worker that ends without a result is a NumericalError at its first check."""
    groups = ([i for i in range(len(names)) if i not in SECOND_WORKER],
              [i for i in range(len(names)) if i in SECOND_WORKER])
    slots = {}
    with contextlib.ExitStack() as stack:
        pipes = [stack.enter_context(forked(functools.partial(
            _work, run, [names[i] for i in group]))) for group in groups]
        for group, pipe in zip(groups, pipes):
            if pipe is None:
                slots.update(zip(group, _results(run, [names[i] for i in group])))
        for group, pipe in zip(groups, pipes):
            try:
                slots.update(zip(group, pickle.loads(pipe.read()) if pipe else ()))
            except (EOFError, pickle.UnpicklingError):  # the worker ended without a result
                pass
    for i in range(len(names)):
        if i not in slots:
            lost = groups[1] if i in SECOND_WORKER else groups[0]
            raise NumericalError(f"the verify worker for checks "
                                 f"{', '.join(names[j] for j in lost)} ended without a result")
        if isinstance(slots[i], Exception):
            raise slots[i]
    return [slots[i] for i in range(len(names))], 2 if any(pipes) else 1


def _results(run, names):
    """``run(names)``'s items, and the ValidationError or NumericalError that stopped it
    if one did."""
    done = []
    try:
        for item in run(names):
            done.append(item)
    except (ValidationError, NumericalError) as exc:
        done.append(exc)
    return done


def _work(run, names, pipe):
    """A verify worker: ``_results`` pickled down the pipe, on the one BLAS thread it
    inherits from ``forked`` (a thread-count call of its own would start a spinning pool);
    any other exception leaves no result."""
    pipe.write(pickle.dumps(_results(run, names)))
