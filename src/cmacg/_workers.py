"""Forked processes: the package's one fork path, ``forked``, and its one shape of helper,
``helper``, through which ``cmacg verify`` runs its checks and ``cmacg density`` decodes a
CSV input of several pieces.

``forked`` forks a child that runs a function writing to a pipe, and gives the parent the
pipe's read end, or None where the pipe or the fork fails, so that the parent does that
work itself.  However the parent's block ends, the child is killed if it still runs, and
reaped.  Fork, not spawn: a child skips the interpreter's start-up, and it inherits every
module attribute the parent patched.  ``helper`` forks a child through it that takes every
other item of a sequence, and the parent computes whatever the child does not deliver: a
failed fork, an error, a child that died.  ``verify`` forks one helper per parity of the
check positions and only reads; ``serialization.read_draws`` forks one for the odd pieces
and decodes the even ones.  This module loads the harness, ``verify``, only to run checks.

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


@contextlib.contextmanager
def helper(fn, items, parity, fork=True):
    """A helper ``forked``, where ``fork`` is true, to run ``fn`` on the items at positions
    of ``parity`` (0 even, 1 odd); yields whether it was forked and the pairs (item, result)
    of every item in order.  ``result`` is what the helper sent for its item, else None,
    and then the caller computes that item itself.  The helper sends each result
    as soon as it is made, and None where ``fn`` raised a ValidationError or
    NumericalError, so that the caller raises it in its place; once the helper has ended,
    every result is None.  Each process iterates ``items`` itself."""
    def work(pipe):
        try:
            for k, item in enumerate(items):
                if k % 2 == parity:
                    try:
                        result = fn(item)
                    except (ValidationError, NumericalError):  # the caller raises it again
                        result = None
                    pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                    pipe.flush()
        except (ValidationError, NumericalError):  # from ``items``: the caller meets it too
            pass

    def pairs(pipe):
        for k, item in enumerate(items):
            result = None
            if pipe is not None and k % 2 == parity:
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the helper ended
                    pipe = None
            yield item, result

    with forked(work) if fork else contextlib.nullcontext() as pipe:
        yield pipe is not None, pairs(pipe)


def run_checks(params, seed=0, checks=None, sidecar=None, n=None, level=None):
    """``verify.run_suite``'s results, one timed check at a time; ``n`` and ``level``
    default to its own.  Where two usable CPUs, two selected checks and a BLAS thread cap
    are all there, two ``helper``s at one BLAS thread run the checks at even and at odd
    positions, and this process only reads, running any check they do not deliver; else
    it runs them serially.  ``sidecar``, if given, receives ``n``, ``stages`` ({check:
    ms}), ``faults`` ({check: minor page faults}) and ``workers``, 2 where a helper was
    forked, else 1."""
    from . import verify

    n = verify.DEFAULT_SAMPLES if n is None else n
    level = verify.DEFAULT_LEVEL if level is None else level
    selected = verify.select_checks(checks, n, level)  # bad input never forks
    fork = two_cpus() and len(selected) >= 2 and _blas_thread_cap() is not None

    def run(name):
        started, faults = time.perf_counter(), getrusage(RUSAGE_SELF).ru_minflt
        outcome = verify._run_check(name, params, n, seed, level)
        return (name, outcome, round(1000.0 * (time.perf_counter() - started), 3),
                getrusage(RUSAGE_SELF).ru_minflt - faults)

    with helper(run, selected, 0, fork) as (even, evens), \
            helper(run, selected, 1, fork) as (odd, odds):
        timed = [done or other or run(name) for (name, done), (_, other) in zip(evens, odds)]
    if sidecar is not None:
        sidecar.update(n=n, stages={name: ms for name, _, ms, _ in timed},
                       faults={name: faults for name, *_, faults in timed},
                       workers=2 if even or odd else 1)
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
