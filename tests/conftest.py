"""Shared deterministic generators for the test suite, and its check that no forked
child is left behind.

The frame and unitary generators here are QR-based on purpose: they give
the tests a source of manifold points that does not go through the
package's own polar-decomposition machinery.
"""

import os

import numpy as np
import pytest

from cmacg import hermitian_part


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_hpd(rng, dim, cond=50.0):
    """Random Hermitian PD matrix with the given condition number."""
    q = random_unitary(rng, dim)
    if dim == 1:
        eigs = np.ones(1)
    else:
        eigs = np.exp(np.linspace(0.0, np.log(cond), dim))
    return hermitian_part((q * eigs) @ q.conj().T)


def random_frame(rng, m, r):
    """Random semi-unitary m-by-r frame via phase-fixed QR."""
    g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    q, upper = np.linalg.qr(g)
    phases = np.diagonal(upper) / np.abs(np.diagonal(upper))
    return q * phases


def random_unitary(rng, dim):
    return random_frame(rng, dim, dim)
