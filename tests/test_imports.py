"""Each subcommand loads only the modules it runs, and ``import cmacg`` is lazy.

The footprint probes run in fresh interpreters that import numpy first and
report only the modules loaded after it.  numpy 1.24, the supported floor,
imports ``numpy.random`` eagerly; measured against bare numpy, the probes
ask only that cmacg adds no ``numpy.random`` module of its own.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import cmacg
import cmacg.cli as cli

SRC = os.path.dirname(os.path.dirname(cli.__file__))

PROBE = """
import sys
import numpy
before = set(sys.modules)
{body}
print("\\n".join(sorted(set(sys.modules) - before)))
"""

RUN_CLI = """
import runpy
sys.argv = ["cmacg", *sys.argv[1:]]
try:
    runpy.run_module("cmacg", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
"""


def loaded_after_numpy(body, *argv, cwd=None):
    """Modules a fresh interpreter loads running ``body`` after a bare ``import numpy``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *argv],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def random_modules(modules):
    return {name for name in modules if name == "numpy.random" or name.startswith("numpy.random.")}


class TestImportFootprint:
    def test_sample_and_density_skip_the_harness(self, tmp_path):
        sample = loaded_after_numpy(RUN_CLI, "sample", "--uniform", "--m", "3", "--r", "2",
                                    "--n", "3", "--out", "draws.csv", cwd=tmp_path)
        assert "cmacg.cli" in sample and "cmacg.verify" not in sample
        density = loaded_after_numpy(RUN_CLI, "density", "--uniform", "--m", "3",
                                     "--input", "draws.csv", "--out", "dens.csv", cwd=tmp_path)
        assert "cmacg.distributions" in density and "cmacg.verify" not in density
        assert random_modules(density) == set()
        assert (tmp_path / "dens.csv").read_text().count("\n") == 3

    def test_verify_skips_the_csv_encoder(self, tmp_path):
        loaded = loaded_after_numpy(RUN_CLI, "verify", "--checks", "normalization", "--n", "100",
                                    "--out", "r.json", cwd=tmp_path)
        assert "cmacg.verify" in loaded and "cmacg._dtoa" not in loaded

    def test_bare_import_loads_no_submodule(self):
        loaded = loaded_after_numpy("import cmacg")
        assert {name for name in loaded if name.startswith("cmacg")} == {"cmacg"}
        assert random_modules(loaded) == set()

    def test_run_suite_patched_before_first_verify_call(self, tmp_path):
        body = (
            "import cmacg.cli as cli\n"
            "calls = []\n"
            "cli.run_suite = lambda *a, **k: calls.append(k) or []\n"
            "assert cli.main(['verify', '--out', 'r.json']) == 0\n"
            "assert calls == [{'seed': 0, 'checks': None, 'sidecar': {}, 'n': None,"
            " 'level': None}], calls\n"
        )
        loaded = loaded_after_numpy(body, cwd=tmp_path)
        assert "cmacg.verify" not in loaded
        assert (tmp_path / "r.json").read_text() == "[]\n"


class TestLazyExports:
    def test_every_public_name_resolves_to_its_definition(self):
        for name in cmacg.__all__:
            value = getattr(cmacg, name)
            module = sys.modules[f"cmacg.{cmacg._EXPORTS[name]}"]
            assert value is getattr(module, name), name

    def test_star_import_and_dir_list_the_public_names(self):
        namespace = {}
        exec("from cmacg import *", namespace)
        assert set(cmacg.__all__) <= set(namespace)
        assert set(cmacg.__all__) <= set(dir(cmacg))
        assert namespace["RngState"] is np.random.Generator

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cmacg.no_such_name
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cmacg.distributions.no_such_name

    def test_submodules_resolve_as_attributes_after_a_bare_import(self):
        loaded = loaded_after_numpy(
            "import cmacg\nassert cmacg.special.ManifoldDims is cmacg.ManifoldDims\n"
            "assert cmacg.verify.run_suite is cmacg.run_suite"
        )
        assert {"cmacg.special", "cmacg.verify"} <= loaded
