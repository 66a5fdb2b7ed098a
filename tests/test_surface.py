"""The public surface: each submodule's ``__all__`` is the one export list,
and the package root holds only ``__version__``."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import optmean
from optmean.cli import EXIT_OK, main

# the submodules whose __all__ states the library surface; `cli` is the
# `optmean` command, and an underscored module is private
PUBLIC = ("errors", "estimators", "meta", "order_stats", "simulation", "weights")


def test_public_list_covers_every_public_submodule():
    names = {m.name for m in pkgutil.iter_modules(optmean.__path__)}
    assert {n for n in names if n != "cli" and not n.startswith("_")} == set(PUBLIC)


def test_bare_import_loads_no_submodule_and_no_numpy(tmp_path):
    script = ("import json, sys, optmean; print(json.dumps(sorted(m for m in sys.modules"
              " if m.startswith('optmean.') or m == 'numpy')))")
    src = os.path.dirname(os.path.dirname(optmean.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_root_defines_only_the_version():
    # importing a submodule binds it on the package; nothing else may be there
    assert [n for n, v in vars(optmean).items() if not n.startswith("__")
            and not isinstance(v, types.ModuleType)] == []
    assert isinstance(optmean.__version__, str)


@pytest.mark.parametrize("name", PUBLIC)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"optmean.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_name_is_exported_twice():
    owners = {}
    for name in PUBLIC:
        for export in importlib.import_module(f"optmean.{name}").__all__:
            owners.setdefault(export, []).append(name)
    assert {k: v for k, v in owners.items() if len(v) > 1} == {}


def test_outputs_print_the_package_version(capsys):
    argv = ["estimate", "--scenario", "s1", "--n", "25", "--min", "1", "--median", "5",
            "--max", "12", "--method", "optimal-approx"]
    assert main(argv) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith(f"# optmean {optmean.__version__} estimate (")
    assert main(argv + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["version"] == optmean.__version__
