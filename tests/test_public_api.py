"""The package's public names: `__all__` is exactly the names of `_PUBLIC`,
the table that `prefqc.__getattr__` resolves them from.

A function deleted from a module must leave the table too; a name kept in
the table alone no longer resolves.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefqc


def test_every_name_in_all_resolves():
    missing = [name for name in prefqc.__all__ if not hasattr(prefqc, name)]
    assert missing == []


def test_all_is_exactly_the_table_names():
    table_names = [name for names in prefqc._PUBLIC.values() for name in names]
    assert len(table_names) == len(set(table_names))
    assert list(prefqc.__all__) == sorted(table_names)


def test_all_is_unique_and_sorted():
    assert list(prefqc.__all__) == sorted(set(prefqc.__all__))


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in prefqc._PUBLIC.items() for name in names],
)
def test_every_name_resolves_to_the_object_in_its_module(module, name):
    assert not name.startswith("_")
    defining = importlib.import_module(f"prefqc.{module}")
    assert getattr(prefqc, name) is getattr(defining, name)


def test_dir_lists_every_name():
    assert set(prefqc.__all__) <= set(dir(prefqc))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from prefqc import *", namespace)
    assert all(namespace[name] is getattr(prefqc, name) for name in prefqc.__all__)
    assert set(namespace) - {"__builtins__"} == set(prefqc.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        prefqc.no_such_name
    assert not hasattr(prefqc, "_draw_users")


def test_import_loads_no_submodule():
    script = "import sys, prefqc\nprint([m for m in sys.modules if 'prefqc.' in m])"
    src = str(Path(prefqc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "[]\n"
