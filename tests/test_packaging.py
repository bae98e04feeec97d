import importlib.metadata
import os
import tomllib

import pytest
from packaging.specifiers import SpecifierSet
from packaging.version import Version

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def _floor(spec):
    """The lowest version a Requires-Python ``spec`` admits, its '>=' clause."""
    (low,) = [Version(s.version) for s in SpecifierSet(spec) if s.operator == ">="]
    return low


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_is_not_below_a_dependency_floor(dependency):
    # below the installed numpy's or scipy's floor, pip fails to resolve the
    # dependency instead of stating which Python the package needs
    with open(PYPROJECT, "rb") as fh:
        ours = _floor(tomllib.load(fh)["project"]["requires-python"])
    theirs = _floor(importlib.metadata.metadata(dependency)["Requires-Python"])
    assert ours >= theirs
