"""The package namespace re-exports every module's public names."""

from __future__ import annotations

import importlib
import inspect

import pytest

import gckit

MODULES = ["graphs", "complexes", "orient", "multivectors"]


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_bound_to_the_same_objects(name):
    module = importlib.import_module(f"gckit.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert attr in gckit.__all__
        assert getattr(gckit, attr) is getattr(module, attr), attr


def test_package_all_is_the_union_of_the_modules():
    names = ["__version__"]
    for name in MODULES:
        names += importlib.import_module(f"gckit.{name}").__all__
    assert gckit.__all__ == names


def test_orient_is_the_orientation_morphism():
    assert inspect.isfunction(gckit.orient)
    assert gckit.orient is importlib.import_module("gckit.orient").orient
