"""The package namespace: its public names, each loaded on first use."""

import importlib

import pytest

import risksharing


def test_each_public_name_is_its_home_modules_object():
    for name, home in risksharing._HOMES.items():
        module = importlib.import_module(f"risksharing.{home}")
        assert getattr(risksharing, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from risksharing import *", namespace)
    assert set(risksharing.__all__) <= set(namespace)


def test_an_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        risksharing.no_such_name


def test_dir_lists_the_public_names():
    assert set(risksharing.__all__) <= set(dir(risksharing))


def test_submodules_import_as_before():
    from risksharing import nash

    assert risksharing.nash is nash and nash.solve_nash is risksharing.solve_nash
