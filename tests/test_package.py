"""The package namespace: ``gwflow`` exports exactly its modules' public names."""

import importlib

import gwflow

MODULES = ("spaces", "flows", "integrate", "experiment", "checks", "portrait")


def test_all_is_the_modules_lists_in_import_order():
    lists = [importlib.import_module(f"gwflow.{name}").__all__ for name in MODULES]
    assert gwflow.__all__ == [name for names in lists for name in names]
    assert len(set(gwflow.__all__)) == len(gwflow.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gwflow import *", namespace)
    for name in ("InadmissibleStateError", "System", "SYSTEMS", "phase_grid"):
        assert name in namespace
    assert namespace["integrate"] is importlib.import_module("gwflow.integrate").integrate
    assert set(gwflow.__all__) <= namespace.keys()
