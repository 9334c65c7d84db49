"""The package's exports and submodules, which it imports on first access, and its
record types."""

import importlib
import pathlib
import pickle
import subprocess
import sys

import pytest

import partarget
from partarget.gaussian import BoundPair
from partarget.grid import GridResult
from partarget.inputs import (Allocation, Atom, CostModel, DiscreteDistribution, GridSpec,
                              LeverDelta)
from partarget.linear import LinearParams
from partarget.oracle import Estimate, SimConfig
from partarget.probit import CutoffResult, ProbitParams

# Exports held under another name, or defined in the package itself.
HOME = {"MC_BACKEND": ("partarget._backend", "BACKEND"), "__version__": ("partarget", "__version__")}


@pytest.mark.parametrize("name", partarget.__all__)
def test_export_is_the_defining_modules_object(name):
    value = getattr(partarget, name)
    module, attr = HOME.get(name) or (value.__module__, name)
    assert getattr(importlib.import_module(module), attr) is value


def test_dir_lists_every_export():
    assert set(partarget.__all__) <= set(dir(partarget))


def test_every_submodule_is_an_attribute():
    files = pathlib.Path(partarget.__file__).parent.glob("*.py")
    assert set(partarget._SUBMODULES) == {f.stem for f in files} - {"__init__"}
    for name in partarget._SUBMODULES:
        assert getattr(partarget, name) is importlib.import_module("partarget." + name)
    assert set(partarget._SUBMODULES) <= set(dir(partarget))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(partarget, "no_such_name")
    assert not hasattr(partarget, "GridSpecs")


def test_fresh_interpreter_star_import():
    script = ("import sys\n"
              "import partarget\n"
              "assert 'numpy' not in sys.modules\n"
              "from partarget import *\n"
              "assert GridSpec is sys.modules['partarget.inputs'].GridSpec\n"
              "assert MC_BACKEND == 'numpy' and 'partarget.grid' in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_fresh_interpreter_submodule_attributes():
    script = ("import sys\n"
              "import partarget\n"
              "assert 'numpy' not in sys.modules\n"
              "assert partarget.grid.sweep_grid.__module__ == 'partarget.grid'\n"
              "assert partarget.linear is sys.modules['partarget.linear']\n"
              "assert partarget.probit.ProbitParams is partarget.ProbitParams\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_records_of_other_types_or_fields_differ():
    assert LeverDelta(1.0, 2.0) != CostModel(1.0, 2.0)
    assert LeverDelta(1.0, 2.0).__eq__(CostModel(1.0, 2.0)) is NotImplemented
    assert LeverDelta(1.0, 2.0) != LeverDelta(1.0, 3.0)
    assert len({LeverDelta(1.0, 2.0), LeverDelta(1.0, 2.0), CostModel(1.0, 2.0)}) == 2


# The standard modules that partarget, cli, errors and inputs import when they load.
CLI_STDLIB = "__future__, argparse, bisect, contextlib, io, itertools, math, os, sys, typing"


VALUE_RUN = ("from partarget.cli import run; run(['value', '--model', 'probit', '--base-rate', "
             "'0.05', '--gamma-s', '0.3', '--alpha', '0.002']); ")
LINEAR = ["--model", "linear", "--mu", "1", "--beta-norm", "10", "--gamma-s", "0.3",
          "--alpha", "0.02"]
LEVERS = ["--delta-alpha", "0.001", "--delta-r2", "0.01"]
LINEAR_RUNS = [f"from partarget.cli import run; assert run({argv!r}) == 0; "
               for argv in (["value", *LINEAR], ["par", *LINEAR, *LEVERS],
                            ["bounds", *LINEAR, *LEVERS])]


def test_cli_import_loads_no_heavy_modules():
    # Against a bare interpreter in the same environment, since a site hook may preload modules.
    listing = "import sys; print(' '.join(sorted(sys.modules)))"
    runs = [subprocess.run([sys.executable, "-c", stmt], capture_output=True, text=True, check=True)
            for stmt in (listing, "import partarget.cli; " + listing,
                         "import numpy; " + listing,
                         "import partarget.cli, partarget.grid, partarget.probit, partarget.oracle; "
                         + listing,
                         f"import {CLI_STDLIB}; " + listing, VALUE_RUN + listing,
                         *(run + listing for run in LINEAR_RUNS))]
    bare, cli, numpy, grid, stdlib, value, *linear = (set(run.stdout.split()) for run in runs)
    assert "partarget.cli" in cli
    assert {"numpy", "dataclasses", "inspect", "json", "csv"} & (cli - bare) == set()
    # past the standard modules it names, the CLI loads only the package's own four
    assert cli - stdlib == {"partarget", "partarget.cli", "partarget.errors", "partarget.inputs"}
    # the modules that compute load no json beyond numpy's own: only serialize_grid imports it
    assert "partarget.linear" in grid
    assert {"json", "csv"} & (grid - numpy) == set()
    # only the Monte Carlo kernel imports numpy.random, when it runs
    assert "partarget.oracle" in grid and "partarget.probit" in value
    assert "numpy.random" not in (grid | value) - bare
    # the linear value, par and bounds compute in floats: they load no NumPy, nor
    # the modules that need it
    for modules in linear:
        assert "partarget.linear" in modules
        assert {"numpy", "partarget.grid", "partarget.probit", "partarget.oracle"} & modules == set()


def test_linear_sweep_loads_no_masked_arrays():
    # np.unique imports numpy.ma, about 12 ms of a grid command's start-up; both
    # models' cores find their distinct alphas by sorting instead
    sweep = ["grid", "--alpha-lo", "0.01", "--alpha-hi", "0.3", "--gamma-lo", "0.1",
             "--gamma-hi", "0.9", *LEVERS, "--cost-access", "1", "--cost-prediction", "1"]
    for model in (["--model", "linear", "--mu", "1", "--beta-norm", "10"],
                  ["--model", "probit", "--base-rate", "0.05"]):
        script = (f"import sys; from partarget.cli import run; assert run({sweep + model!r}) == 0; "
                  "assert 'numpy' in sys.modules and 'numpy.ma' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), model


SPEC_FIELDS = {"model": "probit", "alpha_lo": 0.001, "alpha_hi": 0.1, "alpha_count": 5,
               "gamma_lo": 0.1, "gamma_hi": 0.9, "gamma_count": 5,
               "deltas": LeverDelta(0.001, 0.01), "costs": CostModel(1.0, 1.0)}
SPEC = GridSpec(**SPEC_FIELDS, base_rate=0.05)
SPEC_REPR = ("GridSpec(model='probit', alpha_lo=0.001, alpha_hi=0.1, alpha_count=5, gamma_lo=0.1, "
             "gamma_hi=0.9, gamma_count=5, deltas=LeverDelta(delta_alpha=0.001, delta_r2=0.01), "
             "costs=CostModel(cost_access=1.0, cost_prediction=1.0), mu=None, beta_norm=None, "
             "base_rate=0.05, clip_lo=0.5, clip_hi=2.0, alpha_spacing='log')")

# Each record type, its fields in order, and the repr a frozen dataclass gives it.
RECORDS = [
    (LeverDelta, {"delta_alpha": 0.01, "delta_r2": 0.02},
     "LeverDelta(delta_alpha=0.01, delta_r2=0.02)"),
    (CostModel, {"cost_access": 1.0, "cost_prediction": 2.5},
     "CostModel(cost_access=1.0, cost_prediction=2.5)"),
    (GridSpec, {**SPEC_FIELDS, "mu": None, "beta_norm": None, "base_rate": 0.05, "clip_lo": 0.5,
                "clip_hi": 2.0, "alpha_spacing": "log"}, SPEC_REPR),
    (Atom, {"label": "a", "mass": 0.5, "cond_mean": -1.0},
     "Atom(label='a', mass=0.5, cond_mean=-1.0)"),
    (DiscreteDistribution, {"atoms": (Atom("a", 1.0, 2.0),)},
     "DiscreteDistribution(atoms=(Atom(label='a', mass=1.0, cond_mean=2.0),))"),
    (Allocation, {"treated": ("a",), "treated_mass": 0.25, "welfare": 0.5},
     "Allocation(treated=('a',), treated_mass=0.25, welfare=0.5)"),
    (BoundPair, {"lower": 1.0, "upper": 2.0}, "BoundPair(lower=1.0, upper=2.0)"),
    (LinearParams, {"mu": 1.0, "beta_norm": 10.0, "gamma_s": 0.3},
     "LinearParams(mu=1.0, beta_norm=10.0, gamma_s=0.3)"),
    (ProbitParams, {"base_rate": 0.05, "gamma_s": 0.3}, "ProbitParams(base_rate=0.05, gamma_s=0.3)"),
    (CutoffResult, {"passes": True, "margin": 0.5, "degenerate": False},
     "CutoffResult(passes=True, margin=0.5, degenerate=False)"),
    (SimConfig, {"samples": 10000, "seed": 7}, "SimConfig(samples=10000, seed=7)"),
    (Estimate, {"mean": 0.1, "std_error": 0.01, "samples": 10000},
     "Estimate(mean=0.1, std_error=0.01, samples=10000)"),
    (GridResult, {"spec": SPEC, "alphas": (0.1,), "gammas": (0.2,), "cells": None, "contour": ()},
     f"GridResult(spec={SPEC_REPR}, alphas=(0.1,), gammas=(0.2,), cells=None, contour=())"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestRecord:
    def test_repr(self, cls, fields, text):
        assert repr(cls(*fields.values())) == text

    def test_equality_and_hash_by_type_and_fields(self, cls, fields, text):
        rec, values = cls(*fields.values()), tuple(fields.values())
        same = cls(**dict(reversed(fields.items())))
        assert rec == same and not rec != same and hash(rec) == hash(same) == hash(values)
        assert [getattr(rec, name) for name in fields] == list(values)
        assert rec.__eq__(values) is NotImplemented and rec != values
        assert pickle.loads(pickle.dumps(rec)) == rec

    def test_frozen(self, cls, fields, text):
        rec = cls(*fields.values())
        name, value = next(iter(fields.items()))
        for attempt in (lambda: setattr(rec, name, value), lambda: setattr(rec, "other", 1),
                        lambda: delattr(rec, name)):
            with pytest.raises(AttributeError, match="cannot (assign to|delete) field"):
                attempt()
        assert getattr(rec, name) is value and not hasattr(rec, "other")

    def test_bad_arguments(self, cls, fields, text):
        args = list(fields.values())
        first = next(iter(fields))
        for bad in (lambda: cls(), lambda: cls(*args, 0), lambda: cls(*args, unknown=0),
                    lambda: cls(*args[:1], **{first: args[0]})):
            with pytest.raises(TypeError):
                bad()


def test_grid_spec_defaults_keywords_and_dict_order():
    spec = GridSpec(**SPEC_FIELDS, base_rate=0.05)
    assert (spec.mu, spec.beta_norm, spec.clip_lo, spec.clip_hi, spec.alpha_spacing) == \
        (None, None, 0.5, 2.0, "log")
    assert spec == GridSpec(*SPEC_FIELDS.values(), None, None, 0.05, 0.5, 2.0, "log")
    assert spec == GridSpec(base_rate=0.05, **dict(reversed(SPEC_FIELDS.items())))
    assert list(spec.to_dict()) == [
        "model", "alpha_lo", "alpha_hi", "alpha_count", "gamma_lo", "gamma_hi", "gamma_count",
        "delta_alpha", "delta_r2", "cost_access", "cost_prediction", "mu", "beta_norm",
        "base_rate", "clip_lo", "clip_hi", "alpha_spacing"]
    assert GridSpec.from_dict(spec.to_dict()) == spec


def test_records_check_keyword_and_positional_arguments_alike():
    for build in (lambda: LeverDelta(-1.0, 0.0), lambda: LeverDelta(delta_r2=0.0, delta_alpha=-1.0),
                  lambda: GridSpec(**{**SPEC_FIELDS, "alpha_count": 1}, base_rate=0.05)):
        with pytest.raises(partarget.DomainError):
            build()
