"""The package namespace: its public names and how they load."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sgsolve

SUBMODULES = ["exact", "graphs", "model", "objectives", "oracle", "simulate", "strategies",
              "textio", "transforms", "values", "winning"]

PUBLIC = sorted(SUBMODULES + [
    "Estimate", "Game", "GameFormatError", "IntervalValues", "InvariantError", "LazyGame",
    "MDStrategy", "Objective", "ObjectiveKind", "Owner", "ParsedGame",
    "SgsolveError", "SimConfig", "SinkMode", "StateInfo", "ThresholdVerdict",
    "TransducerStrategy", "Truncation", "TruncationError", "ValueDecreaseError", "ValueVector",
    "Verdict", "Violation", "WinningPartition", "almost_sure_buchi", "almost_sure_reach",
    "almost_sure_safety", "apply_md", "bellman_step", "bounding_sinks", "buchi",
    "buchi_md_pair", "chain_buchi_values", "classify_transitions", "cobuchi", "decided",
    "epsilon_horizon", "format_game", "format_strategy", "interval_values",
    "md_enumeration_oracle", "md_to_transducer", "mdp_buchi_exact", "optimal_max_md",
    "optimal_max_md_no_decrease", "optimal_min_md", "parse_game", "parse_objective",
    "parse_strategy", "positive_reach_set", "reach", "reach_plus", "reachplus_max_md",
    "reachplus_min_md", "rvi", "safety", "sample_plays", "swap_roles", "threshold_decide",
    "truncate", "validate", "value_buchi", "value_cobuchi", "value_reach",
    "value_reach_within", "value_safety",
])


def test_public_names_are_pinned():
    assert len(PUBLIC) == 77
    assert sorted(sgsolve.__all__) == PUBLIC


def test_every_name_is_the_object_its_module_defines():
    for name in PUBLIC:
        value = getattr(sgsolve, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"sgsolve.{name}")
        else:
            assert not isinstance(value, types.ModuleType)
            assert value is getattr(sys.modules[value.__module__], name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sgsolve import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_star_import_works_from_a_fresh_interpreter():
    # Nothing of the package is loaded before the first name is asked for.
    probe = ("import sys, sgsolve; before = [m for m in sys.modules if m.startswith('sgsolve.')]; "
             "from sgsolve import *; print(before, len(sgsolve.__all__), value_reach.__module__)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(Path(sgsolve.__file__).parents[1])),
                          check=True)
    assert done.stdout.split() == ["[]", "77", "sgsolve.values"]


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(sgsolve))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'value_reachh'"):
        sgsolve.value_reachh
    with pytest.raises(ImportError):
        exec("from sgsolve import value_reachh", {})
