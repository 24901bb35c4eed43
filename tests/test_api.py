"""The package's export list: every name resolves, once, and none is stale."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import dphotelling

# Public names deleted, kept in their module but no longer exported
# (solve_b, sample_laplace), or moved to the tests (chi2_cdf), because no
# pipeline, CLI or bench code used them.
DELETED = ("REWEIGHTED", "NoiseCorrection", "noise_correction",
           "quadratic_form", "sample_mvn", "sample_std_normal",
           "PooledCovariance", "pooled_covariance", "t2_statistic",
           "SingularMatrixError", "power_curve", "example32_inflation",
           "solve_b", "sample_laplace", "PrivacyBudget", "chi2_cdf")


def test_every_exported_name_resolves():
    missing = [name for name in dphotelling.__all__
               if not hasattr(dphotelling, name)]
    assert missing == []


def test_no_name_exported_twice():
    names = dphotelling.__all__
    assert sorted(set(names)) == sorted(names)


def test_deleted_names_not_exported():
    assert [name for name in DELETED if name in dphotelling.__all__] == []
    assert [name for name in DELETED if hasattr(dphotelling, name)] == []


def test_deleted_names_gone_from_their_modules():
    from dphotelling import (cli, decision, errors, mechanisms, numlin,
                             randkit, simbench)
    assert importlib.util.find_spec("dphotelling.hotelling") is None
    for name in ("REWEIGHTED", "NoiseCorrection", "noise_correction",
                 "PooledCovariance", "CLASSICAL", "PRIVATE_CORRECTED",
                 "_private_whitener", "pooled_covariance", "t2_statistic"):
        assert not hasattr(decision, name), name
    assert not hasattr(numlin, "quadratic_form")
    assert not hasattr(randkit, "sample_mvn")
    assert not hasattr(randkit, "sample_std_normal")
    assert not hasattr(randkit, "chi2_cdf")
    assert not hasattr(simbench.RejectionTable, "to_csv")
    assert not hasattr(numlin, "_eigen")
    assert not hasattr(randkit, "_sample_bingham")
    assert not hasattr(errors, "SingularMatrixError")
    assert not hasattr(simbench, "power_curve")
    assert not hasattr(simbench, "example32_inflation")
    assert not hasattr(mechanisms, "PrivacyBudget")
    assert not hasattr(numlin, "frobenius_norm")
    for name in ("_SHAPE", "_receive_array", "_fill"):
        assert not hasattr(cli, name), name


def test_unchecked_sampler_not_exported():
    # sample_bingham_vector does not check that its matrix is symmetric.
    assert "sample_bingham_vector" not in dphotelling.__all__


def _top_level_names(module) -> set:
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_no_module_defines_a_name_and_its_private_twin():
    # One function per operation: a checked ``f`` wrapped around an
    # unchecked ``_f`` is two homes for one formula.
    twins = []
    for info in pkgutil.iter_modules(dphotelling.__path__):
        module = importlib.import_module(f"dphotelling.{info.name}")
        names = _top_level_names(module)
        twins += [f"{info.name}.{name}" for name in sorted(names)
                  if "_" + name in names]
    assert twins == []
