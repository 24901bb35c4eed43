"""The package's export list: every name resolves, once, and none is stale."""

import dphotelling

# Public names deleted because no pipeline, CLI or bench code used them.
DELETED = ("REWEIGHTED", "NoiseCorrection", "noise_correction",
           "quadratic_form", "sample_mvn", "sample_std_normal")


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
    from dphotelling import hotelling, numlin, randkit, simbench
    assert not hasattr(hotelling, "REWEIGHTED")
    assert not hasattr(hotelling, "NoiseCorrection")
    assert not hasattr(hotelling, "noise_correction")
    assert not hasattr(numlin, "quadratic_form")
    assert not hasattr(randkit, "sample_mvn")
    assert not hasattr(randkit, "sample_std_normal")
    assert not hasattr(simbench.RejectionTable, "to_csv")
