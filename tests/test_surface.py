"""The package's public surface: every name in fadecount.__all__ resolves,
and the names that only the tests called stay deleted."""

import fadecount
from fadecount import calibration, dyadic, mechanisms


def test_every_exported_name_resolves():
    assert len(set(fadecount.__all__)) == len(fadecount.__all__)
    for name in fadecount.__all__:
        assert hasattr(fadecount, name), name


def test_deleted_names_stay_gone():
    for module, name in ((mechanisms, "ZeroNoise"), (mechanisms, "run_simple"),
                         (dyadic, "intersect")):
        assert not hasattr(module, name)
        assert not hasattr(fadecount, name) and name not in fadecount.__all__
    # a DyadicInterval is a plain tuple again: `in` tests (level, index)
    assert "__contains__" not in vars(dyadic.DyadicInterval)
    assert not hasattr(calibration.BaselineCalibration, "ratio")
