"""The package's public surface: every name in fadecount.__all__ resolves,
the names that only the tests called stay deleted, and only noise.py knows
how a key becomes a draw."""

import ast
from pathlib import Path

import fadecount
from fadecount import calibration, dyadic, mechanisms

SOURCES = Path(fadecount.__file__).parent
# the PRF's constants and in-place stages: every other module reaches them
# through noise's key-offset fold and Laplace-of-keys entry
PRF_INTERNALS = {"_GOLDEN", "_mix64", "_mix64_inplace", "_prf_uniform_inplace",
                 "_laplace_inplace"}


def names_in(path: Path) -> set:
    """Every name a module's syntax tree binds, reads or imports, including
    attribute names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


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


def test_only_noise_turns_keys_into_draws():
    # the scan is not vacuous: noise.py itself names each internal
    assert PRF_INTERNALS <= names_in(SOURCES / "noise.py")
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "noise.py":
            assert not PRF_INTERNALS & names_in(path), path.name
    assert "_laplace_of_keys" not in names_in(SOURCES / "mechanisms.py")


def test_mechanisms_imports_only_what_it_uses():
    assert "noqa" not in (SOURCES / "mechanisms.py").read_text()
