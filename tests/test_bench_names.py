"""Every package name the bench looks up still resolves.

bench/spans.py patches the functions in its TARGETS by name, and reads
ExpirationCounter's step, active_noise_count, buffer_len and redraws;
bench/checks.py and bench/workloads.py import package names and read
attributes off the package modules they import.  A deleted or renamed
name would break the bench only when it runs; here it fails the tests.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(target, attr) for target, attr, _name, _work in spans.TARGETS]


def _imported_names(filename):
    """(module, name) for each package name the file imports, and for each
    attribute it reads off a package module it imports; (module, None) for
    the module itself."""
    tree = ast.parse((BENCH / filename).read_text())
    names, modules = [], {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "fadecount"):
            for alias in node.names:
                if node.module == "fadecount":  # a module of the package
                    modules[alias.asname or alias.name] = \
                        f"fadecount.{alias.name}"
                    names.append((f"fadecount.{alias.name}", None))
                else:
                    names.append((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return names


NAMES = sorted(set(
    _span_targets()
    + [("fadecount.mechanisms:ExpirationCounter", attr)
       for attr in ("step", "active_noise_count", "buffer_len", "redraws")]
    + _imported_names("checks.py") + _imported_names("workloads.py")),
    key=str)


@pytest.mark.parametrize("target,attr", NAMES, ids=[
    target if attr is None else f"{target}.{attr}" for target, attr in NAMES])
def test_bench_name_resolves(target, attr):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    assert attr is None or hasattr(owner, attr)


def test_names_were_found():
    # the scan itself must keep seeing the bench's lookups
    assert ("fadecount.mechanisms", "expiration_noise_totals") in NAMES
    assert ("fadecount.privacy_audit", "published_loss_bound") in NAMES
    assert ("fadecount.cli", "main") in NAMES
