"""README.md names only the presets, mixes, strategies and examples that exist."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.datacenter.chaos import CLUSTER_FAULT_PRESETS
from repro.experiments.common import MIX_PRESETS, STRATEGY_FACTORIES
from repro.faults.plan import FAULT_PRESETS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_readme_lists_exactly_the_chaos_presets():
    (listing,) = re.findall(r"with presets \(([^)]*)\)", README)
    assert sorted(re.findall(r"`([^`]+)`", listing)) == sorted(CLUSTER_FAULT_PRESETS)


def test_readme_chaos_examples_name_cluster_presets():
    names = [
        name
        for name in re.findall(r"--chaos\s+(\S+)", README)
        if not name.endswith(".json")
    ]
    assert names
    assert set(names) <= set(CLUSTER_FAULT_PRESETS)


def test_readme_node_fault_presets_exist():
    names = re.findall(r"--fault-preset\s+([\w-]+)", README)
    names += re.findall(r'(?<!cluster_)fault_preset\("([\w-]+)"', README)
    assert names
    assert set(names) <= set(FAULT_PRESETS)


def test_readme_mixes_exist():
    names = re.findall(r"--mix\s+([\w-]+)", README)
    assert names
    assert set(names) <= set(MIX_PRESETS)


def test_readme_strategies_exist():
    names = re.findall(r"--(?:strategy|a|b)\s+([\w-]+)", README)
    names += re.findall(r'strategy="([\w-]+)"', README)
    assert names
    assert set(names) <= set(STRATEGY_FACTORIES)


def test_readme_lists_exactly_the_examples():
    listed = re.findall(r"^\| `([\w-]+\.py)` \|", README, flags=re.MULTILINE)
    assert sorted(listed) == [path.name for path in EXAMPLES]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(path):
    # Importing under a non-``__main__`` name runs the module body (its
    # imports of the library) but not ``main()``.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
