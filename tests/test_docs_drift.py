"""README.md names only the presets, mixes and strategies the registries define."""

from __future__ import annotations

import re
from pathlib import Path

from repro.datacenter.chaos import CLUSTER_FAULT_PRESETS
from repro.experiments.common import MIX_PRESETS, STRATEGY_FACTORIES
from repro.faults.plan import FAULT_PRESETS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8"
)


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
