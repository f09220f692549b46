"""README.md names only the fault presets the registries define."""

from __future__ import annotations

import re
from pathlib import Path

from repro.datacenter.chaos import CLUSTER_FAULT_PRESETS
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
