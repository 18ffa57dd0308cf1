"""The memory probe (``tools/mem_probe.py``) charges the columnar store to
its layers, and records plus links stay within their budget."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mem_probe():
    spec = importlib.util.spec_from_file_location("mem_probe", ROOT / "tools" / "mem_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_records_and_links_stay_within_450_bytes_per_node_state(mem_probe):
    (run,) = mem_probe.probe(4)
    layers, sites = mem_probe.by_layer(run["snapshot"])
    states = run["node_states"]
    assert states == 1707
    # Link rows, first-link offsets and the step table are all charged.
    assert {"NodeStateRecord.add_predecessor", "StepTable.intern"} <= {
        function for layer, _file, function in sites if layer == "links"
    }
    assert (layers["records"] + layers["links"]) / states <= 450
