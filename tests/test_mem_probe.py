"""The memory probe (``tools/mem_probe.py``) charges the columnar store to
its layers, and records plus links, and the interner, stay within their
budgets."""

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


def test_interner_stays_within_750_bytes_per_node_state(mem_probe):
    """Entries keep no node state's encoding.

    Measured at d=4: 593 B per node state on Python 3.11, 584 on 3.12 and
    675 on 3.10, with 436 of the 2,190 entries holding their bytes.  An
    interner that keeps every entry's bytes reads 893, 885 and 970 B.  The
    750 B budget leaves 11% headroom on 3.10 and fails a regression that
    keeps every encoding on each.
    """
    (run,) = mem_probe.probe(4)
    layers, _sites = mem_probe.by_layer(run["snapshot"])
    assert run["node_states"] == 1707
    assert run["held"] < run["entries"] / 2
    assert layers["interner"] / run["node_states"] <= 750
