"""The doc checker (``tools/check_doc_links.py``) resolves bare class names."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_doc_links():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links", ROOT / "tools" / "check_doc_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problems(check_doc_links, tmp_path, text):
    doc = tmp_path / "DOC.md"
    doc.write_text(text, encoding="utf-8")
    return check_doc_links.dead_links(
        doc, ROOT, {}, {}, check_doc_links.type_names(ROOT)
    )


def test_a_renamed_class_is_a_dead_ref(check_doc_links, tmp_path):
    problems = _problems(
        check_doc_links, tmp_path, "| `stats/` | `RunStats` counters |\n"
    )
    assert problems == [(1, "dead class ref: `RunStats`")]


def test_defined_fenced_builtin_and_qualified_names_resolve(check_doc_links, tmp_path):
    text = "\n".join(
        [
            "`ExplorationStats`, `StepTable`, `Event` (a type alias),",
            "`TestDuplicateReplay` (a test class), `None`, `ValueError`, `Incr`,",
            "`concurrent.futures.ProcessPoolExecutor`, `LS_n`, `SHARD_MIN`.",
            "```python",
            "class Incr:",
            "    amount: int",
            "```",
        ]
    )
    assert _problems(check_doc_links, tmp_path, text) == []


def test_the_repository_docs_resolve(check_doc_links, capsys):
    assert check_doc_links.main([]) == 0
