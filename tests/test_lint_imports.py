"""tools/lint_imports.py: the reachability check over a planted tree."""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "lint_imports.py"

ONLY_TESTED = "repro.pkg.mod.only_tested"
REEXPORTED = "repro.pkg.mod.reexported"


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location("lint_imports", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path: pathlib.Path) -> pathlib.Path:
    """A repo whose package defines one used, one test-only and one
    re-exported-only public name."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/pkg/__init__.py":
            "from repro.pkg.mod import kept, reexported\n\n"
            '__all__ = ["kept", "reexported"]\n',
        "src/repro/pkg/mod.py":
            '__all__ = ["kept", "only_tested", "reexported"]\n\n\n'
            "def kept():\n    return 1\n\n\n"
            "def only_tested():\n    return 2\n\n\n"
            "def reexported():\n    return 3\n",
        "tools/drive.py": "from repro.pkg.mod import kept\n\nkept()\n",
        "tests/test_mod.py":
            "from repro.pkg.mod import only_tested, reexported\n\n\n"
            "def test_it():\n    assert only_tested() + reexported() == 5\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path / "src"


def test_a_name_only_a_test_references_is_one_finding(lint, tree):
    findings = lint.find_unused_names(tree, roots={REEXPORTED: "planted"})
    assert len(findings) == 1
    assert findings[0].startswith(f"{ONLY_TESTED}:")
    assert lint.main(tree) == 1


def test_the_same_name_in_roots_is_clean(lint, tree):
    roots = {ONLY_TESTED: "planted", REEXPORTED: "planted"}
    assert lint.find_unused_names(tree, roots=roots) == []


def test_a_package_reexport_is_no_use(lint, tree):
    findings = lint.find_unused_names(tree, roots={ONLY_TESTED: "planted"})
    assert len(findings) == 1
    assert findings[0].startswith(f"{REEXPORTED}:")


def test_the_tree_itself_is_clean(lint):
    assert lint.main() == 0
