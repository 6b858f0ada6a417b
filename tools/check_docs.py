#!/usr/bin/env python
"""Documentation freshness checker (the ``make check-docs`` rule).

Docs rot in four ways, and this tool catches all of them over
``docs/*.md`` plus ``README.md``:

1. **Dead links.**  Every relative markdown link must resolve to a file
   in the repository, and every ``#fragment`` must match a heading in
   the target document (GitHub's slug rules: lowercase, punctuation
   stripped, spaces to hyphens).
2. **Stale module references.**  Every backticked dotted name
   ``repro.foo.bar`` must resolve to a real module or package under
   ``src/`` (trailing ``CamelCase``/attribute components are trimmed,
   but at least the ``repro.<package>`` level must exist on disk).
3. **Stale file references.**  Every backticked repo-relative path
   (``docs/…``, ``src/…``, ``tools/…``, …) must exist.
4. **Drifted message tables.**  Each table in :data:`TABLES` appears in
   its doc between ``<!-- table: NAME -->`` and ``<!-- /table -->``,
   exactly as :func:`repro.net.schema.render` writes it.

One coverage check rides along: ``docs/api.md`` must mention every
top-level ``repro`` subpackage and each module in :data:`FLAGSHIPS`,
so new subsystems cannot ship without an API-surface note.

Exit status is non-zero when any finding is produced, so CI can gate
on it.  No third-party dependencies: stdlib plus the tables under
``src/``.
"""

from __future__ import annotations

import difflib
import importlib
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = ROOT / "docs"

#: modules docs/api.md must mention even though they are not top-level
#: subpackages (the "flagship" subsystems users ask about by name)
FLAGSHIPS = (
    "repro.crypto.batchverify",
    "repro.service.journal",
    "repro.service.storage",
    "repro.service.frontend",
    "repro.net.schema",
)

#: message table -> the doc that shows it (a generated block)
TABLES = {
    "repro.service.server.REQUESTS": "docs/service.md",
    "repro.cluster.replicate.STREAM": "docs/cluster.md",
    "repro.cluster.node.CONTROL": "docs/cluster.md",
}

#: directories a backticked path may live under to be checked; paths
#: outside these roots (generated artifacts such as ``telemetry/``)
#: are not existence-checked
PATH_ROOTS = ("docs/", "src/", "tests/", "tools/", "examples/",
              "benchmarks/", ".github/")

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_CODE_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    text = heading.strip().lower().replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _strip_code_blocks(text: str) -> str:
    """Drop fenced code blocks: links and paths inside them are examples."""
    return re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)


def _anchors(path: pathlib.Path) -> set[str]:
    text = _strip_code_blocks(path.read_text(encoding="utf-8"))
    return {_slug(m.group(1)) for m in _HEADING.finditer(text)}


def _module_exists(dotted: str) -> bool:
    parts = dotted.split(".")
    base = SRC.joinpath(*parts)
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _resolvable_prefix(dotted: str) -> str | None:
    """Longest leading component run of *dotted* that is a real module."""
    parts = dotted.split(".")
    for n in range(len(parts), 0, -1):
        if _module_exists(".".join(parts[:n])):
            return ".".join(parts[:n])
    return None


def _check_links(path: pathlib.Path, text: str, findings: list[str]) -> None:
    for match in _LINK.finditer(_strip_code_blocks(text)):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        name, _, fragment = target.partition("#")
        resolved = path if not name else (path.parent / name).resolve()
        if not resolved.exists():
            findings.append(f"{_rel(path)}: dead link `{target}` "
                            f"(no such file {_rel(resolved)})")
            continue
        if fragment and resolved.suffix == ".md":
            if _slug(fragment) not in _anchors(resolved):
                findings.append(f"{_rel(path)}: dead anchor `{target}` "
                                f"(no heading slugs to `#{fragment}` "
                                f"in {_rel(resolved)})")


def _check_code_spans(path: pathlib.Path, text: str,
                      findings: list[str]) -> None:
    # dotted module refs are checked over the *raw* text: stale imports
    # inside fenced ```python examples rot just as fast as prose refs
    for dotted_match in _DOTTED.finditer(text):
        dotted = dotted_match.group(0)
        prefix = _resolvable_prefix(dotted)
        if prefix == "repro" and dotted != "repro":
            findings.append(f"{_rel(path)}: stale module reference "
                            f"`{dotted}` (nothing under src/ matches "
                            f"any prefix past `repro`)")
    # file refs only in inline spans (fences hold example output, not
    # repo paths); fenced blocks would break single-backtick pairing
    for span_match in _CODE_SPAN.finditer(_strip_code_blocks(text)):
        span = span_match.group(1)
        if not span.startswith(PATH_ROOTS) or re.search(r"[%*<>{ ]", span):
            continue
        name, _, node = span.partition("::")
        target = ROOT / name.rstrip("/")
        if not target.exists():
            findings.append(f"{_rel(path)}: stale file reference "
                            f"`{span}` (no such path)")
        elif node:
            # pytest node id: the named test/class must still exist
            member = node.split("::")[-1].partition("[")[0]
            if member not in target.read_text(encoding="utf-8"):
                findings.append(f"{_rel(path)}: stale test reference "
                                f"`{span}` (`{member}` not in {name})")


def _check_api_coverage(findings: list[str]) -> None:
    api = DOCS / "api.md"
    if not api.is_file():
        findings.append("docs/api.md: missing (API overview is required)")
        return
    text = api.read_text(encoding="utf-8")
    packages = sorted(
        p.name for p in (SRC / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").is_file()
    )
    for package in packages:
        if not re.search(rf"\brepro\.{package}\b", text):
            findings.append(f"docs/api.md: no mention of subpackage "
                            f"`repro.{package}`")
    for module in FLAGSHIPS:
        leaf = module.rsplit(".", 1)[1]
        if not re.search(rf"\b{leaf}\b", text):
            findings.append(f"docs/api.md: no mention of flagship module "
                            f"`{module}`")


def _check_tables(findings: list[str]) -> None:
    sys.path.insert(0, str(SRC))
    from repro.net.schema import render

    for name, doc in TABLES.items():
        module, _, attr = name.rpartition(".")
        expected = render(getattr(importlib.import_module(module), attr))
        match = re.search(rf"<!-- table: {re.escape(name)} -->\n(.*?)<!-- /table -->",
                          (ROOT / doc).read_text(encoding="utf-8"), re.DOTALL)
        if match is None:
            findings.append(f"{doc}: no generated block for `{name}`")
        elif match.group(1) != expected:
            diff = "".join(difflib.unified_diff(
                match.group(1).splitlines(True), expected.splitlines(True),
                f"{doc} ({name})", "repro.net.schema.render"))
            findings.append(f"{doc}: the `{name}` block drifted from its "
                            f"table; replace it with render's output:\n{diff}")


def _rel(path: pathlib.Path) -> str:
    try:
        return str(path.resolve().relative_to(ROOT))
    except ValueError:
        return str(path)


def main() -> int:
    files = sorted(DOCS.glob("*.md")) + [ROOT / "README.md"]
    findings: list[str] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        _check_links(path, text, findings)
        _check_code_spans(path, text, findings)
    _check_api_coverage(findings)
    _check_tables(findings)
    for finding in findings:
        print(f"check_docs: {finding}")
    if findings:
        print(f"check_docs: {len(findings)} finding(s)")
        return 1
    print(f"check_docs: OK ({len(files)} files, 0 findings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
