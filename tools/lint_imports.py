#!/usr/bin/env python
"""Import hygiene linter for ``src/repro`` (the ``make lint-imports`` rule).

Three checks over *top-level* imports only (imports inside function
bodies are deliberately lazy and exempt — that is the sanctioned way to
break a genuine layering knot, e.g. the codec registry), and a fourth
over whole module bodies:

1. **No module-level import cycles.**  Tarjan SCC over the module
   graph; any strongly connected component larger than one module is a
   cycle Python may or may not survive depending on import order.
2. **Package layering.**  Each top-level package may import only the
   packages listed for it in :data:`ALLOWED` — the codified
   architecture of ``docs/architecture.md``.  Adding a new dependency
   edge is a deliberate act: extend the table in the same change.
3. **Forbidden edges.**  Single modules a package may not import even
   though the package table allows the edge (:data:`FORBIDDEN`); a
   name re-exported by a package ``__init__`` counts as an import of
   the module that defines it.

4. **No filesystem outside the seam.**  The modules in
   :data:`NO_FILESYSTEM` may not import ``os`` (or anything under it)
   nor call the builtin ``open`` anywhere, function bodies included:
   the journal reaches bytes only through ``repro.service.storage``.

Exit status is non-zero when any finding is produced, so CI can gate
on it.  No third-party dependencies; stdlib ``ast`` only.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: package -> packages it may import at module level (itself always allowed)
ALLOWED: dict[str, set[str]] = {
    "_util": set(),
    # telemetry is observed *by* every layer, so it may depend on none
    # of them (in particular: obs must never import service)
    "obs": set(),
    "crypto": {"_util"},
    "ecash": {"crypto", "net"},
    "net": {"crypto", "ecash", "metrics"},
    "metrics": {"attacks", "core", "crypto", "ecash", "obs"},
    "core": {"crypto", "ecash", "metrics", "net"},
    "attacks": {"core", "crypto", "ecash", "net"},
    "workloads": {"net"},
    # the campaign engine drives the real service and the invariant
    # sweeps; crypto/ecash stay reachable only through those layers
    # (the cluster backend is a sanctioned lazy import)
    "sim": {"attacks", "core", "service", "testing"},
    "service": {"core", "crypto", "ecash", "metrics", "net", "obs"},
    # the multi-node layer composes services over the wire; it sits
    # above service and below testing (which sweeps clusters too)
    "cluster": {"crypto", "ecash", "net", "obs", "service"},
    # the fault harness drives the whole stack, so it sits above it
    "testing": {"cluster", "core", "crypto", "ecash", "net", "obs", "service"},
    "cli": {"attacks", "core", "crypto", "ecash", "metrics"},
    # the root package imports nothing: a process loads what it runs
    # (a server must not pull in the simulator, the attack suite, numpy)
    "(root)": set(),
}

#: module -> exact modules it may import (overrides the package table,
#: including the same-package freebie).  For modules every layer leans
#: on: they must stay dependency-free so no import cycle can form.
MODULE_ALLOWED: dict[str, set[str]] = {
    # the fixed-base table cache is pure arithmetic — no repro imports
    # at all, so crypto/ecash/service can all use it without cycles
    "repro.crypto.fastexp": set(),
    # the RLC batch verifier is pure arithmetic over LinearChecks; it
    # must never grow a service- or ecash-layer dependency
    "repro.crypto.batchverify": {"repro.crypto.fastexp", "repro.crypto.hashing"},
    # the shared-memory table transport is stdlib-only by design
    "repro.crypto.tablestore": set(),
    # the engine machines are their actor plus engine.Party: every
    # protocol step, the escrow and the bank come from the actor module;
    # beyond it they import only the types of values they construct or
    # check (keys, signatures, tokens, two exception types, the tally)
    "repro.core.dec_machine": {
        "repro.core.engine", "repro.core.market", "repro.core.ppms_dec",
        "repro.crypto.rsa", "repro.ecash.dec", "repro.ecash.spend",
        "repro.ecash.wallet", "repro.metrics.opcount",
    },
    "repro.core.pbs_machine": {
        "repro.core.engine", "repro.core.market", "repro.core.ppms_pbs",
        "repro.crypto.partial_blind", "repro.crypto.rsa", "repro.metrics.opcount",
    },
    # the journal frames, segments, checkpoints and compacts; bytes
    # reach a disk only through the storage seam, which knows nothing
    # of journals (or of anything else in repro)
    "repro.service.journal": {
        "repro.obs", "repro.crypto.hashing", "repro.net.codec",
        "repro.service.storage",
    },
    "repro.service.storage": set(),
    # replication ships storage operations, not journal records: it
    # knows frames, their table and the storage seam, never a journal
    # format
    "repro.cluster.replicate": {"repro.net.wire", "repro.net.schema",
                                "repro.service.storage"},
    # the message tables' schema language is stdlib only: every surface
    # declares a table with it, so it may depend on none of them
    "repro.net.schema": set(),
}

#: modules that may not touch the filesystem themselves (check 4)
NO_FILESYSTEM = {"repro.service.journal"}


#: package -> modules it may not import, the package table notwithstanding
FORBIDDEN: dict[str, set[str]] = {
    # the simulated fabric (codec pass + byte meter + envelope log)
    # stays on the simulation side — core, sim, testing, attacks; the
    # real server and the cluster deliver replies, they keep no network
    "service": {"repro.net.transport"},
    "cluster": {"repro.net.transport"},
}


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _top_level_imports(tree: ast.Module):
    """Imports executed at module import time (incl. under try/if)."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    yield sub


def _package_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "(root)"


def build_graph() -> tuple[dict[str, pathlib.Path], dict[str, set[str]]]:
    modules = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    imports = {
        module: list(_top_level_imports(
            ast.parse(path.read_text(), filename=str(path))))
        for module, path in modules.items()
    }
    # package -> {re-exported name: the module its __init__ took it from}
    reexports: dict[str, dict[str, str]] = {}
    for module, path in modules.items():
        if path.name != "__init__.py":
            continue
        for node in imports[module]:
            if isinstance(node, ast.ImportFrom) and node.module in modules:
                for alias in node.names:
                    reexports.setdefault(module, {})[
                        alias.asname or alias.name] = node.module
    graph: dict[str, set[str]] = {m: set() for m in modules}
    for module in modules:
        for node in imports[module]:
            targets: list[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                # `from repro.x import y` may target module repro.x.y,
                # or the module repro.x re-exports y from
                targets = [node.module]
                for alias in node.names:
                    targets.append(f"{node.module}.{alias.name}")
                    origin = reexports.get(node.module, {}).get(alias.name)
                    if origin is not None:
                        targets.append(origin)
            for target in targets:
                if target in modules and target != module:
                    graph[module].add(target)
    return modules, graph


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components with more than one module."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * len(graph) + 100))
    counter = [0]
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    cycles: list[list[str]] = []

    def connect(v: str) -> None:
        index[v] = lowlink[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in sorted(graph.get(v, ())):
            if w not in index:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            component = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.append(w)
                if w == v:
                    break
            if len(component) > 1:
                cycles.append(sorted(component))

    for module in sorted(graph):
        if module not in index:
            connect(module)
    return cycles


def find_layering_violations(graph: dict[str, set[str]]) -> list[str]:
    findings = []
    for module, targets in sorted(graph.items()):
        module_allowed = MODULE_ALLOWED.get(module)
        if module_allowed is not None:
            for target in sorted(targets):
                if target not in module_allowed:
                    findings.append(
                        f"{module}: imports {target} "
                        f"(module is pinned to {sorted(module_allowed) or 'no imports'})"
                    )
            continue
        src_pkg = _package_of(module)
        allowed = ALLOWED.get(src_pkg)
        if allowed is None:
            findings.append(
                f"{module}: package {src_pkg!r} missing from the layering table"
            )
            continue
        for target in sorted(targets):
            dst_pkg = _package_of(target)
            if dst_pkg != src_pkg and dst_pkg not in allowed:
                findings.append(
                    f"{module}: imports {target} "
                    f"({src_pkg} may not depend on {dst_pkg})"
                )
    return findings


def find_forbidden_edges(graph: dict[str, set[str]]) -> list[str]:
    findings = []
    for module, targets in sorted(graph.items()):
        package = _package_of(module)
        for target in sorted(targets & FORBIDDEN.get(package, set())):
            findings.append(
                f"{module}: imports {target} (forbidden for package {package})"
            )
    return findings


def find_filesystem_access(modules: dict[str, pathlib.Path]) -> list[str]:
    findings = []
    for module in sorted(NO_FILESYSTEM):
        path = modules[module]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open"):
                findings.append(f"{module}:{node.lineno}: calls open() "
                                "(the filesystem is behind repro.service.storage)")
                continue
            else:
                continue
            if any(name.split(".")[0] == "os" for name in names):
                findings.append(f"{module}:{node.lineno}: imports os "
                                "(the filesystem is behind repro.service.storage)")
    return findings


def main() -> int:
    modules, graph = build_graph()
    findings: list[str] = []
    for cycle in find_cycles(graph):
        findings.append("import cycle: " + " -> ".join(cycle))
    findings.extend(find_layering_violations(graph))
    findings.extend(find_forbidden_edges(graph))
    findings.extend(find_filesystem_access(modules))
    if findings:
        print(f"lint-imports: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print(f"lint-imports: OK ({len(modules)} modules, no cycles, layering clean)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
