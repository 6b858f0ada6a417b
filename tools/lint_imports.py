#!/usr/bin/env python
"""Import hygiene linter for ``src/repro`` (the ``make lint-imports`` rule).

Three checks over *top-level* imports only (imports inside function
bodies are deliberately lazy and exempt — that is the sanctioned way to
break a genuine layering knot, e.g. the codec registry), a fourth over
whole module bodies, and a fifth over the names the package defines:

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

5. **Only what a path runs.**  Every public top-level name of a
   ``src/repro`` module must be used: referenced (as a name, an
   attribute or an import) by another non-``__init__`` module of
   ``src/repro``, by a file under ``benchmarks/``, ``examples/`` or
   ``tools/``, or by its own module outside its definition and
   ``__all__``.  A package ``__init__`` re-export is no use, and tests
   are no root.  What only tests reach is deleted or listed in
   :data:`ROOTS` with its reason; a module none of whose names is used
   and that no root imports fails too.

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
    "net": {"crypto", "ecash"},
    "metrics": {"attacks", "core", "crypto", "ecash"},
    "core": {"crypto", "ecash", "metrics", "net"},
    "attacks": {"core", "crypto", "ecash", "net"},
    "workloads": {"net"},
    # the campaign engine runs the core protocol machines with the real
    # service as the MA's bank, drives the invariant sweeps and tallies
    # Table I's operations in the protocols' own OpCounter; crypto/ecash
    # stay reachable only through those layers (the cluster backend is
    # a sanctioned lazy import)
    "sim": {"attacks", "core", "metrics", "service", "testing"},
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
    # at all, so crypto/ecash/service can all use it without cycles; it
    # also loads (and on first import builds) the compiled verification
    # kernel, with the stdlib alone
    "repro.crypto.fastexp": set(),
    # number theory batches its Legendre symbols through that kernel
    "repro.crypto.ntheory": {"repro._util", "repro.crypto.fastexp"},
    # the shared-memory table transport is stdlib-only by design
    "repro.crypto.tablestore": set(),
    # the engine is the machines' only dispatch: each party's message
    # table (the schema language), the codec that opens a sealed payload
    # for its row, and the metered fabric the router delivers over
    "repro.core.engine": {"repro.net.codec", "repro.net.schema", "repro.net.transport"},
    # an engine machine is one party's whole protocol: its steps over
    # the scheme's primitives (PPMSdec: the cash break, the divisible
    # coin, spends, fake padding; PPMSpbs: partially blind signatures
    # and, for its MA, the bank in pbs_ledger), the escrow desk, RSA
    # pseudonyms, the codec for the encrypted payloads, the schema their
    # message tables are written in, the tally and the metered fabric
    # their session drives them over
    "repro.core.dec_machine": {
        "repro.core.cashbreak", "repro.core.engine", "repro.core.market",
        "repro.crypto.rsa", "repro.ecash.dec", "repro.ecash.fake", "repro.ecash.spend",
        "repro.ecash.wallet", "repro.metrics.opcount", "repro.net.codec",
        "repro.net.schema", "repro.net.transport",
    },
    "repro.core.pbs_machine": {
        "repro.core.engine", "repro.core.market", "repro.core.pbs_ledger",
        "repro.crypto.partial_blind", "repro.crypto.rsa", "repro.metrics.opcount",
        "repro.net.codec", "repro.net.schema", "repro.net.transport",
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
    # the simulated fabric (codec pass + envelope log)
    # stays on the simulation side — core, sim, testing, attacks; the
    # real server and the cluster deliver replies, they keep no network
    "service": {"repro.net.transport"},
    "cluster": {"repro.net.transport"},
}


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
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


def _modules(src: pathlib.Path) -> dict[str, pathlib.Path]:
    return {_module_name(p, src): p for p in sorted((src / "repro").rglob("*.py"))}


def build_graph(src: pathlib.Path = SRC) -> tuple[dict[str, pathlib.Path], dict[str, set[str]]]:
    modules = _modules(src)
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
    for module in sorted(NO_FILESYSTEM & modules.keys()):
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


#: directories beside ``src`` whose every ``.py`` file is a root of check 5
ROOT_DIRS = ("benchmarks", "examples", "tools")

#: names (``module.name``) or whole modules/packages that check 5 keeps
#: although no root uses them -- only evidence the experiment docs cite,
#: reference implementations the tests compare against, and test seams
ROOTS: dict[str, str] = {
    # evidence EXPERIMENTS.md or docs/threatmodel.md cites
    "repro.attacks.linkage.withdrawal_unlinkability_experiment":
        "evidence: EXPERIMENTS.md 'Withdrawal unlinkability' (Section IV-B2)",
    "repro.attacks.linkage.denomination_experiment_grid":
        "evidence: the denomination-attack sweep of EXPERIMENTS.md, over a pool",
    "repro.attacks.adversary.NetworkEavesdropperView":
        "evidence: docs/threatmodel.md's network-observer row",
    "repro.attacks.adversary.CuriousJOView":
        "evidence: docs/threatmodel.md's JO row (what a curious JO sees)",
    "repro.attacks.longitudinal.longitudinal_experiment":
        "evidence: EXPERIMENTS.md 'Longitudinal analysis' (Section IV-B1)",
    "repro.sim.market_sim.run_timing_attack":
        "evidence: EXPERIMENTS.md and docs/threatmodel.md, timing (Section IV-A8)",
    "repro.attacks.malicious":
        "evidence: the misbehaviour matrix of EXPERIMENTS.md and docs/threatmodel.md",
    # reference implementations the tests compare the fast paths against
    "repro.crypto.pairing.tate.tate_pairing":
        "reference: the plain Tate pairing the table-backed kernels must equal",
    "repro.core.cashbreak.validate_break":
        "reference: the break validity predicate every strategy is checked by",
    "repro.crypto.zkp.equality.verify_equality":
        "reference: both groups' equations, the G_T half verify_spend checks inline",
    "repro.crypto.zkp.schnorr.prove_dlog":
        "reference: the int-group Schnorr prover test_fastexp_toggle runs tables on and off",
    "repro.crypto.zkp.schnorr.verify_dlog":
        "reference: the int-group Schnorr verifier test_fastexp_toggle runs tables on and off",
    "repro.ecash.wallet_io.restore_coins":
        "reference: reads the golden wallet fixture back",
    # test seams
    "repro.testing": "test seam: the fault, scenario and property harness",
    "repro.crypto.tablestore.set_crash_hook":
        "test seam: kills a table export between two steps",
}


def _defined_names(tree: ast.Module):
    """(name, defining statement) for each public top-level name."""
    body = list(tree.body)
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            body.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _references(node: ast.AST) -> set[str]:
    """Every name read, attribute read and imported name under *node*."""
    found: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.update((sub.asname or sub.name).split("."))
            found.update(sub.name.split("."))
    return found


def _imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names a file imports (``from a import b`` also yields ``a.b``)."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _rooted(qualname: str, roots: dict[str, str]) -> bool:
    parts = qualname.split(".")
    return any(".".join(parts[:i]) in roots for i in range(1, len(parts) + 1))


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def find_unused_names(src: pathlib.Path = SRC,
                      roots: dict[str, str] = ROOTS) -> list[str]:
    """Public top-level names in ``src/repro`` that no root uses (check 5)."""
    modules = _modules(src)
    trees = {m: ast.parse(p.read_text(), filename=str(p)) for m, p in modules.items()}
    files = {m: tree for m, tree in trees.items() if modules[m].name != "__init__.py"}
    for directory in ROOT_DIRS:
        for path in sorted((src.parent / directory).rglob("*.py")):
            files[str(path)] = ast.parse(path.read_text(), filename=str(path))
    users: dict[str, set[str]] = {}  # name -> the files that reference it
    imported: set[str] = set()       # dotted names some file imports
    for file, tree in files.items():
        for name in _references(tree):
            users.setdefault(name, set()).add(file)
        imported |= _imported_modules(tree) - {file}
    findings = []
    for module, tree in sorted(trees.items()):
        names = list(_defined_names(tree))
        if not names and not _rooted(module, roots) and not any(
                name == module or name.startswith(module + ".") for name in imported):
            findings.append(f"{module}: no root imports it and it defines no public name")
        for name, definition in names:
            if users.get(name, set()) - {module} or _rooted(f"{module}.{name}", roots):
                continue
            own = set().union(*(_references(node) for node in tree.body
                                if node is not definition and not _is_all(node)))
            if name not in own:
                findings.append(f"{module}.{name}: used by no root "
                                "(only tests reach it; delete it or add it to ROOTS)")
    return findings


def main(src: pathlib.Path = SRC) -> int:
    modules, graph = build_graph(src)
    findings: list[str] = []
    for cycle in find_cycles(graph):
        findings.append("import cycle: " + " -> ".join(cycle))
    findings.extend(find_layering_violations(graph))
    findings.extend(find_forbidden_edges(graph))
    findings.extend(find_filesystem_access(modules))
    findings.extend(find_unused_names(src))
    if findings:
        print(f"lint-imports: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  {finding}")
        return 1
    print(f"lint-imports: OK ({len(modules)} modules, no cycles, layering clean, "
          "every public name used)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
