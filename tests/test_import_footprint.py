"""A server process loads what it runs.

``import repro.service`` is every server, cluster node and pool worker;
it must not drag in the simulator, the attack suite, the fault harness,
the workload generators or numpy (the root package imports nothing).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_a_server_process_imports_no_simulator_and_no_numpy():
    probe = (
        "import sys, json\n"
        "import repro.service, repro.cluster, repro.cluster.launcher\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env={"PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    unwanted = ("numpy", "repro.attacks", "repro.sim", "repro.testing", "repro.workloads")
    assert [m for m in loaded
            if any(m == u or m.startswith(u + ".") for u in unwanted)] == []
