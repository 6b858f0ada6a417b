"""Planted-secret sweep: scenario telemetry never leaks market material.

Both scenario runners execute with a fully-enabled telemetry stack;
afterwards every export surface (trace JSONL, Prometheus text, metrics
JSON) is grepped for the values the paper's privacy properties hide —
request ids, account ids, spend-token key material, coin serials,
account-key fingerprints.  Nothing may appear, hashed pass-through is
not enough: the raw bytes must be absent.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.testing.faults import FaultPlan
from repro.testing.scenario import (
    build_deposit_kit,
    build_pbs_kit,
    run_deposit_scenario,
    run_pbs_scenario,
)


def _exports(telemetry: obs.Telemetry) -> str:
    """Every byte the telemetry layer would hand to the outside world."""
    return "".join((
        telemetry.tracer.export_jsonl(),
        telemetry.registry.to_prometheus(),
        telemetry.registry.to_json(),
    ))


def test_deposit_scenario_telemetry_is_secret_free():
    telemetry = obs.Telemetry.enabled(capacity=65536)
    kit = build_deposit_kit(random.Random("redaction-dec"),
                            n_accounts=2, n_deposits=4, double_spends=1)
    result = run_deposit_scenario(
        FaultPlan.from_seed(5), kit=kit, telemetry=telemetry
    )
    assert result.clean, result.report()
    assert telemetry.tracer.records(), "scenario produced no spans"

    blob = _exports(telemetry)
    planted = [request.rid for request in kit.requests]
    planted += [aid for aid, _balance, _coins in kit.funding]
    for token in kit.tokens:
        planted.append(str(token.node_key))
        planted.append(str(token.commitment_s))
    for secret in planted:
        assert secret not in blob, f"telemetry leaked {secret[:24]!r}"


def test_pbs_scenario_telemetry_is_secret_free():
    telemetry = obs.Telemetry.enabled(capacity=65536)
    kit = build_pbs_kit(random.Random("redaction-pbs"), n_sps=2)
    result = run_pbs_scenario(
        FaultPlan.from_seed(5), kit=kit, telemetry=telemetry
    )
    assert result.clean, result.report()
    assert telemetry.tracer.records(), "scenario produced no spans"

    blob = _exports(telemetry)
    planted = [request.rid for request in kit.requests]
    planted += [aid.hex() for aid, _key, _balance in kit.accounts]
    for receipt in kit.receipts:
        planted.append(receipt.signature.common_info.hex())
    for secret in planted:
        assert secret not in blob, f"telemetry leaked {str(secret)[:24]!r}"


def test_scenario_with_default_telemetry_stays_silent():
    # no telemetry handed in and tracing off: the runner must not
    # accumulate spans in the module-default tracer, while the default
    # registry counts the scenario's requests
    default = obs.get_default()
    if default.tracing:
        pytest.skip("REPRO_TRACE enabled in this environment")
    before = len(default.tracer.records())
    requests = default.registry.counter("repro_service_requests_total")
    counted = requests.value
    kit = build_deposit_kit(random.Random("redaction-off"),
                            n_accounts=2, n_deposits=2, double_spends=0)
    run_deposit_scenario(FaultPlan.from_seed(1), kit=kit)
    assert len(default.tracer.records()) == before
    assert requests.value > counted
