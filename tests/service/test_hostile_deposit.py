"""One hostile deposit frame cannot wedge the front door.

A token value that made ``verify_spend`` raise used to kill the
dispatcher thread: the deposit went unanswered and so did every later
request, on any connection.  For each family of hostile values (a
negative int the transcript absorbs, a ``str`` where a commitment goes,
an equality response outside ``[0, q0)``), the door must answer the
deposit with an error and then answer a fresh connection's ``balance``
and an honest deposit.  ``tests/ecash/test_hostile_tokens.py`` holds every value in
process, on both kernel paths.

Whatever else makes a token's check raise is refused at the batcher's
per-token boundary: that deposit is answered as refused, the refusal is
counted, and the door keeps answering.
"""

from __future__ import annotations

import random

import pytest

import repro.obs as obs
from repro.service import MarketService, ServiceClient, ServiceFrontend, VerificationBatcher
from repro.service import batcher as batcher_module
from tests.ecash.test_hostile_tokens import HOSTILE
from tests.service.conftest import mint_tokens

FAMILIES = ["negative node_key", "str key commitment", "z at q0", "z negative"]


@pytest.fixture()
def frontend(service):
    front = ServiceFrontend(service).start()
    yield front
    front.close()


@pytest.mark.parametrize("name", FAMILIES)
def test_a_hostile_deposit_gets_an_error_and_the_door_keeps_answering(frontend, name):
    hostile, honest = mint_tokens(frontend.service, random.Random(0xBAD), 2, node_level=1)
    q0 = frontend.service.bank.params.tower.group(0).q
    payload = {**hostile.payload, "token": HOSTILE[name](hostile.payload["token"], q0)}
    with ServiceClient(frontend.address, timeout=20.0) as client:
        reply = client.request(hostile.kind, payload, sender=hostile.sender)
    assert reply["status"] in ("ERROR", "REJECTED"), reply
    with ServiceClient(frontend.address, timeout=20.0) as client:
        balance = client.request("balance", {"aid": honest.payload["aid"]})
        assert balance["status"] == "OK"
        deposit = client.request(honest.kind, honest.payload, sender=honest.sender)
        assert deposit["status"] == "OK", deposit


def test_a_deposit_whose_check_raises_is_refused_and_the_door_keeps_answering(
        sharded_bank, monkeypatch):
    """A ``verify_spend`` that raises for one token (any bug in a check)
    refuses that deposit alone and counts it; the next request, on a
    fresh connection, is answered.  The batcher runs inline, so the
    patched check is the one that runs."""
    batcher = VerificationBatcher(sharded_bank.params, sharded_bank.keypair,
                                  max_batch=8, seed=1)
    service = MarketService(sharded_bank, batcher=batcher, rng=random.Random(5))
    broken, honest = mint_tokens(service, random.Random(0xB06), 2, node_level=1)
    verify_spend = batcher_module.verify_spend

    def raising(params, bank_pk, token, **kwargs):
        if token == broken.payload["token"]:
            raise RuntimeError("a bug in the check")
        return verify_spend(params, bank_pk, token, **kwargs)

    monkeypatch.setattr(batcher_module, "verify_spend", raising)
    errors = obs.get_default().registry.counter("repro_batcher_job_errors_total")
    before = errors.value
    front = ServiceFrontend(service).start()
    try:
        with ServiceClient(front.address, timeout=20.0) as client:
            reply = client.request(broken.kind, broken.payload, sender=broken.sender)
        assert (reply["status"], reply["error"]) == ("ERROR", "invalid spend token"), reply
        assert errors.value == before + 1
        with ServiceClient(front.address, timeout=20.0) as client:
            deposit = client.request(honest.kind, honest.payload, sender=honest.sender)
        assert deposit["status"] == "OK", deposit
        assert errors.value == before + 1
    finally:
        front.close()
