"""One hostile deposit frame cannot wedge the front door.

A token value that made ``verify_spend`` raise used to kill the
dispatcher thread: the deposit went unanswered and so did every later
request, on any connection.  For each family of such values (a negative
int the transcript absorbs, a ``str`` where a commitment goes, a
``witness_bits`` to shift by), the door must answer the deposit with an
error and then answer a fresh connection's ``balance`` and an honest
deposit.  ``tests/ecash/test_hostile_tokens.py`` holds every value in
process, on both kernel paths.
"""

from __future__ import annotations

import random

import pytest

from repro.service import ServiceClient, ServiceFrontend
from tests.ecash.test_hostile_tokens import HOSTILE
from tests.service.conftest import mint_tokens

FAMILIES = ["negative node_key", "str key commitment", "witness_bits 2^40",
            "witness_bits -500"]


@pytest.fixture()
def frontend(service):
    front = ServiceFrontend(service).start()
    yield front
    front.close()


@pytest.mark.parametrize("name", FAMILIES)
def test_a_hostile_deposit_gets_an_error_and_the_door_keeps_answering(frontend, name):
    hostile, honest = mint_tokens(frontend.service, random.Random(0xBAD), 2, node_level=1)
    payload = {**hostile.payload, "token": HOSTILE[name](hostile.payload["token"])}
    with ServiceClient(frontend.address, timeout=20.0) as client:
        reply = client.request(hostile.kind, payload, sender=hostile.sender)
    assert reply["status"] in ("ERROR", "REJECTED"), reply
    with ServiceClient(frontend.address, timeout=20.0) as client:
        balance = client.request("balance", {"aid": honest.payload["aid"]})
        assert balance["status"] == "OK"
        deposit = client.request(honest.kind, honest.payload, sender=honest.sender)
        assert deposit["status"] == "OK", deposit
