"""PPMSpbs on the production stack: the ``pbs-*`` rows of the service.

Algorithm 4's unitary bank is the PPMSpbs book of the
:class:`~repro.service.shard.ShardedBank`, served by the same
:class:`~repro.service.server.MarketService` as PPMSdec: through the
door, journaled, checkpointed and recovered like every other request.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.service import (
    Journal,
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)
from repro.testing import build_pbs_kit, check_recovery_invariants


@pytest.fixture(scope="module")
def kit():
    return build_pbs_kit(random.Random("service:pbs"), n_sps=2)


def _stack(kit, journal=None) -> MarketService:
    bank = ShardedBank(kit.params, kit.keypair, random.Random(3),
                       journal=journal if journal is not None else Journal())
    batcher = VerificationBatcher(kit.params, kit.keypair, max_batch=4,
                                  seed=1)
    return MarketService(bank, batcher=batcher, rng=random.Random(5))


def _journal_bytes(journal: Journal) -> int:
    storage = journal.storage
    return sum(storage.size(name) for name in storage.names())


def _deposit(kit, index: int, **changes) -> dict:
    receipt = kit.receipts[index]
    return {"sig": receipt.signature, "sp_key": kit.sp_keys[index],
            "jo_key": receipt.jo_account_key, **changes}


def _open_all(client, kit) -> None:
    for i, (_aid, key, balance) in enumerate(kit.accounts):
        reply = client.request("pbs-open-account",
                               {"key": key, "balance": balance}, rid=f"open:{i}")
        assert reply["status"] == "OK" and reply["balance"] == balance


def test_a_double_deposit_over_two_connections_is_refused_once(kit):
    service = _stack(kit)
    with ServiceFrontend(service) as front, \
            ServiceClient(front.address, timeout=30.0) as a, \
            ServiceClient(front.address, timeout=30.0) as b:
        _open_all(a, kit)
        coin = _deposit(kit, 0)
        a.send("pbs-deposit", coin, rid="dep:a", sender="sp-a")
        b.send("pbs-deposit", coin, rid="dep:b", sender="sp-b")
        replies = sorted((a.recv(), b.recv()), key=lambda r: r["status"])
        assert [r["status"] for r in replies] == ["OK", "REJECTED"]
        assert replies[0]["serial"] == kit.receipts[0].signature.common_info
        assert replies[1]["error"] == "double deposit"
        # the payee was credited once, the payer debited once
        payee = a.request("pbs-balance", {"key": kit.sp_keys[0]})
        assert (payee["status"], payee["balance"]) == ("OK", 1)
        assert a.request("audit", {})["clean"] is True


@pytest.mark.parametrize("counter", [-1, 2**32])
def test_an_out_of_range_counter_is_refused_before_the_journal(kit, counter):
    journal = Journal()
    service = _stack(kit, journal)
    with ServiceFrontend(service) as front, \
            ServiceClient(front.address, timeout=30.0) as client:
        _open_all(client, kit)
        before = _journal_bytes(journal)
        sig = dataclasses.replace(kit.receipts[0].signature, counter=counter)
        reply = client.request("pbs-deposit", _deposit(kit, 0, sig=sig))
        assert reply["status"] == "ERROR" and "counter" in reply["error"]
        assert _journal_bytes(journal) == before


@pytest.mark.parametrize("missing", ["jo_key", "sp_key"])
def test_an_unknown_account_is_screened_before_the_journal(kit, missing):
    journal = Journal()
    service = _stack(kit, journal)
    coin = _deposit(kit, 0)
    known = "sp_key" if missing == "jo_key" else "jo_key"
    service.submit("ops", "pbs-open-account",
                   {"key": coin[known], "balance": 1}, rid="open")
    service.drain()
    before = _journal_bytes(journal)
    answers = []
    service.add_reply_observer(lambda sender, reply: answers.append(reply))
    service.submit("sp", "pbs-deposit", coin, rid="dep")
    (reply,) = answers  # answered from submit, like a malformed request
    assert reply["status"] == "ERROR"
    assert reply["error"] == f"unknown PPMSpbs account for {missing}"
    assert service.reply_for("dep") is None  # nothing cached: a retry may pass
    assert _journal_bytes(journal) == before


def test_a_bad_coin_is_an_error_and_its_verdict_is_journaled(kit):
    service = _stack(kit)
    for _aid, key, balance in kit.accounts:
        service.bank.pbs_open_account(key, balance)
    # the coin of SP 0 deposited to SP 1's account: the signature binds
    # the payee, so it does not verify
    service.submit("sp", "pbs-deposit",
                   _deposit(kit, 0, sp_key=kit.sp_keys[1]), rid="stolen")
    service.drain()
    status, body = service.reply_for("stolen")
    assert status == "ERROR" and "invalid partially blind" in body["error"]
    assert [r.kind for r in service.journal.records() if r.rid == "stolen"] \
        == ["accept", "reply"]
    assert check_recovery_invariants(service.bank, service.journal).clean


def test_the_checkpoint_carries_the_pbs_book_and_recovery_restores_it(kit):
    journal = Journal()
    service = _stack(kit, journal)
    for i, (_aid, key, balance) in enumerate(kit.accounts):
        service.submit("ops", "pbs-open-account",
                       {"key": key, "balance": balance}, rid=f"open:{i}")
    service.submit("sp", "pbs-deposit", _deposit(kit, 0), rid="dep:0")
    service.drain()
    first = service.checkpoint()
    assert len(first.blobs) == 2  # (DEC book, PPMSpbs book)
    # a clean book's blob is reused, not re-serialized
    assert service.checkpoint().blobs[-1] is first.blobs[-1]
    service.submit("sp", "pbs-deposit", _deposit(kit, 1), rid="dep:1")
    service.drain()
    assert service.checkpoint().blobs[-1] != first.blobs[-1]

    recovered = MarketService.recover(kit.params, kit.keypair, journal,
                                      checkpoint=first)
    assert recovered.bank.pbs == service.bank.pbs
    for rid in ("open:0", "dep:0", "dep:1"):
        assert recovered.reply_for(rid) == service.reply_for(rid)
    # the recovered book still refuses the spent serial
    recovered.submit("sp", "pbs-deposit", _deposit(kit, 1), rid="dep:again")
    recovered.drain()
    assert recovered.reply_for("dep:again") == (
        "REJECTED", {"error": "double deposit"})
    assert check_recovery_invariants(recovered.bank, journal).clean
