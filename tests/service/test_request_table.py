"""Hostile requests through the door, generated from the request table.

The strategies below are read off :data:`repro.service.server.REQUESTS`
— its kinds, its envelope, each field's types and bounds — not written
by hand per kind: a field added to the table is fuzzed without touching
this file.  Each example is one well-formed wire frame (valid codec,
valid framing) whose *values* may be hostile: a wrong type, ``True``
where an int belongs, a number or a string past its bound (an RSA
modulus past 4096 bits, a coin counter outside 4 bytes), a hostile
value inside a key or a coin, a non-string ``rid`` or ``sender``, a
non-finite ``now``, an unknown field or kind.  Well-formed frames draw
keys of opened and of unknown accounts, so a kind's screen (the
PPMSpbs deposit's unknown payer or payee) is probed too.
"""

from __future__ import annotations

import dataclasses
import math
import random

from hypothesis import given, settings, strategies as st

from repro.crypto.cl_sig import BlindIssuanceRequest
from repro.crypto.zkp.schnorr import SchnorrProof
from repro.ecash.dec import begin_withdrawal
from repro.net.schema import Field
from repro.service import (
    Journal,
    MarketService,
    ServiceClient,
    ServiceFrontend,
    ShardedBank,
    VerificationBatcher,
)
from repro.service.server import REQUESTS
from repro.testing import build_pbs_kit

from tests.service.conftest import mint_tokens

#: one value of every codec type a field might not expect
_ODD = (True, False, None, 0, 7, -1, 1.5, "x", b"x", [1], {"k": 1})


def _stack(dec_params_toy, service_backend):
    journal = Journal()
    bank = ShardedBank.create(dec_params_toy, random.Random(3),
                              journal=journal)
    batcher = VerificationBatcher(bank.params, bank.keypair, max_batch=8,
                                  seed=1, backend=service_backend)
    return MarketService(bank, batcher=batcher, rng=random.Random(5)), journal


def _journal_bytes(journal: Journal) -> int:
    storage = journal.storage
    return sum(storage.size(name) for name in storage.names())


def _valid(spec: Field, samples: dict) -> st.SearchStrategy:
    """Values *spec* accepts; crypto types come from *samples*."""
    options = []
    for kind in spec.types:
        if kind in samples:
            options.append(st.sampled_from(samples[kind]))
        if kind in (str, bytes):
            sizes = {"min_size": int(max(spec.low, 0)),
                     "max_size": int(min(spec.high, 12))}
            options.append(st.text(**sizes) if kind is str
                           else st.binary(**sizes))
        elif kind is int:
            options.append(st.integers(
                None if spec.low == -math.inf else int(spec.low),
                None if spec.high == math.inf else int(min(spec.high, 1 << 40))))
        elif kind is float:
            options.append(st.floats(max(spec.low, -1e9), min(spec.high, 1e9)))
    return st.one_of(options)


def _with(value, key, part):
    """*value* with its part *key* (attribute or index) replaced."""
    if type(key) is int:
        return type(value)(part if i == key else v for i, v in enumerate(value))
    return dataclasses.replace(value, **{key: part})


def _hostile(spec: Field, samples: dict) -> st.SearchStrategy:
    """Values *spec* refuses: the wrong type, past a bound, or holding
    one hostile part."""
    options = [st.sampled_from([v for v in _ODD if type(v) not in spec.types])]
    bases = [v for kind in spec.types for v in samples.get(kind, ())]
    for key, part in spec.parts.items():
        options.append(st.tuples(st.sampled_from(bases), _hostile(part, samples))
                       .map(lambda pair, key=key: _with(pair[0], key, pair[1])))
    kind = spec.types[0]
    if kind in (str, bytes):
        if spec.high < math.inf:
            too_long = "x" * (int(spec.high) + 1)
            options.append(st.just(too_long.encode() if kind is bytes
                                   else too_long))
        if spec.low > 0:
            options.append(st.just(kind()))
    elif kind in (int, float):
        if spec.high < math.inf:
            options.append(st.sampled_from([spec.high + 1, math.inf, math.nan]))
        if spec.low > -math.inf:
            options.append(st.sampled_from([spec.low - 1, -math.inf]))
    return st.one_of(options)


@st.composite
def _frames(draw, samples: dict):
    """``(frame, malformed)``: a request frame, at most one value hostile."""
    kind = draw(st.sampled_from(sorted(REQUESTS.messages)))
    fields = REQUESTS.messages[kind].fields
    payload = {name: draw(_valid(spec, samples)) for name, spec in fields.items()
               if not spec.optional or draw(st.booleans())}
    envelope = {name: draw(_valid(spec, samples))
                for name, spec in REQUESTS.envelope.items()}
    fault = draw(st.sampled_from(
        ["none", "field", "envelope", "missing", "extra", "kind", "not-a-dict"]))
    required = [name for name, spec in fields.items() if not spec.optional]
    if fault == "field" and payload:
        name = draw(st.sampled_from(sorted(payload)))
        payload[name] = draw(_hostile(fields[name], samples))
    elif fault == "envelope":
        name = draw(st.sampled_from(sorted(REQUESTS.envelope)))
        # the door stands a falsy sender's connection name in, and an
        # omitted (None) rid is a fresh one: neither is malformed
        envelope[name] = draw(_hostile(REQUESTS.envelope[name], samples).filter(
            lambda v: v is not None and (name != "sender" or bool(v))))
    elif fault == "missing" and required:
        del payload[draw(st.sampled_from(required))]
    elif fault == "extra":
        payload["surplus"] = draw(st.sampled_from(_ODD))
    elif fault == "kind":
        kind = draw(st.sampled_from(["transmogrify", "", "DEPOSIT", 7, None]))
    elif fault == "not-a-dict":
        payload = draw(st.sampled_from([None, [], "payload", 5]))
    else:
        fault = "none"
    return {"kind": kind, "payload": payload, **envelope}, fault != "none"


def test_hostile_values_are_refused_and_leave_no_trace(dec_params_toy,
                                                       service_backend, rng):
    service, journal = _stack(dec_params_toy, service_backend)
    deposits = mint_tokens(service, rng, 4)
    tokens = [r.payload["token"] for r in deposits]
    requests = [begin_withdrawal(service.bank.params, rng)[1] for _ in range(2)]
    pbs = build_pbs_kit(random.Random("request-table:pbs"), n_sps=2)
    for _aid, key, balance in pbs.accounts:
        service.bank.pbs_open_account(key, balance)
    stranger = (pbs.sp_keys[0][0] + 2, 65537)  # no account holds this key
    keys = [key for _aid, key, _balance in pbs.accounts] + [stranger]
    # real accounts beside random text, so well-formed frames reach the
    # handlers' own checks (and sometimes succeed)
    samples = {type(tokens[0]): tokens, type(requests[0]): requests,
               str: sorted({r.sender for r in deposits}),
               type(pbs.receipts[0].signature):
                   [receipt.signature for receipt in pbs.receipts],
               tuple: keys, list: [list(key) for key in keys]}
    with ServiceFrontend(service) as front, \
            ServiceClient(front.address, timeout=30.0) as client:

        @settings(max_examples=150)
        @given(_frames(samples))
        def probe(case):
            frame, malformed = case
            entry = REQUESTS.messages.get(frame["kind"])
            # the dispatcher is idle between two probes: reading the
            # books from here races nothing
            screened = (not malformed and entry.screen is not None
                        and entry.screen(service, frame["payload"]) is not None)
            # a well-formed frame may reuse the rid of an earlier probe
            # that completed: the service then answers that verdict again
            cached = None if malformed else service.reply_for(frame["rid"])
            before = _journal_bytes(journal)
            cid = client.send(frame["kind"], frame["payload"],
                              sender=frame["sender"], rid=frame["rid"],
                              now=frame["now"])
            reply = client.recv()
            assert reply["cid"] == cid  # exactly one reply, and it is ours
            if cached is not None:
                status, body = cached
                verdict = {k: v for k, v in reply.items() if k not in ("cid", "req")}
                assert verdict == {"status": status, **body}, (frame, reply)
                assert _journal_bytes(journal) == before
            elif malformed or screened:
                assert reply["status"] == "ERROR", (frame, reply)
                assert _journal_bytes(journal) == before

        probe()
        audit = client.request("audit", {})
    assert audit["status"] == "OK" and audit["clean"] is True
    assert service.queue_depth == 0


def test_a_flood_of_malformed_deposits_writes_no_journal_byte(
        dec_params_toy, service_backend):
    """Each of these used to leave an ``accept`` and a ``reply`` record."""
    service, journal = _stack(dec_params_toy, service_backend)
    window = 50
    with ServiceFrontend(service) as front, \
            ServiceClient(front.address, timeout=60.0) as client:
        assert client.request("open-account",
                              {"aid": "sp0", "balance": 1})["status"] == "OK"
        before = _journal_bytes(journal)
        for _ in range(10_000 // window):
            for _ in range(window):
                client.send("deposit", {"aid": "sp0", "token": b"junk"})
            for _ in range(window):
                assert client.recv()["status"] == "ERROR"
        assert _journal_bytes(journal) == before
        assert client.request("audit", {})["clean"] is True


def test_a_withdrawal_whose_proof_fails_is_refused_and_the_loop_keeps_running(
        dec_params_toy, service_backend, rng):
    """A well-typed request whose proof of knowledge fails (its proof
    taken from another request) is one ``ERROR``, not an exception out
    of the batch flush; the honest withdrawal in the same batch is
    signed and charged."""
    service, _ = _stack(dec_params_toy, service_backend)
    service.submit("a", "open-account", {"aid": "a", "balance": 1 << 10}, rid="open")
    service.drain()
    honest, other = (begin_withdrawal(service.bank.params, rng)[1] for _ in range(2))
    forged = dataclasses.replace(honest, proof=other.proof)
    service.submit("a", "withdraw", {"aid": "a", "request": forged}, rid="forged")
    service.submit("a", "withdraw", {"aid": "a", "request": honest}, rid="honest")
    service.drain()
    assert service.reply_for("forged") == (
        "ERROR", {"error": "blind issuance request proof failed"})
    assert service.reply_for("honest")[0] == "OK"
    assert service.bank.balance("a") == (1 << 10) - (1 << service.bank.params.tree_level)


def test_an_all_identity_withdrawal_is_refused_and_debits_nothing(
        dec_params_toy, service_backend):
    """``M = R = O`` with response 0 passes the proof of knowledge
    (``g^0 = O = O · O^e``); the issuer's membership check refuses it
    before it signs, so the reply is ``ERROR`` and the account keeps
    its balance."""
    service, _ = _stack(dec_params_toy, service_backend)
    service.submit("a", "open-account", {"aid": "a", "balance": 1 << 10}, rid="open")
    service.drain()
    identity = service.bank.params.backend.identity()
    forged = BlindIssuanceRequest(
        commitment=identity, proof=SchnorrProof(commitment=identity, response=0))
    service.submit("a", "withdraw", {"aid": "a", "request": forged}, rid="forged")
    service.drain()
    assert service.reply_for("forged")[0] == "ERROR"
    assert service.bank.balance("a") == 1 << 10
