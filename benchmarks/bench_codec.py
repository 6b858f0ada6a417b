"""The canonical codec on a deposit's hot path, in µs per call.

One command gives every codec figure ``docs/performance.md`` quotes::

    PYTHONPATH=src python -m pytest benchmarks/bench_codec.py --benchmark-only

Inputs are what a ``deposit`` carries on the end-to-end server:
``setup(3)`` parameters (80-bit, real Tate pairing) and one spend token
per node level 0-3 (≈0.8-5.2 KB encoded).  Measured:

* token **decode** at each level on both paths — the kernel's integer
  runs and the Python loop alone (the front door decodes a token once
  per deposit) — and token **encode**;
* one ``accept`` record's encode, with the request payload spliced in
  as the frame's bytes (what the service journals) and encoded afresh
  (what it journaled before the splice) — the two must be equal bytes;
* one deposit reply's frame encode.

Each figure lands in ``benchmark.extra_info`` as ``us_per_call``.
``REPRO_BENCH_SMOKE=1`` runs fewer rounds; nothing here is gated.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId
from repro.net.codec import Encoded, decode, decode_with_span, encode
from repro.net.wire import encode_frame

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS, ITERATIONS = (5, 2) if SMOKE else (60, 10)
LEVELS = range(4)


@pytest.fixture(scope="module")
def tokens():
    """One spend token per node level, from a ``setup(3)`` market."""
    rng = random.Random("bench-codec")
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    return [create_spend(params, keypair.public, coin.secret, coin.signature,
                         NodeId(level, 0), rng) for level in LEVELS]


def _run(benchmark, fn, **info) -> None:
    benchmark.pedantic(fn, rounds=ROUNDS, iterations=ITERATIONS)
    benchmark.extra_info.update(
        us_per_call=round(benchmark.stats.stats.median * 1e6, 1),
        smoke=SMOKE, **info)


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize("level", LEVELS)
def test_token_decode(benchmark, tokens, level, path, monkeypatch):
    """The kernel's integer runs, and the Python loop alone."""
    if path == "kernel" and fastexp.KERNEL is None:
        pytest.skip("the verification kernel is not built")
    if path == "python":
        monkeypatch.setattr(fastexp, "KERNEL", None)
    blob = encode(tokens[level])
    _run(benchmark, lambda: decode(blob), level=level, path=path, bytes=len(blob))


@pytest.mark.parametrize("level", LEVELS)
def test_token_encode(benchmark, tokens, level):
    token = tokens[level]
    _run(benchmark, lambda: encode(token), level=level,
         bytes=len(encode(token)))


@pytest.mark.parametrize("payload_as", ["spliced", "encoded"])
def test_accept_record_encode(benchmark, tokens, payload_as):
    """The record ``MarketService.submit`` journals for a level-1 deposit."""
    payload = {"aid": "sp0", "token": tokens[1]}
    frame = encode({"cid": 1, "kind": "deposit", "payload": payload,
                    "sender": "sp0", "rid": "sp0:1", "now": 0.0})
    _request, span = decode_with_span(frame, "payload")
    state = {"sender": "sp0", "kind": "deposit", "seq": 1,
             "payload": Encoded(span) if payload_as == "spliced" else payload}

    def record() -> bytes:
        return encode({"lsn": 41, "kind": "accept", "rid": "sp0:1",
                       "op": "deposit", "payload": state})

    assert record() == encode({"lsn": 41, "kind": "accept", "rid": "sp0:1",
                               "op": "deposit",
                               "payload": {**state, "payload": payload}})
    _run(benchmark, record, bytes=len(record()))


def test_reply_encode(benchmark):
    reply = {"cid": 7, "req": 12, "status": "OK", "amount": 4}
    _run(benchmark, lambda: encode_frame(reply), bytes=len(encode_frame(reply)))
