"""The canonical codec on a server's frames, in µs per call, on both walks.

One command gives every codec figure ``docs/performance.md`` quotes::

    PYTHONPATH=src python -m pytest benchmarks/bench_codec.py --benchmark-only

Each frame is encoded and decoded on both paths: ``path=kernel`` (the
kernel's ``codec_encode`` / ``codec_decode``) and ``path=python`` (the
reference walk, ``fastexp.KERNEL`` set to ``None``).  The frames are
what an end-to-end server reads and writes, on ``setup(3)`` parameters
(80-bit, real Tate pairing):

* a ``deposit`` request at each node level 0-3 (≈0.9-5.3 KB);
* an ``open-account`` request, and a reply;
* the ``accept`` record a level-1 deposit journals (the request's
  payload spliced in as the frame's bytes) and an ``apply`` record;
* a shard snapshot's body, a 1,000-account snapshot's body and a
  cluster bootstrap's body.

A request is decoded as the front door decodes it
(``decode_with_span(body, "payload")``), everything else with
``decode``.  Each bench checks first that both paths give the frame's
exact bytes back.  Each figure lands in ``benchmark.extra_info`` as
``us_per_call``.  ``REPRO_BENCH_SMOKE=1`` runs fewer rounds; nothing
here is gated.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.cluster import launcher
from repro.core.ledger import _MAGIC as SNAPSHOT_MAGIC
from repro.crypto import fastexp
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal, setup
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId
from repro.net.codec import Encoded, decode, decode_with_span, encode
from repro.service import ShardedBank

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
ROUNDS = 5 if SMOKE else 40
LEVELS = range(4)
FRAMES = [*(f"deposit L{level}" for level in LEVELS), "open-account request", "reply",
          "accept record", "apply record", "shard snapshot", "1,000-account snapshot",
          "cluster bootstrap"]
#: the body after a sealed blob's magic and 32-byte digest
_SEALED = {"shard snapshot": SNAPSHOT_MAGIC, "1,000-account snapshot": SNAPSHOT_MAGIC,
           "cluster bootstrap": launcher._BOOT_MAGIC}


def _request(kind: str, rid: str, payload: dict) -> dict:
    return {"cid": 3, "kind": kind, "now": 1.5, "payload": payload, "rid": rid,
            "sender": "sp0"}


@pytest.fixture(scope="module")
def frames(tmp_path_factory) -> dict[str, bytes]:
    """Every frame's bytes, by name."""
    rng = random.Random("bench-codec")
    params = setup(3, rng)
    keypair = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    coin = finish_withdrawal(params, keypair.public, secret,
                             cl_blind_issue(params.backend, keypair, request, rng))
    tokens = [create_spend(params, keypair.public, coin.secret, coin.signature,
                           NodeId(level, 0), rng) for level in LEVELS]
    out = {f"deposit L{level}": encode(_request("deposit", f"sp0:{level}",
                                                {"aid": "sp0", "token": tokens[level]}))
           for level in LEVELS}
    out["open-account request"] = encode(_request("open-account", "open:sp0",
                                                  {"aid": "sp0", "balance": 500}))
    out["reply"] = encode({"cid": 7, "req": 12, "status": "OK", "amount": 4})
    _value, span = decode_with_span(out["deposit L1"], "payload")
    out["accept record"] = encode({
        "lsn": 41, "kind": "accept", "rid": "sp0:1", "op": "deposit",
        "payload": {"sender": "sp0", "kind": "deposit", "seq": 1,
                    "payload": Encoded(span)}})
    out["apply record"] = encode({
        "lsn": 42, "kind": "apply", "rid": "sp0:1", "op": "deposit",
        "payload": {"aid": "sp0", "amount": 4, "seq": 1,
                    "serials": [(1 << 79) + i for i in range(4)]}})
    bank = ShardedBank(params, keypair, random.Random(1), n_shards=1)
    for i in range(4):
        bank.open_account(f"sp{i}", 100 + i)
    out["shard snapshot"] = bank.snapshot()[0]
    for i in range(4, 1000):
        bank.open_account(f"sp{i}", 100 + i)
    out["1,000-account snapshot"] = bank.snapshot()[0]
    path = tmp_path_factory.mktemp("boot") / "bootstrap.bin"
    launcher.write_bootstrap(str(path), params, keypair, nodes=["n0", "n1", "n2"])
    out["cluster bootstrap"] = path.read_bytes()
    for name, magic in _SEALED.items():
        out[name] = out[name][len(magic) + 32:]
    return out


def _on(path: str, monkeypatch) -> None:
    if path == "kernel" and fastexp.KERNEL is None:
        pytest.skip("the verification kernel is not built")
    if path == "python":
        monkeypatch.setattr(fastexp, "KERNEL", None)


def _run(benchmark, fn, **info) -> None:
    # about 32 KB of frame bytes a round
    iterations = 2 if SMOKE else max(1, (1 << 15) // info["bytes"])
    benchmark.pedantic(fn, rounds=ROUNDS, iterations=iterations)
    benchmark.extra_info.update(
        us_per_call=round(benchmark.stats.stats.median * 1e6, 2),
        smoke=SMOKE, **info)


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize("name", FRAMES)
def test_encode(benchmark, frames, name, path, monkeypatch):
    _on(path, monkeypatch)
    body = frames[name]
    value = decode(body)
    assert encode(value) == body
    _run(benchmark, lambda: encode(value), frame=name, path=path, bytes=len(body))


@pytest.mark.parametrize("path", ["kernel", "python"])
@pytest.mark.parametrize("name", FRAMES)
def test_decode(benchmark, frames, name, path, monkeypatch):
    _on(path, monkeypatch)
    body = frames[name]
    if name.startswith("deposit") or name.endswith("request"):
        def fn():
            return decode_with_span(body, "payload")[0]
    else:
        def fn():
            return decode(body)
    assert encode(fn()) == body
    _run(benchmark, fn, frame=name, path=path, bytes=len(body))
