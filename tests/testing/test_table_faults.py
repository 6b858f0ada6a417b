"""Crash injection in the shared-table publication window.

The one window where shipping tables could hurt correctness is a
publisher dying between creating the shared segment and handing out
its reference.  `tablestore.set_crash_hook` exposes exactly that
window to the fault harness; these tests kill the publisher there and
require (a) no leaked segments or files, (b) the pool constructor
shrugging it off — workers build locally — and (c) verification
results identical to a run that never attempted sharing.
"""

from __future__ import annotations

import glob
import os
import tempfile

import pytest

from repro.crypto import fastexp, tablestore
from repro.crypto.cl_sig import cl_blind_issue, cl_keygen
from repro.ecash.dec import begin_withdrawal, finish_withdrawal
from repro.ecash.spend import create_spend
from repro.ecash.tree import NodeId
from repro.service.workers import PooledBackend
from repro.testing.faults import CrashPoint


@pytest.fixture(autouse=True)
def _forced_fastexp():
    """Sharing only engages with tables on; small test moduli need the
    gates opened."""
    previous = fastexp.configure(enabled=True, promote_after=0, min_modulus_bits=1)
    fastexp.reset()
    yield
    tablestore.set_crash_hook(None)
    fastexp.configure(**previous)
    fastexp.reset()


def _crash_hook():
    raise CrashPoint(0)


def _tokens(params, rng, count=4):
    bank_kp = cl_keygen(params.backend, rng)
    secret, request = begin_withdrawal(params, rng)
    signature = cl_blind_issue(params.backend, bank_kp, request, rng)
    coin = finish_withdrawal(params, bank_kp.public, secret, signature)
    tokens = [
        create_spend(params, bank_kp.public, coin.secret, coin.signature,
                     NodeId(2, i), rng)
        for i in range(count)
    ]
    return bank_kp, tokens


def test_publish_crash_leaks_nothing():
    tablestore.set_crash_hook(_crash_hook)
    store = tablestore.TableStore()
    with pytest.raises(CrashPoint):
        store.publish(b"tables")
    assert store.ref is None
    leftovers = glob.glob(
        os.path.join(tempfile.gettempdir(), "repro-tables-*.bin")
    )
    assert leftovers == []


def test_pool_survives_publish_crash(dec_params_toy, rng):
    """A crash in the publication window must cost only the shortcut:
    the pool comes up with ``table_ref=None`` and workers warm locally."""
    keypair = cl_keygen(dec_params_toy.backend, rng)
    tablestore.set_crash_hook(_crash_hook)
    try:
        backend = PooledBackend(dec_params_toy, keypair.public, processes=2)
    except CrashPoint:
        pytest.fail("publish crash escaped the PooledBackend constructor")
    except Exception:
        pytest.skip("process pool unavailable in this environment")
    finally:
        tablestore.set_crash_hook(None)
    try:
        assert backend.table_ref is None
        assert not backend.degraded
    finally:
        backend.close()


def test_replies_identical_with_and_without_crash(dec_params_toy, rng):
    """Local-build fallback is invisible in verdicts: the same seeded
    deposit chunks produce identical results whether the workers
    attached to shipped tables, built locally after a publish crash, or
    ran inline."""
    import dataclasses

    from repro.service.batcher import _batch_worker

    params = dec_params_toy
    bank_kp, tokens = _tokens(params, rng)
    bad = 2
    tokens[bad] = dataclasses.replace(
        tokens[bad], sig_b=params.backend.exp(tokens[bad].sig_b, 2)
    )
    grid = [
        ("deposit", params, bank_kp.public, tuple(tokens[:2]), b""),
        ("deposit", params, bank_kp.public, tuple(tokens[2:]), b""),
    ]

    from repro.service.workers import InlineBackend

    inline = InlineBackend().run(_batch_worker, grid, seed=99)

    tablestore.set_crash_hook(_crash_hook)
    try:
        backend = PooledBackend(params, bank_kp.public, processes=2)
    except CrashPoint:
        pytest.fail("publish crash escaped the PooledBackend constructor")
    except Exception:
        pytest.skip("process pool unavailable in this environment")
    finally:
        tablestore.set_crash_hook(None)
    try:
        assert backend.table_ref is None
        crashed = backend.run(_batch_worker, grid, seed=99)
    finally:
        backend.close()
    assert crashed == inline
    verdicts = [valid for valid, _serials in crashed[0] + crashed[1]]
    assert verdicts[bad] is False
    assert all(v for i, v in enumerate(verdicts) if i != bad)
