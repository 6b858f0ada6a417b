"""Regenerate the golden serialization fixtures under tests/fixtures/.

The fixtures pin the on-disk byte format of :mod:`repro.ecash.params_io`
and :mod:`repro.ecash.wallet_io`: any codec or layout change that
silently breaks old blobs shows up as a byte diff against these files
(``tests/ecash/test_io_golden.py``).  Everything is derived from fixed
seeds on the toy pairing backend, so running this script twice — or on
another machine — produces identical bytes.

Usage::

    PYTHONPATH=src python tools/gen_golden_fixtures.py   # rewrite fixtures

Only rerun (and commit the diff) on a *deliberate* format change.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def build_fixtures() -> dict[str, bytes]:
    """All golden blobs, keyed by fixture file name."""
    from repro.crypto.cl_sig import cl_keygen
    from repro.ecash.dec import begin_withdrawal, cl_blind_issue, finish_withdrawal, setup
    from repro.ecash.params_io import export_params
    from repro.ecash.wallet import Wallet
    from repro.ecash.wallet_io import snapshot_coins
    from repro.ecash.tree import CoinTree, NodeId

    params = setup(3, random.Random("golden:params"), real_pairing=False, edge_rounds=4)
    bank = cl_keygen(params.backend, random.Random("golden:bank"))

    rng = random.Random("golden:coins")
    coins = []
    for _ in range(2):
        secret, request = begin_withdrawal(params, rng)
        signature = cl_blind_issue(params.backend, bank, request, rng)
        coins.append(finish_withdrawal(params, bank.public, secret, signature))

    fresh_wallet = Wallet(tree=CoinTree(params.tree_level), secret=coins[0].secret)
    spent_wallet = Wallet(tree=CoinTree(params.tree_level), secret=coins[1].secret)
    for node in (NodeId(1, 0), NodeId(2, 2), NodeId(3, 6)):
        spent_wallet.spent.add(node)

    return {
        "dec_params_toy_l3.bin": export_params(params),
        "dec_params_toy_l3_with_pk.bin": export_params(params, bank.public),
        "wallet_snapshot_two_coins.bin": snapshot_coins(
            [(coins[0], fresh_wallet), (coins[1], spent_wallet)]
        ),
    }


def main() -> int:
    FIXTURES_DIR.mkdir(parents=True, exist_ok=True)
    for name, blob in sorted(build_fixtures().items()):
        path = FIXTURES_DIR / name
        changed = not path.exists() or path.read_bytes() != blob
        path.write_bytes(blob)
        print(f"{'wrote' if changed else 'unchanged'}  {path}  ({len(blob)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
