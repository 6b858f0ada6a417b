"""Spender-side persistence: save and restore coins with their wallets.

A job owner holding withdrawn coins must survive a restart without
double-spending its own nodes (re-paying an already-spent node is
caught by the bank — after the payee was already given a dud).  This
module serializes the complete spend-side state — coin secrets, the
bank's CL signatures, and each wallet's spent-node set — through the
canonical codec with an integrity digest, mirroring the bank-side
:mod:`repro.core.ledger`.

The blob contains coin secrets: it is as sensitive as cash.  Protect it
like a wallet file (the integrity digest detects corruption, not
theft).
"""

from __future__ import annotations

from repro.ecash.dec import Coin
from repro.ecash.tree import CoinTree, NodeId
from repro.ecash.wallet import Wallet
from repro.net.codec import seal, unseal

__all__ = ["WalletSnapshotError", "snapshot_coins", "restore_coins"]

_MAGIC = b"repro-wallet-snapshot-v1"


class WalletSnapshotError(Exception):
    """Wallet blob rejected (corruption, version)."""


def snapshot_coins(coins: list[tuple[Coin, Wallet]]) -> bytes:
    """Serialize a spender's coins and their allocation state."""
    state = {
        "coins": [
            {
                "secret": coin.secret,
                "signature": coin.signature,
                "level": coin.level,
                "spent": sorted(wallet.spent),
            }
            for coin, wallet in coins
        ],
    }
    return seal(_MAGIC, state)


def restore_coins(blob: bytes) -> list[tuple[Coin, Wallet]]:
    """Reconstruct coins + wallets from a snapshot blob."""
    state = unseal(_MAGIC, blob, "wallet snapshot", WalletSnapshotError)
    out: list[tuple[Coin, Wallet]] = []
    for entry in state["coins"]:
        coin = Coin(secret=entry["secret"], signature=entry["signature"],
                    level=entry["level"])
        wallet = Wallet(tree=CoinTree(entry["level"]), secret=entry["secret"])
        for node in entry["spent"]:
            if not isinstance(node, NodeId):
                raise WalletSnapshotError("corrupt spent-node entry")
            if not wallet.is_available(node):
                raise WalletSnapshotError("overlapping spent nodes in snapshot")
            wallet.spent.add(node)
        out.append((coin, wallet))
    return out
