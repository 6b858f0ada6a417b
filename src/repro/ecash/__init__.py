"""Binary-tree Divisible E-cash (the substrate of PPMSdec).

Modules:

* :mod:`~repro.ecash.tree` — coin tree, node keys, leaf serials
* :mod:`~repro.ecash.wallet` — buddy allocation of unspent nodes
* :mod:`~repro.ecash.spend` — spend-token creation and verification
* :mod:`~repro.ecash.dec` — scheme facade: setup / withdraw / deposit
* :mod:`~repro.ecash.fake` — fake-coin padding against the
  denomination attack
"""

from repro.ecash.dec import (
    Coin,
    DECBank,
    DoubleSpendError,
    DoubleSpendEvidence,
    begin_withdrawal,
    finish_withdrawal,
    setup,
)
from repro.ecash.batch import batch_verify_spends
from repro.ecash.params_io import ParamsError, export_params, import_params
from repro.ecash.wallet_io import WalletSnapshotError, restore_coins, snapshot_coins
from repro.ecash.spend import DECParams, SpendToken, create_spend, verify_spend
from repro.ecash.tree import CoinTree, NodeId, derive_key_chain, leaf_serials, node_key
from repro.ecash.wallet import InsufficientFunds, Wallet

__all__ = [
    "setup",
    "DECParams",
    "DECBank",
    "Coin",
    "DoubleSpendError",
    "DoubleSpendEvidence",
    "export_params",
    "import_params",
    "ParamsError",
    "snapshot_coins",
    "restore_coins",
    "WalletSnapshotError",
    "begin_withdrawal",
    "finish_withdrawal",
    "SpendToken",
    "create_spend",
    "verify_spend",
    "batch_verify_spends",
    "CoinTree",
    "NodeId",
    "derive_key_chain",
    "node_key",
    "leaf_serials",
    "Wallet",
    "InsufficientFunds",
]
