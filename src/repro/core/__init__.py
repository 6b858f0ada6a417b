"""The paper's primary contribution: the two market mechanisms.

* :mod:`~repro.core.dec_machine` — PPMSdec, arbitrary payments,
  divisible e-cash + cash break (Section IV / Algorithm 1): one engine
  machine per party, and the session that drives them.
* :mod:`~repro.core.pbs_machine` — PPMSpbs, unitary payments,
  partially blind signatures (Section V / Algorithm 4): its machines
  and session; :mod:`~repro.core.pbs_ledger` — its bank.
* :mod:`~repro.core.cashbreak` — unitary / PCBA / EPCBA break
  algorithms (Algorithms 2–3).
* :mod:`~repro.core.market` — shared substrate (bulletin board, job
  profiles, data reports, the MA's payment-for-data escrow).
"""

from repro.core.cashbreak import (
    BREAK_FN_BY_NAME,
    coverage,
    epcba,
    pcba,
    subset_sums,
    unitary_break,
    validate_break,
)
from repro.core.dec_machine import (
    JODecMachine,
    MADecMachine,
    PaymentBundle,
    PPMSdecSession,
    SPDecMachine,
)
from repro.core.engine import Outbound, Party, ProtocolError, Router
from repro.core.ledger import AuditReport, audit_bank, restore_bank, snapshot_bank
from repro.core.pbs_ledger import (
    PbsAuditReport,
    VirtualBankPbs,
    audit_pbs_bank,
    restore_pbs_bank,
    snapshot_pbs_bank,
)
from repro.core.market import BulletinBoard, DataReport, JobProfile, MarketDesk
from repro.core.optimal_break import optimal_break
from repro.core.pbs_machine import CoinReceipt, JOMachine, MAMachine, PPMSpbsSession, SPMachine
from repro.core.trading import RedemptionDesk, RedemptionVoucher, trade_sensing_service

__all__ = [
    "PPMSdecSession",
    "PaymentBundle",
    "PPMSpbsSession",
    "VirtualBankPbs",
    "CoinReceipt",
    "BulletinBoard",
    "JobProfile",
    "DataReport",
    "MarketDesk",
    "Router",
    "Party",
    "Outbound",
    "ProtocolError",
    "MAMachine",
    "JOMachine",
    "SPMachine",
    "MADecMachine",
    "JODecMachine",
    "SPDecMachine",
    "snapshot_bank",
    "restore_bank",
    "audit_bank",
    "AuditReport",
    "snapshot_pbs_bank",
    "restore_pbs_bank",
    "audit_pbs_bank",
    "PbsAuditReport",
    "RedemptionDesk",
    "RedemptionVoucher",
    "trade_sensing_service",
    "optimal_break",
    "BREAK_FN_BY_NAME",
    "unitary_break",
    "pcba",
    "epcba",
    "coverage",
    "subset_sums",
    "validate_break",
]
