"""The paper's primary contribution: the two market mechanisms.

* :mod:`~repro.core.ppms_dec` — PPMSdec, arbitrary payments, divisible
  e-cash + cash break (Section IV / Algorithm 1).
* :mod:`~repro.core.ppms_pbs` — PPMSpbs, unitary payments, partially
  blind signatures (Section V / Algorithm 4).
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
    SPDecMachine,
    run_dec_machine_market,
)
from repro.core.engine import Outbound, Party, ProtocolError, Router
from repro.core.ledger import AuditReport, audit_bank, restore_bank, snapshot_bank
from repro.core.pbs_ledger import (
    PbsAuditReport,
    audit_pbs_bank,
    restore_pbs_bank,
    snapshot_pbs_bank,
)
from repro.core.market import BulletinBoard, DataReport, JobProfile, MarketDesk
from repro.core.optimal_break import improvement_over_epcba, optimal_break
from repro.core.pbs_machine import JOMachine, MAMachine, SPMachine, run_machine_market
from repro.core.trading import RedemptionDesk, RedemptionVoucher, trade_sensing_service
from repro.core.ppms_dec import (
    JobOwnerDec,
    MarketAdministratorDec,
    PaymentBundle,
    PPMSdecSession,
    SensingParticipantDec,
)
from repro.core.ppms_pbs import (
    CoinReceipt,
    JobOwnerPbs,
    MarketAdministratorPbs,
    PPMSpbsSession,
    SensingParticipantPbs,
    VirtualBankPbs,
)

__all__ = [
    "PPMSdecSession",
    "JobOwnerDec",
    "SensingParticipantDec",
    "MarketAdministratorDec",
    "PaymentBundle",
    "PPMSpbsSession",
    "JobOwnerPbs",
    "SensingParticipantPbs",
    "MarketAdministratorPbs",
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
    "run_machine_market",
    "MADecMachine",
    "JODecMachine",
    "SPDecMachine",
    "run_dec_machine_market",
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
    "improvement_over_epcba",
    "BREAK_FN_BY_NAME",
    "unitary_break",
    "pcba",
    "epcba",
    "coverage",
    "subset_sums",
    "validate_break",
]
