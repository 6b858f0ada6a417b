"""Zero-knowledge proof toolbox (all Fiat–Shamir non-interactive).

* :mod:`~repro.crypto.zkp.schnorr` — PoK of a discrete logarithm (the
  CL blind-issuance proof),
* :mod:`~repro.crypto.zkp.double_log` — Stadler double-discrete-log
  (cut-and-choose), the ablation baseline of the spend's edge proofs,
* :mod:`~repro.crypto.zkp.committed_double_log` — the spend-path edge
  proofs over committed values,
* :mod:`~repro.crypto.zkp.equality` — one witness across two groups of
  different order (the CL↔tower bridge of the spend).

Section VI-C of the paper also lists representation and OR proofs;
neither Algorithm 1 nor Algorithm 4 uses them, so they are not here.
"""

from repro.crypto.zkp.double_log import DoubleLogProof, prove_double_log, verify_double_log
from repro.crypto.zkp.schnorr import (
    SchnorrProof,
    prove_dlog,
    prove_dlog_generic,
    verify_dlog,
    verify_dlog_generic,
)

__all__ = [
    "SchnorrProof",
    "prove_dlog",
    "verify_dlog",
    "prove_dlog_generic",
    "verify_dlog_generic",
    "DoubleLogProof",
    "prove_double_log",
    "verify_double_log",
]
