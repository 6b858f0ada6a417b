"""repro — reproduction of *Privacy Preserving Market Schemes for
Mobile Sensing* (Zhang, Mao, Zhang, Zhong; ICPP 2015).

Two privacy-preserving mobile-sensing market mechanisms, with every
substrate built from scratch:

* **PPMSdec** (:class:`repro.core.PPMSdecSession`) — markets with
  arbitrary per-participant payments, built on binary-tree divisible
  e-cash over a Cunningham-chain group tower, blind Camenisch–
  Lysyanskaya certification over a Tate pairing, and the PCBA/EPCBA
  cash-break algorithms that defeat the denomination attack.
* **PPMSpbs** (:class:`repro.core.PPMSpbsSession`) — unitary-payment
  markets, built on an RSA partially blind signature coin.

Quick start::

    import random
    from repro import ecash
    from repro.core import PPMSdecSession

    rng = random.Random(0)
    params = ecash.setup(level=4, rng=rng)
    market = PPMSdecSession(params, rng)
    jo = market.new_job_owner("hospital", funds=64)
    sp = market.new_participant("alice")
    market.run_job(jo, [sp], payment=5)

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
system inventory and the paper-experiment index.
"""

__version__ = "1.0.0"

__all__ = [
    "attacks",
    "core",
    "crypto",
    "ecash",
    "metrics",
    "net",
    "obs",
    "service",
    "sim",
    "workloads",
    "__version__",
]
