"""Cryptographic substrates, all implemented from scratch.

Subpackages and modules:

* :mod:`~repro.crypto.ntheory` — primality, prime generation, modular tools
* :mod:`~repro.crypto.cunningham` — first-kind Cunningham chains (DEC setup)
* :mod:`~repro.crypto.groups` — Schnorr groups and the DEC group tower
* :mod:`~repro.crypto.hashing` — SHA-256 helpers, Fiat–Shamir transcript
* :mod:`~repro.crypto.rsa` — RSA keygen / hybrid encryption / signatures
* :mod:`~repro.crypto.blind` — Chaum blind signature
* :mod:`~repro.crypto.partial_blind` — RSA partially blind signature
* :mod:`~repro.crypto.pairing` — Tate pairing + toy bilinear backends
* :mod:`~repro.crypto.cl_sig` — Camenisch–Lysyanskaya signatures
* :mod:`~repro.crypto.zkp` — Schnorr / representation / double-log / OR proofs

The only off-the-shelf primitive in the whole stack is SHA-256 from the
standard library's :mod:`hashlib`; four verification loops have a C
copy over libgmp's integers (``_kernel.c``, see :mod:`~repro.crypto.fastexp`).
"""
