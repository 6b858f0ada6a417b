"""End-to-end benchmark of the default market-administrator stack.

Socket in to reply out: a server process assembled only from public
constructors (``serve.py``), one asyncio load-generator process
(``client.py``), six named workloads (``workloads.py``) and a per-layer
budget taken from spans recorded around the calls into each layer
(``tracing.py``, ``layers.py``).  ``README.md`` is the manual.
"""
