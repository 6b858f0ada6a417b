"""Import path kept for ``benchmarks/e2e``, which this tree may not edit.

There is one front door, :class:`repro.service.frontend.ServiceFrontend`;
``AsyncServiceFrontend`` is the same class object under its old name.
The benchmark PR that retires the ``rpc_threaded`` workload deletes
this module (ROADMAP, open item 3(a)).
"""

from repro.service.frontend import DEFAULT_WINDOW, ServiceFrontend as AsyncServiceFrontend

__all__ = ["AsyncServiceFrontend", "DEFAULT_WINDOW"]
