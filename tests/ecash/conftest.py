"""Fixtures shared by the spend-verification tests."""

from __future__ import annotations

import pytest

from repro.crypto import fastexp


@pytest.fixture(params=["kernel", "python"])
def path(request, monkeypatch):
    """Run the test on the verification kernel, then on the Python loops."""
    if request.param == "kernel" and fastexp.KERNEL is None:
        pytest.skip("the verification kernel is not built")
    if request.param == "python":
        monkeypatch.setattr(fastexp, "KERNEL", None)
    return request.param
