"""Fixtures shared by the two mechanisms' machine tests."""

from __future__ import annotations

import pytest


def _escrow(ma) -> tuple:
    return ma._workers.copy(), ma._pending_payments.copy(), ma._held_reports.copy()


@pytest.fixture()
def forge_while_held(monkeypatch):
    """Run the session's router with one forged message slipped in.

    ``forge(session, worker, sender, out)`` posts *out* from *sender*
    as soon as the MA holds *worker*'s data, so it is delivered before
    the job owner's payment for that worker; returns whether the MA's
    escrow (labor bindings, held payments, held reports) came out of
    that delivery as it went in.
    """

    def forge(session, worker, sender, out) -> bool:
        ma, router = session.ma, session.router
        handle, posted, unchanged = ma.handle, [], []

        def spy(who, kind, payload):
            if len(posted) == 1 and (who, kind) == (sender, out.kind):
                posted.append(out)  # this delivery is the forged one
                before = _escrow(ma)
                try:
                    return handle(who, kind, payload)
                finally:
                    unchanged.append(_escrow(ma) == before)
            replies = handle(who, kind, payload)
            if not posted and (who, kind) == (worker.nym, "data-submission"):
                posted.append(None)
                router.post(sender, out)
            return replies

        monkeypatch.setattr(ma, "handle", spy)
        router.run()
        (same,) = unchanged
        return same

    return forge
