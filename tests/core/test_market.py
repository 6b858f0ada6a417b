"""Tests for the shared market substrate."""

from __future__ import annotations

import pytest

from repro.core.dec_machine import MADecMachine
from repro.core.engine import Outbound, ProtocolError
from repro.core.market import (
    DESK,
    BulletinBoard,
    DataReport,
    JobProfile,
    MarketDesk,
    new_job_id,
    pseudonym_name,
)
from repro.core.pbs_machine import MAMachine


class TestJobProfile:
    def test_valid(self):
        p = JobProfile(job_id="j1", description="d", payment=3, owner_pseudonym=b"xx")
        assert p.payment == 3

    # a profile is built only from a job-registration its MA's row took
    def test_rejects_zero_payment(self):
        _, problem = MADecMachine.table.check(
            "job-registration", {"jd": "d", "w": 0, "rpk_fingerprint": b"x"})
        assert problem == "job-registration: 'w' value must be 1 … 2^63 − 1, got 0"

    def test_rejects_missing_pseudonym(self):
        for machine, payload in ((MADecMachine, {"jd": "d", "w": 1, "rpk_fingerprint": b""}),
                                 (MAMachine, {"jd": "d", "rpk_fingerprint": b""})):
            _, problem = machine.table.check("job-registration", payload)
            assert problem == "job-registration: 'rpk_fingerprint' length must be 1 … 16, got 0"


class TestBulletinBoard:
    def _profile(self, jid):
        return JobProfile(job_id=jid, description="d", payment=1, owner_pseudonym=b"p")

    def test_publish_and_lookup(self):
        board = BulletinBoard()
        board.publish(self._profile("a"))
        assert board.lookup("a").job_id == "a"

    def test_rejects_duplicate(self):
        board = BulletinBoard()
        board.publish(self._profile("a"))
        with pytest.raises(ValueError):
            board.publish(self._profile("a"))

    def test_lookup_missing(self):
        with pytest.raises(KeyError):
            BulletinBoard().lookup("ghost")

    def test_jobs_ordered_and_copied(self):
        board = BulletinBoard()
        board.publish(self._profile("a"))
        board.publish(self._profile("b"))
        jobs = board.jobs()
        assert [j.job_id for j in jobs] == ["a", "b"]
        jobs.clear()
        assert len(board.jobs()) == 2


class TestDataReport:
    def test_valid(self):
        r = DataReport(job_id="j", submitter_pseudonym=b"p", payload=b"data")
        assert r.payload == b"data"

    # a report is built only from a data-submission the desk's row took
    def test_rejects_empty_payload(self):
        entry = DESK["data-submission"]
        _, problem = MADecMachine.table.check(
            "data-submission", {"pseudonym": b"p" * 16, "job": "j", "data": b""})
        assert MAMachine.table.messages["data-submission"] is entry
        assert problem == "data-submission: 'data' length must be ≥ 1, got 0"


class TestJobIds:
    def test_unique(self):
        ids = {new_job_id() for _ in range(100)}
        assert len(ids) == 100


@pytest.mark.parametrize("payment", [{"ciphertext": b"c"}, {"pbs": 12345, "ctr": 7}],
                         ids=["ciphertext", "pbs-ctr"])
class TestMarketDesk:
    """The escrow of paper Section III-A, for either mechanism's payment."""

    PSEUD = b"sp-pseudonym"
    SP = pseudonym_name(PSEUD)
    JO = "nym:jo"

    def _desk(self):
        """A desk with one job and labor registered for it under PSEUD."""
        desk = MarketDesk()
        self.job = desk.publish_job(self.JO, "noise map", 3, b"jo-pseudonym").job_id
        assert desk.register_labor(self.SP, self.PSEUD, self.job) == self.JO
        return desk

    def _report(self, payload=b"data"):
        return DataReport(job_id=self.job, submitter_pseudonym=self.PSEUD, payload=payload)

    def _delivery(self, payment):
        return [Outbound(self.SP, "payment-delivery", payment)]

    def test_publish_job_lands_on_the_board(self, payment):
        desk = MarketDesk()
        profile = desk.publish_job(self.JO, "noise map", 3, b"jo-pseudonym")
        assert desk.board.lookup(profile.job_id) == profile
        assert (profile.description, profile.payment) == ("noise map", 3)
        assert desk.owner_of(profile.job_id) == self.JO

    def test_payment_is_held_until_the_data_is_held(self, payment):
        desk = self._desk()
        assert desk.accept_payment(self.JO, self.PSEUD, payment) == []
        assert desk.accept_data(self.SP, self._report()) == self._delivery(payment)

    def test_data_first_then_payment(self, payment):
        desk = self._desk()
        assert desk.accept_data(self.SP, self._report()) == []
        assert desk.accept_payment(self.JO, self.PSEUD, payment) == self._delivery(payment)

    def test_payment_is_handed_over_exactly_once(self, payment):
        desk = self._desk()
        desk.accept_payment(self.JO, self.PSEUD, payment)
        assert desk.accept_data(self.SP, self._report()) == self._delivery(payment)
        # a replayed data-submission
        assert desk.accept_data(self.SP, self._report(b"replayed")) == []

    def test_release_data_hands_the_report_over_once(self, payment):
        desk = self._desk()
        desk.accept_data(self.SP, self._report())
        assert desk.release_data(self.SP, self.PSEUD) == Outbound(
            self.JO, "data-delivery", {"job": self.job, "data": b"data"})
        with pytest.raises(ProtocolError, match="without a held report"):
            desk.release_data(self.SP, self.PSEUD)

    def test_release_data_of_unknown_pseudonym(self, payment):
        with pytest.raises(ProtocolError, match="without a held report"):
            MarketDesk().release_data(pseudonym_name(b"nobody"), b"nobody")
