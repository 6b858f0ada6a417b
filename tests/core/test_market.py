"""Tests for the shared market substrate."""

from __future__ import annotations

import pytest

from repro.core.market import BulletinBoard, DataReport, JobProfile, MarketDesk, new_job_id


class TestJobProfile:
    def test_valid(self):
        p = JobProfile(job_id="j1", description="d", payment=3, owner_pseudonym=b"xx")
        assert p.payment == 3

    def test_rejects_zero_payment(self):
        with pytest.raises(ValueError):
            JobProfile(job_id="j", description="d", payment=0, owner_pseudonym=b"x")

    def test_rejects_missing_pseudonym(self):
        with pytest.raises(ValueError):
            JobProfile(job_id="j", description="d", payment=1, owner_pseudonym=b"")


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

    def test_rejects_empty_payload(self):
        with pytest.raises(ValueError):
            DataReport(job_id="j", submitter_pseudonym=b"p", payload=b"")


class TestJobIds:
    def test_unique(self):
        ids = {new_job_id() for _ in range(100)}
        assert len(ids) == 100


@pytest.mark.parametrize("payment", [b"ciphertext", (12345, 7)],
                         ids=["ciphertext", "pbs-ctr"])
class TestMarketDesk:
    """The escrow of paper Section III-A, for either mechanism's payment."""

    PSEUD = b"sp-pseudonym"

    def _report(self, payload=b"data"):
        return DataReport(job_id="j", submitter_pseudonym=self.PSEUD, payload=payload)

    def test_publish_job_lands_on_the_board(self, payment):
        desk = MarketDesk()
        profile = desk.publish_job("noise map", 3, b"jo-pseudonym")
        assert desk.board.lookup(profile.job_id) == profile
        assert (profile.description, profile.payment) == ("noise map", 3)

    def test_payment_is_held_until_the_data_is_held(self, payment):
        desk = MarketDesk()
        desk.accept_payment(self.PSEUD, payment)
        assert desk.payment_for(self.PSEUD) is None
        desk.accept_data(self._report())
        assert desk.payment_for(self.PSEUD) == payment

    def test_data_first_then_payment(self, payment):
        desk = MarketDesk()
        desk.accept_data(self._report())
        assert desk.payment_for(self.PSEUD) is None
        desk.accept_payment(self.PSEUD, payment)
        assert desk.payment_for(self.PSEUD) == payment

    def test_payment_is_handed_over_exactly_once(self, payment):
        desk = MarketDesk()
        desk.accept_payment(self.PSEUD, payment)
        desk.accept_data(self._report())
        assert desk.payment_for(self.PSEUD) == payment
        assert desk.payment_for(self.PSEUD) is None
        desk.accept_data(self._report(b"replayed"))  # a replayed data-submission
        assert desk.payment_for(self.PSEUD) is None

    def test_release_data_hands_the_report_over_once(self, payment):
        desk = MarketDesk()
        desk.accept_data(self._report())
        assert desk.release_data(self.PSEUD).payload == b"data"
        with pytest.raises(KeyError):
            desk.release_data(self.PSEUD)

    def test_release_data_of_unknown_pseudonym(self, payment):
        with pytest.raises(KeyError):
            MarketDesk().release_data(b"nobody")
