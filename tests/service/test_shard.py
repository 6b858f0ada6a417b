"""The MA's bank: accounts, deposits, snapshot/restore/checkpoint/audit."""

from __future__ import annotations

import random

import pytest

from repro.core.ledger import SnapshotError
from repro.ecash.dec import DoubleSpendError
from repro.service import Checkpoint, Journal, MarketService, ShardedBank

from tests.service.conftest import mint_tokens


class TestAccounts:
    def test_open_and_balance(self, sharded_bank):
        sharded_bank.open_account("alice", 16)
        assert sharded_bank.has_account("alice")
        assert sharded_bank.balance("alice") == 16
        assert not sharded_bank.has_account("bob")

    def test_withdrawal_debits_and_records(self, sharded_bank):
        value = 1 << sharded_bank.params.tree_level
        sharded_bank.open_account("alice", value + 3)
        sharded_bank.apply_withdrawal("alice")
        assert sharded_bank.balance("alice") == 3
        assert sharded_bank.book.withdrawals == ["alice"]

    def test_underfunded_withdrawal_rejected(self, sharded_bank):
        sharded_bank.open_account("alice", 1)
        with pytest.raises(ValueError, match="cannot cover"):
            sharded_bank.apply_withdrawal("alice")
        assert sharded_bank.balance("alice") == 1

    def test_serve_py_call_still_deposits(self, dec_params_toy, rng):
        """``benchmarks/e2e/serve.py`` builds its bank with this exact
        call; the ignored ``n_shards`` keyword goes with that caller."""
        from repro.crypto.cl_sig import cl_keygen

        params = dec_params_toy
        keypair = cl_keygen(params.backend, rng)
        journal = Journal()
        bank = ShardedBank(params, keypair, random.Random(3), n_shards=4,
                           journal=journal)
        service = MarketService(bank, rng=random.Random(5))
        request = mint_tokens(service, rng, 1)[0]
        token = request.payload["token"]
        amount = bank.apply_deposit(request.sender, token,
                                    bank.expand_serials(token), rid="d:0")
        assert amount == token.denomination(params.tree_level)
        assert journal.last_lsn >= 0 and bank.audit().clean


class TestDeposits:
    def test_deposit_credits_denomination(self, service, rng):
        requests = mint_tokens(service, rng, 2, node_level=1)
        bank = service.bank
        request = requests[0]
        token = request.payload["token"]
        serials = bank.expand_serials(token)
        amount = bank.apply_deposit(request.sender, token, serials)
        assert amount == token.denomination(bank.params.tree_level)

    def test_exact_replay_rejected_atomically(self, service, rng):
        requests = mint_tokens(service, rng, 1)
        bank = service.bank
        request = requests[0]
        token = request.payload["token"]
        serials = bank.expand_serials(token)
        balance_after = None
        bank.apply_deposit(request.sender, token, serials)
        balance_after = bank.balance(request.sender)
        with pytest.raises(DoubleSpendError) as exc_info:
            bank.apply_deposit(request.sender, token, serials)
        evidence = exc_info.value.evidence
        assert evidence is not None and evidence.serial in serials
        # nothing credited, no serial rewritten
        assert bank.balance(request.sender) == balance_after

    def test_conflicting_serials_caught_across_shards(self, service, rng):
        """A token sharing any leaf serial conflicts regardless of where
        the other serials live."""
        requests = mint_tokens(service, rng, 1, node_level=0)  # whole coin
        bank = service.bank
        request = requests[0]
        token = request.payload["token"]
        serials = bank.expand_serials(token)
        assert len(serials) == 1 << bank.params.tree_level
        bank.apply_deposit(request.sender, token, serials)
        # overlapping subset: same node replayed under a different alias
        bank.open_account("mallory", 0)
        with pytest.raises(DoubleSpendError):
            bank.apply_deposit("mallory", token, serials[:1])

    def test_unknown_account_rejected(self, service, rng):
        requests = mint_tokens(service, rng, 1)
        token = requests[0].payload["token"]
        serials = service.bank.expand_serials(token)
        with pytest.raises(ValueError, match="unknown account"):
            service.bank.apply_deposit("nobody", token, serials)


def _deposited_bank(service, rng, n=4):
    """A bank with *n* applied deposits, plus the applied requests."""
    requests = mint_tokens(service, rng, n, node_level=1)
    bank = service.bank
    for request in requests:
        token = request.payload["token"]
        bank.apply_deposit(request.sender, token, bank.expand_serials(token))
    return bank, requests


class TestSnapshotRoundTrip:
    def test_snapshot_restore_audit_round_trip(self, service, rng, dec_params_toy):
        bank, _ = _deposited_bank(service, rng)
        blob = bank.snapshot()
        assert isinstance(blob, bytes)

        restored = ShardedBank(dec_params_toy, bank.keypair, random.Random(9))
        restored.restore(blob)
        assert restored.audit().clean
        assert restored.book.accounts == bank.book.accounts
        assert restored.book._seen_serials == bank.book._seen_serials
        assert restored.book.deposit_seq == bank.book.deposit_seq

    def test_restored_bank_still_detects_double_spends(self, service, rng, dec_params_toy):
        bank, requests = _deposited_bank(service, rng)
        restored = ShardedBank(dec_params_toy, bank.keypair, random.Random(9))
        restored.restore(bank.snapshot())
        token = requests[0].payload["token"]
        with pytest.raises(DoubleSpendError):
            restored.apply_deposit(
                requests[0].sender, token, restored.expand_serials(token)
            )

    @pytest.mark.parametrize("shard_index", [0, 1, 2, 3])
    def test_corrupt_shard_blob_identified(self, service, rng, dec_params_toy, shard_index):
        """A flipped byte anywhere in the book blob — magic, digest or
        body (the quarter points *shard_index*/4) — is refused."""
        bank, _ = _deposited_bank(service, rng)
        bad = bytearray(bank.snapshot())
        bad[len(bad) * shard_index // 4] ^= 0xFF
        restored = ShardedBank(dec_params_toy, bank.keypair, random.Random(9))
        with pytest.raises(SnapshotError, match="bank snapshot"):
            restored.restore(bytes(bad))

    def test_shard_count_mismatch_rejected(self, service, rng, dec_params_toy):
        """A stored checkpoint cut by a four-shard bank (four shard blobs
        and the PPMSpbs blob) is refused on recovery, by name."""
        bank, _ = _deposited_bank(service, rng)
        book, pbs = bank.checkpoint().blobs
        journal = Journal()
        journal.write_checkpoint(Checkpoint(lsn=journal.last_lsn,
                                            blobs=(book, book, book, book, pbs)))
        with pytest.raises(SnapshotError, match="5 blobs"):
            MarketService.recover(dec_params_toy, bank.keypair, journal,
                                  checkpoint=journal.load_checkpoint())

    @pytest.mark.parametrize("count", [1, 3, 5])
    def test_checkpoint_with_other_blob_counts_refused(self, service, rng,
                                                       dec_params_toy, count):
        bank, _ = _deposited_bank(service, rng)
        book, _pbs = bank.checkpoint().blobs
        with pytest.raises(SnapshotError, match=f"{count} blobs, not"):
            ShardedBank.recover(
                dec_params_toy, bank.keypair, random.Random(0), Journal(),
                checkpoint=Checkpoint(lsn=-1, blobs=(book,) * count),
            )

    def test_cut_after_reads_reuses_the_book_blob(self, service, rng):
        bank, requests = _deposited_bank(service, rng)
        first = bank.checkpoint()
        for request in requests:
            bank.balance(request.sender)
            bank.has_account(request.sender)
        bank.audit()
        second = bank.checkpoint()
        assert second.blobs[0] is first.blobs[0]  # byte for byte, not re-encoded
        assert second.blobs == first.blobs


class TestCrossShardAudit:
    def test_clean_after_traffic(self, service, rng):
        bank, _ = _deposited_bank(service, rng)
        assert bank.audit().clean
