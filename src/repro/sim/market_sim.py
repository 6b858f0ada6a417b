"""Discrete-event market simulation over the real PPMSdec protocol.

Where the unit tests run protocol steps back-to-back, this simulator
spreads them over *simulated time*: jobs arrive as a Poisson-ish
process, payment deliveries incur network latency, and deposits follow
a configurable wait policy — the knob whose privacy consequences
Section IV-A8 of the paper legislates ("waits for a random period of
time").

The payoff is an *end-to-end* timing experiment: the adversary of
:mod:`repro.attacks.timing` attacks the timestamps of actual protocol
runs (real pseudonyms, real deposits, real bank state), not a toy
model.  See :func:`run_timing_attack`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.attacks.timing import DeliveryEvent, TimedDeposit, TimingAdversary
from repro.core.dec_machine import PPMSdecSession
from repro.sim.events import EventQueue

__all__ = [
    "DepositPolicy",
    "SimulationTrace",
    "MarketSimulation",
    "run_timing_attack",
]


@dataclass(frozen=True)
class DepositPolicy:
    """How an SP times its deposits after receiving a payment.

    ``initial_wait_mean`` / ``between_wait_mean`` of 0 model the naive
    immediate depositor; positive means exponential random waits (the
    paper's prescription).
    """

    initial_wait_mean: float = 0.0
    between_wait_mean: float = 0.0

    def initial_wait(self, rng: random.Random) -> float:
        # "immediate" means exactly now: the event queue breaks same-time
        # ties FIFO, so no jitter is needed to keep ordering deterministic
        # (the old uniform(0, 1e-6) fuzz also silently consumed rng state)
        if self.initial_wait_mean <= 0:
            return 0.0
        return rng.expovariate(1.0 / self.initial_wait_mean)

    def between_wait(self, rng: random.Random) -> float:
        if self.between_wait_mean <= 0:
            return 0.0
        return rng.expovariate(1.0 / self.between_wait_mean)

    @classmethod
    def immediate(cls) -> "DepositPolicy":
        return cls()

    @classmethod
    def randomized(cls, mean: float) -> "DepositPolicy":
        return cls(initial_wait_mean=mean, between_wait_mean=mean / 2)


@dataclass
class SimulationTrace:
    """What the MA's logs contain after a simulated run."""

    deliveries: list[DeliveryEvent] = field(default_factory=list)
    deposits: list[TimedDeposit] = field(default_factory=list)
    true_links: dict[int, int] = field(default_factory=dict)  # aid-key -> pseudonym-key
    completed_jobs: int = 0


class MarketSimulation:
    """Drives one PPMSdec session through an event queue."""

    def __init__(
        self,
        session: PPMSdecSession,
        rng: random.Random,
        *,
        deposit_policy: DepositPolicy,
        delivery_latency_mean: float = 0.2,
    ) -> None:
        self.session = session
        self.rng = rng
        self.policy = deposit_policy
        self.delivery_latency_mean = delivery_latency_mean
        self.queue = EventQueue()
        self.trace = SimulationTrace()
        self._ids = 0

    def schedule_job(self, at: float, *, payment: int, funds: int | None = None) -> None:
        """Arrange for one single-SP job to start at simulated time *at*."""
        job_id = self._ids
        self._ids += 1
        self.queue.schedule(at, lambda: self._start_job(job_id, payment, funds))

    def run(self) -> SimulationTrace:
        self.queue.run()
        return self.trace

    # -- event handlers ------------------------------------------------------
    def _start_job(self, job_id: int, payment: int, funds: int | None) -> None:
        session = self.session
        coin_value = 1 << session.params.tree_level
        jo = session.new_job_owner(f"sim-jo-{job_id}", funds or 4 * coin_value)
        sp = session.new_participant(f"sim-sp-{job_id}")
        # run the message flow now; deposits are deferred to the queue
        session.run_job(jo, [sp], payment=payment, deposit=False)

        latency = self.rng.expovariate(1.0 / self.delivery_latency_mean)
        delivered_at = self.queue.now + latency
        self.queue.schedule(delivered_at, lambda: self._delivered(job_id, sp, delivered_at))

    def _delivered(self, job_id: int, sp, delivered_at: float) -> None:
        self.trace.deliveries.append(DeliveryEvent(time=delivered_at, pseudonym=job_id))
        self.trace.true_links[job_id] = job_id  # aid-key == pseudonym-key == job_id
        t = delivered_at + self.policy.initial_wait(self.rng)
        for token in list(sp.collected):
            self.queue.schedule(t, self._make_deposit_action(job_id, sp.aid, token, t))
            t += self.policy.between_wait(self.rng)
        sp.collected.clear()

    def _make_deposit_action(self, job_id: int, aid: str, token, at: float):
        def action() -> None:
            self.session.ma.handle_deposit(aid, token, at)
            self.trace.deposits.append(TimedDeposit(time=at, aid=job_id))
            self.trace.completed_jobs += 1

        return action


def run_timing_attack(
    params,
    *,
    n_jobs: int,
    policy: DepositPolicy,
    seed: int,
    arrival_gap: float = 1.0,
    rsa_bits: int = 512,
) -> float:
    """End-to-end timing attack accuracy against a simulated market.

    Runs *n_jobs* single-SP jobs through a real PPMSdec session with the
    given deposit *policy*, then lets the timing adversary match the
    MA's delivery log to its deposit log.  Returns the fraction of
    accounts correctly linked (per first-deposit matching).
    """
    rng = random.Random(seed)
    session = PPMSdecSession(params, rng, rsa_bits=rsa_bits, break_algorithm="pcba")
    sim = MarketSimulation(session, rng, deposit_policy=policy)
    t = 0.0
    for _ in range(n_jobs):
        t += rng.expovariate(1.0 / arrival_gap)
        sim.schedule_job(t, payment=1 + rng.randrange(1 << params.tree_level))
    trace = sim.run()

    # first deposit per account is the adversary's anchor
    first_deposit: dict[int, TimedDeposit] = {}
    for dep in sorted(trace.deposits, key=lambda d: d.time):
        first_deposit.setdefault(dep.aid, dep)
    adversary = TimingAdversary()
    guesses = adversary.link(trace.deliveries, list(first_deposit.values()))
    if not trace.true_links:
        return 0.0
    correct = sum(
        1 for aid, pseud in guesses.items() if trace.true_links.get(aid) == pseud
    )
    return correct / len(trace.true_links)
