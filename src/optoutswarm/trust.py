"""Paranoid trust: believe only what you can verify or measure yourself.

Trust in a peer grows from exactly two sources, in fixed units. Solving my
challenge proves the peer spent CPU time and lifts its trust to at least 1.
A campaign I measured as successful adds 1 to every comrade who was
registered for it, and raises my participation threshold by 1, up to
`RAMP_CAP`. Nothing a peer merely claims moves the needle, and a streak of
failed campaigns wipes the whole database on the theory that it was poisoned.

The verification handshake runs over DHT inboxes: `post` and
`post_challenge` leave the `Challenge` or `ChallengeSolution` record itself
in the recipient's inbox, and on the wire a message is the seal of its
tagged payload bytes; a drawn challenge hashes its target only when read.
`handle_mail` answers a whole drained inbox in one call, and answering is
rate-limited per sliding hour so a flood of puzzles cannot eat a client's CPU.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from random import Random
from typing import NamedTuple

from optoutswarm import crypto
from optoutswarm.crypto import Challenge, ChallengeSolution, ClientIdentity, DrawnChallenge
from optoutswarm.crypto import MalformedPayload, decode_payload  # noqa: F401  re-exported
from optoutswarm.dht import DhtKey, SimulatedDht, inbox_key

PROBE_WINDOW = 30  # minutes of latency probes before a campaign's start, and from it on
ANSWER_WINDOW = 60  # minutes of the sliding window the answer budget counts over
RAMP_CAP = 10  # the participation threshold that successes ratchet up to


class Verdict(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class TrustConfig:
    alpha: float = 2.0  # during/baseline latency ratio that counts as success
    failures_before_reset: int = 3
    rechallenge_timeout: int = 120  # minutes before a silent peer is re-asked
    max_rand: int = 10_000
    probe_count: int = 5  # per window; probes are PROBE_WINDOW // probe_count minutes apart

    def __post_init__(self) -> None:
        if not 0 <= self.max_rand <= crypto.MAX_RAND_LIMIT:
            raise ValueError(f"max_rand must lie in [0, {crypto.MAX_RAND_LIMIT}]")
        if not 1 <= self.probe_count <= PROBE_WINDOW:
            raise ValueError(f"probe_count must lie in [1, {PROBE_WINDOW}]")
        if self.alpha <= 1:
            raise ValueError("alpha must exceed 1")
        if self.rechallenge_timeout < 1:
            raise ValueError("rechallenge_timeout must be at least 1")
        if self.failures_before_reset < 1:
            raise ValueError("failures_before_reset must be at least 1")


@dataclass(frozen=True)
class CampaignOutcome:
    """What one client measured about one campaign it watched."""

    baseline_latency: float  # median of pre-start probes, ms
    during_latency: float  # median of in-campaign probes, ms
    comrades: tuple[bytes, ...]  # registered keys, excluding the observer


class PendingChallenge(NamedTuple):
    expected_rand2: int
    due_at: int  # the minute from which the peer may be challenged again


@dataclass
class TrustDb:
    """My view of my peers: trust, verified keys, challenges in flight.

    `verified` and `pending` change only through this module and `reset`,
    which also file in `wake_at` the minute a peer may fall due again: its
    challenge's `due_at`, or minute 0 when a wrong answer or a reset freed
    it. `take_maybe_due` hands the peers back; `due` has the last word.
    """

    records: dict[bytes, int] = field(default_factory=dict)
    verified: set[bytes] = field(default_factory=set)
    pending: dict[bytes, PendingChallenge] = field(default_factory=dict)
    consecutive_failures: int = 0
    current_min_accumulated_trust: int = 0
    reset_count: int = 0
    wake_at: dict[int, list[bytes]] = field(default_factory=dict)  # minute -> peers

    def trust(self, public_key: bytes) -> int:
        return self.records.get(public_key, 0)

    def due(self, peer_public_key: bytes, now: int) -> bool:
        """Whether a challenge to this peer may go out: none is pending, or
        the pending one has reached its `due_at`."""
        pending = self.pending.get(peer_public_key)
        return pending is None or pending.due_at <= now

    def take_maybe_due(self, now: int) -> set[bytes]:
        """Take every peer filed under a minute up to `now`."""
        peers = set()
        while self.wake_at and (minute := min(self.wake_at)) <= now:
            peers.update(self.wake_at.pop(minute))
        return peers

    def reset(self) -> None:
        # the verified and pending peers join those due at once; their timers go
        self.wake_at = {0: [*self.wake_at.get(0, ()), *self.verified, *self.pending]}
        self.records.clear()
        self.verified.clear()
        self.pending.clear()
        self.consecutive_failures = 0
        self.reset_count += 1


@dataclass
class AnswerBudget:
    """At most `cap` challenge answers per sliding ANSWER_WINDOW minutes."""

    cap: int
    answered_at: deque[int] = field(default_factory=deque)

    def try_consume(self, now: int) -> bool:
        while self.answered_at and self.answered_at[0] <= now - ANSWER_WINDOW:
            self.answered_at.popleft()
        if len(self.answered_at) >= self.cap:
            return False
        self.answered_at.append(now)
        return True


def judge_outcome(outcome: CampaignOutcome, alpha: float) -> Verdict:
    """Success iff the site got at least alpha times slower than baseline."""
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    if outcome.during_latency >= alpha * outcome.baseline_latency:
        return Verdict.SUCCESS
    return Verdict.FAILURE


def apply_outcome(
    db: TrustDb,
    verdict: Verdict,
    outcome: CampaignOutcome,
    cfg: TrustConfig,
) -> bool:
    """Fold one measured campaign into the database; True when it reset it.

    Success rewards every registered comrade and ratchets the participation
    threshold one step, up to RAMP_CAP (campaigns should keep earning their
    size). A run of failures_before_reset failures with no success in between
    clears all records; the ratcheted threshold survives the reset.
    """
    if verdict is Verdict.SUCCESS:
        records = db.records
        for comrade in outcome.comrades:
            records[comrade] = records.get(comrade, 0) + 1
        db.consecutive_failures = 0
        if db.current_min_accumulated_trust < RAMP_CAP:
            db.current_min_accumulated_trust += 1
    else:
        db.consecutive_failures += 1
        if db.consecutive_failures >= cfg.failures_before_reset:
            db.reset()
            return True
    return False


def accumulated_trust(db: TrustDb, comrades: list[bytes] | tuple[bytes, ...]) -> int:
    """Sum of trust over the given keys; unknown peers count zero."""
    return sum(map(db.records.get, comrades, repeat(0)))


def encode_challenge_payload(challenge: Challenge) -> bytes:
    return bytes(challenge)


def post(
    dht: SimulatedDht, recipient: bytes, message: Challenge | ChallengeSolution, now: int
) -> None:
    """Leave a record in a public key's inbox, unless nobody polls it: no
    reader could see that mail. Records of one form are equal exactly when
    their seals are, so the DHT collapses the same messages; a run's built
    challenges, a relay's rewritten copies, share no bytes with drawn ones. A
    fresh challenge goes through `post_challenge`, which builds none nobody reads."""
    readers = dht.inbox_readers
    if readers is None or recipient in readers:
        dht.put(inbox_key(recipient), message, now)


def post_challenge(
    dht: SimulatedDht, issuer: ClientIdentity, recipient: bytes, max_rand: int, rng: Random,
    now: int,
) -> int:
    """Leave a fresh challenge from `issuer` in a public key's inbox; returns
    its answer, which the record carries too. The challenge is drawn for
    every inbox, so the issuer's stream does not depend on who reads it, but
    its record, a `DrawnChallenge` that hashes nothing, is built and put only
    for an inbox somebody polls."""
    rand1, rand2 = crypto.draw_challenge(max_rand, rng)
    readers = dht.inbox_readers
    if readers is None or recipient in readers:
        dht.put(inbox_key(recipient), DrawnChallenge(issuer.public_key, rand1, None, rand2), now)
    return rand2


def initiate_verification(
    me: ClientIdentity, peers: list[bytes], dht: SimulatedDht, db: TrustDb, cfg: TrustConfig,
    rng: Random, now: int,
) -> int:
    """Challenge each peer in turn and keep its answer, replacing any pending
    one, with one `due_at` filed once in `wake_at`, whether or not anyone
    reads the peer's inbox (see `post_challenge`), so the issuer's stream and
    its schedule of re-challenges are the same. Returns how many it challenged.

    Whom to challenge, and when, is decided by `coordinator.challenge_comrades`.
    """
    due_at = now + cfg.rechallenge_timeout
    pending, max_rand = db.pending, cfg.max_rand
    for peer in peers:
        pending[peer] = PendingChallenge(post_challenge(dht, me, peer, max_rand, rng, now), due_at)
    db.wake_at.setdefault(due_at, []).extend(peers)
    return len(peers)


class ChallengeHandling(NamedTuple):
    hash_evaluations: int  # more than 0 exactly when budget was spent on a solve
    dropped: str | None = None  # "not_comrade" | "budget" | "no_solution"

    @property
    def answered(self) -> bool:  # an answer was mailed back to the issuer
        return self.dropped is None


def handle_mail(
    me: ClientIdentity | None, messages: Iterable[Challenge | ChallengeSolution],
    dht: SimulatedDht | None, budget: AnswerBudget | None, db: TrustDb | None,
    rosters: Sequence[DhtKey], max_rand: int, now: int,
) -> Iterator[tuple[str, bytes, int]]:
    """Apply the receive rules to a drained inbox in order, yielding one
    `(kind, key, work or ok)` per message, keyed by issuer or solver, as each
    is applied (a list of outcomes, held among the answers' records, would
    fragment the heap); the caller takes every outcome before the state moves.

    A challenge whose issuer is live on none of my `rosters` is dropped before
    it costs anything ("not_comrade"). Each solve attempt spends the answer
    budget ("budget" once it is spent), so even a comrade's unsolvable garbage
    burns at most the configured rate; a solve that finds nothing, as on a
    relayed copy whose hash binds another issuer, counts a full scan
    ("no_solution"). A response takes its solver's pending challenge: a wrong
    answer frees the peer to be challenged at once, an unasked one nothing.
    """
    for message in messages:
        if type(message) is ChallengeSolution:
            solver = message.solver_public_key
            pending = db.pending.pop(solver, None)
            ok = pending is not None and message.rand2 == pending.expected_rand2
            if ok:
                db.verified.add(solver)
                if db.records.get(solver, 0) < 1:  # verification floors trust at 1
                    db.records[solver] = 1
            elif pending is not None:
                db.wake_at.setdefault(0, []).append(solver)
            yield "verification", solver, ok
            continue
        issuer = message.issuer_public_key
        if not dht.contains_any(rosters, issuer, now):
            yield "not_comrade", issuer, 0
        elif not budget.try_consume(now):
            yield "budget", issuer, 0
        else:
            try:
                rand2, work = crypto.solve_challenge(message, max_rand)
            except crypto.NoSolution:  # a full scan is counted, carried answer or not
                yield "no_solution", issuer, max_rand + 1
                continue
            post(dht, issuer, ChallengeSolution(me.public_key, rand2), now)
            yield "answered", issuer, work


def handle_challenge(
    me: ClientIdentity, challenge: Challenge, dht: SimulatedDht, budget: AnswerBudget,
    rosters: Sequence[DhtKey], max_rand: int, now: int,
) -> ChallengeHandling:
    """`handle_mail` of one challenge."""
    ((kind, _issuer, work),) = handle_mail(
        me, (challenge,), dht, budget, None, rosters, max_rand, now
    )
    return ChallengeHandling(work, None if kind == "answered" else kind)


def handle_response(db: TrustDb, solution: ChallengeSolution) -> bool:
    """`handle_mail` of one response: whether it verified its solver."""
    ((_kind, _solver, ok),) = handle_mail(None, (solution,), None, None, db, (), 0, 0)
    return ok
