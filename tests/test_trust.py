"""Trust accrual, verification handshake, and the answer budget."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm import crypto, pow_backend
from optoutswarm.coordinator import poll_inbox
from optoutswarm.dht import SimulatedDht, comrades_table_key, inbox_key
from optoutswarm.trust import (
    AnswerBudget,
    CampaignOutcome,
    ChallengeHandling,
    MalformedPayload,
    PendingChallenge,
    RAMP_CAP,
    TrustConfig,
    TrustDb,
    Verdict,
    accumulated_trust,
    apply_outcome,
    decode_payload,
    encode_challenge_payload,
    handle_challenge,
    handle_mail,
    handle_response,
    initiate_verification,
    judge_outcome,
    post,
)

ROSTER = comrades_table_key(300, "https://shop.example")  # a joined campaign's roster
OTHER_ROSTER = comrades_table_key(200, "https://shop.example")  # an earlier one


def identity(tag: str) -> crypto.ClientIdentity:
    return crypto.generate_identity(Random(tag))


def outcome(baseline: float, during: float, comrades=()) -> CampaignOutcome:
    return CampaignOutcome(
        baseline_latency=baseline,
        during_latency=during,
        comrades=tuple(comrades),
    )


class TestJudge:
    def test_doubled_latency_is_success_at_alpha_two(self):
        assert judge_outcome(outcome(100.0, 200.0), alpha=2.0) is Verdict.SUCCESS

    def test_boundary_is_inclusive(self):
        assert judge_outcome(outcome(100.0, 199.999), alpha=2.0) is Verdict.FAILURE
        assert judge_outcome(outcome(100.0, 200.0), alpha=2.0) is Verdict.SUCCESS

    def test_unchanged_latency_is_failure(self):
        assert judge_outcome(outcome(100.0, 100.0), alpha=2.0) is Verdict.FAILURE

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            judge_outcome(outcome(100.0, 300.0), alpha=1.0)


class TestApplyOutcome:
    def test_success_rewards_every_comrade(self):
        db = TrustDb()
        cfg = TrustConfig()
        apply_outcome(db, Verdict.SUCCESS, outcome(100, 300, [b"a" * 32, b"b" * 32]), cfg)
        assert db.trust(b"a" * 32) == 1
        assert db.trust(b"b" * 32) == 1

    def test_success_stacks_across_campaigns(self):
        db = TrustDb()
        cfg = TrustConfig()
        for _ in range(3):
            apply_outcome(db, Verdict.SUCCESS, outcome(100, 300, [b"a" * 32]), cfg)
        assert db.trust(b"a" * 32) == 3

    def test_success_ratchets_participation_threshold(self):
        db = TrustDb()
        cfg = TrustConfig()
        for successes in range(1, RAMP_CAP + 3):
            apply_outcome(db, Verdict.SUCCESS, outcome(100, 300), cfg)
            assert db.current_min_accumulated_trust == min(successes, RAMP_CAP)

    def test_failures_below_streak_keep_records(self):
        db = TrustDb(records={b"a" * 32: 4})
        cfg = TrustConfig(failures_before_reset=3)
        apply_outcome(db, Verdict.FAILURE, outcome(100, 100), cfg)
        apply_outcome(db, Verdict.FAILURE, outcome(100, 100), cfg)
        assert db.trust(b"a" * 32) == 4
        assert db.reset_count == 0

    def test_success_breaks_the_streak(self):
        db = TrustDb(records={b"a" * 32: 4})
        cfg = TrustConfig(failures_before_reset=3)
        for verdict in (Verdict.FAILURE, Verdict.FAILURE, Verdict.SUCCESS, Verdict.FAILURE):
            apply_outcome(db, verdict, outcome(100, 300 if verdict is Verdict.SUCCESS else 100), cfg)
        assert db.reset_count == 0
        assert db.consecutive_failures == 1

    def test_failure_streak_wipes_database(self):
        db = TrustDb(records={b"a" * 32: 4}, verified={b"a" * 32})
        db.current_min_accumulated_trust = 7
        cfg = TrustConfig(failures_before_reset=3)
        resets = [apply_outcome(db, Verdict.FAILURE, outcome(100, 100), cfg) for _ in range(3)]
        assert resets == [False, False, True]
        assert db.records == {}
        assert db.verified == set()
        assert db.reset_count == 1
        assert db.consecutive_failures == 0
        # the ratcheted threshold is the one thing a poisoning cannot undo
        assert db.current_min_accumulated_trust == 7


def test_accumulated_trust_ignores_unknown_peers():
    db = TrustDb(records={b"a" * 32: 1, b"b" * 32: 2})
    assert accumulated_trust(db, [b"a" * 32, b"b" * 32, b"c" * 32]) == 3
    assert accumulated_trust(db, []) == 0


class TestPayloads:
    def test_challenge_round_trip(self):
        issuer = identity("payload-issuer")
        challenge, _ = crypto.generate_challenge(issuer, 100, Random(7))
        data = encode_challenge_payload(challenge)
        assert len(data) == 73
        # the payload holds every field but the answer, which stays in process
        assert decode_payload(data) == challenge._replace(answer=None)

    def test_response_round_trip(self):
        solution = crypto.ChallengeSolution(solver_public_key=b"s" * 32, rand2=77)
        data = bytes(solution)
        assert len(data) == 41
        assert decode_payload(data) == solution

    def test_sealed_records_open_as_themselves_and_decode_from_the_wire(self):
        bob = identity("payload-bob")
        challenge, rand2 = crypto.generate_challenge(identity("payload-issuer"), 100, Random(7))
        solution = crypto.ChallengeSolution(solver_public_key=b"s" * 32, rand2=rand2)
        for record, encode, sent in (
            (challenge, encode_challenge_payload, challenge._replace(answer=None)),
            (solution, bytes, solution),
        ):
            # posted in-process, a record is polled as itself
            dht = SimulatedDht()
            post(dht, bob.public_key, record, 0)
            (polled,) = poll_inbox(0, dht, bob)
            assert polled is record
            # on the wire it is the seal of its payload, and decodes back to
            # the fields the payload carries
            wire = crypto.seal(bob.public_key, encode(record))
            assert decode_payload(crypto.open_sealed(bob, wire)) == sent

    @pytest.mark.parametrize(
        "data",
        [b"", b"\x01short", b"\x02short", b"\x03" + b"x" * 72],
        ids=["empty", "truncated-challenge", "truncated-response", "unknown-tag"],
    )
    def test_malformed_rejected(self, data):
        with pytest.raises(MalformedPayload):
            decode_payload(data)


class TestInitiate:
    def test_challenge_lands_in_peer_inbox(self):
        dht = SimulatedDht()
        me, peer = identity("initiator"), identity("peer")
        db = TrustDb()
        initiate_verification(
            me, [peer.public_key], dht, db, TrustConfig(max_rand=50), Random(1), 0
        )
        values = dht.get(inbox_key(peer.public_key), 0)
        assert len(values) == 1
        # posted in-process, the inbox holds the record itself, as drawn
        challenge = values[0]
        assert isinstance(challenge, crypto.DrawnChallenge)
        assert challenge.issuer_public_key == me.public_key
        # and the issuer keeps its answer
        kept = db.pending[peer.public_key]
        assert kept.expected_rand2 == challenge.answer
        assert kept.due_at == TrustConfig().rechallenge_timeout
        assert crypto.verify_solution(challenge, kept.expected_rand2)

    def test_a_challenge_nobody_reads_is_kept_but_not_posted(self):
        me, peer = identity("initiator"), identity("peer")
        dht = SimulatedDht(inbox_readers=frozenset({me.public_key}))
        db, cfg = TrustDb(), TrustConfig(max_rand=50, rechallenge_timeout=7)
        initiate_verification(me, [peer.public_key], dht, db, cfg, Random(1), 3)
        kept = PendingChallenge(crypto.generate_challenge(me, 50, Random(1))[1], 10)
        assert db.pending == {peer.public_key: kept}
        assert db.wake_at == {10: [peer.public_key]}
        assert dht.appended(inbox_key(peer.public_key), 0) == ([], 0)


_NOBODY_READS = (identity("drawer"), identity("unread").public_key)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    max_rand=st.one_of(
        st.sampled_from([0, 1, crypto.MAX_RAND_LIMIT]),
        st.integers(1, 63).map(lambda k: 2**k - 1),
        st.integers(1, 62).map(lambda k: 2**k),
        st.integers(0, crypto.MAX_RAND_LIMIT),
    ),
    count=st.integers(1, 4),
)
def test_a_drawn_challenge_leaves_what_a_built_one_leaves(seed, max_rand, count):
    # to an inbox nobody polls, a challenge is drawn: the issuer's stream and
    # the answer it keeps must be those that building the challenge leaves
    me, peer = _NOBODY_READS
    dht = SimulatedDht(inbox_readers=frozenset())
    db, cfg = TrustDb(), TrustConfig(max_rand=max_rand)
    rng, twin = Random(seed), Random(seed)
    for now in range(count):
        initiate_verification(me, [peer], dht, db, cfg, rng, now)
        _challenge, expected = crypto.generate_challenge(me, max_rand, twin)
        assert db.pending[peer] == PendingChallenge(expected, now + cfg.rechallenge_timeout)
        assert rng.getstate() == twin.getstate()
    assert dht.appended(inbox_key(peer), 0) == ([], 0)


class TestPost:
    def setup_method(self):
        self.challenge, _ = crypto.generate_challenge(identity("post-issuer"), 50, Random(3))

    def test_plain_store_keeps_mail_for_every_key(self):
        dht = SimulatedDht()
        assert dht.inbox_readers is None
        for tag in ("post-a", "post-b", "post-c"):
            recipient = identity(tag).public_key
            post(dht, recipient, self.challenge, 0)
            assert dht.get(inbox_key(recipient), 0) == [self.challenge]

    def test_mail_for_an_inbox_nobody_reads_is_not_kept(self):
        reader, other = identity("post-reader").public_key, identity("post-other").public_key
        dht = SimulatedDht(inbox_readers=frozenset({reader}))
        post(dht, reader, self.challenge, 0)
        post(dht, other, self.challenge, 0)
        assert dht.get(inbox_key(reader), 0) == [self.challenge]
        assert dht.appended(inbox_key(other), 0) == ([], 0)


class TestHandleChallenge:
    def setup_method(self):
        self.dht = SimulatedDht()
        self.me = identity("solver")
        self.issuer = identity("issuer")
        self.challenge, self.expected = crypto.generate_challenge(
            self.issuer, 50, Random(3)
        )
        self.dht.put(ROSTER, self.issuer.public_key, 0)  # the issuer is my comrade

    def handle(self, budget, comrade=True, challenge=None, max_rand=50, now=0):
        return handle_challenge(
            self.me, challenge or self.challenge, self.dht, budget,
            rosters=[ROSTER] if comrade else [], max_rand=max_rand, now=now,
        )

    def test_stranger_dropped_before_budget(self):
        budget = AnswerBudget(cap=0)
        got = self.handle(budget, comrade=False)
        assert got == ChallengeHandling(0, "not_comrade")
        assert not got.answered

    def test_budget_exhausted_drops(self):
        got = self.handle(AnswerBudget(cap=0))
        assert got == ChallengeHandling(0, "budget")
        assert not got.answered

    def test_answer_reaches_issuer_inbox(self):
        got = self.handle(AnswerBudget(cap=5))
        assert got == ChallengeHandling(self.expected + 1)
        assert got.answered
        (solution,) = self.dht.get(inbox_key(self.issuer.public_key), 0)
        assert isinstance(solution, crypto.ChallengeSolution)
        assert solution == crypto.ChallengeSolution(self.me.public_key, self.expected)

    def test_without_a_hint_the_kernel_solves(self, monkeypatch):
        calls = []
        kernel = pow_backend.solve_kernel
        monkeypatch.setattr(
            pow_backend, "solve_kernel", lambda *args: calls.append(args) or kernel(*args)
        )
        got = self.handle(AnswerBudget(cap=5), challenge=self.challenge._replace(answer=None))
        assert got.answered and got.hash_evaluations == self.expected + 1
        assert len(calls) == 1

    def test_a_hint_changes_nothing_but_the_scan(self, monkeypatch):
        unhinted = self.handle(AnswerBudget(cap=5), challenge=self.challenge._replace(answer=None))
        unhinted_inbox = self.dht.get(inbox_key(self.issuer.public_key), 0)
        self.dht = SimulatedDht()
        self.dht.put(ROSTER, self.issuer.public_key, 0)
        monkeypatch.setattr(pow_backend, "solve_kernel", None)  # any call fails
        assert self.challenge.answer == self.expected
        hinted = self.handle(AnswerBudget(cap=5))
        assert hinted == unhinted
        assert self.dht.get(inbox_key(self.issuer.public_key), 0) == unhinted_inbox

    def test_unsolvable_burns_full_scan_and_budget(self):
        relay = identity("relay")
        # hash binds the real issuer, header claims the relay: no value works,
        # not even the real answer carried along
        forged = self.challenge._replace(issuer_public_key=relay.public_key)
        self.dht.put(ROSTER, relay.public_key, 0)  # the relay registered too
        budget = AnswerBudget(cap=1)
        got = self.handle(budget, challenge=forged)
        assert got == ChallengeHandling(51, "no_solution")
        assert not got.answered
        # that attempt spent the budget slot
        assert self.handle(budget).dropped == "budget"


class TestHandleMail:
    """The receive rules applied to one inbox, message by message in order."""

    def setup_method(self):
        self.dht = SimulatedDht()
        self.me = identity("mail-solver")
        self.db = TrustDb()
        self.rng = Random(5)

    def comrade(self, tag: str) -> crypto.ClientIdentity:
        issuer = identity(tag)
        self.dht.put(ROSTER, issuer.public_key, 0)
        return issuer

    def handle(self, messages, budget, max_rand=50, now=0):
        return list(handle_mail(
            self.me, messages, self.dht, budget, self.db, [OTHER_ROSTER, ROSTER], max_rand, now
        ))

    def answers(self, issuer: crypto.ClientIdentity, now: int = 0) -> list:
        return self.dht.get(inbox_key(issuer.public_key), now)

    def test_the_budget_runs_out_in_the_middle_of_an_inbox(self):
        issuers = [self.comrade(f"mail-comrade-{i}") for i in range(3)]
        drawn = [crypto.generate_challenge(issuer, 50, self.rng) for issuer in issuers]
        budget = AnswerBudget(cap=2)
        got = self.handle([challenge for challenge, _answer in drawn], budget, now=7)
        assert got == [
            ("answered", issuers[0].public_key, drawn[0][1] + 1),
            ("answered", issuers[1].public_key, drawn[1][1] + 1),
            ("budget", issuers[2].public_key, 0),
        ]
        assert list(budget.answered_at) == [7, 7]
        for issuer, (_challenge, answer) in zip(issuers[:2], drawn):
            assert self.answers(issuer, 7) == [
                crypto.ChallengeSolution(self.me.public_key, answer)
            ]
        assert self.answers(issuers[2], 7) == []

    def test_a_stranger_s_challenge_is_followed_by_a_comrade_s(self):
        stranger, comrade = identity("mail-stranger"), self.comrade("mail-comrade")
        (strange, _), (known, answer) = (
            crypto.generate_challenge(issuer, 50, self.rng) for issuer in (stranger, comrade)
        )
        budget = AnswerBudget(cap=1)
        got = self.handle([strange, known], budget)
        # the stranger's challenge cost no budget: the comrade's took the one slot
        assert got == [
            ("not_comrade", stranger.public_key, 0),
            ("answered", comrade.public_key, answer + 1),
        ]
        assert list(budget.answered_at) == [0]
        assert self.answers(stranger) == []
        assert self.answers(comrade) == [crypto.ChallengeSolution(self.me.public_key, answer)]

    @pytest.mark.parametrize("wrong_first", [True, False])
    def test_a_wrong_and_a_right_response(self, wrong_first):
        peer = b"p" * 32
        self.db.pending[peer] = PendingChallenge(expected_rand2=9, due_at=120)
        right, wrong = crypto.ChallengeSolution(peer, 9), crypto.ChallengeSolution(peer, 8)
        got = self.handle([wrong, right] if wrong_first else [right, wrong], AnswerBudget(cap=0))
        # the first response takes the pending challenge; the second finds none
        assert self.db.pending == {}
        if wrong_first:
            assert got == [("verification", peer, False), ("verification", peer, False)]
            assert self.db.wake_at == {0: [peer]}  # free to be challenged at once
            assert self.db.verified == set() and self.db.records == {}
        else:
            assert got == [("verification", peer, True), ("verification", peer, False)]
            assert self.db.wake_at == {}  # an unasked response frees nobody
            assert self.db.verified == {peer} and self.db.records == {peer: 1}

    def test_a_rewritten_relay_s_challenge_counts_a_full_scan(self):
        issuer, relay = identity("mail-issuer"), self.comrade("mail-relay")
        challenge, _answer = crypto.generate_challenge(issuer, 50, self.rng)
        # as the MITM forwarder rewrites it: its key, the issuer's target, no answer
        relayed = crypto.Challenge(relay.public_key, challenge.rand1, challenge.target_hash)
        comrade = self.comrade("mail-comrade")
        following, _ = crypto.generate_challenge(comrade, 50, self.rng)
        budget = AnswerBudget(cap=1)
        got = self.handle([relayed, following], budget, max_rand=50)
        assert got == [("no_solution", relay.public_key, 51), ("budget", comrade.public_key, 0)]
        assert list(budget.answered_at) == [0]  # the scan spent the one slot
        assert self.answers(relay) == self.answers(issuer) == self.answers(comrade) == []


def test_a_reset_after_a_wrong_answer_wakes_every_freed_peer():
    # the wrong answer files its peer under minute 0; a reset before the
    # next poll keeps it there beside the verified and pending peers
    dht, db, cfg, rng = SimulatedDht(), TrustDb(), TrustConfig(max_rand=50), Random(4)
    me = identity("waker")
    wrong, right, silent = b"w" * 32, b"r" * 32, b"s" * 32
    assert initiate_verification(me, [wrong, right, silent], dht, db, cfg, rng, 0) == 3
    assert db.wake_at == {cfg.rechallenge_timeout: [wrong, right, silent]}  # filed once
    answer = db.pending[wrong].expected_rand2 + 1
    assert not handle_response(db, crypto.ChallengeSolution(wrong, answer))
    answer = db.pending[right].expected_rand2
    assert handle_response(db, crypto.ChallengeSolution(right, answer))
    db.reset()
    assert db.take_maybe_due(1) == {wrong, right, silent}
    assert db.wake_at == {}  # the timers of the pending challenges went with them
    assert all(db.due(peer, 1) for peer in (wrong, right, silent))


class TestHandleResponse:
    def test_correct_answer_verifies_and_floors_trust(self):
        db = TrustDb()
        peer = b"p" * 32
        from optoutswarm.trust import PendingChallenge

        db.pending[peer] = PendingChallenge(expected_rand2=9, due_at=120)
        ok = handle_response(db, crypto.ChallengeSolution(peer, 9))
        assert ok is True
        assert peer in db.verified
        assert db.trust(peer) == 1
        assert peer not in db.pending

    def test_verification_never_lowers_earned_trust(self):
        db = TrustDb(records={b"p" * 32: 5})
        from optoutswarm.trust import PendingChallenge

        db.pending[b"p" * 32] = PendingChallenge(expected_rand2=9, due_at=120)
        handle_response(db, crypto.ChallengeSolution(b"p" * 32, 9))
        assert db.trust(b"p" * 32) == 5

    def test_wrong_answer_clears_pending(self):
        db = TrustDb()
        from optoutswarm.trust import PendingChallenge

        db.pending[b"p" * 32] = PendingChallenge(expected_rand2=9, due_at=120)
        ok = handle_response(db, crypto.ChallengeSolution(b"p" * 32, 8))
        assert ok is False
        assert b"p" * 32 not in db.verified
        # cleared, so the peer can be re-challenged immediately
        assert b"p" * 32 not in db.pending

    def test_unsolicited_response_ignored(self):
        db = TrustDb()
        assert handle_response(db, crypto.ChallengeSolution(b"p" * 32, 9)) is False


class TestAnswerBudget:
    def test_cap_within_window(self):
        budget = AnswerBudget(cap=2)
        assert budget.try_consume(0)
        assert budget.try_consume(1)
        assert not budget.try_consume(2)

    def test_slot_frees_one_window_later(self):
        budget = AnswerBudget(cap=1)
        assert budget.try_consume(0)
        assert not budget.try_consume(59)
        assert budget.try_consume(60)

    def test_failed_consume_does_not_occupy(self):
        budget = AnswerBudget(cap=1)
        assert budget.try_consume(0)
        for minute in range(1, 60):
            assert not budget.try_consume(minute)
        assert budget.try_consume(60)


def test_full_handshake_end_to_end():
    dht = SimulatedDht()
    alice = identity("hs-alice")
    bob = identity("hs-bob")
    cfg = TrustConfig(max_rand=40)
    alice_db = TrustDb()

    initiate_verification(alice, [bob.public_key], dht, alice_db, cfg, Random(9), 0)
    (challenge,) = poll_inbox(0, dht, bob)
    dht.put(ROSTER, alice.public_key, 0)  # a campaign both joined
    handled = handle_challenge(
        bob, challenge, dht, AnswerBudget(cap=5),
        rosters=[ROSTER], max_rand=40, now=1,
    )
    assert handled.answered
    (solution,) = poll_inbox(1, dht, alice)
    assert handle_response(alice_db, solution) is True
    assert bob.public_key in alice_db.verified
    assert alice_db.trust(bob.public_key) == 1
