"""The poll phase against its plain form.

`PlainPolls` is `Simulation` with the poll phase written the simple way:
every client, every minute, asks `now % poll_interval`; a full scan of every
roster (`test_coordinator._full_scan`) decides whom to challenge; the receive
rules are the one-message bodies that `trust.handle_challenge` and
`trust.handle_response` had before `trust.handle_mail`, with the budget rule
of `AnswerBudget.try_consume` and a comrade test that reads whole rosters;
and the handshake's lines come from format strings. On every pinned run it
must write the bytes `Simulation` writes. At each poll it also hands the
drained inbox to `trust.handle_mail` on copies of the client's state, which
must end up as the plain rules leave the state, with the same outcomes.
"""

import copy

import pytest

from optoutswarm import coordinator, crypto, trust
from optoutswarm.simulation import Simulation
from optoutswarm.trust import ANSWER_WINDOW, ChallengeSolution
from test_coordinator import _full_scan
from test_golden import EVERY_RUN, _report, _scenario

CHALLENGE_SENT = '{"client":%d,"peer":"%s","t":%d,"type":"challenge_sent"}\n'
CHALLENGE_DROPPED = '{"client":%d,"reason":"%s","t":%d,"type":"challenge_dropped"}\n'
CHALLENGE_ANSWERED = '{"client":%d,"issuer":"%s","t":%d,"type":"challenge_answered","work":%d}\n'
VERIFICATION = '{"client":%d,"ok":%s,"peer":"%s","t":%d,"type":"verification"}\n'


def is_comrade(dht, db, now, issuer):
    return any(issuer in coordinator.read_comrades(dht, campaign, now) for campaign in db.entries)


def handle_challenge(me, challenge, dht, budget, comrade, max_rand, now):
    """(hash evaluations, drop reason or None)"""
    if not comrade:
        return 0, "not_comrade"
    answered_at = budget.answered_at
    while answered_at and answered_at[0] <= now - ANSWER_WINDOW:
        answered_at.popleft()
    if len(answered_at) >= budget.cap:
        return 0, "budget"
    answered_at.append(now)
    try:
        rand2, work = crypto.solve_challenge(challenge, max_rand)
    except crypto.NoSolution:
        return max_rand + 1, "no_solution"
    trust.post(dht, challenge.issuer_public_key, ChallengeSolution(me.public_key, rand2), now)
    return work, None


def handle_response(db, solution):
    pending = db.pending.pop(solution.solver_public_key, None)
    if pending is None:
        return False
    if solution.rand2 != pending.expected_rand2:
        db.wake_at.setdefault(0, []).append(solution.solver_public_key)
        return False
    db.verified.add(solution.solver_public_key)
    db.records[solution.solver_public_key] = max(db.records.get(solution.solver_public_key, 0), 1)
    return True


class _ReadOnlyDht:
    """The run's DHT for `handle_mail` on copied state: reads go through,
    puts go nowhere (the plain rules post the answers)."""

    def __init__(self, dht):
        self.dht = dht

    def __getattr__(self, name):
        return getattr(self.dht, name)

    def put(self, key, value, now):
        pass


class PlainPolls(Simulation):
    def _phase_polls(self, now):
        for client in self.clients:
            if now % client.cfg.poll_interval:
                continue
            me, dht = client.identity, self.dht
            mail = coordinator.poll_inbox(now, dht, me)
            if mail:
                shadow = copy.deepcopy((client.trust_db, client.budget))
                got = list(trust.handle_mail(
                    me, mail, _ReadOnlyDht(dht), shadow[1], shadow[0],
                    client.campaign_db.rosters(), client.tcfg.max_rand, now,
                ))
            want = []
            for payload in mail:
                if isinstance(payload, crypto.Challenge):
                    issuer = payload.issuer_public_key
                    work, dropped = handle_challenge(
                        me, payload, dht, client.budget,
                        is_comrade(dht, client.campaign_db, now, issuer),
                        client.tcfg.max_rand, now,
                    )
                    want.append((dropped or "answered", issuer, work))
                    if work:
                        client.solve_attempts += 1
                        client.hash_evaluations += work
                    if dropped is None:
                        client.challenges_answered += 1
                        self.emit(CHALLENGE_ANSWERED % (client.index, issuer.hex(), now, work))
                    else:
                        self.emit(CHALLENGE_DROPPED % (client.index, dropped, now))
                else:
                    ok = handle_response(client.trust_db, payload)
                    want.append(("verification", payload.solver_public_key, ok))
                    self.emit(VERIFICATION % (
                        client.index, "true" if ok else "false",
                        payload.solver_public_key.hex(), now,
                    ))
            if mail:
                assert got == want, (now, client.index)
                assert shadow == (client.trust_db, client.budget), (now, client.index)
            challenged = _full_scan(
                now, dht, me, client.campaign_db, client.trust_db, client.tcfg, client.rng
            )
            for peer_pk in challenged:
                client.challenges_sent += 1
                self.emit(CHALLENGE_SENT % (client.index, peer_pk.hex(), now))


@pytest.mark.parametrize("name", EVERY_RUN)
def test_the_poll_phase_writes_what_its_plain_form_writes(name):
    assert PlainPolls(_scenario(name)).run().to_ndjson() == _report(name).to_ndjson()
