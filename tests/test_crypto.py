"""Identities, challenges, and sealed messages."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from cryptography.hazmat.bindings._rust import openssl as rust_openssl
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optoutswarm import crypto, pow_backend
from optoutswarm.dht import SimulatedDht, inbox_key

SRC = Path(__file__).resolve().parent.parent / "src"
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def identity(tag: str) -> crypto.ClientIdentity:
    return crypto.generate_identity(Random(tag))


class TestHashing:
    def test_empty_input_matches_standard_vector(self):
        assert crypto.hash_bytes(b"").hex() == SHA256_EMPTY

    def test_deterministic(self):
        assert crypto.hash_bytes(b"abc") == crypto.hash_bytes(b"abc")

    def test_one_byte_difference_changes_digest(self):
        assert crypto.hash_bytes(b"abc") != crypto.hash_bytes(b"abd")

    @given(data=st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_it_is_hashlib_s_sha256(self, data):
        assert crypto.hash_bytes(data) == hashlib.sha256(data).digest()

    @given(
        key=st.binary(min_size=crypto.PUBLIC_KEY_LEN, max_size=crypto.PUBLIC_KEY_LEN),
        rand1=st.integers(0, crypto.MAX_RAND_LIMIT),
        rand2=st.integers(0, crypto.MAX_RAND_LIMIT),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_target_is_hashlib_s_sha256(self, key, rand1, rand2):
        message = key + rand1.to_bytes(8, "little") + rand2.to_bytes(8, "little")
        assert crypto.challenge_target(key, rand1, rand2) == hashlib.sha256(message).digest()


class TestIdentity:
    def test_public_key_is_32_bytes(self):
        assert len(identity("a").public_key) == 32

    def test_seeded_generation_is_stable(self):
        assert identity("a").public_key == identity("a").public_key
        assert identity("a").public_key != identity("b").public_key

    def test_repr_hides_private_key(self):
        ident = identity("a")
        assert ident.private_key.hex() not in repr(ident)

    def test_identity_is_built_from_its_private_key(self):
        ident = identity("a")
        assert crypto.ClientIdentity(ident.private_key) == ident
        derived = X25519PrivateKey.from_private_bytes(ident.private_key).public_key()
        assert ident.public_key == derived.public_bytes_raw()

    @pytest.mark.parametrize(
        "private, public",
        [
            pytest.param(
                "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
                "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
                id="alice",
            ),
            pytest.param(
                "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
                "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
                id="bob",
            ),
        ],
    )
    def test_rfc7748_key_pairs(self, private, public):
        # RFC 7748 section 6.1
        assert crypto.ClientIdentity(bytes.fromhex(private)).public_key.hex() == public

    def test_keys_are_parsed_by_the_binding_not_the_classmethod(self):
        assert crypto._x25519_private_key is rust_openssl.x25519.from_private_bytes


class TestChallenge:
    def test_degenerate_interval_forces_zero(self):
        ch, expected = crypto.generate_challenge(identity("a"), 0, Random(1))
        assert ch.rand1 == 0 and expected == 0

    def test_seeded_replay_is_identical(self):
        a1, e1 = crypto.generate_challenge(identity("a"), 1000, Random(7))
        a2, e2 = crypto.generate_challenge(identity("a"), 1000, Random(7))
        assert (a1.rand1, e1) == (a2.rand1, e2)
        assert a1.target_hash == a2.target_hash

    def test_values_stay_inside_interval(self):
        rng = Random(3)
        for _ in range(50):
            ch, expected = crypto.generate_challenge(identity("a"), 1000, rng)
            assert 0 <= ch.rand1 <= 1000
            assert 0 <= expected <= 1000

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            crypto.generate_challenge(identity("a"), -1, Random(1))

    def test_interval_beyond_the_kernel_rejected(self):
        crypto.generate_challenge(identity("a"), crypto.MAX_RAND_LIMIT, Random(1))
        with pytest.raises(ValueError):
            crypto.generate_challenge(identity("a"), crypto.MAX_RAND_LIMIT + 1, Random(1))

    def test_target_binds_issuer_key(self):
        issuer = identity("a")
        preimage = (
            issuer.public_key
            + (5).to_bytes(8, "little")
            + (9).to_bytes(8, "little")
        )
        assert crypto.challenge_target(issuer.public_key, 5, 9) == hashlib.sha256(
            preimage
        ).digest()


class TestSolve:
    def test_planted_zero_solution_costs_one_hash(self):
        issuer = identity("a")
        ch = crypto.Challenge(
            issuer_public_key=issuer.public_key,
            rand1=77,
            target_hash=crypto.challenge_target(issuer.public_key, 77, 0),
        )
        assert crypto.solve_challenge(ch, 100) == (0, 1)

    def test_round_trip_recovers_expected_answer(self):
        rng = Random(11)
        issuer = identity("a")
        for _ in range(20):
            ch, expected = crypto.generate_challenge(issuer, 500, rng)
            # from the wire form, which carries no answer: the kernel scans
            solution, work = crypto.solve_challenge(crypto.decode_payload(bytes(ch)), 500)
            assert solution == expected
            assert work == expected + 1

    def test_foreign_issuer_key_has_no_solution(self):
        # the target was computed over a different key, so the scan must fail:
        # this is exactly what a relayed challenge looks like after rewriting
        ch, _ = crypto.generate_challenge(identity("a"), 200, Random(2))
        forged = crypto.Challenge(
            issuer_public_key=identity("b").public_key,
            rand1=ch.rand1,
            target_hash=ch.target_hash,
        )
        with pytest.raises(crypto.NoSolution):
            crypto.solve_challenge(forged, 200)

    def test_verify_solution(self):
        ch, expected = crypto.generate_challenge(identity("a"), 300, Random(4))
        assert crypto.verify_solution(ch, expected)
        assert not crypto.verify_solution(ch, (expected + 1) % 301)

    @given(planted=st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_solver_finds_any_planted_value(self, planted):
        issuer = identity("prop")
        ch = crypto.Challenge(
            issuer_public_key=issuer.public_key,
            rand1=1,
            target_hash=crypto.challenge_target(issuer.public_key, 1, planted),
        )
        assert crypto.solve_challenge(ch, 400) == (planted, planted + 1)


def outcome(challenge: crypto.Challenge, max_rand: int):
    """What `solve_challenge` returns, or "no_solution"."""
    try:
        return crypto.solve_challenge(challenge, max_rand)
    except crypto.NoSolution:
        return "no_solution"


class TestKnownAnswer:
    """A carried answer may only skip the scan, never change its result."""

    ISSUER_MAX_RAND = 600

    def challenges(self, count: int = 40):
        rng = Random(21)
        issuer = identity("known-issuer")
        return [crypto.generate_challenge(issuer, self.ISSUER_MAX_RAND, rng) for _ in range(count)]

    def test_every_hint_agrees_with_the_scan(self):
        relay = identity("known-relay")
        drawn = self.challenges()
        seen = set()
        for (ch, answer), (_, other) in zip(drawn, drawn[1:] + drawn[:1]):
            assert ch.answer == answer  # a built challenge carries its answer
            forged = crypto.Challenge(relay.public_key, ch.rand1, ch.target_hash, answer)
            for max_rand in (0, 150, 300, self.ISSUER_MAX_RAND):
                seen.add(answer <= max_rand)
                for challenge in (ch, ch._replace(answer=other), forged):
                    unhinted = challenge._replace(answer=None)
                    assert outcome(challenge, max_rand) == outcome(unhinted, max_rand)
        assert seen == {True, False}  # answers both inside and beyond the range

    def test_a_correct_hint_skips_the_kernel(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(pow_backend, "solve_kernel", no_scan)
        for ch, answer in self.challenges(10):
            assert crypto.solve_challenge(ch, self.ISSUER_MAX_RAND) == (answer, answer + 1)
            if answer:
                with pytest.raises(crypto.NoSolution):
                    crypto.solve_challenge(ch, answer - 1)

    def test_a_wrong_hint_runs_the_kernel(self, monkeypatch):
        calls = []
        kernel = pow_backend.solve_kernel
        monkeypatch.setattr(
            pow_backend, "solve_kernel", lambda *args: calls.append(args) or kernel(*args)
        )
        (ch, answer), (_, other) = self.challenges(2)
        assert other != answer
        assert outcome(ch._replace(answer=other), self.ISSUER_MAX_RAND) == (answer, answer + 1)
        assert len(calls) == 1


class TestDrawnChallenge:
    """A drawn challenge derives its target only when read, and is otherwise
    the challenge its wire form decodes to."""

    def counted(self, monkeypatch) -> Counter:
        calls = Counter()
        target, kernel = crypto.challenge_target, pow_backend.solve_kernel

        def hashing(*args):
            calls["hash"] += 1
            return target(*args)

        def scanning(*args):
            calls["scan"] += 1
            return kernel(*args)

        monkeypatch.setattr(crypto, "challenge_target", hashing)
        monkeypatch.setattr(pow_backend, "solve_kernel", scanning)
        return calls

    @given(
        key=st.binary(min_size=crypto.PUBLIC_KEY_LEN, max_size=crypto.PUBLIC_KEY_LEN),
        max_rand=st.integers(0, 300),
        seed=st.integers(0, 2**32),
        solver_max_rand=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_it_solves_as_its_wire_form_does(self, key, max_rand, seed, solver_max_rand):
        rand1, rand2 = crypto.draw_challenge(max_rand, Random(seed))
        drawn = crypto.DrawnChallenge(key, rand1, None, rand2)
        wire = crypto.decode_payload(bytes(drawn))
        assert type(wire) is crypto.Challenge and wire.answer is None
        assert bytes(wire) == bytes(drawn)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.counted(monkeypatch)
            hinted = outcome(drawn, solver_max_rand)
            assert calls == Counter()  # neither a hash nor a scan
            assert outcome(wire, solver_max_rand) == hinted
            assert calls == Counter(scan=1)

    @given(
        a=st.tuples(st.sampled_from([b"a" * 32, b"b" * 32]), st.integers(0, 2), st.integers(0, 2)),
        b=st.tuples(st.sampled_from([b"a" * 32, b"b" * 32]), st.integers(0, 2), st.integers(0, 2)),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_two_are_equal_exactly_when_their_bytes_are(self, a, b):
        first = crypto.DrawnChallenge(a[0], a[1], None, a[2])
        second = crypto.DrawnChallenge(b[0], b[1], None, b[2])
        assert (first == second) == (bytes(first) == bytes(second))
        if first == second:
            assert hash(first) == hash(second)

    def test_a_forged_copy_with_a_wrong_answer_still_scans(self, monkeypatch):
        issuer, relay = identity("drawn-issuer"), identity("drawn-relay")
        rand1, rand2 = crypto.draw_challenge(400, Random(8))
        drawn = crypto.DrawnChallenge(issuer.public_key, rand1, None, rand2)
        wrong = (rand2 + 1) % 401
        forged = crypto.Challenge(issuer.public_key, rand1, drawn.target_hash, wrong)
        relayed = crypto.Challenge(relay.public_key, rand1, drawn.target_hash, rand2)
        calls = self.counted(monkeypatch)
        assert outcome(forged, 400) == (rand2, rand2 + 1)
        assert calls == Counter(hash=1, scan=1)  # the answer checked, then the scan
        assert outcome(relayed, 400) == "no_solution"
        assert calls == Counter(hash=2, scan=2)


class TestRelayedChallenge:
    """A relay's rewritten copy keeps its original outside its bytes, and is
    refused by the key it claims, as a scan of its wire form refuses it."""

    @given(
        issuer=st.sampled_from([b"a" * 32, b"b" * 32]),
        relay=st.sampled_from([b"a" * 32, b"b" * 32]),
        max_rand=st.integers(0, 300),
        seed=st.integers(0, 2**32),
        solver_max_rand=st.integers(0, 300),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_it_solves_as_its_wire_form_does(
        self, issuer, relay, max_rand, seed, solver_max_rand
    ):
        rand1, rand2 = crypto.draw_challenge(max_rand, Random(seed))
        original = crypto.DrawnChallenge(issuer, rand1, None, rand2)
        copy = crypto.RelayedChallenge(relay, rand1, original)
        wire = crypto.decode_payload(bytes(copy))
        assert wire == crypto.Challenge(relay, rand1, original.target_hash)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = TestDrawnChallenge().counted(monkeypatch)
            refused = outcome(copy, solver_max_rand)
            assert calls == Counter()  # neither a hash nor a scan
            assert outcome(wire, solver_max_rand) == refused
            assert calls == Counter(scan=1)
        if relay != issuer:
            assert refused == "no_solution"

    @given(
        a=st.tuples(st.sampled_from([b"a" * 32, b"b" * 32]), st.integers(0, 2), st.integers(0, 2)),
        b=st.tuples(st.sampled_from([b"a" * 32, b"b" * 32]), st.integers(0, 2), st.integers(0, 2)),
        relays=st.lists(st.sampled_from([b"c" * 32, b"d" * 32]), min_size=2, max_size=2),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_two_are_equal_exactly_when_their_bytes_are(self, a, b, relays):
        first, second = (
            crypto.RelayedChallenge(relay, rand1, crypto.DrawnChallenge(key, rand1, None, rand2))
            for relay, (key, rand1, rand2) in zip(relays, (a, b))
        )
        assert (first == second) == (bytes(first) == bytes(second))
        if first == second:
            assert hash(first) == hash(second)
        assert first != crypto.decode_payload(bytes(first))  # nor equals a built challenge


def test_seal_and_open_load_neither_the_openssl_backend_nor_hashlib():
    # public keys are parsed by the Rust X25519 binding, as private keys are,
    # and SHA-256 is cryptography's
    code = (
        "import sys; from optoutswarm import crypto; "
        "bob = crypto.ClientIdentity(bytes(range(32))); "
        "assert crypto.open_sealed(bob, crypto.seal(bob.public_key, b'dawn')) == b'dawn'; "
        "print(*(m in sys.modules for m in ("
        "'cryptography.hazmat.backends.openssl', 'hashlib', '_hashlib')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["False", "False", "False"]


@pytest.mark.parametrize(
    "max_rand", [0, 1, 199, 200, 255, 256, 10_000, 2**32, crypto.MAX_RAND_LIMIT]
)
def test_challenge_draws_are_those_of_randint(max_rand):
    # draw_challenge draws with getrandbits as randint does, and
    # generate_challenge builds on its draws; a Python whose randint draws
    # otherwise fails here before any pinned digest moves
    issuer = identity("draws")
    for seed in range(5):
        rng, drawn, twin = Random(seed), Random(seed), Random(seed)
        for _ in range(20):
            challenge, rand2 = crypto.generate_challenge(issuer, max_rand, rng)
            rand1 = twin.randint(0, max_rand)
            assert (challenge.rand1, rand2) == (rand1, twin.randint(0, max_rand))
            assert crypto.draw_challenge(max_rand, drawn) == (rand1, rand2)
            assert crypto.verify_solution(challenge, rand2)
        assert rng.getstate() == drawn.getstate() == twin.getstate()


def test_mean_work_tracks_interval_size():
    # linear hardness: uniform answers make the average scan half the interval
    rng = Random(5)
    issuer = identity("a")
    max_rand = 200
    total = 0
    trials = 200
    for _ in range(trials):
        ch, _ = crypto.generate_challenge(issuer, max_rand, rng)
        _, work = crypto.solve_challenge(ch, max_rand)
        total += work
    mean = total / trials
    assert 0.4 * (max_rand + 1) <= mean <= 0.6 * (max_rand + 1)


# sha256 over the wire bytes of 16 sealed messages, as sealed since `seal`
# first encrypted: a change to sealing must not move a ciphertext byte
SEALED_WIRE_DIGEST = "16918fc817ea24f4622b776249359750b893ea28bde36358f600ffdc6a04296a"


def flip_bit(wire: bytes, index: int) -> bytes:
    flipped = bytearray(wire)
    flipped[index] ^= 0x01
    return bytes(flipped)


class TestSealedMessages:
    def test_round_trip(self):
        bob = identity("bob")
        wire = crypto.seal(bob.public_key, b"meet at dawn")
        assert crypto.open_sealed(bob, wire) == b"meet at dawn"

    def test_wrong_identity_is_not_addressee(self):
        bob, eve = identity("bob"), identity("eve")
        wire = crypto.seal(bob.public_key, b"secret")
        with pytest.raises(crypto.NotAddressee):
            crypto.open_sealed(eve, wire)

    def test_empty_plaintext_round_trips(self):
        bob = identity("bob")
        assert crypto.open_sealed(bob, crypto.seal(bob.public_key, b"")) == b""

    def test_tampered_ciphertext_fails_authentication(self):
        bob = identity("bob")
        wire = crypto.seal(bob.public_key, b"payload")
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_sealed(bob, flip_bit(wire, -1))

    def test_tampered_ephemeral_key_fails_authentication(self):
        bob = identity("bob")
        wire = crypto.seal(bob.public_key, b"payload")
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_sealed(bob, flip_bit(wire, crypto.KEY_HASH_LEN))

    def test_tampered_recipient_hash_is_not_addressee(self):
        bob = identity("bob")
        wire = crypto.seal(bob.public_key, b"payload")
        with pytest.raises(crypto.NotAddressee):
            crypto.open_sealed(bob, flip_bit(wire, 0))

    def test_recipient_key_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            crypto.seal(b"short", b"payload")

    def test_sealed_wire_bytes_are_pinned(self):
        bob = identity("bob")
        digest = hashlib.sha256()
        for i in range(16):
            digest.update(crypto.seal(bob.public_key, b"meet at dawn %d" % i))
        assert digest.hexdigest() == SEALED_WIRE_DIGEST

    def test_wire_round_trip(self):
        bob = identity("bob")
        wire = crypto.seal(bob.public_key, b"x" * 100)
        assert wire[: crypto.KEY_HASH_LEN] == crypto.key_hash(bob.public_key)
        assert len(wire) == crypto.KEY_HASH_LEN + crypto.PUBLIC_KEY_LEN + 100 + 16
        assert crypto.open_sealed(bob, wire) == b"x" * 100
        with pytest.raises(ValueError):
            crypto.open_sealed(bob, b"too short")

    def test_sealing_is_deterministic(self):
        bob = identity("bob")
        assert crypto.seal(bob.public_key, b"same") == crypto.seal(bob.public_key, b"same")
        assert crypto.seal(bob.public_key, b"same") != crypto.seal(bob.public_key, b"same!")

    def test_seals_are_equal_exactly_when_their_wire_bytes_are(self):
        # an inbox holds records, and the DHT collapses equal values and keeps
        # insertion order: under one recipient, records must be equal exactly
        # when the wire bytes they seal to are
        keys = [identity(tag).public_key for tag in ("bob", "eve", "carol")]
        issuer, target = keys[0], bytes(range(32))
        records = [
            crypto.Challenge(issuer, 7, target), crypto.Challenge(issuer, 8, target),
            crypto.Challenge(keys[1], 7, target), crypto.Challenge(issuer, 7, bytes(32)),
            crypto.ChallengeSolution(issuer, 7), crypto.ChallengeSolution(issuer, 8),
            crypto.ChallengeSolution(keys[2], 7),
        ]
        for key in keys:
            wires = [crypto.seal(key, bytes(r)) for r in records]
            for a, wire_a in zip(records, wires):
                for b, wire_b in zip(records, wires):
                    assert (a == b) == (wire_a == wire_b)
                    assert (a == b) <= (hash(a) == hash(b))

    def test_equal_seals_collapse_to_one_dht_value(self):
        bob = identity("bob")
        store = SimulatedDht()
        key = inbox_key(bob.public_key)
        store.put(key, crypto.seal(bob.public_key, b"twice"), 0)
        store.put(key, crypto.seal(bob.public_key, b"other"), 0)
        store.put(key, crypto.seal(bob.public_key, b"twice"), 1)
        assert store.get(key, 1) == [
            crypto.seal(bob.public_key, b"twice"),
            crypto.seal(bob.public_key, b"other"),
        ]

    @given(plaintext=st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_any_plaintext_round_trips(self, plaintext):
        bob = identity("prop-bob")
        assert crypto.open_sealed(bob, crypto.seal(bob.public_key, plaintext)) == plaintext


public_keys = st.binary(min_size=crypto.PUBLIC_KEY_LEN, max_size=crypto.PUBLIC_KEY_LEN)
rands = st.integers(min_value=0, max_value=crypto.MAX_RAND_LIMIT)
records = st.one_of(
    st.builds(crypto.Challenge, public_keys, rands, st.binary(min_size=32, max_size=32)),
    st.builds(crypto.ChallengeSolution, public_keys, rands),
)


def on_the_wire(record: crypto.Challenge | crypto.ChallengeSolution):
    """The fields a payload carries: a challenge's answer stays in process."""
    return record._replace(answer=None) if isinstance(record, crypto.Challenge) else record


class TestPayloadCodec:
    # every pinned run draws rand1 and rand2 far below 2^56, so only the full
    # range shows a decoder that reads a number's top byte wrong

    @given(record=records)
    @example(record=crypto.Challenge(b"i" * 32, crypto.MAX_RAND_LIMIT, b"t" * 32))
    @example(record=crypto.ChallengeSolution(b"s" * 32, crypto.MAX_RAND_LIMIT))
    @settings(max_examples=200, deadline=None)
    def test_payload_round_trips(self, record):
        assert crypto.decode_payload(bytes(record)) == on_the_wire(record)

    @given(record=records)
    @settings(max_examples=30, deadline=None)
    def test_sealed_payload_round_trips(self, record):
        bob = identity("codec-bob")
        wire = crypto.seal(bob.public_key, bytes(record))
        assert crypto.decode_payload(crypto.open_sealed(bob, wire)) == on_the_wire(record)
