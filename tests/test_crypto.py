"""Identities, challenges, and sealed messages."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm import crypto

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


class TestIdentity:
    def test_public_key_is_32_bytes(self):
        assert len(identity("a").public_key) == 32

    def test_seeded_generation_is_stable(self):
        assert identity("a").public_key == identity("a").public_key
        assert identity("a").public_key != identity("b").public_key

    def test_repr_hides_private_key(self):
        ident = identity("a")
        assert ident.private_key.hex() not in repr(ident)


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
            solution, work = crypto.solve_challenge(ch, 500)
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


# sha256 over the wire bytes of 16 sealed messages, as sealed before the box
# key handoff existed: the handoff must not move a ciphertext byte
SEALED_WIRE_DIGEST = "16918fc817ea24f4622b776249359750b893ea28bde36358f600ffdc6a04296a"

OPEN_PATHS = ("handoff", "cold")


def open_via(path: str, recipient: crypto.ClientIdentity, msg: crypto.SealedMessage) -> bytes:
    """Open `msg` through the named path, asserting that it is the one taken.

    "handoff" opens with the live identity `seal` handed the box key to;
    "cold" rebuilds the recipient from its private bytes, so the new identity
    holds no key and must run the X25519 exchange.
    """
    ephemeral_pk = msg.ciphertext[: crypto.PUBLIC_KEY_LEN]
    if path == "cold":
        recipient = crypto.ClientIdentity(recipient.public_key, recipient.private_key)
        assert ephemeral_pk not in recipient._box_keys
    else:
        assert ephemeral_pk in recipient._box_keys
    try:
        return crypto.open_sealed(recipient, msg)
    finally:
        assert ephemeral_pk not in recipient._box_keys


class TestSealedMessages:
    # The round-trip tests below take every open path in turn, so each path
    # must return the same plaintext.

    def test_round_trip(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"meet at dawn")
        for path in OPEN_PATHS:
            assert open_via(path, bob, msg) == b"meet at dawn"

    def test_wrong_identity_is_not_addressee(self):
        bob, eve = identity("bob"), identity("eve")
        msg = crypto.seal(bob.public_key, b"secret")
        with pytest.raises(crypto.NotAddressee):
            crypto.open_sealed(eve, msg)

    def test_empty_plaintext_round_trips(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"")
        for path in OPEN_PATHS:
            assert open_via(path, bob, msg) == b""

    def test_tampered_ciphertext_fails_authentication(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"payload")
        flipped = bytearray(msg.ciphertext)
        flipped[-1] ^= 0x01
        broken = crypto.SealedMessage(msg.recipient_key_hash, bytes(flipped))
        for path in OPEN_PATHS:
            with pytest.raises(crypto.DecryptionFailure):
                open_via(path, bob, broken)

    def test_tampered_ephemeral_key_fails_while_a_handoff_entry_exists(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"payload")
        ephemeral_pk = msg.ciphertext[: crypto.PUBLIC_KEY_LEN]
        flipped = bytearray(msg.ciphertext)
        flipped[0] ^= 0x01
        broken = crypto.SealedMessage(msg.recipient_key_hash, bytes(flipped))
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_sealed(bob, broken)
        # the forged key missed the lookup, so the genuine entry is still there
        assert ephemeral_pk in bob._box_keys
        assert crypto.open_sealed(bob, msg) == b"payload"

    def test_second_open_takes_the_cold_path(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"twice")
        assert open_via("handoff", bob, msg) == b"twice"
        assert not bob._box_keys
        assert crypto.open_sealed(bob, msg) == b"twice"

    def test_mismatched_key_pair_is_rejected(self):
        alice, bob = identity("alice"), identity("bob")
        with pytest.raises(ValueError, match="does not derive"):
            crypto.ClientIdentity(public_key=alice.public_key, private_key=bob.private_key)

    def test_seal_to_a_key_no_live_identity_holds_leaves_no_entry(self):
        # the identity is dropped at once, as a sybil key is
        orphan = crypto.generate_identity(Random("orphan")).public_key
        assert orphan not in crypto._live
        live = list(crypto._live.values())
        before = [dict(ident._box_keys) for ident in live]
        crypto.seal(orphan, b"to nobody")
        assert [ident._box_keys for ident in live] == before

    def test_sealed_wire_bytes_are_pinned(self):
        bob = identity("bob")
        digest = hashlib.sha256()
        for i in range(16):
            digest.update(crypto.seal(bob.public_key, b"meet at dawn %d" % i).to_bytes())
        assert digest.hexdigest() == SEALED_WIRE_DIGEST

    def test_wire_round_trip(self):
        bob = identity("bob")
        msg = crypto.seal(bob.public_key, b"x" * 100)
        again = crypto.SealedMessage.from_bytes(msg.to_bytes())
        assert again == msg
        with pytest.raises(ValueError):
            crypto.SealedMessage.from_bytes(b"too short")

    def test_sealing_is_deterministic(self):
        bob = identity("bob")
        assert (
            crypto.seal(bob.public_key, b"same").to_bytes()
            == crypto.seal(bob.public_key, b"same").to_bytes()
        )

    @given(plaintext=st.binary(max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_any_plaintext_round_trips(self, plaintext):
        bob = identity("prop-bob")
        msg = crypto.seal(bob.public_key, plaintext)
        for path in OPEN_PATHS:
            assert open_via(path, bob, msg) == plaintext
