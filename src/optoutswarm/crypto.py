"""Client identities, hashcash-style challenges, and sealed inbox messages.

Clients are identified by raw 32-byte X25519 public keys. A client proves it
spent CPU time for a peer by solving that peer's challenge: the issuer picks
two random numbers, publishes one of them plus a hash binding its own public
key to both, and the solver brute-forces the hidden one. Binding the issuer's
key into the hash means a relayed challenge yields a solution for the
original issuer, never for the relay. A challenge drawn in process carries
its issuer's answer, which no payload holds, and hashes its target only when
read; a solver takes that answer, refuses a relay's copy by its key, checks
any other answer with one hash, and scans.

A handshake record's tagged inbox payload is `bytes(record)`, and
`decode_payload` reads it back. `seal` turns payload bytes into the wire
form of a message: addressed by a 20-byte hash of the recipient key, and
opened by `open_sealed` only with the matching private key (X25519 +
ChaCha20-Poly1305). In-process senders leave the records themselves in an
inbox; the seal is the form a message takes on the wire, so no run seals, and
the AEAD cipher is imported by `seal` and `open_sealed` alone. Keys are
parsed and hashed by cryptography's Rust bindings, not by its public
classmethods, which would load its whole OpenSSL backend first, nor by
hashlib, which maps a second OpenSSL; a run loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.bindings._rust import openssl as _rust_openssl
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from cryptography.hazmat.primitives.hashes import SHA256, Hash

# the bindings that the X25519 keys' `from_*_bytes` classmethods call after
# they import the OpenSSL backend to ask whether X25519 is supported; the
# x25519 import above already loaded them, and they return the same key types
_x25519_private_key = _rust_openssl.x25519.from_private_bytes
_x25519_public_key = _rust_openssl.x25519.from_public_bytes

KEY_HASH_LEN = 20  # addressing hash prefix, matches DHT key width
PUBLIC_KEY_LEN = 32
MAX_RAND_LIMIT = 2**63 - 1  # the C kernel scans with a signed 64-bit counter

# Domain separation tags so the ephemeral scalar and the AEAD key can never
# collide with each other or with challenge hashing.
_EPHEMERAL_TAG = b"optoutswarm seal ephemeral v1"
_BOX_KEY_TAG = b"optoutswarm seal key v1"
_ZERO_NONCE = bytes(12)

# the one-byte type tags that open the handshake records' inbox payloads
TAG_CHALLENGE = b"\x01"
TAG_RESPONSE = b"\x02"
CHALLENGE_PAYLOAD_LEN = 1 + 32 + 8 + 32
RESPONSE_PAYLOAD_LEN = 1 + 32 + 8


class NoSolution(Exception):
    """No value in [0, max_rand] reproduces the challenge hash."""


class MalformedPayload(Exception):
    """Inbox payload does not decode to a known message type."""


class NotAddressee(Exception):
    """Sealed message is addressed to a different key."""


class DecryptionFailure(Exception):
    """Sealed message is addressed to us but fails to authenticate."""


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of the exact input bytes."""
    digest = Hash(SHA256())
    digest.update(data)
    return digest.finalize()


def key_hash(public_key: bytes) -> bytes:
    """20-byte addressing hash of a public key."""
    return hash_bytes(public_key)[:KEY_HASH_LEN]


@dataclass(frozen=True)
class ClientIdentity:
    """An X25519 keypair built from its private key; the public key doubles
    as the client's name."""

    private_key: bytes  # raw scalar, never written into any DHT record
    public_key: bytes = field(init=False)
    # parsed once and kept for opens: parsing derives the public key, which
    # costs about half of an open. The binding parses it directly, because the
    # classmethod would load the OpenSSL backend, which no run otherwise uses
    _x25519: X25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        private = _x25519_private_key(self.private_key)
        object.__setattr__(self, "_x25519", private)
        object.__setattr__(self, "public_key", private.public_key().public_bytes_raw())

    def __repr__(self) -> str:  # keep private key out of logs
        return f"ClientIdentity(public_key={self.public_key.hex()[:12]}…)"


def generate_identity(rng: Random) -> ClientIdentity:
    return ClientIdentity(rng.randbytes(PUBLIC_KEY_LEN))


class Challenge(NamedTuple):
    issuer_public_key: bytes
    rand1: int
    target_hash: bytes
    answer: int | None = None  # the issuer's rand2, in process only; not in the payload

    def __bytes__(self) -> bytes:
        """Inbox payload: tag ‖ issuer key (32) ‖ rand1 (8, little-endian) ‖ target (32)."""
        return (
            TAG_CHALLENGE + self.issuer_public_key + self.rand1.to_bytes(8, "little")
            + self.target_hash
        )


class DrawnChallenge(Challenge):
    """A challenge drawn in process, `DrawnChallenge(key, rand1, None, answer)`,
    whose target is hashed from its answer when read. Two are equal exactly when
    their bytes are, none equals a built `Challenge`, and `_replace` keeps the type."""

    __slots__ = ()

    @property
    def target_hash(self) -> bytes:
        return challenge_target(self.issuer_public_key, self.rand1, self.answer)


class RelayedChallenge(Challenge):
    """A relay's copy of a challenge under its own key, `RelayedChallenge(key,
    original.rand1, original)`, whose target is its original's. Copies of one
    original are equal exactly when their bytes are, unless SHA-256 collides."""

    __slots__ = ()

    @property
    def target_hash(self) -> bytes:
        return self[2].target_hash


class ChallengeSolution(NamedTuple):
    solver_public_key: bytes
    rand2: int

    def __bytes__(self) -> bytes:
        """Inbox payload: tag ‖ solver key (32) ‖ rand2 (8, little-endian)."""
        return TAG_RESPONSE + self.solver_public_key + self.rand2.to_bytes(8, "little")


def decode_payload(data: bytes) -> Challenge | ChallengeSolution:
    """Parse a tagged inbox payload back into its record."""
    if not data:
        raise MalformedPayload("empty payload")
    tag = data[:1]
    if tag == TAG_CHALLENGE:
        if len(data) != CHALLENGE_PAYLOAD_LEN:
            raise MalformedPayload(f"challenge payload of {len(data)} bytes")
        return Challenge(data[1:33], int.from_bytes(data[33:41], "little"), data[41:73])
    if tag == TAG_RESPONSE:
        if len(data) != RESPONSE_PAYLOAD_LEN:
            raise MalformedPayload(f"response payload of {len(data)} bytes")
        return ChallengeSolution(data[1:33], int.from_bytes(data[33:41], "little"))
    raise MalformedPayload(f"unknown payload tag {data[0]:#04x}")


def challenge_target(issuer_public_key: bytes, rand1: int, rand2: int) -> bytes:
    """The 32-byte hash a solver must reproduce."""
    return hash_bytes(
        issuer_public_key + rand1.to_bytes(8, "little") + rand2.to_bytes(8, "little")
    )


def draw_challenge(max_rand: int, rng: Random) -> tuple[int, int]:
    """Draw (rand1, rand2) uniformly from [0, max_rand]: the draws of two
    `rng.randint(0, max_rand)` calls, without their two call layers."""
    if not 0 <= max_rand <= MAX_RAND_LIMIT:
        raise ValueError(f"max_rand must lie in [0, {MAX_RAND_LIMIT}]")
    bound = max_rand + 1
    bits = bound.bit_length()
    rand1 = rng.getrandbits(bits)
    while rand1 >= bound:
        rand1 = rng.getrandbits(bits)
    rand2 = rng.getrandbits(bits)
    while rand2 >= bound:
        rand2 = rng.getrandbits(bits)
    return rand1, rand2


def generate_challenge(issuer: ClientIdentity, max_rand: int, rng: Random) -> tuple[Challenge, int]:
    """Draw a challenge from `issuer` with `draw_challenge`.

    Returns the challenge to send, built with its target and carrying its
    answer in process, plus that answer, which the issuer keeps.
    """
    rand1, rand2 = draw_challenge(max_rand, rng)
    target = challenge_target(issuer.public_key, rand1, rand2)
    return Challenge(issuer.public_key, rand1, target, rand2), rand2


def solve_challenge(challenge: Challenge, max_rand: int) -> tuple[int, int]:
    """Find the hidden rand2, counting hash evaluations as work.

    The scan tests candidates upward from zero; work for a solution found at
    value ``test`` is ``test + 1``. Raises NoSolution when the whole interval
    is exhausted, which is what a relayed challenge looks like after the
    relay swaps in its own key. A `RelayedChallenge` so swapped is refused
    unscanned: its target hashes its original's key, which a scan finds only
    if SHA-256 collides. A relay under its original's key is that original.

    A carried `answer` that reproduces the target hash is that first match,
    so it is returned, or rejected as out of range, without the scan; a
    `DrawnChallenge`'s answer is by construction, unhashed. Any other answer
    is ignored.
    """
    if type(challenge) is RelayedChallenge:
        if challenge.issuer_public_key != challenge[2].issuer_public_key:
            raise NoSolution(f"no solution in [0, {max_rand}]")
        challenge = challenge[2]
    answer, drawn = challenge.answer, isinstance(challenge, DrawnChallenge)
    if answer is not None and (drawn or verify_solution(challenge, answer)):
        if answer > max_rand:
            raise NoSolution(f"no solution in [0, {max_rand}]")
        return answer, answer + 1

    from optoutswarm.pow_backend import solve_kernel

    prefix = challenge.issuer_public_key + challenge.rand1.to_bytes(8, "little")
    found = solve_kernel(prefix, challenge.target_hash, max_rand)
    if found < 0:
        raise NoSolution(f"no solution in [0, {max_rand}]")
    return found, found + 1


def verify_solution(challenge: Challenge, rand2: int) -> bool:
    """Check a claimed rand2 against the challenge without re-solving."""
    target = challenge_target(challenge.issuer_public_key, challenge.rand1, rand2)
    return target == challenge.target_hash


def _box_key(shared_secret: bytes) -> bytes:
    return hash_bytes(_BOX_KEY_TAG + shared_secret)


def seal(recipient_public_key: bytes, plaintext: bytes) -> bytes:
    """Wire form of a message to a public key: recipient key hash (20) ‖
    ephemeral public key (32) ‖ AEAD ciphertext of the plaintext.

    The ephemeral key is derived from the recipient and the plaintext, so
    sealing is deterministic and replay in a seeded simulation is
    byte-stable. Each distinct message gets a distinct AEAD key, which makes
    the fixed nonce safe.
    """
    recipient = recipient_public_key
    if len(recipient) != PUBLIC_KEY_LEN:
        raise ValueError("recipient public key must be 32 bytes")
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    scalar = hash_bytes(_EPHEMERAL_TAG + recipient + plaintext)
    ephemeral = _x25519_private_key(scalar)
    shared = ephemeral.exchange(_x25519_public_key(recipient))
    ct = ChaCha20Poly1305(_box_key(shared)).encrypt(_ZERO_NONCE, plaintext, recipient)
    return key_hash(recipient) + ephemeral.public_key().public_bytes_raw() + ct


def open_sealed(identity: ClientIdentity, msg: bytes) -> bytes:
    """Open the wire bytes of a message sealed to this identity."""
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

    if len(msg) < KEY_HASH_LEN + PUBLIC_KEY_LEN:
        raise ValueError("sealed message too short")
    if msg[:KEY_HASH_LEN] != key_hash(identity.public_key):
        raise NotAddressee("message addressed to a different key")
    ephemeral_pk = msg[KEY_HASH_LEN : KEY_HASH_LEN + PUBLIC_KEY_LEN]
    ct = msg[KEY_HASH_LEN + PUBLIC_KEY_LEN :]
    try:
        shared = identity._x25519.exchange(_x25519_public_key(ephemeral_pk))
        return ChaCha20Poly1305(_box_key(shared)).decrypt(
            _ZERO_NONCE, ct, identity.public_key
        )
    except (InvalidTag, ValueError) as exc:
        raise DecryptionFailure("sealed message failed to authenticate") from exc
