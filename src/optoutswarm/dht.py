"""In-process multimap DHT with hashed keys and TTL expiry.

The network stores three kinds of entries, all through the same two verbs:
campaign start times under the hash of the target URL, participant public
keys under the hash of "start|url", and inbox messages (handshake records,
or sealed wire bytes) under the hash of the recipient's public key. Only
20-byte hashed keys ever hit the store; preimages stay with the clients.

Each key maps to an insertion-ordered dict from value to the minute it was
stored, so `contains` answers roster membership in O(1) and `remove` is a
single pop. `get` returns the live values in insertion order; `drain` also removes them.

Values expire after a TTL so abandoned campaigns clean themselves up, and
equal values collapse to one (re-registering for a campaign is idempotent).
Re-putting a live value refreshes its minute and keeps its place;
re-putting an expired one moves it to the end. Each key counts the values
stored at its end, so `appended` can hand a reader only what came since it
last looked.
"""

from __future__ import annotations

import functools
from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

from optoutswarm.crypto import hash_bytes

KEY_LEN = 20

# Keys are pure functions of their arguments and DhtKey is frozen, so each
# table key is derived once and shared. The bound covers the campaigns and
# inboxes of a 1,000-client fleet with room to spare.
KEY_CACHE_SIZE = 1 << 16

# A campaign can sit in the DHT for at most max_wait before it starts; one
# extra day of slack covers the campaign itself plus stragglers.
DEFAULT_TTL_MINUTES = 7 * 24 * 60 + 1440


class EmptyKey(Exception):
    """Logical keys must be non-empty."""


@dataclass(frozen=True)
class DhtKey:
    key: bytes

    def __post_init__(self) -> None:
        if len(self.key) != KEY_LEN:
            raise ValueError(f"DHT keys are {KEY_LEN} bytes")


def derive_key(logical_key: bytes) -> DhtKey:
    """First 20 bytes of SHA-256 over the logical key bytes."""
    if not logical_key:
        raise EmptyKey("logical key must be non-empty")
    return DhtKey(hash_bytes(logical_key)[:KEY_LEN])


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def campaign_table_key(canonical_url: str) -> DhtKey:
    """Key under which start times for a target URL are announced."""
    return derive_key(canonical_url.encode("utf-8"))


@functools.lru_cache(maxsize=KEY_CACHE_SIZE, typed=True)  # 500.0 and 500 render apart
def comrades_table_key(start_minute: int, canonical_url: str) -> DhtKey:
    """Key under which participants of one (start, URL) campaign register."""
    return derive_key(f"{start_minute}|{canonical_url}".encode("utf-8"))


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def inbox_key(public_key: bytes) -> DhtKey:
    """Key of a client's message inbox."""
    return derive_key(public_key)


@dataclass
class SimulatedDht:
    """Single authoritative store; real-DHT churn and routing are out of scope."""

    ttl_minutes: int = DEFAULT_TTL_MINUTES
    inbox_readers: frozenset[bytes] | None = None  # keys whose inbox is polled; None: every key
    _table: dict[bytes, dict[Hashable, int]] = field(default_factory=dict)
    _appends: dict[bytes, int] = field(default_factory=dict)  # values ever stored at the end

    def put(self, key: DhtKey, value: Hashable, now: int) -> None:
        if not value:
            raise ValueError("value must be non-empty")
        values = self._table.get(key.key)
        if values is None:
            values = self._table[key.key] = {}
        stored_at = values.get(value)
        if stored_at is None or now > stored_at + self.ttl_minutes:
            if stored_at is not None:
                del values[value]  # expired: store afresh at the end
            self._appends[key.key] = self._appends.get(key.key, 0) + 1
        values[value] = now  # a live duplicate is refreshed in place

    def get(self, key: DhtKey, now: int) -> list[Any]:
        oldest = now - self.ttl_minutes
        return [v for v, at in self._table.get(key.key, {}).items() if oldest <= at <= now]

    def drain(self, key: DhtKey, now: int) -> list[Any]:
        """`get(key, now)`, then a `remove` of each value it returned, in one call."""
        values = self._table.get(key.key)
        if values is None:
            return []
        oldest = now - self.ttl_minutes
        live = [v for v, at in values.items() if oldest <= at <= now]
        for value in live:
            del values[value]
        if not values:
            del self._table[key.key]
        return live

    def contains(self, key: DhtKey, value: Hashable, now: int) -> bool:
        """Whether `value` is in `get(key, now)`, without reading the others."""
        at = self._table.get(key.key, {}).get(value)
        return at is not None and now - self.ttl_minutes <= at <= now

    def contains_any(self, keys: Iterable[DhtKey], value: Hashable, now: int) -> bool:
        """Whether `contains(key, value, now)` holds for some key, in one call."""
        table, oldest = self._table, now - self.ttl_minutes
        for key in keys:
            at = table.get(key.key, {}).get(value)
            if at is not None and oldest <= at <= now:
                return True
        return False

    def appended(self, key: DhtKey, cursor: int) -> tuple[list[Any], int]:
        """Values stored at the end of `key` since `cursor`, newest first and
        live or not, and the cursor for next time; start from 0.

        Every value stored afresh since `cursor` is there. A value stored
        afresh and then removed or stored afresh again leaves its slot to an
        older one, so a reader may see a value twice, never miss one.
        """
        count = self._appends.get(key.key, 0)
        if count == cursor:
            return [], count
        values = self._table.get(key.key, {})
        return list(islice(reversed(values), count - cursor)), count

    def remove(self, key: DhtKey, value: Hashable) -> None:
        values = self._table.get(key.key)
        if values is not None and values.pop(value, None) is not None and not values:
            del self._table[key.key]
