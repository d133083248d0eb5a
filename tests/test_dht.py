"""Multimap store semantics: hashing, TTL, order, membership, oracle equivalence."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm import dht


def fresh(**kwargs) -> dht.SimulatedDht:
    return dht.SimulatedDht(**kwargs)


def k(text: str) -> dht.DhtKey:
    return dht.derive_key(text.encode())


def test_derive_key_deterministic():
    assert dht.derive_key(b"abc") == dht.derive_key(b"abc")


def test_derive_key_is_truncated_sha256():
    assert dht.derive_key(b"abc").key == hashlib.sha256(b"abc").digest()[:20]
    assert len(dht.derive_key(b"whatever").key) == 20


@given(logical_key=st.binary(min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_derive_key_is_hashlib_s_truncated_sha256(logical_key):
    assert dht.derive_key(logical_key).key == hashlib.sha256(logical_key).digest()[:20]


def test_table_keys_are_derived_once():
    key = dht.comrades_table_key(500, "http://a.example/")
    assert key == k("500|http://a.example/")
    assert dht.comrades_table_key(500, "http://a.example/") is key
    assert dht.comrades_table_key(500.0, "http://a.example/") == k("500.0|http://a.example/")
    assert dht.inbox_key(b"pk") is dht.inbox_key(b"pk") == k("pk")


def test_url_key_differs_from_start_url_key():
    url = "http://spam.example/x"
    assert dht.campaign_table_key(url) != dht.comrades_table_key(500, url)


def test_different_starts_give_different_keys():
    url = "http://spam.example/x"
    assert dht.comrades_table_key(500, url) != dht.comrades_table_key(501, url)


def test_empty_logical_key_rejected():
    with pytest.raises(dht.EmptyKey):
        dht.derive_key(b"")


def test_multimap_stores_distinct_values():
    store = fresh()
    store.put(k("a"), b"v1", 0)
    store.put(k("a"), b"v2", 0)
    assert store.get(k("a"), 0) == [b"v1", b"v2"]


def test_duplicate_put_is_idempotent():
    store = fresh()
    store.put(k("a"), b"v1", 0)
    store.put(k("a"), b"v1", 5)
    assert store.get(k("a"), 5) == [b"v1"]


def test_keys_are_isolated():
    store = fresh()
    store.put(k("a"), b"v", 0)
    assert store.get(k("b"), 0) == []


def test_unknown_key_returns_empty():
    assert fresh().get(k("never"), 0) == []


def test_ttl_expiry_boundary():
    store = fresh(ttl_minutes=60)
    store.put(k("a"), b"v", 0)
    assert store.get(k("a"), 60) == [b"v"]  # still alive at exactly ttl
    assert store.get(k("a"), 61) == []


def test_hundred_distinct_values_all_returned():
    store = fresh()
    values = [f"value-{i}".encode() for i in range(100)]
    for v in values:
        store.put(k("bulk"), v, 0)
    assert store.get(k("bulk"), 0) == values


def test_remove_deletes_value():
    store = fresh()
    store.put(k("a"), b"v", 0)
    store.remove(k("a"), b"v")
    assert store.get(k("a"), 0) == []


def test_remove_absent_value_is_noop():
    store = fresh()
    store.put(k("a"), b"keep", 0)
    store.remove(k("a"), b"missing")
    assert store.get(k("a"), 0) == [b"keep"]


def test_remove_scoped_to_key():
    store = fresh()
    store.put(k("a"), b"v", 0)
    store.put(k("b"), b"v", 0)
    store.remove(k("a"), b"v")
    assert store.get(k("b"), 0) == [b"v"]


def test_empty_value_rejected():
    with pytest.raises(ValueError):
        fresh().put(k("a"), b"", 0)


def test_live_reput_keeps_position():
    store = fresh(ttl_minutes=60)
    store.put(k("a"), b"v1", 0)
    store.put(k("a"), b"v2", 0)
    store.put(k("a"), b"v1", 30)
    assert store.get(k("a"), 30) == [b"v1", b"v2"]
    assert store.get(k("a"), 61) == [b"v1"]  # the re-put refreshed v1's clock


def test_expired_reput_moves_to_end():
    store = fresh(ttl_minutes=60)
    store.put(k("a"), b"v1", 0)
    store.put(k("a"), b"v2", 50)
    store.put(k("a"), b"v1", 61)
    assert store.get(k("a"), 61) == [b"v2", b"v1"]


def test_contains_honours_ttl():
    store = fresh(ttl_minutes=60)
    store.put(k("a"), b"v", 10)
    assert store.contains(k("a"), b"v", 10)
    assert store.contains(k("a"), b"v", 70)
    assert not store.contains(k("a"), b"v", 71)
    assert not store.contains(k("a"), b"other", 10)
    assert not store.contains(k("b"), b"v", 10)


def test_appended_reads_from_a_cursor():
    store = fresh(ttl_minutes=60)
    assert store.appended(k("a"), 0) == ([], 0)
    store.put(k("a"), b"v1", 0)
    store.put(k("a"), b"v2", 0)
    new, cursor = store.appended(k("a"), 0)
    assert sorted(new) == [b"v1", b"v2"]
    store.put(k("a"), b"v1", 30)  # a live re-put stores nothing afresh
    assert store.appended(k("a"), cursor) == ([], cursor)
    store.put(k("a"), b"v3", 40)
    assert store.appended(k("a"), cursor) == ([b"v3"], cursor + 1)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove", "read"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=80,
    )
)
@settings(max_examples=100, deadline=None)
def test_appended_never_misses_a_value_stored_afresh(ops):
    # whatever was stored new, or again after expiring, since the last read
    # is in the next read, however removes and expired re-puts reorder the list
    store = fresh(ttl_minutes=20)
    now, cursor, missed = 0, 0, set()
    for action, val_i, wait in ops:
        now += wait
        value = f"v{val_i}".encode()
        if action == "put":
            fresh_put = not store.contains(k("a"), value, now)
            store.put(k("a"), value, now)
            if fresh_put:
                missed.add(value)
        elif action == "remove":
            store.remove(k("a"), value)
            missed.discard(value)
        else:
            new, cursor = store.appended(k("a"), cursor)
            assert missed <= set(new)
            missed.clear()


def oracle_put(oracle: dict[bytes, dict[bytes, None]], key: dht.DhtKey, value: bytes) -> None:
    # without expiry every re-put is live, so it keeps its position
    oracle.setdefault(key.key, {})[value] = None


def assert_matches(store: dht.SimulatedDht, oracle, key: dht.DhtKey, values) -> None:
    expected = list(oracle.get(key.key, {}))
    assert store.get(key, 0) == expected
    for value in values:
        assert store.contains(key, value, 0) == (value in expected)


def run_against_oracle(seed: int, ops: int) -> None:
    """Random op sequence must match an insertion-ordered dict per key."""
    rng = Random(seed)
    store = fresh()
    oracle: dict[bytes, dict[bytes, None]] = {}
    keys = [k(f"key-{i}") for i in range(8)]
    values = [f"val-{i}".encode() for i in range(12)]
    for _ in range(ops):
        key = rng.choice(keys)
        action = rng.random()
        if action < 0.45:
            value = rng.choice(values)
            store.put(key, value, 0)
            oracle_put(oracle, key, value)
        elif action < 0.7:
            value = rng.choice(values)
            store.remove(key, value)
            oracle.get(key.key, {}).pop(value, None)
        assert_matches(store, oracle, key, values)
    for key in keys:
        assert_matches(store, oracle, key, values)


def test_oracle_equivalence_random_sequences():
    for seed in range(5):
        run_against_oracle(seed, 400)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "remove", "get"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_oracle_equivalence_property(ops):
    store = fresh()
    oracle: dict[bytes, dict[bytes, None]] = {}
    values = [f"v{i}".encode() for i in range(7)]
    for action, key_i, val_i in ops:
        key = k(f"k{key_i}")
        value = values[val_i]
        if action == "put":
            store.put(key, value, 0)
            oracle_put(oracle, key, value)
        elif action == "remove":
            store.remove(key, value)
            oracle.get(key.key, {}).pop(value, None)
        assert_matches(store, oracle, key, values)


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "drain"]),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=15),
        ),
        max_size=60,
    )
)
@settings(max_examples=150, deadline=None)
def test_drain_is_get_then_remove_each(ops):
    # one call in place of a get and a remove per value it returned: the
    # same values, and the same store after, expired values and re-puts too
    drained, removed = fresh(ttl_minutes=20), fresh(ttl_minutes=20)
    key, now = k("inbox"), 0
    for action, val_i, wait in ops:
        now += wait
        if action == "put":
            for store in (drained, removed):
                store.put(key, f"v{val_i}".encode(), now)
        else:
            values = removed.get(key, now)
            for value in values:
                removed.remove(key, value)
            assert drained.drain(key, now) == values
        assert drained.get(key, now) == removed.get(key, now)
        count = drained.appended(key, 0)[1]
        for cursor in range(count + 1):
            assert drained.appended(key, cursor) == removed.appended(key, cursor)
