"""Spam-to-target pipeline: extraction, redirects, canonical form, filtering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm import evaluator
from optoutswarm.evaluator import (
    EmailDocument,
    InvalidUrl,
    RedirectLoop,
    canonicalize,
    evaluate,
    extract_urls,
    hostname,
    is_whitelisted,
    unwrap_redirects,
)

class TestExtract:
    def test_trailing_punctuation_stripped(self):
        mail = EmailDocument(body="buy at http://pills.example/now!")
        assert extract_urls(mail) == ["http://pills.example/now"]

    def test_no_urls(self):
        assert extract_urls(EmailDocument(body="nothing to see")) == []

    def test_duplicates_collapse(self):
        mail = EmailDocument(
            body="http://a.example/x and again http://a.example/x"
        )
        assert extract_urls(mail) == ["http://a.example/x"]

    def test_order_of_appearance(self):
        mail = EmailDocument(body="first http://a.example/1 then https://b.example/2")
        assert extract_urls(mail) == ["http://a.example/1", "https://b.example/2"]

    def test_footer_hint_is_scanned(self):
        mail = EmailDocument(body="no links", footer_hint="sent via http://mailer.example/")
        assert extract_urls(mail) == ["http://mailer.example/"]


class TestRedirects:
    def test_unmapped_url_is_identity(self):
        assert unwrap_redirects("http://x.example/a", {}) == "http://x.example/a"

    def test_two_hop_chain(self):
        rm = {"a": "b", "b": "c"}
        assert unwrap_redirects("a", rm) == "c"

    def test_cycle_raises(self):
        rm = {"a": "b", "b": "a"}
        with pytest.raises(RedirectLoop):
            unwrap_redirects("a", rm)

    def test_depth_limit_stops_following(self):
        rm = {f"u{i}": f"u{i+1}" for i in range(10)}
        assert unwrap_redirects("u0", rm) == "u5"


class TestCanonicalize:
    def test_case_query_fragment_and_default_port(self):
        got = canonicalize("HTTP://Pills.Example:80/Buy?uid=abc#x")
        assert got == "http://pills.example/Buy"

    def test_trailing_slash_equivalence(self):
        assert canonicalize("https://a.example/") == canonicalize("https://a.example")

    def test_not_a_url(self):
        with pytest.raises(InvalidUrl):
            canonicalize("notaurl")

    def test_ftp_rejected(self):
        with pytest.raises(InvalidUrl):
            canonicalize("ftp://files.example/x")

    def test_non_default_port_kept(self):
        got = canonicalize("http://a.example:8080/shop")
        assert got == "http://a.example:8080/shop"
        assert hostname(got) == "a.example"

    def test_default_https_port_dropped(self):
        assert canonicalize("https://a.example:443/x") == "https://a.example/x"

    def test_userinfo_dropped(self):
        assert canonicalize("http://user:pw@a.example/x") == "http://a.example/x"

    @pytest.mark.parametrize("url", ["http://[oops/x", "http://[a.example]/x"])
    def test_bad_bracketed_host_rejected(self, url):
        with pytest.raises(InvalidUrl):
            canonicalize(url)

    def test_render_round_trip(self):
        url = canonicalize("http://a.example/shop/item")
        assert url == "http://a.example/shop/item"
        assert canonicalize(url) == url


# pieces for generated URLs: lowercase hosts, mixed-case paths, junk to strip
_hosts = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8),
    min_size=2,
    max_size=4,
).map(".".join)
_paths = st.lists(
    st.text(alphabet="abcdefABCDEF0123456789-_", min_size=1, max_size=6),
    max_size=4,
).map(lambda segs: "/" + "/".join(segs) if segs else "/")
# bracketed IPv6 hosts, with a default, another or no port
_ipv6_hosts = st.builds(
    "[{}]{}".format, st.ip_addresses(v=6), st.sampled_from(["", ":80", ":443", ":8080"])
)


@given(
    scheme=st.sampled_from(["http", "https", "HTTP", "Https"]),
    host=st.one_of(_hosts, _ipv6_hosts),
    path=_paths,
    query=st.sampled_from(["", "?a=1", "?uid=xyz&b=2"]),
    fragment=st.sampled_from(["", "#top"]),
    slash=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_canonicalize_idempotent(scheme, host, path, query, fragment, slash):
    raw = f"{scheme}://{host}{path}{'/' if slash and path != '/' else ''}{query}{fragment}"
    once = canonicalize(raw)
    assert canonicalize(once) == once


class TestWhitelist:
    def test_exact_and_subdomain_match(self):
        wl = {"gmx.de"}
        assert is_whitelisted(canonicalize("http://gmx.de/"), wl)
        assert is_whitelisted(canonicalize("http://www.gmx.de/"), wl)
        assert not is_whitelisted(canonicalize("http://notgmx.de/"), wl)

    def test_ipv6_host_match(self):
        wl = {"2001:db8::1"}
        assert is_whitelisted(canonicalize("http://[2001:DB8::1]/promo"), wl)
        assert is_whitelisted(canonicalize("https://[2001:db8::1]:8443/x"), wl)
        assert not is_whitelisted(canonicalize("http://[2001:db8::2]/promo"), wl)

    def test_hostname_cuts_only_the_port(self):
        assert hostname(canonicalize("https://a.example:8443/x:y")) == "a.example"
        assert hostname(canonicalize("http://[::1]:8080/x")) == "::1"
        assert hostname(canonicalize("http://[::1]/x")) == "::1"
        assert hostname(canonicalize("http://a.example/")) == "a.example"


class TestEvaluate:
    def test_provider_footer_host_is_dropped(self):
        mail = EmailDocument(body="This mail was sent by http://www.gmx.de/")
        assert evaluate(mail, {}, {"gmx.de"}) == []

    def test_single_target_survives(self):
        mail = EmailDocument(body="order http://pills.example/buy?uid=1 today")
        got = evaluate(mail, {}, set())
        assert got == ["http://pills.example/buy"]

    def test_whitelist_applies_after_unwrapping(self):
        # the short link itself is not whitelisted, its destination is
        mail = EmailDocument(body="click http://tiny.example/abc now")
        rm = {"http://tiny.example/abc": "http://www.gmx.de/promo"}
        assert evaluate(mail, rm, {"gmx.de"}) == []

    def test_variants_collapse_to_one_invocation(self):
        mail = EmailDocument(
            body="http://a.example/x?u=1 or http://A.EXAMPLE/x?u=2"
        )
        got = evaluate(mail, {}, set())
        assert got == ["http://a.example/x"]

    def test_broken_urls_are_dropped_not_fatal(self):
        mail = EmailDocument(body="see http://spam.example/ok and http://bad.example:99999/x")
        got = evaluate(mail, {}, set())
        assert got == ["http://spam.example/ok"]

    def test_whitelist_matches_the_host_without_its_port(self):
        mail = EmailDocument(
            body="see http://www.mail.example:8080/x and http://mail.example.evil:8080/x"
        )
        got = evaluate(mail, {}, {"mail.example"})
        assert got == ["http://mail.example.evil:8080/x"]

    def test_redirect_loop_dropped(self):
        mail = EmailDocument(body="go http://l.example/a")
        rm = {"http://l.example/a": "http://l.example/b",
              "http://l.example/b": "http://l.example/a"}
        assert evaluate(mail, rm, set()) == []


def test_evaluate_is_pure():
    mail = EmailDocument(body="order http://pills.example/buy?uid=1")
    args = (mail, {}, {"gmx.de"})
    assert evaluator.evaluate(*args) == evaluator.evaluate(*args)
