"""Turns spam email text into campaign target URLs.

Pipeline: pull http(s) URLs out of the message, follow known redirector
mappings (short-link services hide the real target), canonicalize so every
client derives byte-identical URLs from personalized spam, and drop
whitelisted hosts (mail providers whose footers appear in every message).
Whether the user confirms what is left is the scenario's `confirm_policy`.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NewType

from urllib.parse import urlsplit

log = logging.getLogger(__name__)

MAX_REDIRECT_DEPTH = 5  # redirector hops followed before giving up

# Sentence punctuation that email prose glues onto URLs.
_TRAILING_PUNCTUATION = ".,!;"

_URL_RE = re.compile(r"https?://[^\s<>\"']+", re.IGNORECASE)

_DEFAULT_PORTS = {"http": 80, "https": 443}


class InvalidUrl(Exception):
    """Not a syntactically valid http(s) URL."""


class RedirectLoop(Exception):
    """Redirector mapping cycles back on itself."""


@dataclass(frozen=True)
class EmailDocument:
    """Plain-text spam message, already classified as spam upstream."""

    body: str
    footer_hint: str | None = None


# Parameter-free URL identity shared by all clients: "scheme://host/path",
# where host keeps an explicit ":port" only for non-default ports, and an
# IPv6 address keeps its brackets.
CanonicalUrl = NewType("CanonicalUrl", str)


def extract_urls(mail: EmailDocument) -> list[str]:
    """All http(s) URLs in the message, in order, deduplicated."""
    text = mail.body if mail.footer_hint is None else f"{mail.body}\n{mail.footer_hint}"
    found = []
    for match in _URL_RE.finditer(text):
        url = match.group(0).rstrip(_TRAILING_PUNCTUATION)
        if url:
            found.append(url)
    return list(dict.fromkeys(found))


def unwrap_redirects(url: str, redirects: dict[str, str]) -> str:
    """Follow the mapping until an unmapped URL or MAX_REDIRECT_DEPTH hops."""
    seen = {url}
    current = url
    for _ in range(MAX_REDIRECT_DEPTH):
        nxt = redirects.get(current)
        if nxt is None:
            return current
        if nxt in seen:
            raise RedirectLoop(f"redirect cycle at {nxt!r}")
        seen.add(nxt)
        current = nxt
    return current


def canonicalize(url: str) -> CanonicalUrl:
    """Strip everything that varies per recipient: query, fragment, userinfo,
    default port, trailing slash, and letter case in scheme/host."""
    try:
        parts = urlsplit(url)
    except ValueError as exc:  # an unbalanced or invalid bracketed host
        raise InvalidUrl(f"bad host in {url!r}") from exc
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise InvalidUrl(f"unsupported scheme in {url!r}")
    host = parts.hostname  # urlsplit lowercases and drops userinfo
    if not host:
        raise InvalidUrl(f"missing host in {url!r}")
    if not host.isascii():
        raise InvalidUrl(f"non-ASCII host in {url!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise InvalidUrl(f"bad port in {url!r}") from exc
    if ":" in host:  # an IPv6 address, which urlsplit unbracketed
        host = f"[{host}]"
    if port is not None and port != _DEFAULT_PORTS[scheme]:
        host = f"{host}:{port}"
    path = parts.path.rstrip("/") or "/"
    return CanonicalUrl(f"{scheme}://{host}{path}")


def hostname(url: CanonicalUrl) -> str:
    """The host of a canonical URL, without its port or an IPv6 address's brackets."""
    host = url.split("://", 1)[1].split("/", 1)[0]
    if host.startswith("["):
        return host[1:].split("]", 1)[0]
    return host.split(":", 1)[0]


def is_whitelisted(url: CanonicalUrl, whitelist: Iterable[str]) -> bool:
    """Exact host match or subdomain of any whitelisted suffix."""
    host = hostname(url)
    return any(host == entry or host.endswith("." + entry) for entry in whitelist)


def evaluate(
    mail: EmailDocument,
    redirects: dict[str, str],
    whitelist: Iterable[str],
) -> list[CanonicalUrl]:
    """Extract, unwrap, canonicalize, filter. Per-URL failures are dropped.

    Each returned URL is meant to trigger exactly one campaign-coordination
    pass, so duplicates collapsing under canonicalization appear once.
    """
    results: list[CanonicalUrl] = []
    seen: set[CanonicalUrl] = set()
    for raw in extract_urls(mail):
        try:
            unwrapped = unwrap_redirects(raw, redirects)
            canonical = canonicalize(unwrapped)
        except (RedirectLoop, InvalidUrl) as exc:
            log.debug("dropping %r: %s", raw, exc)
            continue
        if canonical in seen:
            continue
        seen.add(canonical)
        if is_whitelisted(canonical, whitelist):
            log.debug("dropping %s: whitelisted", canonical)
            continue
        results.append(canonical)
    return results
