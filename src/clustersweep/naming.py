"""Cluster naming: frequency profiles, prompt construction, backend clients.

A cluster is profiled by its most frequent tokens (after lowercasing,
punctuation stripping, and stopword removal) plus a seeded random sample of
member texts. The profile becomes a fixed prompt for an external
text-completion service; a deterministic offline fallback names a cluster by
joining its top three words. Duplicate names within one resolution get " 2",
" 3", ... suffixes in profile order.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import os
import re
import threading
import time
import unicodedata
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data import Partition, read_csv_rows, read_text, write_text
from .errors import BackendUnavailable, ClusterSweepError, MalformedResponse, ParseError

logger = logging.getLogger(__name__)

MAX_NAME_LENGTH = 120

# A profile's top words and sampled member texts; the prompt quotes TOP_WORDS.
TOP_WORDS = 10
SAMPLE_TEXTS = 20

# Concurrent requests to an external backend.
MAX_IN_FLIGHT = 4

# Each request's timeout, the attempts per name, and the first retry delay,
# doubled on every further retry.
TIMEOUT_S = 30.0
RETRIES = 3
BACKOFF_S = 1.0

# Compact English stopword list; override with a file for other domains.
DEFAULT_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are arent as at be
    because been before being below between both but by cant cannot could
    couldnt did didnt do does doesnt doing dont down during each few for from
    further had hadnt has hasnt have havent having he her here hers herself
    him himself his how i if in into is isnt it its itself just me more most
    my myself no nor not of off on once only or other our ours ourselves out
    over own same she should shouldnt so some such than that the their theirs
    them themselves then there these they this those through to too under
    until up very was wasnt we were werent what when where which while who
    whom why will with wont would wouldnt you your yours yourself yourselves
    """.split()
)


@dataclass(frozen=True)
class ClusterProfile:
    """Top tokens (with counts) and sampled member texts for one cluster."""

    k: int
    cluster: int
    top_words: tuple[tuple[str, int], ...]
    sample_texts: tuple[str, ...]


@dataclass(frozen=True)
class NameAssignment:
    k: int
    cluster: int
    raw_name: str
    unique_name: str
    backend: str


@functools.lru_cache(maxsize=8)
def _emoji_pattern(keys: tuple[str, ...]) -> re.Pattern:
    """The keys as one alternation, longest first: one pass, whatever the keys' order."""
    return re.compile("|".join(map(re.escape, sorted(keys, key=len, reverse=True))))


def tokenize(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS,
             emoji_map: dict[str, str] | None = None) -> list[str]:
    """Lowercase, strip Unicode punctuation, split on whitespace, drop stopwords."""
    if emoji_map:
        text = _emoji_pattern(tuple(emoji_map)).sub(lambda m: f" {emoji_map[m[0]]} ", text)
    text = text.lower()
    text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("P"))
    return [tok for tok in text.split() if tok and tok not in stopwords]


def profile_cluster(
    texts: dict[str, str],
    tokens: dict[str, list[str]],
    membership: Partition,
    k: int,
    cluster: int,
    seed: int,
) -> ClusterProfile:
    """Count a cluster's tokens and draw a seeded sample of its texts.

    ``texts`` and ``tokens`` map each id of ``membership`` to its text and to
    that text's ``tokenize`` list. Keeps the TOP_WORDS most frequent tokens and
    samples SAMPLE_TEXTS member texts (all of them if there are fewer). Top
    words are ordered by descending count, ties lexicographically. The sample
    seed mixes (seed, k, cluster) so different clusters draw independently.

    Raises:
        ClusterSweepError: if the cluster has no members.
    """
    members = [membership.ids[i] for i in membership.members(cluster)]
    if not members:
        raise ClusterSweepError(f"cluster {cluster} at K={k} has no members")

    counts = Counter(chain.from_iterable(tokens[i] for i in members))
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_WORDS]

    member_texts = [texts[i] for i in members]
    if len(member_texts) <= SAMPLE_TEXTS:
        sample = member_texts
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k, cluster)))
        chosen = np.sort(rng.choice(len(member_texts), size=SAMPLE_TEXTS, replace=False))
        sample = [member_texts[i] for i in chosen]
    return ClusterProfile(
        k=k, cluster=cluster, top_words=tuple(top), sample_texts=tuple(sample)
    )


def build_prompt(profile: ClusterProfile) -> str:
    """Byte-stable naming prompt for one cluster profile."""
    lines = [
        "Create a name for the following cluster of Twitter bios. "
        f"It has the following top {TOP_WORDS} most frequent words:",
        ", ".join(word for word, _ in profile.top_words),
        "And this is a random sample of Twitter bios from the cluster:",
    ]
    lines.extend(f"{i}. {text}" for i, text in enumerate(profile.sample_texts, start=1))
    return "\n".join(lines)


def fallback_name(profile: ClusterProfile) -> str:
    return " ".join(word for word, _ in profile.top_words[:3])


@dataclass(frozen=True)
class HttpBackend:
    """Text-completion client posting {"prompt": ...} to a configurable endpoint.

    The response is JSON; ``response_path`` walks to its text field with
    dot-separated keys (integers index into lists). The auth token, when the
    environment variable named by ``token_env`` is set, is sent as a Bearer
    header.
    """

    url: str
    model: str | None = None
    response_path: str = "name"
    token_env: str = "CLUSTERSWEEP_API_TOKEN"

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _extract(self, doc) -> str:
        value = doc
        for step in self.response_path.split("."):
            try:
                value = value[int(step)] if isinstance(value, list) else value[step]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise MalformedResponse(
                    f"response has no field at path {self.response_path!r}"
                ) from exc
        if not isinstance(value, str):
            raise MalformedResponse(f"field {self.response_path!r} is not text")
        return value

    def generate(self, prompt: str) -> str:
        # Imported here: offline runs need not load requests.
        import requests

        payload = {"prompt": prompt}
        if self.model:
            payload["model"] = self.model
        last_error: Exception | None = None
        for attempt in range(RETRIES):
            try:
                resp = requests.post(
                    self.url, json=payload, headers=self._headers(), timeout=TIMEOUT_S
                )
                if resp.status_code >= 500:
                    raise requests.RequestException(f"server error {resp.status_code}")
                if resp.status_code != 200:
                    raise BackendUnavailable(
                        f"backend returned status {resp.status_code}"
                    )
                return self._extract(resp.json())
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                if attempt + 1 < RETRIES:
                    time.sleep(BACKOFF_S * 2**attempt)
        raise BackendUnavailable(f"backend unreachable after {RETRIES} attempts: {last_error}")


def sanitize_name(raw: str) -> str:
    """Trim whitespace and wrapping quotes, collapse newlines to spaces."""
    name = re.sub(r"\s*\n+\s*", " ", raw)
    return name.strip().strip("\"'").strip()


def name_clusters(
    profiles: list[ClusterProfile],
    backend: HttpBackend | None = None,
    fallback_on_error: bool = False,
) -> list[NameAssignment]:
    """Name every profile, then disambiguate duplicates within the batch.

    With no backend, each profile gets the offline rule's name. A backend is
    asked for every name, MAX_IN_FLIGHT at a time; an empty or over-long name
    falls back to the offline rule for that cluster (logged), and so does an
    unreachable backend if ``fallback_on_error``, instead of raising.

    Raises:
        BackendUnavailable: if the backend stays unreachable and
            ``fallback_on_error`` is false. No cluster starts posting after that.
    """
    # Set at the first unavailable backend. A worker that frees up takes the
    # next queued cluster before the caller sees the error, so each checks this.
    unavailable = threading.Event()

    def one(profile: ClusterProfile) -> tuple[str, str] | None:
        if unavailable.is_set():
            return None  # the run fails with an earlier cluster's error
        try:
            raw = sanitize_name(backend.generate(build_prompt(profile)))
        except MalformedResponse as exc:
            reason = f"malformed backend response ({exc})"
        except BackendUnavailable:
            if not fallback_on_error:
                unavailable.set()
                raise
            reason = "backend unavailable"
        else:
            if raw and len(raw) <= MAX_NAME_LENGTH:
                return raw, "external"
            reason = f"unusable backend name ({len(raw)} chars)"
        logger.warning("K=%d cluster %d: %s; using fallback", profile.k, profile.cluster, reason)
        return fallback_name(profile), "fallback"

    if backend is None:
        named = [(fallback_name(p), "fallback") for p in profiles]
    else:
        with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
            named = list(pool.map(one, profiles))

    # In profile order, each name takes the lowest free suffix.
    taken: set[str] = set()
    assignments = []
    for profile, (raw, kind) in zip(profiles, named):
        unique, suffix = raw, 1
        while unique in taken:
            suffix += 1
            unique = f"{raw} {suffix}"
        taken.add(unique)
        assignments.append(
            NameAssignment(
                k=profile.k,
                cluster=profile.cluster,
                raw_name=raw,
                unique_name=unique,
                backend=kind,
            )
        )
    return assignments


def write_name_table(assignments: list[NameAssignment], path: str | Path) -> None:
    """CSV name table: k,cluster,raw_name,unique_name,backend."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["k", "cluster", "raw_name", "unique_name", "backend"])
    writer.writerows([a.k, a.cluster, a.raw_name, a.unique_name, a.backend] for a in assignments)
    write_text(path, buffer.getvalue())


def load_name_table(path: str | Path) -> dict[tuple[int, int], str]:
    """Read a name table back as a (k, cluster) -> unique_name map."""
    names: dict[tuple[int, int], str] = {}
    rows = read_csv_rows(path)
    if not rows or rows[0][:2] != ["k", "cluster"]:
        raise ParseError(f"{path}: not a name table (bad header)")
    for r, row in enumerate(rows[1:]):
        if len(row) < 4:
            raise ParseError(f"{path}: row {r}: short name-table row: {row!r}")
        try:
            names[(int(row[0]), int(row[1]))] = row[3]
        except ValueError:
            raise ParseError(f"{path}: row {r}: k and cluster must be integers: {row!r}") from None
    return names


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One stopword per line; blank lines ignored."""
    words = (line.strip().lower() for line in read_text(path).splitlines())
    return frozenset(word for word in words if word)


def load_emoji_map(path: str | Path) -> dict[str, str]:
    """JSON object mapping emoji strings to replacement names."""
    try:
        doc = json.loads(read_text(path))
    except ValueError as exc:
        raise ParseError(f"{path}: invalid emoji map JSON: {exc}") from exc
    if not isinstance(doc, dict) or not all(
        isinstance(k, str) and k.strip() and isinstance(v, str) for k, v in doc.items()
    ):
        raise ParseError(f"{path}: emoji map must be a string-to-string object with no blank key")
    return doc
