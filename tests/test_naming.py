import logging
import re
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustersweep.errors import (
    BackendUnavailable, ClusterSweepError, MalformedResponse, ParseError,
)
from clustersweep.naming import (
    DEFAULT_STOPWORDS,
    SAMPLE_TEXTS,
    TOP_WORDS,
    ClusterProfile,
    HttpBackend,
    build_prompt,
    load_emoji_map,
    load_name_table,
    load_stopwords,
    name_clusters,
    profile_cluster,
    sanitize_name,
    tokenize,
    write_name_table,
)

from conftest import make_partition


def profile(k=2, cluster=0, words=(("maga", 3), ("patriot", 2)), samples=("bio one",)):
    return ClusterProfile(k=k, cluster=cluster, top_words=tuple(words), sample_texts=tuple(samples))


def keyed(texts):
    """The texts and tokens of ``make_partition``'s ids "0", "1", ..., keyed by id."""
    ids = [str(i) for i in range(len(texts))]
    return dict(zip(ids, texts)), {i: tokenize(t) for i, t in zip(ids, texts)}


def per_member_loop(texts, membership, k, cluster, seed, stopwords, emoji_map):
    """The reference profile: ``texts`` by row, each member tokenized once per call."""
    members = membership.members(cluster)
    counts = Counter()
    for i in members:
        counts.update(tokenize(texts[i], stopwords, emoji_map))
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_WORDS]
    member_texts = [texts[i] for i in members]
    if len(member_texts) <= SAMPLE_TEXTS:
        sample = member_texts
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k, cluster)))
        chosen = np.sort(rng.choice(len(member_texts), size=SAMPLE_TEXTS, replace=False))
        sample = [member_texts[i] for i in chosen]
    return ClusterProfile(k=k, cluster=cluster, top_words=tuple(top), sample_texts=tuple(sample))


# Few words, so counts tie and clusters have fewer than TOP_WORDS of them: stopwords,
# non-ASCII words, emoji, Unicode punctuation (P*) alone and inside words, and "".
WORDS = ("apple", "zebra", "the", "and", "café", "naïve", "ÉCOLE", "straße", "日本",
         "\U0001f1fa\U0001f1f8", "\U0001f525", "don't", "«quote»", "¿qué?", "—", "...", "!", "")
EMOJI = {"\U0001f1fa\U0001f1f8": "us flag", "\U0001f525": "the"}  # "the" is a default stopword


@st.composite
def corpora(draw):
    """Texts by row, ids in a drawn order, labels with k, for ``per_member_loop``."""
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, 4))
    texts = [" ".join(draw(st.lists(st.sampled_from(WORDS), max_size=8))) for _ in range(n)]
    ids = draw(st.permutations([str(i) for i in range(n)]))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return texts, make_partition(labels, k=k, ids=ids)


class StubBackend:
    def __init__(self, names):
        self.names = list(names)
        self.prompts = []

    def generate(self, prompt):
        self.prompts.append(prompt)
        return self.names.pop(0)


class TestTokenize:
    def test_lowercase_punctuation_stopwords(self):
        toks = tokenize("The PATRIOT's flag, and #MAGA!")
        assert toks == ["patriots", "flag", "maga"]

    def test_emoji_map_applied_before_tokenizing(self):
        toks = tokenize("I vote \U0001f1fa\U0001f1f8 today", emoji_map={"\U0001f1fa\U0001f1f8": "us flag"})
        assert toks == ["vote", "us", "flag", "today"]

    def test_a_later_key_does_not_match_inside_an_earlier_replacement(self):
        toks = tokenize("on \U0001f525 today", emoji_map={"\U0001f525": "fire", "i": "eye"})
        assert toks == ["fire", "today"]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_the_longest_key_wins_whatever_the_key_order(self, reverse):
        keys = [("\U0001f1fa", "u"), ("\U0001f1fa\U0001f1f8", "usa")]
        emoji_map = dict(reversed(keys) if reverse else keys)
        assert tokenize("\U0001f1fa\U0001f1f8 fan", emoji_map=emoji_map) == ["usa", "fan"]

    def test_custom_stopwords(self):
        toks = tokenize("alpha beta gamma", stopwords=frozenset({"beta"}))
        assert toks == ["alpha", "gamma"]


class TestProfileCluster:
    def test_counts_direct(self):
        membership = make_partition([0], k=1)
        p = profile_cluster(*keyed(["maga patriot maga"]), membership, 1, 0, seed=0)
        assert p.top_words == (("maga", 2), ("patriot", 1))

    def test_small_cluster_keeps_all_texts(self):
        membership = make_partition([0, 0, 1], k=2)
        texts = ["first bio", "second bio", "other"]
        p = profile_cluster(*keyed(texts), membership, 2, 0, seed=0)
        assert p.sample_texts == ("first bio", "second bio")

    def test_count_ties_break_lexicographically(self):
        membership = make_partition([0], k=1)
        p = profile_cluster(*keyed(["zebra apple zebra apple banana"]), membership, 1, 0, seed=0)
        assert p.top_words[0] == ("apple", 2)
        assert p.top_words[1] == ("zebra", 2)
        assert p.top_words[2] == ("banana", 1)

    def test_sample_is_seeded_and_within_cluster(self):
        texts = [f"text {i}" for i in range(50)]
        membership = make_partition([0] * 40 + [1] * 10, k=2)
        p1 = profile_cluster(*keyed(texts), membership, 3, 0, seed=5)
        p2 = profile_cluster(*keyed(texts), membership, 3, 0, seed=5)
        assert p1.sample_texts == p2.sample_texts
        assert len(p1.sample_texts) == 20
        assert all(t in texts[:40] for t in p1.sample_texts)
        p3 = profile_cluster(*keyed(texts), membership, 3, 0, seed=6)
        assert p3.sample_texts != p1.sample_texts

    def test_empty_cluster(self):
        membership = make_partition([0, 0], k=2)
        with pytest.raises(ClusterSweepError, match="cluster 1 at K=2 has no members"):
            profile_cluster(*keyed(["a", "b"]), membership, 2, 1, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(corpus=corpora(), seed=st.integers(0, 3),
           stopwords=st.sampled_from([DEFAULT_STOPWORDS, frozenset({"apple", "café"}), frozenset()]),
           emoji_map=st.sampled_from([None, EMOJI]))
    def test_matches_the_per_member_tokenize_loop(self, corpus, seed, stopwords, emoji_map):
        texts, membership = corpus
        by_id = dict(zip(membership.ids, texts))
        tokens = {i: tokenize(text, stopwords, emoji_map) for i, text in by_id.items()}
        k = membership.k_declared
        for c in sorted(set(membership.labels.tolist())):
            assert profile_cluster(by_id, tokens, membership, k, c, seed) == per_member_loop(
                texts, membership, k, c, seed, stopwords, emoji_map
            )

    def test_top_n_caps_vocabulary(self):
        membership = make_partition([0], k=1)
        text = " ".join(f"word{i}" for i in range(30))
        p = profile_cluster(*keyed([text]), membership, 1, 0, seed=0)
        assert len(p.top_words) == 10


class TestBuildPrompt:
    def test_golden_template(self):
        p = ClusterProfile(
            k=2, cluster=0,
            top_words=(("maga", 3), ("patriot", 2)),
            sample_texts=("Proud American.", "Patriot and father."),
        )
        expected = (
            "Create a name for the following cluster of Twitter bios. "
            "It has the following top 10 most frequent words:\n"
            "maga, patriot\n"
            "And this is a random sample of Twitter bios from the cluster:\n"
            "1. Proud American.\n"
            "2. Patriot and father."
        )
        assert build_prompt(p) == expected

    def test_empty_words_line_keeps_structure(self):
        p = ClusterProfile(k=1, cluster=0, top_words=(), sample_texts=("a bio",))
        lines = build_prompt(p).split("\n")
        assert lines[1] == ""
        assert lines[2] == "And this is a random sample of Twitter bios from the cluster:"

    def test_twenty_samples_get_twenty_numbered_lines(self):
        p = ClusterProfile(
            k=1, cluster=0, top_words=(("w", 1),),
            sample_texts=tuple(f"bio {i}" for i in range(20)),
        )
        lines = build_prompt(p).split("\n")
        assert lines[3] == "1. bio 0"
        assert lines[-1] == "20. bio 19"
        assert len(lines) == 23

    def test_byte_stable(self):
        p = profile()
        assert build_prompt(p) == build_prompt(p)


class TestNameClusters:
    def test_fallback_rule(self):
        p = profile(words=(("maga", 5), ("patriot", 4), ("usa", 3), ("flag", 2)))
        out = name_clusters([p])
        assert out[0].raw_name == "maga patriot usa"
        assert out[0].unique_name == "maga patriot usa"
        assert out[0].backend == "fallback"

    def test_duplicate_names_suffixed(self):
        profiles = [profile(cluster=0), profile(cluster=1)]
        out = name_clusters(profiles, StubBackend(["Patriots", "Patriots"]))
        assert [a.unique_name for a in out] == ["Patriots", "Patriots 2"]

    def test_three_identical_names(self):
        profiles = [profile(cluster=c) for c in range(3)]
        out = name_clusters(profiles, StubBackend(["Same", "Same", "Same"]))
        assert [a.unique_name for a in out] == ["Same", "Same 2", "Same 3"]

    def test_suffix_collision_with_raw_name(self):
        profiles = [profile(cluster=c) for c in range(3)]
        out = name_clusters(profiles, StubBackend(["X", "X 2", "X"]))
        assert [a.unique_name for a in out] == ["X", "X 2", "X 3"]

    def test_empty_name_falls_back(self, caplog):
        p = profile(words=(("alpha", 2), ("beta", 1)))
        with caplog.at_level(logging.WARNING):
            out = name_clusters([p], StubBackend(["   "]))
        assert out[0].raw_name == "alpha beta"
        assert out[0].backend == "fallback"
        assert "fallback" in caplog.text

    def test_overlong_name_falls_back(self):
        p = profile()
        out = name_clusters([p], StubBackend(["x" * 200]))
        assert out[0].backend == "fallback"

    def test_sanitization(self):
        assert sanitize_name('  "Patriot\nVoices"  ') == "Patriot Voices"

    def test_fallback_deterministic(self):
        profiles = [profile(cluster=c, words=(("w" + str(c), 1),)) for c in range(4)]
        a = name_clusters(profiles)
        b = name_clusters(profiles)
        assert a == b

    def test_backend_unavailable_propagates(self):
        class DeadBackend:
            def generate(self, prompt):
                raise BackendUnavailable("down")

        with pytest.raises(BackendUnavailable):
            name_clusters([profile()], DeadBackend())
        out = name_clusters([profile()], DeadBackend(), fallback_on_error=True)
        assert out[0].backend == "fallback"

    def test_prompt_passed_to_backend(self):
        stub = StubBackend(["Name"])
        p = profile()
        name_clusters([p], stub)
        assert stub.prompts == [build_prompt(p)]


class TestHttpBackend:
    def test_posts_prompt_and_extracts_path(self, monkeypatch):
        captured = {}

        class FakeResponse:
            status_code = 200

            def json(self):
                return {"choices": [{"text": "  Political Bios  "}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

        monkeypatch.setattr("requests.post", fake_post)
        backend = HttpBackend("https://svc.example/name", model="m1",
                              response_path="choices.0.text")
        raw = backend.generate("PROMPT")
        assert raw == "  Political Bios  "
        assert captured["url"] == "https://svc.example/name"
        assert captured["payload"] == {"prompt": "PROMPT", "model": "m1"}
        assert captured["timeout"] == 30.0

    def test_auth_token_from_environment(self, monkeypatch):
        captured = {}

        class FakeResponse:
            status_code = 200

            def json(self):
                return {"name": "x"}

        monkeypatch.setenv("CLUSTERSWEEP_API_TOKEN", "sekret")
        monkeypatch.setattr(
            "requests.post",
            lambda url, json=None, headers=None, timeout=None: (
                captured.update(headers=headers),
                FakeResponse(),
            )[1],
        )
        HttpBackend("https://svc.example").generate("p")
        assert captured["headers"]["Authorization"] == "Bearer sekret"

    def test_retries_then_unavailable(self, monkeypatch):
        import requests as requests_module

        calls = {"n": 0}

        def failing_post(*args, **kwargs):
            calls["n"] += 1
            raise requests_module.ConnectionError("refused")

        monkeypatch.setattr("requests.post", failing_post)
        sleeps = []
        monkeypatch.setattr("clustersweep.naming.time.sleep", sleeps.append)
        backend = HttpBackend("https://svc.example")
        with pytest.raises(BackendUnavailable):
            backend.generate("p")
        assert calls["n"] == 3
        assert sleeps == [1.0, 2.0]

    def test_missing_field_is_malformed(self, monkeypatch):
        class FakeResponse:
            status_code = 200

            def json(self):
                return {"other": "x"}

        monkeypatch.setattr(
            "requests.post",
            lambda *a, **kw: FakeResponse(),
        )
        with pytest.raises(MalformedResponse):
            HttpBackend("https://svc.example", response_path="name").generate("p")


class TestHttpBackendOnLoopback:
    """HttpBackend against a real HTTP server: 3 attempts, 1 s then 2 s apart."""

    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr("clustersweep.naming.time", SimpleNamespace(sleep=slept.append))
        return slept

    def test_server_error_then_success(self, http_stub, sleeps):
        http_stub.replies = [(503, b"busy"), (200, b'{"name": "Patriots"}')]
        assert HttpBackend(http_stub.url, model="m1").generate("P") == "Patriots"
        assert http_stub.posts == [{"prompt": "P", "model": "m1"}] * 2
        assert sleeps == [1.0]

    def test_client_error_is_not_retried(self, http_stub, sleeps):
        http_stub.replies = [(404, b"{}")]
        with pytest.raises(BackendUnavailable, match="status 404"):
            HttpBackend(http_stub.url).generate("P")
        assert len(http_stub.posts) == 1 and sleeps == []

    def test_timeout_is_retried(self, http_stub, sleeps, monkeypatch):
        monkeypatch.setattr("clustersweep.naming.TIMEOUT_S", 0.2)
        http_stub.replies = [(None, b"")]
        with pytest.raises(BackendUnavailable, match="after 3 attempts"):
            HttpBackend(http_stub.url).generate("P")
        assert sleeps == [1.0, 2.0]
        # The server may still be reading the last request when the client gives up.
        deadline = time.monotonic() + 10
        while len(http_stub.posts) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(http_stub.posts) == 3

    def test_non_json_body_is_retried(self, http_stub, sleeps):
        http_stub.replies = [(200, b"<html>name</html>")]
        with pytest.raises(BackendUnavailable, match="after 3 attempts"):
            HttpBackend(http_stub.url).generate("P")
        assert len(http_stub.posts) == 3 and sleeps == [1.0, 2.0]

    def test_wrong_response_path_is_malformed_at_once(self, http_stub, sleeps):
        http_stub.replies = [(200, b'{"name": "Patriots"}')]
        backend = HttpBackend(http_stub.url, response_path="choices.0.text")
        with pytest.raises(MalformedResponse, match="choices.0.text"):
            backend.generate("P")
        assert len(http_stub.posts) == 1 and sleeps == []
        out = name_clusters([profile(cluster=0), profile(cluster=1)], backend)
        assert [(a.raw_name, a.backend) for a in out] == [("maga patriot", "fallback")] * 2


class TestNameTableIO:
    def test_round_trip(self, tmp_path):
        profiles = [profile(k=3, cluster=c) for c in range(2)]
        out = name_clusters(profiles, StubBackend(["A, with comma", "A, with comma"]))
        write_name_table(out, tmp_path / "names.csv")
        table = load_name_table(tmp_path / "names.csv")
        assert table[(3, 0)] == "A, with comma"
        assert table[(3, 1)] == "A, with comma 2"

    def test_rejects_bad_header(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            load_name_table(tmp_path / "bad.csv")

    @pytest.mark.parametrize("row", ["x,0,5,foo", "3,c1,5,foo", "3,,5,foo"])
    def test_non_integer_k_or_cluster_names_the_row(self, tmp_path, row):
        path = tmp_path / "names.csv"
        path.write_text(f"k,cluster,raw_name,unique_name,backend\n3,0,a,a,fallback\n{row}\n")
        with pytest.raises(ParseError, match=r"names\.csv: row 1: k and cluster must be integers"):
            load_name_table(path)

    def test_non_utf8_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "names.csv"
        path.write_bytes(b"k,cluster,raw_name,unique_name,backend\n3,0,a\xff,a\xff,fallback\n")
        with pytest.raises(ParseError, match=r"names\.csv: not UTF-8"):
            load_name_table(path)


class TestConfigFiles:
    def test_load_stopwords(self, tmp_path):
        (tmp_path / "stop.txt").write_text("The\nand\n\nof\n")
        words = load_stopwords(tmp_path / "stop.txt")
        assert words == frozenset({"the", "and", "of"})

    def test_load_emoji_map(self, tmp_path):
        (tmp_path / "emoji.json").write_text('{"\\ud83d\\ude00": "grin"}')
        mapping = load_emoji_map(tmp_path / "emoji.json")
        assert mapping == {"\U0001f600": "grin"}

    def test_emoji_map_must_be_string_object(self, tmp_path):
        (tmp_path / "emoji.json").write_text('{"a": 3}')
        with pytest.raises(ParseError):
            load_emoji_map(tmp_path / "emoji.json")

    def test_emoji_map_with_an_empty_key_names_the_file(self, tmp_path):
        # tokenize would put an empty key's replacement between every two characters.
        path = tmp_path / "emoji.json"
        path.write_text('{"\\ud83d\\ude00": "grin", "": "x"}', encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}: emoji map must be")):
            load_emoji_map(path)

    def test_emoji_map_with_a_whitespace_key_names_the_file(self, tmp_path):
        # One pass would still put a " " key's replacement between every two words.
        path = tmp_path / "emoji.json"
        path.write_text('{" ": "x"}', encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}: emoji map must be")):
            load_emoji_map(path)
