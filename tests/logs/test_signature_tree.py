"""Tests for repro.logs.signature_tree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logs import signature_tree
from repro.logs.signature_tree import (
    WILDCARD,
    _VARIABLE_PATTERNS,
    SignatureTree,
    _agreement,
    _matches,
    _merge,
    _presignature,
    is_variable_token,
    render_signature,
    tokenize,
)
from repro.logs.templates import TemplateStore
from tests.conftest import make_message

#: Pieces of the five variable shapes and their near misses: ASCII and
#: Unicode digits, separators, the hex prefix, interface prefixes and
#: duration units.
TOKEN_PIECES = (
    "0", "7", "12", "255", "1000", "\u0663", "\uff15", "\u09ed",
    ".", ":", "/", "%", "-", "0x", "x", "a", "F", "g",
    "ge", "xe", "et", "ae", "lo", "irb", "fxp",
    "ms", "s", "us", "\n", " ",
)


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("a b  c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_kept(self):
        assert tokenize("peer 10.0.0.1, down") == [
            "peer", "10.0.0.1,", "down",
        ]


class TestVariableTokens:
    @pytest.mark.parametrize(
        "token",
        [
            "12345",
            "10.0.0.1",
            "10.0.0.1:179",
            "0xdeadbeef",
            "ge-0/0/1",
            "ge-0/0/1.100",
            "150ms",
            "99%",
        ],
    )
    def test_variable(self, token):
        assert is_variable_token(token)

    @pytest.mark.parametrize(
        "token", ["BGP_KEEPALIVE:", "peer", "down", "rpd"]
    )
    def test_stable(self, token):
        assert not is_variable_token(token)

    @pytest.mark.parametrize(
        "token, variable",
        [("12\n", True), ("10.0.0.1\n", True), ("12\n\n", False),
         ("\n12", False), ("12 ", False)],
    )
    def test_trailing_newline_as_each_pattern(self, token, variable):
        """``$`` also matches before one final newline, in the one
        regex as in each of the five."""
        assert is_variable_token(token) is variable

    @settings(max_examples=400)
    @given(
        st.one_of(
            st.text(max_size=12),
            st.lists(st.sampled_from(TOKEN_PIECES), max_size=8).map(
                "".join
            ),
        ),
        st.booleans(),
    )
    def test_one_regex_equals_the_five_patterns(self, token, newline):
        token += "\n" if newline else ""
        assert is_variable_token(token) == any(
            pattern.match(token) for pattern in _VARIABLE_PATTERNS
        )

    def test_cache_keeps_only_the_stable_vocabulary(self, monkeypatch):
        """Mining caches no number or address, and matching (which
        classifies tokens only after a dispatch miss) adds nothing: the
        cache ends at the stable tokens alone."""
        monkeypatch.setattr(signature_tree, "_STABLE_TOKENS", {})
        messages = [
            make_message(
                text=f"BGP_UPDATE: peer 10.{i >> 8}.{i & 255}.1 sent {i} "
                f"prefixes in {i}ms"
            )
            for i in range(20_000)
        ]
        store = TemplateStore().fit(messages[:10])
        ids = store.match_ids(messages)
        assert set(ids.tolist()) == {1}
        assert sorted(signature_tree._STABLE_TOKENS) == [
            "BGP_UPDATE:", "in", "peer", "prefixes", "sent",
        ]


class TestSignatureAlgebra:
    def test_agreement_identical(self):
        assert _agreement(("a", "b"), ("a", "b")) == 1.0

    def test_agreement_wildcard_counts(self):
        assert _agreement((WILDCARD, "b"), ("x", "b")) == 1.0

    def test_agreement_partial(self):
        assert _agreement(("a", "b"), ("a", "c")) == 0.5

    def test_agreement_length_mismatch(self):
        with pytest.raises(ValueError):
            _agreement(("a",), ("a", "b"))

    def test_merge_wildcards_disagreement(self):
        assert _merge(("a", "b"), ("a", "c")) == ("a", WILDCARD)

    def test_matches_respects_wildcard(self):
        assert _matches(("a", WILDCARD), ("a", "anything"))
        assert not _matches(("a", WILDCARD), ("b", "anything"))


class TestSignatureTree:
    def test_same_template_same_signature(self):
        tree = SignatureTree()
        first = tree.insert(make_message(
            text="BGP_KEEPALIVE: keepalive received from peer 10.0.0.1"
        ))
        second = tree.insert(make_message(
            text="BGP_KEEPALIVE: keepalive received from peer 10.9.9.9"
        ))
        assert first == second
        assert tree.n_signatures == 1

    def test_variable_positions_wildcarded(self):
        tree = SignatureTree()
        signature = tree.insert(make_message(
            text="OSPF_SPF: SPF computation completed in 15 ms"
        ))
        assert WILDCARD in signature
        assert "OSPF_SPF:" in signature

    def test_different_processes_not_merged(self):
        tree = SignatureTree()
        tree.insert(make_message(process="rpd", text="STATUS: ok ok"))
        tree.insert(make_message(process="snmpd", text="STATUS: ok ok"))
        assert tree.n_signatures == 2

    def test_different_token_counts_not_merged(self):
        tree = SignatureTree()
        tree.insert(make_message(text="LINK: up"))
        tree.insert(make_message(text="LINK: up now"))
        assert tree.n_signatures == 2

    def test_near_duplicates_merge_into_wildcard(self):
        tree = SignatureTree(merge_threshold=0.7)
        tree.insert(make_message(text="SESSION: peer alpha established ok"))
        tree.insert(make_message(text="SESSION: peer beta established ok"))
        assert tree.n_signatures == 1
        (_, signature, support), = tree.signatures()
        assert support == 2
        assert signature[2] is WILDCARD

    def test_dissimilar_messages_stay_separate(self):
        tree = SignatureTree(merge_threshold=0.7)
        tree.insert(make_message(text="AAA BBB CCC DDD"))
        tree.insert(make_message(text="WWW XXX YYY ZZZ"))
        assert tree.n_signatures == 2

    def test_lookup_without_mutation(self):
        tree = SignatureTree()
        message = make_message(text="LINK: up on port 7")
        presig = _presignature(tokenize(message.text))
        assert tree.lookup_presig(message.process, presig) is None
        tree.insert(message)
        assert tree.lookup_presig(message.process, presig) is not None
        assert tree.n_signatures == 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SignatureTree(merge_threshold=0.0)
        with pytest.raises(ValueError):
            SignatureTree(merge_threshold=1.5)

    def test_supports_accumulate(self):
        tree = SignatureTree()
        for _ in range(5):
            tree.insert(make_message(text="NTP: sync ok"))
        (_, _, support), = tree.signatures()
        assert support == 5

    @given(
        st.lists(
            st.integers(min_value=0, max_value=9999),
            min_size=1,
            max_size=30,
        )
    )
    def test_numeric_variants_always_one_signature(self, numbers):
        """Any number of numeric variants of one template mine to one
        signature — numbers are variable by shape."""
        tree = SignatureTree()
        for number in numbers:
            tree.insert(make_message(
                text=f"FW_MATCH: filter matched {number} packets"
            ))
        assert tree.n_signatures == 1


class TestRenderSignature:
    def test_render(self):
        assert render_signature(("A", WILDCARD, "B")) == "A <*> B"
