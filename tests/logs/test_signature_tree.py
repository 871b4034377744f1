"""Tests for repro.logs.signature_tree."""

import pytest
from hypothesis import given, strategies as st

from repro.logs.signature_tree import (
    WILDCARD,
    SignatureTree,
    _agreement,
    _matches,
    _merge,
    _presignature,
    is_variable_token,
    render_signature,
    tokenize,
)
from tests.conftest import make_message


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
