"""Tests for repro.logs.templates."""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.persistence import store_from_json, store_to_json
from repro.logs.signature_tree import _presignature, tokenize
from repro.logs.templates import UNKNOWN_TEMPLATE_ID, TemplateStore
from tests.conftest import make_message

#: The serialized form of a wildcard (``repro.logs.persistence``).
WILD = "\x00wildcard\x00"


def presignature_walk(store, message):
    """The id the signature tree gives ``message`` through its
    presignature: the match path the dispatch map replaced."""
    signature = store._tree.lookup_presig(
        message.process, _presignature(tokenize(message.text))
    )
    if signature is None:
        return UNKNOWN_TEMPLATE_ID
    return store._index.get(
        (message.process, signature), UNKNOWN_TEMPLATE_ID
    )


def hand_written(*signatures, process="rpd"):
    """A store loaded from JSON whose templates are ``signatures``, in
    id order, each a token list with :data:`WILD` wildcards."""
    return store_from_json(json.dumps({
        "version": 1,
        "merge_threshold": 0.7,
        "templates": [
            {"id": i, "process": process, "support": 1, "signature": list(s)}
            for i, s in enumerate(signatures, start=1)
        ],
    }))


def corpus():
    texts = [
        "BGP_KEEPALIVE: keepalive received from peer 10.0.0.1",
        "BGP_KEEPALIVE: keepalive received from peer 10.0.0.2",
        "OSPF_HELLO: hello from neighbor 10.1.1.1 on ge-0/0/1",
        "NTP_SYNC: clock synchronized to 10.2.2.2 offset 12 ms",
    ]
    return [make_message(text=text) for text in texts]


class TestFit:
    def test_vocabulary_counts_unknown_slot(self):
        store = TemplateStore().fit(corpus())
        # 3 distinct templates + the unknown id
        assert store.vocabulary_size == 4

    def test_match_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TemplateStore().match(make_message())

    def test_ids_are_dense_and_start_at_one(self):
        store = TemplateStore().fit(corpus())
        ids = sorted(t.template_id for t in store.templates())
        assert ids == [1, 2, 3]

    def test_refit_restarts(self):
        store = TemplateStore().fit(corpus())
        store.fit([make_message(text="ONLY: one template here")])
        assert store.vocabulary_size == 2


class TestMatch:
    def test_known_message_gets_nonzero_id(self):
        store = TemplateStore().fit(corpus())
        assert store.match(corpus()[0]) >= 1

    def test_variants_share_id(self):
        store = TemplateStore().fit(corpus())
        first = store.match(make_message(
            text="BGP_KEEPALIVE: keepalive received from peer 10.5.5.5"
        ))
        second = store.match(corpus()[0])
        assert first == second

    def test_unknown_message_maps_to_zero(self):
        store = TemplateStore().fit(corpus())
        unknown = make_message(
            text="TOTALLY_NEW: never seen before message shape here"
        )
        assert store.match(unknown) == UNKNOWN_TEMPLATE_ID


class TestExtend:
    def test_extend_preserves_existing_ids(self):
        store = TemplateStore().fit(corpus())
        before = {
            t.render(): t.template_id for t in store.templates()
        }
        added = store.extend([
            make_message(text="NEW_EVENT: something different entirely")
        ])
        assert added == 1
        after = {t.render(): t.template_id for t in store.templates()}
        for rendered, template_id in before.items():
            assert after[rendered] == template_id

    def test_extended_template_becomes_known(self):
        store = TemplateStore().fit(corpus())
        novel = make_message(text="NEW_EVENT: something quite different")
        assert store.match(novel) == UNKNOWN_TEMPLATE_ID
        store.extend([novel])
        assert store.match(novel) >= 1

    def test_extend_before_fit_acts_as_fit(self):
        store = TemplateStore()
        store.extend(corpus())
        assert store.fitted
        assert store.vocabulary_size == 4


class TestMemo:
    """The dispatch map, which replaced the match memo, against the
    presignature walk it replaced (the class keeps its name so the
    test ids carry over)."""

    def test_memoized_match_agrees_with_uncached(self):
        store = TemplateStore().fit(corpus())
        stream = corpus() * 3 + [
            make_message(
                text="BGP_KEEPALIVE: keepalive received from peer 10.9.9.9"
            )
        ]
        assert [store.match(m) for m in stream] == [
            presignature_walk(store, m) for m in stream
        ]
        hits, misses = store.memo_stats
        assert (hits, misses) == (len(stream), 0)

    def test_verbatim_rematch_after_extend(self):
        store = TemplateStore().fit(corpus())
        novel = make_message(text="NEW_EVENT: counter 1 rolled over")
        assert store.match(novel) == UNKNOWN_TEMPLATE_ID
        assert store.match(novel) == UNKNOWN_TEMPLATE_ID
        store.extend([novel])
        # extend rebuilds the map, so the text now finds its template.
        assert store.match(novel) >= 1

    def test_presig_memo_dropped_by_extend(self):
        store = TemplateStore().fit(corpus())
        assert store.match(
            make_message(text="NEW_EVENT: counter 1 rolled over")
        ) == UNKNOWN_TEMPLATE_ID
        store.extend(
            [make_message(text="NEW_EVENT: counter 2 rolled over")]
        )
        # Another variant of the mined shape matches through the
        # rebuilt map.
        assert store.match(
            make_message(text="NEW_EVENT: counter 3 rolled over")
        ) >= 1

    def test_cached_transform_equals_uncached_across_extend(self):
        store = TemplateStore().fit(corpus())
        novel = [
            make_message(text="LINK_FLAP: interface ge-0/0/3 down 10 ms"),
            make_message(text="LINK_FLAP: interface ge-0/0/7 down 25 ms"),
        ]
        stream = corpus() + novel + corpus()
        store.transform(stream)
        store.extend(novel)
        got = [m.template_id for m in store.transform(stream)]
        assert got == [presignature_walk(store, m) for m in stream]
        assert all(tid >= 1 for tid in got)

    def test_match_ids_matches_scalar_match(self):
        store = TemplateStore().fit(corpus())
        stream = corpus() * 2
        ids = store.match_ids(stream)
        assert ids.tolist() == [store.match(m) for m in stream]


class TestTransformAndLookup:
    def test_transform_annotates_all(self):
        store = TemplateStore().fit(corpus())
        annotated = store.transform(corpus())
        assert all(m.template_id is not None for m in annotated)

    def test_template_lookup_roundtrip(self):
        store = TemplateStore().fit(corpus())
        for template in store.templates():
            assert (
                store.template(template.template_id).render()
                == template.render()
            )

    def test_template_zero_is_none(self):
        store = TemplateStore().fit(corpus())
        assert store.template(0) is None

    def test_template_bad_id_raises(self):
        store = TemplateStore().fit(corpus())
        with pytest.raises(KeyError):
            store.template(999)


#: Fuzz vocabulary: stable words, every variable shape, and tokens that
#: look variable but are stable by shape.
STABLE_WORDS = ("LINK:", "BGP:", "up", "down", "peer", "on", "to", "x")
VARIABLE_TOKENS = (
    "12", "7", "10.0.0.1", "10.0.0.1:179", "0xbeef", "ge-0/0/1",
    "xe-1/2/3.100", "15ms", "2.5s", "99%",
)
STABLE_BY_SHAPE = ("1299)", "vm14", "(12", "ge-", "0x", "12x", "%")
PROCESSES = ("rpd", "mib2d", "sshd")

ALL_TOKENS = STABLE_WORDS + VARIABLE_TOKENS + STABLE_BY_SHAPE


@st.composite
def corpora(draw, max_size=40):
    """Messages drawn as edits of a few base texts, so that leaves fill
    up, merge and hold overlapping signatures as a real log's do."""
    bases = draw(st.lists(
        st.tuples(
            st.sampled_from(PROCESSES),
            st.lists(st.sampled_from(STABLE_WORDS + STABLE_BY_SHAPE),
                     max_size=6),
        ),
        min_size=1,
        max_size=4,
    ))
    messages = []
    for _ in range(draw(st.integers(1, max_size))):
        process, tokens = draw(st.sampled_from(bases))
        tokens = list(tokens)
        edits = draw(st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(ALL_TOKENS)),
            max_size=3,
        ))
        for index, token in edits:
            if index < len(tokens):
                tokens[index] = token
        messages.append(make_message(process=process, text=" ".join(tokens)))
    return messages


def _probes(message):
    """Probes around a training message: an empty text, a variable
    first token, an unknown process, an unseen first token and another
    token count."""
    text, process = message.text, message.process
    return [
        make_message(process=process, text=""),
        make_message(process=process, text=f"12 {text}"),
        make_message(process=process, text=f"10.0.0.9 {text}"),
        make_message(process="unknownd", text=text),
        make_message(process=process, text=f"UNSEEN {text}"),
        make_message(process=process, text=f"{text} down"),
        make_message(process=process, text=" ".join(text.split()[:-1])),
    ]


class TestDispatchMap:
    @settings(max_examples=150, deadline=None)
    @given(
        corpora(),
        st.lists(
            st.builds(
                lambda process, tokens: make_message(
                    process=process, text=" ".join(tokens)
                ),
                st.sampled_from(PROCESSES),
                st.lists(st.sampled_from(ALL_TOKENS), max_size=6),
            ),
            max_size=10,
        ),
        st.floats(0.3, 1.0),
        st.booleans(),
    )
    def test_match_equals_presignature_walk(
        self, training, unseen, threshold, round_trip
    ):
        store = TemplateStore(merge_threshold=threshold).fit(training)
        if round_trip:
            store = store_from_json(store_to_json(store))
        probes = list(training) + list(unseen)
        for message in training[:5]:
            probes += _probes(message)
        want = [presignature_walk(store, m) for m in probes]
        assert [store.match(m) for m in probes] == want
        assert store.match_ids(probes).tolist() == want
        hits, misses = store.memo_stats
        assert hits + misses == 2 * len(probes)

    @pytest.mark.parametrize(
        "first, second, second_only",
        [
            (("X", "a", WILD), ("X", WILD, "b"), "X z b"),
            (("X", WILD, "b"), ("X", "a", WILD), "X a z"),
        ],
    )
    def test_first_matching_signature_of_a_leaf_wins(
        self, first, second, second_only
    ):
        store = hand_written(first, second)
        both = make_message(text="X a b")
        assert store.match(both) == presignature_walk(store, both) == 1
        assert store.match(make_message(text=second_only)) == 2

    def test_variable_shaped_stable_token_never_matches(self):
        store = hand_written(("LINK:", "42"), ("42", "up"), ("LINK:", WILD))
        for text, want in (("LINK: 42", 3), ("42 up", 0), ("LINK: 7", 3)):
            message = make_message(text=text)
            assert store.match(message) == want
            assert presignature_walk(store, message) == want

    def test_signature_without_stable_position_matches_its_leaf(self):
        # "12 foo" joins "foo x"'s leaf (first stable token "foo") and
        # the merge wildcards both positions.
        store = TemplateStore(merge_threshold=0.5).fit([
            make_message(text="foo x"),
            make_message(text="12 foo"),
        ])
        assert store.vocabulary_size == 2
        for text in ("foo bar", "foo x", "7 foo"):
            message = make_message(text=text)
            assert store.match(message) == presignature_walk(store, message)
            assert store.match(message) == 1
        assert store.match(make_message(text="bar foo")) == 0

    def test_variable_first_token_finds_its_leaf(self):
        store = TemplateStore().fit([make_message(text="12 BGP: peer down")])
        assert store.match(make_message(text="13 BGP: peer down")) == 1
        assert store.memo_stats == (0, 1)
        # The first probe finds the leaf; no candidate matches.
        assert store.match(make_message(text="BGP: peer down now")) == 0
        assert store.memo_stats == (1, 1)
        # No leaf: the scan finds "BGP:" first, and no leaf has it.
        assert store.match(make_message(text="BGP: peer down")) == 0
        assert store.memo_stats == (1, 2)

    def test_empty_text_matches_its_own_leaf(self):
        store = TemplateStore().fit([make_message(text="")])
        assert store.match(make_message(text="")) == 1
        assert store.match(make_message(text="   ")) == 1
        assert store.match(make_message(process="sshd", text="")) == 0

    def test_map_is_left_out_of_pickles_and_copies(self):
        store = TemplateStore().fit(corpus())
        assert "_dispatch" not in store.__getstate__()
        stream = corpus() + [make_message(text="NEW_EVENT: never seen")]
        want = [store.match(m) for m in stream]
        for twin in (pickle.loads(pickle.dumps(store)), copy.deepcopy(store)):
            assert twin._dispatch.keys() == store._dispatch.keys()
            assert [twin.match(m) for m in stream] == want
