"""Tests for repro.logs.templates."""

import pytest

from repro.logs.templates import UNKNOWN_TEMPLATE_ID, TemplateStore
from tests.conftest import make_message


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
    def test_memoized_match_agrees_with_uncached(self):
        cached = TemplateStore().fit(corpus())
        uncached = TemplateStore(memo_capacity=0).fit(corpus())
        stream = corpus() * 3 + [
            make_message(
                text="BGP_KEEPALIVE: keepalive received from peer 10.9.9.9"
            )
        ]
        assert [cached.match(m) for m in stream] == [
            uncached.match(m) for m in stream
        ]
        hits, misses = cached.memo_stats
        assert hits > 0

    def test_verbatim_rematch_after_extend(self):
        store = TemplateStore().fit(corpus())
        novel = make_message(text="NEW_EVENT: counter 1 rolled over")
        # Warm the memo with the unknown verdict.
        assert store.match(novel) == UNKNOWN_TEMPLATE_ID
        assert store.match(novel) == UNKNOWN_TEMPLATE_ID
        store.extend([novel])
        # The verbatim text must not replay the stale cached 0.
        assert store.match(novel) >= 1

    def test_presig_memo_dropped_by_extend(self):
        store = TemplateStore().fit(corpus())
        # Warm the (process, presignature) memo: two variants of the
        # same shape share a presignature but not an exact text.
        assert store.match(
            make_message(text="NEW_EVENT: counter 1 rolled over")
        ) == UNKNOWN_TEMPLATE_ID
        store.extend(
            [make_message(text="NEW_EVENT: counter 2 rolled over")]
        )
        # A third variant would hit a stale presignature entry if
        # extend did not clear it.
        assert store.match(
            make_message(text="NEW_EVENT: counter 3 rolled over")
        ) >= 1

    def test_cached_transform_equals_uncached_across_extend(self):
        cached = TemplateStore().fit(corpus())
        uncached = TemplateStore(memo_capacity=0).fit(corpus())
        novel = [
            make_message(text="LINK_FLAP: interface ge-0/0/3 down 10 ms"),
            make_message(text="LINK_FLAP: interface ge-0/0/7 down 25 ms"),
        ]
        stream = corpus() + novel + corpus()
        for store in (cached, uncached):
            store.transform(stream)  # warm (no-op for uncached)
            store.extend(novel)
        want = [m.template_id for m in uncached.transform(stream)]
        got = [m.template_id for m in cached.transform(stream)]
        assert got == want
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
