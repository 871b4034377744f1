"""Tests for repro.logs.persistence (template-store JSON roundtrip)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.logs.persistence import store_from_json, store_to_json
from repro.logs.templates import TemplateStore
from repro.synthesis.catalog import ROUTINE_TEMPLATES
from repro.timeutil import TRACE_START
from tests.conftest import make_message
from tests.logs.test_templates import _probes, corpora


def corpus():
    rng = np.random.default_rng(0)
    return [
        spec.render(TRACE_START + i, "vpe00", rng)
        for i, spec in enumerate(ROUTINE_TEMPLATES)
        for _ in range(3)
    ]


class TestMergedLeaves:
    """A merge can wildcard the token a leaf is keyed by; the rebuilt
    store must keep such a signature in the leaf it was mined in."""

    def test_merged_signature_keeps_its_leaf(self):
        # "12 foo y" joins "foo x y"'s leaf (key token "foo") and the
        # merge leaves "<*> <*> y", whose own key token is "y".
        store = TemplateStore(merge_threshold=0.6).fit([
            make_message(text="foo x y"),
            make_message(text="12 foo y"),
        ])
        rebuilt = store_from_json(store_to_json(store))
        probe = make_message(text="foo z y")
        assert store.match(probe) == 1
        assert rebuilt.match(probe) == 1
        assert store_to_json(rebuilt) == store_to_json(store)

    @settings(max_examples=150, deadline=None)
    @given(corpora(), st.floats(0.3, 1.0))
    def test_round_trip_matches_like_the_mined_store(
        self, training, threshold
    ):
        store = TemplateStore(merge_threshold=threshold).fit(training)
        rebuilt = store_from_json(store_to_json(store))
        probes = list(training)
        for message in training[:5]:
            probes += _probes(message)
        assert (
            rebuilt.match_ids(probes).tolist()
            == store.match_ids(probes).tolist()
        )


class TestRoundtrip:
    def test_ids_preserved(self):
        store = TemplateStore().fit(corpus())
        rebuilt = store_from_json(store_to_json(store))
        assert rebuilt.vocabulary_size == store.vocabulary_size
        for template in store.templates():
            twin = rebuilt.template(template.template_id)
            assert twin.process == template.process
            assert twin.signature == template.signature
            assert twin.support == template.support

    def test_matching_behaviour_identical(self):
        store = TemplateStore().fit(corpus())
        rebuilt = store_from_json(store_to_json(store))
        rng = np.random.default_rng(42)
        probes = [
            spec.render(TRACE_START + 100 + i, "vpe09", rng)
            for i, spec in enumerate(ROUTINE_TEMPLATES)
        ]
        probes.append(make_message(
            text="NEVER_SEEN: completely novel message body here"
        ))
        for probe in probes:
            assert rebuilt.match(probe) == store.match(probe)

    def test_rebuilt_store_can_extend(self):
        store = TemplateStore().fit(corpus())
        rebuilt = store_from_json(store_to_json(store))
        added = rebuilt.extend([
            make_message(text="BRAND_NEW: extension event occurred")
        ])
        assert added == 1

    def test_document_is_json(self):
        store = TemplateStore().fit(corpus())
        payload = json.loads(store_to_json(store))
        assert payload["version"] == 1
        assert len(payload["templates"]) == store.vocabulary_size - 1


class TestValidation:
    def test_unfitted_store_rejected(self):
        with pytest.raises(ValueError):
            store_to_json(TemplateStore())

    def test_bad_version_rejected(self):
        store = TemplateStore().fit(corpus())
        payload = json.loads(store_to_json(store))
        payload["version"] = 99
        with pytest.raises(ValueError):
            store_from_json(json.dumps(payload))

    def test_non_dense_ids_rejected(self):
        store = TemplateStore().fit(corpus())
        payload = json.loads(store_to_json(store))
        payload["templates"][0]["id"] = 999
        with pytest.raises(ValueError):
            store_from_json(json.dumps(payload))
