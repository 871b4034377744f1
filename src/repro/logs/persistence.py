"""Serialization for template stores.

A production deployment mines templates continuously and must survive
process restarts with ids intact (models are keyed on them).  This
module round-trips a :class:`~repro.logs.templates.TemplateStore`
through a JSON document.
"""

from __future__ import annotations

import json
from typing import Union

from repro.logs.signature_tree import WILDCARD
from repro.logs.templates import Template, TemplateStore

_FORMAT_VERSION = 1
#: JSON has no tuple/None-in-list ambiguity issue, but wildcards need a
#: marker that cannot collide with a real token (tokens never contain
#: whitespace, so a space-bearing marker is safe).
_WILDCARD_MARKER = "\x00wildcard\x00"


def store_to_json(store: TemplateStore) -> str:
    """Serialize a fitted store (templates and ids) to JSON.

    A template whose leaf is not the one its signature's key names (a
    merge wildcarded the leaf's key token) records that leaf's token
    as ``"leaf"``, so the rebuilt store matches like this one.
    """
    if not store.fitted:
        raise ValueError("cannot serialize an unfitted TemplateStore")
    tree = store._tree
    leaves = tree.leaf_tokens()
    entries = []
    for template in store.templates():
        entry = {
            "id": template.template_id,
            "process": template.process,
            "support": template.support,
            "signature": [
                _WILDCARD_MARKER if token is WILDCARD else token
                for token in template.signature
            ],
        }
        leaf = leaves[(template.process, template.signature)].pop(0)
        if leaf != tree._key(template.process, template.signature)[1]:
            entry["leaf"] = leaf
        entries.append(entry)
    payload = {
        "version": _FORMAT_VERSION,
        "merge_threshold": tree.merge_threshold,
        "templates": entries,
    }
    return json.dumps(payload)


def store_from_json(document: Union[str, bytes]) -> TemplateStore:
    """Rebuild a store serialized by :func:`store_to_json`.

    The rebuilt store matches exactly like the original: the signature
    tree is reconstructed from the stored signatures, and template ids
    are preserved.
    """
    payload = json.loads(document)
    version = payload.get("version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported template-store format version: {version!r}"
        )
    store = TemplateStore(
        merge_threshold=payload["merge_threshold"]
    )
    templates = []
    leaves = {}
    for entry in payload["templates"]:
        signature = tuple(
            WILDCARD if token == _WILDCARD_MARKER else token
            for token in entry["signature"]
        )
        templates.append(
            Template(
                template_id=entry["id"],
                process=entry["process"],
                signature=signature,
                support=entry["support"],
            )
        )
        leaves[entry["id"]] = entry.get("leaf")
    templates.sort(key=lambda template: template.template_id)
    expected = list(range(1, len(templates) + 1))
    if [t.template_id for t in templates] != expected:
        raise ValueError("template ids must be dense starting at 1")
    store._templates = templates
    store._index = {
        (template.process, template.signature): template.template_id
        for template in templates
    }
    # Rebuild the signature tree so matching works: each signature is
    # seeded straight into the leaf it was mined in (re-inserting a
    # rendering would not be guaranteed to wildcard the same positions).
    tree = store._tree
    for template in templates:
        leaf = tree._leaf_for(
            template.process,
            template.signature,
            leaves[template.template_id],
        )
        leaf.signatures.append(template.signature)
        leaf.supports.append(template.support)
    store._rebuild_dispatch()
    store._fitted = True
    return store
