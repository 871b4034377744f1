"""Template store: stable ids for mined syslog signatures.

The LSTM treats syslogs as a language over a finite template set ``S``
(section 4.2 of the paper).  :class:`TemplateStore` assigns each mined
signature a stable integer id, maps raw messages to ids, and reserves
id 0 for out-of-vocabulary messages (templates first seen after the
store was fitted — exactly the situation after a software update).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.logs.message import MessageBatch, SyslogMessage
from repro.logs.signature_tree import (
    CompiledLeaf,
    Signature,
    SignatureTree,
    first_stable_token,
    render_signature,
)

#: Template id reserved for messages that match no known signature.
UNKNOWN_TEMPLATE_ID = 0

#: What a message whose leaf was never mined matches against.
_UNKNOWN_LEAF: CompiledLeaf = ((), UNKNOWN_TEMPLATE_ID)


@dataclass(frozen=True)
class Template:
    """A mined message template.

    Attributes:
        template_id: stable integer id (>= 1; 0 is the unknown id).
        process: the daemon that emits this template.
        signature: token tuple with ``None`` wildcards.
        support: number of training messages that matched.
    """

    template_id: int
    process: str
    signature: Signature
    support: int

    def render(self) -> str:
        """Human-readable ``process: template text`` rendering."""
        return f"{self.process}: {render_signature(self.signature)}"


class TemplateStore:
    """Fit a signature tree on a corpus and map messages to template ids.

    Typical use::

        store = TemplateStore()
        store.fit(training_messages)
        ids = [store.match(m) for m in stream]

    ``match`` returns :data:`UNKNOWN_TEMPLATE_ID` for messages whose
    signature was never mined; downstream models treat that id as its
    own vocabulary entry, which is what lets the detector notice brand
    new message types introduced by software updates.
    """

    def __init__(self, merge_threshold: float = 0.7) -> None:
        self._tree = SignatureTree(merge_threshold=merge_threshold)
        self._templates: List[Template] = []
        self._index: Dict[Tuple[str, Signature], int] = {}
        self._fitted = False
        # The dispatch map: the tree compiled for matching, one entry
        # per leaf (``SignatureTree.dispatch_map``).  Derived state:
        # rebuilt whenever mining or loading changes the tree, never
        # pickled.
        self._dispatch: Dict[Tuple[str, int, str], CompiledLeaf] = {}
        # Messages matched, and those whose first token did not key
        # their leaf (the leading-token scan ran).
        self._matched = 0
        self._scanned = 0
        # High-water marks of what has been published to the telemetry
        # registry, so batch-boundary publishing emits deltas only.
        self._published_hits = 0
        self._published_misses = 0
        self._published_inserted = 0
        self._published_new = 0
        self._published_merged = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_dispatch"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rebuild_dispatch()

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` (or :meth:`extend`) has run."""
        return self._fitted

    @property
    def vocabulary_size(self) -> int:
        """Number of ids a model must handle (templates + unknown id)."""
        return len(self._templates) + 1

    def fit(self, messages: Iterable[SyslogMessage]) -> "TemplateStore":
        """Mine signatures from a corpus and freeze ids.

        Calling ``fit`` twice restarts mining from scratch; use
        :meth:`extend` to add templates while preserving existing ids.
        """
        self._tree = SignatureTree(
            merge_threshold=self._tree.merge_threshold
        )
        self._templates = []
        self._index = {}
        # The tree's mining stats restart with it.
        self._published_inserted = 0
        self._published_new = 0
        self._published_merged = 0
        for message in messages:
            # Offline mining: per-message signature compare/merge
            # temporaries are the algorithm, not scoring overhead.
            self._tree.insert(message)  # repro: noqa[RPR202]
        self._rebuild_index()
        self._fitted = True
        self._publish_mining_stats(created=len(self._templates))
        return self

    def extend(self, messages: Iterable[SyslogMessage]) -> int:
        """Mine additional messages, keeping already-assigned ids stable.

        Returns the number of templates added.  Signature merging may
        generalize an existing signature in place; its id is preserved
        because ids are keyed by leaf identity order, re-derived after
        insertion.
        """
        if not self._fitted:
            self.fit(messages)
            return len(self._templates)
        before = len(self._templates)
        for message in messages:
            # Offline mining (see fit): merge temporaries are the
            # algorithm, not scoring overhead.
            self._tree.insert(message)  # repro: noqa[RPR202]
        self._rebuild_index()
        created = len(self._templates) - before
        self._publish_mining_stats(created=created)
        return created

    def _rebuild_index(self) -> None:
        known = {
            (template.process, template.signature): template.template_id
            for template in self._templates
        }
        rebuilt: List[Template] = []
        next_id = len(self._templates) + 1
        seen_ids = set()
        for process, signature, support in self._tree.signatures():
            key = (process, signature)
            template_id = known.get(key)
            if template_id is None or template_id in seen_ids:
                template_id = next_id
                next_id += 1
            seen_ids.add(template_id)
            rebuilt.append(
                Template(
                    template_id=template_id,
                    process=process,
                    signature=signature,
                    support=support,
                )
            )
        rebuilt.sort(key=lambda template: template.template_id)
        # Re-number densely so vocabulary size equals template count + 1.
        self._templates = [
            Template(
                template_id=index + 1,
                process=template.process,
                signature=template.signature,
                support=template.support,
            )
            for index, template in enumerate(rebuilt)
        ]
        self._index = {
            (template.process, template.signature): template.template_id
            for template in self._templates
        }
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        """Recompile the dispatch map from the tree and the ids."""
        self._dispatch = self._tree.dispatch_map(
            self._index, UNKNOWN_TEMPLATE_ID
        )

    def match(self, message: SyslogMessage) -> int:
        """Map a message to its template id (0 when unknown)."""
        return self._match((message.process,), (message.text,))[0]

    def _match(
        self, processes: Iterable[str], texts: Iterable[str]
    ) -> List[int]:
        """The template id of each ``(process, text)`` pair.

        A message's leaf is keyed by its process, token count and first
        stable token, and that token is almost always the first one, so
        one probe with it finds the leaf; only when it misses are the
        leading tokens classified, to find the first stable one (or to
        answer unknown).  The leaf's candidates then compare their
        stable positions with the tokens there, first match first.
        """
        if not self._fitted:
            raise RuntimeError("TemplateStore.match called before fit")
        leaves = self._dispatch.get
        ids: List[int] = []
        scanned = 0
        for process, text in zip(processes, texts):
            tokens = text.split()
            count = len(tokens)
            leaf = leaves((process, count, tokens[0] if tokens else ""))
            if leaf is None:
                scanned += 1
                leaf = leaves(
                    (process, count, first_stable_token(tokens)),
                    _UNKNOWN_LEAF,
                )
            candidates, template_id = leaf
            for getter, stable, candidate_id in candidates:
                if getter(tokens) == stable:
                    template_id = candidate_id
                    break
            ids.append(template_id)
        self._matched += len(ids)
        self._scanned += scanned
        return ids

    @property
    def memo_stats(self) -> Tuple[int, int]:
        """Lifetime ``(hits, misses)`` of matching's first probe: a hit
        found the message's leaf by its first token."""
        return self._matched - self._scanned, self._scanned

    # -- telemetry -------------------------------------------------------

    def _publish_match_stats(self) -> None:
        """Push first-probe hit/miss deltas into the telemetry registry.

        Called once per batch (``match_ids`` / ``transform``), never
        per message, so matching stays registry-free on the hot path.
        """
        registry = telemetry.default_registry()
        hits, misses = self.memo_stats
        registry.counter("match.memo_hits").inc(hits - self._published_hits)
        registry.counter("match.memo_misses").inc(
            misses - self._published_misses
        )
        self._published_hits = hits
        self._published_misses = misses
        total = hits + misses
        if total:
            registry.gauge("match.memo_hit_rate").set(hits / total)

    def _publish_mining_stats(self, created: int) -> None:
        """Publish tree-mining deltas after a ``fit``/``extend``."""
        registry = telemetry.default_registry()
        tree = self._tree
        for name, value, mark in (
            ("mine.messages_inserted", tree.n_inserted,
             "_published_inserted"),
            ("mine.signatures_new", tree.n_new, "_published_new"),
            ("mine.signatures_merged", tree.n_merged,
             "_published_merged"),
        ):
            delta = value - getattr(self, mark)
            if delta > 0:
                registry.counter(name).inc(delta)
                setattr(self, mark, value)
        if created > 0:
            registry.counter("mine.templates_created").inc(created)
        registry.gauge("mine.vocabulary_size").set(
            self.vocabulary_size
        )

    def match_ids(
        self, messages: Sequence[SyslogMessage]
    ) -> np.ndarray:
        """Template ids of a whole stream as one int64 array.

        The array-first counterpart of :meth:`transform` for callers
        that only need ids (windowing, scoring).  It reads the process
        and text columns of ``messages`` as a :class:`MessageBatch`
        (converted once if it is not one).
        """
        batch = MessageBatch.of(messages)
        ids = np.array(
            self._match(batch.processes, batch.texts), dtype=np.int64
        )
        self._publish_match_stats()
        return ids

    def transform(
        self, messages: Sequence[SyslogMessage]
    ) -> List[SyslogMessage]:
        """Return copies of ``messages`` annotated with template ids."""
        ids = self._match(
            [message.process for message in messages],
            [message.text for message in messages],
        )
        annotated = [
            message.with_template(template_id)
            for message, template_id in zip(messages, ids)
        ]
        self._publish_match_stats()
        return annotated

    def template(self, template_id: int) -> Optional[Template]:
        """Look up a template by id (``None`` for the unknown id)."""
        if template_id == UNKNOWN_TEMPLATE_ID:
            return None
        index = template_id - 1
        if not 0 <= index < len(self._templates):
            raise KeyError(f"unknown template id {template_id}")
        return self._templates[index]

    def templates(self) -> List[Template]:
        """All templates, ordered by id."""
        return list(self._templates)
