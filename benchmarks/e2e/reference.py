"""Offline reference scores for a served trace.

    PYTHONPATH=src python benchmarks/e2e/reference.py STORE TRACE OUT

Rebuilds the detector of the release ``STORE`` serves
(``detector_from_release``), scores each vPE stream of ``TRACE`` with
``LSTMAnomalyDetector.score``, and writes to ``OUT`` the multiset of
``repr`` scores.  Offline scoring skips each stream's warm-up messages,
which ``serve`` writes as ``nan``; they are counted under ``"nan"``.
A served run is correct when its score column is this multiset.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter

from repro.cli import read_trace
from repro.runtime.service import detector_from_release
from repro.runtime.store import ArtifactStore


def reference(store_dir: pathlib.Path, trace_dir: pathlib.Path) -> Counter:
    """``repr(score) -> count`` over every message of the trace."""
    store = ArtifactStore(store_dir)
    detector, _ = detector_from_release(store, store.current_id())
    meta, messages, _ = read_trace(trace_dir)
    scores: Counter = Counter()
    for vpe in meta["vpes"]:
        stream = messages[vpe]
        scored = detector.score(stream).scores
        scores.update(repr(float(s)) for s in scored)
        scores["nan"] += len(stream) - len(scored)
    return scores


if __name__ == "__main__":
    store, trace, out = map(pathlib.Path, sys.argv[1:4])
    pathlib.Path(out).write_text(json.dumps(reference(store, trace)))
