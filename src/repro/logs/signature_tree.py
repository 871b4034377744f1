"""Signature-tree template mining for router syslogs.

The paper structures raw syslogs with the signature-tree approach of
Qiu et al. ("What happened in my network: mining network events from
router syslogs", IMC 2010): messages are grouped by coarse structure,
then positions whose values vary across messages of the same group are
generalized into wildcards, yielding a small set of message *templates*
(signatures).  Each raw line then maps to exactly one template id, and
the LSTM models the sequence of template ids.

This implementation builds a three-level tree:

1. level 1 — token count of the message body;
2. level 2 — the reporting process and the first stable token
   (router logs almost always lead with a stable event keyword);
3. leaves — a list of signatures.  A signature is a tuple of tokens
   where ``None`` marks a wildcard position.

A new message either matches an existing signature exactly (all
non-wildcard positions equal), is merged into the most similar
signature when the token-agreement ratio clears ``merge_threshold``
(disagreeing positions become wildcards), or starts a new signature.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.logs.message import SyslogMessage

#: Wildcard marker inside a signature.
WILDCARD = None

# Token shapes that are variable by construction and should never be
# treated as stable structure: numbers, IPv4 addresses, hex words,
# interface names with unit numbers, durations.
_VARIABLE_PATTERNS = (
    re.compile(r"^\d+$"),
    re.compile(r"^\d{1,3}(\.\d{1,3}){3}(:\d+)?$"),
    re.compile(r"^0x[0-9a-fA-F]+$"),
    re.compile(r"^(ge|xe|et|ae|lo|irb|fxp)-?\d+(/\d+)*(\.\d+)?$"),
    re.compile(r"^\d+(\.\d+)?(ms|s|us|%)$"),
)

#: The five shapes as one pattern.  ``.match`` anchors its start, and
#: ``$`` (which also matches before a final ``"\n"``) its end, so it
#: accepts exactly the tokens one of the patterns above accepts.
_VARIABLE_TOKEN = re.compile(
    "(?:" + "|".join(p.pattern[1:-1] for p in _VARIABLE_PATTERNS) + ")$"
)


def tokenize(text: str) -> List[str]:
    """Split a message body into whitespace-delimited tokens.

    ``str.split()`` returns exactly the ``\\S+`` runs of the text and
    is several times faster than the regex scan.
    """
    return text.split()


def is_variable_token(token: str) -> bool:
    """Return True when a token is variable by shape (number, IP, ...)."""
    return _VARIABLE_TOKEN.match(token) is not None


def first_stable_token(tokens: Sequence[str]) -> str:
    """The first token that is not variable by shape (``""`` if none):
    the level-2 key's token for these tokens' presignature."""
    variable = _VARIABLE_TOKEN.match
    for token in tokens:
        if not variable(token):
            return token
    return ""


Signature = Tuple[Optional[str], ...]

#: A leaf's key below its token count: the process and the first
#: stable token (``""`` when every token is variable).
LeafKey = Tuple[str, str]

#: One signature compiled for matching a token list: an
#: ``operator.itemgetter`` over its stable positions, what the getter
#: must return for a match, and the signature's template id.
Candidate = Tuple[Callable[[Sequence[str]], object], object, int]

#: A leaf compiled for matching: its candidates in leaf order, and the
#: id a token list gets when none of them matches.
CompiledLeaf = Tuple[Tuple[Candidate, ...], int]


#: Stable token -> the first string seen with its text.  Stable tokens
#: dominate a mined corpus and repeat endlessly, so one dict hit
#: classifies most tokens, and every presignature (so every mined
#: signature) holds one shared string per token.  Variable tokens
#: (numbers, addresses) are not kept: most occur once, so the one regex
#: runs at each occurrence instead, and the cache stays the size of the
#: stable vocabulary.  Cleared wholesale at capacity.
_STABLE_TOKENS: Dict[str, str] = {}
_STABLE_CAPACITY = 1 << 17


def _presignature(tokens: Sequence[str]) -> Signature:
    """Wildcard the by-shape-variable tokens before any merging."""
    # Per-process memoization: after fork each worker mutates its own
    # copy-on-write copy; entries are derived from the tokens alone and
    # never cross a pipe, so workers cannot disagree.
    stable = _STABLE_TOKENS  # repro: noqa[RPR501]
    known = stable.get
    variable = _VARIABLE_TOKEN.match
    out: List[Optional[str]] = []
    append = out.append
    for token in tokens:
        shared = known(token)
        if shared is not None:
            append(shared)
        elif variable(token):
            append(WILDCARD)
        else:
            if len(stable) >= _STABLE_CAPACITY:
                stable.clear()
            stable[token] = token
            append(token)
    return tuple(out)


def _agreement(a: Signature, b: Signature) -> float:
    """Fraction of positions on which two equal-length signatures agree.

    Wildcard positions count as agreement: a wildcard is compatible
    with any token.
    """
    if len(a) != len(b):
        raise ValueError("signatures must have equal length")
    if not a:
        return 1.0
    agree = sum(
        1
        for x, y in zip(a, b)
        if x == y or x is WILDCARD or y is WILDCARD
    )
    return agree / len(a)


def _merge(a: Signature, b: Signature) -> Signature:
    """Merge two signatures, wildcarding every disagreeing position."""
    return tuple(
        x if x == y else WILDCARD for x, y in zip(a, b)
    )


def _matches(signature: Signature, tokens: Signature) -> bool:
    """True when ``tokens`` is an instance of ``signature``."""
    return len(signature) == len(tokens) and all(
        s is WILDCARD or s == t for s, t in zip(signature, tokens)
    )


@dataclass
class _Leaf:
    """A leaf bucket holding the signatures of one (count, key) group."""

    signatures: List[Signature] = field(default_factory=list)
    supports: List[int] = field(default_factory=list)

    def insert(
        self, presig: Signature, merge_threshold: float
    ) -> Tuple[int, str]:
        """Insert a pre-signature.

        Returns the local signature index plus the outcome —
        ``"exact"`` (matched as-is), ``"merged"`` (generalized into the
        most similar signature) or ``"new"`` (started a signature).
        """
        for index, signature in enumerate(self.signatures):
            if _matches(signature, presig):
                self.supports[index] += 1
                return index, "exact"
        best_index, best_score = -1, 0.0
        for index, signature in enumerate(self.signatures):
            score = _agreement(signature, presig)
            if score > best_score:
                best_index, best_score = index, score
        if best_index >= 0 and best_score >= merge_threshold:
            self.signatures[best_index] = _merge(
                self.signatures[best_index], presig
            )
            self.supports[best_index] += 1
            return best_index, "merged"
        self.signatures.append(presig)
        self.supports.append(1)
        return len(self.signatures) - 1, "new"


class SignatureTree:
    """Incremental signature-tree miner over syslog messages.

    Args:
        merge_threshold: minimum token-agreement ratio for merging a
            message into an existing signature rather than creating a
            new one.  The paper does not publish the value; 0.7 matches
            the common setting in the log-mining literature.
    """

    def __init__(self, merge_threshold: float = 0.7) -> None:
        if not 0.0 < merge_threshold <= 1.0:
            raise ValueError(
                f"merge_threshold must be in (0, 1], got {merge_threshold}"
            )
        self.merge_threshold = merge_threshold
        self._tree: Dict[int, Dict[LeafKey, _Leaf]] = {}
        # Mining statistics, kept as plain ints so the hot insert loop
        # stays registry-free; TemplateStore publishes the deltas into
        # the process telemetry registry after each fit/extend.
        self.n_inserted = 0
        self.n_exact = 0
        self.n_merged = 0
        self.n_new = 0

    @staticmethod
    def _key(process: str, presig: Signature) -> LeafKey:
        """The level-2 key: the process and the first stable token."""
        first = next(
            (entry for entry in presig if entry is not WILDCARD), ""
        )
        return process, first

    def _leaf_for(
        self, process: str, presig: Signature, first: Optional[str] = None
    ) -> _Leaf:
        """The leaf a presignature (or signature) belongs in, created
        if missing; ``first`` overrides the key's stable token."""
        level1 = self._tree.setdefault(len(presig), {})
        key = self._key(process, presig) if first is None else (process, first)
        leaf = level1.get(key)
        if leaf is None:
            leaf = level1[key] = _Leaf()
        return leaf

    def insert(self, message: SyslogMessage) -> Signature:
        """Insert one message and return the signature it landed in."""
        presig = _presignature(tokenize(message.text))
        leaf = self._leaf_for(message.process, presig)
        index, outcome = leaf.insert(presig, self.merge_threshold)
        self.n_inserted += 1
        if outcome == "new":
            self.n_new += 1
        elif outcome == "merged":
            self.n_merged += 1
        else:
            self.n_exact += 1
        return leaf.signatures[index]

    def lookup_presig(
        self, process: str, presig: Signature
    ) -> Optional[Signature]:
        """The signature matching a presignature; the tree is unchanged.

        The reference walk that :meth:`dispatch_map`'s matching is
        tested against.
        """
        leaf = self._tree.get(len(presig), {}).get(self._key(process, presig))
        if leaf is None:
            return None
        for signature in leaf.signatures:
            if _matches(signature, presig):
                return signature
        return None

    def signatures(self) -> List[Tuple[str, Signature, int]]:
        """Return ``(process, signature, support)`` for every signature.

        The process component of the level-2 key is returned so callers
        can attribute each signature to the daemon that emits it.
        """
        out: List[Tuple[str, Signature, int]] = []
        for level1 in self._tree.values():
            for (process, _), leaf in level1.items():
                out.extend(
                    (process, signature, support)
                    for signature, support in zip(
                        leaf.signatures, leaf.supports
                    )
                )
        return out

    def leaf_tokens(self) -> Dict[Tuple[str, Signature], List[str]]:
        """``(process, signature)`` -> the key token of each leaf that
        holds it, in :meth:`signatures` order.

        A merge can wildcard the stable token its leaf is keyed by, so
        a signature's own key need not name its leaf: mining ``foo x y``
        then ``12 foo y`` leaves ``<*> <*> y`` in leaf ``foo``.
        """
        tokens: Dict[Tuple[str, Signature], List[str]] = {}
        for level1 in self._tree.values():
            for (process, first), leaf in level1.items():
                for signature in leaf.signatures:
                    tokens.setdefault((process, signature), []).append(
                        first
                    )
        return tokens

    def dispatch_map(
        self, ids: Mapping[Tuple[str, Signature], int], unknown: int
    ) -> Dict[Tuple[str, int, str], CompiledLeaf]:
        """Every leaf compiled for matching, under its own key
        ``(process, token count, first stable token)``.

        Each signature becomes a :data:`Candidate` with its id in
        ``ids`` (``unknown`` when absent), in leaf order, so the first
        match still wins.  The first signature with no stable position
        matches every token list of its leaf: it ends the candidates
        and its id is the leaf's fallback, which is ``unknown`` when no
        such signature exists.

        A mined signature's stable tokens come from presignatures, so
        none is variable by shape, and comparing one with a raw token
        equals comparing it with the presignature's entry there.  A
        signature that does hold a variable-shaped stable token (only a
        hand-written store can) matches no presignature, so it is left
        out; a leaf keyed by such a token holds only such signatures.
        """
        compiled: Dict[Tuple[str, int, str], CompiledLeaf] = {}
        for count, level1 in self._tree.items():
            for (process, first), leaf in level1.items():
                candidates: List[Candidate] = []
                fallback = unknown
                for signature in leaf.signatures:
                    positions = [
                        index
                        for index, token in enumerate(signature)
                        if token is not WILDCARD
                    ]
                    if any(
                        is_variable_token(signature[index])
                        for index in positions
                    ):
                        continue
                    template_id = ids.get((process, signature), unknown)
                    if not positions:
                        fallback = template_id
                        break
                    getter = operator.itemgetter(*positions)
                    candidates.append(
                        (getter, getter(signature), template_id)
                    )
                compiled[(process, count, first)] = (
                    tuple(candidates),
                    fallback,
                )
        return compiled

    @property
    def n_signatures(self) -> int:
        """Total number of mined signatures."""
        return sum(
            len(leaf.signatures)
            for level1 in self._tree.values()
            for leaf in level1.values()
        )


def render_signature(signature: Signature, wildcard: str = "<*>") -> str:
    """Render a signature as human-readable text."""
    return " ".join(
        wildcard if token is WILDCARD else token for token in signature
    )
