"""The rolling monthly train/detect pipeline (section 5.1).

Training and testing follow the paper's protocol:

* month 0 trains the initial models (template store, vPE grouping, one
  LSTM per group);
* at the end of each month the models absorb that month's fresh normal
  data (incremental learning);
* each month's *detections* come from the model as it existed at the
  start of that month — no look-ahead;
* when a month opens with a distribution shift (software update), the
  adaptation variant fine-tunes a student model on the first week of
  new data (transfer learning) before scoring the rest.

Three variants reproduce Figure 7:

* ``universal`` grouping, no adaptation — the baseline curve;
* ``kmeans`` grouping, no adaptation — "vPE cust";
* ``kmeans`` grouping + adaptation — "vPE cust + adapt".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.core.adaptation import update_detected
from repro.core.base import AnomalyDetector, ScoredStream
from repro.core.detector import LSTMAnomalyDetector
from repro.core.grouping import (
    VpeGrouping,
    fully_custom_grouping,
    group_vpes,
    universal_grouping,
)
from repro.core.mapping import MappingResult, map_anomalies, warning_clusters
from repro.core.thresholds import sweep_thresholds
from repro.evaluation.metrics import (
    DetectionCounts,
    PrecisionRecallPoint,
    best_operating_point,
)
from repro.logs.templates import TemplateStore
from repro.synthesis.dataset import FleetDataset
from repro.tickets.ticket import TroubleTicket
from repro.timeutil import DAY, MINUTE, MONTH

DetectorFactory = Callable[[TemplateStore, int], AnomalyDetector]


class _DefaultLstmFactory:
    """The paper's LSTM at the pipeline's vocabulary capacity."""

    def __init__(self, max_templates: int) -> None:
        self.max_templates = max_templates

    def __call__(
        self, store: TemplateStore, seed: int
    ) -> AnomalyDetector:
        return LSTMAnomalyDetector(
            store,
            vocabulary_capacity=self.max_templates,
            seed=seed,
        )


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline knobs.

    Attributes:
        grouping: ``"universal"`` (K=1), ``"kmeans"`` (the paper's
            customization) or ``"per-vpe"`` (K=N ablation).
        k: fixed group count for kmeans; ``None`` chooses by
            modularity.
        adaptation: enable drift-triggered transfer adaptation.
        adaptation_days: how much post-shift data the student
            fine-tunes on (the paper needs one week).
        drift_threshold: month-over-month cosine similarity below this
            triggers adaptation.
        predictive_period: early-warning window for ticket mapping.
        cluster_min_size: anomalies per warning signature (2 = paper).
        cluster_max_gap: max spacing inside a warning cluster.
        scrub_margin: normal-data scrub around tickets (3 days).
        store_fit_messages: cap on messages used to fit the template
            store initially.
        max_templates: model vocabulary capacity.
        seed: base seed for grouping and detectors.
    """

    grouping: str = "kmeans"
    k: Optional[int] = None
    adaptation: bool = True
    adaptation_days: float = 7.0
    drift_threshold: float = 0.5
    predictive_period: float = DAY
    cluster_min_size: int = 2
    cluster_max_gap: float = 5 * MINUTE
    scrub_margin: float = 3 * DAY
    store_fit_messages: int = 30000
    max_templates: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grouping not in ("universal", "kmeans", "per-vpe"):
            raise ValueError(
                f"unknown grouping mode {self.grouping!r}"
            )
        if self.adaptation_days <= 0:
            raise ValueError("adaptation_days must be positive")


@dataclass
class MonthResult:
    """Everything detected and measured in one test month."""

    month_index: int
    start: float
    end: float
    streams: Dict[str, ScoredStream]
    tickets: List[TroubleTicket]
    adapted_groups: List[int] = field(default_factory=list)


@dataclass
class PipelineResult:
    """Detections for every test month plus evaluation helpers."""

    months: List[MonthResult]
    grouping: VpeGrouping
    config: PipelineConfig

    def pooled_streams(
        self, month_indices: Optional[Sequence[int]] = None
    ) -> Dict[str, ScoredStream]:
        """Concatenate per-vPE streams across the chosen months."""
        chosen = [
            month
            for month in self.months
            if month_indices is None or month.month_index in month_indices
        ]
        vpes = {vpe for month in chosen for vpe in month.streams}
        return {
            vpe: ScoredStream.concatenate(
                [
                    month.streams[vpe]
                    for month in chosen
                    if vpe in month.streams
                ]
            )
            for vpe in vpes
        }

    def pooled_tickets(
        self, month_indices: Optional[Sequence[int]] = None
    ) -> List[TroubleTicket]:
        """Tickets pooled across the selected months (all by default)."""
        return [
            ticket
            for month in self.months
            if month_indices is None or month.month_index in month_indices
            for ticket in month.tickets
        ]

    def prc(
        self,
        month_indices: Optional[Sequence[int]] = None,
        predictive_period: Optional[float] = None,
        n_thresholds: int = 25,
    ) -> List[PrecisionRecallPoint]:
        """PRC over the chosen months (default: all test months)."""
        period = (
            self.config.predictive_period
            if predictive_period is None
            else predictive_period
        )
        return sweep_thresholds(
            self.pooled_streams(month_indices),
            self.pooled_tickets(month_indices),
            predictive_period=period,
            n_thresholds=n_thresholds,
            cluster_min_size=self.config.cluster_min_size,
            cluster_max_gap=self.config.cluster_max_gap,
        )

    def choose_threshold(
        self, month_indices: Optional[Sequence[int]] = None
    ) -> float:
        """Operating threshold maximizing pooled F-measure."""
        return best_operating_point(self.prc(month_indices)).threshold

    def month_mapping(
        self, month: MonthResult, threshold: float
    ) -> MappingResult:
        """Map one month's detections at a threshold."""
        detections = {}
        for vpe, stream in month.streams.items():
            raw = stream.anomalies(threshold)
            if self.config.cluster_min_size > 1:
                raw = warning_clusters(
                    raw,
                    min_size=self.config.cluster_min_size,
                    max_gap=self.config.cluster_max_gap,
                )
            detections[vpe] = raw
        return map_anomalies(
            detections, month.tickets, self.config.predictive_period
        )

    def monthly_counts(self, threshold: float) -> List[DetectionCounts]:
        """Per-month detection counts at a fixed threshold (Figure 7)."""
        return [
            self.month_mapping(month, threshold).counts
            for month in self.months
        ]

    def monthly_false_alarms_per_day(
        self, threshold: float
    ) -> List[float]:
        """Per-month fleet false-alarm rate (the 14x-jump metric)."""
        out = []
        for month in self.months:
            mapping = self.month_mapping(month, threshold)
            out.append(
                mapping.false_alarms_per_day(month.end - month.start)
            )
        return out


class RollingPipeline:
    """Drive detectors through a :class:`FleetDataset` month by month.

    Args:
        dataset: the (synthetic) deployment trace.
        config: pipeline knobs.
        detector_factory: builds a detector given the shared template
            store and a per-group seed; defaults to the paper's LSTM
            with modest training caps.
    """

    def __init__(
        self,
        dataset: FleetDataset,
        config: Optional[PipelineConfig] = None,
        detector_factory: Optional[DetectorFactory] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or PipelineConfig()
        self.detector_factory = detector_factory or _DefaultLstmFactory(
            self.config.max_templates
        )

    # -- setup -------------------------------------------------------------

    def _n_months(self) -> int:
        span = self.dataset.end - self.dataset.start
        return int(round(span / MONTH))

    def _month_bounds(self, index: int) -> Tuple[float, float]:
        start = self.dataset.start + index * MONTH
        return start, start + MONTH

    def _build_grouping(
        self, store: TemplateStore, month0: Tuple[float, float]
    ) -> VpeGrouping:
        names = self.dataset.vpe_names
        if self.config.grouping == "universal":
            return universal_grouping(names)
        if self.config.grouping == "per-vpe":
            return fully_custom_grouping(names)
        per_vpe = {
            vpe: self.dataset.normal_messages(
                vpe, month0[0], month0[1], self.config.scrub_margin
            )
            for vpe in names
        }
        return group_vpes(
            per_vpe, store, k=self.config.k, seed=self.config.seed
        )

    def _group_normal_streams(
        self, grouping: VpeGrouping, group: int, start: float, end: float
    ) -> List[List]:
        """Per-member normal streams (windows must not span devices)."""
        return [
            self.dataset.normal_messages(
                vpe, start, end, self.config.scrub_margin
            )
            for vpe in grouping.members(group)
        ]

    # -- per-group training ---------------------------------------------

    def _fit_detectors(
        self,
        store: TemplateStore,
        grouping: VpeGrouping,
        bounds: Tuple[float, float],
    ) -> Dict[int, AnomalyDetector]:
        """Initial training of the K per-group detectors (own seed,
        own member streams)."""
        detectors = {}
        registry = telemetry.default_registry()
        for group in grouping.groups:
            detector = self.detector_factory(
                store, self.config.seed + 17 * group
            )
            streams = self._group_normal_streams(
                grouping, group, bounds[0], bounds[1]
            )
            # Per-group loop: a whole-group fit is the batch boundary.
            with registry.timed("train.group_fit_seconds"):  # repro: noqa[RPR301]
                detector.fit_streams(streams)
            registry.counter("train.groups_fitted").inc()  # repro: noqa[RPR301]
            detectors[group] = detector
        return detectors

    def _update_detectors(
        self,
        detectors: Dict[int, AnomalyDetector],
        grouping: VpeGrouping,
        bounds: Tuple[float, float],
    ) -> None:
        """End-of-month incremental update of every group."""
        registry = telemetry.default_registry()
        for group, detector in detectors.items():
            streams = self._group_normal_streams(
                grouping, group, bounds[0], bounds[1]
            )
            # Per-group loop: a whole-group update is the batch boundary.
            with registry.timed("train.group_update_seconds"):  # repro: noqa[RPR301]
                detector.update_streams(streams)
            registry.counter("train.groups_updated").inc()  # repro: noqa[RPR301]

    # -- main loop ----------------------------------------------------------

    def run(self) -> PipelineResult:
        """Execute the full monthly mine/train/score/update pipeline."""
        config = self.config
        month0 = self._month_bounds(0)
        store = TemplateStore()
        store.fit(
            self.dataset.aggregate_messages(
                start=month0[0], end=month0[1], normal_only=True
            )[: config.store_fit_messages]
        )
        grouping = self._build_grouping(store, month0)
        detectors = self._fit_detectors(store, grouping, month0)

        months: List[MonthResult] = []
        for index in range(1, self._n_months()):
            start, end = self._month_bounds(index)
            previous_start, previous_end = self._month_bounds(index - 1)
            adapted: List[int] = []
            if config.adaptation:
                adapted = self._maybe_adapt(
                    detectors,
                    grouping,
                    store,
                    (previous_start, previous_end),
                    (start, end),
                )
            streams: Dict[str, ScoredStream] = {}
            for group, detector in detectors.items():
                for vpe in grouping.members(group):
                    streams[vpe] = detector.score(
                        self.dataset.messages_between(vpe, start, end)
                    )
            months.append(
                MonthResult(
                    month_index=index,
                    start=start,
                    end=end,
                    streams=streams,
                    tickets=self.dataset.tickets_for(
                        start=start, end=end
                    ),
                    adapted_groups=adapted,
                )
            )
            # End-of-month incremental update with fresh normal data.
            # The store mines the month first so templates introduced
            # by updates get their own ids instead of all colliding on
            # the unknown id (which would mask real fault symptoms).
            store.extend(
                self.dataset.aggregate_messages(
                    start=start, end=end, normal_only=True
                )[: config.store_fit_messages]
            )
            self._update_detectors(detectors, grouping, (start, end))
        return PipelineResult(
            months=months, grouping=grouping, config=config
        )

    def _maybe_adapt(
        self,
        detectors: Dict[int, AnomalyDetector],
        grouping: VpeGrouping,
        store: TemplateStore,
        previous_bounds: Tuple[float, float],
        current_bounds: Tuple[float, float],
    ) -> List[int]:
        """Fine-tune any group whose distribution shifted this month.

        Drift is measured *per member vPE* between last month's normal
        logs and the first ``adaptation_days`` of this month: software
        updates roll out to subsets of the fleet (section 3.3), so a
        group-aggregated distribution would dilute the shift of the
        updated members below the trigger.  Any drifting member makes
        the group's model adapt on the group's fresh week of data.
        """
        config = self.config
        adapted: List[int] = []
        probe_end = min(
            current_bounds[0] + config.adaptation_days * DAY,
            current_bounds[1],
        )
        for group in list(detectors):
            detector = detectors[group]
            drifted = False
            for vpe in grouping.members(group):
                previous = store.transform(
                    self.dataset.normal_messages(
                        vpe,
                        previous_bounds[0],
                        previous_bounds[1],
                        config.scrub_margin,
                    )
                )
                fresh = store.transform(
                    self.dataset.normal_messages(
                        vpe,
                        current_bounds[0],
                        probe_end,
                        config.scrub_margin,
                    )
                )
                if update_detected(
                    previous,
                    fresh,
                    store.vocabulary_size,
                    threshold=config.drift_threshold,
                ):
                    drifted = True
                    break
            if not drifted:
                continue
            raw_fresh = self._group_normal_streams(
                grouping, group, current_bounds[0], probe_end
            )
            if not any(raw_fresh):
                continue
            detectors[group] = detector.adapt_streams(raw_fresh)
            adapted.append(group)
        return adapted
