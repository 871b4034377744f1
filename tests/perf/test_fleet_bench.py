"""Fleet throughput + kill-drill gate (``-m perf``).

Runs the reduced fleet benchmark (1-vs-4 shards at a sub-4k and a
4k+ device point, plus the kill-one-shard drill) and pins:

* aggregate throughput scaling at the 4k+ device / 4-shard point.
  Shards are OS processes, so the bound is hardware-dependent: with
  4+ cores the >= 2.5x scaling target is pinned directly; below
  that the gate pins the single-core floor instead — sharding still
  wins serially at high device counts because each shard's ring-
  buffer working set shrinks to cache size (measured 1.5x at 4096+
  devices on a 1-core host);
* the small-fleet regime must not regress into pathology: 4 shards
  at 512 devices may be slower than 1 (a process, a service open and
  a checkpoint per shard), but never catastrophically so;
* the drill's correctness invariants: the crash kills exactly the
  victim, survivors score their whole feeds, the replay rerun
  replays the victim's WAL, and the per-shard score CSVs reach exact
  row parity with an uninterrupted baseline (zero dropped, zero
  double-scored).

Deselected by default via ``addopts = '-m "not perf"'``.
"""

import pathlib
import sys

import pytest

pytestmark = pytest.mark.perf

_BENCH_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
)
if str(_BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(_BENCH_DIR))

#: The parallel scaling bound, asserted when the hardware can express
#: it (4 shards cannot run in parallel on fewer than 4 cores).
MIN_SCALING_PARALLEL = 2.5

#: Single-core floor at the 4k+ device point: the shared-nothing
#: cache-locality win alone.  Measured ~1.5x; 1.15 absorbs CI noise.
MIN_SCALING_SERIAL = 1.15

#: 4 shards at few devices pay per-process overhead with no cache
#: win to offset it; bound the damage rather than ban it.
MIN_SCALING_SMALL_FLEET = 0.6


@pytest.fixture(scope="module")
def fleet_module():
    import fleet

    return fleet


@pytest.fixture(scope="module")
def record(fleet_module):
    return fleet_module.run("reduced")


@pytest.fixture(scope="module")
def scaling(record):
    return record["benchmarks"]["fleet_scaling"]


@pytest.fixture(scope="module")
def drill(record):
    return record["benchmarks"]["kill_drill"]


def _point(scaling, devices, shards):
    for point in scaling["sweep"]:
        if point["devices"] == devices and point["shards"] == shards:
            return point
    raise AssertionError(
        f"no sweep point for devices={devices} shards={shards}"
    )


def test_sweep_covers_both_regimes(scaling, fleet_module):
    scale = fleet_module.SCALES["reduced"]
    assert scaling["host_cores"] >= 1
    seen = {(p["devices"], p["shards"]) for p in scaling["sweep"]}
    assert seen == {
        (d, s)
        for d in scale.device_counts
        for s in scale.shard_counts
    }
    assert all(p["msgs_per_s"] > 0 for p in scaling["sweep"])


def test_aggregate_scaling_at_4k_devices(scaling):
    point = _point(scaling, 4096, 4)
    floor = (
        MIN_SCALING_PARALLEL
        if scaling["host_cores"] >= 4
        else MIN_SCALING_SERIAL
    )
    assert point["scaling_vs_1shard"] >= floor, (
        f"4 shards at 4096 devices reached only "
        f"{point['scaling_vs_1shard']:.2f}x vs 1 shard "
        f"(floor {floor}x on {scaling['host_cores']} core(s))"
    )


def test_small_fleet_overhead_bounded(scaling):
    point = _point(scaling, 512, 4)
    assert point["scaling_vs_1shard"] >= MIN_SCALING_SMALL_FLEET, (
        f"4 shards at 512 devices collapsed to "
        f"{point['scaling_vs_1shard']:.2f}x vs 1 shard"
    )


def test_drill_kills_exactly_the_victim(drill):
    assert drill["crashed_dead_shards"] == [drill["killed_shard"]]
    assert drill["resumed_dead_shards"] == []
    assert drill["replayed_ticks"] >= 1


def test_drill_survivors_untouched(drill):
    assert drill["survivors_stalled"] is False


def test_drill_exact_score_parity(drill):
    assert drill["score_parity"] is True
    assert drill["dropped_rows"] == 0
    assert drill["double_scored_rows"] == 0
    # Replay re-lands the crashed tick's rows byte-for-byte, so any
    # duplicates collapse under set union / CI's `sort -u`.
    assert drill["baseline_rows"] == drill["messages"]
