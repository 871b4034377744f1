"""Tests for repro.runtime.session (one shard's serve lifecycle).

The CLI tests drive sessions end to end through ``serve``; these pin
the session's own contracts: one row format with an optional shard
prefix, a crash path that leaves the WAL tail for replay, an abandon
path that writes no checkpoint, and a BLAS thread limit that holds
while the session is open and no longer.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.online import WarningSignature
from repro.runtime.blas import blas_threads
from repro.runtime.service import ServiceConfig, ServiceError, TickResult
from repro.runtime.session import (
    ServeSession,
    SessionSpec,
    SimulatedCrash,
    _TickSink,
)
from tests.runtime.test_service import (  # noqa: F401 (fixtures)
    detector,
    make_service,
    threshold,
    ticks,
)


def spec_for(config, tmp_path, name, **kwargs):
    return SessionSpec(
        service=config,
        scores_path=str(tmp_path / f"{name}-scores.csv"),
        warnings_path=str(tmp_path / f"{name}-warnings.csv"),
        **kwargs,
    )


def lines(path):
    return path.read_text().splitlines()


def serve(spec, ticks):
    session = ServeSession(spec)
    session.recover()
    for tick in ticks:
        session.tick(tick)
    session.close()
    return session


class TestRows:
    def test_shard_prefix_is_the_only_difference(
        self, tmp_path, detector, threshold, ticks
    ):
        plain = spec_for(
            make_service(tmp_path, detector, threshold, name="a"),
            tmp_path, "plain",
        )
        sharded = spec_for(
            make_service(tmp_path, detector, threshold, name="b"),
            tmp_path, "sharded", shard=3,
        )
        served = serve(plain, ticks)
        serve(sharded, ticks)
        for kind in ("scores", "warnings"):
            rows = lines(tmp_path / f"plain-{kind}.csv")
            assert rows
            assert lines(tmp_path / f"sharded-{kind}.csv") == [
                f"3,{row}" for row in rows
            ]
        assert served.n_warnings == len(
            lines(tmp_path / "plain-warnings.csv")
        )
        # Rows end in a bare newline, whatever the platform.
        text = (tmp_path / "plain-scores.csv").read_bytes()
        assert b"\r" not in text

    @pytest.mark.parametrize("shard", [None, 2])
    def test_row_bytes(self, tmp_path, shard):
        """Floats render as ``repr`` (``nan``, ``-0.0``, ``inf``), a
        dropped message as a ``0`` kept flag, and an empty tick as no
        row at all."""
        spec = SessionSpec(
            service=ServiceConfig(tmp_path),
            shard=shard,
            scores_path=str(tmp_path / "scores.csv"),
            warnings_path=str(tmp_path / "warnings.csv"),
        )
        warning = WarningSignature(
            vpe="vpe03", time=1500000000.25, first_anomaly=1499999000.0,
            n_anomalies=3, peak_score=6.5,
        )
        results = [
            TickResult(
                tick=7,
                scores=np.array([0.1 + 0.2, np.nan, -0.0, np.inf, -1e-300]),
                kept=np.array([True, False, True, True, True]),
                ids=np.zeros(5, dtype=np.int64),
                warnings=[warning],
            ),
            TickResult(
                tick=8,
                scores=np.empty(0),
                kept=np.empty(0, dtype=bool),
                ids=np.empty(0, dtype=np.int64),
                warnings=[],
            ),
            TickResult(
                tick=9, scores=np.array([6.5]), kept=np.array([True]),
                ids=np.zeros(1, dtype=np.int64), warnings=[],
            ),
        ]
        sink = _TickSink(spec)
        sink.write(results)
        sink.close()
        prefix = "" if shard is None else f"{shard},"
        assert (tmp_path / "scores.csv").read_bytes() == "".join(
            prefix + row
            for row in (
                "7,0,0.30000000000000004,1\n",
                "7,1,nan,0\n",
                "7,2,-0.0,1\n",
                "7,3,inf,1\n",
                "7,4,-1e-300,1\n",
                "9,0,6.5,1\n",
            )
        ).encode()
        assert (tmp_path / "warnings.csv").read_bytes() == (
            f"{prefix}7,vpe03,1500000000.25,1499999000.0,3,6.5\n".encode()
        )

    def test_incident_sink_needs_rca(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        incidents = tmp_path / "incidents.csv"
        serve(
            SessionSpec(service=config, incidents_path=str(incidents)),
            ticks[:2],
        )
        assert not incidents.exists()


class TestLifecycle:
    def test_crash_leaves_the_tail_for_replay(
        self, tmp_path, detector, threshold, ticks
    ):
        reference = spec_for(
            make_service(tmp_path, detector, threshold, name="ref"),
            tmp_path, "ref",
        )
        serve(reference, ticks)
        config = make_service(tmp_path, detector, threshold, name="svc")
        drilled = spec_for(config, tmp_path, "svc", kill_after_ticks=5)
        session = ServeSession(drilled)
        session.recover()
        with pytest.raises(SimulatedCrash):
            for tick in ticks:
                session.tick(tick)
        session.crash()
        revived = ServeSession(spec_for(config, tmp_path, "svc"))
        assert revived.has_state
        report = revived.recover()
        assert report.ticks_replayed >= 1
        for tick in ticks[revived.service.n_ticks:]:
            revived.tick(tick)
        revived.close()
        for kind in ("scores", "warnings"):
            assert set(lines(tmp_path / f"svc-{kind}.csv")) == set(
                lines(tmp_path / f"ref-{kind}.csv")
            )

    def test_abandon_writes_no_checkpoint(
        self, tmp_path, detector, threshold, ticks
    ):
        config = make_service(tmp_path, detector, threshold)
        session = ServeSession(SessionSpec(service=config))
        session.recover()
        session.tick(ticks[0])
        session.abandon()
        assert not config.checkpoint_path.exists()
        assert not config.lock_path.exists()
        revived = ServeSession(SessionSpec(service=config))
        assert revived.recover().ticks_replayed == 1
        revived.close()
        assert config.checkpoint_path.exists()


@pytest.mark.skipif(
    blas_threads() is None, reason="numpy does not run on OpenBLAS here"
)
class TestBlasThreads:
    @pytest.mark.parametrize("end", ["close", "crash", "abandon"])
    def test_limit_holds_while_open(
        self, tmp_path, detector, threshold, ticks, end
    ):
        before = blas_threads()
        config = make_service(tmp_path, detector, threshold)
        registry = telemetry.MetricsRegistry()
        with telemetry.use(registry):
            session = ServeSession(SessionSpec(service=config))
        assert blas_threads() == 1
        assert registry.gauge("blas.threads").value == 1
        session.tick(ticks[0])
        getattr(session, end)()
        assert blas_threads() == before

    def test_failed_open_restores(self, tmp_path):
        before = blas_threads()
        with pytest.raises(ServiceError):
            # No release in the store: the service refuses to open.
            ServeSession(SessionSpec(service=ServiceConfig(tmp_path)))
        assert blas_threads() == before
