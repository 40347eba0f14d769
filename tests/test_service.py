"""Tests for the request-oriented service layer."""

import io

import pytest

from conftest import cycle_graph, path_graph
from repro import service as service_mod
from repro.errors import LandmarkError, ReproError
from repro.service import (
    AddLandmarkRequest,
    ConstrainedDistanceRequest,
    DistanceRequest,
    HCLService,
    RemoveLandmarkRequest,
)


class TestRequests:
    def test_distance_request(self):
        svc = HCLService.build(path_graph(4), [1])
        assert svc.submit(DistanceRequest(0, 3)) == 3.0
        assert svc.stats.queries == 1

    def test_constrained_request(self):
        svc = HCLService.build(cycle_graph(6), [0])
        assert svc.submit(ConstrainedDistanceRequest(2, 4)) == 4.0

    def test_mutations_change_answers(self):
        svc = HCLService.build(cycle_graph(8), [0])
        assert svc.submit(ConstrainedDistanceRequest(3, 5)) == 6.0
        svc.submit(AddLandmarkRequest(4))
        assert svc.submit(ConstrainedDistanceRequest(3, 5)) == 2.0
        svc.submit(RemoveLandmarkRequest(4))
        assert svc.submit(ConstrainedDistanceRequest(3, 5)) == 6.0
        assert svc.stats.mutations == 2

    def test_failure_audited_and_raised(self):
        svc = HCLService.build(path_graph(3), [1])
        with pytest.raises(LandmarkError):
            svc.submit(AddLandmarkRequest(1))
        assert svc.stats.failures == 1
        record = svc.audit[-1]
        assert not record.ok
        assert "landmark" in record.error

    def test_unknown_request_rejected(self):
        svc = HCLService.build(path_graph(3), [1])
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            svc.submit(object())

    def test_batch_processing(self):
        svc = HCLService.build(path_graph(6), [2])
        records = svc.submit_batch(
            [
                DistanceRequest(0, 5),
                AddLandmarkRequest(4),
                DistanceRequest(0, 5),
            ]
        )
        assert len(records) == 3
        assert all(r.ok for r in records)
        assert records[0].result == records[2].result == 5.0

    def test_audit_records_timing(self):
        svc = HCLService.build(path_graph(4), [1])
        svc.submit(DistanceRequest(0, 3))
        assert svc.audit[0].seconds >= 0.0

    def test_audit_log_is_a_ring_that_counts_evictions(self, monkeypatch):
        assert HCLService.build(path_graph(4), [1]).audit.maxlen == (
            service_mod.AUDIT_MAXLEN
        )
        monkeypatch.setattr(service_mod, "AUDIT_MAXLEN", 5)
        svc = HCLService.build(path_graph(6), [2])
        for t in range(6):
            svc.submit(DistanceRequest(0, t))
        assert len(svc.audit) == 5
        assert svc.metrics()["counters"]["audit.dropped"] == 1
        assert [r.request.t for r in svc.audit] == [1, 2, 3, 4, 5]
        # A batch longer than the ring still returns its own records.
        for on_error in ("stop", "continue", "rollback"):
            batch = [DistanceRequest(1, t) for t in range(6)]
            records = svc.submit_batch(batch, on_error=on_error)
            assert [r.request for r in records] == batch
        assert len(svc.audit) == 5
        assert svc.metrics()["counters"]["audit.dropped"] == 1 + 3 * 6
        # A failed request is audited, and counted, the same way.
        with pytest.raises(ReproError):
            svc.submit(DistanceRequest(0, 99))
        assert svc.audit[-1].ok is False
        assert len(svc.audit) == 5
        assert svc.metrics()["counters"]["audit.dropped"] == 2 + 3 * 6


class TestCacheIntegration:
    def test_repeated_queries_hit_cache(self):
        svc = HCLService.build(path_graph(5), [2])
        svc.submit(DistanceRequest(0, 4))
        svc.submit(DistanceRequest(0, 4))
        assert svc.metrics()["counters"]["cache.hits"] == 1

    def test_cache_stats_accessor_is_deprecated_alias(self):
        svc = HCLService.build(path_graph(5), [2])
        svc.submit(DistanceRequest(0, 4))
        with pytest.warns(DeprecationWarning):
            stats = svc.cache_stats
        assert stats.misses == 1  # same live CacheStats object


class TestCheckpointing:
    def test_roundtrip(self):
        g = cycle_graph(8)
        svc = HCLService.build(g, [0])
        svc.submit(AddLandmarkRequest(4))
        buf = io.BytesIO()
        svc.checkpoint(buf)
        buf.seek(0)
        restored = HCLService.restore(g, buf)
        assert restored.landmarks == {0, 4}
        assert restored.submit(ConstrainedDistanceRequest(3, 5)) == 2.0

    def test_restored_service_stays_dynamic(self):
        g = cycle_graph(8)
        svc = HCLService.build(g, [0, 4])
        buf = io.BytesIO()
        svc.checkpoint(buf)
        buf.seek(0)
        restored = HCLService.restore(g, buf)
        restored.submit(RemoveLandmarkRequest(4))
        assert restored.submit(ConstrainedDistanceRequest(3, 5)) == 6.0
