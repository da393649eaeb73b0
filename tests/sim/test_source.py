"""Tests for the workload source: replayed and staged arrival records."""

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.sim.engine import Simulator
from repro.sim.rng import make_rng, spawn
from repro.sim.source import WorkloadSource


class _Recorder:
    def __init__(self):
        self.requests = []

    def on_arrival(self, request):
        self.requests.append(request)


class TestWorkloadSource:
    def test_replays_all_arrivals_in_order(self, uniform_workload):
        sim = Simulator()
        sink = _Recorder()
        source = WorkloadSource(sim, uniform_workload, sink)
        source.start()
        sim.run()
        assert len(sink.requests) == len(uniform_workload)
        arrivals = [r.arrival for r in sink.requests]
        assert arrivals == sorted(arrivals)
        assert source.exhausted

    def test_request_fields(self, toy_workload):
        sim = Simulator()
        sink = _Recorder()
        WorkloadSource(sim, toy_workload, sink, client_id=3).start()
        sim.run()
        assert [r.index for r in sink.requests] == [0, 1, 2, 3, 4]
        assert all(r.client_id == 3 for r in sink.requests)

    def test_arrival_time_matches_sim_clock(self, toy_workload):
        sim = Simulator()
        seen = []

        class ClockSink:
            def on_arrival(self, request):
                seen.append((sim.now, request.arrival))

        WorkloadSource(sim, toy_workload, ClockSink()).start()
        sim.run()
        assert all(now == arrival for now, arrival in seen)

    def test_on_request_hook(self, toy_workload):
        sim = Simulator()
        hooked = []
        source = WorkloadSource(
            sim, toy_workload, _Recorder(), on_request=hooked.append
        )
        source.start()
        sim.run()
        assert len(hooked) == 5

    def test_empty_workload(self, empty_workload):
        sim = Simulator()
        source = WorkloadSource(sim, empty_workload, _Recorder())
        source.start()
        sim.run()
        assert source.exhausted


class TestStagedSource:
    """An empty source fed by ``stage``: the serving plane's ingestion path."""

    def _source(self):
        sim = Simulator()
        sink = _Recorder()
        return sim, WorkloadSource(sim, None, sink), sink.requests

    def test_out_of_order_staging_rejected(self):
        _, source, _ = self._source()
        source.stage(2.0)
        with pytest.raises(ConfigurationError, match="precedes"):
            source.stage(1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            source.stage(3.0, size=0.0)

    def test_delivery_matches_workload_source_semantics(self):
        sim, source, delivered = self._source()
        source.stage(0.5)
        source.stage(0.5)
        source.stage(1.25, size=3.0)
        assert source.horizon == 1.25
        source.start()
        sim.run()
        assert [r.arrival for r in delivered] == [0.5, 0.5, 1.25]
        assert [r.index for r in delivered] == [0, 1, 2]
        assert delivered[2].service_demand == 3.0
        assert source.exhausted

    def test_staging_after_drain_rearms(self):
        sim, source, delivered = self._source()
        source.stage(1.0)
        source.start()
        sim.run()
        assert len(delivered) == 1 and source.exhausted
        source.stage(5.0)
        assert not source.exhausted
        sim.run()
        assert len(delivered) == 2 and sim.now == 5.0

    def test_past_arrival_fires_now_not_in_history(self):
        sim, source, delivered = self._source()
        source.stage(3.0)
        source.start()
        sim.run()
        # Stage an arrival timestamped in the simulator's past: it is
        # delivered immediately, never by rewinding the clock.
        source.stage(3.0)
        sim.run()
        assert len(delivered) == 2
        assert sim.now == 3.0

    @pytest.mark.parametrize("sized", [False, True], ids=["unsized", "sized"])
    def test_staged_workload_delivers_like_replay(self, uniform_workload, sized):
        workload = uniform_workload
        if sized:
            sizes = np.random.default_rng(5).choice([0.5, 1.0, 4.0], len(workload))
            workload = Workload(workload.arrivals.copy(), name="sized", sizes=sizes)

        def delivered(make_source):
            sim = Simulator()
            sink = _Recorder()
            make_source(sim, sink).start()
            sim.run()
            return [(r.arrival, r.index, r.service_demand) for r in sink.requests]

        def staged(sim, sink):
            source = WorkloadSource(sim, None, sink)
            source.stage_workload(workload)
            return source

        replayed = delivered(lambda sim, sink: WorkloadSource(sim, workload, sink))
        assert replayed == delivered(staged)
        assert len(replayed) == len(workload)


class TestRng:
    def test_make_rng_from_int(self):
        a = make_rng(7)
        b = make_rng(7)
        assert a.random() == b.random()

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_independent(self):
        children = spawn(make_rng(0), 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3
