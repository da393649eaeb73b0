"""Engine-parity differential: scalar event loop vs columnar batch.

Mirrors the kernel-parity suite one layer up: the differential harness
must certify bit-identical behavior on the golden corpus and fuzzed
traces, and — crucially — must *detect* an engine that drifts (checked
by injecting bugs into the batch engine's admission bound).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.check.corpus import load_golden
from repro.check.differential import ENGINE_PARITY_POLICIES, engine_parity
from repro.check.fuzz import make_case
from repro.core.workload import Workload
from repro.record import ParityReport
from repro.sim import batch

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def parity_for(workload, capacity, delta):
    """The CLI's parameterization: Q1 at capacity, overflow at half."""
    return engine_parity(workload, capacity, max(1.0, capacity / 2), delta)


class TestGoldenCorpus:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_traces_bit_identical(self, path):
        golden = load_golden(path)
        report = parity_for(golden.workload(), golden.capacity, golden.delta)
        assert report.ok, report.summary()
        assert report.bit_identical, report.summary()
        assert report.max_drift == 0.0


class TestFuzzedTraces:
    @pytest.mark.parametrize(
        "generator,index",
        [("poisson", 0), ("onoff", 1), ("bmodel", 2), ("adversarial", 3)],
    )
    def test_fuzzed_traces_bit_identical(self, generator, index):
        case = make_case(generator, 29, index, max_requests=150)
        report = parity_for(case.workload(), case.capacity, case.delta)
        assert report.ok, report.summary()
        assert report.bit_identical, report.summary()

    def test_empty_trace(self):
        report = parity_for(Workload([], name="empty"), 10.0, 1.0)
        assert report.ok and report.bit_identical


class TestReportShape:
    def test_summary_strings(self):
        report = parity_for(Workload([0.0, 0.1]), 10.0, 1.0)
        assert "engine parity OK" in report.summary()
        assert "bit-identical" in report.summary()
        assert report.policies == ENGINE_PARITY_POLICIES

    def test_ineligible_policy_is_a_divergence(self):
        report = engine_parity(
            Workload([0.0]), 10.0, 5.0, 1.0, policies=("edf",)
        )
        assert not report.ok
        assert "not batch-eligible" in report.summary()

    def test_drift_formats_in_summary(self):
        report = ParityReport(
            label="engine parity", workload_name="w",
            policies=("fcfs",), max_drift=2.5e-13,
        )
        assert report.ok
        assert "max drift" in report.summary()


class TestInjectedBugDetection:
    """The harness must *fail* when the batch engine is wrong."""

    @pytest.fixture
    def bursty(self):
        rng = np.random.default_rng(41)
        arrivals = np.sort(rng.uniform(0.0, 2.0, 400))
        return Workload(arrivals, name="bursty")

    def test_off_by_one_limit_detected(self, bursty, monkeypatch):
        """An admission bound off by one shows up as an admitted-set
        divergence, not a silent near-miss."""
        true_limit = batch._admission_limit
        monkeypatch.setattr(
            batch, "_admission_limit", lambda c, d: true_limit(c, d) + 1
        )
        report = parity_for(bursty, 50.0, 0.1)
        assert not report.ok
        assert any("admitted sets differ" in d for d in report.divergences)

    def test_service_time_drift_detected(self, bursty, monkeypatch):
        """A batch server running a hair fast trips the drift check."""
        true_fcfs = batch.fcfs_completions

        def fast_fcfs(arrivals, capacity):
            return true_fcfs(arrivals, capacity * (1.0 + 1e-6))

        monkeypatch.setattr(batch, "fcfs_completions", fast_fcfs)
        report = engine_parity(bursty, 50.0, 25.0, 0.1, policies=("fcfs",))
        assert not report.ok
        assert any("drift" in d for d in report.divergences)
        assert not report.bit_identical

    def test_dropped_request_detected(self, bursty, monkeypatch):
        """A batch run that loses a request fails the completion count."""
        true_run = batch.run_batch

        def lossy_run(arrivals, policy, cmin, delta_c, delta):
            return true_run(arrivals[:-1], policy, cmin, delta_c, delta)

        monkeypatch.setattr(batch, "run_batch", lossy_run)
        report = engine_parity(bursty, 50.0, 25.0, 0.1, policies=("fcfs",))
        assert not report.ok
        assert any("completed" in d for d in report.divergences)
