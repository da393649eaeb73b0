"""RunRecord and compare_records: one outcome type, one comparator.

The comparator must flag every kind of divergence between two records
of one trace, on both parity surfaces it backs: the batch engine against
the event engine, and the serving plane against the offline simulator.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.record import RunRecord, compare_records
from repro.serve import ServiceHarness
from repro.shaping import RunConfig, run_policy
from repro.traces.synthetic import poisson_workload

CMIN, DELTA_C, DELTA = 4.0, 2.0, 0.5
CONFIG = RunConfig(CMIN, DELTA_C, DELTA)


@pytest.fixture(scope="module")
def bursty():
    base = poisson_workload(6.0, duration=10.0, seed=5).arrivals
    storms = np.concatenate([np.full(8, t) for t in (2.0, 6.0)])
    return Workload(np.sort(np.concatenate([base, storms])), name="bursty")


@pytest.fixture(scope="module")
def reference(bursty):
    return run_policy(bursty, "split", config=CONFIG.with_engine("scalar"))


@pytest.fixture(scope="module")
def candidates(bursty):
    return {
        "engine": run_policy(bursty, "split", config=CONFIG.with_engine("batch")),
        "serve": ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(
            bursty, chunks=3
        ),
    }


def _perturb(record: RunRecord, kind: str) -> RunRecord:
    if kind == "ledger":
        ledger = dict(record.ledger)
        ledger["dropped"] += 1
        return replace(record, ledger=ledger)
    if kind == "misses":
        return replace(record, primary_misses=record.primary_misses + 1)
    responses = record.responses.copy()
    admitted = record.admitted.copy()
    index = int(np.nonzero(admitted)[0][0])
    if kind == "ulp":
        responses[index] = np.nextafter(responses[index], np.inf)
    elif kind == "flip":
        admitted[index] = not admitted[index]
    elif kind == "lost":
        responses[index] = np.nan
    perturbed = replace(record)
    # The columns are derived once and cached on the record; seed the
    # copy's cache with the perturbed ones.
    perturbed.__dict__.update(responses=responses, admitted=admitted)
    return perturbed


class TestCompareRecords:
    @pytest.mark.parametrize("side", ["engine", "serve"])
    def test_identical_records_agree(self, reference, candidates, side):
        report = compare_records(reference, candidates[side])
        assert report.ok and report.bit_identical, report.summary()

    @pytest.mark.parametrize(
        "kind,needle",
        [
            ("ulp", "drift"),
            ("flip", "admitted sets differ"),
            ("lost", "completed in one run only"),
            ("ledger", "ledgers differ"),
            ("misses", "primary misses"),
        ],
    )
    @pytest.mark.parametrize("side", ["engine", "serve"])
    def test_every_divergence_kind_is_flagged(
        self, reference, candidates, side, kind, needle
    ):
        report = compare_records(reference, _perturb(candidates[side], kind))
        assert not report.ok, (side, kind)
        assert any(needle in d for d in report.divergences), report.divergences

    def test_atol_tolerates_drift_but_reports_it(self, reference, candidates):
        drifted = _perturb(candidates["engine"], "ulp")
        report = compare_records(reference, drifted, atol=1e-9)
        assert report.ok
        assert not report.bit_identical and report.max_drift > 0


class TestRecordViews:
    def test_both_engines_record_a_conserving_run(self, reference, candidates):
        batch = candidates["engine"]
        assert batch.engine == "batch" and reference.engine == "scalar"
        assert batch.ledger == {"completed": batch.n_arrivals, "dropped": 0, "shed": 0}
        assert batch.conserved() and reference.conserved()

    def test_default_bound_is_the_deadline(self, reference):
        assert reference.fraction_within() == reference.fraction_within(DELTA)
        assert reference.effective_delta == DELTA

    def test_batch_records_need_requests_for_post_fault_compliance(
        self, candidates
    ):
        with pytest.raises(ConfigurationError, match="batch"):
            candidates["engine"].q1_compliance_after(0.0)

    def test_conservation_needs_every_arrival_accounted(self, reference):
        assert reference.ok
        short = replace(reference, n_arrivals=reference.n_arrivals + 1)
        assert not short.conserved()
        resident = replace(reference, ledger={**reference.ledger, "window": 1})
        assert not resident.conserved()

    def test_observed_workload_needs_a_closed_loop(self, reference):
        with pytest.raises(ConfigurationError, match="closed-loop"):
            reference.observed_workload()
