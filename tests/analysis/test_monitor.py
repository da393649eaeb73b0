"""Windowed SLO compliance over arrival and response columns."""

import numpy as np
import pytest

from repro.analysis.response import compliance, windowed_compliance
from repro.exceptions import ConfigurationError


def _windows(pairs, bound=0.1, window=1.0):
    arrivals, responses = zip(*pairs) if pairs else ((), ())
    return windowed_compliance(arrivals, responses, bound, window=window)


class TestValidation:
    def test_parameters(self):
        with pytest.raises(ConfigurationError):
            windowed_compliance([0.0], [0.1], bound=0.0)
        with pytest.raises(ConfigurationError):
            windowed_compliance([0.0], [0.1], bound=0.1, window=0.0)
        with pytest.raises(ConfigurationError, match="response times"):
            windowed_compliance([0.0, 1.0], [0.1], bound=0.1)


class TestRecording:
    def test_empty(self):
        starts, totals, fractions = _windows([])
        assert starts.size == totals.size == fractions.size == 0
        assert compliance([], 0.1) == 1.0

    def test_window_bucketing_by_arrival(self):
        starts, totals, fractions = _windows(
            [
                (0.5, 0.05),  # window 0, within
                (0.9, 0.50),  # window 0, miss
                (2.1, 0.01),  # window 2, within
            ]
        )
        # Dense, including the empty window 1 (which reads 1.0).
        assert starts.tolist() == [0.0, 1.0, 2.0]
        assert totals.tolist() == [2, 0, 1]
        assert fractions.tolist() == [0.5, 1.0, 1.0]

    def test_boundary_inclusive(self):
        _, _, fractions = _windows([(0.0, 0.1)])
        assert fractions.tolist() == [1.0]
        assert compliance([0.1], 0.1) == 1.0

    def test_violations(self):
        pairs = [(0.5, 0.01)] * 3 + [(0.5, 0.5)]  # window 0: 3/4, meets 0.75
        pairs += [(1.5, 0.5)] * 2  # window 1: 0/2
        starts, _, fractions = _windows(pairs)
        assert starts[fractions < 0.75].tolist() == [1.0]

    def test_availability(self):
        starts, totals, fractions = _windows([(0.5, 0.01), (1.5, 0.99), (3.5, 0.01)])
        # Window 2 is empty: it is neither good nor counted.
        assert totals.tolist() == [1, 1, 0, 1]
        assert np.mean(fractions[totals > 0] >= 0.9) == pytest.approx(2 / 3)

    def test_overall_fraction(self):
        _, totals, fractions = _windows([(0.0, 0.05), (0.0, 0.50)])
        assert totals.tolist() == [2]
        assert fractions.tolist() == [0.5]

    def test_record_requests(self):
        """Columns read off completed requests; offset windows start at
        the first occupied one, and a never-completed (NaN) response
        counts against its window."""
        from repro.core.request import Request

        done = Request(arrival=11.0)
        done.completion = 11.05
        starts, totals, fractions = windowed_compliance(
            [done.arrival, 12.5], [done.response_time, np.nan], 0.1, window=0.5
        )
        assert starts.tolist() == [11.0, 11.5, 12.0, 12.5]
        assert totals.tolist() == [1, 0, 0, 1]
        assert fractions.tolist() == [1.0, 1.0, 1.0, 0.0]
