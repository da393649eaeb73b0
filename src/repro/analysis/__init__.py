"""Analysis toolkit: response-time, burstiness, and report rendering."""

from .burstiness import (
    burstiness_summary,
    hurst_aggregated_variance,
    hurst_rs,
    idc_curve,
    index_of_dispersion,
)
from .comparison import PolicyComparison, compare_policies
from .gnuplot import (
    export_figure2,
    export_figure4,
    export_figure6,
    export_figure7,
    export_figure8,
    export_table1,
    write_dat,
)
from .multiplexing import MultiplexingStudy, packing_count, study
from .reporting import ascii_bars, ascii_cdf, ascii_series, format_table
from .response import (
    cdf_at,
    cdf_points,
    compliance,
    fcfs_response_times,
    log_grid_ms,
    time_to_compliance,
    windowed_compliance,
)

__all__ = [
    "burstiness_summary",
    "hurst_aggregated_variance",
    "hurst_rs",
    "idc_curve",
    "index_of_dispersion",
    "PolicyComparison",
    "compare_policies",
    "export_figure2",
    "export_figure4",
    "export_figure6",
    "export_figure7",
    "export_figure8",
    "export_table1",
    "write_dat",
    "MultiplexingStudy",
    "packing_count",
    "study",
    "ascii_bars",
    "ascii_cdf",
    "ascii_series",
    "format_table",
    "cdf_at",
    "cdf_points",
    "compliance",
    "fcfs_response_times",
    "log_grid_ms",
    "time_to_compliance",
    "windowed_compliance",
]
