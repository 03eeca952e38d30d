"""Measurement helpers for the paper's analysis figures."""

from .activity import ActivityTrace, activity_trace
from .export import result_records, save_all, save_csv, save_json
from .report import geometric_mean, render_series, render_table

__all__ = [
    "ActivityTrace",
    "activity_trace",
    "geometric_mean",
    "render_series",
    "render_table",
    "result_records",
    "save_all",
    "save_csv",
    "save_json",
]
