"""Per-event warning scan, kept as the reference for pipeline.detect_warning.

This is the scan the package used before the drops were built once per
call: at every event from 2 on it rebuilds the list of drops up to that
event and takes the median of all but the last. It is quadratic in the
series length but reads exactly as the criterion is stated, so the tests
hold detect_warning to it. The series and threshold are taken as valid
(finite); the input checks are detect_warning's own.
"""

from __future__ import annotations

import statistics

from tunneltda.pipeline import WarningReport


def detect_warning(series, threshold, rapid_change_ratio) -> WarningReport:
    series = [float(v) for v in series]
    at_threshold = []
    trigger_event = None
    criterion = None
    for e, value in enumerate(series):
        if threshold is not None:
            if abs(value - threshold) <= 1e-12 * max(1.0, abs(threshold)):
                at_threshold.append(e)
            elif value < threshold:
                trigger_event, criterion = e, "threshold"
                break
        if e >= 2:
            drops = [series[i - 1] - series[i] for i in range(1, e + 1)]
            median_prior = statistics.median(drops[:-1])
            if median_prior > 0 and drops[-1] > rapid_change_ratio * median_prior:
                trigger_event, criterion = e, "rapid-change"
                break
    return WarningReport(
        triggered=trigger_event is not None,
        trigger_event=trigger_event,
        criterion=criterion,
        series=tuple(series),
        threshold=threshold,
        rapid_change_ratio=rapid_change_ratio,
        at_threshold_events=tuple(at_threshold),
        notes=tuple(f"event {e} sits exactly at the threshold {threshold}"
                    for e in at_threshold),
    )
