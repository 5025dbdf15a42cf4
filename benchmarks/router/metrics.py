"""Metric names, units and bounds; the percentile rule; span arithmetic.

``BENCHMARK.json`` lists exactly the names below (the test suite pins the
two against each other).  Its contract gates every ``end_to_end`` metric on
every workload: it must never be zero, and its spread over ten seeds must
stay inside its bound.  So only the ``GATED`` metrics go there.  The others
— the tail percentiles, which one burst of interference on the sandbox
moves by 30%, and the three metrics that exist on one workload only — are
end-to-end all the same: a full run reports them as such and ``run.py
--compare`` applies their bounds, but ``BENCHMARK.json`` carries them in its
unbounded ``per_layer`` list.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

# (name, unit, better, bound, the one workload it exists on or None).
END_TO_END: Tuple[Tuple[str, str, str, float, Optional[str]], ...] = (
    ("docs_per_s", "1/s", "higher", 0.25, None),
    ("events_per_s", "1/s", "higher", 0.25, None),
    ("submit_p50_ms", "ms", "lower", 0.25, None),
    ("setup_s", "s", "lower", 0.25, None),
    ("peak_rss_mb", "MB", "lower", 0.10, None),
    ("submit_p95_ms", "ms", "lower", 0.25, None),
    ("submit_p99_ms", "ms", "lower", 0.25, "feed_small_verdict"),
    ("payload_mb_out_per_s", "MB/s", "higher", 0.25, "extract_substream"),
    ("churn_op_mean_us", "us", "lower", 0.25, "churn_large_verdict"),
)

#: The end-to-end metrics ``BENCHMARK.json`` gates (see above).
GATED = ("docs_per_s", "events_per_s", "submit_p50_ms", "setup_s", "peak_rss_mb")

# (name, unit, better): from the traced pass and the set-up spans.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("parser.us_per_event", "us", "lower"),
    ("parser.mb_per_s", "MB/s", "higher"),
    ("parser.share", "ratio", "lower"),
    ("parser.mb_per_s_chunk64", "MB/s", "higher"),
    ("engine.reset_us_per_doc", "us", "lower"),
    ("engine.results_us_per_doc", "us", "lower"),
    ("engine.fixed_share", "ratio", "lower"),
    ("engine.feed_us_per_event", "us", "lower"),
    ("engine.index_build_s", "s", "lower"),
    ("compile.parse_rewrite_s", "s", "lower"),
    ("compile.rewritten_share", "ratio", "lower"),
    ("automaton.cold_first_pass_s", "s", "lower"),
    ("automaton.dfa_states", "count", "lower"),
    ("automaton.lookups_per_event", "ratio", "lower"),
    ("automaton.hit_ratio", "ratio", "higher"),
    ("automaton.states_materialized_per_doc", "count", "lower"),
    ("automaton.targeted_flushes_per_doc", "count", "lower"),
    ("automaton.full_flushes", "count", "lower"),
    ("matcher.expectations_created_per_doc", "count", "lower"),
    ("matcher.expectations_checked_per_event", "ratio", "lower"),
    ("matcher.conditions_created_per_doc", "count", "lower"),
    ("matcher.candidates_buffered_per_doc", "count", "lower"),
    ("matcher.max_live_expectations", "count", "lower"),
    ("delivery.substream_extra_us_per_event", "us", "lower"),
    ("delivery.ids_extra_us_per_event", "us", "lower"),
    ("delivery.us_per_subtree", "us", "lower"),
    ("delivery.subtrees_per_doc", "count", "lower"),
    ("delivery.bytes_out_per_byte_in", "ratio", "lower"),
    ("engine.add_us", "us", "lower"),
    ("engine.remove_us", "us", "lower"),
    ("engine.sync_us_per_doc", "us", "lower"),
    ("engine.vacuum_runs", "count", "lower"),
    ("engine.session_rebuilds", "count", "lower"),
    ("broker.chunks_per_doc", "count", "lower"),
    ("broker.events_skipped_share", "ratio", "higher"),
    ("broker.mb_in_per_s", "MB/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.submit_coverage", "ratio", "higher"),
)

UNITS: Dict[str, str] = {
    **{row[0]: row[1] for row in END_TO_END},
    **{row[0]: row[1] for row in PER_LAYER},
}


def bounds_for(workload: str) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` of the end-to-end metrics of ``workload``."""
    return {name: (better, bound)
            for name, _, better, bound, only in END_TO_END
            if only in (None, workload)}


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, fraction: float) -> int:
    """Samples ranked above the nearest-rank ``fraction`` percentile of ``count``."""
    return count - max(1, math.ceil(fraction * count))


def percentile(sorted_samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` for a tail percentile with fewer
    than ``MIN_SAMPLES_BEYOND`` samples beyond it (the median always reports)."""
    count = len(sorted_samples)
    if not count:
        return None
    beyond = samples_beyond(count, fraction)
    if fraction > 0.5 and beyond < MIN_SAMPLES_BEYOND:
        return None
    return sorted_samples[count - beyond - 1]




# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# A span is ``[name, start_ns, end_ns, parent_index_or_None, document_id]``;
# its identifier is its index in the tracer's list.
Span = List


def span_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, int, int]]:
    """``{name: (count, total_ns, self_ns)}``; self = span − its children."""
    covered = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, Tuple[int, int, int]] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        count, total, own = totals.get(name, (0, 0, 0))
        duration = end - start
        totals[name] = (count + 1, total + duration,
                        own + duration - covered[index])
    return totals
