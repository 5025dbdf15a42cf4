"""Benchmark regression gate for the CI pipeline.

CI runs the multi-subscription SDI benchmark smoke on every build, which
rewrites ``BENCH_multi_query_sdi.json``.  This module compares the fresh
artifact against the baseline committed at the previous revision and fails
(exit code 1) when throughput collapsed on the gated metric: the lazy
DFA's warm events/sec (``automaton_sdi``) at the N=1000 scale, dropping by
more than the tolerance (25% by default).  The reference mode's column in
the same section (``events_per_sec_expectations``) is recorded but not
gated.  The substream
extraction throughput (``substream_extraction``) is tracked the same way
but as an *advisory* gate: reported on every run, never failing the build —
see :data:`ADVISORY_GATES`.

The tolerance absorbs runner noise within one CI runner class; it does *not*
make numbers comparable across machine generations — when the committed
baseline was produced on very different hardware, re-baseline by committing
a fresh artifact in the same change that explains why.

Usage (what the CI job runs, after copying the committed artifact aside
*before* the smoke overwrites it)::

    python -m repro.bench.regression /tmp/bench-baseline.json \\
        BENCH_multi_query_sdi.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Relative drop in events/sec beyond which the gate fails.
DEFAULT_TOLERANCE = 0.25

#: The default artifact section, metric and scale (kept for direct callers;
#: the CI entry point checks every gate in :data:`GATES`).  N=1000 is the
#: scale where dispatch regressions actually show; the small scales are
#: dominated by fixed setup cost and timer noise.
SECTION = "automaton_sdi"
METRIC = "events_per_sec_dfa"
SUBSCRIPTIONS = 1000

#: Every ``(section, metric)`` pair the CI gate pins, all at
#: :data:`SUBSCRIPTIONS`: the lazy DFA's warm throughput (the default
#: backend's steady state).
GATES: Tuple[Tuple[str, str], ...] = (
    (SECTION, METRIC),
)

#: Advisory gates: compared and reported exactly like :data:`GATES`, but
#: never fail the build, and a missing section (older baselines predate it)
#: is skipped rather than an error.  ``substream_extraction`` is advisory
#: while its trajectory accumulates — serialization-bound throughput has a
#: different noise profile than pure matching; ``subscription_churn``
#: (warm throughput after live add/remove churn) likewise while its
#: trajectory accumulates.  Promote either into :data:`GATES` once a few
#: runner generations of data exist.
ADVISORY_GATES: Tuple[Tuple[str, str], ...] = (
    ("substream_extraction", "events_per_sec_substream"),
    ("subscription_churn", "events_per_sec_churned"),
)


class RegressionGateError(ValueError):
    """Raised when an artifact is missing a gated section or scale."""


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of one baseline/fresh comparison."""

    baseline: float
    fresh: float
    tolerance: float
    subscriptions: int = SUBSCRIPTIONS
    section: str = SECTION
    metric: str = METRIC

    @property
    def ratio(self) -> float:
        """fresh / baseline (1.0 = unchanged, < 1.0 = slower)."""
        return self.fresh / self.baseline if self.baseline else float("inf")

    @property
    def ok(self) -> bool:
        """Whether the fresh run is within tolerance of the baseline."""
        return self.ratio >= 1.0 - self.tolerance

    def describe(self) -> str:
        verdict = "OK" if self.ok else "REGRESSION"
        return (
            f"{verdict}: {self.section}/{self.metric} at "
            f"N={self.subscriptions} "
            f"baseline={self.baseline:.0f} fresh={self.fresh:.0f} "
            f"({self.ratio:.2%} of baseline, tolerance "
            f"-{self.tolerance:.0%})"
        )


def extract_events_per_sec(artifact: dict,
                           subscriptions: int = SUBSCRIPTIONS,
                           section: str = SECTION,
                           metric: str = METRIC) -> float:
    """One gated metric from a parsed ``BENCH_multi_query_sdi.json``."""
    try:
        scales = artifact[section]["scales"]
    except (KeyError, TypeError):
        raise RegressionGateError(
            f"artifact has no '{section}' section with 'scales'") from None
    for row in scales:
        if row.get("subscriptions") == subscriptions:
            try:
                return float(row[metric])
            except (KeyError, TypeError, ValueError):
                raise RegressionGateError(
                    f"scale N={subscriptions} carries no numeric "
                    f"'{metric}' under '{section}'") from None
    raise RegressionGateError(
        f"artifact has no N={subscriptions} row under '{section}'")


def check_regression(baseline: dict, fresh: dict,
                     tolerance: float = DEFAULT_TOLERANCE,
                     subscriptions: int = SUBSCRIPTIONS,
                     section: str = SECTION,
                     metric: str = METRIC) -> RegressionReport:
    """Compare two parsed artifacts on one gate; never raises on a mere
    slowdown.

    Raises :class:`RegressionGateError` only when either artifact lacks the
    gated section — a broken pipeline should fail loudly, not vacuously
    pass.
    """
    if not 0 <= tolerance < 1:
        raise ValueError("tolerance must lie in [0, 1)")
    return RegressionReport(
        baseline=extract_events_per_sec(baseline, subscriptions, section,
                                        metric),
        fresh=extract_events_per_sec(fresh, subscriptions, section, metric),
        tolerance=tolerance,
        subscriptions=subscriptions,
        section=section,
        metric=metric,
    )


def check_all_gates(baseline: dict, fresh: dict,
                    tolerance: float = DEFAULT_TOLERANCE,
                    subscriptions: int = SUBSCRIPTIONS,
                    gates: Sequence[Tuple[str, str]] = GATES,
                    ) -> List[RegressionReport]:
    """One :class:`RegressionReport` per gate, in :data:`GATES` order."""
    return [check_regression(baseline, fresh, tolerance=tolerance,
                             subscriptions=subscriptions, section=section,
                             metric=metric)
            for section, metric in gates]


def check_advisory_gates(baseline: dict, fresh: dict,
                         tolerance: float = DEFAULT_TOLERANCE,
                         subscriptions: int = SUBSCRIPTIONS,
                         gates: Sequence[Tuple[str, str]] = ADVISORY_GATES,
                         ) -> List[RegressionReport]:
    """Reports for the advisory gates; sections absent from either artifact
    are skipped (a baseline committed before the section existed must not
    break the pipeline)."""
    reports: List[RegressionReport] = []
    for section, metric in gates:
        try:
            reports.append(check_regression(
                baseline, fresh, tolerance=tolerance,
                subscriptions=subscriptions, section=section, metric=metric))
        except RegressionGateError:
            continue
    return reports


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark throughput regressed beyond the "
                    "tolerance on any gated metric.")
    parser.add_argument("baseline", help="committed BENCH_multi_query_sdi.json")
    parser.add_argument("fresh", help="freshly generated artifact")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="maximum allowed relative drop (default 0.25)")
    parser.add_argument("--subscriptions", type=int, default=SUBSCRIPTIONS,
                        help="gated scale (default 1000)")
    args = parser.parse_args(argv)
    try:
        baseline, fresh = _load(args.baseline), _load(args.fresh)
        reports = check_all_gates(baseline, fresh,
                                  tolerance=args.tolerance,
                                  subscriptions=args.subscriptions)
    except (OSError, ValueError) as exc:
        print(f"benchmark regression gate: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print(report.describe())
    # Advisory gates are reported for the trajectory record but never
    # affect the exit code (see ADVISORY_GATES).
    for report in check_advisory_gates(baseline, fresh,
                                       tolerance=args.tolerance,
                                       subscriptions=args.subscriptions):
        print(f"{report.describe()} (advisory)")
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
