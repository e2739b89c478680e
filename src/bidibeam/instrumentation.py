"""Exact operation counters and bound checks for the three decoders.

Counters record candidate expansions (hypothesis x vocabulary-token scoring
events), per-step sort sizes, cross-beam pairs considered, exact
dissimilarity evaluations among them and reverse re-scoring passes, so the
advertised complexity bounds can be checked on real runs instead of
asymptotic timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ComplexityReport:
    algorithm: str
    expansions: int = 0
    sort_events: list[tuple[int, int]] = field(default_factory=list)
    pairwise_sim_evals: int = 0
    exact_sim_evals: int = 0
    rescoring_evals: int = 0

    def merge_search(self, other: "ComplexityReport") -> None:
        """Fold a sub-search's counters into this report."""
        self.expansions += other.expansions
        self.sort_events.extend(other.sort_events)


@dataclass
class BoundsResult:
    passed: bool
    failures: list[str]

    def __bool__(self) -> bool:
        return self.passed


def check_bounds(report: ComplexityReport, b: int, v: int, t: int) -> BoundsResult:
    """Check a run's counters against the per-algorithm bounds.

    vbs/bidis: expansions <= T*B*V and every sort handles <= B*V candidates;
    bidis additionally re-scores each of the B candidates exactly once.
    bidia: expansions <= 2*T*(B/2)*V over its two half-beam searches, each
    sort handles <= (B/2)*V candidates, exactly (B/2)^2 cross-beam pairs are
    considered and between 1 and (B/2)^2 of them are evaluated exactly.
    """
    failures: list[str] = []

    def require(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    if report.algorithm in ("vbs", "bidis"):
        require(
            report.expansions <= t * b * v,
            f"expansions {report.expansions} > T*B*V = {t * b * v}",
        )
        for step, size in report.sort_events:
            require(
                size <= b * v,
                f"sort at step {step} handled {size} > B*V = {b * v} candidates",
            )
        if report.algorithm == "bidis":
            require(
                report.rescoring_evals == b,
                f"rescoring_evals {report.rescoring_evals} != B = {b}",
            )
    elif report.algorithm == "bidia":
        half = b // 2
        require(
            report.expansions <= 2 * t * half * v,
            f"expansions {report.expansions} > 2*T*(B/2)*V = {2 * t * half * v}",
        )
        for step, size in report.sort_events:
            require(
                size <= half * v,
                f"sort at step {step} handled {size} > (B/2)*V = {half * v} candidates",
            )
        require(
            report.pairwise_sim_evals == half * half,
            f"pairwise_sim_evals {report.pairwise_sim_evals} != (B/2)^2 = {half * half}",
        )
        require(
            1 <= report.exact_sim_evals <= half * half,
            f"exact_sim_evals {report.exact_sim_evals} outside [1, (B/2)^2 = {half * half}]",
        )
    else:
        failures.append(f"unknown algorithm {report.algorithm!r}")
    return BoundsResult(not failures, failures)


CSV_HEADER = (
    "algorithm",
    "expansions",
    "max_sort_candidates",
    "sort_steps",
    "pairwise_sim_evals",
    "exact_sim_evals",
    "rescoring_evals",
)


def report_csv_row(report: ComplexityReport) -> tuple:
    """Flatten a report into one CSV row matching CSV_HEADER."""
    max_sort = max((size for _, size in report.sort_events), default=0)
    return (
        report.algorithm,
        report.expansions,
        max_sort,
        len(report.sort_events),
        report.pairwise_sim_evals,
        report.exact_sim_evals,
        report.rescoring_evals,
    )
