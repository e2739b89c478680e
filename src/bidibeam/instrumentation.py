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
    if report.algorithm not in ("vbs", "bidis", "bidia"):
        return BoundsResult(False, [f"unknown algorithm {report.algorithm!r}"])
    failures: list[str] = []

    def require(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    # bidia makes two searches of width B/2, vbs and bidis one of width B.
    bidia = report.algorithm == "bidia"
    searches, width, times, name = (2, b // 2, "2*", "(B/2)") if bidia else (1, b, "", "B")
    bound = searches * t * width * v
    require(report.expansions <= bound, f"expansions {report.expansions} > {times}T*{name}*V = {bound}")
    for step, size in report.sort_events:
        require(
            size <= width * v,
            f"sort at step {step} handled {size} > {name}*V = {width * v} candidates",
        )
    if report.algorithm == "bidis":
        require(report.rescoring_evals == b, f"rescoring_evals {report.rescoring_evals} != B = {b}")
    if bidia:
        pairs = width * width
        require(
            report.pairwise_sim_evals == pairs,
            f"pairwise_sim_evals {report.pairwise_sim_evals} != (B/2)^2 = {pairs}",
        )
        require(
            1 <= report.exact_sim_evals <= pairs,
            f"exact_sim_evals {report.exact_sim_evals} outside [1, (B/2)^2 = {pairs}]",
        )
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
