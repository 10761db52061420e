"""Result containers with paper-style text rendering.

``python -m repro <name>`` prints these so the regenerated tables/figures
can be eyeballed against the paper; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class Table:
    """A simple left-aligned text table."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append([self._format(cell) for cell in cells])

    @staticmethod
    def _format(cell: object) -> str:
        if isinstance(cell, float):
            # One decimal for human-scale magnitudes (ms, Mbps); three
            # significant digits for small values (SSIM, probabilities).
            return f"{cell:.1f}" if abs(cell) >= 10 else f"{cell:.3g}"
        return str(cell)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        header = " | ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class SeriesSet:
    """Named (x, y) series, e.g. one line per CCA in Fig. 1a."""

    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def add(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        self.series[name] = list(points)

    def render(self, max_points: int = 12) -> str:
        lines = [f"{self.title}  ({self.x_label} vs {self.y_label})"]
        for name, points in self.series.items():
            if len(points) > max_points:
                step = (len(points) - 1) / (max_points - 1)
                sampled = [points[int(round(i * step))] for i in range(max_points)]
            else:
                sampled = list(points)
            rendered = ", ".join(f"({x:.3g}, {y:.4g})" for x, y in sampled)
            lines.append(f"  {name}: {rendered}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class PaperComparison:
    """One paper-reported number next to the measured one."""

    metric: str
    paper_value: float
    measured_value: float
    unit: str = ""

    @property
    def ratio(self) -> Optional[float]:
        if self.paper_value == 0:
            return None
        return self.measured_value / self.paper_value

    def render(self) -> str:
        ratio = self.ratio
        ratio_text = f" ({ratio:.2f}x paper)" if ratio is not None else ""
        return (
            f"{self.metric}: paper {self.paper_value:g}{self.unit}, "
            f"measured {self.measured_value:g}{self.unit}{ratio_text}"
        )


@dataclass
class ExperimentResult:
    """Everything one experiment run produced."""

    name: str
    description: str = ""
    tables: List[Table] = field(default_factory=list)
    series: List[SeriesSet] = field(default_factory=list)
    comparisons: List[PaperComparison] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Free-form numeric outputs for programmatic assertions.
    values: Dict[str, float] = field(default_factory=dict)
    #: The paper's shape claims, each a predicate over ``values`` evaluated
    #: by the run that produced them: claim -> held.
    shapes: Dict[str, bool] = field(default_factory=dict)
    #: Known divergences from the paper that this repo's mechanism pins,
    #: kept apart from ``shapes``: claim -> held.
    pins: Dict[str, bool] = field(default_factory=dict)
    #: Total kernel events across every simulation unit this experiment ran.
    #: Deterministic for a given seed, so it doubles as a replay checksum;
    #: benchmarks divide it by wall-clock for events/sec.
    events_processed: int = 0
    #: On-disk artifacts this run produced, keyed by a short label — e.g.
    #: exported ``repro.obs`` JSONL traces ("trace:cubic" -> path), ready
    #: for ``python -m repro obs summarize``.
    artifacts: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"=== {self.name} ==="]
        if self.description:
            parts.append(self.description)
        for table in self.tables:
            parts.append(table.render())
        for series_set in self.series:
            parts.append(series_set.render())
        if self.comparisons:
            parts.append("Paper vs measured:")
            parts.extend(f"  {c.render()}" for c in self.comparisons)
        for note in self.notes:
            parts.append(f"note: {note}")
        for label, checks in (("shape", self.shapes), ("divergence pin", self.pins)):
            if checks:
                parts.append(
                    "\n".join(
                        f"{label}: {claim}: {'held' if held else 'FAILED'}"
                        for claim, held in checks.items()
                    )
                )
        if self.artifacts:
            listed = "\n".join(
                f"  {label}: {path}" for label, path in sorted(self.artifacts.items())
            )
            parts.append("artifacts (try `python -m repro obs summarize <path>`):\n" + listed)
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.render()
