"""One-shot regeneration of every paper artifact into a single report.

``generate_report()`` runs each experiment harness (quick configurations by
default, paper-scale under ``REPRO_FULL=1`` or ``full=True``) and
concatenates the formatted artifacts — the programmatic equivalent of
running the whole benchmark suite, usable from the CLI (``python -m repro
experiment all``, where ``--full`` sets ``REPRO_FULL=1``) or from a
notebook.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments import fig2, fig3, fig4, fig5, fig6, table1
from repro.experiments.runner import is_full_scale
from repro.utils.timer import Timer

#: artifact name -> (config class, run, format)
ARTIFACTS: Dict[str, Tuple[type, Callable, Callable]] = {
    "fig2": (fig2.Fig2Config, fig2.run, fig2.format_result),
    "fig3": (fig3.Fig3Config, fig3.run, fig3.format_result),
    "fig4": (fig4.Fig4Config, fig4.run, fig4.format_result),
    "table1": (table1.Table1Config, table1.run, table1.format_result),
    "fig5": (fig5.Fig5Config, fig5.run, fig5.format_result),
    "fig6": (fig6.Fig6Config, fig6.run, fig6.format_result),
}


@dataclass
class ArtifactReport:
    name: str
    text: str
    seconds: float


def generate_report(
    names: Optional[List[str]] = None,
    full: Optional[bool] = None,
) -> List[ArtifactReport]:
    """Run the selected artifacts (all by default) and return their texts."""
    if full is None:
        full = is_full_scale()
    selected = names or list(ARTIFACTS)
    reports: List[ArtifactReport] = []
    for name in selected:
        config_cls, run, format_result = ARTIFACTS[name]
        config = config_cls.paper() if full else config_cls.quick()
        with Timer() as timer:
            result = run(config)
        reports.append(
            ArtifactReport(
                name=name,
                text=format_result(result),
                seconds=timer.elapsed,
            )
        )
    return reports


def render_report(reports: List[ArtifactReport]) -> str:
    """Concatenate artifact reports with headers into one document."""
    blocks = []
    for report in reports:
        rule = "=" * 72
        blocks.append(
            f"{rule}\n{report.name}  (generated in {report.seconds:.1f}s)\n{rule}\n"
            f"{report.text}"
        )
    return "\n\n".join(blocks)


def write_report(
    path: "str | pathlib.Path",
    names: Optional[List[str]] = None,
    full: Optional[bool] = None,
) -> pathlib.Path:
    """Generate and write the full report to ``path``."""
    path = pathlib.Path(path)
    reports = generate_report(names=names, full=full)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(reports) + "\n")
    return path
