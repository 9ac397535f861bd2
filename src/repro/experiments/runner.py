"""Run every experiment and produce one consolidated report.

``python -m repro.experiments.runner --scale small`` regenerates Table 1,
Figure 6, Figure 7 and the timing measurement, prints the formatted tables
and (optionally) writes them as a Markdown report (``--output``).
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.reporting import format_rows, rows_to_markdown
from repro.experiments.table1 import run_table1
from repro.experiments.timing import run_timing
from repro.utils.logging import enable_console_logging, get_logger

logger = get_logger(__name__)


def run_all_experiments(
    scale: Optional[ExperimentScale] = None,
    *,
    seed: int = 0,
    include_figure7: bool = True,
) -> Dict[str, object]:
    """Run Table 1, Figure 6, Figure 7 and the timing experiment.

    Returns a dictionary with the result object of each experiment, keyed by
    ``"table1"``, ``"figure6"``, ``"figure7"`` and ``"timing"``.
    """
    scale = scale or get_scale("small")
    results: Dict[str, object] = {}
    logger.info("running Table 1 at scale %s", scale.name)
    results["table1"] = run_table1(scale, seed=seed)
    logger.info("running Figure 6 at scale %s", scale.name)
    results["figure6"] = run_figure6(scale, seed=seed)
    if include_figure7:
        logger.info("running Figure 7 at scale %s", scale.name)
        results["figure7"] = run_figure7(scale, seed=seed)
    logger.info("running timing at scale %s", scale.name)
    results["timing"] = run_timing(scale, seed=seed)
    return results


def report_text(results: Dict[str, object]) -> str:
    """Plain-text report of every experiment in ``results``."""
    sections = []
    if "table1" in results:
        sections.append(
            format_rows([row.as_dict() for row in results["table1"]], title="Table 1 — dataset statistics")
        )
    if "figure6" in results:
        sections.append(
            format_rows(results["figure6"].as_dicts(), title="Figure 6 — selected cells per cycle")
        )
    if "figure7" in results:
        sections.append(
            format_rows(results["figure7"].as_dicts(), title="Figure 7 — transfer learning")
        )
    if "timing" in results:
        sections.append(
            format_rows([results["timing"].as_dict()], title="Training time (paper §5.4)")
        )
    return "\n\n".join(sections)


def report_markdown(results: Dict[str, object]) -> str:
    """Markdown report of every experiment in ``results``."""
    sections = []
    if "table1" in results:
        sections.append(
            rows_to_markdown([row.as_dict() for row in results["table1"]], title="Table 1 — dataset statistics")
        )
    if "figure6" in results:
        sections.append(
            rows_to_markdown(results["figure6"].as_dicts(), title="Figure 6 — selected cells per cycle")
        )
    if "figure7" in results:
        sections.append(
            rows_to_markdown(results["figure7"].as_dicts(), title="Figure 7 — transfer learning")
        )
    if "timing" in results:
        sections.append(
            rows_to_markdown([results["timing"].as_dict()], title="Training time (paper §5.4)")
        )
    return "\n\n".join(sections)


def main(argv: Optional[list] = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description="Run the DR-Cell reproduction experiments")
    parser.add_argument("--scale", default="small", help="tiny, small, medium, or full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-figure7", action="store_true", help="skip the transfer experiment")
    parser.add_argument("--output", type=Path, default=None, help="write a Markdown report here")
    args = parser.parse_args(argv)

    enable_console_logging()
    scale = get_scale(args.scale)
    results = run_all_experiments(scale, seed=args.seed, include_figure7=not args.skip_figure7)
    print(report_text(results))
    if args.output is not None:
        args.output.write_text(report_markdown(results), encoding="utf-8")
        print(f"\nMarkdown report written to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
