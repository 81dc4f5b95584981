"""CLI for the experiment runners: ``python -m repro.experiments``."""

from __future__ import annotations

import argparse

from repro.experiments.runners import RUNNERS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures",
    )
    parser.add_argument("experiment", choices=sorted(RUNNERS) + ["all"])
    parser.add_argument("--time-limit", type=float, default=60.0,
                        help="seconds per solver call where applicable")
    parser.add_argument("--backend", default=None,
                        help="solver backend for every synthesis call "
                             "(e.g. highs, branch_bound, portfolio)")
    parser.add_argument("-o", "--outdir", default="experiment_output",
                        help="directory for reports and SVG artifacts")
    args = parser.parse_args(argv)

    names = sorted(RUNNERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = RUNNERS[name]
        kwargs = {"outdir": args.outdir}
        if "time_limit" in runner.__code__.co_varnames:
            kwargs["time_limit"] = args.time_limit
        if args.backend and "backend" in runner.__code__.co_varnames:
            kwargs["backend"] = args.backend
        report = runner(**kwargs)
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
