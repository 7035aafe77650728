"""Command-line driver.

Subcommands: ingest, analyze, report, simulate; ingest is analyze with
no stages, and writes the same files and manifest. Flags mirror RunConfig
keys; a --config JSON file overrides the defaults and explicit flags
override the file. The file may hold only the keys its command reads: the
sim_* keys and outdir for simulate, the analysis keys, input and outdir for
the others. When --outdir is absent the BIMETAL_OUTPUT_DIR
environment variable is honored.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import fields

from .data import HPL_KINDS, SPREAD_AGGREGATIONS
from .errors import DataError, NumericalError
from .pipeline import RunConfig, load_bundle, run_analyze, run_report
from .pipeline import _analysis_keys, _read_config
from .simulate import SIM_KINDS, run_simulate

OUTPUT_DIR_ENV = "BIMETAL_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--outdir", help="output directory "
                        f"(default: ${OUTPUT_DIR_ENV} or ./out)")


def _add_ingest_opts(parser):
    parser.add_argument("--input", help="quotation table (CSV)")
    parser.add_argument("--max-gap", type=int, dest="max_gap",
                        help="longest imputable run of missing weeks")
    parser.add_argument("--hpl-kind", dest="hpl_kind", choices=HPL_KINDS)
    parser.add_argument("--no-hpl", action="store_const", const=False,
                        dest="include_hpl",
                        help="exclude the derived hpl pair from the SOM input")
    parser.add_argument("--spread-aggregation", dest="spread_aggregation",
                        choices=SPREAD_AGGREGATIONS)


def _add_analyze_opts(parser):
    parser.add_argument("--stages",
                        help="comma list among som,ms,cpd (default: all)")
    parser.add_argument("--som-rows", type=int, dest="som_rows")
    parser.add_argument("--som-cols", type=int, dest="som_cols")
    parser.add_argument("--som-epochs", type=int, dest="som_epochs")
    parser.add_argument("--som-seed", type=int, dest="som_seed")
    parser.add_argument("--classes", type=int, dest="n_classes",
                        help="number of macro-classes (default 6)")
    parser.add_argument("--ms-lag", type=int, dest="ms_lag")
    parser.add_argument("--ms-families", dest="ms_families",
                        type=lambda text: tuple(text.split(",")),
                        help="comma list, one mean family per regime (the count is the "
                             "number of regimes), e.g. mlp,linear")
    parser.add_argument("--ms-hidden", type=int, dest="ms_hidden")
    parser.add_argument("--ms-tol", type=float, dest="ms_tol")
    parser.add_argument("--ms-max-iter", type=int, dest="ms_max_iter")
    parser.add_argument("--ms-restarts", type=int, dest="ms_restarts",
                        help="restarts of the linear stage")
    parser.add_argument("--ms-seed", type=int, dest="ms_seed")
    parser.add_argument("--cpd-k-max", type=int, dest="cpd_k_max")
    parser.add_argument("--cpd-threshold", type=float, dest="cpd_threshold")
    parser.add_argument("--cpd-penalty", type=float, dest="cpd_penalty")


def build_parser() -> _Parser:
    parser = _Parser(prog="bimetal",
                     description="Regime analysis of gold-silver price spreads")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse, impute, and persist "
                              "features and the spread series (analyze with "
                              "no stages)")
    _add_common(p_ingest)
    _add_ingest_opts(p_ingest)
    p_ingest.set_defaults(stages="")

    p_analyze = sub.add_parser("analyze", help="run SOM periodization, "
                               "switching-model fit, and change-point detection")
    _add_common(p_analyze)
    _add_ingest_opts(p_analyze)
    _add_analyze_opts(p_analyze)

    p_report = sub.add_parser("report", help="emit class table, class means, "
                              "and the aligned plot-ready series")
    _add_common(p_report)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset plus "
                           "its ground-truth sidecar")
    _add_common(p_sim)
    p_sim.add_argument("--sim-kind", dest="sim_kind", choices=SIM_KINDS)
    p_sim.add_argument("--sim-T", type=int, dest="sim_T")
    p_sim.add_argument("--sim-seed", type=int, dest="sim_seed")
    p_sim.add_argument("--sim-p", type=float, dest="sim_p")
    p_sim.add_argument("--sim-q", type=float, dest="sim_q")
    p_sim.add_argument("--sim-coefs", dest="sim_coefs", type=json.loads,
                       help='JSON, e.g. "[[0.05,0.6],[0.18,0.3]]"')
    p_sim.add_argument("--sim-sigmas", dest="sim_sigmas", type=json.loads,
                       help='JSON, e.g. "[0.02,0.08]"')
    p_sim.add_argument("--sim-tau", dest="sim_tau", type=json.loads,
                       help='JSON, e.g. "[166,333]" (steps kind)')
    p_sim.add_argument("--sim-levels", dest="sim_levels", type=json.loads,
                       help="JSON list")
    p_sim.add_argument("--sim-stds", dest="sim_stds", type=json.loads,
                       help="JSON list")
    return parser


def _config_from_args(args) -> RunConfig:
    file = _read_config(args.config) if getattr(args, "config", None) else {}
    config = RunConfig.from_dict(file)
    # a --config file holds only what its command reads: simulate the sim_*
    # keys and outdir, the other commands the analysis keys, input and outdir
    read = {*_analysis_keys(config), "input"}
    foreign = set(file) & read if args.command == "simulate" else set(file) - read - {"outdir"}
    if foreign:
        raise DataError(f"config keys {sorted(foreign)} are not read by {args.command}")

    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}

    stages = getattr(args, "stages", None)
    if stages is not None:
        wanted = {s.strip() for s in stages.split(",") if s.strip()}
        unknown = wanted - {"som", "ms", "cpd"}
        if unknown:
            raise _UsageError(f"unknown stages: {sorted(unknown)}")
        overrides["run_som"] = "som" in wanted
        overrides["run_ms"] = "ms" in wanted
        overrides["run_cpd"] = "cpd" in wanted

    if overrides.get("outdir") is None and os.environ.get(OUTPUT_DIR_ENV):
        overrides["outdir"] = os.environ[OUTPUT_DIR_ENV]

    return config.merged(overrides)


def _warn_em(em) -> None:
    """Flag, on stderr, an EM fit that stopped unconverged or lost restarts:
    the count is over ``restart_logliks``, every EM run of both stages."""
    if em is None:
        return
    if not em.converged:
        print(f"warning: EM did not converge: the best restart stopped at "
              f"n_iter={em.n_iter}", file=sys.stderr)
    collapsed = sum(ll is None for ll in em.restart_logliks)
    if collapsed:
        print(f"warning: {collapsed} of {len(em.restart_logliks)} restarts "
              f"collapsed", file=sys.stderr)


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Show a Python warning as one ``warning:`` line on stderr, as
    ``_warn_em`` does, without the category and the source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # only how a warning is shown changes: the filters, so -W error, still hold
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _run(argv)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _config_from_args(args)

        if args.command == "ingest":
            manifest = run_analyze(config).manifest
            print(f"{manifest['n_weeks']} weeks ingested "
                  f"({manifest['ingest']['n_imputed']} cells imputed) -> {config.outdir}")
        elif args.command == "analyze":
            bundle = run_analyze(config)
            names = ", ".join(bundle.artifact_names)
            print(f"analysis complete: {len(bundle.artifact_names)} artifacts "
                  f"in {config.outdir} ({names})")
            _warn_em(bundle.em)
        elif args.command == "report":
            bundle = load_bundle(config.outdir)
            paths = run_report(bundle)
            for name, path in paths.items():
                print(f"{name}: {path}")
        elif args.command == "simulate":
            summary = run_simulate(config)
            print(f"{summary['rows']} rows written to {summary['dataset']} "
                  f"(truth: {summary['truth']})")
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
