"""Command-line driver.

Subcommands::

    ddsolve solve  <config>              one solve, report + residual
    ddsolve verify <config>              solve + monolithic reference compare
    ddsolve sweep  <config> [<config>..] scaling sweep, CSV with slope footer

Exit codes: 0 success, 1 usage error, 2 pipeline failure or a gate missed.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig, check_ordering, check_pivot_tol, \
    parse_config_file
from .driver import AGREEMENT_GATE, RESIDUAL_GATE, PipelineError, csv_text, \
    run_pipeline, run_sweep, run_verify


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(p):
    p.add_argument("--ordering", default=None,
                   help="builtin | file:<path> (overrides the config file)")
    p.add_argument("--pivot-tol", type=float, default=None,
                   help="relative pivot threshold (overrides the config file)")
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="write a CSV report, overwriting PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="ddsolve")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("solve", "run the decomposed direct solve"),
                       ("verify", "solve and compare to a monolithic solve")):
        p = sub.add_parser(name, help=text)
        p.add_argument("config")
        _add_common(p)
        p.add_argument("--dump-k", metavar="PATH", default=None,
                       help="write the reduced block matrix (D3M-BLK v1)")
        p.add_argument("--print-symbolic", action="store_true",
                       help="print the elimination pattern, etree and factor bytes")
    p_sweep = sub.add_parser("sweep", help="run several configs and fit scaling slopes")
    p_sweep.add_argument("configs", nargs="+")
    _add_common(p_sweep)
    return parser


def _load(path, args) -> RunConfig:
    run = parse_config_file(path)
    if args.ordering is not None:
        run.ordering = check_ordering(args.ordering)
    if args.pivot_tol is not None:
        run.pivot_tol = check_pivot_tol(args.pivot_tol)
    if args.csv is not None:
        run.out_csv = args.csv
    return run


def _single(args, verify: bool) -> int:
    run = _load(args.config, args)
    fn = run_verify if verify else run_pipeline
    result = fn(run, print_symbolic=args.print_symbolic, dump_k=args.dump_k)
    print(result.report.text())
    if run.out_csv:
        with open(run.out_csv, "w") as fh:
            fh.write(csv_text([result.report]))
    report = result.report
    agree = report.rel_diff_monolithic
    ok = report.residual_inf <= RESIDUAL_GATE and (agree is None
                                                   or agree <= AGREEMENT_GATE)
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command in ("solve", "verify"):
            return _single(args, verify=args.command == "verify")
        if len(args.configs) < 2:
            print("ddsolve: error: sweep needs at least 2 configs",
                  file=sys.stderr)
            return 1
        runs = [_load(p, args) for p in args.configs]
        reports, slopes = run_sweep(runs, csv_path=args.csv)
        sys.stdout.write(csv_text(reports, slopes))
        good = all(r.status == "ok" and r.residual_inf <= RESIDUAL_GATE
                   for r in reports)
        return 0 if good else 2
    except ConfigError as err:
        print(f"ddsolve: config error: {err}", file=sys.stderr)
        return 1
    except PipelineError as err:
        print(f"ddsolve: pipeline error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
