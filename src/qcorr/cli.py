"""Command-line front end.

Subcommands:
  reproduce  run the built-in demonstration scenario and check it
  measure    evaluate one measure on a state loaded from a file
  kw-audit   randomized audit of the entropy bookkeeping identity

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage,
parse, or internal error. Nothing is written to disk unless --out is
given. Machine formats (json, csv) keep stdout clean; their PASS/FAIL
status lines go to stderr.
"""
from __future__ import annotations

import argparse
import sys

from .correlations import (
    RESIDUAL_HIGH,
    RESIDUAL_LOW,
    classical_correlation,
    concurrence,
    discord,
    eof_two_qubits,
    kw_audit,
)
from .entropy import mutual_information, von_neumann_entropy
from .exceptions import QcorrError
from .report import _fmt_bound, fmt12, report_table, reproduce_csv, reproduce_json
from .scenario import acceptance_checks, run_scenario
from .state_io import load_state
from .states import DensityMatrix, PureState, density_from_pure

FORMATS = ("table", "json", "csv")


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="output format (default table)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status_stream(args):
    # keep machine-readable stdout clean; humans read the table format
    return sys.stdout if args.format == "table" else sys.stderr


def _check_line(name: str, passed: bool, detail: str) -> str:
    return f"{'PASS' if passed else 'FAIL'} {name}: {detail}"


def cmd_reproduce(args) -> int:
    pre, post = run_scenario()
    checks = acceptance_checks(pre, post)
    if args.format == "json":
        _emit(reproduce_json(pre, post, checks), args)
    elif args.format == "csv":
        _emit(reproduce_csv(pre, post), args)
    else:
        _emit(report_table(pre) + "\n" + report_table(post) + "\n", args)
    stream = _status_stream(args)
    for c in checks:
        print(_check_line(c.name, c.passed, c.detail), file=stream)
    return 0 if all(c.passed for c in checks) else 1


def _measure_fields(args, rho: DensityMatrix) -> list[tuple[str, str]]:
    kind = args.measure
    fields: list[tuple[str, str]] = [("measure", kind)]
    if kind == "entropy":
        fields.append(("value", fmt12(von_neumann_entropy(rho))))
    elif kind == "mi":
        fields.append(("value", fmt12(mutual_information(rho, [0]))))
    elif kind == "eof":
        fields.append(("value", fmt12(eof_two_qubits(rho))))
    elif kind == "concurrence":
        fields.append(("value", fmt12(concurrence(rho))))
    else:  # discord | j
        fn = discord if kind == "discord" else classical_correlation
        m = fn(rho, args.measured)
        fields += [
            ("value", fmt12(m.value)),
            ("measured", str(args.measured)),
            ("direction", m.direction),
            ("optimal_theta", fmt12(m.optimal_angles.theta)),
            ("optimal_phi", fmt12(m.optimal_angles.phi)),
            ("optimizer_evals", str(m.optimizer_evals)),
        ]
    return fields


def _render_fields(fields: list[tuple[str, str]], fmt: str) -> str:
    if fmt == "json":
        parts = []
        for key, value in fields:
            if key in ("measure", "direction"):
                parts.append(f'"{key}": "{value}"')
            else:
                parts.append(f'"{key}": {value}')
        return "{" + ", ".join(parts) + "}\n"
    if fmt == "csv":
        return "quantity,value\n" + "\n".join(f"{k},{v}" for k, v in fields) + "\n"
    width = max(len(k) for k, _ in fields)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in fields) + "\n"


def cmd_measure(args) -> int:
    state = load_state(args.state_file)
    rho = density_from_pure(state) if isinstance(state, PureState) else state
    _emit(_render_fields(_measure_fields(args, rho), args.format), args)
    return 0


def cmd_kw_audit(args) -> int:
    summary = kw_audit(args.count, args.seed)
    fields = [
        ("count", str(summary.count)),
        ("seed", str(summary.seed)),
        ("min_residual", fmt12(summary.min_residual)),
        ("max_residual", fmt12(summary.max_residual)),
        ("mean_residual", fmt12(summary.mean_residual)),
        ("within_bounds", "true" if summary.within_bounds else "false"),
    ]
    _emit(_render_fields(fields, args.format), args)
    print(_check_line("identity_audit", summary.within_bounds,
                      f"{3 * summary.count} residuals in "
                      f"[{summary.min_residual:.2e}, {summary.max_residual:.2e}], "
                      f"bounds [{_fmt_bound(RESIDUAL_LOW)}, {_fmt_bound(RESIDUAL_HIGH)}]"),
          file=_status_stream(args))
    return 0 if summary.within_bounds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Quantum correlation measures for small systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run and check the built-in demonstration")
    _common_flags(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("measure", help="evaluate one measure on a state file")
    p.add_argument("state_file", help="path to a JSON state document")
    p.add_argument("--measure", required=True,
                   choices=("entropy", "mi", "discord", "j", "eof", "concurrence"))
    p.add_argument("--measured", type=int, choices=(0, 1), default=1,
                   help="which qubit the optimized measurement acts on (default 1)")
    _common_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("kw-audit", help="randomized entropy-identity audit")
    p.add_argument("--count", type=int, default=100,
                   help="number of random states (default 100)")
    p.add_argument("--seed", type=int, default=7, help="sampler seed (default 7)")
    _common_flags(p)
    p.set_defaults(func=cmd_kw_audit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure contract: exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
