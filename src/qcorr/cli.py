"""Command-line front end.

Subcommands:
  reproduce  run the built-in demonstration scenario and check it
  measure    evaluate one measure on a state loaded from a file
  kw-audit   randomized audit of the entropy bookkeeping identity

Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage,
parse, or internal error, or output closed (e.g. by `| head`). Nothing
is written to disk unless --out is given. Machine formats (json, csv)
keep stdout clean; their status lines go to stderr. qcorr.report decides
how every value prints.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .correlations import (_CYCLIC_PERMS, classical_correlation, concurrence, discord,
                           eof_two_qubits, kw_audit)
from .entropy import mutual_information, von_neumann_entropy
from .exceptions import QcorrError
from .report import _check_line, _render, _render_reproduce, _residual_window
from .scenario import Check, acceptance_checks, run_scenario
from .state_io import load_state
from .states import DensityMatrix, PureState, density_from_pure

FORMATS = ("table", "json", "csv")


def _common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="output format (default table)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")


def _finish(args, text: str, checks) -> int:
    """Write text to --out or stdout, then a status line per check; machine
    formats keep those on stderr, since humans read the table format."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    stream = sys.stdout if args.format == "table" else sys.stderr
    for c in checks:
        print(_check_line(c), file=stream)
    return 0 if all(c.passed for c in checks) else 1


def cmd_reproduce(args) -> int:
    pre, post = run_scenario()
    checks = acceptance_checks(pre, post)
    return _finish(args, _render_reproduce(pre, post, checks, args.format), checks)


def _measure_fields(args, rho: DensityMatrix) -> list[tuple]:
    kind = args.measure
    if kind in ("discord", "j"):
        m = (discord if kind == "discord" else classical_correlation)(rho, args.measured)
        return [("measure", kind), ("value", m.value), ("measured", args.measured),
                ("direction", m.direction), ("optimal_theta", m.optimal_angles.theta),
                ("optimal_phi", m.optimal_angles.phi), ("optimizer_evals", m.optimizer_evals)]
    if kind == "entropy":
        value = von_neumann_entropy(rho)
    elif kind == "mi":
        value = mutual_information(rho, [0])
    elif kind == "eof":
        value = eof_two_qubits(rho)
    else:
        value = concurrence(rho)
    return [("measure", kind), ("value", value)]


def cmd_measure(args) -> int:
    state = load_state(args.state_file)
    rho = density_from_pure(state) if isinstance(state, PureState) else state
    return _finish(args, _render(_measure_fields(args, rho), args.format), [])


def cmd_kw_audit(args) -> int:
    s = kw_audit(args.count, args.seed)
    detail = f"{len(_CYCLIC_PERMS) * s.count} {_residual_window(s.min_residual, s.max_residual)}"
    return _finish(args, _render(list(asdict(s).items()), args.format),
                   [Check("identity_audit", s.within_bounds, detail)])


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
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at shutdown
        return code
    except BrokenPipeError:
        # nothing can be written any more; send the rest to devnull so that
        # the interpreter's own flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except QcorrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure contract: exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
