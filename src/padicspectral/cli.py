"""Command-line front end over the JSON schemas.

Commands: certify, group-eval, check-law, lipschitz, stone, additive,
converge.  All input and output is JSON with big integers as decimal
strings; a non-integer number or a boolean in the input is malformed.
Output is byte-identical across runs for a fixed config and seed.  Exit
codes: 0 success, 1 malformed input, 2 mathematical refusal (a hypothesis
of the requested construction is violated), 3 precision exhaustion.

A group file is either a bundle {"certificate": ..., "budget": ...} as
produced by the stone command, or a bare matrix in the matrix schema,
which is certified on the fly under the configured budget.  The prime
always comes from the input file; ``--p``, when given, must name an odd
prime and agree with it.  Refusals and precision errors report the
config of the input: its prime and the budget the command runs under.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from . import __version__
from .core import MAX_PREC, from_decimal, to_decimal, validate_prec, validate_prime
from .errors import PadicError, PrecisionFailure, Refusal
from .functions import SeriesBudget, digit_truncation_error
from .groups import OneParamGroup, stone_recover
from .linalg import PadicMatrix
from .sampling import sample_principal_unit
from .spectral import certify_strongly_normal

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REFUSAL = 2
EXIT_PRECISION = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for refusals here
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_global_flags(parser, suppress: bool) -> None:
    # the same flags work before or after the subcommand; the subcommand
    # copies use SUPPRESS so an absent flag never clobbers the root value
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--p", type=int, default=d(None), help="the input's prime")
    prec_help = "target digits of a bare matrix (default 32); a group bundle keeps its own"
    parser.add_argument("--prec", type=int, default=d(32), help=prec_help)
    parser.add_argument("--seed", type=int, default=d(42), help="sampling seed")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="padic-spectral",
        description="Spectral certificates and one-parameter unitary groups over Z_p.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("certify", help="spectral certificate for a matrix")
    c.set_defaults(run=_cmd_certify)
    c.add_argument("matrix_file")

    c = sub.add_parser("group-eval", help="evaluate U(s) for a group")
    c.set_defaults(run=_cmd_group_eval)
    c.add_argument("group_file")
    c.add_argument("--s", required=True, help="principal unit as a decimal integer")

    c = sub.add_parser("check-law", help="sampled group-law verification")
    c.set_defaults(run=_sampled_check, check="group-law")
    c.add_argument("group_file")
    c.add_argument("--samples", type=int, default=100)

    c = sub.add_parser("lipschitz", help="sampled continuity-bound verification")
    c.set_defaults(run=_sampled_check, check="lipschitz")
    c.add_argument("group_file")
    c.add_argument("--samples", type=int, default=100)

    c = sub.add_parser("stone", help="recover the generator from U(1+p)")
    c.set_defaults(run=_cmd_stone)
    c.add_argument("matrix_file")

    c = sub.add_parser("additive", help="evaluate W(z) = U(e^(pz))")
    c.set_defaults(run=_cmd_additive)
    c.add_argument("group_file")
    c.add_argument("--z", required=True, help="additive parameter, decimal integer")

    c = sub.add_parser("converge", help="digit-truncation convergence table")
    c.set_defaults(run=_cmd_converge)
    c.add_argument("group_file")
    c.add_argument("--s", required=True, help="principal unit as a decimal integer")
    c.add_argument("--max-n", type=int, default=10)

    for command in sub.choices.values():
        _add_global_flags(command, suppress=True)
    return parser


def _not_an_integer(token: str):
    raise ValueError(f"{token} is not an integer")


def _load_json(path: str) -> dict:
    """Read a JSON object whose numbers are all integers."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(
                fh,
                parse_float=_not_an_integer,
                parse_int=from_decimal,
                parse_constant=_not_an_integer,
            )
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value must be an object")
    # true and false would read as 1 and 0; iterative, as nesting may be deep
    stack = [data]
    while stack:
        node = stack.pop()
        if isinstance(node, bool):
            raise ValueError(f"{json.dumps(node)} is not an integer")
        if isinstance(node, (dict, list)):
            stack.extend(node.values() if isinstance(node, dict) else node)
    return data


def _record_input(args, p: int, budget: SeriesBudget) -> None:
    """Record the input's budget and config on ``args``; an explicit --p
    must agree with its prime."""
    args.budget = budget
    args.config = {"p": p, "precision": budget.target, "seed": args.seed, "version": __version__}
    if args.p is not None and validate_prime(args.p) != p:
        raise ValueError(f"--p {args.p} but the input has p = {p}")


def _read_matrix(data: dict, args) -> PadicMatrix:
    """Parse a matrix and record its prime and budget on ``args``."""
    matrix = PadicMatrix.from_dict(data)
    _record_input(args, matrix.p, SeriesBudget(validate_prec(args.prec)))
    return matrix


def _load_group(path: str, args) -> OneParamGroup:
    data = _load_json(path)
    if "certificate" in data:
        group = OneParamGroup.from_dict(data)
        _record_input(args, group.p, group.budget)
        return group
    matrix = _read_matrix(data, args)
    return OneParamGroup(certify_strongly_normal(matrix), args.budget)


# Each handler returns (body, exit code); main adds the recorded config.


def _cmd_certify(args):
    matrix = _read_matrix(_load_json(args.matrix_file), args)
    return {"certificate": certify_strongly_normal(matrix).to_dict()}, EXIT_OK


def _cmd_group_eval(args):
    group = _load_group(args.group_file, args)
    s = from_decimal(args.s)
    u = group.evaluate(s)
    return {
        "s": to_decimal(s),
        "matrix": u.matrix.to_dict(),
        "unit_spectrum": [x.to_dict() for x in u.eigenvalues],
    }, EXIT_OK


def _sampled_check(args):
    if args.samples < 1:
        raise ValueError(f"--samples {args.samples} checks nothing; it must be >= 1")
    group = _load_group(args.group_file, args)
    rng = Random(args.seed)
    prec = group.budget.target
    verify = group.verify_group_law if args.check == "group-law" else group.lipschitz_check
    results = []
    for _ in range(args.samples):
        s1 = sample_principal_unit(rng, group.p, prec)
        s2 = sample_principal_unit(rng, group.p, prec)
        results.append(verify(s1, s2))
    ok = all(r.ok for r in results)
    return {
        "check": args.check,
        "samples": args.samples,
        "seed": args.seed,
        "min_margin_valuation": min(r.margin for r in results),
        "pass": ok,
    }, EXIT_OK if ok else EXIT_REFUSAL


def _cmd_stone(args):
    matrix = _read_matrix(_load_json(args.matrix_file), args)
    return stone_recover(matrix, args.budget).to_dict(), EXIT_OK


def _cmd_additive(args):
    group = _load_group(args.group_file, args)
    z = from_decimal(args.z)
    matrix = group.additive_evaluate(z).matrix
    return {"z": to_decimal(z), "matrix": matrix.to_dict()}, EXIT_OK


def _cmd_converge(args):
    if not 0 <= args.max_n <= MAX_PREC:
        raise ValueError(f"--max-n {args.max_n} is outside [0, {MAX_PREC}]")
    group = _load_group(args.group_file, args)
    s = from_decimal(args.s)
    reference = group.evaluate(s).matrix
    rows = []
    approxes = group.digit_limit_approxes(s, range(args.max_n + 1))
    for n, approx in enumerate(approxes):
        err = (approx - reference).op_norm()
        rows.append(
            {
                "n": n,
                "error_valuation": err.value,
                "error_exact": err.is_finite,
                "proven_bound": digit_truncation_error(n, group.p),
            }
        )
    return {"s": to_decimal(s), "table": rows}, EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body, code = args.run(args)
    except Refusal as e:
        body = {"refusal": {"type": type(e).__name__, "message": str(e)}}
        code = EXIT_REFUSAL
    except PrecisionFailure as e:
        body = {"error": {"type": type(e).__name__, "message": str(e)}}
        code = EXIT_PRECISION
    except (OSError, ValueError, KeyError, TypeError, PadicError) as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_INPUT
    payload = {"config": args.config, **body}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
