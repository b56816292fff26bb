"""Command-line interface: ideal JSON in, result JSON out.

Exit codes: 0 success/verified, 1 claim falsified (a counterexample is a
result, not a tool failure), 2 usage or contract error, 3 resource cap
exceeded.

Each command imports the modules it runs inside its own function, so a cold
start pays only for those, and building the parser imports none of them.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    AmbientCapExceeded,
    CampaignTooLarge,
    ConstructionTooLarge,
    ContractViolation,
    OracleTooLarge,
    TableTooLarge,
    clipped_repr,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# A copy of ``verify.CLAIMS`` for the --claim metavar (a test keeps the two equal).
CLAIM_NAMES = (
    "green", "colex-bound", "prop42", "lemma41", "example51", "section6", "oracle-agreement",
)


def _read_ideal(path: str, allow_text: bool):
    from .ideals import MonomialIdeal

    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ContractViolation(f"{path}: JSON nested too deeply to decode") from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise  # reported by main, with the position of the fault
    except ValueError:  # an integer literal over the interpreter's conversion limit
        raise ContractViolation(f"{path}: integer literal too long to decode") from None
    return MonomialIdeal.from_dict(data, allow_text=allow_text)


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_colex(args) -> int:
    from .colex import DEFAULT_AMBIENT_CAP, colex_ideal, construction_dict

    I = _read_ideal(args.input, args.text)
    m_cap = DEFAULT_AMBIENT_CAP if args.m_cap is None else args.m_cap
    _emit(construction_dict(colex_ideal(I, m_cap=m_cap)))
    return EXIT_OK


def _cmd_betti(args) -> int:
    from .betti import stable_betti_table, tables_agree
    from .ideals import is_strongly_stable_ideal

    I = _read_ideal(args.input, args.text)
    if args.oracle and not is_strongly_stable_ideal(I):
        table = None  # no closed form: the oracle tables stand alone
    else:
        table = stable_betti_table(I, args.i_max)
    if not args.oracle:
        _emit(table.as_dict())
        return EXIT_OK
    from .cartan import cartan_betti

    oracle_i = min(args.i_max, args.oracle_i_max)
    tables = cartan_betti(I, oracle_i + 1, prime=args.field)
    _emit(
        {
            "formula": table.as_dict() if table else None,
            "oracle": {
                "ideal": tables.ideal.as_dict(),
                "quotient": tables.quotient.as_dict(),
            },
            "agreement": tables_agree(table, tables.ideal, oracle_i) if table else None,
            "agreement_i_max": oracle_i,
        }
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .betti import compare_betti

    left = _read_ideal(args.left, args.text)
    right = _read_ideal(args.right, args.text)
    verdict = compare_betti(left, right, args.i_max)
    _emit(verdict.as_dict())
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_claim

    report = run_claim(args.claim, n_max=args.n_max, i_max=args.i_max)
    payload = report.as_dict()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    _emit(payload)
    if report.status == "verified":
        return EXIT_OK
    if report.status == "counterexample":
        return EXIT_COUNTEREXAMPLE
    return EXIT_USAGE


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_strongly_stable_ideals, enumerate_strongly_stable_sets
    from .ideals import _derived_ideal
    from .monomials import MAX_VARIABLES

    if not 1 <= args.n <= MAX_VARIABLES:
        raise ContractViolation(f"--n must lie in 1..{MAX_VARIABLES}, got {clipped_repr(args.n)}")
    if args.d is not None and not 1 <= args.d <= args.n:
        raise ContractViolation(f"--d must lie in 1..{args.n}, got {clipped_repr(args.d)}")
    if args.ideals:
        if args.d is not None:
            # ideals generated in degree d alone: each walked set is sorted, minimal, in range
            for mset in enumerate_strongly_stable_sets(args.n, args.d):
                print(json.dumps(_derived_ideal(args.n, mset).as_dict()))
            return EXIT_OK
        for ideal in enumerate_strongly_stable_ideals(args.n):
            print(json.dumps(ideal.as_dict()))
        return EXIT_OK
    if args.d is None:
        raise ContractViolation("enumerating sets needs --d")
    for mset in enumerate_strongly_stable_sets(args.n, args.d):
        print(
            json.dumps(
                {"n": args.n, "d": args.d, "monomials": [list(u.indices) for u in mset]}
            )
        )
    return EXIT_OK


def _int(text: str) -> int:
    """The type of every integer option: a bad token is echoed clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clipped_repr(text)}") from None


def _claim(text: str) -> str:
    """The type of --claim: an unknown name is echoed clipped, unlike ``choices``."""
    from .verify import claim_name

    try:
        return claim_name(text)
    except ContractViolation as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one line, like every other error; ``-h`` prints
    the usage synopsis."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {self.prog}: {message} (see {self.prog} -h)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="excolex",
        description=(
            "Colexsegment ideals, Betti tables, and exhaustive desk-scale "
            "verification for squarefree monomial ideals in an exterior algebra."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colex", help="build the colexsegment ideal of an ideal")
    p.add_argument("--input", required=True, help="ideal JSON file, or - for stdin")
    p.add_argument("--m-cap", type=_int, default=None, dest="m_cap")
    p.add_argument("--text", action="store_true", help="accept 'e1e3e4' generator strings")
    p.set_defaults(func=_cmd_colex)

    p = sub.add_parser("betti", help="closed-form Betti table of a strongly stable ideal")
    p.add_argument("--input", required=True)
    p.add_argument("--i-max", type=_int, default=10, dest="i_max")
    p.add_argument("--oracle", action="store_true", help="also run the homology oracle")
    p.add_argument("--oracle-i-max", type=_int, default=4, dest="oracle_i_max")
    p.add_argument("--field", type=_int, default=None,
                   help="prime field size for the oracle (default: exact rationals)")
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("compare", help="compare total Betti numbers of two ideals")
    p.add_argument("--left", required=True, help="ideal I")
    p.add_argument("--right", required=True, help="ideal J, compared against I")
    p.add_argument("--i-max", type=_int, default=10, dest="i_max")
    p.add_argument("--text", action="store_true")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="run a named verification campaign")
    p.add_argument("--claim", required=True, type=_claim, metavar="{%s}" % ",".join(CLAIM_NAMES))
    p.add_argument("--n-max", type=_int, default=None, dest="n_max")
    p.add_argument("--i-max", type=_int, default=None, dest="i_max")
    p.add_argument("--json", default=None, help="also write the report to this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="stream strongly stable sets or ideals")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--d", type=_int, default=None)
    p.add_argument("--ideals", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AmbientCapExceeded, CampaignTooLarge, ConstructionTooLarge, OracleTooLarge,
            TableTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
