"""Command-line front end.

All computation lives in the library modules; this module only parses
arguments, formats output, and maps failures to exit codes: 0 success,
1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .clifford import build_clifford_module, certificates, peak_characteristic
from .compositions import format_subset, parse_composition
from .errors import DomainError, TheoremMismatch
from .families import NATIVE_CONVENTION, FamilyKind, build_family
from .harness import CHECKS, check_family, run_harness
from .hecke import build_hecke_module, qsym_characteristic
from .series import (
    FormalSum,
    evaluate_truncated,
    peak_to_fundamental,
    render_latex,
    render_text,
    theta,
    to_term_records,
)
from .tableaux import (
    descent_set_tab,
    is_ascent_compatible,
    is_descent_compatible,
    render_tableau,
    tableau_to_record,
)

_FAMILY_CHOICES = [k.value for k in FamilyKind]


def _add_family_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=_FAMILY_CHOICES)
    parser.add_argument("--shape", required=True, help="comma-separated parts, e.g. 3,3,1")
    parser.add_argument("--sigma", help="permutation of the rows, e.g. 2,1,3")


def _add_format_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", default="text", choices=["text", "structured", "latex"]
    )


def _family_from_args(args) -> "TableauFamily":
    shape = parse_composition(args.shape)
    sigma = parse_composition(args.sigma) if getattr(args, "sigma", None) else None
    return build_family(args.family, shape, sigma)


def _emit_sum(f: FormalSum, fmt: str, out) -> None:
    if fmt == "structured":
        for record in to_term_records(f):
            print(json.dumps(record, sort_keys=True), file=out)
    elif fmt == "latex":
        print(render_latex(f), file=out)
    else:
        print(render_text(f), file=out)


def _cmd_enumerate(args, out) -> int:
    family = _family_from_args(args)
    if args.format == "structured":
        for tab in family:
            record = tableau_to_record(tab)
            record["descents"] = sorted(descent_set_tab(tab))
            print(json.dumps(record, sort_keys=True), file=out)
    else:
        print(f"{len(family)} tableaux of {family.family_tag}", file=out)
        for tab in family:
            print(render_tableau(tab), file=out)
            print(f"Des = {format_subset(descent_set_tab(tab))}", file=out)
            print(file=out)
    return 0


# The commands that build a family and print one sum of it: name -> (help,
# the sum).
_FAMILY_SUMS = {
    "characteristic": ("fundamental-basis characteristic", qsym_characteristic),
    "peak-characteristic": ("peak-basis characteristic", peak_characteristic),
    "theta": (
        "project the characteristic onto the peak basis",
        lambda family: theta(qsym_characteristic(family)),
    ),
}


def _cmd_family_sum(args, out) -> int:
    family_sum = _FAMILY_SUMS[args.command][1]
    _emit_sum(family_sum(_family_from_args(args)), args.format, out)
    return 0


def _cmd_expand_k(args, out) -> int:
    alpha = parse_composition(args.shape)
    _emit_sum(peak_to_fundamental(FormalSum.peak(alpha)), args.format, out)
    return 0


def _cmd_truncate(args, out) -> int:
    family = _family_from_args(args)
    f = peak_characteristic(family) if args.peak else qsym_characteristic(family)
    poly = evaluate_truncated(f, args.vars)
    for exps in sorted(poly.terms, reverse=True):
        coeff = poly.terms[exps]
        if args.format == "structured":
            record = {
                "exponents": list(exps),
                "numerator": coeff.numerator,
                "denominator": coeff.denominator,
            }
            print(json.dumps(record, sort_keys=True), file=out)
        else:
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(exps) if e
            )
            print(f"{coeff} {mono or '1'}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    every = not (args.compatibility or args.relations or args.clifford)
    if args.convention and not (every or args.relations):
        raise DomainError("--convention applies only to the module relations")
    family = _family_from_args(args)
    failures = 0
    if every or args.compatibility:
        for mode, check in (("ascent", is_ascent_compatible), ("descent", is_descent_compatible)):
            result = check(family)
            verdict = "pass" if result.ok else "FAIL"
            print(f"{mode}-compatibility {verdict}", file=out)
            if not result.ok:
                first, second, r, s = result.witness
                print(
                    f"  witness: {''.join(map(str, first.reading_word))} vs "
                    f"{''.join(map(str, second.reading_word))} at positions ({r},{s})",
                    file=out,
                )
                failures += 1
    module, supermodule = every or args.relations, every or args.clifford
    if module or supermodule:
        check = check_family(family, args.convention, module, supermodule)
        if not check.size:
            raise DomainError(f"family {family.family_tag} is empty")
        if check.hecke is not None:
            print(f"module relations ({check.convention}): {check.hecke}", file=out)
        if check.clifford is not None:
            print(f"supermodule relations: {check.clifford}", file=out)
            quotients = "FAIL" if check.failing_quotients else "pass"
            print(f"filtration quotients: {quotients}", file=out)
        failures += not check.ok
    return 1 if failures else 0


def _cmd_harness(args, out) -> int:
    records = run_harness(args.check, max_n=args.max_n)
    failed = 0
    for record in records:
        if args.format == "structured":
            print(json.dumps(record.as_dict(), sort_keys=True), file=out)
        else:
            print(record.as_text(), file=out)
        failed += record.verdict != "pass"
    if args.format == "text":
        print(f"{len(records) - failed}/{len(records)} checks passed", file=out)
    return 1 if failed else 0


def _cmd_certify(args, out) -> int:
    if args.max_n < 1:
        raise DomainError("--max-n must be at least 1")
    failed = False
    for n in range(1, args.max_n + 1):
        verdicts = certificates(n)
        row = " ".join(f"{name} {'pass' if ok else 'FAIL'}" for name, ok in verdicts.items())
        print(f"n={n} {row}", file=out)
        failed |= not all(verdicts.values())
    return 1 if failed else 0


def _cmd_dump_matrices(args, out) -> int:
    if args.clifford and args.convention:
        raise DomainError("--convention applies only to the module, not to --clifford")
    family = _family_from_args(args)
    kind = FamilyKind(args.family)
    if args.clifford:
        rep = build_clifford_module(family)
        basis, key = rep.basis_tableaux, "basis_tableau"
    else:
        rep = build_hecke_module(family, args.convention or NATIVE_CONVENTION[kind])
        basis, key = rep.basis, "basis"
    for t, tab in enumerate(basis):
        word = "".join(map(str, tab.reading_word))
        if args.format == "structured":
            print(json.dumps({key: t, "reading_word": word}), file=out)
        else:
            print(f"{key} {t} {word}", file=out)
    for gen, index, rows, cols, values in rep.generator_triples():
        for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
            if args.format == "structured":
                record = {"gen": gen, "index": index, "row": r, "col": c, "value": v}
                print(json.dumps(record, sort_keys=True), file=out)
            else:
                print(f"{gen} {index} {r} {c} {v}", file=out)
    return 0


def _add_family_sum_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help=_FAMILY_SUMS[name][0])
    _add_family_args(p)
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_family_sum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagmod",
        description=(
            "Enumerate tableau families, expand their characteristics in the "
            "fundamental and peak bases, and verify the module structure "
            "exactly."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the members of a family")
    _add_family_args(p)
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_enumerate)

    _add_family_sum_parser(sub, "characteristic")
    _add_family_sum_parser(sub, "peak-characteristic")

    p = sub.add_parser("expand-K", help="fundamental expansion of one peak basis element")
    p.add_argument("--shape", required=True, help="a peak composition, e.g. 3,3,1")
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_expand_k)

    _add_family_sum_parser(sub, "theta")

    p = sub.add_parser("truncate", help="evaluate a characteristic in k variables")
    _add_family_args(p)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--peak", action="store_true", help="use the peak characteristic")
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("verify", help="run compatibility and relation checks")
    _add_family_args(p)
    p.add_argument("--relations", action="store_true")
    p.add_argument("--clifford", action="store_true")
    p.add_argument("--compatibility", action="store_true")
    p.add_argument("--convention", choices=["pi", "hat"])
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("harness", help="run the theorem checks")
    p.add_argument(
        "--check",
        action="append",
        default=None,
        choices=["all", *CHECKS],
    )
    p.add_argument("--max-n", type=int, default=5)
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_harness)

    p = sub.add_parser("certify", help="check the per-n supermodule block certificates")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("dump-matrices", help="triplet dump of the generator matrices")
    _add_family_args(p)
    p.add_argument("--clifford", action="store_true")
    p.add_argument("--convention", choices=["pi", "hat"])
    _add_format_arg(p)
    p.set_defaults(fn=_cmd_dump_matrices)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "check", None) is None and args.command == "harness":
        args.check = ["all"]
    try:
        return args.fn(args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TheoremMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
