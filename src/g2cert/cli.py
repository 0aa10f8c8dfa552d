"""Command line interface.

    g2cert validate <catalog>
    g2cert lambda <algebra> [--witness]
    g2cert derivations <algebra> [--params k=v,...]
    g2cert su3 <algebra> [--gauge] [--samples N] [--seed S]
    g2cert run-all <catalog> --out report.json [--md report.md]
    g2cert recheck report.json [--catalog <catalog>]

<catalog> is a built-in dataset name (table1, nonsolvable, indecomposable),
'all', or a path to a catalog JSON file.  <algebra> is an entry name or an
unambiguous substring of one.  Exit code 0 iff every attempted certificate
verifies; for recheck, iff every certificate of the report rechecks against
the catalog (the default catalog is 'all') and the certificates of each
result that recheck support its stored outcome (certify.derive_outcome).

lambda --witness checks the shipped witness with the pipeline's verifier
where the pipeline does: on the entry as shipped, or, for an entry whose
catalog lists strong-unimodularity family conditions, after their
substitution, which it prints.

validate, run-all and recheck validate every entry of their catalog.
lambda, derivations and su3 look <algebra> up in the built-in catalogs,
parsed but not validated, and validate only the entry they act on, so an
invalid entry elsewhere in the built-ins does not stop them.

Input errors exit with code 2: a malformed report or catalog, a catalog
entry that fails validation (any entry of the catalog for validate,
run-all and recheck; the named entry for lambda, derivations and su3), a
path that is missing or a directory, an algebra name that matches no
entry or several, an entry of the wrong dimension for the command, a stub
entry (its structure equations not shipped) for lambda and derivations, and
--params that miss a family parameter of the entry or name one it lacks
print `error: ...` on stderr, and a malformed --params, --samples or --seed
is a usage error.  --samples and --seed take integers >= 0: a negative
seed would draw the samples of its absolute value.  --samples takes at most
certify.MAX_TRIALS, the most a sampling certificate may store.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import catalog as cat
from .certify import (
    MAX_TRIALS,
    PipelineOptions,
    StageContext,
    certify_lambda,
    lambda_witness,
    recheck_report,
    run_all,
    run_pipeline,
    strongly_unimodular_context,
)
from .derivations import solve_derivations
from .errors import G2CertError


def _find_entry(name: str):
    """The built-in entry named `name` exactly, else the one whose name holds
    `name`, validated; the other built-in entries are parsed, not validated."""
    entries = [
        e for d in cat.BUILTIN_DATASETS for e in cat.parse_catalog_text(cat.builtin_text(d))
    ]
    exact = [e for e in entries if e.name == name]
    matches = exact[:1] or [e for e in entries if name in e.name]
    if not matches:
        raise G2CertError(f"no catalog entry matches {name!r}")
    if len(matches) > 1:
        raise G2CertError(f"ambiguous name {name!r}: " + ", ".join(e.name for e in matches))
    matches[0].validate_entry()
    return matches[0]


def _shipped_entry(name: str):
    """The entry _find_entry finds, which must ship its structure equations."""
    entry = _find_entry(name)
    if entry.stub:
        raise G2CertError(f"{entry.name}: its structure equations are not shipped")
    return entry


def cmd_validate(args) -> int:
    entries = cat.load_any(args.catalog)
    for entry in entries:
        status = "stub (data not shipped)" if entry.stub else "ok"
        print(f"validated {entry.name}: {status}")
    print(f"{len(entries)} entries validated")
    return 0


def cmd_lambda(args) -> int:
    entry = _shipped_entry(args.algebra)
    if entry.dim != 6:
        raise G2CertError(f"{entry.name} has dimension {entry.dim}; lambda lives on dimension 6")
    context = StageContext(entry)
    print(f"lambda(d alpha) on {entry.name}:")
    print(f"  {context.lam}")
    if context.lam.is_zero():
        print("  identically zero")
        return 0
    if args.witness:
        if "lambda" not in entry.witnesses:
            print("  no nonnegativity witness shipped for this entry")
            return 1
        if lambda_witness(context) is None:
            # the witness holds where the pipeline checks it: after the
            # strong-unimodularity family conditions
            context = strongly_unimodular_context(context)
            subs = ", ".join(f"{k} = {v}" for k, v in sorted(context.fam_subs.items()))
            print(f"  after the strong-unimodularity substitution {subs}:")
            print(f"  {context.lam}")
        certify_lambda(context)
        print("  nonnegativity witness verifies: lambda >= 0 for all real coefficients")
    return 0


def cmd_derivations(args) -> int:
    entry = _shipped_entry(args.algebra)
    algebra = entry.build_algebra()
    params = args.params
    fam_vars = algebra.family_parameters()
    missing = fam_vars - set(params)
    if missing:
        raise G2CertError(
            f"{entry.name} depends on family parameters {sorted(missing)}; fix them with --params"
        )
    unknown = set(params) - fam_vars
    if unknown:
        raise G2CertError(f"{entry.name} has no family parameters {sorted(unknown)}")
    if params:
        algebra = algebra.substitute(params)
    family = solve_derivations(algebra)
    print(f"Der({entry.name}) at {({k: str(v) for k, v in params.items()} or 'rational constants')}:")
    print(f"  dimension {len(family.params)}, parameters {', '.join(family.params)}")
    for row in family.matrix:
        print("  [ " + ", ".join(f"{e}" for e in row) + " ]")
    return 0


def cmd_su3(args) -> int:
    entry = _find_entry(args.algebra)
    if entry.dim != 6:
        raise G2CertError(f"{entry.name} has dimension {entry.dim}; su3 runs on dimension 6")
    options = PipelineOptions(trials_override=args.samples, seed_override=args.seed)
    result = run_pipeline(entry, options)
    print(f"{entry.name}: {result.outcome.value}")
    for cert in result.certificates:
        status = "verified" if cert.verified else "FAILED"
        print(f"  [{status}] {cert.kind.value} {cert.data.get('pair') or cert.data.get('indices') or ''}")
        if args.gauge and cert.kind.value == "gauge_null":
            print(f"    branch condition: {cert.data['branch_condition']}")
            for sv, num in cert.data["solved_gauge"].items():
                print(f"    {sv} = ({num}) / branch condition")
    for note in result.notes:
        print(f"  note: {note}")
    return 0 if result.ok() else 1


def cmd_run_all(args) -> int:
    entries = cat.load_any(args.catalog)
    options = PipelineOptions(trials_override=args.samples, seed_override=args.seed)
    report = run_all(entries, options)
    document = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    if args.md:
        with open(args.md, "w", encoding="utf-8") as handle:
            handle.write(report.to_markdown())
        print(f"markdown report written to {args.md}")
    for result in report.results:
        print(f"{result.name:34s} {result.outcome.value}")
    ok = report.verified_all()
    print(f"all attempted certificates verify: {ok}")
    return 0 if ok else 1


def cmd_recheck(args) -> int:
    with open(args.report, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise G2CertError(f"{args.report} is not a JSON document: {exc}") from None
    verdicts = recheck_report(document, cat.load_any(args.catalog))
    total = failed = unsupported = 0
    for node, (row, derived) in zip(document["results"], verdicts):
        for cert, ok in zip(node["certificates"], row):
            total += 1
            if not ok:
                failed += 1
                print(f"FAILED {cert.get('algebra')}: {cert.get('kind')}")
        if derived is not None:
            unsupported += 1
            print(
                f"FAILED {node['name']}: outcome {node.get('outcome')} is not supported "
                f"by its certificates ({derived.value})"
            )
    print(f"{total - failed} of {total} certificates recheck")
    return 0 if failed == unsupported == 0 else 1


def _nonnegative_int(text: str) -> int:
    """An argparse type: an integer N >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _trials(text: str) -> int:
    """An argparse type: a number of trials in 0..MAX_TRIALS (--samples 0
    skips sampling)."""
    value = _nonnegative_int(text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_TRIALS}, got {value}")
    return value


def _family_params(text: str) -> dict:
    """An argparse type: k=v,... with rational values, keyed by fam_ names;
    each parameter at most once (p and fam_p name the same one)."""
    params = {}
    for item in filter(None, text.split(",")):
        key, sep, value = item.partition("=")
        name = key.strip()
        try:
            if not (name and sep):
                raise ValueError
            var = name if name.startswith("fam_") else f"fam_{name}"
            number = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected k=v with a rational v, got {item!r}") from None
        if var in params:
            raise argparse.ArgumentTypeError(f"family parameter {var} is given more than once")
        params[var] = number
    return params


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2cert",
        description="Exact-arithmetic obstruction certificates for invariant exact "
        "G2-structures on 7-dimensional Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and re-validate a catalog")
    p.add_argument("catalog")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lambda", help="the quartic invariant of the generic exact 3-form")
    p.add_argument("algebra")
    p.add_argument("--witness", action="store_true", help="check the shipped nonnegativity witness")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("derivations", help="solve the derivation algebra at rational parameters")
    p.add_argument("algebra")
    p.add_argument("--params", type=_family_params, default="", metavar="k=v,...")
    p.set_defaults(func=cmd_derivations)

    p = sub.add_parser("su3", help="run the SU(3) obstruction stage for one algebra")
    p.add_argument("algebra")
    p.add_argument("--gauge", action="store_true", help="print gauge certificate details")
    p.add_argument("--samples", type=_trials, default=None, metavar="N")
    p.add_argument("--seed", type=_nonnegative_int, default=None, metavar="S")
    p.set_defaults(func=cmd_su3)

    p = sub.add_parser("run-all", help="run every pipeline and write the report")
    p.add_argument("catalog")
    p.add_argument("--out", default="", metavar="report.json")
    p.add_argument("--md", default="", metavar="report.md")
    p.add_argument("--samples", type=_trials, default=None, metavar="N")
    p.add_argument("--seed", type=_nonnegative_int, default=None, metavar="S")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("recheck", help="recheck every certificate of a report")
    p.add_argument("report")
    p.add_argument("--catalog", default="all")
    p.set_defaults(func=cmd_recheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (G2CertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
