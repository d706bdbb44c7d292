"""Command line interface.

Subcommands: construct, verify, tables, export, import.  Party and cut
indices are 0-based everywhere.  The verify exit code is keyed to the
exact oracle: 0 when every selected cut is trivial, 1 otherwise; with
--combinatorial-only a completed run exits 0 regardless of verdicts, since
the combinatorial conditions are sufficient but not exhaustive.  The oracle
compares integers, so verify takes no tolerance.  QNONLOC_CAP, the one
cap (`caps`), is checked at the start of every run; a malformed value, or
work over the cap (written witnesses and state exports included), is an
error and the run exits 2, like any other invalid input; only `import`
of a file that is not a valid family exits 1.  The oracle
decides every selected cut in one call; a written report's witnesses are
held to the cap once, before any is built.  Files and stdout are UTF-8
whatever the locale.

Layers load on first use: each command imports the layers it runs inside
its own function.  `construct`, `import` and `export` load only lattice and
serialize (states too for `construct --states-out`); `verify` adds verifier,
plus states and oracle unless --combinatorial-only; `tables` adds tables.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import caps
from .errors import FamilyFormatError, QnonlocError
from .lattice import ModifiedFamily, build_modified_family
from .serialize import (cut_report_to_json, dumps_canonical, dumps_family,
                        load_family, oracle_report_to_json, save_family,
                        states_to_json)


def _parse_xi(raw: str) -> int | str:
    try:
        return int(raw)
    except ValueError:
        if raw in ("smallest", "structured"):
            return raw
        raise argparse.ArgumentTypeError(
            f"--xi must be an integer or one of smallest/structured, got {raw!r}")


def _parse_cut(raw: str) -> int | str:
    if raw == "all":
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'--cut must be a cut index 0..n-1 or "all", got {raw!r}') from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnonloc",
        description="Construct and verify strongest-nonlocal orthogonal "
                    "entangled state families (0-based party indices).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a modified family")
    p.add_argument("--d", type=int, required=True, help="local dimension (>= 2)")
    p.add_argument("--n", type=int, required=True, help="number of parties (>= 3)")
    p.add_argument("--xi", type=_parse_xi, default="smallest",
                   help="second removed diagonal digit or a strategy name (default: smallest)")
    p.add_argument("--out", help="family JSON path (default: stdout)")
    p.add_argument("--states-out", dest="states_out", help="state export JSON path")
    p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    p = sub.add_parser(
        "verify", help="check a family on all-but-one cuts",
        description="Run the combinatorial checks and the exact oracle on each "
                    "all-but-one cut.  The oracle decides every cut by integer "
                    "bookkeeping, with no tolerance.")
    p.add_argument("family", help="family JSON path")
    p.add_argument("--cut", type=_parse_cut, default="all",
                   help='cut index or "all" (default)')
    p.add_argument("--combinatorial-only", action="store_true",
                   help="skip the exact oracle")
    p.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write the full JSON report here")

    p = sub.add_parser("tables", help="regenerate the size comparison tables")
    p.add_argument("--format", dest="fmt", choices=["text", "csv", "json"],
                   default="text")
    p.add_argument("--out", help="directory to write one file per table")
    p.add_argument("--diagonal", type=int, default=None,
                   help="also emit the diagonal-home grid for this d")

    p = sub.add_parser("export", help="rewrite a family JSON in canonical form")
    p.add_argument("family", help="family JSON path")
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("import", help="validate a family JSON and summarize it")
    p.add_argument("family", help="family JSON path")

    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    fam = build_modified_family(args.d, args.n, xi=args.xi)
    states_text = None
    if args.states_out:
        from .states import family_states

        # before any file is written, so an export over the cap writes none
        states_text = dumps_canonical(states_to_json(family_states(fam)))
    if args.out:
        save_family(fam, args.out)
    if states_text is not None:
        Path(args.states_out).write_text(states_text, encoding="utf-8")
    summary = {
        "d": args.d, "n": args.n, "xi_prime": fam.xi, "case": fam.case,
        "labels": [str(l) for l in fam.labels], "size": fam.total_size(),
        "beyond_guarantee": fam.beyond_guarantee,
    }
    if args.fmt == "json":
        print(dumps_canonical(summary), end="")
    else:
        flag = "  [beyond the d >= 4 guarantee]" if fam.beyond_guarantee else ""
        print(f"built d={args.d} n={args.n} family: {fam.total_size()} tuples in "
              f"{len(fam)} sets, case {fam.case}, xi'={fam.xi}{flag}")
        if not args.out:
            print(dumps_family(fam), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verifier import overall_verdict, verify_strongest_nonlocality

    fam = load_family(args.family)
    # both routes expand None to every cut, and refuse a cut out of range before any work
    cuts = None if args.cut == "all" else [args.cut]

    reports = verify_strongest_nonlocality(fam, cuts=cuts)
    comb_overall = overall_verdict(reports)

    oracle_reports = None
    disagreements: list[str] = []
    writes = bool(args.out) or args.fmt == "json"
    if not args.combinatorial_only:
        from .oracle import oracle_overall, oracle_verify
        from .states import family_states

        oracle_reports = oracle_verify(family_states(fam), cuts=cuts)
        if writes:
            caps.check(sum(2 * r.D**2 for r in oracle_reports if r.free_class is not None),
                       "numbers in the witnesses")
        # both decide when the checker is not inconclusive: they must agree
        for comb, orc in zip(reports, oracle_reports):
            if comb.overall in ("trivial", "nontrivial") and orc.verdict != comb.overall:
                disagreements.append(
                    f"cut {comb.k}: combinatorial {comb.overall} but oracle {orc.verdict}")

    # the JSON report, witnesses included, is built only when it is written
    if writes:
        doc: dict = {
            "family": args.family,
            "cuts": [cut_report_to_json(r) for r in reports],
            "combinatorial_overall": comb_overall,
        }
        if oracle_reports is not None:
            doc["oracle"] = [oracle_report_to_json(r) for r in oracle_reports]
            doc["agreement"] = disagreements or "consistent"
        text = dumps_canonical(doc)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        if args.fmt == "json":
            print(text, end="")
    if args.fmt == "text":
        for r in reports:
            conds = ", ".join(f"{l}:{v.condition.value}"
                              for l, v in r.conditions.items())
            print(f"cut {r.k}: [{conds}] pair_covering={r.pair_covering} "
                  f"connectivity={r.connectivity} -> {r.overall}")
        print(f"combinatorial overall: {comb_overall}")
        if oracle_reports is not None:
            for r in oracle_reports:
                print(f"cut {r.k}: oracle D={r.D} dim={r.nullspace_dim} -> {r.verdict}")
            for msg in disagreements:
                print(f"DISAGREEMENT: {msg}")

    if disagreements:
        return 1
    if args.combinatorial_only:
        return 0
    return 0 if oracle_overall(oracle_reports) == "trivial" else 1


def cmd_tables(args: argparse.Namespace) -> int:
    from .tables import (all_comparison_tables, diagonal_table, render_comparison,
                         render_diagonal)

    # every file is rendered before any is written or printed, so a refused
    # run leaves no output
    tables = all_comparison_tables()
    if args.fmt == "json":
        doc = {"comparison": tables}
        if args.diagonal is not None:
            doc["diagonal"] = {"d": args.diagonal,
                               "grid": diagonal_table(args.diagonal).tolist()}
        files = {"tables.json": dumps_canonical(doc)}
    else:
        ext = "csv" if args.fmt == "csv" else "txt"
        files = {f"comparison_d{t['d']}.{ext}": render_comparison(t, args.fmt) for t in tables}
        if args.diagonal is not None:
            files[f"diagonal_d{args.diagonal}.{ext}"] = render_diagonal(args.diagonal, args.fmt)

    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    else:
        for text in files.values():
            print(text, end="" if args.fmt == "json" else "\n")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    fam = load_family(args.family)
    if args.out:
        save_family(fam, args.out)
    else:
        print(dumps_family(fam), end="")
    return 0


def cmd_import(args: argparse.Namespace) -> int:
    fam = load_family(args.family)
    kind = "modified" if isinstance(fam, ModifiedFamily) else "plain"
    print(f"valid {kind} family: radix={fam.radix} "
          f"labels={[str(l) for l in fam.labels]} size={fam.total_size()}")
    return 0


_DISPATCH = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "tables": cmd_tables,
    "export": cmd_export,
    "import": cmd_import,
}


def main(argv: list[str] | None = None) -> int:
    # stdout is UTF-8 whatever the locale, as the files are; a label need not be ASCII
    reconfigure = getattr(sys.stdout, "reconfigure", None)
    if reconfigure is not None:
        reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    try:
        caps.enum_cap()  # reject a malformed QNONLOC_CAP before any work
        return _DISPATCH[args.command](args)
    except QnonlocError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1 if args.command == "import" and isinstance(e, FamilyFormatError) else 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
