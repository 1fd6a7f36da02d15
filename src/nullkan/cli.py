"""Command line front end.

Exit codes: 0 every check passed, 1 a check failed, 2 bad input,
3 a search budget or enumeration guard was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .construct import (
    builtin_model,
    build_comma_web,
    check_assumptions,
    direct_prevalence,
    main_null,
    run_pipeline,
    verify_extension,
    verify_invariance,
    verify_minimality,
)
from .fincat import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    EngineError,
    validate_category,
    validated,
)
from .lemmas import check_setup_adjoints, run_lemma_suite
from .nullity import carrier_of, materialize_nullity_category
from .report import assignment_payload, canonical_json, digest, nullity_cells
from .specfile import SpecDocument, parse_spec, serialize_spec, to_setup

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def budget(text: str) -> int:
    """A step budget: an integer, 0 or more."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nullkan",
        description="Construct and check nullity structures on finite categories.",
    )
    p.add_argument("--version", action="version", version=f"nullkan {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        g = sp.add_mutually_exclusive_group(required=True)
        g.add_argument("--spec", metavar="FILE", help="model file")
        g.add_argument("--model", metavar="NAME", help="builtin model name")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=budget, default=DEFAULT_BUDGET)
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="canonical JSON report")
        fmt.add_argument("--text", action="store_true", help="summary lines (default)")
        sp.add_argument("--out", metavar="FILE", help="write the report here")

    common(sub.add_parser("validate", help="structural checks and model assumptions"))
    common(sub.add_parser("construct", help="run the lifting pipeline"))
    chk = sub.add_parser("check", help="verify a claim")
    chk.add_argument("claim", choices=("thm1", "thm3", "ext", "lemmas"))
    common(chk)
    common(sub.add_parser("oracle-compare", help="pipeline vs direct prevalence"))
    common(sub.add_parser("materialize", help="comma and nullity categories, with sizes"))
    return p


def _load(args):
    if args.spec is not None:
        data = Path(args.spec).read_bytes()
        doc = parse_spec(data.decode("utf-8"))
        return to_setup(doc, Path(args.spec).stem), digest(data)
    data = serialize_spec(SpecDocument(model=args.model)).encode("utf-8")
    return builtin_model(args.model), digest(data)


def _cmd_validate(s, args):
    cats = {}
    lines = []
    for C in {c.name: c for c in (s.base, s.inter, s.main)}.values():
        rep = validated(C)
        cats[C.name] = rep.as_dict()
        lines.append(f"  category {C.name}: {'ok' if rep.ok else 'FAIL'}")
    assum = check_assumptions(s)
    lines.append(
        f"  assumptions: {'ok' if assum.ok else f'FAIL ({len(assum.violations)} violations)'}"
    )
    ok = assum.ok and all(c["ok"] for c in cats.values())
    return {"categories": cats, "assumptions": assum.as_dict()}, ok, lines


def _cmd_construct(s, args):
    r = run_pipeline(s)
    lines = [
        f"  {x}: " + (" ".join(r.main_null[x].sorted_labels()))
        for x in s.main.objects
    ]
    lines.append(f"  comma transport violations: {len(r.comma_violations)}")
    lines.append(f"  invariance: {'ok' if r.invariance.ok else 'FAIL'}")
    body = {
        "assignment": assignment_payload(r.main_null),
        "diagnostics": r.as_dict(),
        "invariance": r.invariance.as_dict(),
    }
    return body, r.invariance.ok, lines


def _cmd_check_thm1(s, args):
    rep = verify_invariance(s)
    lines = [
        f"  endomorphisms checked: {rep.checked.get('endomorphisms', 0)}",
        f"  violations: {len(rep.violations)}",
    ]
    return {"invariance": rep.as_dict()}, rep.ok, lines


def _cmd_check_thm3(s, args):
    rep = verify_minimality(s)
    lines = [
        f"  candidates: {rep.checked.get('candidates', 0)}"
        f" (admissible: {rep.checked.get('admissible', 0)})",
        f"  violations: {len(rep.violations)}",
    ]
    return {"minimality": rep.as_dict()}, rep.ok, lines


def _cmd_check_ext(s, args):
    rep = verify_extension(s, budget=args.budget)
    lines = [f"  hypothesis met: {rep.hypothesis_met}"]
    for name in sorted(rep.items):
        lines.append(f"  {name}: {rep.items[name].get('status', '?')}")
    return {"extension": rep.as_dict()}, rep.ok, lines


def _cmd_check_lemmas(s, args):
    suite = run_lemma_suite(seed=args.seed, budget=args.budget)
    adj = check_setup_adjoints(s, budget=args.budget)
    lines = []
    ok = True
    for name in sorted(suite):
        row = suite[name]
        ok = ok and not row["failures"]
        lines.append(
            f"  {name}: {row['verified']} verified, {row['vacuous']} vacuous, "
            f"{len(row['failures'])} failed"
        )
    for name in sorted(adj):
        lines.append(f"  adjoint {name}: {adj[name]['how']}")
    return {"lemmas": suite, "setup_adjoints": adj}, ok, lines


def _cmd_oracle_compare(s, args):
    fast = main_null(s)
    slow = direct_prevalence(s)
    diffs = []
    for x in s.main.objects:
        if fast[x].masks != slow[x].masks:
            diffs.append(
                {
                    "object": x,
                    "pipeline": nullity_cells(fast[x]),
                    "direct": nullity_cells(slow[x]),
                }
            )
    lines = [f"  objects compared: {len(s.main.objects)}", f"  disagreements: {len(diffs)}"]
    body = {"oracle": {"objects": len(s.main.objects), "disagreements": diffs}}
    return body, not diffs, lines


def _cmd_materialize(s, args):
    web = build_comma_web(s)
    comma = {}
    lines = []
    ok = True
    for label, cc in (
        ("arrow_base", web.arrow_base),
        ("comma_main", web.comma_main),
        ("comma_probe", web.comma_probe),
        ("comma_inter", web.comma_inter),
    ):
        rep = validate_category(cc.category)
        ok = ok and rep.ok
        comma[label] = {
            "name": cc.category.name,
            "objects": len(cc.category.objects),
            "morphisms": len(cc.category.morphisms),
            "ok": rep.ok,
        }
        lines.append(
            f"  {label}: {len(cc.category.objects)} objects, "
            f"{len(cc.category.morphisms)} morphisms, {'ok' if rep.ok else 'FAIL'}"
        )
    distinct = {}
    for V in s.main.objects:
        c = carrier_of(s.gamma, V)
        distinct[c.elements] = c
    mat = materialize_nullity_category(
        f"Null[{s.name}]", [distinct[k] for k in sorted(distinct)]
    )
    rep = validate_category(mat.category)
    ok = ok and rep.ok
    lines.append(
        f"  materialized: {len(mat.category.objects)} objects, "
        f"{len(mat.category.morphisms)} morphisms, {'ok' if rep.ok else 'FAIL'}"
    )
    body = {
        "comma": comma,
        "materialized": {
            "objects": len(mat.category.objects),
            "morphisms": len(mat.category.morphisms),
            "ok": rep.ok,
        },
    }
    return body, ok, lines


# Each command, by the name its report gives it.
COMMANDS = {
    "validate": _cmd_validate,
    "construct": _cmd_construct,
    "oracle-compare": _cmd_oracle_compare,
    "materialize": _cmd_materialize,
    "check:thm1": _cmd_check_thm1,
    "check:thm3": _cmd_check_thm3,
    "check:ext": _cmd_check_ext,
    "check:lemmas": _cmd_check_lemmas,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        setup, input_digest = _load(args)
    except (OSError, UnicodeDecodeError, EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    command = args.command if args.command != "check" else f"check:{args.claim}"
    payload = {
        "tool": "nullkan",
        "tool_version": __version__,
        "command": command,
        "model": setup.name,
        "input_digest": input_digest,
        "seed": args.seed,
        "budget": args.budget,
    }
    try:
        body, ok, lines = COMMANDS[command](setup, args)
        status = "pass" if ok else "fail"
        code = EXIT_PASS if ok else EXIT_FAIL
    except BudgetExceeded as e:
        body, lines = {"budget_error": str(e)}, [f"  {e}"]
        status, code = "budget-exceeded", EXIT_BUDGET
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    payload.update(body)
    payload["status"] = status

    if args.json:
        text = canonical_json(payload)
    else:
        text = "\n".join([f"{command} {setup.name}"] + lines + [f"status: {status}"]) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
