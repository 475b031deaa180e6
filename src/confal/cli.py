"""Command-line surface: parse definition files, run checks, emit reports.

Commands
    check       axiom suite: d-compatibility, both associativity expansions
                and coefficient-level locality
    oracle      coefficient-window agreement of the symbolic products with
                the brute-force coefficient computation
    locality    matrix of pairwise locality degrees of the generators
    identity    conformal-identity check of --element
    growth      growth function gamma(r) and detected degree
    coeff-growth  exact coefficient-space dimensions against the locality
                window bound
    recognize   unital recognition: recovered basis, product and delta
                tables, round-trip replay
    transport   transported identity over a finite-dimensional base and a
                nilpotent --r
    simplicity  sweep for proper delta-stable ideals

Exit codes: 0 pass, 1 a check failed, 2 parse/input error, 3 resource bound;
the code of an error comes from its type (see errors).
Reports render as text (default), deterministic JSON (schema "confal/1"), or
CSV for the tabular commands.  The environment variable CONFAL_MAX_MONOMIALS
sets the enumeration cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from .errors import ConfalError
from .dsl import eval_base_expr, load_path, parse_base_expr, parse_element
from .products import ALL_ZERO

# Each command imports the layers it runs (axioms, growth, structure) itself,
# so a process loads only what its command uses.

SCHEMA = "confal/1"


def _jsonable(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if value is ALL_ZERO:
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit(args, command: str, algebra: str, ok: bool | None, result: dict,
          text_lines, csv_text: str | None = None) -> int:
    report = {
        "schema": SCHEMA,
        "command": command,
        "input": {"path": args.file, "sha256": _digest(args.file)},
        "algebra": algebra,
        "ok": ok,
        "result": _jsonable(result),
    }
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        for line in text_lines:
            print(line)
        if ok is not None:
            print(f"verdict: {'pass' if ok else 'fail'}")
    return 0 if ok in (True, None) else 1


def _pick_algebra(args):
    algebras = load_path(args.file)
    if getattr(args, "algebra", None):
        if args.algebra not in algebras:
            raise ValueError(f"no algebra named {args.algebra!r} in {args.file}")
        return algebras[args.algebra]
    return next(iter(algebras.values()))


# -- commands --------------------------------------------------------------------------


def _cmd_check(args) -> int:
    from .axioms import (
        associativity_report,
        coefficient_locality_report,
        conformal_axioms_report,
    )

    alg = _pick_algebra(args)
    gens = alg.generator_items()
    pairs = [(f"({a},{b})", (u, v)) for a, u in gens for b, v in gens]
    axioms = conformal_axioms_report(alg, pairs)
    assoc = associativity_report(alg, args.max_order, args.max_order)
    coeff = coefficient_locality_report(alg, args.window)
    ok = axioms.ok and assoc.ok and coeff.ok
    result = {
        "axioms": axioms.to_json_dict(),
        "associativity": assoc.to_json_dict(),
        "coefficient_locality": coeff.to_json_dict(),
        # Dong's lemma holds on every triple: each pair's locality scan bound is proved
        "mutual_locality_ok": True,
        "mutual_locality_failures": [],
    }
    text = [
        f"check {alg.name}:",
        f"  d-compatibility: {'ok' if axioms.ok else 'FAIL'} ({axioms.checked} identities)",
        f"  associativity (m,n <= {args.max_order}): "
        f"{'ok' if assoc.ok else 'FAIL'} ({assoc.checked} identities)",
        f"  coefficient locality (window {args.window}): "
        f"{'ok' if coeff.ok else 'FAIL'} ({coeff.checked} combinations)",
        "  mutual locality: holds on every triple (each pair's scan bound is proved)",
    ]
    for rep in (axioms, assoc, coeff):
        for f in rep.failures:
            text.append(f"  witness: {f}")
    return _emit(args, "check", alg.name, ok, result, text)


def _cmd_oracle(args) -> int:
    if args.max_order < 0 or args.window < 0:
        raise ValueError("--max-order and --window must be nonnegative")
    alg = _pick_algebra(args)
    gens = alg.generator_items()
    checked = 0
    failures = []
    for a, u in gens:
        for b, v in gens:
            for n, p in enumerate(alg.nth_orders(u, v, 0, args.max_order)):
                for k in range(-args.window, args.window + 1):
                    direct = alg.phi(p, k)
                    brute = alg.locality_coeff_sum(u, v, n, n, k)
                    checked += 1
                    if not (direct - brute).is_zero():
                        failures.append(
                            f"({a} ({n}) {b})({k}): symbolic {direct!r} vs oracle {brute!r}"
                        )
    ok = not failures
    result = {
        "pairs": len(gens) ** 2,
        "max_order": args.max_order,
        "window": args.window,
        "checked": checked,
        "failures": failures,
    }
    text = [
        f"oracle {alg.name}: {checked} coefficients compared "
        f"(n <= {args.max_order}, k in [{-args.window}, {args.window}])",
    ] + [f"  witness: {f}" for f in failures[:5]]
    return _emit(args, "oracle", alg.name, ok, result, text)


def _cmd_locality(args) -> int:
    alg = _pick_algebra(args)
    gens = alg.generator_items()
    matrix = {(a, b): alg.locality(u, v) for a, u in gens for b, v in gens}
    names = [a for a, _ in gens]
    width = max(6, max(len(n) for n in names) + 2)
    head = " " * width + "".join(f"{n:>{width}}" for n in names)
    text = [f"locality degrees of {alg.name}:", head]
    for a in names:
        row = f"{a:>{width}}"
        for b in names:
            deg = matrix[(a, b)]
            row += f"{'-' if deg is ALL_ZERO else deg:>{width}}"
        text.append(row)
    csv_lines = ["left,right,degree"]
    for (a, b), deg in matrix.items():
        csv_lines.append(f"{a},{b},{'' if deg is ALL_ZERO else deg}")
    result = {f"{a},{b}": repr(d) for (a, b), d in matrix.items()}
    return _emit(args, "locality", alg.name, None, result, text,
                 "\n".join(csv_lines) + "\n")


def _cmd_identity(args) -> int:
    from .axioms import identity_report

    alg = _pick_algebra(args)
    elem = parse_element(alg, args.element)
    rep = identity_report(alg, elem)
    result = {"element": repr(elem), **rep.to_json_dict()}
    text = [
        f"identity check in {alg.name}: {args.element}",
        f"  element: {elem!r}",
        f"  self-locality degree: {rep.self_locality!r}"
        + (" (exactly one)" if rep.exactly_one else ""),
    ] + [f"  failure: {f}" for f in rep.failures]
    return _emit(args, "identity", alg.name, rep.ok, result, text)


def _cmd_growth(args) -> int:
    from .growth import growth_table

    alg = _pick_algebra(args)
    rep = growth_table(alg, args.rmax)
    ok = rep.degree != "inconclusive" if args.strict else None
    return _emit(args, "growth", alg.name, ok, rep.to_json_dict(),
                 rep.text_lines(), rep.csv_text())


def _cmd_coeff_growth(args) -> int:
    from .growth import coeff_growth_check

    alg = _pick_algebra(args)
    rep = coeff_growth_check(alg, (args.window_low, args.window_high), args.rmax)
    ok = all(rep.bound_ok)
    return _emit(args, "coeff-growth", alg.name, ok, rep.to_json_dict(),
                 rep.text_lines(), rep.csv_text())


def _cmd_recognize(args) -> int:
    from .structure import recognition_roundtrip, recognize_unital

    alg = _pick_algebra(args)
    e = parse_element(alg, args.element) if args.element else None
    res = recognize_unital(alg, e, word_bound=args.word_bound)
    replay = recognition_roundtrip(alg, res, n_max=args.n_max)
    ok = res.ok
    result = res.to_json_dict()
    result["roundtrip"] = replay
    text = [
        f"recognition of {alg.name}:",
        f"  identity: {res.identity_elem!r}",
        f"  recovered basis ({res.dim}): {', '.join(res.labels)}",
        f"  closed: {res.closed}",
        f"  delta is zero: {res.delta_is_zero}",
        "  checks: fit=%s iterated-derivation=%s leibniz=%s"
        % (res.fit_ok, res.dtilde_ok, res.leibniz_ok),
        f"  roundtrip: {replay['checked']} products matched, {replay['skipped']} skipped",
    ] + [f"  note: {line}" for line in res.log[:6]]
    return _emit(args, "recognize", alg.name, ok, result, text)


def _cmd_transport(args) -> int:
    from .ore_skew import FinDim

    alg = _pick_algebra(args)
    base = alg.base if hasattr(alg, "base") else None
    if not isinstance(base, FinDim):
        raise ValueError("transport needs a findim differential instance")
    from .structure import transport_identity

    r = eval_base_expr(parse_base_expr(args.r), base)
    res = transport_identity(base, r, name=f"{alg.name}+ad")
    result = res.to_json_dict()
    text = [
        f"transport over {alg.name} with r = {base.format(r)}:",
        f"  nilpotency index: {res.nil_index}",
        f"  transported identity: {res.identity!r}",
        f"  self-locality degree: {res.report.self_locality!r}",
    ]
    return _emit(args, "transport", alg.name, res.report.ok, result, text)


def _cmd_simplicity(args) -> int:
    from .diff_conformal import DifferentialAlgebra

    alg = _pick_algebra(args)
    if not isinstance(alg, DifferentialAlgebra):
        raise ValueError("simplicity needs a differential instance")
    from .structure import simplicity_probe

    rep = simplicity_probe(
        alg, trials=args.trials, degree_bound=args.degree_bound, seed=args.seed
    )
    text = [
        f"simplicity probe of {alg.name} (seed {args.seed}, "
        f"degree bound {rep.degree_bound}, {rep.candidates_checked} candidates):",
        f"  coefficient subalgebra dimension: {rep.subalgebra_dim}",
    ]
    if rep.witness_found:
        text += [
            f"  proper delta-stable ideal found, seeded by {rep.witness}",
            f"  missing from the ideal: {', '.join(rep.witness_missing)}",
        ]
    else:
        text.append("  no proper delta-stable ideal found within the bounds")
    return _emit(args, "simplicity", alg.name, None, rep.to_json_dict(), text)


# -- argument surface --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="confal",
        description="exact workbench for associative conformal algebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, tabular=False):
        p.add_argument("file", help="definition file (.confal)")
        p.add_argument("--algebra", help="algebra name when the file holds several")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.set_defaults(tabular=tabular)

    p = sub.add_parser("check", help="axiom suite")
    common(p)
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--window", type=int, default=6)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="coefficient-window agreement")
    common(p)
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--window", type=int, default=6)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("locality", help="pairwise locality degrees")
    common(p, tabular=True)
    p.set_defaults(func=_cmd_locality)

    p = sub.add_parser("identity", help="conformal-identity check")
    common(p)
    p.add_argument("--element", required=True, help="element expression")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("growth", help="growth function")
    common(p, tabular=True)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--strict", action="store_true",
                   help="fail when no growth degree is detected")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("coeff-growth", help="coefficient growth bound")
    common(p, tabular=True)
    p.add_argument("--rmax", type=int, default=6)
    p.add_argument("--window-low", type=int, default=-1)
    p.add_argument("--window-high", type=int, default=1)
    p.set_defaults(func=_cmd_coeff_growth)

    p = sub.add_parser("recognize", help="unital recognition")
    common(p)
    p.add_argument("--element", help="identity element (searched when omitted)")
    p.add_argument("--word-bound", type=int, default=8)
    p.add_argument("--n-max", type=int, default=2, help="round-trip product orders")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("transport", help="identity transport over (A, ad r)")
    common(p)
    p.add_argument("--r", required=True, help="nilpotent element expression")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("simplicity", help="delta-stable ideal probe")
    common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--degree-bound", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized trials")
    p.set_defaults(func=_cmd_simplicity)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.format == "csv" and not args.tabular:
        print("csv output is only available for tabular commands", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfalError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
