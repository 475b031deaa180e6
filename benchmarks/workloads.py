"""Seeded inputs and the fixed job list of each benchmark workload.

A workload's set-up turns the seed into confal inputs -- `.confal` source
text and element expressions -- and has confal parse and build them.  Its
jobs then call the public functions of `confal` on those inputs.  Costs
depend on the shapes chosen here (d-powers, windows, word lengths), never on
the seed: the seed only draws the nonzero rational coefficients, so every
seed does the same amount of work on different numbers.

Each job returns a raw result.  Outside the timed region the benchmark turns
it into a canonical JSON view (hashed for the frozen digests), counts its
items and checks the invariants that hold for every seed.

confal is imported inside the functions, never at module level, so that a
set-up child can time `import confal` itself.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

DEFAULT_SEED = 0
LIBRARY_WORKLOADS = ("symbolic", "coefficients", "spans")
WORKLOADS = LIBRARY_WORKLOADS + ("cli",)


@dataclass
class Job:
    """One timed operation: `call` runs it; `review` checks its result.

    review(result) -> (view, items, problems): a canonical JSON-able view of
    the exact result, the number of items the job checked or produced, and
    the invariant violations found (empty when the result is right).
    """

    name: str
    call: Callable[[], object]
    review: Callable[[object], tuple]


# -- seeded input text -----------------------------------------------------------------


def _coeff(rng: random.Random) -> Fraction:
    """A nonzero rational with a small numerator and denominator."""
    return Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))


def element_text(rng: random.Random, shape) -> str:
    """An element expression sum c_i * d^p_i g_i with seeded coefficients.

    shape is a list of (d_power, generator_name); every coefficient is
    nonzero, so the support (and the cost of the products) is the shape's.
    """
    out = ""
    for k, (p, gen) in enumerate(shape):
        c = _coeff(rng)
        head = gen if p == 0 else f"d^{p} {gen}"
        mag = f"{abs(c.numerator)}/{c.denominator}*{head}"
        if k == 0:
            out = ("-" if c < 0 else "") + mag
        else:
            out += (" - " if c < 0 else " + ") + mag
    return out


def base_expr_text(rng: random.Random, monomials) -> str:
    """A base-ring expression sum c_i * m_i over the given monomial texts."""
    out = ""
    for k, mono in enumerate(monomials):
        c = _coeff(rng)
        mag = f"{abs(c.numerator)}/{c.denominator}*{mono}"
        if k == 0:
            out = ("-" if c < 0 else "") + mag
        else:
            out += (" - " if c < 0 else " + ") + mag
    return out


def weyl_source(extra: dict | None = None, name: str = "weyl") -> str:
    gens = {"e": "1", "L": "x", **(extra or {})}
    body = "".join(f"    {g} = {v};\n" for g, v in gens.items())
    return (
        f"algebra {name} {{\n  kind differential;\n  base poly x;\n  deriv d/dx;\n"
        f"  generators {{\n{body}  }}\n}}\n"
    )


def polyzero_source() -> str:
    return (
        "algebra polyzero {\n  kind differential;\n  base poly x;\n  deriv zero;\n"
        "  generators {\n    one = 1;\n    g = x;\n  }\n}\n"
    )


def cureps_source() -> str:
    return (
        "algebra cureps {\n  kind differential;\n"
        "  base findim 2 table [1, 0, 0, 1, 0, 1, 0, 0];\n  deriv zero;\n"
        "  generators {\n    u1 = b1;\n    ueps = b2;\n  }\n}\n"
    )


def cur_matrix_source(n: int) -> str:
    body = "".join(
        f"    u{i}{j} = E({i},{j});\n" for i in range(1, n + 1) for j in range(1, n + 1)
    )
    return (
        f"algebra cur{n} {{\n  kind differential;\n  base matpoly {n} x;\n"
        f"  deriv zero;\n  generators {{\n{body}  }}\n}}\n"
    )


def cur_matrix_presented_source(n: int) -> str:
    names = [f"u{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    prods = "".join(
        f"    u{p}{q} (0) u{q}{s} = u{p}{s};\n"
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        for s in range(1, n + 1)
    )
    return (
        f"algebra cur{n}p {{\n  kind presented;\n  generators {', '.join(names)};\n"
        f"  products {{\n{prods}  }}\n}}\n"
    )


def build(source: str):
    """Parse and build the single algebra a definition text holds."""
    from confal import build_all

    (alg,) = build_all(source).values()
    return alg


# -- canonical views and shared invariants ---------------------------------------------


def jsonable(value):
    """Exact, deterministic JSON form: Fractions as strings, objects by repr."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str, float)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "to_json_dict"):
        return jsonable(value.to_json_dict())
    return repr(value)


def report_review(expected_checked: int):
    """Review for a CheckReport: it must be ok, with the implied item count."""

    def review(rep):
        problems = [] if rep.ok else [f"{rep.name} failed: {rep.failures[:1]}"]
        if rep.checked != expected_checked:
            problems.append(f"{rep.name} checked {rep.checked}, expected {expected_checked}")
        return jsonable(rep), rep.checked, problems

    return review


def plain_review(count: Callable[[object], int] = len, check=None):
    def review(result):
        problems = check(result) if check else []
        return jsonable(result), count(result), problems

    return review


def scan_bound(shape_u, shape_v, nilp: dict) -> int:
    """The locality scan bound of two generated differential elements.

    Max d-power of u + max d-power of v + the largest nilpotency index of
    delta on v's support, computed from the shapes alone.
    """
    top_u = max(p for p, _ in shape_u)
    top_v = max(p for p, _ in shape_v)
    return top_u + top_v + max(nilp[g] for _, g in shape_v)


def axioms_items(pairs) -> int:
    """conformal_axioms_report checks two laws at every n <= scan bound + 1."""
    return sum(2 * (bound + 2) for bound in pairs)


# -- symbolic: the product engine ------------------------------------------------------

# d-powers high enough that the 2^j right-slot recursion of the product
# engine dominates; shapes are fixed, the seed draws the coefficients.
SYMBOLIC_WEYL = (
    ((0, "L"), (1, "e")),
    ((9, "L"), (2, "e")),
    ((3, "L"), (8, "e")),
)
SYMBOLIC_POWER_PRODUCTS = ((0, 15, 15), (1, 14, 14))  # (p of L, j of d^j L, n)
SYMBOLIC_POLYZERO = (((0, "g"), (1, "one")), ((8, "g"), (2, "one")))
SYMBOLIC_PRESENTED = (((1, "u11"), (0, "u12")), ((10, "u12"), (1, "u22")), ((4, "u21"),))
WEYL_NILP = {"e": 1, "L": 2}
POLYZERO_NILP = {"one": 1, "g": 1}


def symbolic_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "sources": [weyl_source(), polyzero_source(), cur_matrix_presented_source(2)],
        "weyl": [element_text(rng, s) for s in SYMBOLIC_WEYL],
        "powers": [(element_text(rng, ((p, "L"),)), element_text(rng, ((j, "L"),)), n)
                   for p, j, n in SYMBOLIC_POWER_PRODUCTS],
        "polyzero": [element_text(rng, s) for s in SYMBOLIC_POLYZERO],
        "presented": [element_text(rng, s) for s in SYMBOLIC_PRESENTED],
    }


def symbolic_jobs(seed: int) -> list:
    from confal import (
        ALL_ZERO,
        associativity_report,
        conformal_axioms_report,
        dong_check,
        parse_element,
    )

    inputs = symbolic_inputs(seed)
    weyl, polyzero, presented = (build(src) for src in inputs["sources"])
    w = [parse_element(weyl, t) for t in inputs["weyl"]]
    powers = [(parse_element(weyl, a), parse_element(weyl, b), n)
              for a, b, n in inputs["powers"]]
    pz = [parse_element(polyzero, t) for t in inputs["polyzero"]]
    pres = [parse_element(presented, t) for t in inputs["presented"]]

    def locality_matrix(alg, xs):
        return [[alg.locality(u, v) for v in xs] for u in xs]

    def matrix_review(alg, xs):
        def check(mat):
            # the degree N is exact: u (N) v != 0 (vanishing above N is what
            # the locality scan itself establishes)
            bad = []
            for i, row in enumerate(mat):
                for j, deg in enumerate(row):
                    if deg is not ALL_ZERO and alg.is_zero(alg.nth(xs[i], xs[j], deg)):
                        bad.append(f"product at the locality degree of ({i},{j}) vanishes")
            return bad

        return plain_review(lambda m: sum(len(r) for r in m), check)

    def oracle_review(alg, triples, window=2):
        def check(prods):
            bad = []
            for (u, v, n), p in zip(triples, prods):
                for k in range(-window, window + 1):
                    if alg.phi(p, k) != alg.locality_coeff_sum(u, v, n, n, k):
                        bad.append(f"symbolic product differs from the oracle at n={n}, k={k}")
            return bad

        return plain_review(len, check)

    weyl_pairs = [(0, 1), (2, 0)]
    pz_pairs = [(0, 1), (1, 0)]
    assoc_m = assoc_n = 2
    return [
        Job(
            "weyl.locality_matrix",
            lambda: locality_matrix(weyl, w),
            matrix_review(weyl, w),
        ),
        Job(
            "weyl.conformal_axioms",
            lambda: conformal_axioms_report(
                weyl, [(f"({i},{j})", (w[i], w[j])) for i, j in weyl_pairs]
            ),
            report_review(axioms_items(
                scan_bound(SYMBOLIC_WEYL[i], SYMBOLIC_WEYL[j], WEYL_NILP) for i, j in weyl_pairs
            )),
        ),
        Job(
            "weyl.associativity",
            lambda: associativity_report(
                weyl, assoc_m, assoc_n, triples=[("(0,1,2)", (w[0], w[1], w[2]))]
            ),
            report_review(2 * (assoc_m + 1) * (assoc_n + 1)),
        ),
        Job(
            "weyl.dong",
            lambda: dong_check(w[0], w[1], w[2], max_order=1),
            plain_review(lambda r: len(r.degrees), lambda r: [] if r.ok else [r.witness]),
        ),
        Job(
            "weyl.power_products",
            lambda: [weyl.nth(u, v, n) for u, v, n in powers],
            oracle_review(weyl, powers),
        ),
        Job(
            "polyzero.locality_matrix",
            lambda: locality_matrix(polyzero, pz),
            matrix_review(polyzero, pz),
        ),
        Job(
            "polyzero.conformal_axioms",
            lambda: conformal_axioms_report(
                polyzero, [(f"({i},{j})", (pz[i], pz[j])) for i, j in pz_pairs]
            ),
            report_review(axioms_items(
                scan_bound(SYMBOLIC_POLYZERO[i], SYMBOLIC_POLYZERO[j], POLYZERO_NILP)
                for i, j in pz_pairs
            )),
        ),
        Job(
            "cur2p.associativity",
            lambda: associativity_report(
                presented, assoc_m, assoc_n, triples=[("(0,1,2)", (pres[0], pres[1], pres[2]))]
            ),
            report_review(2 * (assoc_m + 1) * (assoc_n + 1)),
        ),
        Job(
            "cur2p.locality_matrix",
            lambda: locality_matrix(presented, pres),
            matrix_review(presented, pres),
        ),
    ]


# -- coefficients: the coefficient model and the oracle --------------------------------

COEFF_LOCALITY = (("cur2", 2, 2), ("cur3", 1, 1), ("weyl", 6, 3))  # (algebra, window, orders)
ORACLE_ELEMENTS = 3  # seeded d-free combinations of generators per algebra
ORACLE_MAX_ORDER = 2
ORACLE_WINDOW = 3
COEFF_ASSOC_WINDOW = 1


COEFF_GENERATORS = {
    "cur2": [f"u{i}{j}" for i in (1, 2) for j in (1, 2)],
    "cur3": [f"u{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)],
    "weyl": ["e", "L"],
}


def coefficients_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # d-free combinations of up to three generators, chosen by position so
    # that the products which vanish are the same for every seed; the
    # generators have d-degree 0, so the d-power recursion is bypassed
    samples = {
        name: [element_text(rng, [(0, gens[(3 * i + t) % len(gens)])
                                  for t in range(min(3, len(gens)))])
               for i in range(ORACLE_ELEMENTS)]
        for name, gens in COEFF_GENERATORS.items()
    }
    return {
        "sources": {"cur2": cur_matrix_source(2), "cur3": cur_matrix_source(3),
                    "weyl": weyl_source(), "cur3p": cur_matrix_presented_source(3)},
        "samples": samples,
    }


def coefficients_jobs(seed: int) -> list:
    from confal import coeff_assoc_check, coefficient_locality_report, parse_element

    inputs = coefficients_inputs(seed)
    built = {name: build(src) for name, src in inputs["sources"].items()}
    presented = built.pop("cur3p")
    algs = built
    samples = {name: [parse_element(algs[name], t) for t in texts]
               for name, texts in inputs["samples"].items()}

    def oracle_sweep(alg, xs):
        """phi(u (n) v, k) against the coefficient-only locality sum."""
        out = []
        for u in xs:
            for v in xs:
                for n in range(ORACLE_MAX_ORDER + 1):
                    p = alg.nth(u, v, n)
                    for k in range(-ORACLE_WINDOW, ORACLE_WINDOW + 1):
                        direct = alg.phi(p, k)
                        brute = alg.locality_coeff_sum(u, v, n, n, k)
                        out.append((direct, direct == brute))
        return out

    def sweep_review(result):
        bad = sum(1 for _, same in result if not same)
        problems = [f"{bad} coefficients differ from the oracle"] if bad else []
        expected = ORACLE_ELEMENTS ** 2 * (ORACLE_MAX_ORDER + 1) * (2 * ORACLE_WINDOW + 1)
        if len(result) != expected:
            problems.append(f"oracle sweep compared {len(result)}, expected {expected}")
        return jsonable([d for d, _ in result]), len(result), problems

    def locality_items(alg, window, orders):
        return len(alg.generator_items()) ** 2 * orders * (2 * window + 1) ** 2

    jobs = [
        Job(
            f"{name}.coefficient_locality",
            (lambda alg=algs[name], w=window, o=orders:
             coefficient_locality_report(alg, w, extra_orders=o)),
            report_review(locality_items(algs[name], window, orders)),
        )
        for name, window, orders in COEFF_LOCALITY
    ]
    jobs += [
        Job(f"{name}.oracle_sweep", (lambda alg=alg, xs=samples[name]: oracle_sweep(alg, xs)),
            sweep_review)
        for name, alg in algs.items()
    ]
    jobs.append(
        Job(
            "cur3p.coeff_assoc",
            lambda: coeff_assoc_check(presented, COEFF_ASSOC_WINDOW),
            report_review((9 * (2 * COEFF_ASSOC_WINDOW + 1)) ** 3),
        )
    )
    return jobs


# -- spans: linear algebra -------------------------------------------------------------

GROWTH_RMAX = {"weyl": 8, "cur2": 5, "cur2p": 5, "weylx": 5}
COEFF_GROWTH = {  # (coefficient window, r_max)
    "weyl": ((-2, 2), 5), "cur2": ((-1, 1), 4), "cur2p": ((-1, 1), 4), "weylx": ((-1, 1), 3),
}
WEYL_EXTRA = ("x^2", "x^3")  # monomials of the seeded extra generator of weylx
SIMPLICITY = {"cur3": (10, 3), "cureps": (20, 5), "polyzero": (20, 5)}  # (trials, degree bound)
RECOGNIZE = {"weyl": 20, "polyzero": 20, "cur3": 8, "cur2p": 8}  # word bound
ANNIHILATOR_BOUND = 3


def spans_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    extra = {"f": base_expr_text(rng, WEYL_EXTRA)}
    return {"sources": {
        "weyl": weyl_source(),
        "cur2": cur_matrix_source(2),
        "cur3": cur_matrix_source(3),
        "cur2p": cur_matrix_presented_source(2),
        "weylx": weyl_source(extra, name="weylx"),
        "cureps": cureps_source(),
        "polyzero": polyzero_source(),
    }, "simplicity_seed": seed}


def spans_jobs(seed: int) -> list:
    from confal import (
        coeff_growth_check,
        growth_table,
        left_annihilator_probe,
        recognition_roundtrip,
        recognize_unital,
        simplicity_probe,
    )

    algs = {name: build(src) for name, src in spans_inputs(seed)["sources"].items()}

    def growth_review(rep):
        g = rep.gamma
        problems = [] if all(a <= b for a, b in zip(g, g[1:])) else [f"gamma decreases: {g}"]
        if rep.bound_ok is not None and not all(rep.bound_ok):
            problems.append(f"coefficient bound fails: {rep.bound_ok}")
        return jsonable(rep), len(g), problems

    def recognition(alg, word_bound):
        res = recognize_unital(alg, word_bound=word_bound)
        return res, recognition_roundtrip(alg, res)

    def recognition_review(result):
        res, replay = result
        problems = [] if res.ok else [f"recognition failed: {res.failures[:1]}"]
        return jsonable({"result": res, "roundtrip": replay}), replay["checked"], problems

    def simplicity_review(rep):
        return jsonable(rep), rep.candidates_checked, []

    def annihilator_review(alg):
        def check(elems):
            bad = []
            for x in elems:
                for _, g in alg.generator_items():
                    for n in range(alg.locality_scan_bound(x, g) + 1):
                        if not alg.is_zero(alg.nth(x, g, n)):
                            bad.append(f"{x!r} does not annihilate at order {n}")
            return bad

        return plain_review(len, check)

    jobs = []
    for name, rmax in GROWTH_RMAX.items():
        jobs.append(Job(f"{name}.growth", (lambda a=algs[name], r=rmax: growth_table(a, r)),
                        growth_review))
    for name, (window, rmax) in COEFF_GROWTH.items():
        jobs.append(Job(f"{name}.coeff_growth",
                        (lambda a=algs[name], w=window, r=rmax: coeff_growth_check(a, w, r)),
                        growth_review))
    for name, word_bound in RECOGNIZE.items():
        jobs.append(Job(f"{name}.recognize",
                        (lambda a=algs[name], b=word_bound: recognition(a, b)),
                        recognition_review))
    for name, (trials, bound) in SIMPLICITY.items():
        jobs.append(Job(
            f"{name}.simplicity",
            (lambda a=algs[name], t=trials, b=bound:
             simplicity_probe(a, trials=t, degree_bound=b, seed=seed)),
            simplicity_review,
        ))
    for name in ("weyl", "cur2p"):
        jobs.append(Job(
            f"{name}.left_annihilator",
            (lambda a=algs[name]: left_annihilator_probe(a, ANNIHILATOR_BOUND)),
            annihilator_review(algs[name]),
        ))
    return jobs


LIBRARY_JOBS = {
    "symbolic": symbolic_jobs,
    "coefficients": coefficients_jobs,
    "spans": spans_jobs,
}
LIBRARY_INPUTS = {
    "symbolic": symbolic_inputs,
    "coefficients": coefficients_inputs,
    "spans": spans_inputs,
}


def job_list_digest(workload: str, seed: int) -> str:
    """sha256 of a workload's generated inputs and job names (CLI: the argv list)."""
    if workload == "cli":
        listing = {"invocations": cli_invocations()}
    else:
        listing = {"inputs": LIBRARY_INPUTS[workload](seed),
                   "jobs": [job.name for job in LIBRARY_JOBS[workload](seed)]}
    return hashlib.sha256(json.dumps(listing, sort_keys=True).encode()).hexdigest()


# -- cli: every command on every bundled instance --------------------------------------

CLI_INSTANCES = ("weyl", "cur2", "cur2_presented", "cureps", "polyzero")
IDENTITY_ELEMENT = {"weyl": "e", "cur2": "u11 + u22", "cur2_presented": "u11 + u22",
                    "cureps": "u1", "polyzero": "one"}
TRANSPORT_R = {"cureps": "b2"}  # the other instances are not findim: exit 2 is documented
# Small windows keep the heavy math out of the way: process start, import,
# DSL parsing and building, argparse and the JSON envelope dominate here.
CLI_FLAGS = {
    "check": ["--max-order", "2", "--window", "2"],
    "oracle": ["--max-order", "2", "--window", "2"],
    "locality": [],
    "identity": [],
    "growth": ["--rmax", "4"],
    "coeff-growth": ["--rmax", "3"],
    "recognize": [],
    "transport": [],
    "simplicity": ["--trials", "5", "--degree-bound", "3"],
}


def cli_invocations() -> list:
    """(label, argv) of the 45 invocations, with paths relative to the checkout."""
    out = []
    for command, flags in CLI_FLAGS.items():
        for inst in CLI_INSTANCES:
            argv = [command, f"instances/{inst}.confal", "--format", "json", *flags]
            if command == "identity":
                argv += ["--element", IDENTITY_ELEMENT[inst]]
            if command == "transport":
                argv += ["--r", TRANSPORT_R.get(inst, "x")]
            out.append((f"{command} {inst}", argv))
    return out
