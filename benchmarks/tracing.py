"""Per-layer tracing of confal from the outside.

`Tracer().install()` wraps the public entry points of every confal module
(the layers); `Tracer.uninstall()` puts the originals back.
Each wrapper counts calls and measures self time: its duration minus the
part of it that wrapped calls nested inside cover.  A wrapped function is
replaced wherever confal looks it up, so a name imported into another module
(`nth_product_terms` in `diff_conformal` and `presented_conformal`, say) is
wrapped there as well.

High-frequency operations -- the arithmetic layer and the element and ring
operators of the other layers -- are aggregated per name only.  Every other
wrapped call is also kept as a span (name, parent span, start, duration),
up to SPAN_CAP spans per traced pass; the overflow is counted, not kept.

The wrappers change no argument and no result, so a traced run computes
exactly what an untraced one does; the benchmark checks that by comparing
the result digests of both.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

SPAN_CAP = 200_000

# Aggregated operations: (module, class or None, attribute names).
AGGREGATED = [
    ("exact_arith", "Poly", ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                             "__neg__", "__mul__", "__rmul__", "__pow__", "derive",
                             "divexact", "__eq__")),
    ("exact_arith", "DOp", ("__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                            "__neg__", "__mul__", "__rmul__", "times_d", "divexact",
                            "__eq__")),
    ("exact_arith", "MatPoly", ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                                "__rmul__", "__pow__", "derive", "det", "__eq__")),
    ("exact_arith", None, ("gen_binom", "falling_factorial")),
    ("ore_skew", "SkewLaurent", ("__init__", "__add__", "__sub__", "__neg__", "__mul__",
                                 "__rmul__", "scale", "__eq__", "coords", "key")),
    ("ore_skew", "OreRing", ("move_t_across",)),
    ("ore_skew", "Derivation", ("apply",)),
    ("ore_skew", "FinDim", ("add", "scale", "mul", "decompose")),
    ("ore_skew", "MatPolyRing", ("decompose",)),
    ("ore_skew", None, ("nilpotency_index",)),
    ("products", None, ("nth_product_terms", "terms_clean", "terms_key",
                        "terms_scalar_normalized_key", "terms_apply_dop")),
    ("diff_conformal", "ConfElem", ("__init__", "__add__", "__neg__", "__sub__", "__mul__",
                                    "__rmul__", "derive", "apply_dop", "__eq__", "key")),
    ("diff_conformal", "DifferentialAlgebra", ("coordinates", "locality_scan_bound",
                                               "support_nilpotency", "primitive",
                                               "model_coords", "model_mul")),
    ("presented_conformal", "PresElem", ("__init__", "__add__", "__neg__", "__sub__",
                                         "__mul__", "__rmul__", "derive", "apply_dop",
                                         "__eq__", "key")),
    ("presented_conformal", "CoeffElem", ("__init__", "__add__", "__neg__", "__sub__",
                                          "scale", "__eq__")),
    ("presented_conformal", "ProductTable", ("lookup",)),
    ("presented_conformal", "PresentedAlgebra", ("coordinates", "locality_scan_bound",
                                                 "model_coords", "model_mul")),
    ("presented_conformal", None, ("coeff_mul",)),
    ("growth", None, ("monomial_cap",)),
    ("axioms", "CheckReport", ("__init__", "fail")),
    ("structure", None, ("canonical_rep", "class_coords")),
    ("cli", None, ("_jsonable",)),
]

# Operations kept as spans as well.
SPANNED = [
    ("ore_skew", "Derivation", ("__init__",)),
    ("ore_skew", "FinDim", ("__init__",)),
    ("diff_conformal", "DifferentialAlgebra", ("__init__", "nth", "coefficient", "oracle",
                                               "locality_coeff_sum", "locality", "phi",
                                               "phi0_coords", "phi0_base", "format_elem")),
    ("diff_conformal", None, ("dong_check",)),
    ("presented_conformal", "PresentedAlgebra", ("__init__", "nth", "phi", "locality",
                                                 "locality_coeff_sum", "format_elem")),
    ("presented_conformal", None, ("coeff_assoc_check", "check_associativity",
                                   "is_conformal_identity", "left_annihilator_probe")),
    ("linalg", "RowSpace", ("add", "residual", "contains", "express")),
    ("linalg", None, ("dense_rref", "dense_nullspace", "dense_solve")),
    ("growth", None, ("enumerate_span", "module_rank", "generator_order_bound",
                      "growth_table", "coeff_growth_check", "detect_degree",
                      "difference_table", "loglog_slope")),
    ("growth", "GrowthReport", ("rows", "to_json_dict", "text_lines", "csv_text")),
    ("axioms", None, ("conformal_axioms_report", "associativity_report",
                      "coefficient_locality_report", "identity_report",
                      "left_annihilator_probe")),
    ("structure", None, ("find_identity", "peel_components", "coefficient_fit_degree",
                         "iterated_derivation_check", "recognize_unital",
                         "recognition_roundtrip", "transport_identity",
                         "delta_stable_closure", "coefficient_subalgebra",
                         "simplicity_probe")),
    ("structure", "RecognitionResult", ("to_json_dict",)),
    ("structure", "SimplicityReport", ("to_json_dict",)),
    ("dsl", None, ("tokenize", "parse", "build", "build_all", "load_path", "parse_element",
                   "eval_base_expr", "pretty")),
    ("cli", None, ("main", "build_parser", "_pick_algebra", "_emit", "_digest",
                   "_cmd_check", "_cmd_oracle", "_cmd_locality", "_cmd_identity",
                   "_cmd_growth", "_cmd_coeff_growth", "_cmd_recognize", "_cmd_transport",
                   "_cmd_simplicity")),
]

# Wrapped names counted under another name in the report.
RENAMES = {
    "exact_arith.Poly.__mul__": "exact_arith.poly_mul",
    "exact_arith.Poly.__rmul__": "exact_arith.poly_mul",
    "exact_arith.DOp.__mul__": "exact_arith.dop_mul",
    "exact_arith.DOp.__rmul__": "exact_arith.dop_mul",
    "exact_arith.MatPoly.__mul__": "exact_arith.matpoly_mul",
    "exact_arith.MatPoly.__rmul__": "exact_arith.matpoly_mul",
    "ore_skew.SkewLaurent.__mul__": "ore_skew.skew_mul",
    "ore_skew.SkewLaurent.__rmul__": "ore_skew.skew_mul",
    "ore_skew.OreRing.move_t_across": "ore_skew.move_t_across",
    "diff_conformal.DifferentialAlgebra.nth": "diff_conformal.nth",
    "diff_conformal.DifferentialAlgebra.coefficient": "diff_conformal.coefficient",
    "diff_conformal.DifferentialAlgebra.locality_coeff_sum": "diff_conformal.locality_coeff_sum",
    "diff_conformal.DifferentialAlgebra.locality": "diff_conformal.locality",
    "presented_conformal.PresentedAlgebra.nth": "presented_conformal.nth",
    "presented_conformal.PresentedAlgebra.phi": "presented_conformal.phi",
    "linalg.RowSpace.add": "linalg.rowspace_add",
    "linalg.RowSpace.residual": "linalg.rowspace_query",
    "linalg.RowSpace.express": "linalg.rowspace_query",
    "linalg.dense_nullspace": "linalg.dense",
    "linalg.dense_solve": "linalg.dense",
}

LAYERS = ("exact_arith", "ore_skew", "products", "diff_conformal", "presented_conformal",
          "linalg", "growth", "axioms", "structure", "dsl", "cli")

# The per-layer metrics, in report order: (name, unit, better).
PER_LAYER = [
    ("exact_arith.matpoly_mul.calls", "count", "lower"),
    ("exact_arith.poly_mul.calls", "count", "lower"),
    ("exact_arith.dop_mul.calls", "count", "lower"),
    ("exact_arith.self_s", "s", "lower"),
    ("ore_skew.skew_mul.calls", "count", "lower"),
    ("ore_skew.move_t_across.calls", "count", "lower"),
    ("ore_skew.self_s", "s", "lower"),
    ("ore_skew.derivation_build_s", "s", "lower"),
    ("products.nth_product_terms.calls", "count", "lower"),
    ("products.base_case.calls", "count", "lower"),
    ("products.base_case.distinct_ratio", "ratio", "higher"),
    ("products.self_s", "s", "lower"),
    ("diff_conformal.nth.calls", "count", "lower"),
    ("diff_conformal.coefficient.calls", "count", "lower"),
    ("diff_conformal.coefficient.distinct_ratio", "ratio", "higher"),
    ("diff_conformal.locality_coeff_sum.calls", "count", "lower"),
    ("diff_conformal.locality.calls", "count", "lower"),
    ("diff_conformal.self_s", "s", "lower"),
    ("presented_conformal.nth.calls", "count", "lower"),
    ("presented_conformal.phi.calls", "count", "lower"),
    ("presented_conformal.coeff_mul.calls", "count", "lower"),
    ("presented_conformal.self_s", "s", "lower"),
    ("linalg.rowspace_add.calls", "count", "lower"),
    ("linalg.rowspace_add.accept_ratio", "ratio", "higher"),
    ("linalg.rowspace_query.calls", "count", "lower"),
    ("linalg.dense.calls", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("growth.module_rank.calls", "count", "lower"),
    ("growth.module_rank.self_s", "s", "lower"),
    ("growth.enumerate_span.kept_ratio", "ratio", "higher"),
    ("growth.self_s", "s", "lower"),
    ("axioms.items_checked", "count", "higher"),
    ("axioms.self_s", "s", "lower"),
    ("structure.delta_stable_closure.calls", "count", "lower"),
    ("structure.self_s", "s", "lower"),
    ("dsl.build.calls", "count", "lower"),
    ("dsl.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("errors.confal_error.count", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _terms_key(terms: dict):
    return tuple(sorted((k, tuple(sorted(q.coeffs.items()))) for k, q in terms.items()))


class Tracer:
    """Counts, self times and spans of the wrapped calls of one process."""

    def __init__(self):
        # stack of frames [time covered by wrapped children, enclosing span id]
        self.stack: list = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.events: Counter = Counter()
        self.distinct: dict = {"base_case": set(), "coefficient": set()}
        self.reports: list = []
        self.spans: list = []
        self.spans_dropped = 0
        self._undo: list = []

    # -- installation --------------------------------------------------------------

    def install(self) -> "Tracer":
        modules = {name: sys.modules[f"confal.{name}"] for name in LAYERS
                   if f"confal.{name}" in sys.modules}
        namespaces = [m for m in sys.modules.values()
                      if getattr(m, "__name__", "").split(".")[0] == "confal"]
        for table, spanned in ((AGGREGATED, False), (SPANNED, True)):
            for layer, cls_name, attrs in table:
                mod = modules.get(layer)
                if mod is None:
                    continue
                if cls_name is None:
                    for attr in attrs:
                        orig = mod.__dict__[attr]
                        wrapped = self._wrap(orig, layer, f"{layer}.{attr}", spanned)
                        for ns in namespaces:
                            for key, val in list(vars(ns).items()):
                                if val is orig:
                                    self._set(ns, key, wrapped)
                else:
                    cls = mod.__dict__[cls_name]
                    done: dict = {}
                    for attr in attrs:
                        orig = cls.__dict__[attr]
                        if id(orig) not in done:
                            done[id(orig)] = self._wrap(
                                orig, layer, f"{layer}.{cls_name}.{attr}", spanned)
                        self._set(cls, attr, done[id(orig)])
                    # aliases such as __rmul__ = __mul__ share the wrapper
                    for key, val in list(cls.__dict__.items()):
                        if id(val) in done and key not in attrs:
                            self._set(cls, key, done[id(val)])
        return self

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, "__dict__", {}).get(key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- the wrapper ----------------------------------------------------------------

    def _hooks(self, name):
        """Extra bookkeeping for the calls that feed ratio metrics."""
        if name == "products.nth_product_terms":
            def before(args, kwargs):
                if len(args) == 4:
                    args = args[:3] + (self._count_base_case(args[3]),)
                return args, kwargs
            return before, None
        if name == "diff_conformal.DifferentialAlgebra.coefficient":
            def before(args, kwargs):
                alg, u, k = args
                self.distinct["coefficient"].add((alg.name, _terms_key(u.terms), k))
                return args, kwargs
            return before, None
        if name in ("diff_conformal.DifferentialAlgebra.nth",
                    "presented_conformal.PresentedAlgebra.nth"):
            def before(args, kwargs):
                if self.events["enumerate_span.depth"]:
                    self.events["enumerate_span.nth"] += 1
                return args, kwargs
            return before, None
        if name == "growth.enumerate_span":
            def before(args, kwargs):
                self.events["enumerate_span.depth"] += 1
                return args, kwargs

            def after(result):
                self.events["enumerate_span.depth"] -= 1
                if result is not None:
                    self.events["enumerate_span.kept"] += len(result.entries)
            return before, after
        if name == "linalg.RowSpace.add":
            def after(result):
                self.events["rowspace_add.accepted"] += bool(result)
            return None, after
        if name == "axioms.CheckReport.__init__":
            def before(args, kwargs):
                self.reports.append(args[0])
                return args, kwargs
            return before, None
        return None, None

    def _count_base_case(self, base_case):
        owner = getattr(base_case, "__self__", None)
        alg_name = getattr(owner, "name", "")
        layer = type(owner).__module__.split(".")[-1] if owner is not None else "products"
        label = f"{layer}.base_case"
        seen = self.distinct["base_case"]
        stack, calls, self_s = self.stack, self.calls, self.self_s
        perf = time.perf_counter

        def counted(a, m, b):
            seen.add((alg_name, a, m, b))
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            t0 = perf()
            try:
                return base_case(a, m, b)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[label] += 1
                self_s[label] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        return counted

    def _wrap(self, fn, layer, name, spanned):
        from confal.errors import ConfalError

        before, after = self._hooks(name)
        stack, calls, self_s, inclusive = self.stack, self.calls, self.self_s, self.inclusive_s
        spans, events = self.spans, self.events
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = perf()
                args, kwargs = before(args, kwargs)
                if stack:
                    stack[-1][0] += perf() - h0  # bookkeeping is not the caller's work
            span_id = None
            if spanned:
                if len(spans) < SPAN_CAP:
                    span_id = len(spans)
                    spans.append([name, stack[-1][1] if stack else None, 0.0, 0.0])
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, span_id if span_id is not None else (stack[-1][1] if stack else None)]
            stack.append(frame)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except ConfalError as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    events["confal_error"] += 1
                raise
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[0]
                inclusive[name] += dt
                if stack:
                    stack[-1][0] += dt
                if span_id is not None:
                    spans[span_id][2] = t0
                    spans[span_id][3] = dt
                if after is not None:
                    after(result)

        return wrapper

    # -- results ----------------------------------------------------------------------

    def raw(self) -> dict:
        """Additive totals; raw() of several processes merge by summing."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "events": {k: v for k, v in self.events.items() if k != "enumerate_span.depth"},
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "items_checked": sum(r.checked for r in self.reports),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }


def merge(raws) -> dict:
    out: dict = {"calls": Counter(), "self_s": Counter(), "inclusive_s": Counter(),
                 "events": Counter(), "distinct": Counter(),
                 "items_checked": 0, "spans": 0, "spans_dropped": 0}
    for raw in raws:
        for key in ("calls", "self_s", "inclusive_s", "events", "distinct"):
            out[key].update(raw[key])
        for key in ("items_checked", "spans", "spans_dropped"):
            out[key] += raw[key]
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def layer_metrics(raw: dict, extra: dict) -> dict:
    """The PER_LAYER metrics from merged raw totals plus `extra` (import, overhead)."""
    calls: Counter = Counter()
    for name, n in raw["calls"].items():
        calls[RENAMES.get(name, name)] += n
    layer_self: Counter = Counter()
    for name, s in raw["self_s"].items():
        layer_self[name.split(".")[0]] += s
    events = raw["events"]

    def ratio(num, den):
        return num / den if den else 0.0

    base_cases = calls["diff_conformal.base_case"] + calls["presented_conformal.base_case"]
    values = {
        "exact_arith.matpoly_mul.calls": calls["exact_arith.matpoly_mul"],
        "exact_arith.poly_mul.calls": calls["exact_arith.poly_mul"],
        "exact_arith.dop_mul.calls": calls["exact_arith.dop_mul"],
        "ore_skew.skew_mul.calls": calls["ore_skew.skew_mul"],
        "ore_skew.move_t_across.calls": calls["ore_skew.move_t_across"],
        "ore_skew.derivation_build_s": raw["inclusive_s"].get("ore_skew.Derivation.__init__", 0.0),
        "products.nth_product_terms.calls": calls["products.nth_product_terms"],
        "products.base_case.calls": base_cases,
        "products.base_case.distinct_ratio": ratio(
            raw["distinct"].get("base_case", 0), base_cases),
        "diff_conformal.nth.calls": calls["diff_conformal.nth"],
        "diff_conformal.coefficient.calls": calls["diff_conformal.coefficient"],
        "diff_conformal.coefficient.distinct_ratio": ratio(
            raw["distinct"].get("coefficient", 0), calls["diff_conformal.coefficient"]),
        "diff_conformal.locality_coeff_sum.calls": calls["diff_conformal.locality_coeff_sum"],
        "diff_conformal.locality.calls": calls["diff_conformal.locality"],
        "presented_conformal.nth.calls": calls["presented_conformal.nth"],
        "presented_conformal.phi.calls": calls["presented_conformal.phi"],
        "presented_conformal.coeff_mul.calls": calls["presented_conformal.coeff_mul"],
        "linalg.rowspace_add.calls": calls["linalg.rowspace_add"],
        "linalg.rowspace_add.accept_ratio": ratio(
            events.get("rowspace_add.accepted", 0), calls["linalg.rowspace_add"]),
        "linalg.rowspace_query.calls": calls["linalg.rowspace_query"],
        "linalg.dense.calls": calls["linalg.dense"],
        "growth.module_rank.calls": calls["growth.module_rank"],
        "growth.module_rank.self_s": raw["self_s"].get("growth.module_rank", 0.0),
        "growth.enumerate_span.kept_ratio": ratio(
            events.get("enumerate_span.kept", 0), events.get("enumerate_span.nth", 0)),
        "axioms.items_checked": raw["items_checked"],
        "structure.delta_stable_closure.calls": calls["structure.delta_stable_closure"],
        "dsl.build.calls": calls["dsl.build"],
        "cli.main.self_s": layer_self["cli"],
        "errors.confal_error.count": events.get("confal_error", 0),
        **extra,
    }
    for layer in LAYERS:
        values.setdefault(f"{layer}.self_s", layer_self[layer])
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
