"""The benchmark's tracer finds every name it wraps and puts each one back.

benchmarks/tracing.py (loaded here, never written) looks each traced name up
in a confal module's or class's own namespace, so a refactor that moves or
renames one of them breaks `benchmarks/run.py --trace 1`.  These tests catch
that in the main suite: every listed name resolves, installing the tracer
replaces each of them, and uninstalling it restores every attribute of every
confal module and class to the original object.
"""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "benchmarks" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


tracing = _load_tracing()

# confal loads its layers on demand; load every one the tracer wraps
for _layer in tracing.LAYERS:
    importlib.import_module(f"confal.{_layer}")


def _traced_names():
    """(owner namespace, attribute) for every name the tracer lists."""
    out = []
    for table in (tracing.AGGREGATED, tracing.SPANNED):
        for layer, cls_name, attrs in table:
            owner = sys.modules[f"confal.{layer}"]
            if cls_name is not None:
                owner = vars(owner)[cls_name]
            out.extend((owner, attr) for attr in attrs)
    return out


def _snapshot() -> dict:
    """Every attribute of every confal module and of every class defined in one."""
    owners = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] != "confal":
            continue
        owners[name] = mod
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.split(".")[0] == "confal":
                owners[f"{val.__module__}.{val.__qualname__}"] = val
    return {(name, key): val for name, owner in owners.items() for key, val in vars(owner).items()}


def test_every_traced_name_resolves():
    for layer in tracing.LAYERS:
        assert f"confal.{layer}" in sys.modules, layer
    missing = [f"{getattr(o, '__name__', o)}.{a}" for o, a in _traced_names()
               if a not in vars(o)]
    assert not missing


def test_install_wraps_and_uninstall_restores():
    before = _snapshot()
    originals = [(o, a, vars(o)[a]) for o, a in _traced_names()]
    tracer = tracing.Tracer().install()
    try:
        unwrapped = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in originals
                     if vars(o)[a] is orig]
    finally:
        tracer.uninstall()
    assert not unwrapped
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert not changed


def test_poly_and_dop_products_are_counted_apart():
    # DOp reuses Poly's operators, bound again in its own namespace so that
    # the tracer reports each class's products under its own name
    from confal.exact_arith import DOp, Poly

    tracer = tracing.Tracer().install()
    try:
        Poly.variable() * Poly.variable()
        DOp.d() * DOp.d()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.raw(), {"cli.import_s": 0.0, "trace.overhead_s": 0.0})
    assert metrics["exact_arith.poly_mul.calls"]["value"] == 1
    assert metrics["exact_arith.dop_mul.calls"]["value"] == 1
