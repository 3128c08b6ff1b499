"""The benchmark's tracer wraps library functions and methods by name; a
rename or deletion in the library would make every traced run fail.  The
tracer's name tables are read here, from the file, without running it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS, mod.METHODS, mod.FUNCTIONS


def test_tracer_names_exist_in_the_library():
    layers, methods, functions = _tracer_tables()
    for layer in layers:
        mod = importlib.import_module(f"apxval.{layer}")
        for cls_name, attrs in methods[layer].items():
            cls = getattr(mod, cls_name)
            for attr in attrs:
                # the tracer reads the class's own dict, not inherited names
                assert attr in cls.__dict__, f"{layer}.{cls_name}.{attr}"
    for layer, name in functions:
        mod = importlib.import_module(f"apxval.{layer}")
        fn = getattr(mod, name, None)
        # only functions defined in the layer's module get their span name
        assert inspect.isfunction(fn), f"{layer}.{name}"
        assert fn.__module__ == mod.__name__, f"{layer}.{name}"
