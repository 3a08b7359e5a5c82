"""The benchmark tracer wraps polystate functions by name; every name it
lists must still exist, or a traced benchmark run fails at install time."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{short}.{name}" for short, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"polystate.{short}"),
                                       name, None))]
    assert not missing, f"perfbench TRACED names missing from polystate: {missing}"
