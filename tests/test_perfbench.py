import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    # the tracer module imports only the standard library at load time;
    # a rename in the package must fail here, not in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"stabcert.{module}.{name}"
               for module, names in tracer.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"stabcert.{module}"), name, None))]
    assert sum(map(len, tracer.TRACED.values())) > 0
    assert missing == []
