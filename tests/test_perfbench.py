import importlib
import importlib.util
import re
import sys
from pathlib import Path

from stabcert import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # workloads.py imports ``tracer``
    spec.loader.exec_module(module)
    return module


def test_every_predicted_span_fires(tmp_path, monkeypatch):
    # a change that takes a traced function off a workload's call path must
    # fail here, not as "predicted span never fired" in a traced benchmark run
    tracing = _load("tracer", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    silent = {}
    for name, workload in workloads.WORKLOADS.items():
        smallest = {}  # one job per label without its n, at the smallest n
        for job in workload.make_jobs(1, str(tmp_path)):
            key = re.sub(r" n=\d+", "", job["label"])
            n = int(re.search(r" n=(\d+)", job["label"]).group(1))
            if key not in smallest or n < smallest[key][0]:
                smallest[key] = (n, job)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for i, (_, job) in enumerate(smallest.values()):
                out = tmp_path / f"{name}-{i}"
                cli.main(job["argv"] + ["--out-dir", str(out), "--out", "out.json"])
                if job["output"] == "report" and (out / "out.json").exists():
                    cli.main(["recheck", str(out / "out.json")])
        finally:
            tracer.uninstall()
        silent[name] = [span for span in workload.spans if span not in tracing.CLI_SPANS
                        and tracer.stats[span].calls == 0]
    assert silent == {name: [] for name in workloads.WORKLOADS}
