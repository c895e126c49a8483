"""The benchmark's view of ``ldnn``: what ``perfbench/`` reads of the
package still exists, so that a deletion which breaks the benchmark fails
here rather than in a later benchmark run."""

import importlib.util
import pathlib
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def test_benchmark_still_runs_on_the_package():
    # The tracer reads its targets with getattr only under --trace 1.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    assert [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
            if not hasattr(module, attr)] == []
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
