"""Selection follows the inputs: no process-global switchboards.

The execution engine, the kernel backend and the device window are
decided by each call's inputs (``RunConfig`` fields, ``backend=``, the
input size, compiler availability).  The environment variables that once
overrode them are ignored, and the package reads no environment variable
other than the native kernel cache location.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.perf import dispatch_backend
from repro.record import compare_records
from repro.serve import ServiceHarness
from repro.shaping import RunConfig, run_policy
from repro.traces.synthetic import poisson_workload

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Deployment paths, not behaviour selectors: where native kernels are cached.
ALLOWED_ENV_READS = {"REPRO_NATIVE_CACHE", "XDG_CACHE_HOME"}

RETIRED_SWITCHBOARDS = ("REPRO_ENGINE", "REPRO_KERNEL", "REPRO_AQM")


@pytest.fixture(scope="module")
def bursty():
    base = poisson_workload(6.0, duration=10.0, seed=5).arrivals
    storms = np.concatenate([np.full(8, t) for t in (2.0, 6.0)])
    return Workload(np.sort(np.concatenate([base, storms])), name="bursty")


def _outcomes(workload):
    served = ServiceHarness("fcfs", 4.0, 2.0, 0.5).replay(workload)
    return (
        run_policy(workload, "fcfs", 4.0, 2.0, 0.5).engine,
        dispatch_backend(10),
        dispatch_backend(10**5),
        served,
    )


@pytest.mark.parametrize(
    "values",
    [("scalar", "scalar", "static"), ("batch", "numpy", "codel"),
     ("quantum", "cuda", "red")],
    ids=["pins", "other-pins", "nonsense"],
)
def test_environment_is_ignored(bursty, monkeypatch, values):
    for name in RETIRED_SWITCHBOARDS:
        monkeypatch.delenv(name, raising=False)
    engine, small, large, reference = _outcomes(bursty)
    assert engine == "batch"

    for name, value in zip(RETIRED_SWITCHBOARDS, values):
        monkeypatch.setenv(name, value)
    engine_env, small_env, large_env, served = _outcomes(bursty)

    assert engine_env == "batch"
    assert (small_env, large_env) == (small, large)
    assert served.aqm is None and served.window is None
    report = compare_records(reference, served)
    assert report.ok and report.bit_identical, report.summary()


def _env_reads(tree):
    """(line, key or None) of every environment access in ``tree``."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }

    def key_of(node):
        return node.value if isinstance(node, ast.Constant) else None

    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv", "getenvb", "environb"):
                    reads.append((node.lineno, None))
        if not isinstance(node, ast.Attribute):
            continue
        parent = parents.get(node)
        if node.attr in ("environ", "environb"):
            if isinstance(parent, ast.Subscript) and parent.value is node:
                reads.append((node.lineno, key_of(parent.slice)))
                continue
            call = parents.get(parent)
            if (
                isinstance(parent, ast.Attribute)
                and parent.attr == "get"
                and isinstance(call, ast.Call)
                and call.args
            ):
                reads.append((node.lineno, key_of(call.args[0])))
                continue
            reads.append((node.lineno, None))
        elif node.attr in ("getenv", "getenvb"):
            if isinstance(parent, ast.Call) and parent.func is node and parent.args:
                reads.append((node.lineno, key_of(parent.args[0])))
            else:
                reads.append((node.lineno, None))
    return reads


def test_no_environment_switchboards():
    """Only the native kernel cache location may come from the environment."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, key in _env_reads(tree):
            if key not in ALLOWED_ENV_READS:
                offenders.append(f"{path.relative_to(SRC)}:{line} reads {key!r}")
    assert not offenders, "environment reads outside the allow-list: " + "; ".join(
        offenders
    )


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('import os\nos.environ.get("REPRO_ENGINE")', [(2, "REPRO_ENGINE")]),
        ('import os\nos.environ["REPRO_AQM"]', [(2, "REPRO_AQM")]),
        ('import os\nos.getenv("X")', [(2, "X")]),
        ("import os\nos.environ.get(name)", [(2, None)]),
        ("import os\nenv = os.environ", [(2, None)]),
        ("from os import environ", [(1, None)]),
        ('import os\nos.environ.get("XDG_CACHE_HOME", "~")', [(2, "XDG_CACHE_HOME")]),
        ("import os\nos.path.join('a')", []),
    ],
)
def test_env_read_detector(source, flagged):
    assert _env_reads(ast.parse(source)) == flagged
