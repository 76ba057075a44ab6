"""The benchmark's per-layer tracer still sees the work of the field layer.

`perfbench/layers.py` counts einsums, stencils and matrix inversions by
swapping `numpy.einsum`, `fields._stencil` and `fields.pivot_inverse` for
wrappers, and times node work by wrapping each node's `_fn`.  Code that
bound those functions once, when a graph or a plan is built, would hide
that work from the benchmark without any error; these tests run the CLI
under the tracer, imported read-only from `perfbench/`, and ask that the
counts are there and repeat exactly.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from anifield import DiffEngine, canonical_spray
from anifield.catalog import get_example
from anifield.cli import main

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

ARGVS = (
    ["report", "--samples", "2", "--seed", "0"],
    ["geodesic", "conformal2", "--x0", "0.1", "0.2", "--y0", "1", "0.5",
     "--dt", "0.01", "--steps", "5"],
)
COUNTS = ("fields.einsum.count", "fields.stencil.count",
          "fields.pivot_inverse.count")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.Tracer()


def _traced(argv):
    tracer = _tracer()
    with tracer.installed():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    return tracer.metrics()


@pytest.mark.parametrize("argv", ARGVS, ids=["report", "geodesic"])
def test_tracer_counts_the_field_layer_and_repeats_exactly(argv):
    first = _traced(argv)
    second = _traced(argv)
    for name in COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert first["fields.node.self_s"] > 0.0
    assert first["fields.node.built"] == second["fields.node.built"]


def test_a_graph_built_before_tracing_shows_its_work_under_it():
    """The functions a node's work calls are looked up when it runs, not
    bound when its graph or its plan was built."""
    G = canonical_spray(get_example("conformal2").lagrangian,
                        DiffEngine("analytic")).coefficients
    x = np.array([0.1, 0.2])
    G(x, np.array([1.0, 0.5]))
    tracer = _tracer()
    with tracer.installed():
        G(x, np.array([0.9, 0.6]))
    counts = tracer.metrics()
    for name in COUNTS:
        assert counts[name] > 0, name
