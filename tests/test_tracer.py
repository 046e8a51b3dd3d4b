"""perfbench/tracer.py still finds every library name it wraps.

The tracer looks its functions up by name when it is installed, so a
library change that deletes or renames one of them breaks the benchmark's
per-layer trace.  This test installs the tracer on this tree, runs one
report through it and uninstalls it again.
"""

import importlib.util
import sys
from pathlib import Path

import ghostgraph.classify  # noqa: F401  the tracer wraps names in every module
from ghostgraph import DecoratedGraph, Multigraph, cli, ghosts

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_uninstall():
    tracing = load_tracer()
    names = tracing.SPANNED + tracing.COUNTED
    originals = {(m, f): getattr(sys.modules["ghostgraph." + m], f) for m, f in names}
    elements = ghosts.GhostGroup.elements
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, f), fn in originals.items():
            assert getattr(sys.modules["ghostgraph." + m], f) is not fn, (m, f)
        assert ghosts.GhostGroup.elements is not elements
        g = Multigraph([0, 1], [(0, 1)] * 3)
        d = DecoratedGraph.from_edge_values(g, 5, {0: 1, 1: 1, 2: 1})
        report = tracer.request(0, cli.build_report, d, 1)
        list(ghosts.ghost_group(d).elements())
    finally:
        tracer.uninstall()
    assert report["stratum_age"] == "3/5"
    stats = tracer.summary()["stats"]
    assert stats["cli.build_report"][0] == 1
    assert stats["ghosts.minimal_age_report"][0] == 1
    assert stats["ghosts.GhostGroup.elements"][0] == 1
    assert tracer.counts["ghosts.GhostGroup.elements.yielded"] == 5
    for (m, f), fn in originals.items():
        assert getattr(sys.modules["ghostgraph." + m], f) is fn, (m, f)
    assert ghosts.GhostGroup.elements is elements
