"""The benchmark's tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps kvgrpo functions and methods by name; a layer
that is renamed or deleted makes ``perfbench/run.py --trace 1`` fail.  This
installs and removes the tracer without running anything, so such a break
shows up in the fast suite.
"""

import importlib
from pathlib import Path

import kvgrpo.network as network
from kvgrpo.autodiff import Tape
from kvgrpo.params import Params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    originals = (network.velocity_forward, Params.segment, Tape.push)
    try:
        tracer.install()
        assert network.velocity_forward is not originals[0]
        assert Params.segment is not originals[1]
        assert Tape.push is not originals[2]
    finally:
        tracer.restore()
    assert (network.velocity_forward, Params.segment, Tape.push) == originals
