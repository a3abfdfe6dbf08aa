"""The benchmark's tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps kvgrpo functions and methods by name; a layer
that is renamed or deleted, or that a workload stops calling, makes
``perfbench/run.py --trace 1`` fail.  The first test installs and removes the
tracer without running anything; the second runs one traced pass of each
workload and summarizes it, as ``--trace 1`` does; the third checks the tag
that splits a rollout's prefix time from its branch time.  The last pins the
position of every argument the tracer reads by position.
"""

import importlib
import inspect
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["train-default", "replay-grad", "explore-wide"])
def test_traced_pass_fires_every_layer(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    tracer = importlib.import_module("tracer").Tracer()
    traced = measure.run_pass(tmp_path, workload, 0, 0, tracer=tracer)
    # Raises MissingLayer if a required layer never fired.
    tracer.summarize(workload, traced.records, traced.enter, traced.leave, traced.scale())


def test_rollout_spans_are_tagged_with_the_pivot(monkeypatch, tmp_path):
    # The tracer splits prefix from branch time at the tag of each rollout
    # span, which it reads from rollout_group's pivot argument.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    tracer = importlib.import_module("tracer").Tracer()
    traced = measure.run_pass(tmp_path, "train-default", 0, 0, iterations=3, tracer=tracer)
    code = tracer.labels.index("routing.rollout_group")
    tags = [tag for label, tag in zip(tracer.label, tracer.tag) if label == code]
    assert tags == [record.pivot_block for record in traced.records]
    assert len(set(tags)) > 1  # a constant argument would not match


@pytest.mark.parametrize("module,function,name,index", [
    ("routing", "rollout_group", "pivot", 3),
    ("flow", "generate_block", "block_index", 2),
    ("flow", "write_back", "block", 1),
    ("network", "velocity_forward", "reader", 0),
    ("policy", "surrogate_energies", "reader", 0),
    ("checkpoint", "save_checkpoint", "path", 0)])
def test_traced_arguments_keep_their_positions(module, function, name, index):
    # A tag read from a moved argument of the same type would mislabel the
    # phase tables without failing the traced pass.
    fn = getattr(importlib.import_module(f"kvgrpo.{module}"), function)
    assert list(inspect.signature(fn).parameters).index(name) == index
