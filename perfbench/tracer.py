"""Outside-in tracer for kvgrpo's training loop.

Spans are recorded from the benchmark's side only: each traced function is
replaced, for the length of one traced pass, by a wrapper in every kvgrpo
module that binds it (the trainer imports ``rollout_group`` by name, routing
imports ``generate_block``, policy reaches ``network.velocity_forward`` through
the module), and methods are replaced on their class.  A span holds its
label, its parent span, one integer tag (a pivot, a block index, or whether
the network reader is taped) and its start and end.  Spans stay in flat
arrays in memory and are written out once, at the end.  Two very hot calls,
``Params.segment`` and ``Tape.push``, are counted instead of spanned.

A span's self time is its duration minus that of its direct child spans.
Every figure is per iteration: spans are assigned to the ``on_record``
interval they start in, and the interval before the first callback (set-up
and the warm-up iteration) and after the last one are left out, as in the
untraced end-to-end figures.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np
from kvgrpo.params import Params

from workloads import NOT_CALLED


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pivot(args, kwargs):
    return _arg(args, kwargs, 3, "pivot")


def _block_index(args, kwargs):
    return _arg(args, kwargs, 2, "block_index")


def _written_block(args, kwargs):
    return _arg(args, kwargs, 1, "block").block_index


def _taped(args, kwargs):
    return int(not isinstance(_arg(args, kwargs, 0, "reader"), Params))


# label, kvgrpo module, attribute (``Class.method`` for methods), tag function.
SPANS = (
    ("trainer.train_iteration", "trainer", "train_iteration", None),
    ("trainer.score_group", "trainer", "score_group", None),
    ("trainer.dump_trajectories", "trainer", "_dump_trajectories", None),
    ("trainer.adam_apply", "trainer", "Adam.apply", None),
    ("trainer.clip_gradient", "trainer", "clip_gradient", None),
    ("trainer.ema_update", "trainer", "ema_update", None),
    ("rewards.composite", "rewards", "composite", None),
    ("routing.rollout_group", "routing", "rollout_group", _pivot),
    ("routing.build_replay_contexts", "routing", "build_replay_contexts", None),
    ("flow.generate_block", "flow", "generate_block", _block_index),
    ("flow.write_back", "flow", "write_back", _written_block),
    ("network.velocity_forward", "network", "velocity_forward", _taped),
    ("cache.stacked", "cache", "KVCache.stacked", None),
    ("cache.default_cache", "cache", "FrameHistory.default_cache", None),
    ("policy.surrogate_energies", "policy", "surrogate_energies", _taped),
    ("policy.total_loss_grad", "policy", "total_loss_grad", None),
    ("autodiff.grad", "autodiff", "grad", None),
    ("autodiff.backward", "autodiff", "Tape.backward", None),
    ("checkpoint.save_checkpoint", "checkpoint", "save_checkpoint", None),
)

# Names that must fire on a workload unless workloads.NOT_CALLED lists them:
# every span label, the split ones, and the counters.
REQUIRED = ({label for label, *_ in SPANS}
            | {"network.vf_value", "network.vf_taped", "policy.value_replay",
               "params.segment", "autodiff.push"})


CALLS, MS, US = "count/iter", "ms/iter", "us/call"
# Per-layer metrics in report order, with their units.  ``*_us`` is self time
# per call; ``*_ms`` is time per iteration, inclusive unless named ``self``.
LAYER_UNITS = {
    "network.vf_value_calls": CALLS, "network.vf_value_us": US,
    "network.vf_taped_calls": CALLS, "network.vf_taped_us": US,
    "params.segment_calls": CALLS, "params.segment_ms": MS,
    "cache.stacked_calls": CALLS, "cache.stacked_ms": MS,
    "cache.default_cache_calls": CALLS,
    "routing.rollout_ms": MS, "routing.prefix_ms": MS, "routing.branch_ms": MS,
    "routing.rollouts_per_iter": CALLS, "routing.contexts_ms": MS,
    "flow.generate_block_calls": CALLS, "flow.generate_block_self_ms": MS,
    "flow.write_back_ms": MS,
    "policy.value_replay_calls": CALLS, "policy.value_replay_ms": MS,
    "policy.taped_forward_ms": MS, "policy.loss_grad_calls": CALLS,
    "autodiff.backward_ms": MS, "autodiff.tape_nodes": CALLS,
    "autodiff.grad_calls": CALLS,
    "rewards.composite_calls": CALLS,
    "trainer.update_ms": MS, "trainer.score_ms": MS, "trainer.self_ms": MS,
    "trainer.skip_frac": "ratio", "trainer.io_ms": MS,
    "checkpoint.save_ms": MS, "checkpoint.bytes": "bytes/iter",
    "trace.untraced_iters_per_s": "1/s", "trace.traced_iters_per_s": "1/s",
}


class MissingLayer(Exception):
    """A traced function no longer exists, or never ran where it should."""


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self.parent = array("q")
        self.label = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.marks: list[dict[str, float]] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def mark(self) -> None:
        """Snapshot the counters at an ``on_record`` callback."""
        self.marks.append(dict(self.counters))

    def _span(self, fn, label: str, tag, after=None):
        code = len(self.labels)
        self.labels.append(label)
        parent, labels, tags = self.parent, self.label, self.tag
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            labels.append(code)
            tags.append(tag(args, kwargs) if tag is not None else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return traced

    def _timed_count(self, fn, name: str):
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[name + "_s"] += clock() - t
                counters[name + "_calls"] += 1

        return counted

    def _count(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name + "_calls"] += 1
            return fn(*args, **kwargs)

        return counted

    def _add_bytes(self, args, kwargs):
        self.counters["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, attr: str, wrap) -> None:
        mod = importlib.import_module(f"kvgrpo.{module}")
        owner_name, _, name = attr.rpartition(".")
        try:
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, name)
        except AttributeError:
            raise MissingLayer(f"kvgrpo.{module}.{attr} does not exist") from None
        if owner_name:
            sites = [(owner, name)]
        else:
            # Every kvgrpo module that looks the function up under any name.
            sites = [(m, n) for key, m in list(sys.modules.items())
                     if m is not None and (key == "kvgrpo" or key.startswith("kvgrpo."))
                     for n, v in list(vars(m).items()) if v is original]
        wrapped = wrap(original)
        for site, site_name in sites:
            setattr(site, site_name, wrapped)
            self._undo.append((site, site_name, original))

    def install(self) -> None:
        try:
            for label, module, attr, tag in SPANS:
                after = self._add_bytes if label == "checkpoint.save_checkpoint" else None
                self._patch(module, attr,
                            lambda fn, l=label, t=tag, a=after: self._span(fn, l, t, a))
            self._patch("params", "Params.segment",
                        lambda fn: self._timed_count(fn, "params.segment"))
            self._patch("autodiff", "Tape.push", lambda fn: self._count(fn, "autodiff.push"))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._undo:
            site, name, original = self._undo.pop()
            setattr(site, name, original)

    def save(self, path) -> None:
        np.savez_compressed(
            path, labels=np.array(self.labels), parent=np.array(self.parent),
            label=np.array(self.label), tag=np.array(self.tag),
            start=np.array(self.start), end=np.array(self.end))

    # -- summary -----------------------------------------------------------

    def summarize(self, workload: str, records: list, enter: list[float],
                  leave: list[float], scale: float) -> tuple[dict, list]:
        """Per-iteration layer metrics and the phase table of one traced pass.

        ``records`` are the pass's iteration records, and ``enter``/``leave``
        the times its ``on_record`` callbacks began and ended, one per mark.
        Times are multiplied by ``scale``.  Raises :class:`MissingLayer` if a
        required name never fired.
        """
        if len(self.marks) < 2:
            raise MissingLayer("a traced pass needs at least two iterations")
        parent = np.array(self.parent, dtype=np.int64)
        label = np.array(self.label, dtype=np.int64)
        tag = np.array(self.tag, dtype=np.int64)
        start = np.array(self.start)
        dur = np.array(self.end) - start
        n = dur.size
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        enter, leave = np.array(enter), np.array(leave)
        slot = np.searchsorted(enter, start)
        kept = (slot >= 1) & (slot < enter.size)
        iters = enter.size - 1
        codes = {name: i for i, name in enumerate(self.labels)}

        def spans(name, tagged=None):
            mask = kept & (label == codes[name])
            return mask if tagged is None else mask & (tag == tagged)

        def under(mask, name):
            """Spans of ``mask`` whose direct parent is a ``name`` span."""
            idx = np.flatnonzero(mask)
            ok = parent[idx] >= 0
            idx = idx[ok][label[parent[idx[ok]]] == codes[name]]
            out = np.zeros(n, dtype=bool)
            out[idx] = True
            return out

        def enclosing(i, code):
            p = parent[i]
            while p >= 0 and label[p] != code:
                p = parent[p]
            return p

        def ms(mask, times=dur):
            return float(times[mask].sum()) * 1e3 * scale / iters

        def calls(mask):
            return int(mask.sum()) / iters

        def per_call_us(mask):
            k = int(mask.sum())
            return float(self_time[mask].sum()) * 1e6 * scale / k if k else 0.0

        # Prefix blocks are those before the pivot of the enclosing rollout.
        rollout, train_it = codes["routing.rollout_group"], codes["trainer.train_iteration"]
        prefix = np.zeros(n, dtype=bool)
        prefix_train = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(spans("flow.generate_block") | spans("flow.write_back")):
            r = enclosing(i, rollout)
            if r >= 0 and tag[i] < tag[r]:
                prefix[i] = True
                prefix_train[i] = enclosing(r, train_it) >= 0

        vf_value = spans("network.velocity_forward", 0)
        vf_taped = spans("network.velocity_forward", 1)
        value_replay = under(spans("policy.surrogate_energies", 0), "trainer.train_iteration")
        iteration = spans("trainer.train_iteration")
        rollouts = spans("routing.rollout_group")
        update = (spans("trainer.adam_apply") | spans("trainer.clip_gradient")
                  | spans("trainer.ema_update"))
        loss_grad = spans("policy.total_loss_grad")
        backward = spans("autodiff.backward")
        gen = spans("flow.generate_block")
        first, last = self.marks[0], self.marks[-1]

        def counted(name):
            return (last.get(name, 0.0) - first.get(name, 0.0)) / iters

        between = float((enter[1:] - leave[:-1]).sum())
        io_ms = (between - float(dur[iteration].sum())) * 1e3 * scale / iters
        metrics = {
            "network.vf_value_calls": calls(vf_value),
            "network.vf_value_us": per_call_us(vf_value),
            "network.vf_taped_calls": calls(vf_taped),
            "network.vf_taped_us": per_call_us(vf_taped),
            "params.segment_calls": counted("params.segment_calls"),
            "params.segment_ms": counted("params.segment_s") * 1e3 * scale,
            "cache.stacked_calls": calls(spans("cache.stacked")),
            "cache.stacked_ms": ms(spans("cache.stacked")),
            "cache.default_cache_calls": calls(spans("cache.default_cache")),
            "routing.rollout_ms": ms(rollouts),
            "routing.prefix_ms": ms(prefix),
            "routing.branch_ms": ms(rollouts) - ms(prefix),
            "routing.rollouts_per_iter": calls(rollouts),
            "routing.contexts_ms": ms(spans("routing.build_replay_contexts")),
            "flow.generate_block_calls": calls(gen),
            "flow.generate_block_self_ms": ms(gen, self_time),
            "flow.write_back_ms": ms(spans("flow.write_back")),
            "policy.value_replay_calls": calls(value_replay),
            "policy.value_replay_ms": ms(value_replay),
            "policy.taped_forward_ms": ms(loss_grad) - ms(backward),
            "policy.loss_grad_calls": calls(loss_grad),
            "autodiff.backward_ms": ms(backward),
            "autodiff.tape_nodes": counted("autodiff.push_calls"),
            "autodiff.grad_calls": calls(spans("autodiff.grad")),
            "rewards.composite_calls": calls(spans("rewards.composite")),
            "trainer.update_ms": ms(update),
            "trainer.score_ms": ms(spans("trainer.score_group")),
            "trainer.self_ms": ms(iteration, self_time),
            "trainer.skip_frac": sum(r.skipped for r in records[1:]) / iters,
            "trainer.io_ms": io_ms,
            "checkpoint.save_ms": ms(spans("checkpoint.save_checkpoint")),
            "checkpoint.bytes": counted("checkpoint.bytes"),
        }

        fired = {name: int(spans(name).sum()) for name in codes}
        fired.update({"network.vf_value": int(vf_value.sum()),
                      "network.vf_taped": int(vf_taped.sum()),
                      "policy.value_replay": int(value_replay.sum()),
                      "params.segment": counted("params.segment_calls"),
                      "autodiff.push": counted("autodiff.push_calls")})
        missing = sorted(name for name in REQUIRED - NOT_CALLED[workload]
                         if not fired.get(name))
        if missing:
            raise MissingLayer(f"traced layers never called on {workload}: {missing}")

        train_rollouts = under(rollouts, "trainer.train_iteration")
        phases = [
            ("shared prefix", ms(prefix_train)),
            ("branch rollout", ms(train_rollouts) - ms(prefix_train)),
            ("rewards", ms(under(spans("trainer.score_group"), "trainer.train_iteration"))),
            ("replay contexts", metrics["routing.contexts_ms"]),
            ("old/ref value-only replay", metrics["policy.value_replay_ms"]),
            ("taped replay forward", metrics["policy.taped_forward_ms"]),
            ("Tape.backward", metrics["autodiff.backward_ms"]),
            ("update", metrics["trainer.update_ms"]),
            ("trainer other", metrics["trainer.self_ms"]),
            ("I/O: metrics, dump, checkpoints", io_ms),
        ]
        return metrics, phases
