"""Span tracing around spinsyn's public callables, installed from outside.

A :class:`Tracer` keeps a call stack of open spans. When a span closes, its
duration is added to an in-memory aggregate keyed by (name, parent name):
call count, total time, self time (total minus the time its child spans
covered) and lead time (entry to the first child's entry). A training run
makes about 10^7 presentation-level calls, so individual spans are not
kept; raw durations are kept only for the names passed as ``keep_raw``.

:func:`install` swaps wrappers into the spinsyn modules and restores the
originals on exit. Nothing under ``src/`` is edited. Wrappers run only in
the process that installed them, so worker processes of a Pool report no
spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import time

import numpy as np


class Tracer:
    """Span stack plus per-(name, parent) aggregates, all in nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns, keep_raw=()):
        self.clock = clock
        self._stack = []  # frames: [name, start, child_ns, first_child_start]
        self.agg = {}  # (name, parent) -> [count, total_ns, self_ns, lead_ns]
        self.raw = {name: [] for name in keep_raw}
        # power-law accumulator entries that fired / were inspected, per layer
        self.fired = {"w_hidden": [0, 0], "w_out": [0, 0]}
        # sha256 over every TrialResult returned by run_trials, None if none was
        self.trial_digest = None

    def enter(self, name: str) -> None:
        now = self.clock()
        if self._stack and self._stack[-1][3] is None:
            self._stack[-1][3] = now
        self._stack.append([name, now, 0, None])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_ns, first_child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.agg.get((name, parent))
        if entry is None:
            entry = self.agg[(name, parent)] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        entry[3] += (first_child if first_child is not None else end) - start
        if name in self.raw:
            self.raw[name].append(duration)

    def wrap(self, name: str, fn):
        """Callable that runs ``fn`` inside a span called ``name``."""

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        traced.__wrapped__ = fn
        return traced

    def totals(self, name: str) -> tuple[int, int, int, int]:
        """(count, total_ns, self_ns, lead_ns) of ``name`` summed over parents."""
        sums = [0, 0, 0, 0]
        for (span, _parent), entry in self.agg.items():
            if span == name:
                sums = [a + b for a, b in zip(sums, entry)]
        return tuple(sums)

    def table(self) -> list[str]:
        """One line per (name, parent) aggregate, for writing out at the end."""
        lines = []
        for (name, parent), (count, total, self_ns, _lead) in sorted(
            self.agg.items(), key=lambda kv: -kv[1][1]
        ):
            lines.append(
                f"span {name} parent={parent or '-'} calls={count} "
                f"total_ms={total / 1e6:.3f} self_ms={self_ns / 1e6:.3f}"
            )
        return lines


class _TimedPool:
    """Context-manager proxy that times a Pool's teardown as a span."""

    def __init__(self, pool, tracer: Tracer):
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        self._tracer.enter("harness.pool_stop")
        try:
            return self._pool.__exit__(*exc)
        finally:
            self._tracer.exit()


def _timed_pool_factory(pool_factory, tracer: Tracer):
    def make_pool(*args, **kwargs):
        tracer.enter("harness.pool_start")
        try:
            pool = pool_factory(*args, **kwargs)
        finally:
            tracer.exit()
        return _TimedPool(pool, tracer)

    return make_pool


def _fire_counting(tracer: Tracer, apply_batch_update):
    """Count the power-law accumulator entries that fire, outside the span."""
    from spinsyn.actor import UpdateRule

    def counted(actor):
        cfg = actor.config
        if cfg.update_rule is UpdateRule.POWER_LAW:
            for layer, acc in (("w_hidden", actor.acc_w_hidden), ("w_out", actor.acc_w_out)):
                tally = tracer.fired[layer]
                tally[0] += int(np.count_nonzero(np.abs(acc) > cfg.dw_min))
                tally[1] += acc.size
        return apply_batch_update(actor)

    return counted


def _digesting(tracer: Tracer, run_trials):
    """Hash the seeds, goal epochs and curves of every trial run_trials returns."""

    def digested(*args, **kwargs):
        results = run_trials(*args, **kwargs)
        sha = hashlib.sha256(bytes.fromhex(tracer.trial_digest or ""))
        for res in results:
            sha.update(f"{res.seed},{res.epochs_to_goal};".encode())
            sha.update(res.raw_curve.tobytes() + res.filtered_curve.tobytes())
        tracer.trial_digest = sha.hexdigest()
        return results

    return digested


# span name -> (module, attribute path) of every hooked public callable
HOOKS = {
    "env.next": ("spinsyn.env", "InputSchedule.next"),
    "critic.forward": ("spinsyn.critic", "CriticNetwork.forward"),
    "critic.update": ("spinsyn.critic", "CriticNetwork.update"),
    "actor.forward": ("spinsyn.actor", "ActorNetwork.forward"),
    "actor.accumulate": ("spinsyn.actor", "ActorNetwork.accumulate"),
    "actor.apply_batch_update": ("spinsyn.actor", "ActorNetwork.apply_batch_update"),
    "harness.run_epoch": ("spinsyn.harness", "run_epoch"),
    "harness.run_trial": ("spinsyn.harness", "run_trial"),
    "harness.run_trials": ("spinsyn.harness", "run_trials"),
    "device.apply_pulse": ("spinsyn.device", "apply_pulse"),
    "device.pulse_map_sweep": ("spinsyn.device", "pulse_map_sweep"),
    "cli.pulse_map_sweep": ("spinsyn.cli", "pulse_map_sweep"),
    "cli.parse_config": ("spinsyn.cli", "parse_config"),
    "cli.write_learning_curve_csv": ("spinsyn.cli", "write_learning_curve_csv"),
    "cli.write_sweep_csv": ("spinsyn.cli", "write_sweep_csv"),
    "cli.write_comparison_csv": ("spinsyn.cli", "write_comparison_csv"),
    "cli.write_stats_csv": ("spinsyn.cli", "write_stats_csv"),
    "cli.write_pulse_map_csv": ("spinsyn.cli", "write_pulse_map_csv"),
    "harness.pool": ("spinsyn.harness", "Pool"),
}

# the callable is bound under two names; one span name keeps the totals together
_SPAN_NAME = {"cli.pulse_map_sweep": "device.pulse_map_sweep"}


@contextlib.contextmanager
def install(tracer: Tracer, names=tuple(HOOKS)):
    """Wrap the hooked callables in ``names`` for the duration of the block."""
    import importlib

    saved = []
    try:
        for hook in names:
            module_name, path = HOOKS[hook]
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if hook == "harness.pool":
                replacement = _timed_pool_factory(original, tracer)
            else:
                replacement = tracer.wrap(_SPAN_NAME.get(hook, hook), original)
                if hook == "actor.apply_batch_update":
                    replacement = _fire_counting(tracer, replacement)
                elif hook == "harness.run_trials":
                    replacement = _digesting(tracer, replacement)
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
