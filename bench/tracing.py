"""In-memory tracing of gmeasure's layers, installed from outside the package.

The layers are the package modules ``gmodel``, ``coupling``, ``transfer``,
``renewal``, ``criteria`` and ``cli``.  ``Tracer.install`` replaces every
public function of a layer (its ``__all__`` entries; ``main`` for ``cli``)
in every loaded ``gmeasure`` module namespace that refers to it, so calls
made through ``from .x import f`` bindings are seen too.  ``uninstall``
puts the originals back.  Each call becomes a span (name, start, end,
parent, extra).  Two hot methods are counted instead of spanned: the
``eval_indices`` method of every model returned by ``load_model``, and
``apply_dual`` on operators the benchmark hands to ``count_calls``.

Nothing is written while tracing; ``to_json`` serialises the record once
the run is over, so the CLI's checksummed artifacts are untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("gmodel", "coupling", "transfer", "renewal", "criteria", "cli")

_clock = time.perf_counter


def _blocks_extra(call, sample):
    """Summary of the BlockRecords of one sampled trajectory."""
    size = call["model"].alphabet.size
    lengths = [rec.interval[1] - rec.interval[0] + 1 for rec in sample.blocks]
    return {
        "blocks": len(lengths),
        "len_sum": sum(lengths),
        "len_max": max(lengths),
        # both conditional laws enumerate size**b words per block
        "words": sum(2 * size**b for b in lengths),
        "agreed": sum(rec.agreed for rec in sample.blocks),
    }


def _dn_extra(call, bounds):
    """Joint states enumerated by one dn_bruteforce call."""
    schedule, n = call["schedule"], call["n"]
    exponent = schedule.B(n - 1) + 2 * call["tail_len"] + schedule.b(n)
    return {"states": call["model"].alphabet.size ** exponent}


def _stationary_extra(call, measure):
    return {"residual": measure.residual}


# span name -> f(bound call arguments, return value) -> extra record
_EXTRAS = {
    "coupling.sample_block_coupling": _blocks_extra,
    "coupling.dn_bruteforce": _dn_extra,
    "transfer.stationary": _stationary_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, extra]
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        holders = [mod for name, mod in list(sys.modules.items())
                   if name == "gmeasure" or name.startswith("gmeasure.")]
        for layer in LAYERS:
            module = importlib.import_module(f"gmeasure.{layer}")
            names = ("main",) if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._spanned(f"{layer}.{attr}", fn)
                for holder in holders:
                    if holder.__dict__.get(attr) is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, _clock(), None, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = _clock()
            self._stack.pop()

    def _spanned(self, name, fn):
        extra = _EXTRAS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if extra is not None:
                rec[4] = extra(signature.bind(*args, **kwargs).arguments, out)
            if name == "gmodel.load_model":
                self.count_calls(out, "eval_indices", "gmodel.eval")
            return out

        return wrapper

    def count_calls(self, obj, method: str, name: str) -> None:
        """Count calls and time of ``obj.method`` through an instance attribute."""
        stat = self.counters.setdefault(name, [0, 0.0])
        bound = getattr(obj, method)

        def counted(*args):
            t0 = _clock()
            out = bound(*args)
            stat[1] += _clock() - t0
            stat[0] += 1
            return out

        setattr(obj, method, counted)

    # -- reduction ----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] in names)

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their direct children cover."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for s in self.spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        return sum(own.values())

    def extras(self, name: str) -> list[dict]:
        return [s[4] for s in self.spans if s[0] == name]

    def durations_ms(self, name: str) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == name]

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with >= 10 samples
    above it; with 10 or fewer samples there is none and the maximum is
    reported at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# per-layer time metric -> span names whose durations it sums per iteration
_SPAN_TIMES = {
    "gmodel.surrogate_s": ("gmodel.finite_memory_surrogate",),
    "gmodel.profile_s": ("gmodel.variation_profile",),
    "gmodel.load_s": ("gmodel.load_model",),
    "coupling.mc_s": ("coupling.estimate_disagreement",),
    "coupling.dn.s": ("coupling.dn_bruteforce",),
    "transfer.diagnostic_s": ("transfer.uniqueness_diagnostic",),
    "transfer.stationary.s": ("transfer.stationary",),
    "renewal.solve_s": ("renewal.renewal_solve",),
    "renewal.sweep_s": ("renewal.disagreement_bound_sweep",),
    "criteria.block_tv_s": ("criteria.block_tv_bounds",),
    "criteria.checks_s": (
        "criteria.check_square_summable_variation",
        "criteria.check_rho_product_series",
        "criteria.check_variation_o_sqrt",
        "criteria.check_geometric_window_sums",
        "criteria.coupling_bound_ratio",
    ),
}


def _iteration_times(trace: Tracer) -> dict[str, float]:
    times = {metric: trace.total(*names) for metric, names in _SPAN_TIMES.items()}
    calls, seconds = trace.counters.get("gmodel.eval", (0, 0.0))
    times["gmodel.eval.self_s"] = seconds
    times["gmodel.eval.us_per_call"] = 1e6 * seconds / calls if calls else 0.0
    times["cli.self_s"] = trace.self_time("cli.main")
    return times


def layer_metrics(traces: list[Tracer]) -> dict[str, float]:
    """Per-layer metrics from the traced iterations of one run.

    Counts come from the first traced iteration, whose inputs are fixed by
    the benchmark seed, so they repeat exactly.  Times are medians over the
    traced iterations; per-trajectory times are pooled over all of them.
    """
    per_iter = [_iteration_times(t) for t in traces]
    metrics = {key: statistics.median(it[key] for it in per_iter) for key in per_iter[0]}

    first = traces[0]
    blocks = first.extras("coupling.sample_block_coupling")
    n_blocks = sum(e["blocks"] for e in blocks)

    def per_block(key: str) -> float:
        return sum(e[key] for e in blocks) / n_blocks if n_blocks else 0.0

    traj_ms = [d for t in traces for d in t.durations_ms("coupling.sample_block_coupling")]
    tail, tail_pct = tail_percentile(traj_ms) if traj_ms else (0.0, 0.0)
    dn_states = sum(e["states"] for e in first.extras("coupling.dn_bruteforce"))
    dn_s = metrics["coupling.dn.s"]
    metrics.update({
        "gmodel.eval.calls": first.counters.get("gmodel.eval", (0, 0.0))[0],
        "coupling.traj_ms.p50": statistics.median(traj_ms) if traj_ms else 0.0,
        "coupling.traj_ms.tail": tail,
        "coupling.traj_ms.tail_pct": tail_pct,
        "coupling.traj.samples": len(traj_ms),
        "coupling.blocks": n_blocks,
        "coupling.block_len.mean": per_block("len_sum"),
        "coupling.block_len.max": max((e["len_max"] for e in blocks), default=0),
        "coupling.words_per_block": per_block("words"),
        "coupling.agree_frac": per_block("agreed"),
        "coupling.dn.states": dn_states,
        "coupling.dn.states_per_s": dn_states / dn_s if dn_s else 0.0,
        "transfer.stationary.iters": first.counters.get("transfer.apply_dual", (0, 0.0))[0],
        "transfer.stationary.residual": max(
            (e["residual"] for e in first.extras("transfer.stationary")), default=0.0),
    })
    return metrics
