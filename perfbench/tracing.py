"""Per-layer tracing from outside the program.

``Tracer.install`` replaces weakamp's public entry points with timing
wrappers, in every weakamp module that holds a reference to them, so calls
between modules are timed too.  Each wrapper keeps aggregated counters
(calls, inclusive time, self time) rather than spans.
The objective callable handed to ``maximize`` is wrapped as well, but only
with counters: one ``maximize`` call makes 265k-382k probes.

Self time is a call's duration minus the time spent in wrapped callees, so
a layer's self times add up without double counting.
"""

from __future__ import annotations

import inspect
import sys
import time

clock = time.perf_counter

#: Public functions wrapped per module, named as ``<module>.<function>``.
FUNCTIONS = {
    "qubit": ("pure_state", "density_from_bloch"),
    "channels": ("depolarizing", "phase_damping", "amplitude_damping"),
    "gaussian": ("gaussian_shifts", "gaussian_max_shifts"),
    "qubitmeter": ("postselected_reading", "qubit_max_reading"),
    "optimize": ("amplitude_damping_max",),
    "oracle": ("qubit_joint_evolve", "adjudicate_variants"),
    "verification": ("qubit_oracle_battery", "gaussian_oracle_battery",
                     "optimizer_battery", "adjudication_battery", "run_verify"),
}


def replace_everywhere(package, original, wrapper) -> None:
    """Point every reference to ``original`` in ``package``'s modules at ``wrapper``."""
    prefix = package.__name__
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0

    def summary(self) -> dict:
        return {"calls": self.calls, "total": self.total, "self": self.self_time}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack = [0.0]  # time spent in wrapped callees, per open call
        self.maximize_calls: list[dict] = []
        self.couplings_seen: set = set()
        self.coupling_repeats = 0
        self.missing: list[str] = []

    def stat(self, name: str) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def timed(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args)`` picks the counter a call goes to."""
        stack = self.stack
        stat = self.stat

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                stack[-1] += dur
                s = stat(name_of(args))
                s.calls += 1
                s.total += dur
                s.self_time += dur - inner

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_maximize(self, maximize):
        """``maximize`` with its objective wrapped in probe counters.

        Per call it records the duration, the probes, the time at which the
        grid_n**3-th probe (the end of the coarse grid) returned, the time
        spent inside the objective, and the ``converged`` flag.
        """
        signature = inspect.signature(maximize)
        calls = self.maximize_calls

        def wrapper(objective, *args, **kwargs):
            bound = signature.bind(objective, *args, **kwargs)
            bound.apply_defaults()
            grid_probes = bound.arguments.get("grid_n", 0) ** 3
            probe, counters = counting_probe(objective, grid_probes)
            start = clock()
            result = maximize(probe, *args, **kwargs)
            end = clock()
            probes, inside, grid_end = counters()
            calls.append({
                "dur": end - start, "probes": probes, "grid_probes": grid_probes,
                "grid_s": None if grid_end is None else grid_end - start,
                "objective_s": inside,
                "converged": bool(getattr(result, "converged", False)),
            })
            return result

        return wrapper

    def observed_grid_evolve(self, grid_evolve):
        """Count calls whose coupling (and meter) was seen before in this process."""
        def wrapper(rho_s, psi_f, g, meter, *args, **kwargs):
            key = (g, getattr(meter, "delta", meter))
            if key in self.couplings_seen:
                self.coupling_repeats += 1
            else:
                self.couplings_seen.add(key)
            return grid_evolve(rho_s, psi_f, g, meter, *args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap the entry points of ``package`` (the imported weakamp)."""
        def wrap_function(module, name, make):
            original = getattr(sys.modules.get(f"{package.__name__}.{module}"), name, None)
            if original is None:
                self.missing.append(f"{module}.{name}")
            else:
                replace_everywhere(package, original, make(original))

        def wrap_method(module, cls_name, name, counter):
            cls = getattr(sys.modules.get(f"{package.__name__}.{module}"), cls_name, None)
            if cls is None or not hasattr(cls, name):
                self.missing.append(f"{module}.{cls_name}.{name}")
            else:
                setattr(cls, name, self.timed(getattr(cls, name), counter))

        def plain(counter):
            return lambda args: counter

        for module, functions in FUNCTIONS.items():
            for name in functions:
                counter = plain(f"{module}.{name}")
                wrap_function(module, name, lambda f, c=counter: self.timed(f, c))
        wrap_function("optimize", "maximize", lambda f: self.timed(
            self.counted_maximize(f), plain("optimize.maximize")))
        wrap_function("oracle", "gaussian_grid_evolve", lambda f: self.timed(
            self.observed_grid_evolve(f), plain("oracle.gaussian_grid_evolve")))
        wrap_function("cli", "main", lambda f: self.timed(
            f, lambda args: "cli.main." + (args[0][0] if args and args[0] else "")))
        wrap_method("qubit", "PureQubit", "density", plain("qubit.density"))
        # One counter per channel kind.
        wrap_method("channels", "KrausChannel", "apply",
                    lambda args: "channels.apply." + getattr(args[0], "name", ""))

    def summary(self) -> dict:
        return {
            "stats": {name: s.summary() for name, s in self.stats.items()},
            "maximize": self.maximize_calls,
            "grid_evolve_repeats": self.coupling_repeats,
            "probe_overhead_s": probe_overhead(),
            "missing": self.missing,
        }


def counting_probe(objective, grid_probes: int):
    """Wrap ``objective`` in counters.

    Returns the wrapper and a function that reads its counters: the calls,
    the seconds spent inside ``objective``, and the clock when the
    ``grid_probes``-th call returned (None before that).
    """
    probes = 0
    inside = 0.0
    grid_end = None

    def probe(*a, **k):
        nonlocal probes, inside, grid_end
        t = clock()
        v = objective(*a, **k)
        e = clock()
        inside += e - t
        probes += 1
        if probes == grid_probes:
            grid_end = e
        return v

    def counters():
        return probes, inside, grid_end

    return probe, counters


def probe_overhead(n: int = 200_000) -> float:
    """Seconds a ``counting_probe`` wrapper adds per call, on a trivial objective."""
    def objective(a, b, c):
        return 0.0

    probe, _ = counting_probe(objective, 0)
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(n):
            objective(0.1, 0.2, 0.3)
        direct = clock() - t0
        t0 = clock()
        for _ in range(n):
            probe(0.1, 0.2, 0.3)
        best = min(best, (clock() - t0 - direct) / n)
    return max(best, 0.0)
