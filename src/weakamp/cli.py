"""Command line interface: one-shot shifts, figure-style sweeps, verification.

Output is CSV with a ``# key=value`` comment header echoing every effective
parameter, a column header row, then data rows: '.' decimal separator, ','
field separator, LF line endings, 17 significant digits.  Identical flags
produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 vanishing
postselection, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple, Sequence

from .channels import amplitude_damping, depolarizing, phase_damping
from .common import (GaussianMeter, VanishingPostselectionError, _check_coupling,
                     _check_unit_interval)
from .gaussian import gaussian_max_shifts, gaussian_shifts
from .maxima import amplitude_damping_max
from .qubit import _density_at_modulus, pure_state
from .qubitmeter import postselected_reading, qubit_max_reading
from .verification import FAULT_NAMES, run_verify


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


CHANNELS = {
    "none": None,
    "depolarizing": depolarizing,
    "phase-damping": phase_damping,
    "amplitude-damping": amplitude_damping,
}

#: ``--delta``, which only the Gaussian meter of ``shift`` and ``fig`` reads.
DELTA_OPT = ("--delta", dict(type=float, default=1.0,
                             help="pointer position spread (gaussian meter only)"))

#: (flag, ``add_argument`` keywords) of each subcommand's options; ``shift``
#: echoes its options in this order.
SHIFT_OPTS = (
    ("--meter", dict(required=True, choices=("gaussian", "qubit"), help="meter type")),
    ("--channel", dict(default="none", choices=tuple(CHANNELS),
                       help="noise channel applied to the preselection state")),
    ("--gamma", dict(type=float, default=0.0, help="noise strength in [0, 1]")),
    ("--r", dict(type=float, default=1.0, help="preselection Bloch modulus in [0, 1]")),
    ("--theta1", dict(type=float, required=True, help="preselection polar angle")),
    ("--theta2", dict(type=float, required=True, help="postselection polar angle")),
    ("--phi0", dict(type=float, default=0.0, help="relative azimuth of the pair")),
    ("--g-over-dp", dict(type=float, help="coupling in units of the momentum spread "
                                          "(gaussian meter only)")),
    ("--g", dict(type=float, help="absolute coupling (qubit meter only)")),
    DELTA_OPT,
)

FIG_OPTS = (
    ("--output", dict(required=True, help="CSV output path")),
    ("--steps", dict(type=int, help="sweep points (default: the figure's own, "
                                    "echoed in the CSV header)")),
    ("--start", dict(type=float, help="sweep start (default 0)")),
    ("--stop", dict(type=float, help="sweep stop (default: the figure's own, "
                                     "echoed in the CSV header)")),
    DELTA_OPT,
)

VERIFY_OPTS = (
    ("--seed", dict(type=int, default=7, help="battery seed")),
    ("--samples", dict(type=int, default=1000, help="random inputs per oracle battery")),
    ("--adjudication-csv", dict(default="adjudication.csv",
                                help="where to write the adjudication table")),
    ("--inject-fault", dict(choices=FAULT_NAMES,
                            help="perturb one closed form to self-test the battery")),
)

#: The options only one meter reads, its coupling flag first.
METER_OPTIONS = {"gaussian": ("--g-over-dp", "--delta"), "qubit": ("--g",)}


def _check_meter_options(meter: str, v: dict) -> None:
    """Require ``meter``'s coupling flag, if any, and reject other meters' changed options."""
    opts = dict(COMMANDS[v["command"]][1])
    changed = {flag for flag in opts if v[flag[2:].replace("-", "_")] != opts[flag].get("default")}
    coupling = METER_OPTIONS[meter][0]
    if coupling in opts and coupling not in changed:
        raise ValueError(f"the {meter} meter requires {coupling}")
    for other, flags in METER_OPTIONS.items():
        for flag in flags:
            if other != meter and flag in changed:
                use = f"; use {coupling}" if flag == flags[0] else ""
                raise ValueError(f"{flag} applies to the {other} meter{use}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakamp",
        description="Weak-measurement amplification: conditional pointer "
                    "shifts, figure sweeps, and the verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, opts, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == "fig":
            p.add_argument("n", type=int, choices=FIGURES, help="figure number")
        p.add_argument("--config", help="key=value file supplying option defaults")
        for flag, kwargs in opts:
            p.add_argument(flag, **kwargs)
    return parser


def _load_config(path: str, known: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


#: The tokens argparse reads as ``--config`` (a prefix of at least ``--c``).
_CONFIG_PREFIXES = frozenset("--config"[:end] for end in range(3, 9))


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with its ``--config`` file's values inserted right after the
    subcommand as ``--key=value`` tokens, so that argparse checks them like
    flags, flags given on the command line win, and a value may start with
    '-'.  The file is looked up by a parser that knows the subcommand's
    flags, so an abbreviation resolves as it does in the real parse; that
    parse is skipped when no token can name ``--config``."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or not any(a.partition("=")[0] in _CONFIG_PREFIXES for a in argv):
        return argv
    opts = command[1]
    lookup = argparse.ArgumentParser(prog=f"weakamp {argv[0]}", add_help=False)
    for flag in ("--config", *(flag for flag, _ in opts)):
        lookup.add_argument(flag)
    path = lookup.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    config = _load_config(path, {flag[2:] for flag, _ in opts})
    return [argv[0], *(f"--{key}={value}" for key, value in config.items()), *argv[1:]]


def _comment_lines(pairs) -> list[str]:
    return [f"# {key}={_fmt(value)}" for key, value in pairs]


def _csv_text(comments: list[str], header: list[str], rows: list[list]) -> str:
    lines = list(comments)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def _preselection(theta1: float, phi0: float, r: float, channel: str, gamma: float):
    r = _check_unit_interval("--r", r)
    rho = _density_at_modulus(pure_state(theta1, phi0), r)
    ctor = CHANNELS[channel]
    if ctor is not None:
        rho = ctor(gamma).apply(rho)
    return rho


def cmd_shift(v: dict) -> int:
    _check_meter_options(v["meter"], v)
    if v["channel"] == "none" and v["gamma"] != 0.0:
        raise ValueError("--gamma applies to a noise channel; set --channel")

    rho = _preselection(v["theta1"], v["phi0"], v["r"], v["channel"], v["gamma"])
    psi_f = pure_state(v["theta2"], 0.0)
    echoed = ((flag[2:], v[flag[2:].replace("-", "_")]) for flag, _ in SHIFT_OPTS)
    comments = _comment_lines((key, value) for key, value in echoed if value is not None)
    # Each coupling flag is checked under its own name, before it is scaled.
    if v["meter"] == "gaussian":
        g_over_dp = _check_coupling(v["g_over_dp"], "--g-over-dp")
        meter = GaussianMeter(v["delta"])
        g = g_over_dp * meter.dp
        if g == math.inf:
            raise ValueError(f"the coupling --g-over-dp / (2 --delta) overflows at "
                             f"--g-over-dp {g_over_dp!r}, --delta {v['delta']!r}")
        result = gaussian_shifts(rho, psi_f, g, meter)
        text = _csv_text(comments, ["dp_shift", "dq_shift", "prob"],
                         [[result.dp_shift, result.dq_shift, result.prob]])
    else:
        result = postselected_reading(rho, psi_f, _check_coupling(v["g"], "--g"))
        text = _csv_text(comments, ["reading", "prob"],
                         [[result.reading, result.prob]])
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# fig
# ---------------------------------------------------------------------------

#: Couplings of the figure sweeps, in meter-spread units (Gaussian) or
#: absolute (qubit meter): three per noise sweep in figs 1-4, one in the
#: amplitude-damping figs 5-6.
SWEEP_COUPLINGS = (0.1, 0.05, 0.03)
DAMPED_COUPLING = 0.1
#: The most points a sweep may ask for.  A fig holds every point and row in
#: memory before it writes: 100000 points took about 1.6 s and 110 MB peak
#: on fig 1, a thousand times its 101 points, and 1e11 would exhaust memory.
MAX_STEPS = 100_000


class Sweep(NamedTuple):
    """A figure's swept parameter, its default points and stop, and the
    Bloch modulus kappa of the noisy maxima at each value x (None: the
    amplitude-damping suprema, taken at damping strength x)."""

    parameter: str
    steps: int
    stop: float
    kappa: Callable[[float], float] | None


R_SWEEP = Sweep("r", 101, 1.0, lambda x: x)  # the preselection modulus
GAMMA_SWEEP = Sweep("gamma", 101, 1.0, lambda x: 1.0 - x)  # depolarizing or dephasing
DAMPED_SWEEP = Sweep("gamma", 21, 0.95, None)

#: Each figure's meter and sweep.
FIGURES = {1: ("gaussian", R_SWEEP), 2: ("qubit", R_SWEEP),
           3: ("gaussian", GAMMA_SWEEP), 4: ("qubit", GAMMA_SWEEP),
           5: ("gaussian", DAMPED_SWEEP), 6: ("qubit", DAMPED_SWEEP)}


def fig_table(n: int, start: float, stop: float, steps: int,
              delta: float) -> tuple[list[tuple], list[str], list[list[float]]]:
    """Comment pairs, column header, and rows for figure ``n``."""
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"--steps must be at most {MAX_STEPS}, got {steps}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise ValueError(f"need start < stop, got {start} and {stop}")
    if start < 0.0 or stop > 1.0:
        raise ValueError("sweep range must stay inside [0, 1]")
    name, sweep = FIGURES[n]
    # Each meter's targets, coupling scale and coupling unit in column names.
    if name == "gaussian":
        meter = GaussianMeter(delta)
        targets, scale, unit = ("dp", "dq"), meter.dp, "dp"
        maxima = lambda kappa, g: gaussian_max_shifts(kappa, g, meter)
    else:
        meter, targets, scale, unit = name, ("reading",), 1.0, ""
        maxima = lambda kappa, g: (qubit_max_reading(kappa, g),)
    coupling = METER_OPTIONS[name][0][2:]  # "g-over-dp" or "g", the comment key
    # The last point is stop itself: the interpolation can round one ulp past it.
    xs = [start + (stop - start) * i / (steps - 1) for i in range(steps - 1)] + [stop]
    pairs = [("fig", n), ("parameter", sweep.parameter), ("start", start),
             ("stop", stop), ("steps", steps), ("delta", delta)]
    header = [sweep.parameter]
    if sweep.kappa is None:  # the suprema at one coupling
        pairs.append((coupling, DAMPED_COUPLING))
        header += [f"{target}_max" for target in targets]
        g = DAMPED_COUPLING * scale
        rows = [[x] + [amplitude_damping_max(meter, x, g, target).value for target in targets]
                for x in xs]
    else:  # the noisy maxima at each coupling
        pairs.append((f"{coupling}-values", ";".join(map(str, SWEEP_COUPLINGS))))
        header += [f"{target}_max_g{c}{unit}" for c in SWEEP_COUPLINGS for target in targets]
        rows = [[x] + [m.value for c in SWEEP_COUPLINGS for m in maxima(sweep.kappa(x), c * scale)]
                for x in xs]
    return pairs, header, rows


def cmd_fig(v: dict) -> int:
    meter, sweep = FIGURES[v["n"]]
    _check_meter_options(meter, v)
    steps = v["steps"] if v["steps"] is not None else sweep.steps
    start = v["start"] if v["start"] is not None else 0.0
    stop = v["stop"] if v["stop"] is not None else sweep.stop
    pairs, header, rows = fig_table(v["n"], start, stop, steps, v["delta"])
    text = _csv_text(_comment_lines(pairs), header, rows)
    with open(v["output"], "w", newline="\n") as fh:
        fh.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(v: dict) -> int:
    report = run_verify(seed=v["seed"], samples=v["samples"],
                        inject_fault=v["inject_fault"])
    # The report comes first, so that a CSV path that cannot be written
    # (exit 4) does not lose it.
    sys.stdout.write(report.to_text() + "\n")
    report.adjudication.write_csv(v["adjudication_csv"])
    return 0 if report.ok else 1


#: Each subcommand's help, options and handler.
COMMANDS = {
    "shift": ("compute one conditional shift or reading", SHIFT_OPTS, cmd_shift),
    "fig": ("emit a figure sweep as CSV", FIG_OPTS, cmd_fig),
    "verify": ("run the oracle/optimizer/adjudication batteries", VERIFY_OPTS, cmd_verify),
}


# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        v = vars(_build_parser().parse_args(_with_config(argv)))
        return COMMANDS[v["command"]][2](v)
    except SystemExit as exc:  # argparse has printed its usage error or help
        return int(exc.code or 0)
    except VanishingPostselectionError as exc:
        print(f"weakamp: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"weakamp: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"weakamp: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
