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
from dataclasses import dataclass
from typing import Callable, Sequence

from .channels import amplitude_damping, depolarizing, phase_damping
from .common import GaussianMeter, VanishingPostselectionError
from .gaussian import gaussian_max_shifts, gaussian_shifts
from .optimize import amplitude_damping_max
from .qubit import BlochVector, density_from_bloch, pure_state
from .qubitmeter import postselected_reading, qubit_max_reading
from .verification import FAULT_NAMES, run_verify


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass(frozen=True)
class Opt:
    flag: str
    type: Callable
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


CHANNELS = {
    "none": None,
    "depolarizing": depolarizing,
    "phase-damping": phase_damping,
    "amplitude-damping": amplitude_damping,
}

SHIFT_OPTS = (
    Opt("--meter", str, required=True, choices=("gaussian", "qubit"),
        help="meter type"),
    Opt("--channel", str, default="none", choices=tuple(CHANNELS),
        help="noise channel applied to the preselection state"),
    Opt("--gamma", float, default=0.0, help="noise strength in [0, 1]"),
    Opt("--r", float, default=1.0, help="preselection Bloch modulus in [0, 1]"),
    Opt("--theta1", float, required=True, help="preselection polar angle"),
    Opt("--theta2", float, required=True, help="postselection polar angle"),
    Opt("--phi0", float, default=0.0, help="relative azimuth of the pair"),
    Opt("--g-over-dp", float, help="coupling in units of the momentum spread "
        "(gaussian meter only)"),
    Opt("--g", float, help="absolute coupling (qubit meter only)"),
    Opt("--delta", float, default=1.0, help="pointer position spread"),
)

FIG_OPTS = (
    Opt("--output", str, required=True, help="CSV output path"),
    Opt("--steps", int, help="sweep points (default 101; 21 for figs 5-6)"),
    Opt("--start", float, help="sweep start (default 0)"),
    Opt("--stop", float, help="sweep stop (default 1; 0.95 for figs 5-6)"),
    Opt("--delta", float, default=1.0, help="pointer position spread"),
)

VERIFY_OPTS = (
    Opt("--seed", int, default=7, help="battery seed"),
    Opt("--samples", int, default=1000, help="random inputs per oracle battery"),
    Opt("--adjudication-csv", str, default="adjudication.csv",
        help="where to write the adjudication table"),
    Opt("--inject-fault", str, choices=FAULT_NAMES,
        help="perturb one closed form to self-test the battery"),
)

_REGISTRY = {"shift": SHIFT_OPTS, "fig": FIG_OPTS, "verify": VERIFY_OPTS}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakamp",
        description="Weak-measurement amplification: conditional pointer "
                    "shifts, figure sweeps, and the verification battery.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "shift": "compute one conditional shift or reading",
        "fig": "emit a figure sweep as CSV (1-6)",
        "verify": "run the oracle/optimizer/adjudication batteries",
    }
    for name, opts in _REGISTRY.items():
        p = sub.add_parser(name, help=descriptions[name])
        if name == "fig":
            p.add_argument("n", type=int, choices=range(1, 7),
                           help="figure number")
        p.add_argument("--config", default=None,
                       help="key=value file supplying option defaults")
        for o in opts:
            p.add_argument(o.flag, dest=o.dest, default=None, help=o.help)
    return parser


def _load_config(path: str, known: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if key not in known:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _merge(args: argparse.Namespace, opts: Sequence[Opt]) -> dict:
    config: dict[str, str] = {}
    if args.config is not None:
        config = _load_config(args.config, {o.key for o in opts})
    merged = {}
    for o in opts:
        raw = getattr(args, o.dest)
        if raw is None:
            raw = config.get(o.key)
        if raw is None:
            if o.required:
                raise UsageError(f"missing required option {o.flag}")
            merged[o.dest] = o.default
            continue
        try:
            value = o.type(raw) if isinstance(raw, str) else raw
        except ValueError:
            raise UsageError(f"invalid value for {o.flag}: {raw!r}") from None
        if o.choices and value not in o.choices:
            raise UsageError(
                f"invalid choice for {o.flag}: {value!r} (choose from {o.choices})")
        merged[o.dest] = value
    return merged


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
    if not 0.0 <= r <= 1.0:
        raise UsageError(f"--r must lie in [0, 1], got {r}")
    b = pure_state(theta1, phi0).bloch()
    rho = density_from_bloch(BlochVector(r * b.rx, r * b.ry, r * b.rz))
    ctor = CHANNELS[channel]
    if ctor is not None:
        rho = ctor(gamma).apply(rho)
    return rho


def cmd_shift(v: dict) -> int:
    if v["meter"] == "gaussian":
        if v["g_over_dp"] is None:
            raise UsageError("the gaussian meter requires --g-over-dp")
        if v["g"] is not None:
            raise UsageError("--g applies to the qubit meter; use --g-over-dp")
    else:
        if v["g"] is None:
            raise UsageError("the qubit meter requires --g")
        if v["g_over_dp"] is not None:
            raise UsageError("--g-over-dp applies to the gaussian meter; use --g")

    rho = _preselection(v["theta1"], v["phi0"], v["r"], v["channel"], v["gamma"])
    psi_f = pure_state(v["theta2"], 0.0)
    comments = _comment_lines((o.key, v[o.dest]) for o in SHIFT_OPTS
                              if v[o.dest] is not None)
    if v["meter"] == "gaussian":
        meter = GaussianMeter(v["delta"])
        result = gaussian_shifts(rho, psi_f, v["g_over_dp"] * meter.dp, meter)
        text = _csv_text(comments, ["dp_shift", "dq_shift", "prob"],
                         [[result.dp_shift, result.dq_shift, result.prob]])
    else:
        result = postselected_reading(rho, psi_f, v["g"])
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


def fig_table(n: int, start: float, stop: float, steps: int,
              delta: float) -> tuple[list[tuple], list[str], list[list[float]]]:
    """Comment pairs, column header, and rows for figure ``n``."""
    if steps < 2:
        raise UsageError(f"--steps must be at least 2, got {steps}")
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise UsageError(f"need start < stop, got {start} and {stop}")
    if start < 0.0 or stop > 1.0:
        raise UsageError("sweep range must stay inside [0, 1]")
    meter = GaussianMeter(delta)
    parameter = "r" if n in (1, 2) else "gamma"
    xs = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    pairs = [("fig", n), ("parameter", parameter), ("start", start),
             ("stop", stop), ("steps", steps), ("delta", delta)]
    rows = []
    if n in (1, 3):
        pairs.append(("g-over-dp-values", ";".join(map(str, SWEEP_COUPLINGS))))
        header = [parameter]
        for c in SWEEP_COUPLINGS:
            header += [f"dp_max_g{c}dp", f"dq_max_g{c}dp"]
        for x in xs:
            kappa = x if n == 1 else 1.0 - x
            row = [x]
            for c in SWEEP_COUPLINGS:
                dp_max, dq_max = gaussian_max_shifts(kappa, c * meter.dp, meter)
                row += [dp_max.value, dq_max.value]
            rows.append(row)
    elif n in (2, 4):
        pairs.append(("g-values", ";".join(map(str, SWEEP_COUPLINGS))))
        header = [parameter] + [f"reading_max_g{c}" for c in SWEEP_COUPLINGS]
        for x in xs:
            kappa = x if n == 2 else 1.0 - x
            rows.append([x] + [qubit_max_reading(kappa, c).value
                               for c in SWEEP_COUPLINGS])
    elif n == 5:
        pairs.append(("g-over-dp", DAMPED_COUPLING))
        header = [parameter, "dp_max", "dq_max"]
        g = DAMPED_COUPLING * meter.dp
        for x in xs:
            rows.append([x] + [amplitude_damping_max(meter, x, g, which).value
                               for which in ("dp", "dq")])
    else:
        pairs.append(("g", DAMPED_COUPLING))
        header = [parameter, "reading_max"]
        for x in xs:
            rows.append([x, amplitude_damping_max("qubit", x, DAMPED_COUPLING,
                                                  "reading").value])
    return pairs, header, rows


def cmd_fig(n: int, v: dict) -> int:
    steps = v["steps"] if v["steps"] is not None else (21 if n in (5, 6) else 101)
    start = v["start"] if v["start"] is not None else 0.0
    stop = v["stop"] if v["stop"] is not None else (0.95 if n in (5, 6) else 1.0)
    pairs, header, rows = fig_table(n, start, stop, steps, v["delta"])
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
    report.adjudication.write_csv(v["adjudication_csv"])
    sys.stdout.write(report.to_text() + "\n")
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        merged = _merge(args, _REGISTRY[args.command])
        if args.command == "shift":
            return cmd_shift(merged)
        if args.command == "fig":
            return cmd_fig(args.n, merged)
        return cmd_verify(merged)
    except UsageError as exc:
        print(f"weakamp: {exc}", file=sys.stderr)
        return 2
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
