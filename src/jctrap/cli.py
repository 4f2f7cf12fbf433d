"""Command-line front end: presets, config parsing, outputs, manifests.

Configs are flat `key = value` text; command-line flags override file
values.  The coupling g is the unit of frequency, so times are in units of
1/g, marked in the key names, and the Ramsey angle is the Ramsey time.  No
config sets g or the Ramsey frequency omega_in_g: a manifest written when
they were tokens loads if it holds them at 1, the only value they had.
Every run writes a manifest holding the fully resolved config, the master
seed and sha256 digests of each output file, which is enough to
bit-reproduce them; a sweep's manifest also names each failed cell's error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import math
import operator
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classical import ClassicalConfig, build_classical_config, classical_trajectory
from .dynamics import SCHEME_KINDS
from .errors import ConfigError, SimulationError
from .experiment import (
    RUN_MODES,
    RunConfig,
    RunResult,
    SweepCell,
    build_run_config,
    run_sequence,
    sweep,
)
from .stochastic import TIMING_LAWS


@dataclass
class ParsedConfig:
    command: str
    tokens: dict[str, str]
    run: RunConfig | None = None
    classical: ClassicalConfig | None = None
    sweep: tuple[list[float], int] | None = None  # a sweep's (multipliers, ensemble)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def parse_alpha_token(token: str) -> float:
    """Coherent amplitude tokens: a float, or sqrtN for an exact sqrt(N)."""
    token = token.strip()
    if token.startswith("sqrt"):
        try:
            return math.sqrt(float(token[4:]))
        except ValueError:
            raise ConfigError(f"alpha: cannot parse sqrt expression {token!r}") from None
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"alpha: cannot parse {token!r}") from None


def parse_kv_file(path) -> dict[str, str]:
    """Read a flat key = value file; inside a manifest, only [config] counts."""
    tokens: dict[str, str] = {}
    section = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh.read().splitlines()]
    except (OSError, UnicodeDecodeError) as exc:
        reason = (exc.strerror or exc) if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigError(f"config: cannot read {str(path)!r}: {reason}") from None
    has_config_section = "[config]" in lines
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if "=" not in line:
            raise ConfigError(f"config file: cannot parse line {line!r}")
        if has_config_section and section != "config":
            continue
        key, _, value = line.partition("=")
        tokens[key.strip()] = value.strip()
    return tokens


def _parse_bool(text: str) -> bool:
    words = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
    return words[text.lower()]


def _parse_mults(text: str) -> list[float]:
    mults = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not mults:
        raise ConfigError("spread_mults: at least one multiplier required")
    return mults


# What a parser expects, for the error when a token does not parse.
_EXPECTED = {
    int: "an integer", float: "a number", _parse_bool: "true or false",
    _parse_mults: "comma-separated numbers",
}


def _back(path: str, fmt=str):
    """Write a token back from the resolved config's attribute at path."""
    get = operator.attrgetter(path)
    return lambda config, given: fmt(get(config))


def _given_for(attr: str, canonical):
    """Write alpha or fock back, as canonical(given), when the config sets that attribute."""
    return lambda config, given: "" if getattr(config, attr) is None else canonical(given)


def _alpha_text(text: str) -> str:
    """One text per alpha value: a number, or sqrt and a number for sqrtN."""
    root = "sqrt" if text.startswith("sqrt") else ""
    return root + _fmt(float(text[len(root) :]))


# Every config token: (keyword it sets, parser, how the resolved config writes
# it back, its flag's help).  A run's keywords go to build_run_config and a
# classical run's to build_classical_config.  The spread inputs resolve into
# spread_in_inv_g and are not written back.  The sweep's own two set no
# keyword: parse_config keeps them as ParsedConfig.sweep and writes them back,
# last, from it.  A token with help has a flag (see _flag) on every command
# that reads it; one with None has none.
_TOKENS = {
    "scheme": ("scheme", str, _back("scheme"), f"update rule: {', '.join(SCHEME_KINDS)}"),
    "trap": ("trap_target", int, _back("trap_target"), "target trap level n_t"),
    "q": ("q", int, _back("q"), "trapping order (theta_nt = q pi)"),
    "atoms": ("n_atoms", int, _back("n_atoms"), "number of atoms N"),
    "epsilon0": ("epsilon0", float, _back("epsilon0", _fmt), "initial dimensionless field"),
    "steps": ("n_steps", int, _back("n_steps"), "number of map iterations"),
    "alpha": (
        "alpha", parse_alpha_token, _given_for("alpha", _alpha_text),
        "coherent initial amplitude (number or sqrtN)",
    ),
    "fock": ("fock_n", int, _given_for("fock", lambda text: str(int(text))), "Fock initial level"),
    "dist": ("law", str, _back("timing.law"), f"timing law: {', '.join(TIMING_LAWS)}"),
    "mode": ("mode", str, _back("mode"), f"outcome handling: {', '.join(RUN_MODES)}"),
    "tau_bar_in_inv_g": ("tau_bar", float, _back("timing.tau_bar", _fmt), "mean g*tau per transit"),
    "spread_in_inv_g": ("spread_time", float, _back("timing.spread", _fmt), None),
    "spread_frac": ("spread_frac", float, None, "spread as a fraction of tau_bar"),
    "spread_mult": ("spread_mult", float, None, "spread as a multiple of the critical spread"),
    "phi_f_rad": ("phi_f", float, _back("phi_f", _fmt), None),
    "nmax": ("n_max", int, _back("n_max"), "Fock truncation bound"),
    "seed": ("master_seed", int, _back("master_seed"), "master seed"),
    "stream": ("stream_id", int, _back("stream_id"), "stream id (trajectory index)"),
    "halt_on_failure": (
        "halt_on_failure", _parse_bool, _back("halt_on_failure", lambda b: str(b).lower()), None
    ),
    "spread_mults": (None, _parse_mults, None, "comma-separated multiples of the critical spread"),
    "ensemble": (None, int, None, "runs per multiplier"),
}


def _flag(token: str) -> str:
    """A token's flag: the token with dashes, but --gtau-bar for tau_bar_in_inv_g."""
    return "--gtau-bar" if token == "tau_bar_in_inv_g" else "--" + token.replace("_", "-")


_RUN_TOKENS = (
    "scheme", "trap", "q", "atoms", "alpha", "fock", "dist", "mode", "tau_bar_in_inv_g",
    "spread_in_inv_g", "spread_frac", "spread_mult", "phi_f_rad", "nmax", "seed", "stream",
    "halt_on_failure",
)
_SPREAD_INPUTS = ("spread_in_inv_g", "spread_frac", "spread_mult")

# The tokens each command reads, in manifest order.
_COMMAND_TOKENS = {
    "run": _RUN_TOKENS,
    "sweep": (*(t for t in _RUN_TOKENS if t not in _SPREAD_INPUTS), "spread_mults", "ensemble"),
    "classical": (
        "epsilon0", "steps", "tau_bar_in_inv_g", "spread_in_inv_g", "spread_frac", "dist", "seed",
        "stream",
    ),
}

# Keys a command accepts and ignores besides `command`: older manifests carry
# the retired `workers`, and a sweep sets every cell's spread to its
# multiplier times the critical spread, so it ignores a run config's spread.
_IGNORED = {"run": ("workers",), "classical": ("workers",), "sweep": ("workers", *_SPREAD_INPUTS)}

# The tokens with no default; each has a flag, which its error names.
_REQUIRED = {
    "run": ("scheme", "trap", "atoms"), "classical": ("tau_bar_in_inv_g", "epsilon0", "steps"),
}
_REQUIRED["sweep"] = (*_REQUIRED["run"], "spread_mults")

# Retired tokens, which every command accepts at 1, the only value they had,
# and why any other value would not rerun the manifest that holds it.
_RETIRED = {
    "g": "times are in units of 1/g, so g must be 1, got {!r}; "
         "scale tau_bar_in_inv_g and spread_in_inv_g by g instead",
    "omega_in_g": "the closure fixes the Ramsey angle and T_k is written for omega_in_g = 1, "
                  "so it must be 1, got {!r}; divide T_k by omega_in_g instead",
}


def _parse(token: str, text: str):
    parse = _TOKENS[token][1]
    try:
        return parse(text)
    except ConfigError:
        raise
    except (ValueError, KeyError):
        raise ConfigError(f"{token}: expected {_EXPECTED[parse]}, got {text!r}") from None


def parse_config(overrides: dict[str, str], command: str | None = None) -> ParsedConfig:
    """Resolve config tokens into a checked config and its canonical tokens.

    Only the tokens given reach build_run_config (or build_classical_config),
    which states every default; the canonical tokens are read back off the
    resolved config, so feeding them back reproduces it.
    """
    given = {k: v.strip() for k, v in overrides.items() if v and v.strip()}
    cmd = command or given.get("command")
    if cmd is None:
        raise ConfigError("command: required field missing (run, classical or sweep)")
    if "command" in given and command is not None and given["command"] != command:
        raise ConfigError(
            f"command: config is for {given['command']!r} "
            f"but the {command!r} subcommand was invoked"
        )
    if cmd not in _COMMAND_TOKENS:
        raise ConfigError(f"command: unknown command {cmd!r}")
    for token, why in _RETIRED.items():
        text = given.pop(token, "1")
        try:
            is_unit = float(text) == 1.0
        except ValueError:
            is_unit = False
        if not is_unit:
            raise ConfigError(f"{token}: " + why.format(text))
    names = _COMMAND_TOKENS[cmd]
    for key in given:
        if key not in (*names, "command", *_IGNORED[cmd]):
            raise ConfigError(f"{key}: not a config key of the {cmd} command")
    for key in _REQUIRED[cmd]:
        if key not in given:
            raise ConfigError(f"{key}: required field missing (set {_flag(key)})")
    values = {name: _parse(name, given[name]) for name in names if name in given}
    kwargs = {_TOKENS[name][0]: value for name, value in values.items() if _TOKENS[name][0]}
    build = build_classical_config if cmd == "classical" else build_run_config
    config = build(**kwargs)

    tokens = {"command": cmd}
    for name in names:
        write = _TOKENS[name][2]
        if write is not None:
            tokens[name] = write(config, given.get(name, ""))
    if cmd == "classical":
        return ParsedConfig(cmd, tokens, classical=config)
    if cmd == "run":
        return ParsedConfig(cmd, tokens, run=config)
    mults, ensemble = values["spread_mults"], values.get("ensemble", 1)
    tokens.update(spread_mults=",".join(map(_fmt, mults)), ensemble=str(ensemble))
    return ParsedConfig(cmd, tokens, run=config, sweep=(mults, ensemble))


# ---------------------------------------------------------------------------
# Presets: the regression scenarios.

_PRESETS = {
    "fig1a": dict(command="run", scheme="nsm", trap="138", alpha="3", atoms="5000", seed="11"),
    "fig1c": dict(
        command="classical", epsilon0="6", steps="10000",
        tau_bar_in_inv_g=_fmt(2 * math.pi / math.sqrt(199.0)), seed="11",
    ),
    "fig2a": dict(
        command="run", scheme="elastic", trap="20", alpha="3", atoms="2000", spread_mult="0.1",
        seed="22",
    ),
    "fig3ab": dict(
        command="run", scheme="superposition", trap="21", alpha="sqrt21", atoms="2000",
        spread_mult="0.1", seed="7",
    ),
}
# Fluctuating times let population escape the n_t = 138 trap and climb until
# the next trapping level (n = 555, where theta = 2 pi at the mean time); the
# basis must cover that stall point.
_PRESETS["fig1b"] = {**_PRESETS["fig1a"], "spread_frac": "0.01", "nmax": "650"}
_PRESETS["fig1d"] = {**_PRESETS["fig1c"], "steps": "1000000", "spread_frac": "0.01"}
_PRESETS["fig2b"] = {**_PRESETS["fig2a"], "spread_mult": "1"}
_PRESETS["fig3cd"] = {**_PRESETS["fig3ab"], "spread_mult": "2"}
# Same sequence as fig3cd; the deliverable is the final distribution.
_PRESETS["fig4"] = _PRESETS["fig3cd"]

PRESET_NAMES = tuple(sorted(_PRESETS))


def _preset_tokens(name: str) -> dict[str, str]:
    """The tokens of a named scenario, its command included."""
    if name not in _PRESETS:
        raise ConfigError(
            f"preset: unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    return dict(_PRESETS[name])


def preset(name: str) -> ParsedConfig:
    """Resolved configuration for one of the named scenarios."""
    return parse_config(_preset_tokens(name))


# ---------------------------------------------------------------------------
# Output writing, the only code that opens or hashes a file.  Each CSV row is
# one bytes `%` of a row format such as `b"%d,%.17g\n"`, so every real is
# written as `format(x, ".17g")` would write it.  Rows go out in blocks of at
# most BLOCK_ROWS, which bounds the memory a long file costs, and every block
# goes both to the file and into its sha256, so no digest reads a file back.

# Rows per written block: 1024 rows of the classical CSV are about 70 kB.
BLOCK_ROWS = 1024


def write_csv(path, header: bytes, row_format: bytes, rows: Iterable[tuple]) -> str:
    """Write `header`, then `row_format % row` for each row; return the sha256 hex digest."""
    digest = hashlib.sha256()
    rows = iter(rows)
    with open(path, "wb") as fh:
        block = header
        while block:
            fh.write(block)
            digest.update(block)
            block = b"".join(map(row_format.__mod__, itertools.islice(rows, BLOCK_ROWS)))
    return digest.hexdigest()


def write_trajectory_csv(path, result: RunResult) -> str:
    """Per-step CSV `k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome`; returns its sha256."""
    return write_csv(
        path,
        b"k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome\n",
        b"%d,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s\n",
        (
            (s.k, s.tau_k, s.T_k, s.P_k, s.cum_P, s.mean_n, s.delta_n, s.outcome.encode())
            for s in result.steps
        ),
    )


def write_sweep_csv(path, cells: list[SweepCell]) -> str:
    """Per-cell CSV `multiplier,cell,final_P_nt,cum_P,converged`; returns its sha256."""
    return write_csv(
        path,
        b"multiplier,cell,final_P_nt,cum_P,converged\n",
        b"%.17g,%d,%.17g,%.17g,%d\n",
        ((c.multiplier, c.cell, c.final_p_trap, c.cum_P, c.converged) for c in cells),
    )


def write_distribution_csv(path, distribution: np.ndarray) -> str:
    """Write a photon-number distribution as two-column CSV `n,P(n)`; returns its sha256."""
    p = np.asarray(distribution, dtype=float)
    return write_csv(path, b"n,P(n)\n", b"%d,%.17g\n", enumerate(p.tolist()))


def write_classical_csv(path, epsilon0: float,
                        blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> str:
    """Trajectory CSV `k,tau_k,epsilon,eps_sq_over_4`; row 0 holds the start epsilon0.

    Each `(taus, epsilons)` block, as `classical_trajectory` yields them, is
    written and hashed as it arrives.  Returns the sha256 hex digest of the
    bytes written.
    """

    def slices():
        # Python's `e ** 2` (libm pow), not `e * e` as numpy squares: the two
        # differ in the last bit on 843 of fig1d's 10^6 rows.
        yield [(0, 0, epsilon0, epsilon0 ** 2 / 4.0)]
        k = 1
        for taus, epsilons in blocks:
            for lo in range(0, len(taus), BLOCK_ROWS):
                eps = epsilons[lo : lo + BLOCK_ROWS].tolist()
                yield zip(itertools.count(k), taus[lo : lo + BLOCK_ROWS].tolist(), eps,
                          [e ** 2 / 4.0 for e in eps])
                k += len(eps)
            del taus, epsilons  # freed before the map makes the next block

    return write_csv(
        path,
        b"k,tau_k,epsilon,eps_sq_over_4\n",
        b"%d,%.17g,%.17g,%.17g\n",
        itertools.chain.from_iterable(slices()),
    )


def write_outputs(parsed: ParsedConfig, result, out_dir,
                  duration_seconds: Callable[[], float]) -> None:
    """Write the command's CSV outputs plus a manifest with their digests into out_dir.

    The manifest holds the resolved config tokens and `duration_seconds()`,
    read once the CSVs are written; a sweep's also names each failed cell's
    error and each sampled cell's count of failed outcomes.  A classical
    result is the map's blocks, computed as its CSV is written.  If the map
    or any write fails, every CSV this call opened is removed.
    """
    out = Path(out_dir)
    # Written last; until then an earlier run's manifest would misdescribe the files.
    (out / "manifest.txt").unlink(missing_ok=True)
    terminated = None
    sections: dict[str, dict[int, object]] = {}

    # Per CSV: its name, its writer and the writer's arguments after the path.
    if parsed.command == "run":
        writes = [("trajectory.csv", write_trajectory_csv, result),
                  ("distribution.csv", write_distribution_csv, result.final_distribution)]
        terminated = result.terminated_early
    elif parsed.command == "classical":
        writes = [("classical.csv", write_classical_csv, parsed.classical.epsilon0, result)]
    else:
        writes = [("sweep.csv", write_sweep_csv, result)]
        sections["errors"] = {cell.cell: cell.error for cell in result if cell.error is not None}
        sections["failures"] = {cell.cell: cell.n_failures for cell in result if cell.n_failures}

    outputs: dict[str, str] = {}
    opened: list[Path] = []
    try:
        for name, write, *args in writes:
            opened.append(out / name)
            outputs[name] = write(opened[-1], *args)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                path.unlink()
        raise

    lines = [
        f"artifact_version = {__version__}",
        f"command = {parsed.command}",
        f"master_seed = {parsed.tokens['seed']}",
        f"duration_seconds = {format(duration_seconds(), '.6g')}",
        f"terminated_early = {terminated or 'none'}",
        "",
        "[config]",
    ]
    lines += [f"{k} = {v}" for k, v in parsed.tokens.items()]
    # Before [outputs], every key of which is a digest.
    for section, values in sections.items():
        if values:
            lines += ["", f"[{section}]"]
            lines += [f"cell {index} = {value}" for index, value in values.items()]
    lines += ["", "[outputs]"]
    lines += [f"{name} = sha256:{digest}" for name, digest in outputs.items()]
    (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by later ones.

    Importing the CLI builds none, and parse_args leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="jctrap",
        description="Trapping-state dynamics of repeatedly measured atom-cavity interactions",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, help):
        # No prefix abbreviations: `classical --g` must not reach --gtau-bar.
        return sub.add_parser(name, help=help, allow_abbrev=False)

    for name, about in (
        ("run", "run one atom sequence"),
        ("classical", "iterate the classical return map"),
        ("sweep", "ensemble scan over spread multipliers"),
    ):
        p = command(name, about)
        p.add_argument("--config", help="config file (flat key = value, or a manifest)")
        p.add_argument("--preset", help="start from a named scenario preset")
        # Each value reaches parse_config as text, as a config file's does.
        for token in _COMMAND_TOKENS[name]:
            if _TOKENS[token][3]:
                p.add_argument(_flag(token), dest=token, help=_TOKENS[token][3])
        p.add_argument("--out-dir", required=True, help="output directory, made if missing")

    p_preset = command("preset", "print a scenario preset as a config")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    return parser


# A layer that sets any key of a group replaces the whole group from the
# layers below: the spread keys, and the two ways to give the initial field.
_REPLACED_TOGETHER = (_SPREAD_INPUTS, ("alpha", "fock"))

# A run's default tau_bar_in_inv_g is the trapping time of these.
_TRAPPING_TIME_KEYS = ("trap", "q")


def _merge_layers(layers: list[dict[str, str]], command: str) -> dict[str, str]:
    """Merge token layers (preset, config file, flags); later layers win.

    A layer that sets a spread key replaces every spread key below it, and
    one that sets alpha or fock replaces both.  A run or sweep layer that
    sets trap or q over a lower tau_bar_in_inv_g is an error: a config
    cannot tell a chosen time from the default trapping time of its own
    trap and q.
    """
    tokens: dict[str, str] = {}
    for layer in layers:
        for group in _REPLACED_TOGETHER:
            if any(layer.get(key) for key in group):
                for key in group:
                    tokens.pop(key, None)
        fixed_tau = tokens.get("tau_bar_in_inv_g")
        if command != "classical" and fixed_tau and not layer.get("tau_bar_in_inv_g"):
            for key in _TRAPPING_TIME_KEYS:
                if layer.get(key):
                    raise ConfigError(
                        f"{key}: cannot change {key} over a config that sets "
                        f"tau_bar_in_inv_g = {fixed_tau}; remove tau_bar_in_inv_g "
                        f"from that config or set {key} in it"
                    )
        tokens.update(layer)
    return tokens


def _resolve(args: argparse.Namespace, command: str) -> ParsedConfig:
    layers = []
    if args.preset:
        preset_tokens = _preset_tokens(args.preset)
        preset_command = preset_tokens.pop("command")
        # A sweep builds on a run scenario; otherwise commands must agree.
        if command != preset_command and not (command == "sweep" and preset_command == "run"):
            raise ConfigError(
                f"preset: {args.preset} is a {preset_command} scenario, "
                f"not usable with the {command} subcommand"
            )
        layers.append(preset_tokens)
    if args.config:
        file_tokens = parse_kv_file(args.config)
        if command == "sweep" and file_tokens.get("command") == "run":
            file_tokens.pop("command")
        layers.append(file_tokens)
    flags = {k: v for k, v in vars(args).items() if v is not None and k in _COMMAND_TOKENS[command]}
    for token, text in flags.items():
        if not text.strip():
            raise ConfigError(f"{token}: flag value is blank: {text!r}")
    layers.append(flags)
    return parse_config(_merge_layers(layers, command), command=command)


def _make_out_dir(path: str) -> list[Path]:
    """Create the output directory, parents included; returns those it made, deepest first."""
    out = Path(path)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out-dir: cannot create {path!r}: {exc.strerror or exc}") from None
    return made


def _simulate(parsed: ParsedConfig):
    """The command's result: a RunResult, the classical map's blocks or the sweep's cells."""
    if parsed.command == "run":
        return run_sequence(parsed.run)
    if parsed.command == "classical":
        return classical_trajectory(parsed.classical)
    return sweep(parsed.run, *parsed.sweep)


def _timed(blocks: Iterator, elapsed: list[float]) -> Iterator:
    """Yield each block, adding the seconds spent making it to elapsed[0]."""
    start = time.perf_counter()
    for block in blocks:
        elapsed[0] += time.perf_counter() - start
        yield block
        del block  # freed before the next block is made
        start = time.perf_counter()
    elapsed[0] += time.perf_counter() - start


def _dispatch(args: argparse.Namespace) -> int:
    if args.subcommand == "preset":
        if args.list or not args.name:
            for name in PRESET_NAMES:
                print(name)
            return 0
        parsed = preset(args.name)
        for key, value in parsed.tokens.items():
            print(f"{key} = {value}")
        return 0

    parsed = _resolve(args, args.subcommand)
    made = _make_out_dir(args.out_dir)
    elapsed = [0.0]  # seconds spent simulating; the classical map runs as it is written
    try:
        start = time.perf_counter()
        result = _simulate(parsed)
        elapsed[0] = time.perf_counter() - start
        if parsed.command == "classical":
            result = _timed(result, elapsed)
        try:  # write_outputs writes the manifest last, so a failed write leaves none
            write_outputs(parsed, result, args.out_dir, lambda: elapsed[0])
        except OSError as exc:
            raise ConfigError(
                f"out-dir: cannot write {exc.filename!r}: {exc.strerror or exc}") from None
    except BaseException:
        # A failed command removes the directories it made, where it left them empty.
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    if parsed.command == "run" and result.terminated_early:
        print(f"run terminated early: {result.terminated_early}", file=sys.stderr)
        return 2
    if parsed.command == "sweep" and any(cell.error for cell in result):
        print("some sweep cells failed; see [errors] in manifest.txt", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
