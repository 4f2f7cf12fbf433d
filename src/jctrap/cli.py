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
import math
import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .classical import (
    ClassicalConfig,
    build_classical_config,
    classical_trajectory,
    write_classical_csv,
)
from .dynamics import SCHEME_KINDS
from .errors import ConfigError, SimulationError
from .experiment import (
    RUN_MODES,
    RunConfig,
    build_run_config,
    run_sequence,
    sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from .fock import write_distribution_csv
from .stochastic import TIMING_LAWS


@dataclass
class ParsedConfig:
    command: str
    tokens: dict[str, str]
    run: RunConfig | None = None
    classical: ClassicalConfig | None = None


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
# it back).  A run's keywords go to build_run_config and a classical run's to
# build_classical_config.  The spread inputs resolve into spread_in_inv_g and
# are not written back.  The sweep's own two set no keyword: they are written
# back from the text given, and the sweep reads them off the tokens.
_TOKENS = {
    "scheme": ("scheme", str, _back("scheme")),
    "trap": ("trap_target", int, _back("trap_target")),
    "q": ("q", int, _back("q")),
    "atoms": ("n_atoms", int, _back("n_atoms")),
    "epsilon0": ("epsilon0", float, _back("epsilon0", _fmt)),
    "steps": ("n_steps", int, _back("n_steps")),
    "alpha": ("alpha", parse_alpha_token, _given_for("alpha", _alpha_text)),
    "fock": ("fock_n", int, _given_for("fock", lambda text: str(int(text)))),
    "dist": ("law", str, _back("timing.law")),
    "mode": ("mode", str, _back("mode")),
    "tau_bar_in_inv_g": ("tau_bar", float, _back("timing.tau_bar", _fmt)),
    "spread_in_inv_g": ("spread_time", float, _back("timing.spread", _fmt)),
    "spread_frac": ("spread_frac", float, None),
    "spread_mult": ("spread_mult", float, None),
    "phi_f_rad": ("phi_f", float, _back("phi_f", _fmt)),
    "nmax": ("n_max", int, _back("n_max")),
    "seed": ("master_seed", int, _back("master_seed")),
    "stream": ("stream_id", int, _back("stream_id")),
    "halt_on_failure": (
        "halt_on_failure", _parse_bool, _back("halt_on_failure", lambda b: str(b).lower())
    ),
    "spread_mults": (None, _parse_mults, lambda c, given: ",".join(map(_fmt, _parse_mults(given)))),
    "ensemble": (None, int, lambda c, given: str(int(given or 1))),
}

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

# The tokens with no default, each with the flag its error names (if any).
_REQUIRED = {
    "run": (("scheme", "--scheme"), ("trap", "--trap"), ("atoms", None)),
    "classical": (("tau_bar_in_inv_g", "--gtau-bar"), ("epsilon0", None), ("steps", None)),
}
_REQUIRED["sweep"] = (*_REQUIRED["run"], ("spread_mults", "--spread-mults"))

# Retired tokens, which every command accepts at 1, the only value they had,
# and why any other value would not rerun the manifest that holds it.
_RETIRED = {
    "g": "times are in units of 1/g, so g must be 1, got {!r}; "
         "scale tau_bar_in_inv_g and spread_in_inv_g by g instead",
    "omega_in_g": "the closure fixes the Ramsey angle and T_k is written for omega_in_g = 1, "
                  "so it must be 1, got {!r}; divide T_k by omega_in_g instead",
}


def _parse(token: str, text: str):
    _, parse, _ = _TOKENS[token]
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
    for key, flag in _REQUIRED[cmd]:
        if key not in given:
            raise ConfigError(f"{key}: required field missing" + (f" (set {flag})" if flag else ""))
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
    return ParsedConfig(cmd, tokens, run=config)


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
# Output writing.


def write_outputs(parsed: ParsedConfig, result, out_dir, duration_seconds: float) -> None:
    """Write the command's CSV outputs plus a manifest with their digests into out_dir.

    The manifest holds the resolved config tokens; a sweep's also names each
    failed cell's error and each sampled cell's count of failed outcomes.
    """
    out = Path(out_dir)
    outputs: dict[str, str] = {}
    terminated = None
    sections: dict[str, dict[int, object]] = {}

    if parsed.command == "run":
        outputs["trajectory.csv"] = write_trajectory_csv(out / "trajectory.csv", result)
        outputs["distribution.csv"] = write_distribution_csv(
            out / "distribution.csv", result.final_distribution
        )
        terminated = result.terminated_early
    elif parsed.command == "classical":
        taus, epsilons = result
        outputs["classical.csv"] = write_classical_csv(out / "classical.csv", taus, epsilons)
    elif parsed.command == "sweep":
        outputs["sweep.csv"] = write_sweep_csv(out / "sweep.csv", result)
        sections["errors"] = {cell.cell: cell.error for cell in result if cell.error is not None}
        sections["failures"] = {cell.cell: cell.n_failures for cell in result if cell.n_failures}

    lines = [
        f"artifact_version = {__version__}",
        f"command = {parsed.command}",
        f"master_seed = {parsed.tokens['seed']}",
        f"duration_seconds = {format(duration_seconds, '.6g')}",
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


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (flat key = value, or a manifest)")
    p.add_argument("--preset", help="start from a named scenario preset")
    p.add_argument("--scheme", choices=SCHEME_KINDS)
    p.add_argument("--trap", type=int, help="target trap level n_t")
    p.add_argument("--q", type=int, help="trapping order (theta_nt = q pi)")
    p.add_argument("--alpha", help="coherent initial amplitude (number or sqrtN)")
    p.add_argument("--fock", type=int, help="Fock initial level")
    p.add_argument("--atoms", type=int, help="number of atoms N")
    p.add_argument("--spread-mult", type=float, help="spread as a multiple of the critical spread")
    p.add_argument("--spread-frac", type=float, help="spread as a fraction of tau_bar")
    p.add_argument("--dist", choices=TIMING_LAWS, help="timing law")
    p.add_argument("--mode", choices=RUN_MODES, help="outcome handling")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--stream", type=int, help="stream id (trajectory index)")
    p.add_argument("--nmax", type=int, help="Fock truncation bound")


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

    p_run = command("run", "run one atom sequence")
    _add_run_flags(p_run)
    p_run.add_argument("--out-dir", required=True)

    p_cls = command("classical", "iterate the classical return map")
    p_cls.add_argument("--config", help="config file")
    p_cls.add_argument("--preset", help="scenario preset (fig1c, fig1d)")
    p_cls.add_argument("--epsilon0", type=float, help="initial dimensionless field")
    p_cls.add_argument("--steps", type=int, help="number of map iterations")
    p_cls.add_argument(
        "--gtau-bar", dest="tau_bar_in_inv_g", type=float, help="mean g*tau per transit"
    )
    p_cls.add_argument("--spread-frac", type=float, help="spread as a fraction of tau_bar")
    p_cls.add_argument("--dist", choices=TIMING_LAWS)
    p_cls.add_argument("--seed", type=int)
    p_cls.add_argument("--stream", type=int)
    p_cls.add_argument("--out-dir", required=True)

    p_sweep = command("sweep", "ensemble scan over spread multipliers")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--spread-mults", help="comma-separated multiples of the critical spread")
    p_sweep.add_argument("--ensemble", type=int, help="runs per multiplier")
    p_sweep.add_argument("--out-dir", required=True)

    p_preset = command("preset", "print a scenario preset as a config")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    return parser


# Every other parsed argument is a flag whose dest is its config token.
_NOT_TOKENS = ("subcommand", "config", "preset", "out_dir")

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
    layers.append(
        {k: str(v) for k, v in vars(args).items() if v is not None and k not in _NOT_TOKENS}
    )
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
    """The command's result: a RunResult, (taus, epsilons) or the sweep's cells."""
    if parsed.command == "run":
        return run_sequence(parsed.run)
    if parsed.command == "classical":
        return classical_trajectory(parsed.classical)
    multipliers = [float(m) for m in parsed.tokens["spread_mults"].split(",")]
    return sweep(parsed.run, multipliers, int(parsed.tokens["ensemble"]))


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
    start = time.perf_counter()
    try:
        result = _simulate(parsed)
    except BaseException:
        # A run that ends before its outputs leaves no directory behind.
        for path in made:
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    write_outputs(parsed, result, args.out_dir, time.perf_counter() - start)
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
