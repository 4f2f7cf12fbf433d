"""Command-line front end: presets, config parsing, outputs, manifests.

Configs are flat `key = value` text (times in units of 1/g, marked in the
key names); command-line flags override file values.  Every run writes a
manifest holding the fully resolved config, the master seed and sha256
digests of each output file, which is enough to bit-reproduce them.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass

from . import __version__
from .classical import classical_trajectory, write_classical_csv
from .dynamics import CouplingParams, critical_spread, trapping_time
from .errors import ConfigError, SimulationError
from .experiment import (
    RunConfig,
    build_run_config,
    run_sequence,
    sweep,
    write_sweep_csv,
    write_trajectory_csv,
)
from .fock import write_distribution_csv
from .stochastic import SeedSpec, TimingModel


@dataclass
class ClassicalConfig:
    epsilon0: float
    n_steps: int
    timing: TimingModel
    coupling: CouplingParams
    seed: SeedSpec


@dataclass
class SweepSpec:
    base: RunConfig
    multipliers: list[float]
    ensemble: int


@dataclass
class ParsedConfig:
    command: str
    tokens: dict[str, str]
    run: RunConfig | None = None
    classical: ClassicalConfig | None = None
    sweep_spec: SweepSpec | None = None


@dataclass
class Manifest:
    command: str
    master_seed: int
    artifact_version: str
    duration_seconds: float
    config_tokens: dict[str, str]
    outputs: dict[str, str]
    terminated_early: str | None = None

    def to_text(self) -> str:
        lines = [
            f"artifact_version = {self.artifact_version}",
            f"command = {self.command}",
            f"master_seed = {self.master_seed}",
            f"duration_seconds = {format(self.duration_seconds, '.6g')}",
            f"terminated_early = {self.terminated_early or 'none'}",
            "",
            "[config]",
        ]
        lines += [f"{k} = {v}" for k, v in self.config_tokens.items()]
        lines += ["", "[outputs]"]
        lines += [f"{name} = sha256:{digest}" for name, digest in self.outputs.items()]
        return "\n".join(lines) + "\n"


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
    has_config_section = False
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if "[config]" in text:
        has_config_section = True
    for line in text.splitlines():
        line = line.strip()
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


def _require(tokens: dict[str, str], key: str, flag: str) -> str:
    if key not in tokens or tokens[key] == "":
        raise ConfigError(f"{key}: required field missing (set {flag})")
    return tokens[key]


def _get_int(tokens, key, default=None):
    raw = tokens.get(key)
    if raw is None or raw == "":
        if default is None:
            raise ConfigError(f"{key}: required field missing")
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _get_float(tokens, key, default=None):
    raw = tokens.get(key)
    if raw is None or raw == "":
        if default is None:
            raise ConfigError(f"{key}: required field missing")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _get_bool(tokens, key, default):
    raw = tokens.get(key)
    if raw is None or raw == "":
        return default
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


def _canonical_run_tokens(raw: dict[str, str], command: str) -> dict[str, str]:
    """Resolve defaults into the canonical, round-trippable token set."""
    scheme = _require(raw, "scheme", "--scheme")
    if scheme not in ("nsm", "elastic", "inelastic", "superposition"):
        raise ConfigError(f"scheme: unknown scheme {scheme!r}")
    _require(raw, "trap", "--trap")
    trap = _get_int(raw, "trap")
    q = _get_int(raw, "q", 1)
    g = _get_float(raw, "g", 1.0)
    coupling = CouplingParams(g)
    tau_bar = _get_float(raw, "tau_bar_in_inv_g", trapping_time(trap, q, coupling))
    if "spread_in_inv_g" in raw:
        spread = _get_float(raw, "spread_in_inv_g")
    elif "spread_frac" in raw:
        spread = _get_float(raw, "spread_frac") * tau_bar
    else:
        spread = _get_float(raw, "spread_mult", 0.0) * critical_spread(trap, coupling)

    alpha_token = raw.get("alpha", "").strip()
    fock_token = raw.get("fock", "").strip()
    if bool(alpha_token) == bool(fock_token):
        raise ConfigError("alpha/fock: set exactly one initial field (--alpha or --fock)")
    if alpha_token:
        parse_alpha_token(alpha_token)  # validate early

    from .fock import default_n_max

    tokens = {
        "command": command,
        "scheme": scheme,
        "trap": str(trap),
        "q": str(q),
        "atoms": str(_get_int(raw, "atoms")),
        "alpha": alpha_token,
        "fock": fock_token,
        "dist": raw.get("dist", "uniform"),
        "mode": raw.get("mode", "postselect"),
        "tau_bar_in_inv_g": _fmt(tau_bar),
        "spread_in_inv_g": _fmt(spread),
        "g": _fmt(g),
        "omega_in_g": _fmt(_get_float(raw, "omega_in_g", 1.0)),
        "phi_f_rad": _fmt(_get_float(raw, "phi_f_rad", -math.pi / 2)),
        "nmax": str(_get_int(raw, "nmax", default_n_max(trap))),
        "seed": str(_get_int(raw, "seed", 0)),
        "stream": str(_get_int(raw, "stream", 0)),
        "halt_on_failure": "true" if _get_bool(raw, "halt_on_failure", True) else "false",
    }
    if command == "sweep":
        mults = _require(raw, "spread_mults", "--spread-mults")
        try:
            parsed = [float(tok) for tok in mults.split(",") if tok.strip() != ""]
        except ValueError:
            raise ConfigError(f"spread_mults: expected comma-separated numbers, got {mults!r}")
        if not parsed:
            raise ConfigError("spread_mults: at least one multiplier required")
        tokens["spread_mults"] = ",".join(_fmt(m) for m in parsed)
        tokens["ensemble"] = str(_get_int(raw, "ensemble", 1))
    return tokens


def _build_run_from_tokens(tokens: dict[str, str]) -> RunConfig:
    alpha_token = tokens.get("alpha", "")
    return build_run_config(
        scheme=tokens["scheme"],
        trap_target=int(tokens["trap"]),
        n_atoms=int(tokens["atoms"]),
        q=int(tokens["q"]),
        alpha=parse_alpha_token(alpha_token) if alpha_token else None,
        fock_n=int(tokens["fock"]) if tokens.get("fock") else None,
        spread_time=float(tokens["spread_in_inv_g"]),
        tau_bar=float(tokens["tau_bar_in_inv_g"]),
        law=tokens["dist"],
        mode=tokens["mode"],
        omega=float(tokens["omega_in_g"]),
        phi_f=float(tokens["phi_f_rad"]),
        g=float(tokens["g"]),
        master_seed=int(tokens["seed"]),
        stream_id=int(tokens["stream"]),
        n_max=int(tokens["nmax"]),
        halt_on_failure=tokens["halt_on_failure"] == "true",
    )


def _canonical_classical_tokens(raw: dict[str, str]) -> dict[str, str]:
    g = _get_float(raw, "g", 1.0)
    _require(raw, "tau_bar_in_inv_g", "--gtau-bar")
    tau_bar = _get_float(raw, "tau_bar_in_inv_g")
    if "spread_in_inv_g" in raw:
        spread = _get_float(raw, "spread_in_inv_g")
    else:
        spread = _get_float(raw, "spread_frac", 0.0) * tau_bar
    return {
        "command": "classical",
        "epsilon0": _fmt(_get_float(raw, "epsilon0")),
        "steps": str(_get_int(raw, "steps")),
        "tau_bar_in_inv_g": _fmt(tau_bar),
        "spread_in_inv_g": _fmt(spread),
        "dist": raw.get("dist", "uniform"),
        "g": _fmt(g),
        "seed": str(_get_int(raw, "seed", 0)),
        "stream": str(_get_int(raw, "stream", 0)),
    }


def _build_classical_from_tokens(tokens: dict[str, str]) -> ClassicalConfig:
    timing = TimingModel(
        tau_bar=float(tokens["tau_bar_in_inv_g"]),
        spread=float(tokens["spread_in_inv_g"]),
        law=tokens["dist"],
    )
    epsilon0 = float(tokens["epsilon0"])
    if not epsilon0 > 0:
        raise ConfigError(f"epsilon0: must be > 0, got {epsilon0}")
    return ClassicalConfig(
        epsilon0=epsilon0,
        n_steps=int(tokens["steps"]),
        timing=timing,
        coupling=CouplingParams(float(tokens["g"])),
        seed=SeedSpec(int(tokens["seed"]), int(tokens["stream"])),
    )


def parse_config(path=None, overrides: dict[str, str] | None = None, command: str | None = None) -> ParsedConfig:
    """Resolve a config file plus overriding tokens into a validated config.

    The resulting token set is canonical: feeding it back through this
    function reproduces an identical configuration.
    """
    tokens: dict[str, str] = {}
    if path is not None:
        tokens.update(parse_kv_file(path))
    if overrides:
        tokens.update({k: v for k, v in overrides.items() if v is not None and v != ""})
    cmd = command or tokens.get("command")
    if cmd is None:
        raise ConfigError("command: required field missing (run, classical or sweep)")
    if "command" in tokens and command is not None and tokens["command"] != command:
        raise ConfigError(
            f"command: config is for {tokens['command']!r} but the {command!r} subcommand was invoked"
        )
    if cmd == "classical":
        canonical = _canonical_classical_tokens(tokens)
        return ParsedConfig(cmd, canonical, classical=_build_classical_from_tokens(canonical))
    if cmd == "run":
        canonical = _canonical_run_tokens(tokens, "run")
        return ParsedConfig(cmd, canonical, run=_build_run_from_tokens(canonical))
    if cmd == "sweep":
        canonical = _canonical_run_tokens(tokens, "sweep")
        base = _build_run_from_tokens(canonical)
        spec = SweepSpec(
            base=base,
            multipliers=[float(tok) for tok in canonical["spread_mults"].split(",")],
            ensemble=int(canonical["ensemble"]),
        )
        return ParsedConfig(cmd, canonical, run=base, sweep_spec=spec)
    raise ConfigError(f"command: unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# Presets: the regression scenarios.

_PRESET_BUILDERS = {}


def _preset(name):
    def deco(fn):
        _PRESET_BUILDERS[name] = fn
        return fn

    return deco


@_preset("fig1a")
def _fig1a():
    return {
        "command": "run", "scheme": "nsm", "trap": "138", "alpha": "3",
        "atoms": "5000", "seed": "11",
    }


@_preset("fig1b")
def _fig1b():
    # Fluctuating times let population escape the n_t = 138 trap and climb
    # until the next trapping level (n = 555, where theta = 2 pi at the mean
    # time); the basis must cover that stall point.
    return {
        "command": "run", "scheme": "nsm", "trap": "138", "alpha": "3",
        "atoms": "5000", "spread_frac": "0.01", "seed": "11", "nmax": "650",
    }


@_preset("fig1c")
def _fig1c():
    return {
        "command": "classical", "epsilon0": "6", "steps": "10000",
        "tau_bar_in_inv_g": _fmt(2 * math.pi / math.sqrt(199.0)), "seed": "11",
    }


@_preset("fig1d")
def _fig1d():
    tokens = _fig1c()
    tokens.update({"steps": "1000000", "spread_frac": "0.01"})
    return tokens


@_preset("fig2a")
def _fig2a():
    return {
        "command": "run", "scheme": "elastic", "trap": "20", "alpha": "3",
        "atoms": "2000", "spread_mult": "0.1", "seed": "22",
    }


@_preset("fig2b")
def _fig2b():
    tokens = _fig2a()
    tokens["spread_mult"] = "1"
    return tokens


@_preset("fig3ab")
def _fig3ab():
    return {
        "command": "run", "scheme": "superposition", "trap": "21", "alpha": "sqrt21",
        "atoms": "2000", "spread_mult": "0.1", "seed": "7",
    }


@_preset("fig3cd")
def _fig3cd():
    tokens = _fig3ab()
    tokens["spread_mult"] = "2"
    return tokens


@_preset("fig4")
def _fig4():
    # Same sequence as fig3cd; the deliverable is the final distribution.
    return _fig3cd()


PRESET_NAMES = tuple(sorted(_PRESET_BUILDERS))


def preset(name: str) -> ParsedConfig:
    """Resolved configuration for one of the named scenarios."""
    if name not in _PRESET_BUILDERS:
        raise ConfigError(
            f"preset: unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        )
    tokens = _PRESET_BUILDERS[name]()
    return parse_config(overrides=tokens)


# ---------------------------------------------------------------------------
# Output writing.


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_outputs(parsed: ParsedConfig, result, out_dir, duration_seconds: float) -> Manifest:
    """Write the command's CSV outputs plus a manifest with their digests."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs: dict[str, str] = {}
    terminated = None

    if parsed.command == "run":
        write_trajectory_csv(out / "trajectory.csv", result)
        write_distribution_csv(out / "distribution.csv", result.final_distribution)
        outputs["trajectory.csv"] = _sha256(out / "trajectory.csv")
        outputs["distribution.csv"] = _sha256(out / "distribution.csv")
        terminated = result.terminated_early
    elif parsed.command == "classical":
        taus, epsilons = result
        write_classical_csv(out / "classical.csv", taus, epsilons)
        outputs["classical.csv"] = _sha256(out / "classical.csv")
    elif parsed.command == "sweep":
        write_sweep_csv(out / "sweep.csv", result)
        outputs["sweep.csv"] = _sha256(out / "sweep.csv")

    manifest = Manifest(
        command=parsed.command,
        master_seed=int(parsed.tokens["seed"]),
        artifact_version=__version__,
        duration_seconds=duration_seconds,
        config_tokens=parsed.tokens,
        outputs=outputs,
        terminated_early=terminated,
    )
    (out / "manifest.txt").write_text(manifest.to_text(), encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="config file (flat key = value, or a manifest)")
    p.add_argument("--preset", help="start from a named scenario preset")
    p.add_argument("--scheme", choices=["nsm", "elastic", "inelastic", "superposition"])
    p.add_argument("--trap", type=int, help="target trap level n_t")
    p.add_argument("--q", type=int, help="trapping order (theta_nt = q pi)")
    p.add_argument("--alpha", help="coherent initial amplitude (number or sqrtN)")
    p.add_argument("--fock", type=int, help="Fock initial level")
    p.add_argument("--atoms", type=int, help="number of atoms N")
    p.add_argument("--spread-mult", type=float, help="spread as a multiple of the critical spread")
    p.add_argument("--spread-frac", type=float, help="spread as a fraction of tau_bar")
    p.add_argument("--dist", choices=["uniform", "gaussian"], help="timing law")
    p.add_argument("--mode", choices=["postselect", "sample"], help="outcome handling")
    p.add_argument("--omega", type=float, help="Ramsey Rabi frequency in units of g")
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--stream", type=int, help="stream id (trajectory index)")
    p.add_argument("--nmax", type=int, help="Fock truncation bound")
    p.add_argument("--g", type=float, help="coupling strength scale")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jctrap",
        description="Trapping-state dynamics of repeatedly measured atom-cavity interactions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run one atom sequence")
    _add_run_flags(p_run)
    p_run.add_argument("--out-dir", required=True)

    p_cls = sub.add_parser("classical", help="iterate the classical return map")
    p_cls.add_argument("--config", help="config file")
    p_cls.add_argument("--preset", help="scenario preset (fig1c, fig1d)")
    p_cls.add_argument("--epsilon0", type=float, help="initial dimensionless field")
    p_cls.add_argument("--steps", type=int, help="number of map iterations")
    p_cls.add_argument("--gtau-bar", type=float, help="mean g*tau per transit")
    p_cls.add_argument("--spread-frac", type=float, help="spread as a fraction of tau_bar")
    p_cls.add_argument("--dist", choices=["uniform", "gaussian"])
    p_cls.add_argument("--seed", type=int)
    p_cls.add_argument("--stream", type=int)
    p_cls.add_argument("--out-dir", required=True)

    p_sweep = sub.add_parser("sweep", help="ensemble scan over spread multipliers")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--spread-mults", help="comma-separated multiples of the critical spread")
    p_sweep.add_argument("--ensemble", type=int, help="runs per multiplier")
    p_sweep.add_argument("--out-dir", required=True)

    p_preset = sub.add_parser("preset", help="print a scenario preset as a config")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list preset names")
    return parser


def _flag_tokens(args: argparse.Namespace, mapping: dict[str, str]) -> dict[str, str]:
    tokens = {}
    for attr, key in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            tokens[key] = str(value)
    return tokens


_RUN_FLAG_MAP = {
    "scheme": "scheme",
    "trap": "trap",
    "q": "q",
    "alpha": "alpha",
    "fock": "fock",
    "atoms": "atoms",
    "spread_mult": "spread_mult",
    "spread_frac": "spread_frac",
    "dist": "dist",
    "mode": "mode",
    "omega": "omega_in_g",
    "seed": "seed",
    "stream": "stream",
    "nmax": "nmax",
    "g": "g",
}

_CLASSICAL_FLAG_MAP = {
    "epsilon0": "epsilon0",
    "steps": "steps",
    "gtau_bar": "tau_bar_in_inv_g",
    "spread_frac": "spread_frac",
    "dist": "dist",
    "seed": "seed",
    "stream": "stream",
}


def _resolve(args: argparse.Namespace, command: str, flag_map: dict[str, str]) -> ParsedConfig:
    tokens: dict[str, str] = {}
    if getattr(args, "preset", None):
        if args.preset not in _PRESET_BUILDERS:
            raise ConfigError(
                f"preset: unknown preset {args.preset!r}; valid names: {', '.join(PRESET_NAMES)}"
            )
        preset_tokens = _PRESET_BUILDERS[args.preset]()
        preset_command = preset_tokens.pop("command")
        # A sweep builds on a run scenario; otherwise commands must agree.
        if command != preset_command and not (command == "sweep" and preset_command == "run"):
            raise ConfigError(
                f"preset: {args.preset} is a {preset_command} scenario, "
                f"not usable with the {command} subcommand"
            )
        tokens.update(preset_tokens)
    if getattr(args, "config", None):
        file_tokens = parse_kv_file(args.config)
        if command == "sweep" and file_tokens.get("command") == "run":
            file_tokens.pop("command")
        tokens.update(file_tokens)
    tokens.update(_flag_tokens(args, flag_map))
    if command == "sweep":
        if args.spread_mults is not None:
            tokens["spread_mults"] = args.spread_mults
        if args.ensemble is not None:
            tokens["ensemble"] = str(args.ensemble)
    return parse_config(overrides=tokens, command=command)


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

    if args.subcommand == "run":
        parsed = _resolve(args, "run", _RUN_FLAG_MAP)
        start = time.perf_counter()
        result = run_sequence(parsed.run)
        write_outputs(parsed, result, args.out_dir, time.perf_counter() - start)
        if result.terminated_early:
            print(f"run terminated early: {result.terminated_early}", file=sys.stderr)
            return 2
        return 0

    if args.subcommand == "classical":
        parsed = _resolve(args, "classical", _CLASSICAL_FLAG_MAP)
        cfg = parsed.classical
        start = time.perf_counter()
        traj = classical_trajectory(cfg.epsilon0, cfg.n_steps, cfg.timing, cfg.coupling, cfg.seed)
        write_outputs(parsed, traj, args.out_dir, time.perf_counter() - start)
        return 0

    if args.subcommand == "sweep":
        parsed = _resolve(args, "sweep", _RUN_FLAG_MAP)
        spec = parsed.sweep_spec
        start = time.perf_counter()
        result = sweep(spec.base, spec.multipliers, spec.ensemble)
        write_outputs(parsed, result, args.out_dir, time.perf_counter() - start)
        if any(cell.error for cell in result.cells):
            print("some sweep cells failed; see sweep.csv and manifest", file=sys.stderr)
        return 0

    raise ConfigError(f"unknown subcommand {args.subcommand!r}")


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
