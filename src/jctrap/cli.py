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
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    items = [tok.strip() for tok in text.split(",")]
    if not all(items):
        why = f"empty multiplier in {text!r}" if any(items) else "at least one multiplier required"
        raise ConfigError(f"spread_mults: {why}")
    return [float(tok) for tok in items]


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
# Output writing, the only code that opens or hashes a file.  Each block of
# BLOCK_ROWS rows (2048 classical rows are 130 kB) is one uint8 matrix, a field
# per column and a separator after each, and a keep mask; its kept bytes are
# the rows, which go to the file and into its sha256 at once.  Numbers are
# written as `b"%.17g" % x` (so integers below 2^53 as `%d`): the 17 digits
# N = round(|x| 10^(16-E)) are exact from Dekker's error-free product, and
# masks place the point and drop trailing zeros.  What %.17g writes with an
# exponent (E < -4 or E > 16), +-0, inf and nan is formatted one by one.
BLOCK_ROWS = 2048
_WIDTH = 24  # bytes per number: "-1.2345678901234567e-308" is the longest %.17g


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo, each half with at most 26 significant bits."""
    hi = a * 134217729.0 - (a * 134217729.0 - a)  # 2^27 + 1
    return hi, a - hi


@functools.cache
def _format_tables():
    """Lookup tables for _real_chars, built at the first write, not at import."""
    # Each 4-digit group's ASCII as a uint32 and its trailing zeros.
    group, scale = np.arange(10**4, dtype=np.uint16)[:, None], np.uint16([10**4, 1000, 100, 10])
    digits = (group % scale // (scale // np.uint16(10))).astype(np.uint8)
    groups = (digits + np.uint8(ord("0"))).view(np.uint32).ravel()
    zeros = (group % scale == 0).sum(axis=1, dtype=np.uint8)
    powers = np.array([float(10**p) for p in range(22)])  # exact doubles
    # Per units-digit column c = E + 4 (E = -5..17), field byte j is the sign,
    # then `0000` and N's digits, moved a byte right after column c for the point.
    j, c = np.arange(_WIDTH), np.arange(-1, 22)[:, None]
    place = np.stack([np.where((j == 0) | (j <= c + 1), 0xFF, 0), np.where(j > c + 2, 0xFF, 0),
                      np.where(j == c + 2, ord("."), 0)]).astype(np.uint8).view(np.uint64)
    # Kept per last nonzero digit column t: from min(c, 4) to c, or t if t > c.
    t, c = np.arange(21)[:, None], c[:, :, None]
    keep = (j > np.minimum(c, 4)) & (j <= np.where(t <= c, c + 1, t + 2))
    return groups, zeros, powers, _split(powers), place, keep.view(np.uint64).reshape(-1, 3)


def _real_chars(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each float64 of x as `b"%.17g" % x`: a (len(x), _WIDTH) uint8 matrix and its keep mask."""
    groups, zeros, powers, (power_hi, power_lo), place, keeps = _format_tables()
    fixed = (np.abs(x) >= 1e-5) & (np.abs(x) < 1e17)  # the rest, and E = -5 or 17, are slow
    mag = np.where(fixed, np.abs(x), 1.0)
    mag_hi, mag_lo = _split(mag)
    e = np.clip(np.floor(np.log10(mag)), -5, 16).astype(np.intp)  # may be off by one
    step = np.ones(1, np.intp)
    while step.any():  # hi + lo = mag 10^(16-E) exactly; until 10^16 <= hi + lo < 10^17
        p = 16 - e
        hi = mag * powers[p]
        lo = ((mag_hi * power_hi[p] - hi) + mag_hi * power_lo[p] + mag_lo * power_hi[p]
              + mag_lo * power_lo[p])
        step = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.intp)
        step -= (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        e += step
    # hi is an even integer, so rounding lo half to even rounds hi + lo so.
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17  # rounded up to 10^17: N = 10^16 at E + 1
    n[carry], e = 10**16, e + carry
    top, lead = n // 10**8, n // 10**16
    halves = np.stack([top - lead * 10**8, n - top * 10**8], axis=1)  # digits 1-8, 9-16
    high = halves // 10**4
    quarters = np.stack([high, halves - high * 10**4], axis=2)
    digits = groups.take(quarters).reshape(len(x), 4).view(np.uint64)
    field = np.empty((len(x), 3), np.uint64)  # bytes `-0000`, then N's digits
    field[:, 0] = (np.uint64(0x303030302D) | ((lead + ord("0")).astype(np.uint64) << np.uint64(40))
                   | (digits[:, 0] << np.uint64(48)))
    field[:, 1] = (digits[:, 0] >> np.uint64(16)) | (digits[:, 1] << np.uint64(48))
    field[:, 2] = digits[:, 1] >> np.uint64(16)
    z = np.where(quarters[..., 1] != 0, zeros[quarters[..., 1]], 4 + zeros[quarters[..., 0]])
    trailing = np.where(halves[:, 1] != 0, z[:, 1], 8 + z[:, 0])
    c = e + 5  # the table row of units-digit column e + 4
    moved = field << np.uint64(8)  # every byte one to the right
    moved.ravel()[1:] |= field.ravel()[:-1] >> np.uint64(56)
    field &= place[0].take(c, axis=0)
    field |= moved & place[1].take(c, axis=0)
    field |= place[2].take(c, axis=0)
    keep = keeps.take(c * 21 + 20 - trailing, axis=0).view(bool)  # t = 20 - trailing
    keep[:, 0] = np.signbit(x)
    chars, slow = field.view(np.uint8), ~fixed | (e < -4) | (e > 16)
    if slow.any():
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype=f"S{_WIDTH}")
        chars[slow] = text.view(np.uint8).reshape(-1, _WIDTH)
        keep[slow] = chars[slow] != 0
    return chars, keep


def _csv_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The CSV rows of equal-length columns, each ending in a newline, as uint8 bytes."""
    chars, keep = [], []
    for column in columns:
        if column.dtype.kind == "S":  # written as it is
            field = column.view(np.uint8).reshape(len(column), -1)
            field = field, field != 0
        else:
            field = _real_chars(column.astype(np.float64, copy=False))
        chars += [field[0], np.full((len(column), 1), ord(","), np.uint8)]
        keep += [field[1], np.ones((len(column), 1), bool)]
    chars[-1][:] = ord("\n")
    # Each list is dropped as its matrix is made, which bounds a block's memory.
    chars = np.concatenate(chars, axis=1)
    keep = np.concatenate(keep, axis=1)
    return chars[keep]


def write_csv(path, header: bytes, columns: Iterable[list[np.ndarray]]) -> str:
    """Write `header`, then each block of equal-length columns as rows; return the sha256."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for rows in itertools.chain([header], (
                _csv_rows([column[lo : lo + BLOCK_ROWS] for column in block])
                for block in columns for lo in range(0, len(block[0]), BLOCK_ROWS))):
            fh.write(rows)
            digest.update(rows)
    return digest.hexdigest()


def _fields(records: list, dtypes: tuple) -> list[np.ndarray]:
    """Field i of every record as one array of dtypes[i], for the first len(dtypes) fields."""
    return [np.array([record[i] for record in records], dtype) for i, dtype in enumerate(dtypes)]


def write_trajectory_csv(path, result: RunResult) -> str:
    """Per-step CSV `k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome`; returns its sha256."""
    return write_csv(path, b"k,tau_k,T_k,P_k,cum_P,mean_n,delta_n,outcome\n",
                     [_fields(result.steps, (int, *(float,) * 6, "S"))])


def write_sweep_csv(path, cells: list[SweepCell]) -> str:
    """Per-cell CSV `multiplier,cell,final_P_nt,cum_P,converged`; returns its sha256."""
    rows = [(c.multiplier, c.cell, c.final_p_trap, c.cum_P, c.converged) for c in cells]
    return write_csv(path, b"multiplier,cell,final_P_nt,cum_P,converged\n",
                     [_fields(rows, (float, int, float, float, int))])


def write_distribution_csv(path, distribution: np.ndarray) -> str:
    """Write a photon-number distribution as two-column CSV `n,P(n)`; returns its sha256."""
    p = np.asarray(distribution, dtype=float)
    return write_csv(path, b"n,P(n)\n", [[np.arange(len(p)), p]])


def write_classical_csv(path, epsilon0: float,
                        blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> str:
    """Trajectory CSV `k,tau_k,epsilon,eps_sq_over_4`; row 0 holds the start epsilon0.

    Each `(taus, epsilons)` block, as `classical_trajectory` yields them, is
    written and hashed as it arrives.  Returns the sha256 hex digest of the
    bytes written.
    """

    def columns():
        k = 0
        for taus, epsilons in itertools.chain([(np.zeros(1), np.array([epsilon0]))], blocks):
            # libm `pow`, as Python's `e ** 2` calls it, not `e * e` as numpy
            # squares: the two differ in the last bit on 843 of fig1d's 10^6 rows.
            squares = np.float_power(epsilons, 2.0) / 4.0
            yield [np.arange(k, k + len(taus), dtype=float), taus, epsilons, squares]
            k += len(taus)

    return write_csv(path, b"k,tau_k,epsilon,eps_sq_over_4\n", columns())


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
