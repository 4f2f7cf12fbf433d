"""Config parsing, presets, output writing and manifests."""
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jctrap
from jctrap import cli
from jctrap.classical import build_classical_config
from jctrap.cli import (
    PRESET_NAMES,
    main,
    parse_alpha_token,
    parse_config,
    parse_kv_file,
    preset,
)
from jctrap.dynamics import critical_spread, trapping_time
from jctrap.errors import ConfigError
from jctrap.experiment import run_sequence
from jctrap.fock import coherent_state


class TestAlphaTokens:
    def test_plain_number(self):
        assert parse_alpha_token("3") == 3.0

    def test_sqrt_expression(self):
        assert parse_alpha_token("sqrt21") == math.sqrt(21.0)

    def test_bad_tokens(self):
        with pytest.raises(ConfigError):
            parse_alpha_token("sqrt-x")
        with pytest.raises(ConfigError):
            parse_alpha_token("threeish")


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == (
            "fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b", "fig3ab", "fig3cd", "fig4",
        )

    def test_fig2a_values(self):
        parsed = preset("fig2a")
        cfg = parsed.run
        assert cfg.scheme == "elastic"
        assert cfg.trap_target == 20
        assert cfg.alpha == 3.0
        assert cfg.timing.tau_bar == trapping_time(20, 1)
        assert cfg.timing.spread == pytest.approx(critical_spread(20) / 10.0)
        assert cfg.n_atoms == 2000

    def test_fig1c_values(self):
        parsed = preset("fig1c")
        cfg = parsed.classical
        assert cfg.epsilon0 == 6.0
        assert cfg.timing.tau_bar == pytest.approx(2.0 * math.pi / math.sqrt(199.0))
        assert cfg.timing.spread == 0.0
        assert cfg.n_steps == 10_000

    def test_fig1b_one_percent_spread(self):
        cfg = preset("fig1b").run
        assert cfg.scheme == "nsm"
        assert cfg.trap_target == 138
        assert cfg.timing.spread == pytest.approx(0.01 * cfg.timing.tau_bar)

    def test_fig4_values(self):
        cfg = preset("fig4").run
        assert cfg.scheme == "superposition"
        assert cfg.trap_target == 21
        assert cfg.alpha == math.sqrt(21.0)
        assert cfg.timing.spread == pytest.approx(2.0 * critical_spread(21))
        assert cfg.n_atoms == 2000
        assert cfg.mode == "postselect"

    def test_unknown_preset_lists_names(self):
        with pytest.raises(ConfigError, match="fig1a.*fig4"):
            preset("fig9")

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("fig1a", "f08fcf58170296f0c0a67d66c2f9292e39064f1cbdbe0f61b879c618df1a3feb"),
            ("fig1b", "882bce398859f0baae625479465eafe83319c5a585a3ef4dbf9e398d7a67114f"),
            ("fig1c", "e91aa70b854a62996053a85252338780fe17f6818e534ed6e0c5bb48a11e458e"),
            ("fig1d", "101f2d9dc557787f0870979a8d79fdec7136722d49bd4010d50b42e899c24bca"),
            ("fig2a", "58df4bc12d973c5791b7c3feb9046c2567bf4ba11afee3cc47730977f22f66c4"),
            ("fig2b", "7aab1aa6d66ade0b727e45a867a3f078e659a11139ba992647573aeb19e1aaba"),
            ("fig3ab", "65d74a00fae712b553ead233ec1587e2763335a216fe6b7cd25a52ae795f1de7"),
            ("fig3cd", "de402166a4e753b16b9901594affa6db6ed4392697e5db7f44c232c7202502b0"),
            ("fig4", "de402166a4e753b16b9901594affa6db6ed4392697e5db7f44c232c7202502b0"),
        ],
    )
    def test_printed_tokens_pinned(self, capsys, name, digest):
        # sha256 of `jctrap preset <name>` as first recorded: every resolved
        # token, its text and its order.  The record also held the retired
        # `g = 1`, after spread_in_inv_g (run) or dist (classical), and a
        # run's `omega_in_g = 1` after that.
        assert main(["preset", name]) == 0
        out = capsys.readouterr().out
        assert "\ng = " not in out and "omega_in_g" not in out
        lines = out.splitlines(keepends=True)
        anchor, retired = ("dist = ", ["g = 1\n"]) if "command = classical" in out else (
            "spread_in_inv_g = ", ["g = 1\n", "omega_in_g = 1\n"])
        at = next(i for i, line in enumerate(lines) if line.startswith(anchor)) + 1
        recorded = "".join([*lines[:at], *retired, *lines[at:]])
        assert hashlib.sha256(recorded.encode()).hexdigest() == digest


class TestParseConfig:
    def test_flag_scenario_matches_fig4_preset(self):
        parsed = parse_config(
            overrides={
                "command": "run",
                "scheme": "superposition",
                "trap": "21",
                "alpha": "sqrt21",
                "spread_mult": "2",
                "atoms": "2000",
                "seed": "7",
            }
        )
        assert parsed.tokens == preset("fig4").tokens
        assert parsed.run == preset("fig4").run

    def test_missing_trap_named(self):
        with pytest.raises(ConfigError, match="trap"):
            parse_config(
                overrides={"command": "run", "scheme": "elastic", "atoms": "10", "alpha": "3"}
            )

    def test_missing_command_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"scheme": "elastic", "trap": "20", "atoms": "1"})
        assert str(exc.value) == "command: required field missing (run, classical or sweep)"

    def test_unknown_command_named(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(overrides={"command": "foo"})
        assert str(exc.value) == "command: unknown command 'foo'"

    def test_missing_alpha_and_fock_named(self):
        with pytest.raises(ConfigError, match="alpha/fock"):
            parse_config(
                overrides={"command": "run", "scheme": "elastic", "trap": "20", "atoms": "10"}
            )

    def test_roundtrip_through_file(self, tmp_path):
        parsed = preset("fig2a")
        path = tmp_path / "fig2a.cfg"
        path.write_text(
            "".join(f"{k} = {v}\n" for k, v in parsed.tokens.items()), encoding="utf-8"
        )
        again = parse_config(parse_kv_file(path))
        assert again.tokens == parsed.tokens
        assert again.run == parsed.run

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "base.cfg"
        path.write_text("command = run\nscheme = elastic\ntrap = 20\natoms = 50\nalpha = 3\n")
        argv = ["run", "--config", str(path), "--atoms", "7", "--seed", "5"]
        parsed = parse_config(manifest_tokens(tmp_path, argv))
        assert parsed.run.n_atoms == 7
        assert parsed.run.master_seed == 5

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("command = classical\nepsilon0 = 6\nsteps = 10\ntau_bar_in_inv_g = 0.5\n")
        with pytest.raises(ConfigError, match="command"):
            parse_config(parse_kv_file(path), command="run")

    def test_comment_naming_config_section_keeps_flat_file(self, tmp_path):
        # Only a line that reads [config] makes the file a manifest.
        path = tmp_path / "flat.cfg"
        path.write_text(
            "# copied from a manifest [config] section\n"
            "command = run\nscheme = elastic\ntrap = 20\natoms = 5\nalpha = 3\n"
        )
        assert parse_kv_file(path) == {
            "command": "run", "scheme": "elastic", "trap": "20", "atoms": "5", "alpha": "3"
        }
        assert parse_config(parse_kv_file(path)).run.n_atoms == 5

    def test_kv_parse_errors(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_kv_file(path)


class TestCliEndToEnd:
    def run_small(self, tmp_path, extra=(), out="out"):
        out_dir = tmp_path / out
        code = main(
            [
                "run",
                "--scheme", "elastic",
                "--trap", "20",
                "--alpha", "3",
                "--atoms", "40",
                "--seed", "5",
                "--out-dir", str(out_dir),
                *extra,
            ]
        )
        return code, out_dir

    def test_run_writes_outputs_and_manifest(self, tmp_path):
        code, out_dir = self.run_small(tmp_path)
        assert code == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "distribution.csv").exists()
        manifest = (out_dir / "manifest.txt").read_text()
        assert "[config]" in manifest and "[outputs]" in manifest
        assert "terminated_early = none" in manifest
        lines = (out_dir / "trajectory.csv").read_text().strip().splitlines()
        assert len(lines) == 41

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        _, out_a = self.run_small(tmp_path, out="a")
        _, out_b = self.run_small(tmp_path, out="b")
        for name in ("trajectory.csv", "distribution.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        digests_a = [l for l in (out_a / "manifest.txt").read_text().splitlines() if "sha256" in l]
        digests_b = [l for l in (out_b / "manifest.txt").read_text().splitlines() if "sha256" in l]
        assert digests_a == digests_b

    def test_manifest_reproduces_config(self, tmp_path):
        _, out_dir = self.run_small(tmp_path)
        parsed = parse_config(parse_kv_file(out_dir / "manifest.txt"), command="run")
        assert parsed.run.n_atoms == 40
        assert parsed.run.master_seed == 5
        rerun_dir = tmp_path / "rerun"
        code = main(
            ["run", "--config", str(out_dir / "manifest.txt"), "--out-dir", str(rerun_dir)]
        )
        assert code == 0
        assert (rerun_dir / "trajectory.csv").read_bytes() == (
            out_dir / "trajectory.csv"
        ).read_bytes()

    def test_zero_atom_run_emits_initial_distribution(self, tmp_path):
        code, out_dir = self.run_small(tmp_path, extra=["--atoms", "0"])
        assert code == 0
        lines = (out_dir / "distribution.csv").read_text().strip().splitlines()[1:]
        values = np.array([float(line.split(",")[1]) for line in lines])
        state, _ = coherent_state(3.0, len(values) - 1)
        assert np.array_equal(values, state.probabilities())

    def test_early_termination_exit_code(self, tmp_path):
        out_dir = tmp_path / "stuck"
        code = main(
            [
                "run",
                "--scheme", "inelastic",
                "--trap", "20",
                "--fock", "20",
                "--atoms", "5",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 2
        manifest = (out_dir / "manifest.txt").read_text()
        assert "terminated_early = impossible post-selection" in manifest

    def test_config_error_exit_code(self, tmp_path):
        code = main(
            ["run", "--scheme", "elastic", "--atoms", "5", "--alpha", "3",
             "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1

    def test_classical_subcommand(self, tmp_path):
        out_dir = tmp_path / "cl"
        code = main(
            [
                "classical",
                "--preset", "fig1c",
                "--steps", "50",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        lines = (out_dir / "classical.csv").read_text().strip().splitlines()
        assert len(lines) == 52
        assert float(lines[1].split(",")[3]) == 9.0

    def test_sweep_subcommand(self, tmp_path):
        out_dir = tmp_path / "sw"
        code = main(
            [
                "sweep",
                "--scheme", "elastic",
                "--trap", "20",
                "--alpha", "3",
                "--atoms", "30",
                "--spread-mults", "0,0.1",
                "--ensemble", "2",
                "--seed", "3",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        lines = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "multiplier,cell,final_P_nt,cum_P,converged"
        assert len(lines) == 5

    def test_sweep_from_run_manifest(self, tmp_path):
        # The run manifest's `command = run` is dropped and its spread ignored:
        # the sweep equals the one its preset and flags give.
        manifest_tokens(tmp_path, ["run", "--preset", "fig2a", "--atoms", "30"], "run")
        cells = ("--spread-mults", "0.5,1", "--ensemble", "2")
        run_manifest = str(tmp_path / "run" / "manifest.txt")
        from_run = manifest_tokens(tmp_path, ["sweep", "--config", run_manifest, *cells], "a")
        by_flags = manifest_tokens(
            tmp_path, ["sweep", "--preset", "fig2a", "--atoms", "30", *cells], "b"
        )
        assert from_run == by_flags
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (
            tmp_path / "b" / "sweep.csv"
        ).read_bytes()

    def test_sweep_with_a_failed_cell(self, tmp_path, capsys):
        # 100 critical spreads exceed 2 tau_bar, which a uniform law forbids:
        # that cell fails alone, with a nan row, and the sweep exits 0.
        out_dir = tmp_path / "sw"
        argv = ["sweep", "--preset", "fig2a", "--atoms", "5", "--spread-mults", "0.1,100"]
        assert main([*argv, "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == "some sweep cells failed; see [errors] in manifest.txt\n"
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3 and rows[1].startswith("0.10000000000000001,0,")
        assert rows[2] == "100,1,nan,nan,0"

    def test_failed_sweep_cells_named_in_the_manifest(self, tmp_path, capsys):
        # At n_max = 45 the three cells at 2.5 critical spreads leak; their
        # errors go to [errors], before [outputs], whose every key is a file.
        argv = ["sweep", "--preset", "fig2a", "--nmax", "45", "--spread-mults", "0.1,2.5",
                "--ensemble", "3"]
        assert main([*argv, "--out-dir", str(tmp_path / "sw")]) == 0
        assert capsys.readouterr().err == "some sweep cells failed; see [errors] in manifest.txt\n"
        text = (tmp_path / "sw" / "manifest.txt").read_text()
        errors = text.partition("\n[errors]\n")[2].partition("\n\n[outputs]\n")[0].splitlines()
        assert [line.partition(" = ")[0] for line in errors] == ["cell 3", "cell 4", "cell 5"]
        assert all(
            line.partition(" = ")[2].startswith("population would leave truncation: P(n_max) ")
            for line in errors
        )
        assert list(manifest_outputs(tmp_path / "sw")) == ["sweep.csv"]
        # The manifest still reruns to its own digests.
        config = ["sweep", "--config", str(tmp_path / "sw" / "manifest.txt")]
        assert main([*config, "--out-dir", str(tmp_path / "rerun")]) == 0
        assert capsys.readouterr().err.startswith("some sweep cells failed")
        assert manifest_outputs(tmp_path / "rerun") == manifest_outputs(tmp_path / "sw")
        assert (tmp_path / "rerun" / "manifest.txt").read_text().count("\n[errors]\n") == 1
        # A sweep whose cells all pass writes no [errors] section.
        passing = ["sweep", "--preset", "fig2a", "--atoms", "5", "--spread-mults", "0.1"]
        assert main([*passing, "--out-dir", str(tmp_path / "ok")]) == 0
        assert capsys.readouterr().err == ""
        assert "[errors]" not in (tmp_path / "ok" / "manifest.txt").read_text()
        assert "[failures]" not in (tmp_path / "ok" / "manifest.txt").read_text()

    def test_sweep_cell_that_ends_early_is_a_failed_cell(self, tmp_path, capsys):
        # From |19>, atom 1 emits into the n_t = 20 trap and atom 2 cannot
        # leave it in |g>: the run ends early, and its sweep cell fails.
        config = ["--scheme", "inelastic", "--trap", "20", "--fock", "19", "--atoms", "5"]
        assert main(["run", *config, "--out-dir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == "run terminated early: impossible post-selection\n"
        cells = ["--spread-mults", "0", "--ensemble", "1"]
        assert main(["sweep", *config, *cells, "--out-dir", str(tmp_path / "sw")]) == 0
        assert capsys.readouterr().err == "some sweep cells failed; see [errors] in manifest.txt\n"
        assert (tmp_path / "sw" / "sweep.csv").read_text().splitlines()[1:] == ["0,0,nan,nan,0"]
        text = (tmp_path / "sw" / "manifest.txt").read_text()
        assert "\n[errors]\ncell 0 = impossible post-selection\n" in text
        assert "[failures]" not in text

    def test_sampled_sweep_counts_failed_outcomes(self, tmp_path, capsys):
        # Cells 1 and 2 run on through failed outcomes: [failures], before
        # [outputs], names them with run_sequence's n_failures.
        (tmp_path / "continue.cfg").write_text("halt_on_failure = false\n")
        argv = ["sweep", "--preset", "fig2a", "--config", str(tmp_path / "continue.cfg"),
                "--mode", "sample", "--atoms", "200", "--spread-mults", "0.1", "--ensemble", "3"]
        assert main([*argv, "--out-dir", str(tmp_path / "sw")]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "sw" / "manifest.txt").read_text()
        assert "\n[failures]\ncell 1 = 13\ncell 2 = 8\n\n[outputs]\n" in text
        base = parse_config(overrides={**preset("fig2a").tokens, "mode": "sample", "atoms": "200",
                                       "spread_mult": "0.1", "halt_on_failure": "false"}).run
        assert [run_sequence(replace(base, stream_id=cell)).n_failures
                for cell in range(3)] == [0, 13, 8]
        # The manifest reruns to its own digests and sections.
        config = ["sweep", "--config", str(tmp_path / "sw" / "manifest.txt")]
        assert main([*config, "--out-dir", str(tmp_path / "rerun")]) == 0
        assert manifest_outputs(tmp_path / "rerun") == manifest_outputs(tmp_path / "sw")
        rerun = (tmp_path / "rerun" / "manifest.txt").read_text()
        assert rerun.partition("[config]")[2] == text.partition("[config]")[2]
        # A halting cell's one failed outcome ends it: it is named in both sections.
        halting = ["sweep", "--preset", "fig2a", "--mode", "sample", "--spread-mults", "0",
                   "--ensemble", "1"]
        assert main([*halting, "--out-dir", str(tmp_path / "halt")]) == 0
        capsys.readouterr()
        text = (tmp_path / "halt" / "manifest.txt").read_text()
        assert "\n[errors]\ncell 0 = sampled orthogonal outcome at atom 1\n" in text
        assert "\n[failures]\ncell 0 = 1\n" in text

    def test_preset_subcommand_prints_config(self, capsys):
        assert main(["preset", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "scheme = superposition" in out
        assert "trap = 21" in out
        assert main(["preset", "--list"]) == 0
        assert "fig1a" in capsys.readouterr().out

    def test_preset_wrong_command_rejected(self, tmp_path):
        code = main(
            ["run", "--preset", "fig1c", "--out-dir", str(tmp_path / "x")]
        )
        assert code == 1

    def test_fig4_preset_produces_trap_fock_state(self, tmp_path):
        out_dir = tmp_path / "fig4"
        assert main(["run", "--preset", "fig4", "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "distribution.csv").read_text().strip().splitlines()[1:]
        dist = np.array([float(line.split(",")[1]) for line in lines])
        assert dist[21] > 0.99

    def test_run_from_printed_preset_config(self, tmp_path, capsys):
        assert main(["preset", "fig2a"]) == 0
        text = capsys.readouterr().out
        cfg_path = tmp_path / "fig2a.cfg"
        cfg_path.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--atoms", "10", "--out-dir", str(out_dir)]
        )
        assert code == 0


RUN_FLAGS = ("--scheme", "elastic", "--trap", "20", "--alpha", "3", "--atoms", "0")
FOCK_FLAGS = ("--scheme", "elastic", "--trap", "20", "--fock", "3", "--atoms", "0")
FIG1C_STEP = ("--preset", "fig1c", "--steps", "1")
FIG1C_TAU = 2 * math.pi / math.sqrt(199.0)
RUN_CONFIG = "command = run\nscheme = elastic\ntrap = 20\nalpha = 3\natoms = 5\n"
CLASSICAL_CONFIG = "command = classical\nepsilon0 = 6\nsteps = 10\ntau_bar_in_inv_g = 0.5\n"


def manifest_tokens(tmp_path, argv, out="out"):
    """Run the CLI and return the [config] tokens of the manifest it writes."""
    out_dir = tmp_path / out
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    return parse_kv_file(out_dir / "manifest.txt")


class TestFlagLayers:
    @pytest.mark.parametrize(
        "argv, token, value",
        [
            pytest.param(
                ["classical", "--preset", "fig1c", "--steps", "1", "--gtau-bar", "0.5"],
                "tau_bar_in_inv_g", "0.5", id="gtau-bar",
            ),
            pytest.param(["run", *RUN_FLAGS, "--stream", "3"], "stream", "3", id="stream"),
            pytest.param(["run", *RUN_FLAGS, "--nmax", "70"], "nmax", "70", id="nmax"),
            pytest.param(["run", *RUN_FLAGS, "--dist", "gaussian"], "dist", "gaussian", id="dist"),
            pytest.param(["run", *RUN_FLAGS, "--mode", "sample"], "mode", "sample", id="mode"),
            pytest.param(["run", *RUN_FLAGS, "--q", "2"], "q", "2", id="q"),
            pytest.param(
                ["sweep", *RUN_FLAGS, "--spread-mults", "0,0.5"], "spread_mults", "0,0.5",
                id="spread-mults",
            ),
            pytest.param(
                ["sweep", *RUN_FLAGS, "--spread-mults", "0", "--ensemble", "3"], "ensemble", "3",
                id="ensemble",
            ),
            pytest.param(
                ["run", *RUN_FLAGS, "--scheme", "inelastic"], "scheme", "inelastic", id="scheme"
            ),
            pytest.param(["run", *RUN_FLAGS, "--trap", "25"], "trap", "25", id="trap"),
            pytest.param(["run", *RUN_FLAGS, "--alpha", "sqrt5"], "alpha", "sqrt5", id="alpha"),
            pytest.param(["run", *FOCK_FLAGS], "fock", "3", id="fock"),
            pytest.param(["run", *RUN_FLAGS, "--atoms", "2"], "atoms", "2", id="atoms"),
            pytest.param(
                ["run", *RUN_FLAGS, "--spread-mult", "0.5"],
                "spread_in_inv_g", format(0.5 * critical_spread(20), ".17g"), id="spread-mult",
            ),
            pytest.param(
                ["run", *RUN_FLAGS, "--spread-frac", "0.1"],
                "spread_in_inv_g", format(0.1 * trapping_time(20, 1), ".17g"),
                id="spread-frac",
            ),
            pytest.param(["run", *RUN_FLAGS, "--seed", "9"], "seed", "9", id="seed"),
            pytest.param(
                ["classical", *FIG1C_STEP, "--epsilon0", "7"], "epsilon0", "7",
                id="classical-epsilon0",
            ),
            pytest.param(
                ["classical", "--preset", "fig1c", "--steps", "2"], "steps", "2",
                id="classical-steps",
            ),
            pytest.param(
                ["classical", *FIG1C_STEP, "--spread-frac", "0.1"],
                "spread_in_inv_g", format(0.1 * FIG1C_TAU, ".17g"), id="classical-spread-frac",
            ),
            pytest.param(
                ["classical", *FIG1C_STEP, "--dist", "gaussian"], "dist", "gaussian",
                id="classical-dist",
            ),
            pytest.param(
                ["classical", *FIG1C_STEP, "--seed", "9"], "seed", "9", id="classical-seed"
            ),
            pytest.param(
                ["classical", *FIG1C_STEP, "--stream", "3"], "stream", "3",
                id="classical-stream",
            ),
        ],
    )
    def test_flag_reaches_its_token(self, tmp_path, argv, token, value):
        assert manifest_tokens(tmp_path, argv)[token] == value

    @pytest.mark.parametrize(
        "line, token, value",
        [
            ("phi_f_rad = 0.4", "phi_f_rad", "0.40000000000000002"),
            ("halt_on_failure = no", "halt_on_failure", "false"),
            ("spread_in_inv_g = 0.01", "spread_in_inv_g", "0.01"),
            ("tau_bar_in_inv_g = 0.5", "tau_bar_in_inv_g", "0.5"),
        ],
    )
    def test_file_token_reaches_manifest(self, tmp_path, line, token, value):
        # Tokens no flag sets; each is read back off the resolved RunConfig.
        path = tmp_path / "elastic.cfg"
        path.write_text(f"command = run\nscheme = elastic\ntrap = 20\nalpha = 3\natoms = 0\n{line}")
        assert manifest_tokens(tmp_path, ["run", "--config", str(path)])[token] == value

    def test_spread_flag_replaces_preset_spread(self, tmp_path):
        # fig1b sets spread_frac, which ranks above spread_mult within one layer.
        tokens = manifest_tokens(
            tmp_path, ["run", "--preset", "fig1b", "--atoms", "0", "--spread-mult", "0.5"]
        )
        assert float(tokens["spread_in_inv_g"]) == 0.5 * critical_spread(138)

    def test_spread_flag_replaces_config_spread(self, tmp_path):
        fig2a = manifest_tokens(tmp_path, ["run", "--preset", "fig2a", "--atoms", "0"], "fig2a")
        assert float(fig2a["spread_in_inv_g"]) == pytest.approx(0.1 * critical_spread(20))
        tokens = manifest_tokens(
            tmp_path,
            ["run", "--config", str(tmp_path / "fig2a" / "manifest.txt"), "--spread-mult", "1"],
        )
        assert float(tokens["spread_in_inv_g"]) == critical_spread(20)

    def test_alpha_flag_replaces_config_fock(self, tmp_path):
        fock_flags = ("--scheme", "elastic", "--trap", "20", "--fock", "3", "--atoms", "0")
        manifest_tokens(tmp_path, ["run", *fock_flags], "fock")
        tokens = manifest_tokens(
            tmp_path, ["run", "--config", str(tmp_path / "fock" / "manifest.txt"), "--alpha", "3"]
        )
        assert (tokens["alpha"], tokens["fock"]) == ("3", "")

    def test_fock_flag_replaces_config_alpha(self, tmp_path):
        manifest_tokens(tmp_path, ["run", *RUN_FLAGS], "alpha")
        tokens = manifest_tokens(
            tmp_path, ["run", "--config", str(tmp_path / "alpha" / "manifest.txt"), "--fock", "3"]
        )
        assert (tokens["alpha"], tokens["fock"]) == ("", "3")

    @pytest.mark.parametrize(
        "given, canonical",
        [("3.0", "3"), ("3", "3"), ("sqrt21.0", "sqrt21"), ("sqrt21", "sqrt21")],
    )
    def test_alpha_written_back_in_one_text(self, tmp_path, given, canonical):
        # The same RunConfig gets the same manifest, whichever way alpha was written.
        tokens = manifest_tokens(tmp_path, ["run", *RUN_FLAGS, "--alpha", given], "given")
        assert tokens["alpha"] == canonical
        again = ["run", *RUN_FLAGS, "--alpha", canonical]
        assert manifest_tokens(tmp_path, again, "canonical") == tokens
        round_trip = ["run", "--config", str(tmp_path / "given" / "manifest.txt")]
        assert manifest_tokens(tmp_path, round_trip, "round-trip") == tokens

    def test_fock_written_back_in_one_text(self, tmp_path):
        path = tmp_path / "fock.cfg"
        path.write_text("command = run\nscheme = elastic\ntrap = 20\nfock = 03\natoms = 0\n")
        tokens = manifest_tokens(tmp_path, ["run", "--config", str(path)])
        assert (tokens["alpha"], tokens["fock"]) == ("", "3")

    @pytest.mark.parametrize("key", ["q", "trap"])
    def test_tau_bar_input_over_config_time_rejected(self, tmp_path, capsys, key):
        # A preset leaves tau_bar to its default, so the flag moves it ...
        tokens = manifest_tokens(tmp_path, ["run", "--preset", "fig2a", "--atoms", "0", "--q", "2"])
        assert float(tokens["tau_bar_in_inv_g"]) == trapping_time(20, 2)
        # ... but a manifest fixes it, and cannot say whether it was chosen.
        out_dir = tmp_path / "rejected"
        code = main(
            ["run", "--config", str(tmp_path / "out" / "manifest.txt"), f"--{key}", "3",
             "--out-dir", str(out_dir)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and "tau_bar_in_inv_g" in err
        assert not out_dir.exists()

    def test_calls_in_one_process_share_no_tokens(self, tmp_path):
        # One parser serves every main call of a process; each call's flags
        # reach its own manifest alone.
        argv = ["run", "--scheme", "elastic", "--trap", "20", "--alpha", "3", "--atoms", "5"]
        first = manifest_tokens(tmp_path, [*argv, "--stream", "4", "--seed", "9"], "first")
        second = manifest_tokens(tmp_path, argv, "second")
        assert (first["stream"], first["seed"]) == ("4", "9")
        assert (second["stream"], second["seed"]) == ("0", "0")
        assert cli._build_parser() is cli._build_parser()


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv, token",
        [
            pytest.param(["run", "--preset", "fig2a", "--trap", "-1"], "trap", id="trap"),
            pytest.param(["run", "--preset", "fig2a", "--fock", "-1"], "fock", id="fock"),
            pytest.param(["classical", "--preset", "fig1c", "--steps", "-3"], "steps", id="steps"),
        ],
    )
    def test_bad_value_named_before_any_output(self, tmp_path, capsys, argv, token):
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {token}: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["classical", "--preset", "fig1c", "--gtau-bar", "0"],
                         "tau_bar_in_inv_g: must be > 0, got 0.0", id="tau-bar"),
            pytest.param(["run", "--config", "cauchy.cfg"],
                         "dist: must be one of ('uniform', 'gaussian'), got 'cauchy'", id="dist"),
            pytest.param(["run", "--preset", "fig2a", "--spread-mult", "5"],
                         "spread_in_inv_g: uniform spread ", id="spread"),
        ],
    )
    def test_timing_model_error_names_token(self, tmp_path, capsys, argv, message):
        (tmp_path / "cauchy.cfg").write_text(
            "command = run\nscheme = elastic\ntrap = 20\nalpha = 3\natoms = 5\ndist = cauchy\n"
        )
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            pytest.param(["--spread-mult", "nan"], "spread_in_inv_g", id="spread-mult-nan"),
            pytest.param(["--spread-frac", "nan"], "spread_in_inv_g", id="spread-frac-nan"),
            pytest.param(["--alpha", "nan"], "alpha", id="alpha-nan"),
            pytest.param(["--alpha", "inf"], "alpha", id="alpha-inf"),
            pytest.param(["--dist", "gaussian", "--spread-mult", "nan"], "spread_in_inv_g",
                         id="gaussian-nan"),
            pytest.param(["--dist", "gaussian", "--spread-mult", "inf"], "spread_in_inv_g",
                         id="gaussian-inf"),
            pytest.param(["--config", "tau.cfg"], "tau_bar_in_inv_g", id="tau-bar-inf"),
            pytest.param(["--config", "phi.cfg", "--scheme", "superposition"], "phi_f_rad",
                         id="phi-f-nan"),
        ],
    )
    def test_non_finite_value_rejected(self, tmp_path, capsys, argv, token):
        (tmp_path / "tau.cfg").write_text("tau_bar_in_inv_g = inf\n")
        (tmp_path / "phi.cfg").write_text("phi_f_rad = nan\n")
        argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
        out_dir = tmp_path / "out"
        code = main(["run", "--preset", "fig3ab", "--atoms", "5", *argv, "--out-dir", str(out_dir)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {token}: must be finite, got ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            pytest.param(["classical", "--preset", "fig1d", "--epsilon0", "inf"], "epsilon0",
                         id="epsilon0-inf"),
        ],
    )
    def test_non_finite_derivation_input_rejected(self, tmp_path, capsys, argv, token):
        # Each names its own token, not one of the values derived from it.
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {token}: must be finite, got ")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            pytest.param(["run", "--preset", "fig2a", "--atoms", "3", "--alpha", "1e200"], 2,
                         "simulation error: coherent state |alpha|=1e+200 loses 1.000e+00 "
                         "probability", id="alpha"),
            pytest.param(["classical", "--preset", "fig1c", "--steps", "3", "--epsilon0", "1e200"],
                         1, "config error: epsilon0: must be <= 1.3407807929942596e+154, "
                         "got 1e+200", id="epsilon0"),
            pytest.param(["classical", "--preset", "fig1c", "--steps", "3", "--epsilon0",
                          "1.1125369292536007e-308"],
                         1, "config error: epsilon0: must be >= 1.112536929253601e-308, "
                         "got 1.1125369292536007e-308", id="epsilon0-reciprocal"),
            # The return map checks, before each block of steps, that epsilon and its phase
            # epsilon g tau stay in range: a step adds at most g tau to epsilon.
            pytest.param(["classical", "--preset", "fig1c", "--steps", "3", "--gtau-bar", "1e308"],
                         2, "simulation error: return map may overflow in steps 1-3: epsilon "
                         "may reach inf, epsilon g tau inf\n", id="map-phase"),
            pytest.param(["classical", "--preset", "fig1c", "--steps", "1", "--epsilon0", "1e-160",
                          "--gtau-bar", "1e160"],
                         2, "simulation error: return map may overflow in steps 1-1: epsilon "
                         "may reach 1e+160, epsilon g tau inf\n", id="map-square"),
        ],
    )
    def test_overflowing_value_ends_before_any_output(self, tmp_path, capsys, argv, code,
                                                      message):
        # Squaring, inverting or multiplying each value overflows the float range.
        out_dir = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out_dir)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "epsilon0, last",
        [
            ("1.112536929253601e-308", "3,0.44540319718441362,1.4775259500967284e-308,0"),
            ("1.3407807929942596e154",
             "3,0.44540319718441362,1.3407807929942596e+154,4.4942328371557888e+307"),
        ],
        ids=["smallest", "largest"],
    )
    def test_extreme_epsilon0_accepted(self, tmp_path, epsilon0, last):
        out_dir = tmp_path / "out"
        argv = ["classical", "--preset", "fig1c", "--steps", "3"]
        assert main([*argv, "--epsilon0", epsilon0, "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "classical.csv").read_text().splitlines()[-1] == last

    @pytest.mark.parametrize(
        "command, base, flags",
        [
            pytest.param(
                "run", ["--preset", "fig3ab", "--atoms", "3"],
                ["--trap", "--q", "--alpha", "--fock", "--atoms", "--spread-mult",
                 "--spread-frac", "--seed", "--stream", "--nmax"],
                id="run",
            ),
            pytest.param(
                "classical", ["--preset", "fig1c", "--steps", "3"],
                ["--epsilon0", "--steps", "--gtau-bar", "--spread-frac", "--seed", "--stream"],
                id="classical",
            ),
        ],
    )
    def test_extreme_flag_values_end_in_an_exit_code(self, tmp_path, capsys, command, base,
                                                     flags):
        # One flag at a time; argparse refuses a non-integer for an integer flag (exit 2).
        values = ("0", "-1", "1e-300", "-1e-300", "1e200", "1e300", "inf", "-inf", "nan")
        codes = {}
        for flag in flags:
            for value in values:
                argv = [command, *base, f"{flag}={value}", "--out-dir", str(tmp_path / "out")]
                try:
                    codes[flag, value] = main(argv)
                except SystemExit as exc:
                    codes[flag, value] = exc.code
                capsys.readouterr()
        assert {call: code for call, code in codes.items() if code not in (0, 1, 2)} == {}

    @pytest.mark.parametrize("command", ["run", "classical"])
    @pytest.mark.parametrize(
        "name, reason",
        [("missing.cfg", "No such file or directory"), (".", "Is a directory"),
         ("latin1.cfg", "not UTF-8 text")],
        ids=["missing", "directory", "not-utf8"],
    )
    def test_unreadable_config_file(self, tmp_path, capsys, command, name, reason):
        (tmp_path / "latin1.cfg").write_bytes("command = run\n# \xe9\n".encode("latin-1"))
        path, out_dir = tmp_path / name, tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out_dir)]) == 1
        error = capsys.readouterr().err
        assert error == f"config error: config: cannot read {str(path)!r}: {reason}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, reason", [("taken", "File exists"), ("taken/out", "Not a directory")],
        ids=["existing-file", "parent-is-a-file"],
    )
    def test_unusable_out_dir_ends_before_the_run(self, tmp_path, capsys, monkeypatch, name,
                                                  reason):
        (tmp_path / "taken").write_text("")
        runs = []
        monkeypatch.setattr("jctrap.cli.run_sequence", runs.append)
        out_dir = tmp_path / name
        assert main(["run", "--preset", "fig2a", "--atoms", "1", "--out-dir", str(out_dir)]) == 1
        error = capsys.readouterr().err
        assert error == f"config error: out-dir: cannot create {str(out_dir)!r}: {reason}\n"
        assert runs == []

    def test_existing_out_dir_is_reused(self, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "notes.txt").write_text("kept")
        assert main(["run", "--preset", "fig2a", "--atoms", "1", "--out-dir", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "distribution.csv", "manifest.txt", "notes.txt", "trajectory.csv"]
        assert (out_dir / "notes.txt").read_text() == "kept"

    def test_failed_run_removes_only_the_directories_it_made(self, tmp_path, capsys):
        # The directory exists before the run; a simulation error removes the
        # directories this call made, and keeps one that was there before.
        argv = ["run", "--preset", "fig2a", "--atoms", "3", "--alpha", "1e200", "--out-dir"]
        assert main([*argv, str(tmp_path / "made" / "out")]) == 2
        assert not (tmp_path / "made").exists()
        (tmp_path / "kept").mkdir()
        assert main([*argv, str(tmp_path / "kept")]) == 2
        assert (tmp_path / "kept").is_dir()
        assert capsys.readouterr().err.count("simulation error: coherent state") == 2

    @pytest.mark.parametrize("keyword, token", [("master_seed", "seed"), ("stream_id", "stream")])
    def test_classical_seed_read_as_int(self, keyword, token):
        kwargs = dict(epsilon0=6.0, n_steps=1, tau_bar=1.0)
        config = build_classical_config(**kwargs, **{keyword: np.int64(3)})
        assert getattr(config, keyword) == 3 and type(getattr(config, keyword)) is int
        with pytest.raises(ConfigError, match=f"^{token}: must be an integer, got 1.5$"):
            build_classical_config(**kwargs, **{keyword: 1.5})

    @pytest.mark.parametrize(
        "command, line, message",
        [
            pytest.param("run", "trap = abc", "trap: expected an integer, got 'abc'", id="int"),
            pytest.param("run", "halt_on_failure = maybe",
                         "halt_on_failure: expected true or false, got 'maybe'", id="bool"),
            pytest.param("sweep", "spread_mults = ,",
                         "spread_mults: at least one multiplier required", id="mults"),
            pytest.param("run", "alpha = sqrtx", "alpha: cannot parse sqrt expression 'sqrtx'",
                         id="alpha"),
        ],
    )
    def test_unparsable_value_named(self, tmp_path, capsys, command, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"scheme = elastic\ntrap = 20\nalpha = 3\natoms = 5\n{line}\n")
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, value",
        [
            pytest.param(RUN_CONFIG, "2", id="run-2"),
            pytest.param(RUN_CONFIG, "0", id="run-0"),
            pytest.param(RUN_CONFIG, "nan", id="run-nan"),
            pytest.param(RUN_CONFIG, "x", id="run-x"),
            pytest.param(CLASSICAL_CONFIG, "0.5", id="classical-0.5"),
        ],
    )
    def test_retired_g_other_than_one_rejected(self, tmp_path, capsys, config, value):
        # Any g but the unit would rerun a manifest with every time rescaled.
        path = tmp_path / "g.cfg"
        path.write_text(f"{config}g = {value}\n")
        out_dir = tmp_path / "out"
        command = parse_kv_file(path)["command"]
        assert main([command, "--config", str(path), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == (
            f"config error: g: times are in units of 1/g, so g must be 1, got {value!r}; "
            "scale tau_bar_in_inv_g and spread_in_inv_g by g instead\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", ["2", "0", "nan", "x"])
    def test_retired_omega_other_than_one_rejected(self, tmp_path, capsys, value):
        # The closure fixes the Ramsey angle: another omega_in_g would rerun a
        # manifest with another T_k column.
        path = tmp_path / "omega.cfg"
        path.write_text(f"{RUN_CONFIG}omega_in_g = {value}\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        error = capsys.readouterr().err
        assert error.startswith("config error: omega_in_g: ") and f"got {value!r}" in error
        assert not out_dir.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "typo.cfg"
        path.write_text(
            "command = run\nscheme = elastic\ntrap = 20\nalpha = 3\natoms = 5\nspred_mult = 2\n"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("config error: spred_mult: ")
        assert not out_dir.exists()

    def test_retired_workers_key_still_loads(self, tmp_path):
        tokens = manifest_tokens(tmp_path, ["sweep", *RUN_FLAGS, "--spread-mults", "0"], "first")
        manifest = tmp_path / "first" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("[config]\n", "[config]\nworkers = 4\n"))
        assert manifest_tokens(tmp_path, ["sweep", "--config", str(manifest)], "again") == tokens

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["classical", "--preset", "fig1c", "--g", "2"], id="classical-g"),
            pytest.param(["run", "--preset", "fig2a", "--nm", "70"], id="run-nm"),
            pytest.param(["run", "--preset", "fig2a", "--g", "1"], id="run-g"),
            pytest.param(["run", "--preset", "fig3ab", "--omega", "1"], id="run-omega"),
        ],
    )
    def test_flag_prefix_not_expanded(self, tmp_path, argv):
        # g is the unit of time, so --g is no flag: on classical it must not
        # reach --gtau-bar.  --nm is not --nmax.  The closure cancels the
        # Ramsey frequency, so --omega is no flag either.
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(out_dir)])
        assert exc.value.code == 2
        assert not out_dir.exists()


def manifest_outputs(out_dir):
    """The [outputs] of a manifest as {file name: sha256 hex digest}."""
    text = (out_dir / "manifest.txt").read_text(encoding="utf-8")
    lines = text.split("[outputs]\n")[1].splitlines()
    return dict(
        (name.strip(), digest.strip().removeprefix("sha256:"))
        for name, _, digest in (line.partition("=") for line in lines)
    )


# Manifests as written while g, and later omega_in_g, were config tokens,
# which each one held at 1.
RETIRED_TOKEN_MANIFESTS = {
    "run": """\
artifact_version = 0.1.0
command = run
master_seed = 22
duration_seconds = 0.0143721
terminated_early = none

[config]
command = run
scheme = elastic
trap = 20
q = 1
atoms = 30
alpha = 3
fock =
dist = uniform
mode = postselect
tau_bar_in_inv_g = 0.68555172084725757
spread_in_inv_g = 0.034277586042362883
g = 1
omega_in_g = 1
phi_f_rad = -1.5707963267948966
nmax = 57
seed = 22
stream = 0
halt_on_failure = true

[outputs]
trajectory.csv = sha256:9e3aed505ec08e1d74427ccf4d4b10a612460771a7e81e3be292a1ff2a183c45
distribution.csv = sha256:2190e2f6abf7e75f0fb8424dc22fe46ffaf59fb7929588c9bc661ec45122acbf
""",
    "classical": """\
artifact_version = 0.1.0
command = classical
master_seed = 11
duration_seconds = 0.0115712
terminated_early = none

[config]
command = classical
epsilon0 = 6
steps = 300
tau_bar_in_inv_g = 0.44540319718441362
spread_in_inv_g = 0
dist = uniform
g = 1
seed = 11
stream = 0

[outputs]
classical.csv = sha256:e75a0b21b0b36bbc28415031223e77da4780e0abd6fdbe5b0479f1b900e1f3b5
""",
    "superposition": """\
artifact_version = 0.1.0
command = run
master_seed = 7
duration_seconds = 0.00994278
terminated_early = none

[config]
command = run
scheme = superposition
trap = 21
q = 1
atoms = 30
alpha = sqrt21
fock =
dist = uniform
mode = postselect
tau_bar_in_inv_g = 0.66978980424286694
spread_in_inv_g = 0.033489490212143348
omega_in_g = 1
phi_f_rad = -1.5707963267948966
nmax = 59
seed = 7
stream = 0
halt_on_failure = true

[outputs]
trajectory.csv = sha256:65cc9f3014b68ad3de8494761d5c589277f19cd9e3db59575b61de27f5d9a238
distribution.csv = sha256:e21e6c60d32c8eb72b2bdcc524b241e2a08d03aa51266659b0c3d755b469d76e
""",
}


class TestOutputDigests:
    @pytest.mark.parametrize("name", sorted(RETIRED_TOKEN_MANIFESTS))
    def test_manifest_with_retired_tokens_reproduces_its_digests(self, tmp_path, name):
        (tmp_path / "manifest.txt").write_text(RETIRED_TOKEN_MANIFESTS[name], encoding="utf-8")
        old_tokens = parse_kv_file(tmp_path / "manifest.txt")
        out_dir = tmp_path / "again"
        assert main([old_tokens["command"], "--config", str(tmp_path / "manifest.txt"),
                     "--out-dir", str(out_dir)]) == 0
        assert manifest_outputs(out_dir) == manifest_outputs(tmp_path)
        retired = [old_tokens.pop(token) for token in ("g", "omega_in_g") if token in old_tokens]
        assert retired and set(retired) == {"1"}
        assert parse_kv_file(out_dir / "manifest.txt") == old_tokens

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["run", "--preset", "fig2a", "--atoms", "30"], id="run"),
            pytest.param(
                ["sweep", "--preset", "fig2a", "--atoms", "30", "--spread-mults", "0,1",
                 "--ensemble", "2"],
                id="sweep",
            ),
            pytest.param(["classical", "--preset", "fig1c", "--steps", "3000"], id="classical"),
        ],
    )
    def test_manifest_digest_is_file_digest(self, tmp_path, argv):
        # The writers hash what they write; nothing reads the files back.
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        outputs = manifest_outputs(tmp_path)
        assert outputs
        for name, digest in outputs.items():
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            pytest.param(
                ["classical", "--preset", "fig1c"],
                {"classical.csv": "71cd61f412e626888b9830bb84c287ad69d5afc9ee1aa533b34de6a806a5a266"},
                id="fig1c",
            ),
            pytest.param(
                ["run", "--preset", "fig2a", "--atoms", "50"],
                {
                    "trajectory.csv":
                        "e650f897bf05464e5a6a5dc947ef74ef822b9c5685e8856ae599e3a3d24b0e0f",
                    "distribution.csv":
                        "1dda2d56399ca51038fc272e881a93100459ef97b95d4b30d37e1a6b57174070",
                },
                id="fig2a-50-atoms",
            ),
            # 300 atoms in one or more blocks of timing draws: NSM, superposition,
            # gaussian draws, and a sweep batch of four cells.
            pytest.param(
                ["run", "--preset", "fig1a", "--atoms", "300"],
                {
                    "trajectory.csv":
                        "dd36ff2c2db52b3fc945ad3d5ef276f816c7901b82da8b3015b9206ed4ceff4a",
                    "distribution.csv":
                        "eb63399d5dcffe6eac1b527e6e3dcf8de0acba35389c27fedbd247ffec01f75a",
                },
                id="fig1a-300-atoms",
            ),
            pytest.param(
                ["run", "--preset", "fig3ab", "--atoms", "300"],
                {
                    "trajectory.csv":
                        "23f0fcf66e2d3a48e6e0f29959c195953d790c741e2b3c408cc7d30e26625c4a",
                    "distribution.csv":
                        "339c4aa8c9a3c8cf0185401513da781d9b70d7650a749698fa78c3f7da767b44",
                },
                id="fig3ab-300-atoms",
            ),
            pytest.param(
                ["run", "--preset", "fig2b", "--atoms", "300", "--dist", "gaussian"],
                {
                    "trajectory.csv":
                        "0f6d149af40c338c5fc162475601eca5328857d4aa0d911528ca05e8ccd5eed1",
                    "distribution.csv":
                        "73e2911e602a5eec6c3e4c013b318d564317350f1884e4c13d2a359285faf429",
                },
                id="fig2b-300-atoms-gaussian",
            ),
            pytest.param(
                ["sweep", "--preset", "fig2a", "--spread-mults", "0.1,3", "--ensemble", "2",
                 "--atoms", "300"],
                {"sweep.csv": "f70fdc07008adf8193dcd4e050de45cb88001c08f06bb7676f242f45ab4903fd"},
                id="fig2a-sweep-300-atoms",
            ),
            # The update's other outcome forms: emit alone, a sampled batch
            # whose failed cells take the orthogonal row, and NSM cells
            # advancing together.
            pytest.param(
                ["run", "--scheme", "inelastic", "--trap", "20", "--fock", "3", "--atoms", "10"],
                {
                    "trajectory.csv":
                        "3955a6613d1038a4b9f9f1aed094d1616704b152512cfdcd6e37fc110aad9bf0",
                    "distribution.csv":
                        "7be3a189a6be86fe7ddf418f891873cd878802dd34f1891893f25d7344d912b9",
                },
                id="inelastic-emit-only",
            ),
            pytest.param(
                ["sweep", "--preset", "fig2a", "--mode", "sample", "--atoms", "200",
                 "--spread-mults", "0.1", "--ensemble", "3"],
                {"sweep.csv": "29cd91125deb79d225b6b209501b9f25e2491293761465ff7584b8c259fb93de"},
                id="fig2a-sampled-sweep",
            ),
            pytest.param(
                ["sweep", "--preset", "fig1b", "--spread-mults", "0.02", "--ensemble", "2",
                 "--atoms", "100"],
                {"sweep.csv": "45bc500147db3beba61349fb7d1c22c93db92768dde00316a07c85d6f9355b21"},
                id="fig1b-nsm-sweep",
            ),
        ],
    )
    def test_outputs_byte_identical_to_recorded(self, tmp_path, argv, expected):
        # Digests of the files as first written; any changed byte fails.
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        assert manifest_outputs(tmp_path) == expected
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "lines, expected, failures",
        [
            pytest.param(
                ("scheme = inelastic", "trap = 20", "alpha = 3", "spread_mult = 0.1",
                 "atoms = 200", "seed = 22"),
                {
                    "trajectory.csv":
                        "f6faeab784a6f7e7022f1fa13faa263d9522dd855e5107508707bdb42b701d89",
                    "distribution.csv":
                        "8c8788dfc0d4fa541d9c43146698454b97d6c160319cac0911e4b2fb9229b877",
                },
                184,
                id="inelastic-sampled-no-halt",
            ),
            pytest.param(
                ("scheme = superposition", "trap = 21", "alpha = sqrt21", "spread_mult = 2",
                 "atoms = 300", "seed = 7"),
                {
                    "trajectory.csv":
                        "2a4a827dd8e9a22255550869d28c3af77c586e25a76d00da0f391b792ce1167d",
                    "distribution.csv":
                        "ddc932c185791a5e0b91e4d27bdcb3cfb27300e2fbfb3d1b01e37fe6e5a1a414",
                },
                27,
                id="superposition-sampled-no-halt",
            ),
        ],
    )
    def test_non_halting_sampled_run_byte_identical_to_recorded(self, tmp_path, lines,
                                                                 expected, failures):
        # A sampled run that goes on past its failed outcomes writes the rows
        # that the orthogonal update gives; only a config file sets
        # halt_on_failure.
        config = tmp_path / "run.txt"
        config.write_text("\n".join(
            ("command = run", *lines, "mode = sample", "halt_on_failure = false")) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        assert manifest_outputs(out) == expected
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows].count("sampled_failure") == failures

    def test_sweep_manifest_round_trips(self, tmp_path):
        argv = ["sweep", "--preset", "fig2a", "--atoms", "30", "--spread-mults", "0.5,1",
                "--ensemble", "2"]
        tokens = manifest_tokens(tmp_path, argv, "first")
        # The cells set their own spreads; the base run's would be misread.
        assert not any(key.startswith("spread_") and key != "spread_mults" for key in tokens)
        again = manifest_tokens(
            tmp_path, ["sweep", "--config", str(tmp_path / "first" / "manifest.txt")], "again"
        )
        assert again == tokens
        first, second = manifest_outputs(tmp_path / "first"), manifest_outputs(tmp_path / "again")
        assert first == second and set(first) == {"sweep.csv"}


class TestImport:
    def test_all_names_resolve(self):
        assert len(set(jctrap.__all__)) == len(jctrap.__all__)
        for name in jctrap.__all__:
            assert getattr(jctrap, name) is not None, name

    def test_star_import(self):
        namespace = {}
        exec("from jctrap import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(jctrap.__all__)

    def test_import_builds_no_parser(self):
        # The parser is built on the first main call, once per process.
        env = {**os.environ, "PYTHONPATH": str(Path(jctrap.__file__).parents[1])}
        code = "import jctrap.cli; print(jctrap.cli._build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "0"

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random costs about 14 ms and 2.6 MB to import; streams load
        # it when the first run derives them, not at start-up.
        env = {**os.environ, "PYTHONPATH": str(Path(jctrap.__file__).parents[1])}
        code = "import sys, jctrap.cli; print('numpy.random' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
