import configparser
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import risbvqe
from risbvqe import SolverFailure, cli, ed
from risbvqe.cli import (ConfigError, RunConfig, build_noise, load_reference,
                         main, parse_config, parse_noise_flag, run_hash,
                         serialize_config, u_grid)
from risbvqe.runio import read_table

ED_SWEEP = """\
[lattice]
n_c = 1

[sweep]
u_values = 0.2, 0.4

[ansatz]
tag = ed

[optimizer]
risb_max_iter = 12
"""


# Every key away from its default, with floats that print exactly under
# %.17g, so the canonical text is this text.
EVERY_KEY = """\
[run]
seed = 11

[lattice]
n_c = 2
t = -0.375
u = 1.25
mesh = 12
beta = 50.5

[sweep]
u_start = 0.125
u_stop = 2.5
u_step = 0.125
u_values = 0.25, 0.5

[ansatz]
tag = ldca
layers = 2
cycles = 3
basis = noize

[optimizer]
tag = nelder-mead
n_starts = 5
max_iter = 500
noize_steps = 4
risb_max_iter = 60

[noise]
mode = scale
scale = 0.375
eps1 = 0.00390625
eps2 = 0.0078125

[landscape]
r_start = 0.75
r_stop = 1.125
r_num = 3
lam_start = 0.015625
lam_stop = 0.0625
lam_num = 4

[output]
dir = elsewhere
label = fig5
classical_table = table.csv
"""


def count_solves(monkeypatch) -> list:
    """Records each `ed.ground_state` call a command makes itself or through
    `exact_no_basis`; the RISB loop's own solves (in `embedding`) are not
    counted."""
    calls, solve = [], ed.ground_state

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    for module in (cli, ed):
        monkeypatch.setattr(module, "ground_state", counted)
    return calls


def write_cfg(tmp_path: Path, text: str, name: str = "cfg.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def readme_grammar() -> str:
    """The README's config-grammar block with its `;` comments removed."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("### Config grammar", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    return "\n".join(line.split(";", 1)[0].rstrip()
                     for line in block.splitlines()) + "\n"


def ini_keys(text: str) -> list[tuple[str, str]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return [(section, key) for section in parser.sections()
            for key in parser[section]]


class TestConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_round_trip_is_identity(self):
        cfg = parse_config("[lattice]\nn_c = 2\nt = -0.3\n"
                           "[noise]\nmode = scale\nscale = 0.37\n"
                           "[output]\nlabel = fig5\n")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[latice]\nn_c = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[lattice]\nn_sites = 2\n")

    def test_type_error_rejected(self):
        with pytest.raises(ConfigError, match="expected float"):
            parse_config("[lattice]\nu = strong\n")

    def test_bad_ansatz_tag(self):
        with pytest.raises(ConfigError, match="tag must be one of"):
            parse_config("[ansatz]\ntag = uccsd\n")

    @pytest.mark.parametrize("section, key, value", [
        ("ansatz", "basis", "natural"), ("optimizer", "tag", "adam"),
        ("noise", "mode", "loud")])
    def test_every_choice_key_is_checked(self, section, key, value):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] {key} must be one of"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("section, key, value", [
        ("lattice", "u", "nan"), ("sweep", "u_stop", "inf"),
        ("noise", "eps2", "-inf")])
    def test_non_finite_float_rejected(self, section, key, value):
        with pytest.raises(ConfigError,
                           match=rf"\[{section}\] {key} must be finite"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            parse_config("[run]\nseed = -1\n")

    def test_bad_ranges(self):
        with pytest.raises(ConfigError, match="u_step"):
            parse_config("[sweep]\nu_step = 0\n")
        with pytest.raises(ConfigError, match="scale"):
            parse_config("[noise]\nscale = 1.5\n")

    def test_hash_ignores_command_and_naming(self):
        # The subcommand is not part of the configuration at all.
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[run]\nkind = vqe\n")
        base = RunConfig()
        from dataclasses import replace
        assert run_hash(replace(base, label="a", out_dir="x")) \
            == run_hash(replace(base, label="b", out_dir="y"))
        assert run_hash(replace(base, u=1.5)) != run_hash(base)


class TestGrammar:
    def test_default_hash(self):
        assert run_hash(RunConfig()) == "4c54f1397b65"

    def test_every_key_keeps_its_text_and_hash(self):
        cfg = parse_config(EVERY_KEY)
        assert all(getattr(cfg, f.name) != f.default
                   for f in fields(RunConfig))
        assert serialize_config(cfg) == EVERY_KEY
        assert run_hash(cfg) == "f4bd3d00a625"

    def test_readme_block_is_the_default_grammar(self):
        text = readme_grammar()
        assert parse_config(text) == RunConfig()
        assert ini_keys(text) == ini_keys(serialize_config(RunConfig()))


class TestFlagsAndGrid:
    def test_noise_flag_forms(self):
        assert parse_noise_flag("off") == ("off", 1.0)
        assert parse_noise_flag("calibrated") == ("calibrated", 1.0)
        assert parse_noise_flag("scale=0.3") == ("scale", 0.3)
        with pytest.raises(ConfigError):
            parse_noise_flag("scale=big")
        with pytest.raises(ConfigError):
            parse_noise_flag("loud")

    def test_noise_model_scaling(self):
        cfg = parse_config("[noise]\nmode = scale\nscale = 0.5\n")
        model = build_noise(cfg)
        assert model.effective_p1 == pytest.approx(0.5 * 0.0024)
        assert build_noise(RunConfig()) is None

    def test_default_grid_covers_sweep_range(self):
        us = u_grid(RunConfig())
        assert len(us) == 60
        assert us[0] == pytest.approx(0.05)
        assert us[-1] == pytest.approx(3.0)

    def test_explicit_values_override(self):
        cfg = parse_config("[sweep]\nu_values = 0.05, 1, 2\n")
        assert u_grid(cfg) == [0.05, 1.0, 2.0]

    @pytest.mark.parametrize("values", ["nan", "0.2, inf"])
    def test_non_finite_values_rejected(self, values):
        cfg = parse_config(f"[sweep]\nu_values = {values}\n")
        with pytest.raises(ConfigError, match="must be finite"):
            u_grid(cfg)

    def test_empty_grid_is_usage_error(self):
        cfg = parse_config("[sweep]\nu_start = 1.0\nu_stop = 0.5\n")
        with pytest.raises(ConfigError, match="empty"):
            u_grid(cfg)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["vqe", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_invalid_config_content(self, tmp_path):
        cfg = write_cfg(tmp_path, "[lattice]\nn_c = 3\n")
        assert main(["vqe", "--config", cfg]) == 2

    def test_vqe_needs_circuit(self, tmp_path):
        cfg = write_cfg(tmp_path, "[ansatz]\ntag = ed\n")
        assert main(["vqe", "--config", cfg]) == 2

    def test_vqe_rejects_noize_basis(self, tmp_path):
        cfg = write_cfg(tmp_path, "[ansatz]\nbasis = noize\n")
        assert main(["vqe", "--config", cfg]) == 2

    @pytest.mark.parametrize("command", ["vqe", "noize"])
    def test_default_config_is_a_config_error(self, tmp_path, command,
                                              capsys):
        # The defaults pair the mrep ansatz with n_c = 1, and mrep is
        # built for the two-site cluster only.
        cfg = write_cfg(tmp_path, "")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "mrep ansatz covers only the two-site" in \
            capsys.readouterr().err

    def test_noize_rejects_two_determinant_circuit(self, tmp_path):
        # its 1-RDM is diagonal at every angle, so the iteration stalls
        cfg = write_cfg(tmp_path, "[ansatz]\ntag = mr\n")
        assert main(["noize", "--config", cfg]) == 2

    def test_sweep_without_reference_table(self, tmp_path):
        cfg = write_cfg(tmp_path, "[ansatz]\ntag = mrep\n")
        assert main(["risb-sweep", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_solver_failure_maps_to_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverFailure("cost never became finite")

        monkeypatch.setattr("risbvqe.cli.risb_sweep", boom)
        cfg = write_cfg(tmp_path, ED_SWEEP)
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(tmp_path)]) == 3

    def test_programming_error_is_not_a_solver_failure(self, tmp_path,
                                                       monkeypatch):
        def bug(*args, **kwargs):
            raise ValueError("index out of range")

        monkeypatch.setattr("risbvqe.cli.risb_sweep", bug)
        cfg = write_cfg(tmp_path, ED_SWEEP)
        with pytest.raises(ValueError, match="index out of range"):
            main(["ed-reference", "--config", cfg, "--out", str(tmp_path)])

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("command", ["vqe", "noize", "risb-sweep"])
    def test_negative_seed(self, tmp_path, capsys, command, where):
        text = "[ansatz]\ntag = hea\n"
        if where == "config":
            text = "[run]\nseed = -1\n" + text
        argv = [command, "--config", write_cfg(tmp_path, text),
                "--out", str(tmp_path / "out")]
        if where == "flag":
            argv += ["--seed", "-1"]
        assert main(argv) == 2
        assert "error: [run] seed must be nonnegative" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_landscape_rejects_invalid_noise_rate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[noise]\nmode = calibrated\n"
                                  "eps2 = 1.0\n")
        assert main(["landscape", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_landscape_needs_single_site(self, tmp_path):
        cfg = write_cfg(tmp_path, "[lattice]\nn_c = 2\n")
        assert main(["landscape", "--config", cfg,
                     "--out", str(tmp_path)]) == 2


class TestClassicalSweepCommand:
    def test_reference_run(self, tmp_path):
        cfg = write_cfg(tmp_path, ED_SWEEP)
        out = tmp_path / "ref"
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(out)]) == 0
        rows = read_table(out / "run_sweep_ed_off.csv")
        assert [r["U"] for r in rows] == pytest.approx([0.0, 0.2, 0.4])
        assert rows[0]["Z_plus"] == 1.0
        assert math.isnan(rows[0]["Z_minus"])
        zs = [r["Z_plus"] for r in rows]
        assert zs == sorted(zs, reverse=True)
        assert rows[1]["solver_tag"] == "ed"
        # Twelve evaluations do not reach the U = 0.2 root from U = 0; the
        # column says so.
        assert [r["converged"] for r in rows] == ["True", "False", "True"]
        for row in rows:
            assert row["converged"] == str(row["cost_final"] < 1e-9)
            assert row["clamped"] == "False"
        for u in ("0", "0.2", "0.4"):
            trace = read_table(out / f"run_trace_ed_off_u{u}.csv")
            assert trace and set(trace[0]) == {"step", "cost"}
            assert [r["step"] for r in trace] == list(range(len(trace)))
            assert [r["n_eval"] for r in rows
                    if r["U"] == float(u)] == [len(trace)]
            assert all(isinstance(r["cost"], float) and r["cost"] >= 0.0
                       for r in trace)

    def test_reruns_and_ed_sweep_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, ED_SWEEP)
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(dirs[0])]) == 0
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(dirs[1])]) == 0
        # same config through the sweep command lands in the same code path
        assert main(["risb-sweep", "--config", cfg,
                     "--out", str(dirs[2])]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert names == sorted(p.name for p in dirs[2].iterdir())
        for name in names:
            blob = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == blob
            assert (dirs[2] / name).read_bytes() == blob

    def test_metadata_header_present(self, tmp_path):
        cfg = write_cfg(tmp_path, ED_SWEEP)
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(tmp_path / "r")]) == 0
        head = (tmp_path / "r" / "run_sweep_ed_off.csv").read_text()
        lines = head.splitlines()
        assert lines[0].startswith("# config = ")
        assert lines[1] == "# artifact_version = 2"


class TestQuantumSweepCommand:
    def test_circuit_solver_tracks_classical_values(self, tmp_path):
        cfg = write_cfg(tmp_path, ED_SWEEP)
        ref = tmp_path / "ref"
        assert main(["ed-reference", "--config", cfg,
                     "--out", str(ref)]) == 0
        table = ref / "run_sweep_ed_off.csv"
        qcfg = write_cfg(tmp_path, f"""\
[lattice]
n_c = 1

[sweep]
u_values = 0.4

[ansatz]
tag = mr
basis = exact-no

[optimizer]
n_starts = 2
risb_max_iter = 12

[output]
classical_table = {table}
""", name="q.ini")
        out = tmp_path / "q"
        assert main(["risb-sweep", "--config", qcfg,
                     "--out", str(out)]) == 0
        row = read_table(out / "run_sweep_mr_off.csv")[0]
        exact = [r for r in read_table(table)
                 if abs(r["U"] - 0.4) < 1e-9][0]
        assert row["Z_plus"] == pytest.approx(exact["Z_plus"], abs=5e-3)
        assert row["cost_final"] < 1e-3
        assert row["noise_tag"] == "off"

    def test_reference_loader_shapes(self, tmp_path):
        cfg = write_cfg(tmp_path, ED_SWEEP)
        ref = tmp_path / "ref"
        main(["ed-reference", "--config", cfg, "--out", str(ref)])
        from dataclasses import replace
        loaded = load_reference(replace(
            parse_config(ED_SWEEP),
            classical_table=str(ref / "run_sweep_ed_off.csv")))
        assert set(loaded) == {0.0, 0.2, 0.4}
        r, lam = loaded[0.4]
        assert r.minus is None
        exact = [r_ for r_ in read_table(ref / "run_sweep_ed_off.csv")
                 if abs(r_["U"] - 0.4) < 1e-9][0]
        assert r.plus == pytest.approx(math.sqrt(exact["Z_plus"]), abs=1e-12)
        # lambda recovers lambda-tilde shifted by the half-filled level
        assert lam.plus == pytest.approx(0.2, abs=5e-3)

    def test_version_one_table_still_loads(self, tmp_path):
        # A two-site table written before the converged, clamped and
        # n_eval columns existed.
        old = tmp_path / "v1.csv"
        old.write_text(
            "# config = 5f1bc3afeb50\n# artifact_version = 1\n"
            "U,Z_plus,Z_minus,lambda_tilde_plus,lambda_tilde_minus,"
            "cost_final,n_iter,solver_tag,noise_tag\n"
            "0,1,1,0,0,7.7e-16,230,ed,off\n"
            "0.2,0.99779164422288646,0.99703800076070104,"
            "0.19639526070669872,0.20178404991531756,1.4e-12,243,ed,off\n")
        from dataclasses import replace
        cfg = replace(parse_config("[lattice]\nn_c = 2\n"),
                      classical_table=str(old))
        loaded = load_reference(cfg)
        assert set(loaded) == {0.0, 0.2}
        r, lam = loaded[0.2]
        np.testing.assert_allclose(r.channels() ** 2,
                                   [0.99779164422288646, 0.99703800076070104],
                                   rtol=0, atol=1e-15)
        # lambda = lambda~ + eps_loc(mu = U/2), channel band means -/+ |t|.
        np.testing.assert_allclose(
            lam.channels(), [0.19639526070669872 - 0.25 - 0.1,
                             0.20178404991531756 + 0.25 - 0.1], atol=1e-12)

    @pytest.mark.parametrize("n_c, table_minus, tag", [
        (2, "nan", "mrep"),  # a single-site table under a two-site sweep
        (1, "0.5", "mr"),    # a two-site table under a single-site sweep
    ])
    def test_reference_with_other_channel_count_rejected(
            self, tmp_path, capsys, n_c, table_minus, tag):
        table = tmp_path / "table.csv"
        table.write_text(
            "# config = x\n# artifact_version = 2\n"
            "U,Z_plus,Z_minus,lambda_tilde_plus,lambda_tilde_minus,"
            "cost_final,n_iter,solver_tag,noise_tag,converged,clamped,"
            "n_eval\n"
            f"0.2,0.99,{table_minus},0.2,{table_minus},1e-12,40,ed,off,"
            f"True,False,80\n")
        cfg = write_cfg(tmp_path, f"[lattice]\nn_c = {n_c}\n\n"
                                  f"[sweep]\nu_values = 0.2\n\n"
                                  f"[ansatz]\ntag = {tag}\n\n"
                                  f"[output]\nclassical_table = {table}\n")
        assert main(["risb-sweep", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"but [lattice] n_c = {n_c}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_reference_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# config = x\nU,Z_plus\n0.2,1.0\n")
        from dataclasses import replace
        cfg = replace(parse_config(""), classical_table=str(bad))
        with pytest.raises(ConfigError, match="malformed"):
            load_reference(cfg)


class TestVqeCommand:
    CFG = """\
[lattice]
n_c = 1

[sweep]
u_values = 1.0

[ansatz]
tag = mr
basis = exact-no

[optimizer]
n_starts = 2
"""

    def test_trace_files_and_summary(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "v"
        assert main(["vqe", "--config", cfg, "--out", str(out)]) == 0
        traces = sorted(p.name for p in out.glob("*_u1_s*.csv"))
        assert traces == ["run_vqe_mr_exact-no_off_u1_s7.csv",
                          "run_vqe_mr_exact-no_off_u1_s8.csv"]
        rows = read_table(out / traces[0])
        assert rows and set(rows[0]) == {"step", "energy"}
        assert all(isinstance(r["energy"], float) for r in rows)
        summary = json.loads(
            (out / "run_vqe_mr_exact-no_off_summary.json").read_text())
        record = summary["runs"][0]
        assert record["rel_error"] < 1e-8
        assert len(record["energies"]) == 2
        assert summary["artifact_version"] == "2"

    def test_seed_flag_renames_traces(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out = tmp_path / "v"
        assert main(["vqe", "--config", cfg, "--out", str(out),
                     "--seed", "41"]) == 0
        assert (out / "run_vqe_mr_exact-no_off_u1_s41.csv").exists()
        assert (out / "run_vqe_mr_exact-no_off_u1_s42.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["vqe", "--config", cfg, "--out", str(a)]) == 0
        assert main(["vqe", "--config", cfg, "--out", str(b)]) == 0
        for path in a.iterdir():
            assert (b / path.name).read_bytes() == path.read_bytes()

    def test_one_ground_state_solve_per_u_point(self, tmp_path,
                                                monkeypatch):
        # e0 and the exact-NO basis come from the same solve
        cfg = write_cfg(tmp_path, self.CFG.replace("u_values = 1.0",
                                                   "u_values = 0.5, 1.0"))
        solves = count_solves(monkeypatch)
        assert main(["vqe", "--config", cfg, "--out",
                     str(tmp_path / "v")]) == 0
        assert len(solves) == 2

    @staticmethod
    def assert_threads_agree(tmp_path, optimizer: str):
        """A calibrated-noise n_c = 2 mrep start under one and two BLAS
        threads writes the same bytes."""
        cfg = write_cfg(tmp_path, f"""\
[lattice]
n_c = 2

[sweep]
u_values = 0.05

[ansatz]
tag = mrep
layers = 4
basis = exact-no

[optimizer]
{optimizer}
n_starts = 1
max_iter = 1

[noise]
mode = calibrated
""")
        src = str(Path(risbvqe.__file__).resolve().parents[1])
        outs = [tmp_path / f"threads{n}" for n in (1, 2)]
        for n, out in zip((1, 2), outs):
            subprocess.run(
                [sys.executable, "-m", "risbvqe", "vqe", "--config", cfg,
                 "--out", str(out)], check=True, capture_output=True,
                env=dict(os.environ, PYTHONPATH=src,
                         OPENBLAS_NUM_THREADS=str(n), OMP_NUM_THREADS=str(n),
                         MKL_NUM_THREADS=str(n)))
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == sorted(path.name for path in outs[1].iterdir())
        assert len(names) == 2
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

    def test_artifacts_do_not_depend_on_blas_threads(self, tmp_path):
        # A noisy n_c = 2 start reads <O> as a sum over 4^8 Pauli
        # coefficients, long enough for a BLAS dot to split it across
        # threads; with one and two BLAS threads every byte must agree.
        self.assert_threads_agree(tmp_path, "tag = nelder-mead")

    def test_noisy_bfgs_artifacts_do_not_depend_on_blas_threads(
            self, tmp_path):
        # BFGS reads <O> and its gradient off the adjoint sweep, whose
        # overlaps are GEMMs over the rest of the register
        self.assert_threads_agree(tmp_path, "tag = bfgs")


class TestNoizeCommand:
    def test_step_records(self, tmp_path):
        cfg = write_cfg(tmp_path, """\
[lattice]
n_c = 1
u = 1.0

[ansatz]
tag = hea
basis = noize

[optimizer]
n_starts = 2
max_iter = 300
noize_steps = 2
""")
        out = tmp_path / "n"
        assert main(["noize", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "run_noize_hea_off.json").read_text())
        assert [s["step"] for s in payload["steps"]] == [1, 2]
        assert payload["e0"] < 0
        assert payload["exact_no_energy"] >= payload["e0"] - 1e-9
        assert all(math.isfinite(s["energy"]) for s in payload["steps"])

    # five iterations leave the spin blocks apart (ROADMAP item 3)
    @pytest.mark.filterwarnings("ignore:spin blocks differ")
    def test_one_ground_state_solve(self, tmp_path, monkeypatch):
        # e0 and the exact-NO reference's basis come from the same solve
        cfg = write_cfg(tmp_path, """\
[lattice]
n_c = 1
u = 1.0

[ansatz]
tag = hea
basis = noize

[optimizer]
n_starts = 1
max_iter = 5
noize_steps = 1
""")
        solves = count_solves(monkeypatch)
        assert main(["noize", "--config", cfg, "--out",
                     str(tmp_path / "n")]) == 0
        assert len(solves) == 1


class TestLandscapeCommand:
    def test_single_node_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, """\
[lattice]
n_c = 1
u = 0.1

[landscape]
r_start = 1.0
r_stop = 1.0
r_num = 1
lam_start = 0.05
lam_stop = 0.05
lam_num = 1
""")
        out = tmp_path / "l"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
        rows = read_table(out / "run_landscape_off.csv")
        assert len(rows) == 1
        assert rows[0]["cost"] < 1e-2

    @pytest.mark.parametrize("flag, scale", [("calibrated", 1.0),
                                             ("scale=0.5", 0.5)])
    def test_noise_scale_column(self, tmp_path, flag, scale):
        cfg = write_cfg(tmp_path, """\
[lattice]
n_c = 1
u = 0.1

[landscape]
r_start = 1.0
r_stop = 1.0
r_num = 1
lam_start = 0.05
lam_stop = 0.05
lam_num = 1
""")
        out = tmp_path / "l"
        assert main(["landscape", "--config", cfg, "--out", str(out),
                     "--noise", flag]) == 0
        tag = "calibrated" if scale == 1.0 else "scale0.5"
        rows = read_table(out / f"run_landscape_{tag}.csv")
        assert [row["scale"] for row in rows] == [scale]

    def test_minimum_sits_at_self_consistent_node(self, tmp_path):
        cfg = write_cfg(tmp_path, """\
[lattice]
n_c = 1
u = 0.1

[landscape]
r_start = 0.9
r_stop = 1.0
r_num = 2
lam_start = 0.03
lam_stop = 0.05
lam_num = 2
""")
        out = tmp_path / "l"
        assert main(["landscape", "--config", cfg, "--out", str(out)]) == 0
        rows = read_table(out / "run_landscape_off.csv")
        assert len(rows) == 4
        best = min(rows, key=lambda r: r["cost"])
        assert (best["R"], best["lambda"]) == (1.0, 0.05)
