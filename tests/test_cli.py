import json
import math
from pathlib import Path

import numpy as np
import pytest

from risbvqe import SolverFailure
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


def write_cfg(tmp_path: Path, text: str, name: str = "cfg.ini") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        for u in ("0", "0.2", "0.4"):
            trace = read_table(out / f"run_trace_ed_off_u{u}.csv")
            assert trace and set(trace[0]) == {"step", "cost"}
            assert [r["step"] for r in trace] == list(range(len(trace)))
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
        assert lines[1] == "# artifact_version = 1"


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
        assert summary["artifact_version"] == "1"

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
