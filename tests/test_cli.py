import dataclasses
import json
from pathlib import Path

import pytest

from kinetic_gap import cli


def hard_sphere_config(n=2, N=3, q=6, sphere="coarse", m_max=1, seed=11,
                       mc=20_000, **extra):
    phi = [[{"type": "power", "C": 1.0, "gamma": 1.0}] * n for _ in range(n)]
    b = [[{"type": "constant", "c": 1.0}] * n for _ in range(n)]
    cfg = {
        "mixture": {"species": [{"rho_inf": 1.0 + 0.5 * i} for i in range(n)]},
        "kernels": {"gamma": 1.0, "C1": 1.0, "C2": 1.0, "delta": 0.5,
                    "C3": 1.0, "C4": 1.0, "beta": 1.0, "phi": phi, "b": b},
        "discretization": {"N": N, "hermite_q": q, "sphere_level": sphere,
                           "M_max": m_max},
        "budgets": {"mc_samples": mc, "seed": seed, "audit_samples": 1000,
                    "lemma_samples": 200},
        "decay": {"dt": 0.05, "t_end": 4.0, "record_every": 2,
                  "amplitude": 0.01},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(args):
    return cli.main(args)


def with_value(cfg, path, value):
    """``cfg`` with the entry at ``path`` replaced; ``()`` replaces it all."""
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


MALFORMED = [
    ("N_string", ("discretization", "N"), "abc"),
    ("species_entry_not_object", ("mixture", "species", 0), 3),
    ("mixture_null", ("mixture",), None),
    ("phi_entry_not_object", ("kernels", "phi", 0, 0), "power"),
    ("top_level_list", (), [1, 2]),
    ("budget_string", ("budgets", "mc_samples"), "many"),
    ("poly_coefficient_string", ("kernels", "b", 0, 0),
     {"type": "poly", "coeffs": ["one"]}),
    ("decay_dt_string", ("decay", "dt"), "fast"),
    ("hermite_q_not_above_N", ("discretization", "hermite_q"), 3),  # N = 3
]


class TestValidation:
    def test_gamma_out_of_range_is_config_error(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["kernels"]["gamma"] = 1.5
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = run_cli(["audit", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_negative_rho_rejected(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["mixture"]["species"][0]["rho_inf"] = -1.0
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    def test_bad_decay_options(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["decay"]["dt"] = -0.1
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("path,value", [m[1:] for m in MALFORMED],
                             ids=[m[0] for m in MALFORMED])
    def test_malformed_config_is_one_line_error(self, tmp_path, capsys,
                                                path, value):
        cfg = with_value(hard_sphere_config(), path, value)
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    def test_threads_validated(self, tmp_path):
        cfg = hard_sphere_config()
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out"), "--threads", "0"])
        assert code == cli.EXIT_CONFIG


class TestAudit:
    def test_hard_sphere_passes(self, tmp_path):
        cfg = hard_sphere_config()
        out = tmp_path / "out"
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "audit.json").read_text())
        assert payload["passed"] is True
        assert payload["schema_version"] == 1

    def test_odd_angular_fails_naming_A5(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["kernels"]["b"][0][1] = {"type": "poly", "coeffs": [1.0, 0.5]}
        cfg["kernels"]["b"][1][0] = {"type": "poly", "coeffs": [1.0, 0.5]}
        out = tmp_path / "out"
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_AUDIT
        payload = json.loads((out / "audit.json").read_text())
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert "A5" in failed

    def test_commands_gate_on_audit(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["kernels"]["b"][0][1] = {"type": "poly", "coeffs": [1.0, 0.5]}
        cfg["kernels"]["b"][1][0] = {"type": "poly", "coeffs": [1.0, 0.5]}
        path = write_config(tmp_path, cfg)
        for command in ("constants", "spectrum"):
            code = run_cli([command, "--config", path,
                            "--out", str(tmp_path / command)])
            assert code == cli.EXIT_AUDIT


class TestSpectrum:
    def test_kernel_dimension_gate(self, tmp_path):
        cfg = hard_sphere_config(n=2)
        out = tmp_path / "out"
        code = run_cli(["spectrum", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["spectrum"]["kernel_dim"] == 6
        assert payload["spectrum"]["lambda_min_flat"] >= \
            payload["spectrum"]["essential_onset"] - 1e-6
        csv = (out / "eigenvalues.csv").read_text().splitlines()
        assert csv[0] == "index,eigenvalue"
        assert len(csv) == 1 + 40   # N=3, n=2: 2 * C(6,3) = 40

    def test_single_species_dimension(self, tmp_path):
        cfg = hard_sphere_config(n=1)
        out = tmp_path / "out"
        code = run_cli(["spectrum", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["spectrum"]["kernel_dim"] == 5


class TestConstants:
    def test_full_report_with_gate(self, tmp_path):
        cfg = hard_sphere_config()
        out = tmp_path / "out"
        code = run_cli(["constants", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "constants.json").read_text())
        c = payload["constants"]
        assert 0.0 < c["lambda_explicit"] <= c["lambda_numeric"] * 1.05
        assert set(c["provenance"]) >= {"nu0", "C_m", "D_b", "C_k",
                                        "lambda_numeric"}
        assert c["provenance"]["D_b"]["method"] == "monte_carlo"
        for entry in payload["lemma_ledger"]:
            assert entry["violations"] == 0
        assert payload["hypotheses"]["nu_bar_3"] == 0.5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = hard_sphere_config(seed=77)
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["constants", "--config", path, "--out", str(out1)]) == 0
        assert run_cli(["constants", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "constants.json").read_bytes() \
            == (out2 / "constants.json").read_bytes()
        assert (out1 / "eigenvalues.csv").read_bytes() \
            == (out2 / "eigenvalues.csv").read_bytes()

    @pytest.mark.parametrize("field", ["h12_violations",
                                       "h2_holdout_violations"])
    def test_hypothesis_violations_gate(self, tmp_path, monkeypatch, field):
        verify = cli.sp.verify_H1_H3
        monkeypatch.setattr(cli.sp, "verify_H1_H3", lambda *a, **k:
                            dataclasses.replace(verify(*a, **k), **{field: 1}))
        out = tmp_path / "out"
        code = run_cli(["constants", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(out)])
        assert code == cli.EXIT_GATE
        payload = json.loads((out / "constants.json").read_text())
        assert payload["hypotheses"][field] == 1

    def test_seed_override_changes_mc(self, tmp_path):
        cfg = hard_sphere_config(seed=1)
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli(["constants", "--config", path, "--out", str(out1)])
        run_cli(["constants", "--config", path, "--out", str(out2),
                 "--seed", "2"])
        a = json.loads((out1 / "constants.json").read_text())
        b = json.loads((out2 / "constants.json").read_text())
        assert a["constants"]["D_b"] != b["constants"]["D_b"]


class TestDecay:
    def test_reference_small_run(self, tmp_path):
        cfg = hard_sphere_config()
        out = tmp_path / "out"
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "decay.json").read_text())
        assert payload["decay"]["tau_fit"] > 0.0
        assert payload["decay"]["r_squared"] >= 0.99
        assert payload["g_monotone"] is True
        assert payload["conserved_drift_per_unit_time"] < 1e-9
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0].startswith("t,mode_")
        assert rows[0].endswith("h1_distance,G")

    def test_nonpositive_kappa_gates(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.ev, "certify_coefficients",
                            lambda *a, **k: 0.0)
        out = tmp_path / "out"
        code = run_cli(["decay", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(out)])
        assert code == cli.EXIT_GATE
        payload = json.loads((out / "decay.json").read_text())
        assert payload["kappa_certified"] == 0.0
        assert payload["decay"]["r_squared"] >= 0.99 and payload["g_monotone"]

    def test_conserved_drift_gates(self, tmp_path, monkeypatch):
        evolve = cli.ev.evolve

        def drifting(*args, **kwargs):
            traj = evolve(*args, **kwargs)
            traj.states[-1].modes[(0, 0, 0)] += 1e-6
            return traj

        monkeypatch.setattr(cli.ev, "evolve", drifting)
        out = tmp_path / "out"
        code = run_cli(["decay", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(out)])
        assert code == cli.EXIT_GATE
        payload = json.loads((out / "decay.json").read_text())
        assert payload["conserved_drift_per_unit_time"] >= 1e-9
        assert payload["kappa_certified"] > 0.0
        assert payload["decay"]["r_squared"] >= 0.99 and payload["g_monotone"]

    def test_equilibrium_initial_data_is_trivial(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["decay"]["initial"] = "equilibrium"
        out = tmp_path / "out"
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        payload = json.loads((out / "decay.json").read_text())
        assert payload["decay"]["trivial_decay"] is True

    def test_outputs_stay_in_out_dir(self, tmp_path):
        cfg = hard_sphere_config()
        out = tmp_path / "only_here"
        path = write_config(tmp_path, cfg)
        before = set(tmp_path.iterdir())
        run_cli(["decay", "--config", path, "--out", str(out)])
        after = set(tmp_path.iterdir()) - {out}
        assert before == after
