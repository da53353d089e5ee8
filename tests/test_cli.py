import dataclasses
import json
import math
import operator
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from kinetic_gap import cli, galerkin
from kinetic_gap.galerkin import build_operator_set

from oracles import compute_Cm


def hard_sphere_config(n=2, N=3, q=6, m_max=1, seed=11,
                       mc=20_000, **extra):
    phi = [[{"type": "power", "C": 1.0, "gamma": 1.0}] * n for _ in range(n)]
    b = [[{"type": "constant", "c": 1.0}] * n for _ in range(n)]
    cfg = {
        "mixture": {"species": [{"rho_inf": 1.0 + 0.5 * i} for i in range(n)]},
        "kernels": {"gamma": 1.0, "C1": 1.0, "C2": 1.0, "delta": 0.5,
                    "C3": 1.0, "C4": 1.0, "beta": 1.0, "phi": phi, "b": b},
        "discretization": {"N": N, "hermite_q": q, "M_max": m_max},
        "budgets": {"mc_samples": mc, "seed": seed, "audit_samples": 1000},
        "decay": {"dt": 0.05, "t_end": 4.0, "record_every": 2},
    }
    cfg.update(extra)
    return cfg


# nu_i(0) = 4 pi (2 pi)^{-3/2} 8 pi rho_total for the hard spheres of
# hard_sphere_config(n=2), rho_total = 2.5
HARD_SPHERE_NU_MIN = 4.0 * math.pi * (2.0 * math.pi) ** -1.5 * 8.0 * math.pi * 2.5


def write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_cli(args):
    return cli.main(args)


def cli_env() -> dict:
    """The environment of this process with the package's source directory
    first on PYTHONPATH, for a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def trajectory_column(out_dir, name) -> list:
    """The column ``name`` of ``out_dir/trajectory.csv`` as floats."""
    header, *rows = (out_dir / "trajectory.csv").read_text().splitlines()
    k = header.split(",").index(name)
    return [float(r.split(",")[k]) for r in rows]


def with_value(cfg, path, value):
    """``cfg`` with the entry at ``path`` replaced; ``()`` replaces it all."""
    if not path:
        return value
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def patch_Cm(monkeypatch, value):
    """Make ``value`` the C^m of ``constants``: the first eigenvalue of its
    complement spectrum, the rest (and so the resolution floor) kept."""
    spectrum = cli.sp.complement_spectrum
    monkeypatch.setattr(cli.sp, "complement_spectrum",
                        lambda *a: np.concatenate([[value], spectrum(*a)[1:]]))


def constants_gate_failure(tmp_path, cfg, threads: str, capsys) -> str:
    """Run ``constants`` on ``cfg`` at ``--threads threads`` on a helper
    thread joined with a timeout; check that it ends in a gate failure
    with one line on stderr, writes no file and leaves no thread behind,
    and return that line."""
    out = tmp_path / "out"
    argv = ["constants", "--config", write_config(tmp_path, cfg),
            "--out", str(out), "--threads", threads]
    before = threading.active_count()
    codes = []
    runner = threading.Thread(target=lambda: codes.append(cli.main(argv)))
    runner.start()
    runner.join(timeout=300)
    assert not runner.is_alive()
    assert threading.active_count() == before
    err = capsys.readouterr().err
    assert codes == [cli.EXIT_GATE]
    assert len(err.splitlines()) == 1
    assert list(out.iterdir()) == []
    return err


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
    ("negative_seed", ("budgets", "seed"), -1),
    # JSON as read by Python admits NaN and Infinity
    ("dt_nan", ("decay", "dt"), math.nan),
    ("dt_nan_string", ("decay", "dt"), "nan"),
    ("t_end_infinite", ("decay", "t_end"), math.inf),
    ("N_infinite", ("discretization", "N"), math.inf),
    ("seed_infinite", ("budgets", "seed"), math.inf),
    ("record_every_infinite", ("decay", "record_every"), math.inf),
    ("rho_inf_infinite", ("mixture", "species", 0, "rho_inf"), math.inf),
    ("kernel_C2_nan", ("kernels", "C2"), math.nan),
    ("kernel_beta_infinite", ("kernels", "beta"), math.inf),
    ("phi_C_infinite", ("kernels", "phi", 0, 0),
     {"type": "power", "C": math.inf, "gamma": 1.0}),
    # integer fields must be integral, and booleans are not numbers
    ("N_fractional", ("discretization", "N"), 4.7),
    ("seed_fractional", ("budgets", "seed"), 1.5),
    ("record_every_fractional", ("decay", "record_every"), 2.5),
    ("rho_inf_bool", ("mixture", "species", 0, "rho_inf"), True),
    ("seed_bool", ("budgets", "seed"), True),
    # nor are strings, even those that spell one
    ("N_numeric_string", ("discretization", "N"), "3"),
    ("dt_numeric_string", ("decay", "dt"), "0.05"),
    ("seed_numeric_string", ("budgets", "seed"), "7"),
    # t_end / dt overflows to inf
    ("decay_steps_overflow", ("decay",), {"dt": 1e-300, "t_end": 1e10}),
    # 6e20 steps, more than a Python range can report as its length
    ("decay_steps_beyond_ssize", ("decay",), {"dt": 1e-20, "t_end": 6.0}),
    # fewer than 20 recorded times at or after 0.2 t_end (17 and 7 here)
    ("decay_schedule_too_short", ("decay", "t_end"), 2.0),
    ("decay_schedule_too_sparse", ("decay", "record_every"), 10),
    # rho_i rho_j overflows, so the assembled operators hold inf and NaN
    ("rho_inf_overflows_operators", ("mixture", "species"),
     [{"rho_inf": 1e300}, {"rho_inf": 1e300}]),
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

    def test_non_utf8_config_is_one_line_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_bytes(b"\xff\xfe{}")
        code = run_cli(["audit", "--config", str(config),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"config error: cannot read config {config}: ")
        assert len(err.splitlines()) == 1

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

    def test_negative_seed_override_is_one_line_error(self, tmp_path, capsys):
        code = run_cli(["decay", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(tmp_path / "out"), "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["discretization"]["N"] = 3.0
        assert cli.parse_discretization(cfg)["N"] == 3
        assert cli.parse_budgets({"budgets": {"seed": 7.0}})["seed"] == 7

    def test_audit_samples_is_ignored(self):
        # the audit is decided in closed form and nothing else is sampled
        # but D^b; these keys are read like any unknown one
        budgets = cli.parse_budgets({"budgets": {"audit_samples": 5,
                                                 "lemma_samples": 0}})
        assert budgets == {"mc_samples": 100_000, "seed": 0}

    def spectrum_bytes(self, tmp_path, cfg, name):
        out = tmp_path / name
        assert run_cli(["spectrum", "--config",
                        write_config(tmp_path, cfg, f"{name}.json"),
                        "--out", str(out)]) == cli.EXIT_OK
        return [(out / f).read_bytes()
                for f in ("spectrum.json", "eigenvalues.csv")]

    def test_sphere_level_is_ignored(self, tmp_path):
        # the sphere rule is sized from N and b, so the former knob is
        # read like any unknown key, whatever its value
        outputs = []
        for level in ("fine", "ultra", None):
            cfg = hard_sphere_config()
            if level is not None:
                cfg["discretization"]["sphere_level"] = level
            outputs.append(self.spectrum_bytes(tmp_path, cfg, str(level)))
        assert outputs[0] == outputs[1] == outputs[2]
        assert b"sphere_level" not in outputs[0][0]

    def test_trailing_zero_coefficients_change_no_byte(self, tmp_path):
        # zero coefficients do not raise the degree of b, nor the rule's
        outputs = []
        for coeffs in ([1.0], [1.0, 0.0, 0.0, 0.0]):
            cfg = hard_sphere_config()
            cfg["kernels"]["b"] = [[{"type": "poly", "coeffs": coeffs}] * 2
                                   for _ in range(2)]
            outputs.append(self.spectrum_bytes(tmp_path, cfg,
                                               f"b{len(coeffs)}"))
        assert outputs[0] == outputs[1]

    def test_removed_decay_keys_are_ignored(self, tmp_path, capsys):
        # a decay run starts at unit H1 distance from a random state and
        # integrates with expm propagators, so the former decay.amplitude,
        # decay.initial and decay.scheme are read like any unknown key
        removed = [{}] \
            + [{"amplitude": a} for a in (1e-14, 1e-2, 1e5, 1e200)] \
            + [{"initial": "equilibrium"}, {"scheme": "midpoint"},
               {"scheme": "rk9"}]
        outputs = []
        for i, keys in enumerate(removed):
            cfg = hard_sphere_config()
            cfg["decay"].update(keys)
            out = tmp_path / f"out{i}"
            assert run_cli(["decay", "--config",
                            write_config(tmp_path, cfg, f"run{i}.json"),
                            "--out", str(out)]) == cli.EXIT_OK, keys
            outputs.append([(out / f).read_bytes()
                            for f in ("decay.json", "trajectory.csv")])
        assert all(o == outputs[0] for o in outputs)
        assert capsys.readouterr().err == ""
        echo = json.loads(outputs[0][0])["integration"]
        assert echo == {"dt": 0.05, "t_end": 4.0, "record_every": 2}

    def test_decay_memory_bound_is_a_parse_error(self):
        # three copies of the recorded states of (2 M_max + 1)^3 // 2 + 1
        # modes, T = 40 and 41 recorded times: about 19 GiB
        with pytest.raises(cli.ConfigError, match="M_max = 40"):
            cli.parse_decay(hard_sphere_config(m_max=40))
        cli.parse_decay(hard_sphere_config(m_max=5))

    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.03, 1.0 / 3.0, 0.07])
    def test_decay_schedule_counts_match_recorded_steps(self, dt):
        # parse_decay counts the schedule that evolve records; the fit
        # window is the recorded times at or after 0.2 of the last one
        cfg = hard_sphere_config()
        for t_end in (1.0, 2.0, 2.9, 6.0):
            for every in (1, 2, 3, 7):
                cfg["decay"].update(dt=dt, t_end=t_end, record_every=every)
                times = [k * dt for k in cli.ev.recorded_steps(dt, t_end,
                                                               every)]
                kept = sum(t >= 0.2 * times[-1] for t in times)
                if kept >= cli.ev.FIT_MIN_POINTS:
                    cli.parse_decay(cfg)
                    continue
                with pytest.raises(cli.ConfigError,
                                   match=f"records {kept} times "):
                    cli.parse_decay(cfg)

    def test_tiny_decay_step_is_rejected_without_listing_steps(self):
        # 6e12 steps: the memory bound rejects the schedule at once
        cfg = hard_sphere_config()
        cfg["decay"].update(dt=1e-12, t_end=6.0)
        t0 = time.perf_counter()
        with pytest.raises(cli.ConfigError, match="GiB"):
            cli.parse_decay(cfg)
        assert time.perf_counter() - t0 < 1.0

    def test_decay_memory_bound_counts_independent_modes(self):
        # N = 4, n = 2 (T = 70), 41 recorded times: the K // 2 + 1 modes
        # that decay evolves fit the 2 GiB cap up to M_max = 15
        cli.parse_decay(hard_sphere_config(N=4, m_max=15))
        with pytest.raises(cli.ConfigError, match="M_max = 16"):
            cli.parse_decay(hard_sphere_config(N=4, m_max=16))

    def test_over_budget_decay_exits_before_assembly(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_assembly(*args, **kwargs):
            pytest.fail("an over-budget decay reached assembly")
        monkeypatch.setattr(cli, "build_operator_set", no_assembly)
        code = run_cli(["decay", "--config",
                        write_config(tmp_path, hard_sphere_config(m_max=40)),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: decay at discretization.M_max")
        assert len(err.splitlines()) == 1

    def test_over_budget_assembly_exits_before_node_table(
            self, tmp_path, capsys, monkeypatch):
        # N = 30, q = 64: the (nb, Qn) Hermite table alone is 10.7 GiB
        def no_table(*args, **kwargs):
            pytest.fail("an over-budget assembly built its node table")
        monkeypatch.setattr(galerkin, "hermite_table_3d", no_table)
        code = run_cli(["spectrum", "--config",
                        write_config(tmp_path, hard_sphere_config(N=30, q=64)),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: assembly needs at least")
        assert len(err.splitlines()) == 1

    def test_high_degree_b_exits_before_the_sphere_rule(
            self, tmp_path, capsys, monkeypatch):
        # b = 1 + t^800 / 1000 passes the audit; at N = 12 the sphere rule
        # exact to degree 824 has 413 x 826 nodes, and one (v, v*) pair of
        # its half needs 3.7 GB of scratch
        def no_rule(*args, **kwargs):
            pytest.fail("an over-budget assembly built its sphere rule")
        monkeypatch.setattr(galerkin, "half_sphere_rule", no_rule)
        cfg = hard_sphere_config(n=1, N=12, q=13)
        cfg["kernels"]["b"] = [[{"type": "poly",
                                 "coeffs": [1.0] + [0.0] * 799 + [1e-3]}]]
        cfg["kernels"]["C3"] = 2.0
        code = run_cli(["spectrum", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: assembly needs at least")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_unusable_out_dir_is_one_line_error(self, tmp_path, capsys, out):
        # an existing file where the directory, or one of its parents, goes
        (tmp_path / "afile").write_text("")
        code = run_cli(["audit", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: cannot create output directory ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,name", [
        ("audit", "audit.json"), ("spectrum", "spectrum.json"),
        ("spectrum", "eigenvalues.csv"), ("constants", "constants.json"),
        ("constants", "eigenvalues.csv"), ("decay", "decay.json"),
        ("decay", "trajectory.csv")])
    def test_failed_output_write_is_one_line_error(self, tmp_path, capsys,
                                                   command, name):
        # a directory where an output file goes
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        code = run_cli([command, "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(out)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert len(err.splitlines()) == 1

    def test_threads_validated(self, tmp_path):
        cfg = hard_sphere_config()
        code = run_cli(["audit", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out"), "--threads", "0"])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_threads_env_validated(self, tmp_path, capsys, monkeypatch,
                                   value):
        monkeypatch.setenv("KINETIC_GAP_THREADS", value)
        code = run_cli(["audit", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        if value == "0":
            assert err == "error: KINETIC_GAP_THREADS must be >= 1, got 0\n"


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

    def test_vanishing_angular_part_fails_A4(self, tmp_path):
        # b = cos^2 theta is 0 at theta = pi/2
        cfg = hard_sphere_config(n=1)
        cfg["kernels"]["b"] = [[{"type": "poly", "coeffs": [0.0, 0.0, 1.0]}]]
        cfg["kernels"]["C4"] = 2.0
        out = tmp_path / "out"
        code = run_cli(["spectrum", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_AUDIT
        payload = json.loads((out / "spectrum.json").read_text())
        failed = [c for c in payload["audit"]["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == ["A4"]
        assert failed[0]["witness"]["violated"] == "positivity b > 0"
        assert failed[0]["witness"]["cos_theta"] == 0.0


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
        assert payload["spectrum"]["nu_min"] == pytest.approx(
            HARD_SPHERE_NU_MIN, rel=1e-13)
        csv = (out / "eigenvalues.csv").read_text().splitlines()
        assert csv[0] == "index,eigenvalue"
        assert len(csv) == 1 + 40   # N=3, n=2: 2 * C(6,3) = 40

    def test_outputs_independent_of_request_order(self, tmp_path):
        # the second request of each order reuses the first one's cached
        # collision blocks; outputs must not show it
        configs = {name: write_config(tmp_path, hard_sphere_config(
            mixture={"species": [{"rho_inf": r} for r in rho]}), f"{name}.json")
            for name, rho in (("A", (1.0, 1.5)), ("B", (0.7, 2.1)))}
        outputs = {}
        for order in ("AB", "BA"):
            galerkin._monomial_blocks.clear()
            for name in order:
                out = tmp_path / order / name
                assert run_cli(["spectrum", "--config", configs[name],
                                "--out", str(out)]) == cli.EXIT_OK
                outputs[order, name] = [(out / f).read_bytes() for f in
                                        ("spectrum.json", "eigenvalues.csv")]
        assert outputs["AB", "A"] == outputs["BA", "A"]
        assert outputs["AB", "B"] == outputs["BA", "B"]

    def test_tiny_density_is_certified(self, tmp_path):
        cfg = hard_sphere_config()
        cfg["mixture"]["species"][0]["rho_inf"] = 1e-30
        code = run_cli(["spectrum", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_OK

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
        assert c["nu_min"] == pytest.approx(HARD_SPHERE_NU_MIN, rel=1e-13)
        assert c["C_b"] == pytest.approx(4.0 * math.pi, rel=1e-15)
        for entry in payload["lemma_ledger"]:
            assert entry["violations"] == 0
        assert payload["hypotheses"]["nu_bar_3"] == 0.5
        assert payload["kernel_dim"] == payload["expected_kernel_dim"] == 6

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tiny_density_ends_in_a_documented_exit(self, tmp_path, capsys,
                                                    threads):
        # at rho_inf = 1e-30 C^m is roundoff-sized (-1.9e-16 with reference
        # OpenBLAS, against a largest eigenvalue 0.83 of the same pencil),
        # so it fails the gate at dim * eps * max|mu| whatever its sign
        cfg = hard_sphere_config()
        cfg["mixture"]["species"][0]["rho_inf"] = 1e-30
        err = constants_gate_failure(tmp_path, cfg, threads, capsys)
        assert err.startswith("gate failure: C^m = ")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_roundoff_sized_positive_Cm_is_gate_failure(
            self, tmp_path, capsys, monkeypatch, threads):
        # the other sign of the roundoff above: 1e-16 is below the floor
        patch_Cm(monkeypatch, 1e-16)
        err = constants_gate_failure(tmp_path, hard_sphere_config(), threads,
                                     capsys)
        assert err.startswith("gate failure: C^m = 1.000000e-16 ")

    def test_small_density_is_resolved(self, tmp_path, capsys):
        # at rho_inf = 1e-12 C^m (2.5e-13) is well above the floor (5.5e-15)
        cfg = hard_sphere_config()
        cfg["mixture"]["species"][0]["rho_inf"] = 1e-12
        ops = build_operator_set(cli.parse_mixture(cfg),
                                 cli.parse_family(cfg, 2), N=3, q=6)
        W = cli.sp.complement_basis(ops.ker_Lm, ops.total_size)
        A = W.T @ -ops.Lm @ W
        B = W.T @ ops.hgram @ W
        mu = cli.sp.generalized_eigs(0.5 * (A + A.T), 0.5 * (B + B.T))
        floor = mu.size * np.finfo(float).eps * np.max(np.abs(mu))
        assert compute_Cm(ops) > 10.0 * floor
        code = run_cli(["constants", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == ""
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("constant", ["C_m", "D_b", "C_k"])
    def test_nonpositive_constant_is_one_line_gate_failure(
            self, tmp_path, capsys, monkeypatch, constant, threads):
        if constant == "C_m":
            patch_Cm(monkeypatch, -2.7e-16)
        elif constant == "D_b":
            monkeypatch.setattr(cli.sp, "compute_Db", lambda *a, **k:
                                cli.sp.DbEstimate(0.0, 0.0, (0, 0), {}, 1))
        else:
            monkeypatch.setattr(cli.sp, "compute_Ck",
                                lambda *a: (0.0, None))
        err = constants_gate_failure(tmp_path, hard_sphere_config(), threads,
                                     capsys)
        name = {"C_m": "C^m", "D_b": "D^b", "C_k": "C_k"}[constant]
        assert err.startswith(f"gate failure: {name} = ")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_forms_end_in_a_gate_failure(self, tmp_path, capsys,
                                                     threads):
        # at self-collision phi C = 1e300 the operators are finite, but
        # |grad nu|^2 in nu_bar_4, and so the (H1.2) forms, overflow; the
        # cross kernel keeps C = 1, so the smallest D^b (the cross pair)
        # stays finite and the request gets as far as (H1.2)
        cfg = hard_sphere_config()
        cfg["kernels"].update(C2=1e300)
        for i, row in enumerate(cfg["kernels"]["phi"]):
            row[i] = {"type": "power", "C": 1e300, "gamma": 1.0}
        err = constants_gate_failure(tmp_path, cfg, threads, capsys)
        assert err.startswith("gate failure: the quadratic forms of H1.2")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_Db_ends_in_a_gate_failure(self, tmp_path, capsys,
                                                   threads):
        # at phi C = 1e300 in every pair the D^b sum of squares overflows,
        # but the (H1.2) forms overflow too, and (H1.2) comes first in the
        # chain
        cfg = hard_sphere_config()
        cfg["kernels"].update(C1=1e300, C2=1e300)
        for row in cfg["kernels"]["phi"]:
            row[:] = [{"type": "power", "C": 1e300, "gamma": 1.0}] * len(row)
        err = constants_gate_failure(tmp_path, cfg, threads, capsys)
        assert err.startswith("gate failure: the quadratic forms of H1.2")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_nonfinite_Db_is_one_line_gate_failure(self, tmp_path, capsys,
                                                   monkeypatch, threads):
        # weights of 1e300 leave every other gate as it is, but the sum of
        # squares of the D^b samples overflows and its standard error is
        # NaN, which must fail the D^b gate
        integrand = cli.sp._db_integrand

        def overflowing(*chunk):
            r, cos_t, w = integrand(*chunk)
            return r, cos_t, w * 1e300

        monkeypatch.setattr(cli.sp, "_db_integrand", overflowing)
        err = constants_gate_failure(tmp_path, hard_sphere_config(), threads,
                                     capsys)
        assert err.startswith("gate failure: D^b estimate")
        assert "is not finite" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_first_failure_in_chain_order_is_reported(
            self, tmp_path, capsys, monkeypatch, threads):
        # C_k comes before D^b in the chain, so of the two failures C_k's
        # is the one reported
        monkeypatch.setattr(cli.sp, "compute_Ck", lambda *a: (0.0, None))
        monkeypatch.setattr(cli.sp, "compute_Db", lambda *a, **k:
                            cli.sp.DbEstimate(0.0, 0.0, (0, 0), {}, 1))
        err = constants_gate_failure(tmp_path, hard_sphere_config(), threads,
                                     capsys)
        assert err.startswith("gate failure: C_k = ")

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("overflow, code, message", [
        ("every_kernel", cli.EXIT_GATE,
         "gate failure: the quadratic forms of H1.2"),
        ("self_kernels", cli.EXIT_GATE,
         "gate failure: the quadratic forms of H1.2"),
        ("rho_inf", cli.EXIT_CONFIG, "config error: the collision operators")])
    def test_overflow_prints_one_line_in_a_fresh_process(
            self, tmp_path, overflow, code, message, threads):
        # pytest captures numpy's RuntimeWarnings in-process; only a fresh
        # interpreter shows every line that reaches stderr
        cfg = hard_sphere_config()
        if overflow == "rho_inf":
            cfg["mixture"]["species"] = [{"rho_inf": 1e300}] * 2
        else:
            cfg["kernels"].update(C2=1e300)
            if overflow == "every_kernel":
                cfg["kernels"].update(C1=1e300)
            for i, row in enumerate(cfg["kernels"]["phi"]):
                for j in range(len(row)):
                    if overflow == "every_kernel" or i == j:
                        row[j] = {"type": "power", "C": 1e300, "gamma": 1.0}
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "kinetic_gap.cli", "constants",
             "--config", write_config(tmp_path, cfg), "--out", str(out),
             "--threads", threads],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == code
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith(message)
        assert list(out.iterdir()) == []

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

    @pytest.mark.parametrize("field", ["h12_violations"])
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

    def test_kernel_dimension_gates(self, tmp_path, monkeypatch):
        count = cli.sp.kernel_count
        monkeypatch.setattr(cli.sp, "kernel_count", lambda mu: (
            count(mu)[0] + 1, count(mu)[1]))
        out = tmp_path / "out"
        code = run_cli(["constants", "--config",
                        write_config(tmp_path, hard_sphere_config()),
                        "--out", str(out)])
        assert code == cli.EXIT_GATE
        payload = json.loads((out / "constants.json").read_text())
        assert payload["kernel_dim"] == 7
        assert payload["expected_kernel_dim"] == 6
        assert payload["constants"]["lambda_explicit"] <= \
            1.05 * payload["constants"]["lambda_numeric"]

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
        # the initial state is scaled to unit H1 distance
        assert abs(trajectory_column(out, "h1_distance")[0] - 1.0) <= 1e-15

    @pytest.mark.parametrize("t_end", [195.0, 203.0, 250.0])
    def test_fit_window_ends_at_the_floor(self, tmp_path, t_end):
        # the H1 distance reaches the fit floor near t = 39, long before
        # t_end; the transient is a fraction of that pre-floor horizon
        cfg = hard_sphere_config(seed=3)
        cfg["decay"]["t_end"] = t_end
        out = tmp_path / "out"
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        d = json.loads((out / "decay.json").read_text())["decay"]
        assert math.isfinite(d["tau_fit"]) and d["tau_fit"] > 0.0
        assert d["r_squared"] >= 0.99
        start, end = d["window"]
        assert end < t_end
        times = trajectory_column(out, "t")
        h1 = trajectory_column(out, "h1_distance")
        after = times.index(end) + 1
        assert h1[after] <= cli.ev.FIT_FLOOR < min(h1[:after])
        assert start == min(t for t in times
                            if t >= cli.ev.FIT_TRANSIENT_FRAC * end)

    def test_too_few_samples_before_the_floor_fail_the_fit(self, tmp_path):
        # one record every 2.0: the floor near t = 39 leaves the samples
        # at 8, 10, ..., 38, fewer than the fit needs
        cfg = hard_sphere_config(seed=3)
        cfg["decay"].update(record_every=40, t_end=100.0)
        out = tmp_path / "out"
        code = run_cli(["decay", "--config", write_config(tmp_path, cfg),
                        "--out", str(out)])
        assert code == cli.EXIT_GATE
        payload = json.loads((out / "decay.json").read_text())
        d = payload["decay"]
        assert (d["tau_fit"], d["C_fit"], d["r_squared"]) == (None,) * 3
        assert d["n_points"] == 16 < cli.ev.FIT_MIN_POINTS
        assert d["window"] == [8.0, 38.0]
        gates = {g["name"]: g for g in payload["verdict"]["gates"]}
        assert gates["tau_fit"]["value"] is None
        assert not gates["tau_fit"]["passed"]
        assert not gates["r_squared"]["passed"]

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

        def drifting(state, *args, **kwargs):
            traj = evolve(state, *args, **kwargs)
            traj.coeffs[-1, ~state.modes.any(axis=1)] += 1e-6    # m = 0
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

    def test_outputs_stay_in_out_dir(self, tmp_path):
        cfg = hard_sphere_config()
        out = tmp_path / "only_here"
        path = write_config(tmp_path, cfg)
        before = set(tmp_path.iterdir())
        run_cli(["decay", "--config", path, "--out", str(out)])
        after = set(tmp_path.iterdir()) - {out}
        assert before == after


class TestSeedFree:
    """Only the Monte-Carlo D^b and the decay's initial state are drawn from
    the seed; the (H2) constants and the coefficient search are not."""

    def run(self, tmp_path, command, cfg, name, *extra):
        out = tmp_path / name
        path = write_config(tmp_path, cfg, f"{name}.json")
        assert run_cli([command, "--config", path, "--out", str(out),
                        *extra]) == cli.EXIT_OK
        return (out / f"{command}.json").read_text()

    def test_seed_moves_only_the_drawn_values(self, tmp_path):
        cfg = hard_sphere_config()
        for command, fixed in (("constants", ("hypotheses",)),
                               ("decay", ("coefficients", "kappa_certified"))):
            a, b = (json.loads(self.run(tmp_path, command, cfg,
                                        f"{command}{seed}", "--seed", seed))
                    for seed in ("1", "2"))
            for key in fixed:
                assert json.dumps(a[key], sort_keys=True) \
                    == json.dumps(b[key], sort_keys=True), (command, key)
            moved = ("constants", "D_b") if command == "constants" \
                else ("decay", "tau_fit")
            assert a[moved[0]][moved[1]] != b[moved[0]][moved[1]]

    @pytest.mark.parametrize("command", ["constants", "decay"])
    def test_lemma_samples_changes_no_byte(self, tmp_path, command):
        outputs = []
        for value in (1, 5000, None):
            cfg = hard_sphere_config()
            if value is not None:
                cfg["budgets"]["lemma_samples"] = value
            outputs.append(self.run(tmp_path, command, cfg, f"run{value}"))
        assert outputs[0] == outputs[1] == outputs[2]


# the step lemmas of the ledger, and how each gate compares its value with
# its bound (README, "CLI")
LEDGER = ("ortho", "bi_species", "differences", "full_chain",
          "gap_lower_bound")
GATE_TESTS = {"kernel_dim": operator.eq, "lambda_min_flat": operator.ge,
              "lambda_ratio": operator.le, "H1.2": operator.le,
              "kappa_certified": operator.gt,
              "conserved_drift_per_unit_time": operator.lt,
              "tau_fit": operator.gt, "r_squared": operator.ge,
              "g_monotone": operator.eq,
              **{f"lemma.{name}": operator.le for name in LEDGER}}
GATE_NAMES = {
    "spectrum": ["kernel_dim", "lambda_min_flat"],
    "constants": ["kernel_dim", "lambda_ratio"]
    + [f"lemma.{name}" for name in LEDGER] + ["H1.2"],
    "decay": ["kappa_certified", "conserved_drift_per_unit_time", "tau_fit",
              "r_squared", "g_monotone"],
}


def fail_a_gate(monkeypatch, command):
    """Make one gate of ``command`` fail: one kernel dimension too many, an
    (H1.2) violation, or a negative certified kappa."""
    if command == "spectrum":
        count = cli.sp.kernel_count
        monkeypatch.setattr(cli.sp, "kernel_count", lambda mu: (
            count(mu)[0] + 1, count(mu)[1]))
    elif command == "constants":
        verify = cli.sp.verify_H1_H3
        monkeypatch.setattr(cli.sp, "verify_H1_H3", lambda *a, **k:
                            dataclasses.replace(verify(*a, **k),
                                                h12_violations=1))
    else:
        monkeypatch.setattr(cli.ev, "certify_coefficients",
                            lambda *a, **k: -1.0)


@pytest.mark.parametrize("kind, expected", [
    ("passing", cli.EXIT_OK), ("audit_failing", cli.EXIT_AUDIT),
    ("gate_failing", cli.EXIT_GATE)])
@pytest.mark.parametrize("command", ["spectrum", "constants", "decay"])
def test_exit_code_is_the_verdict(tmp_path, monkeypatch, command, kind,
                                  expected):
    cfg = hard_sphere_config()
    if kind == "audit_failing":     # an odd angular part fails A5
        for i, j in ((0, 1), (1, 0)):
            cfg["kernels"]["b"][i][j] = {"type": "poly", "coeffs": [1.0, 0.5]}
    elif kind == "gate_failing":
        fail_a_gate(monkeypatch, command)
    out = tmp_path / "out"
    code = run_cli([command, "--config", write_config(tmp_path, cfg),
                    "--out", str(out)])
    payload = json.loads((out / f"{command}.json").read_text())
    audit_passed = payload["audit"]["passed"]
    gates = payload["verdict"]["gates"]
    passed = [g["passed"] for g in gates]
    derived = (cli.EXIT_AUDIT if not audit_passed
               else cli.EXIT_OK if all(passed) else cli.EXIT_GATE)
    assert code == derived == expected
    assert payload["verdict"]["certified"] == (code == cli.EXIT_OK)
    if kind == "audit_failing":
        assert gates == [] and payload[command] is None
        return
    assert [g["name"] for g in gates] == GATE_NAMES[command]
    for g in gates:
        test = GATE_TESTS[g["name"]]
        holds = g["value"] is not None and test(g["value"], g["bound"])
        assert g["passed"] == holds, g


def test_cli_import_does_not_load_scipy_integrate():
    # a fresh interpreter: the test session itself may have loaded it
    probe = ("import sys, kinetic_gap.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.startswith('scipy.integrate')))")
    done = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
