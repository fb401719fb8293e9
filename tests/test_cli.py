"""End-to-end subcommand runs through main(argv), in process."""

import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ripbench.cli as cli
import ripbench.model_sets as ms


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)


# ---------------------------------------------------------------------------
# the three documented invocations
# ---------------------------------------------------------------------------

def test_counterexample_documented_run(capsys):
    got = run_json(capsys, "counterexample", "--r", "0.5", "--b", "1",
                   "--i-max", "30", "--seed", "1")
    assert round(got["alpha_bruteforce"], 5) == 0.40825
    assert round(got["alpha_formula_lb"], 5) == 0.33333
    assert abs(got["alpha_formula_exact"] - math.sqrt(1.0 / 6.0)) < 1e-9
    assert got["alpha_bruteforce"] > got["alpha_formula_lb"]
    assert got["t_min"] == 1
    assert abs(got["vk_separation_bound"] - 1.0 / math.sqrt(1.5)) < 1e-12
    assert got["vk_min_pairwise"] >= got["vk_separation_bound"] - 1e-12
    assert got["vk_k_max"] == 20
    assert got["config"]["seed"] == 1


def test_counterexample_refuses_k_max_below_two(capsys):
    # one v_k has no pair, so no minimum pairwise distance to report
    rc, out, err = run(capsys, "counterexample", "--r", "0.5", "--b", "1", "--k-max", "1", "--seed", "1")
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    rec = json.loads(err)
    assert rec["error"] == "config" and "k_max >= 2" in rec["message"]


def test_main_leaves_no_cyclic_garbage(capsys):
    # in-process callers run main many times; garbage that only the cyclic
    # collector frees piles up between its full passes and raises peak RSS
    argv = ("rip-sweep", "--model", "sparse", "--n", "8", "--k", "2", "--m-list", "4,8",
            "--n-secants", "5", "--trials", "2", "--seed", "1")
    run_json(capsys, *argv)
    gc.collect()
    run_json(capsys, *argv)
    assert gc.collect() == 0


def test_bounds_documented_run(capsys):
    got = run_json(capsys, "bounds", "--theorem", "1", "--s", "8",
                   "--eps-s", "0.0076638", "--delta", "0.5", "--xi", "0.1",
                   "--seed", "0")
    assert got["m_required"] == 498816
    assert abs(got["m_raw"] - 498815.727071998) < 1e-5
    assert got["constants"]["C_abs"] == 3200.0
    assert got["sums"]["S1"] > 0.0
    assert got["sums"]["S1"] <= got["sums"]["S1_bound"]


def test_haar_fourier_documented_run(capsys):
    got = run_json(capsys, "haar-fourier", "--n", "2", "--eps-star", "0.19",
                   "--seed", "0")
    assert got["d"] == 3
    assert got["n"] == 2
    assert got["eps_star"] == 0.19


# ---------------------------------------------------------------------------
# haar-fourier modes and exit 3
# ---------------------------------------------------------------------------

def test_haar_fourier_not_found_exits_3(capsys):
    rc, out, err = run(capsys, "haar-fourier", "--n", "2", "--eps-star", "0.001",
                       "--d-max", "8", "--seed", "0")
    assert rc == 3
    got = json.loads(out)
    assert got["error"] == "not_found"
    assert got["d"] is None
    assert got["residual_at_d_max"] > 0.001
    assert got["d_max"] == 8


def test_haar_fourier_fixed_block_residual(capsys):
    got = run_json(capsys, "haar-fourier", "--n", "2", "--d-freq", "3", "--seed", "0")
    assert abs(got["residual"] - (1.0 - 8.0 / math.pi**2)) < 1e-10


def test_haar_fourier_csv_block(capsys):
    rc, out, err = run(capsys, "haar-fourier", "--n", "2", "--d-freq", "3",
                       "--format", "csv", "--seed", "0")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "freq,re_0,im_0,re_1,im_1"
    assert lines[-1].startswith("# config: ")
    assert len(lines) == 5  # header + 3 frequencies + config comment


# ---------------------------------------------------------------------------
# net / boxdim
# ---------------------------------------------------------------------------

def test_net_json(capsys):
    got = run_json(capsys, "net", "--model", "sparse", "--n", "6", "--k", "2",
                   "--count", "30", "--eps", "0.5", "--seed", "9")
    assert got["subcommand"] == "net"
    assert got["n_points"] == 30
    assert got["covered_count"] == 30
    assert got["radius"] == 0.5
    assert len(got["centers"]) >= 1
    assert got["config"]["seed"] == 9


def test_net_csv(capsys):
    rc, out, err = run(capsys, "net", "--model", "sparse", "--n", "6", "--k", "1",
                       "--count", "20", "--eps", "0.4", "--seed", "2",
                       "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# dim=6"
    assert lines[-1].startswith("# config: ")
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 6


def test_boxdim_json_and_csv(capsys):
    base = ("boxdim", "--model", "sparse", "--n", "6", "--k", "1",
            "--count", "40", "--eps-grid", "0.5,0.35,0.25", "--seed", "3")
    got = run_json(capsys, *base)
    assert got["subcommand"] == "boxdim"
    assert len(got["counts"]) == 3
    assert got["counts"][0] <= got["counts"][-1]  # finer scale needs more balls
    assert math.isfinite(got["slope"])

    rc, out, err = run(capsys, *base, "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,count"
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# rip-sweep
# ---------------------------------------------------------------------------

SWEEP_ARGS = ("rip-sweep", "--model", "sparse", "--n", "8", "--k", "2",
              "--m-list", "4,8", "--n-secants", "10", "--trials", "3",
              "--seed", "5")


def test_rip_sweep_csv_contract(capsys):
    rc, out, err = run(capsys, *SWEEP_ARGS, "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,delta_median,delta_q1,delta_q3,trials,p,seed,mu_mode,mu_stderr_max"
    assert lines[-1].startswith("# config: ")
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "4"
    assert lines[2].split(",")[0] == "8"


def test_rip_sweep_json_rows(capsys):
    got = run_json(capsys, *SWEEP_ARGS)
    assert [r["m"] for r in got["rows"]] == [4, 8]
    assert all(r["trials"] == 3 and r["p"] == 2 for r in got["rows"])
    assert got["config"]["mu"] == "auto"


@pytest.mark.parametrize("flag", ["--trials", "--n-secants", "--n-resample", "--threads"])
def test_rip_sweep_zero_count_exits_2(capsys, flag):
    rc, out, err = run(capsys, *SWEEP_ARGS, flag, "0")  # the last occurrence of a flag wins
    assert rc == 2
    assert out == ""
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert flag[2:].replace("-", "_") in rec["message"]


def test_reports_record_rng_layout(capsys):
    from ripbench._rng import RNG_LAYOUT
    assert run_json(capsys, *SWEEP_ARGS)["config"]["rng_layout"] == RNG_LAYOUT
    rc, out, err = run(capsys, *SWEEP_ARGS, "--format", "csv")
    assert json.loads(out.splitlines()[-1][len("# config: "):])["rng_layout"] == RNG_LAYOUT


def test_import_leaves_scipy_unloaded():
    code = "import sys, ripbench.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"


def _bench_tracing():
    import importlib.util

    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracing_targets_resolve():
    # a traced function renamed or moved would leave its per-layer metrics at 0
    import importlib
    import inspect

    tracing = _bench_tracing()
    assert tracing.TARGETS
    for mod, name in tracing.TARGETS:
        fn = getattr(importlib.import_module("ripbench." + mod), name, None)
        assert inspect.isfunction(fn), f"ripbench.{mod}.{name}"


def test_bench_tracing_counts_flops_of_every_map_family():
    # the tracer reads map fields directly; a moved field would break --trace 1
    import ripbench.embeddings as em

    flops = _bench_tracing()._apply_flops
    so = em.build_stage_one(np.eye(5)[:3])
    assert flops(em.two_stage_map(None, em.gaussian(), 4, 2, 0, ambient_dim=5), 2) == 2 * (2 * 4 * 5)
    assert flops(em.two_stage_map(so, em.gaussian(), 4, 2, 0), 1) == 2 * 4 * 3 + 2 * 3 * 5
    assert flops(em.rank_one_map(4, 2, 3, em.gaussian(), 0), 1) == 2 * 4 * (2 * 3 + 3)


def test_bench_tracing_sees_the_min_d_search(capsys, monkeypatch):
    # the geometry metrics come from build_u_block and spectral_norm_sym calls
    # inside the search; a search that bypassed either would zero them
    import ripbench.haar_fourier as hf

    tracing = _bench_tracing()
    evaluated = []
    residual = hf._residual
    monkeypatch.setattr(hf, "_residual", lambda rows: evaluated.append(len(rows)) or residual(rows))
    with tracing.installed(tracing.Tracer()) as tracer:
        assert cli.main(["haar-fourier", "--n", "16", "--eps-star", "0.1", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 53
    metrics = tracing.layer_metrics(tracer, 1.0)
    assert metrics["haar_fourier.rows_built_per_d"][0] > 0
    assert metrics["haar_fourier.eig_calls"][0] == len(evaluated) > 0


def test_public_names_resolve():
    # __all__ lists and the package's imports are kept by hand
    import ast
    import importlib
    import pkgutil

    import ripbench

    for info in pkgutil.iter_modules(ripbench.__path__):
        mod = importlib.import_module("ripbench." + info.name)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"ripbench.{info.name}.__all__ names {name}"
    tree = ast.parse(Path(ripbench.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module("ripbench." + node.module)
        for alias in node.names:
            assert hasattr(mod, alias.name), f"ripbench.{node.module}.{alias.name}"
            assert getattr(ripbench, alias.asname or alias.name) is getattr(mod, alias.name)


def test_rip_sweep_threads_value_identical(capsys):
    rows1 = run_json(capsys, *SWEEP_ARGS)["rows"]
    rows2 = run_json(capsys, *SWEEP_ARGS, "--threads", "2")["rows"]
    for a, b in zip(rows1, rows2):
        assert abs(a["delta_median"] - b["delta_median"]) < 1e-12


def test_rip_sweep_rank_one_dims_from_model(capsys):
    got = run_json(capsys, "rip-sweep", "--model", "lowrank", "--n1", "3",
                   "--n2", "3", "--rank", "1", "--variant", "rank-one",
                   "--m-list", "16", "--n-secants", "5", "--trials", "2",
                   "--seed", "8")
    assert len(got["rows"]) == 1
    assert math.isfinite(got["rows"][0]["delta_median"])


def test_rip_sweep_auto_mu_over_mixed_rank_secants(capsys):
    # the first secant is rank 1 and a later one is not: auto must resolve
    # the p=1 mode over all secants, not raise on the later ones
    got = run_json(capsys, "rip-sweep", "--model", "sparse", "--n", "16", "--k", "1",
                   "--variant", "rank-one", "--n1", "4", "--n2", "4", "--p", "1",
                   "--m-list", "16", "--n-secants", "50", "--trials", "2",
                   "--n-resample", "20", "--seed", "6")
    assert math.isfinite(got["rows"][0]["delta_median"])


def test_rip_sweep_empty_m_list_exits_2(capsys):
    rc, out, err = run(capsys, "rip-sweep", "--model", "sparse", "--n", "8", "--k", "2",
                       "--m-list=", "--seed", "1")
    assert rc == 2
    assert "m_list" in json.loads(err)["message"]


@pytest.mark.parametrize("cmd", [
    ("rip-sweep", "--m-list", "16", "--n-secants", "5", "--trials", "2"),
    ("tails", "--probe", "increment", "--trials", "1000"),
])
@pytest.mark.parametrize("dims", [(), ("--n1", "4", "--n2", "4")])
def test_rank_one_dims_checked(capsys, cmd, dims):
    rc, out, err = run(capsys, *cmd, "--model", "sparse", "--n", "32", "--k", "2",
                       "--variant", "rank-one", *dims, "--seed", "1")
    assert rc == 2
    assert out == ""
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert "n1" in rec["message"] and "n2" in rec["message"]


# ---------------------------------------------------------------------------
# rop
# ---------------------------------------------------------------------------

def test_rop_sparse_single_entry(capsys):
    got = run_json(capsys, "rop", "--n1", "4", "--n2", "4", "--m", "50",
                   "--trials", "40", "--dist", "sparse-pm", "--q", "4",
                   "--seed", "11")
    assert got["abs_mean_analytic"] == 0.25
    assert got["sq_mean_analytic"] == 1.0
    assert got["frobenius"] == 1.0
    assert got["storage_cost"] == 50 * 8
    assert got["dense_cost"] == 50 * 16
    assert abs(got["abs_mean"] - 0.25) < 0.1


def test_rop_gaussian_rank1_target(capsys):
    got = run_json(capsys, "rop", "--n1", "5", "--n2", "3", "--m", "200",
                   "--trials", "60", "--target", "gauss-rank1", "--seed", "4")
    assert abs(got["frobenius"] - 1.0) < 1e-12
    assert abs(got["abs_mean_analytic"] - 2.0 / math.pi) < 1e-12
    assert abs(got["abs_mean"] - 2.0 / math.pi) < 0.1
    assert abs(got["sq_mean"] - 1.0) < 0.5


def test_rop_rejects_csv(capsys):
    rc, out, err = run(capsys, "rop", "--format", "csv", "--seed", "0")
    assert rc == 2
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "1"), ("--n1", "0")])
def test_rop_degenerate_sizes_exit_2(capsys, flag, value):
    rc, out, err = run(capsys, "rop", "--m", "10", flag, value, "--seed", "0")
    assert rc == 2
    assert out == ""
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert flag[2:] in rec["message"]


def test_net_correlated_secants_use_all_pairs(capsys, tmp_path):
    # a fixed set's secants without --count are all of its ordered pairs, whether the set is a model or a file
    points = tmp_path / "pts.csv"
    points.write_text(ms.points_to_csv(ms.correlated_sequence(0.9, 1.0, 16)))
    base = ("net", "--secants", "--eps", "0.3", "--seed", "7")
    got = run_json(capsys, *base, "--model", "correlated", "--r", "0.9", "--b", "1", "--i-max", "16")
    assert got["n_points"] == 240 == 16 * 15
    assert got["centers"] == run_json(capsys, *base, "--points", str(points))["centers"]


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tails_bernstein(capsys):
    got = run_json(capsys, "tails", "--probe", "bernstein", "--sampler", "exp",
                   "--psi-k", "1.0", "--m", "10", "--t-grid", "0,0.2,0.6",
                   "--trials", "1500", "--seed", "3")
    assert got["probe"] == "bernstein"
    assert got["crossover"] == 1.0
    assert got["tail"][0] == 1.0
    assert got["c1"] != 0.0


def test_tails_fit_failure_exits_3(capsys):
    rc, out, err = run(capsys, "tails", "--probe", "bernstein", "--sampler", "exp",
                       "--psi-k", "1.0", "--m", "10", "--t-grid", "50",
                       "--trials", "1000", "--seed", "3")
    assert rc == 3
    assert json.loads(err)["error"] == "fit_failure"


def test_tails_increment(capsys):
    got = run_json(capsys, "tails", "--probe", "increment", "--model", "sparse",
                   "--n", "5", "--k", "1", "--m", "6",
                   "--lambda-grid", "0,0.2,0.5", "--trials", "1000", "--seed", "4")
    assert got["probe"] == "increment"
    assert got["tail"][0] == 1.0
    assert got["trials"] == 1000


RANK_ONE_TAILS = ("tails", "--probe", "increment", "--variant", "rank-one", "--model", "lowrank",
                  "--n1", "4", "--n2", "4", "--rank", "1", "--m", "40", "--trials", "1000", "--seed", "3")


def test_tails_rank_one_needs_an_explicit_grid(capsys):
    # rank-one deviations spread about 0.011 here, far below the two-stage default grid 0.05-0.8
    rc, out, err = run(capsys, *RANK_ONE_TAILS)
    assert (rc, out) == (2, "")
    rec = json.loads(err)
    assert rec["error"] == "config" and "--lambda-grid" in rec["message"]
    got = run_json(capsys, *RANK_ONE_TAILS, "--lambda-grid", "0.005,0.01,0.02,0.04")
    assert got["tail"] == [0.568, 0.237, 0.035, 0.002]


# ---------------------------------------------------------------------------
# seed resolution
# ---------------------------------------------------------------------------

def test_env_seed_matches_explicit(capsys, monkeypatch):
    explicit = run(capsys, *SWEEP_ARGS, "--format", "csv")
    monkeypatch.setenv(cli.SEED_ENV, "5")
    argv = tuple(a for a in SWEEP_ARGS if a not in ("--seed", "5"))
    via_env = run(capsys, *argv, "--format", "csv")
    assert via_env == explicit


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV, "999")
    got = run_json(capsys, "counterexample", "--r", "0.5", "--b", "1", "--seed", "7")
    assert got["config"]["seed"] == 7


def test_missing_seed_is_drawn_and_recorded(capsys):
    got = run_json(capsys, "counterexample", "--r", "0.5", "--b", "1")
    assert isinstance(got["config"]["seed"], int)
    assert got["config"]["seed"] >= 0


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "ce.json"
    cfg.write_text(json.dumps({"r": 0.5, "b": 1.0}))
    direct = run_json(capsys, "counterexample", "--r", "0.5", "--b", "1", "--seed", "3")
    via_cfg = run_json(capsys, "counterexample", "--config", str(cfg), "--seed", "3")
    assert via_cfg["alpha_formula_exact"] == direct["alpha_formula_exact"]
    assert via_cfg["config"]["r"] == 0.5


def test_explicit_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "ce.json"
    cfg.write_text(json.dumps({"r": 0.9, "b": 1.0}))
    got = run_json(capsys, "counterexample", "--config", str(cfg), "--r", "0.5",
                   "--seed", "3")
    assert got["config"]["r"] == 0.5
    assert abs(got["alpha_formula_exact"] - math.sqrt(1.0 / 6.0)) < 1e-9


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"r": 0.5, "b": 1.0, "bogus": 1}))
    rc, out, err = run(capsys, "counterexample", "--config", str(cfg), "--seed", "3")
    assert rc == 2
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert "bogus" in rec["message"]


@pytest.mark.parametrize("argv,cfg,flag", [
    (SWEEP_ARGS, {"mu": "xyz"}, "--mu"),  # once a KeyError traceback
    (("rop", "--m", "5", "--trials", "3"), {"dist": "foo"}, "--dist"),  # once ran sparse-pm
    (("net", "--model", "sparse", "--n", "6", "--k", "2", "--eps", "0.5"),
     {"format": "xml"}, "--format"),  # once recorded in the report
])
def test_config_values_get_the_flag_checks(capsys, tmp_path, argv, cfg, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, out, err = run(capsys, *argv, "--config", str(path))
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert f"argument {flag}: invalid choice" in rec["message"]


def test_config_lists_and_switches_become_flags(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_grid": [0.5, 0.35, 0.25], "secants": True, "count": 20}))
    base = ("boxdim", "--model", "sparse", "--n", "6", "--k", "1", "--seed", "3")
    via_cfg = run(capsys, *base, "--config", str(path))
    direct = run(capsys, *base, "--eps-grid", "0.5,0.35,0.25", "--secants", "--count", "20")
    assert via_cfg[0] == 0
    assert json.loads(via_cfg[1])["counts"] == json.loads(direct[1])["counts"]
    path.write_text(json.dumps({"secants": "yes"}))
    rc, out, err = run(capsys, *base, "--config", str(path))
    assert rc == 2 and out == "" and "true or false" in json.loads(err)["message"]


def test_env_seed_beats_config_file_seed(capsys, monkeypatch, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11}))
    assert run_json(capsys, "counterexample", "--r", "0.5", "--b", "1",
                    "--config", str(path))["config"]["seed"] == 11
    monkeypatch.setenv(cli.SEED_ENV, "4")
    assert run_json(capsys, "counterexample", "--r", "0.5", "--b", "1",
                    "--config", str(path))["config"]["seed"] == 4


def test_config_file_must_hold_object(capsys, tmp_path):
    cfg = tmp_path / "list.json"
    cfg.write_text("[1, 2]")
    rc, out, err = run(capsys, "counterexample", "--config", str(cfg))
    assert rc == 2
    rc, out, err = run(capsys, "counterexample",
                       "--config", str(tmp_path / "absent.json"))
    assert rc == 2


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------

def test_bounds_both_rates_infinite_exits_2(capsys):
    rc, out, err = run(capsys, "bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5",
                       "--xi", "0.1", "--c1", "inf", "--c2", "inf", "--seed", "0")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("flags", [
    {"--s": "1e308"},
    {"--eps-s": "1e-300", "--delta": "1e-300"},
    {"--delta": "1e-200"},
    {"--c1": "1e-320"},
    {"--c-abs": "1e308"},
    {"--xi": "1e-320"},
    {"--theorem": "1", "--p": "2", "--lambda": "1e100"},
    {"--theorem": "2", "--p": "2", "--lambda": "1e100"},
], ids=lambda f: "-".join(f"{k[2:]}={v}" for k, v in f.items()))
def test_bounds_out_of_float_range_exits_2(capsys, flags):
    # an overflowing or zero-dividing formula is a refused input, not a traceback
    base = {"--s": "1", "--eps-s": "0.25", "--delta": "0.5", "--xi": "0.1"}
    rc, out, err = run(capsys, "bounds", *[t for kv in {**base, **flags}.items() for t in kv], "--seed", "1")
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and json.loads(err)["error"] == "config"


def test_memory_error_exits_2(capsys, monkeypatch):
    # n = 2^40 asks build_u_block for 16 TiB; raise as a failed allocation
    # would, since whether a real one fails at once depends on overcommit
    def too_large(d_freq, n):
        raise MemoryError

    monkeypatch.setattr(cli.hf, "build_u_block", too_large)
    rc, out, err = run(capsys, "haar-fourier", "--n", str(2**40), "--eps-star", "0.1", "--seed", "1")
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "config", "message": "inputs too large for memory"}


def test_missing_semantic_flag_exits_2(capsys):
    rc, out, err = run(capsys, "net", "--model", "sparse", "--n", "6", "--k", "2",
                       "--seed", "0")
    assert rc == 2
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert "--eps" in rec["message"]

    rc, out, err = run(capsys, "counterexample", "--seed", "0")
    assert rc == 2


def test_argparse_syntax_errors_exit_2(capsys):
    assert cli.main(["no-such-subcommand"]) == 2
    capsys.readouterr()
    assert cli.main(["net", "--format", "xml"]) == 2
    capsys.readouterr()
    for argv in (["no-such-subcommand"], ["net", "--format", "xml"], [],
                 ["counterexample", "--no-such-flag"], ["bounds", "--s", "four"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "config"
    rc, out, err = run(capsys, "net", "--help")  # help is not an error
    assert rc == 0
    assert out.startswith("usage: ripbench net")


@pytest.mark.parametrize("argv", [
    ("rop", "--format", "csv"),
    ("tails", "--format", "json"),
    ("counterexample", "--r", "0.5", "--b", "1", "--format", "json"),
    ("net", "--model", "sparse", "--n", "6", "--k", "2", "--eps", "0.5", "--threads", "2"),
    ("bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5", "--xi", "0.1", "--threads", "1"),
    ("rip-sweep", "--model", "sparse", "--n", "8", "--k", "2", "--m-list", "4",
     "--count", "5"),
    ("tails", "--secants"),
    ("tails", "--points", "x"),
])
def test_flags_exist_only_where_read(capsys, argv):
    rc, out, err = run(capsys, *argv, "--seed", "0")
    assert rc == 2
    assert out == ""
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert "unrecognized arguments" in rec["message"]


BOUNDS_ARGS = ("bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5", "--xi", "0.1")


@pytest.mark.parametrize("argv", [
    ("net", "--points", "{points}", "--count", "5", "--eps", "0.5"),
    ("net", "--model", "correlated", "--r", "0.5", "--b", "1", "--i-max", "6", "--count", "3", "--eps", "0.5"),
    ("haar-fourier", "--n", "8", "--d-freq", "3", "--eps-star", "0.1"),
    ("haar-fourier", "--n", "8", "--d-freq", "3", "--d-max", "1"),
    (*BOUNDS_ARGS, "--theorem", "1", "--p", "2", "--c1", "5"),
    (*BOUNDS_ARGS, "--theorem", "2", "--p", "2", "--c1", "5"),
    (*BOUNDS_ARGS, "--theorem", "2", "--p", "1", "--c2", "5"),
    ("rop", "--q", "0.5"),
    ("rip-sweep", "--model", "sparse", "--n", "6", "--k", "2", "--m-list", "4", "--q", "2"),
    ("tails", "--q", "2"),
    ("tails", "--probe", "increment", "--model", "sparse", "--n", "6", "--k", "2", "--m", "5", "--q", "2"),
], ids=["net-points-count", "net-correlated-count", "haar-fourier-d-freq-eps-star", "haar-fourier-d-freq-d-max",
        "bounds-theorem-1-p-c1", "bounds-theorem-2-c1", "bounds-theorem-2-c2", "rop-gaussian-q",
        "rip-sweep-gaussian-q", "tails-bernstein-q", "tails-increment-gaussian-q"])
def test_flags_a_run_ignores_are_refused(capsys, tmp_path, argv):
    points = tmp_path / "pts.csv"
    points.write_text(ms.points_to_csv(np.eye(12)))
    argv = [str(points) if tok == "{points}" else tok for tok in argv]
    rc, out, err = run(capsys, *argv, "--seed", "0")
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("probe, base, refused", [
    ("bernstein", ("--m", "5", "--trials", "1000"),
     [("--model", "sparse"), ("--n", "6"), ("--k", "2"), ("--n1", "3"), ("--n2", "3"), ("--rank", "1"),
      ("--i-max", "4"), ("--r", "0.5"), ("--b", "1"), ("--dist", "gaussian"), ("--q", "4"),
      ("--variant", "two-stage"), ("--p", "2"), ("--lambda-grid", "0.1")]),
    ("increment", ("--model", "sparse", "--n", "6", "--k", "2", "--m", "5", "--trials", "1000"),
     [("--sampler", "exp"), ("--psi-k", "2"), ("--t-grid", "0.1")]),
], ids=["bernstein", "increment"])
def test_tails_refuses_the_other_probes_flags(capsys, probe, base, refused):
    # refused even at its default value: the run would ignore it
    for flag in refused:
        rc, out, err = run(capsys, "tails", "--probe", probe, *base, *flag, "--seed", "0")
        assert (rc, out) == (2, "")
        assert flag[0] in json.loads(err)["message"]
    # the refused flags' defaults are still resolved into the recorded config
    config = run_json(capsys, "tails", "--probe", probe, *base, "--seed", "0")["config"]
    resolved = {k: config[k] for k in ("sampler", "psi_k", "dist", "q", "p")}
    assert resolved == {"sampler": "exp", "psi_k": 2.0, "dist": "gaussian", "q": 4.0, "p": 2}


def test_flags_are_kept_where_a_run_reads_them(capsys, tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text(ms.points_to_csv(np.eye(12)))
    net = run_json(capsys, "net", "--points", str(points), "--secants", "--count", "5", "--eps", "0.5", "--seed", "0")
    assert net["n_points"] == 5
    assert run_json(capsys, *BOUNDS_ARGS, "--c1", "5", "--seed", "0")["constants"]["c1"] == 5.0
    rop = run_json(capsys, "rop", "--dist", "sparse-pm", "--q", "2", "--m", "5", "--trials", "3", "--seed", "0")
    assert rop["config"]["q"] == 2.0
    # an unset --q or --c1 is recorded at its default, as before it could be refused
    assert run_json(capsys, "rop", "--m", "5", "--trials", "3", "--seed", "0")["config"]["q"] == 4.0
    assert run_json(capsys, *BOUNDS_ARGS, "--theorem", "2", "--p", "1", "--seed", "0")["config"]["c2"] == 1.0


def test_counterexample_zero_t_max_exits_2(capsys):
    rc, out, err = run(capsys, "counterexample", "--r", "0.5", "--b", "1", "--t-max", "0", "--seed", "0")
    assert rc == 2
    assert out == ""
    assert "t_max >= 1" in json.loads(err)["message"]


def test_reports_record_only_flags_they_read(capsys):
    net = run_json(capsys, "net", "--model", "sparse", "--n", "6", "--k", "1",
                   "--count", "10", "--eps", "0.5", "--seed", "1")["config"]
    assert {"format", "count", "secants", "points"} <= set(net) and "threads" not in net
    sweep = run_json(capsys, *SWEEP_ARGS)["config"]
    assert {"format", "threads", "points"} <= set(sweep)
    assert not {"count", "secants"} & set(sweep)
    tails = run_json(capsys, "tails", "--m", "5", "--trials", "1000", "--seed", "1")["config"]
    assert not {"format", "threads", "count", "secants", "points"} & set(tails)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def test_infinite_rate_prints_strict_json(capsys):
    rc, out, err = run(capsys, "bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5",
                       "--xi", "0.1", "--c1", "inf", "--seed", "0")
    assert rc == 0
    got = strict_json(out)
    assert got["config"]["c1"] == "inf"
    assert got["constants"]["c1"] == "inf"
    assert got["m_required"] > 0

    rc, out, err = run(capsys, "bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5",
                       "--xi", "0.1", "--c2", "inf", "--format", "csv", "--seed", "0")
    assert rc == 0
    assert strict_json(out.splitlines()[-1][len("# config: "):])["c2"] == "inf"


@pytest.mark.parametrize("argv", [
    ("bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5", "--xi", "0.1", "--lambda", "nan"),
    ("bounds", "--s", "4", "--eps-s", "0.25", "--delta", "0.5", "--xi", "0.1", "--c1", "nan"),
    ("bounds", "--s", "inf", "--eps-s", "0.25", "--delta", "0.5", "--xi", "0.1"),
    ("rop", "--q", "nan", "--m", "5", "--trials", "3"),
    ("tails", "--psi-k", "inf", "--m", "5", "--trials", "1000"),
    ("tails", "--t-grid", "0.1,nan", "--m", "5", "--trials", "1000"),
    ("counterexample", "--r", "0.5", "--b=-inf"),
])
def test_non_finite_floats_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv, "--seed", "0")
    assert rc == 2
    assert out == ""
    rec = json.loads(err)
    assert rec["error"] == "config"
    assert "number" in rec["message"]


def test_nan_from_config_file_exits_2(capsys, tmp_path):
    # a config value passes the same parse check as the flag
    cfg = tmp_path / "ce.json"
    cfg.write_text('{"r": 0.5, "b": NaN}')
    rc, out, err = run(capsys, "counterexample", "--config", str(cfg), "--seed", "0")
    assert rc == 2
    assert out == ""
    assert "argument --b: expected a finite number" in json.loads(err)["message"]


def test_nan_eps_exits_2_promptly():
    # a NaN eps once made greedy_net add centers until the process was killed
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = ["net", "--model", "sparse", "--n", "6", "--k", "2", "--eps", "nan", "--seed", "0"]
    proc = subprocess.run([sys.executable, "-m", "ripbench.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "config"


def test_model_param_validation_exits_2(capsys):
    rc, out, err = run(capsys, "net", "--model", "lowrank", "--n1", "3",
                       "--eps", "0.5", "--seed", "0")
    assert rc == 2
    assert "lowrank" in json.loads(err)["message"]


# ---------------------------------------------------------------------------
# output files and determinism
# ---------------------------------------------------------------------------

def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, err = run(capsys, "counterexample", "--r", "0.5", "--b", "1",
                       "--seed", "2", "--out", str(path))
    assert rc == 0
    assert out == ""
    got = json.loads(path.read_text())
    assert got["subcommand"] == "counterexample"


@pytest.mark.parametrize("argv", [
    ("net", "--model", "sparse", "--n", "6", "--k", "1", "--count", "15",
     "--eps", "0.5"),
    ("boxdim", "--model", "sparse", "--n", "6", "--k", "1", "--count", "20",
     "--eps-grid", "0.5,0.35,0.25"),
    ("rip-sweep", "--model", "sparse", "--n", "6", "--k", "2", "--m-list", "4",
     "--n-secants", "8", "--trials", "2"),
    ("rop", "--n1", "3", "--n2", "3", "--m", "20", "--trials", "10"),
    ("haar-fourier", "--n", "2", "--eps-star", "0.19"),
    ("bounds", "--theorem", "1", "--s", "4", "--eps-s", "0.25", "--delta", "0.5",
     "--xi", "0.1"),
    ("tails", "--probe", "bernstein", "--sampler", "exp", "--psi-k", "1.0",
     "--m", "8", "--t-grid", "0,0.3", "--trials", "1000"),
    ("counterexample", "--r", "0.5", "--b", "1"),
])
def test_every_subcommand_rerun_is_byte_identical(capsys, argv):
    first = run(capsys, *argv, "--seed", "37")
    second = run(capsys, *argv, "--seed", "37")
    assert first == second
    assert first[0] == 0


def test_finite_set_secant_runs_rerun_byte_identical(capsys, tmp_path):
    # secants sampled from a finite point set: the block-keyed index stream
    path = tmp_path / "points.csv"
    path.write_text(ms.points_to_csv(np.random.default_rng(0).standard_normal((40, 3))))
    for argv in (
        ("rip-sweep", "--model", "correlated", "--r", "0.5", "--b", "1", "--i-max", "20",
         "--m-list", "4,8", "--n-secants", "30", "--trials", "3"),
        ("boxdim", "--points", str(path), "--secants", "--count", "300", "--eps-grid", "0.9,0.7,0.5"),
    ):
        first = run(capsys, *argv, "--seed", "37")
        assert first == run(capsys, *argv, "--seed", "37")
        assert first[0] == 0 and json.loads(first[1])["config"]["rng_layout"] == 4


# ---------------------------------------------------------------------------
# property: every argv gives a report or a JSON error
# ---------------------------------------------------------------------------

# a small valid run per subcommand; drawn flags come after and override it
BASE = {
    "net": "--model sparse --n 6 --k 2 --count 20 --eps 0.5",
    "boxdim": "--model sparse --n 6 --k 2 --count 20 --eps-grid 0.9,0.7,0.5",
    "rip-sweep": "--model sparse --n 6 --k 2 --m-list 2,4 --n-secants 5 --trials 3 --n-resample 8",
    "rop": "--n1 3 --n2 3 --m 10 --trials 5",
    "haar-fourier": "--n 4 --eps-star 0.5 --d-max 64",
    "bounds": "--s 4 --eps-s 0.25 --delta 0.5 --xi 0.1",
    "tails": "--probe increment --model sparse --n 6 --k 2 --m 5 --trials 1000",
    "counterexample": "--r 0.5 --b 1 --i-max 10",
}
UNDRAWN = {"help", "seed", "out", "config", "points"}  # files and the fixed seed
FLOAT_TOKENS = ["nan", "inf", "-inf", "-1", "0", "0.5", "1", "2"]


def _value(sub, action):
    """Strategy for one flag's value token, None for a switch."""
    if action.nargs == 0:
        return st.none()
    if action.dest == "threads":
        return st.sampled_from(["-1", "0", "1", "2"])
    if action.choices:
        return st.sampled_from([str(c) for c in action.choices])
    if action.type is int:
        ints = list(range(-2, 7)) + ([1000] if (sub, action.dest) == ("tails", "trials") else [])
        return st.sampled_from([str(i) for i in ints])
    if action.type is cli._int_list:
        return st.lists(st.integers(-2, 6).map(str), max_size=3).map(",".join)
    if action.type is cli._float_list:
        return st.lists(st.sampled_from(FLOAT_TOKENS), max_size=3).map(",".join)
    return st.sampled_from(FLOAT_TOKENS)  # scalar float flag


def _json_value(token):
    """A drawn token as a config-file value: true for a switch, a list for a
    comma list, and a number where the token reads as one."""
    if token is None:
        return True

    def one(tok):
        for cast in (int, float):
            try:
                return cast(tok)
            except ValueError:
                pass
        return tok

    return [one(t) for t in token.split(",") if t] if "," in token or not token else one(token)


@st.composite
def cli_argv(draw):
    """(argv, config object): each drawn flag goes on the command line or into
    the config file."""
    _, sub_map = cli._build_parser()
    sub = draw(st.sampled_from(sorted(sub_map)))
    actions = [a for a in sub_map[sub]._actions if a.dest not in UNDRAWN]
    argv, cfg = [sub, *BASE[sub].split()], {}
    for action in draw(st.lists(st.sampled_from(actions), unique_by=lambda a: a.dest, max_size=4)):
        flag, value = action.option_strings[0], draw(_value(sub, action))
        if draw(st.booleans()):
            cfg[action.dest] = _json_value(value)
        else:
            # --flag=value keeps a value such as -inf from reading as a flag
            argv.append(flag if value is None else f"{flag}={value}")
    if draw(st.integers(0, 9)) == 0:
        argv.append("--no-such-flag")
    return argv + ["--seed", "1"], cfg


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=cli_argv())
def test_main_reports_or_fails_with_json(capsys, tmp_path, drawn):
    argv, cfg = drawn
    if cfg:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    rc, out, err = run(capsys, *argv)
    assert rc in (0, 2, 3), (argv, cfg, err)
    if rc == 0:
        if "--format=csv" in argv or cfg.get("format") == "csv":
            out = out.splitlines()[-1][len("# config: "):]
        strict_json(out)
    elif rc == 3 and out:  # a min-d search that found nothing reports on stdout
        assert strict_json(out)["error"] == "not_found" and err == ""
    else:
        assert out == "", (argv, cfg)
        assert len(err.splitlines()) == 1
        rec = strict_json(err)
        assert set(rec) == {"error", "message"}
