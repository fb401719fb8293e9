"""Reproducible experiment runner over the library modules.

Every subcommand resolves its configuration (flags, optional JSON config
file, seed) before touching any randomness, embeds the resolved config and
seed in its report, and writes byte-identical output on re-runs with the
same config in single-thread mode.  Exit codes: 0 success, 2 config error,
3 not-found or fit-failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as bd
from . import haar_fourier as hf
from . import model_sets as ms
from . import rip_estimator as re_
from . import tail_probes as tp
from ._rng import CH_MU, CH_SECANT, CH_TRIAL, RNG_LAYOUT, child_seed, substream
from .embeddings import DistSpec, apply, gaussian, rank_one_map, sparse_pm, storage_cost

SEED_ENV = "RIPBENCH_SEED"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {type(o)}")


def _dumps(payload) -> str:
    return json.dumps(payload, default=_json_default)


def _emit(text: str, out) -> None:
    if out in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(_dumps({"error": kind, "message": message}) + "\n")
    return code


def _config_dict(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    cfg["rng_layout"] = RNG_LAYOUT  # which key-to-draw mapping produced the seeded output
    return {k: cfg[k] for k in sorted(cfg)}


def _int_list(s: str):
    return [int(tok) for tok in s.split(",") if tok.strip()]


def _float_list(s: str):
    return [float(tok) for tok in s.split(",") if tok.strip()]


def _resolve_seed(args, argv) -> None:
    explicit = any(t == "--seed" or t.startswith("--seed=") for t in argv)
    if explicit and args.seed is not None:
        return
    env = os.environ.get(SEED_ENV)
    if env is not None and env != "":
        args.seed = int(env)
    elif args.seed is None:
        # no seed anywhere: draw one and record it so the run stays replayable
        args.seed = int(np.random.SeedSequence().entropy % (1 << 63))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# shared model/point plumbing for net, boxdim, rip-sweep, tails
# ---------------------------------------------------------------------------

def _add_common(sp) -> None:
    sp.add_argument("--seed", type=int, default=None, help="RNG seed; env %s overrides the default" % SEED_ENV)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--threads", type=int, default=1, help="worker threads (rip-sweep only)")
    sp.add_argument("--config", default=None, help="JSON file of flag defaults; explicit flags win")


def _add_model_flags(sp) -> None:
    sp.add_argument("--model", choices=("sparse", "lowrank", "correlated"))
    sp.add_argument("--points", default=None, help="point file (.csv with '# dim=' header, or .json)")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--n1", type=int, default=None)
    sp.add_argument("--n2", type=int, default=None)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--i-max", type=int, default=None)
    sp.add_argument("--count", type=int, default=None, help="samples (default 200; for --secants on a point file: all pairs)")
    sp.add_argument("--secants", action="store_true", help="use normalized secant directions instead of raw points")


def _model_spec(args):
    if args.model == "sparse":
        _require(args.n is not None and args.k is not None, "--model sparse requires --n and --k")
        return ms.Sparse(args.n, args.k)
    if args.model == "lowrank":
        _require(None not in (args.n1, args.n2, args.rank), "--model lowrank requires --n1, --n2, --rank")
        return ms.LowRank(args.n1, args.n2, args.rank)
    if args.model == "correlated":
        _require(None not in (args.r, args.b, args.i_max), "--model correlated requires --r, --b, --i-max")
        return ms.CorrelatedSeq(args.r, args.b, args.i_max)
    raise ValueError("supply --model or --points")


def _load_points(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return ms.points_from_json(text)
    return ms.load_points_csv(path)


def _points_for(args):
    """Model points, point-file rows, or secant directions, one per row."""
    if args.points is not None:
        pts = _load_points(args.points)
        if args.secants:
            secs = ms.normalized_secants(pts, count=args.count, seed=child_seed(args.seed, CH_SECANT))
            return secs.directions.T
        return pts
    spec = _model_spec(args)
    count = args.count if args.count is not None else 200
    if args.secants:
        secs = ms.normalized_secants(spec, count=count, seed=child_seed(args.seed, CH_SECANT))
        return secs.directions.T
    return ms.sample_model(spec, count, args.seed)


def _csv_with_config(body: str, args) -> str:
    # trailing comment keeps the documented header on line 1
    return body.rstrip("\n") + "\n# config: " + _dumps(_config_dict(args)) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_net(args) -> int:
    _require(args.eps is not None, "net requires --eps")
    points = _points_for(args)
    net = ms.greedy_net(points, args.eps)
    if args.format == "csv":
        dim = net.centers[0].size
        lines = [f"# dim={dim}"] + [",".join(f"{v:.17g}" for v in c) for c in net.centers]
        _emit(_csv_with_config("\n".join(lines), args), args.out)
        return 0
    payload = {
        "subcommand": "net",
        "config": _config_dict(args),
        "n_points": len(points),
        **json.loads(ms.net_result_to_json(net)),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_boxdim(args) -> int:
    _require(args.eps_grid is not None, "boxdim requires --eps-grid")
    points = _points_for(args)
    fit = ms.boxdim_fit(points, args.eps_grid)
    if args.format == "csv":
        lines = ["eps,count"] + [f"{e:.17g},{c}" for e, c in zip(fit.eps_grid, fit.counts)]
        _emit(_csv_with_config("\n".join(lines), args), args.out)
        return 0
    payload = {
        "subcommand": "boxdim",
        "config": _config_dict(args),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "eps_grid": list(fit.eps_grid),
        "counts": list(fit.counts),
        "residual": fit.residual,
        "monotone": fit.monotone,
    }
    _emit(_dumps(payload), args.out)
    return 0


def _dist_spec(args) -> DistSpec:
    if args.dist == "gaussian":
        return gaussian()
    return sparse_pm(args.q)


def _map_dims(args, spec) -> tuple:
    """Rank-one (n1, n2) from --n1/--n2 or a low-rank model; (0, 0) for two-stage."""
    if args.variant != "rank-one":
        return 0, 0
    n1, n2 = args.n1 or 0, args.n2 or 0
    if isinstance(spec, ms.LowRank):
        n1, n2 = n1 or spec.n1, n2 or spec.n2
    _require(n1 > 0 and n2 > 0, f"{args.subcommand} with --variant rank-one requires --n1 and --n2")
    return n1, n2


def _cmd_rip_sweep(args) -> int:
    _require(args.m_list is not None, "rip-sweep requires --m-list")
    if args.points is not None:
        spec = ms.PointCloud(_load_points(args.points))
    else:
        spec = _model_spec(args)
    variant = args.variant.replace("-", "_")
    n1, n2 = _map_dims(args, spec)
    mu_mode = {"auto": "auto", "analytic": "analytic", "mc": "monte_carlo"}[args.mu]
    rows = re_.rip_sweep(
        spec, _dist_spec(args), args.m_list, args.p, args.n_secants, args.trials,
        args.seed, variant=variant, n1=n1, n2=n2, mu_mode=mu_mode,
        n_resample=args.n_resample, threads=args.threads,
    )
    if args.format == "csv":
        _emit(_csv_with_config(re_.sweep_rows_to_csv(rows), args), args.out)
        return 0
    payload = {
        "subcommand": "rip-sweep",
        "config": _config_dict(args),
        "rows": json.loads(re_.sweep_rows_to_json(rows)),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_rop(args) -> int:
    _require(args.format == "json", "rop emits JSON only")
    _require(args.trials >= 2, f"rop needs trials >= 2 for a standard deviation, got {args.trials}")
    n1, n2 = args.n1, args.n2
    _require(n1 >= 1 and n2 >= 1, f"rop needs n1, n2 >= 1, got {n1}, {n2}")
    dist = _dist_spec(args)
    if args.target == "single-entry":
        M = np.zeros((n1, n2))
        M[0, 0] = 1.0
    else:  # gauss-rank1: fixed unit-Frobenius rank-one target
        rng = substream(args.seed, CH_MU)
        M = np.outer(rng.standard_normal(n1), rng.standard_normal(n2))
        M /= np.linalg.norm(M)
    fro = float(np.linalg.norm(M))
    vals1 = np.empty(args.trials)
    vals2 = np.empty(args.trials)
    for t in range(args.trials):
        L = rank_one_map(args.m, n1, n2, dist, child_seed(args.seed, CH_TRIAL, t))
        y = apply(L, M)
        vals1[t] = float(np.sum(np.abs(y)))
        vals2[t] = float(np.sum(y * y)) * args.m  # undo one 1/m to report mean (a^T M b)^2
    # E|a^T M b|^p is the semi-norm of a one-row rank-one map
    one_row = re_.MuNormSpec(mode="analytic", dist=dist, variant="rank_one", m=1, n1=n1, n2=n2)

    def analytic(p: int):
        try:
            return re_.mu_pnorm(one_row, M.ravel(), p).value
        except re_.UnsupportedAnalyticError:
            return None

    payload = {
        "subcommand": "rop",
        "config": _config_dict(args),
        "frobenius": fro,
        "abs_mean": float(vals1.mean()),
        "abs_mean_std": float(vals1.std(ddof=1)),
        "abs_mean_analytic": analytic(1),
        "sq_mean": float(vals2.mean()),
        "sq_mean_analytic": analytic(2),
        "storage_cost": storage_cost(L),
        "dense_cost": args.m * n1 * n2,
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_haar_fourier(args) -> int:
    _require(args.n is not None, "haar-fourier requires --n")
    if args.d_freq is not None:
        u = hf.build_u_block(args.d_freq, args.n)
        res = hf.balancing_residual(u)
        if args.format == "csv":
            _emit(_csv_with_config(hf.ublock_to_csv(u), args), args.out)
            return 0
        payload = {
            "subcommand": "haar-fourier",
            "config": _config_dict(args),
            "n": args.n,
            "d_freq": args.d_freq,
            "residual": res,
        }
        _emit(_dumps(payload), args.out)
        return 0
    _require(args.eps_star is not None, "supply --eps-star (min-d search) or --d-freq (fixed block)")
    _require(args.format == "json", "min-d search emits JSON only")
    res = hf.min_d_for_eps(args.n, args.eps_star, d_max=args.d_max)
    payload = {
        "subcommand": "haar-fourier",
        "config": _config_dict(args),
        **json.loads(hf.min_d_to_json(res)),
    }
    _emit(_dumps(payload), args.out)
    return 0 if res.found else 3


def _cmd_bounds(args) -> int:
    _require(None not in (args.s, args.eps_s, args.delta, args.xi),
             "bounds requires --s, --eps-s, --delta, --xi")
    c_abs = args.c_abs if args.c_abs is not None else (3200.0 if args.theorem == 1 else 1.0)
    args.c_abs = c_abs  # resolved value lands in the recorded config
    inputs = bd.BoundInputs(
        s=args.s, eps_S=args.eps_s, delta=args.delta, xi=args.xi,
        c1=args.c1, c2=args.c2, Lambda=getattr(args, "lam"), C_abs=c_abs,
    )
    sums = bd.chaining_sums(args.s, args.eps_s, args.xi, args.j_max)
    sums_payload = {
        "S1": sums.S1, "S2": sums.S2, "S3": sums.S3,
        "S1_bound": sums.S1_bound, "S2_bound": sums.S2_bound, "S3_bound": sums.S3_bound,
        "j_max": sums.j_max,
        "remainder_S2": sums.remainder_S2, "remainder_S3": sums.remainder_S3,
    }
    if args.theorem == 1:
        rep = bd.bound_report(inputs, p=args.p, j_max=args.j_max)
        payload = {
            "subcommand": "bounds",
            "config": _config_dict(args),
            "theorem": 1,
            "m_required": rep.m_required,
            "m_raw": rep.m_raw,
            "constants": {"c1": rep.c1, "c2": rep.c2, "crossover": rep.crossover,
                          "C_abs": c_abs, "note": "per unit constant unless C_abs set by the proof"},
            "sums": sums_payload,
        }
    else:
        _require(args.p is not None, "--theorem 2 requires --p")
        lam = getattr(args, "lam")
        c1, c2, crossover = bd.concentration_constants(args.p, lam, 1.0)
        payload = {
            "subcommand": "bounds",
            "config": _config_dict(args),
            "theorem": 2,
            "m_required": bd.m_two_stage(args.p, lam, args.s, args.eps_s, args.delta, args.xi, c_abs),
            "m_raw": bd.m_two_stage_raw(args.p, lam, args.s, args.eps_s, args.delta, args.xi, c_abs),
            "constants": {"c1": c1, "c2": c2, "crossover": crossover,
                          "C_abs": c_abs, "note": "per unit constant"},
            "sums": sums_payload,
        }
    if args.format == "csv":
        lines = ["key,value"]
        flat = {**{k: v for k, v in payload.items() if k in ("theorem", "m_required", "m_raw")},
                **{f"constants.{k}": v for k, v in payload["constants"].items()},
                **{f"sums.{k}": v for k, v in payload["sums"].items()}}
        for k, v in flat.items():
            lines.append(f"{k},{v}")
        _emit(_csv_with_config("\n".join(lines), args), args.out)
        return 0
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_tails(args) -> int:
    _require(args.format == "json", "tails emits JSON only")
    if args.probe == "bernstein":
        sampler = tp.named_sampler(args.sampler.replace("-", "_"))
        fit = tp.bernstein_tail_check(sampler, args.psi_k, args.m, args.t_grid, args.trials, args.seed)
        payload = {
            "subcommand": "tails",
            "config": _config_dict(args),
            "probe": "bernstein",
            **json.loads(tp.tail_fit_to_json(fit)),
        }
        _emit(_dumps(payload), args.out)
        return 0
    spec = _model_spec(args)
    y = ms.normalized_secants(spec, count=1, seed=child_seed(args.seed, CH_SECANT)).directions[:, 0]
    n1, n2 = _map_dims(args, spec)
    fit = tp.increment_tail_fit(
        _dist_spec(args), args.variant.replace("-", "_"), args.m, y, np.zeros_like(y), args.p,
        args.lambda_grid, args.trials, args.seed, n1=n1, n2=n2,
    )
    payload = {
        "subcommand": "tails",
        "config": _config_dict(args),
        "probe": "increment",
        **json.loads(tp.tail_fit_to_json(fit)),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_counterexample(args) -> int:
    _require(args.format == "json", "counterexample emits JSON only")
    _require(args.r is not None and args.b is not None, "counterexample requires --r and --b")
    res = ms.secant_alpha_formula(args.r, args.b, t_max=args.t_max)
    bf, witness = ms.secant_alpha_bruteforce(args.r, args.b, args.i_max)
    payload = {
        "subcommand": "counterexample",
        "config": _config_dict(args),
        "alpha_bruteforce": bf,
        "alpha_formula_exact": res.alpha_exact,
        "alpha_formula_lb": res.alpha_lb,
        "t_min": res.t_min,
        "witness_pair": list(witness),
        "vk_separation_bound": ms.vk_min_separation(args.r, args.b),
        "vk_min_pairwise": ms.vk_min_pairwise(args.r, args.b, args.k_max),
        "vk_k_max": args.k_max,
    }
    _emit(_dumps(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ripbench",
        description="empirical restricted-isometry workbench: nets, sweeps, bounds, tails",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    sub_map = {}

    def new_sub(name, func, **kw):
        sp = subs.add_parser(name, **kw)
        sp.set_defaults(func=func)
        _add_common(sp)
        sub_map[name] = sp
        return sp

    sp = new_sub("net", _cmd_net, help="greedy epsilon-net of model samples or a point file")
    _add_model_flags(sp)
    sp.add_argument("--eps", type=float, default=None)

    sp = new_sub("boxdim", _cmd_boxdim, help="box-counting dimension fit from net counts")
    _add_model_flags(sp)
    sp.add_argument("--eps-grid", type=_float_list, default=None, help="comma list, strictly decreasing, in (0,1)")

    sp = new_sub("rip-sweep", _cmd_rip_sweep, help="median RIP constant against m")
    _add_model_flags(sp)
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default="gaussian")
    sp.add_argument("--q", type=float, default=4.0, help="sparse-pm parameter")
    sp.add_argument("--m-list", type=_int_list, default=None, help="comma list, ascending")
    sp.add_argument("--p", type=int, choices=(1, 2), default=2)
    sp.add_argument("--n-secants", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--variant", choices=("two-stage", "rank-one"), default="two-stage")
    sp.add_argument("--mu", choices=("auto", "analytic", "mc"), default="auto")
    sp.add_argument("--n-resample", type=int, default=2000)

    sp = new_sub("rop", _cmd_rop, help="rank-one projection moment probe on a fixed target matrix")
    sp.add_argument("--n1", type=int, default=16)
    sp.add_argument("--n2", type=int, default=16)
    sp.add_argument("--m", type=int, default=1000)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default="gaussian")
    sp.add_argument("--q", type=float, default=4.0)
    sp.add_argument("--target", choices=("single-entry", "gauss-rank1"), default="single-entry")

    sp = new_sub("haar-fourier", _cmd_haar_fourier, help="balancing residual and minimal frequency count")
    sp.add_argument("--n", type=int, default=None, help="Haar block size (power of two)")
    sp.add_argument("--eps-star", type=float, default=None)
    sp.add_argument("--d-freq", type=int, default=None, help="fixed frequency count: report the residual only")
    sp.add_argument("--d-max", type=int, default=4096)

    sp = new_sub("bounds", _cmd_bounds, help="closed-form sample-complexity bounds and chaining sums")
    sp.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    sp.add_argument("--s", type=float, default=None)
    sp.add_argument("--eps-s", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--xi", type=float, default=None)
    sp.add_argument("--c1", type=float, default=1.0)
    sp.add_argument("--c2", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0, help="psi-norm ratio bound")
    sp.add_argument("--c-abs", type=float, default=None, help="absolute constant (default: 3200 for theorem 1, 1 otherwise)")
    sp.add_argument("--p", type=int, choices=(1, 2), default=None)
    sp.add_argument("--j-max", type=int, default=64)

    sp = new_sub("tails", _cmd_tails, help="empirical two-regime tail fits")
    sp.add_argument("--probe", choices=("bernstein", "increment"), default="bernstein")
    sp.add_argument("--sampler", choices=("exp", "rop-gauss"), default="exp")
    sp.add_argument("--psi-k", type=float, default=2.0, help="single-draw psi-1 bound K (regime split)")
    sp.add_argument("--m", type=int, default=100)
    sp.add_argument("--t-grid", type=_float_list, default=[0.1, 0.2, 0.4, 0.8, 1.6])
    sp.add_argument("--trials", type=int, default=20000)
    _add_model_flags(sp)
    sp.add_argument("--dist", choices=("gaussian", "sparse-pm"), default="gaussian")
    sp.add_argument("--q", type=float, default=4.0)
    sp.add_argument("--variant", choices=("two-stage", "rank-one"), default="two-stage")
    sp.add_argument("--p", type=int, choices=(1, 2), default=2)
    sp.add_argument("--lambda-grid", type=_float_list, default=[0.05, 0.1, 0.2, 0.4, 0.8])

    sp = new_sub("counterexample", _cmd_counterexample, help="correlated-family isometry constants and v_k separation")
    sp.add_argument("--r", type=float, default=None)
    sp.add_argument("--b", type=float, default=None)
    sp.add_argument("--i-max", type=int, default=30)
    sp.add_argument("--k-max", type=int, default=20)
    sp.add_argument("--t-max", type=int, default=60)

    dests = {name: {a.dest for a in sp._actions if a.dest != "help"} for name, sp in sub_map.items()}
    return parser, sub_map, dests


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, sub_map, dests = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                return _fail(2, "config", f"cannot read config file: {exc}")
            if not isinstance(cfg, dict):
                return _fail(2, "config", "config file must hold a JSON object")
            unknown = sorted(set(cfg) - dests[args.subcommand])
            if unknown:
                return _fail(2, "config", f"unknown config keys for {args.subcommand}: {unknown}")
            sub_map[args.subcommand].set_defaults(**cfg)
            args = parser.parse_args(argv)  # explicit flags still win over config defaults
    except SystemExit as exc:  # argparse syntax errors already printed usage
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _resolve_seed(args, argv)
        return args.func(args)
    except tp.FitFailureError as exc:
        return _fail(3, "fit_failure", str(exc))
    except ms.ModelCollapseError as exc:
        return _fail(3, "model_collapse", str(exc))
    except (ValueError, TypeError) as exc:
        return _fail(2, "config", str(exc))
    except OSError as exc:
        return _fail(2, "io", str(exc))


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
