"""Batch front door: model ingestion, solver dispatch, report emission.

Exit codes: 0 success, 1 malformed input, a bad command line included (or a
run that ran out of memory),
2 mathematical verdict (the input parsed fine but a standing assumption
fails, e.g. nonnegative mean drift), 3 numerical failure (a solve or
simulation could not certify its result, e.g. a residual above tolerance).
Exits 2 and 3 also write ``verdict.json``.
Every run writes a manifest recording the resolved configuration, the model
file digest, the master seed, and timing; re-running reproduces the solver
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    ConflictingFlags,
    InputError,
    IoError,
    MathVerdictError,
    NumericalFailure,
    ParseError,
)
from .ergodicity import (
    fit_ergodic_bound,
    tv_distance_curve,
    verify_dynkin_identity,
    zero_potential,
)
from .finite_horizon import (
    check_supermartingale,
    solve_finite_horizon,
    solve_truncated,
    truncation_gap_bound,
)
from .infinite_horizon import (
    DEFAULT_DELTA,
    brute_force_region_oracle,
    check_oracle_size,
    compactify_running_reward,
    solve_infinite_horizon,
    stopping_rule_eps,
)
from .markov import grid_steps, residual_tol
from .modelio import load_model_file
from .montecarlo import check_region_hit, estimate_functional, terminal_truncation_gap
from .report import emit_report, format_value
from .rewards import make_rewards


@dataclass
class RunManifest:
    """Reproducibility record emitted with every run."""

    command: str
    config: dict
    model_digest: str
    master_seed: int | None
    version: str
    started_utc: str
    duration_s: float


def _parse_indices(text: str, model) -> list[int]:
    """State indices of a comma list. A token names a state by its ``str``
    or by its table text (``format_value``), else gives its index; a token
    that names more than one state is refused."""
    named = {}
    for i, s in enumerate(model.states):
        for name in {str(s), format_value(s)}:
            named.setdefault(name, []).append(i)
    out = []
    for token in text.split(","):
        token = token.strip()
        if token == "":
            continue
        hits = named.get(token, [])
        if len(hits) > 1:
            raise ParseError(f"state {token!r} names states {hits}")
        if hits:
            out.append(hits[0])
        else:
            try:
                idx = int(token)
            except ValueError as exc:
                raise ParseError(f"unknown state {token!r}") from exc
            if not 0 <= idx < model.n_states:
                raise ParseError(f"state index {idx} out of range")
            out.append(idx)
    if not out:
        raise ParseError("empty state list")
    return out


def _parse_state(text: str, model, flag: str) -> int:
    """The one state index that ``flag`` names; a list of several is refused."""
    idx = _parse_indices(text, model)
    if len(idx) > 1:
        raise ParseError(f"{flag} takes one state, got {text!r}")
    return idx[0]


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def _require_rewards(mf, need_f=True, need_g=True):
    if need_f and mf.f is None:
        raise ParseError("model file must carry a per-state 'f' for this command")
    if need_g and mf.g is None:
        raise ParseError("model file must carry a per-state 'g' for this command")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergostop",
        description="undiscounted optimal stopping on ergodic Markov chains",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--dt", type=float, default=None,
                       help="time step override (generator models only)")
        p.add_argument("--out", default="ergostop-out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if seed:
            p.add_argument("--paths", type=int, default=10000)
            p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("solve", help="finite-horizon value surface")
    common(p)
    p.add_argument("--horizon", type=float, required=True, help="horizon in time units")
    p.add_argument("--truncate", type=float, default=None,
                   help="clamp |terminal reward| at this level")

    p = sub.add_parser("solve-infinite", help="certified infinite-horizon value")
    common(p)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--eps", type=float, default=None,
                   help="also report the eps-relaxed stop region")

    p = sub.add_parser("oracle-check", help="compare solver against region enumeration")
    common(p)

    p = sub.add_parser("diagnose", help="ergodicity and zero-potential diagnostics")
    common(p, seed=True)
    p.add_argument("--check", choices=("dynkin", "tv", "poisson"), required=True)
    p.add_argument("--probe", default=None, help="comma list of probe states (tv)")
    p.add_argument("--max-time", type=float, default=None, help="TV window (tv)")
    p.add_argument("--region", default=None, help="stop region (dynkin)")
    p.add_argument("--cap", type=int, default=50, help="step cap for tau (dynkin)")
    p.add_argument("--start", default="0", help="start state (dynkin)")

    p = sub.add_parser("simulate", help="Monte Carlo functional estimates")
    common(p, seed=True)
    p.add_argument("--region", required=True, help="comma list of stop states")
    p.add_argument("--start", default="0")
    p.add_argument("--horizons", required=True, help="comma list of time horizons")

    p = sub.add_parser("compactify", help="flatten the running reward outside a ball")
    common(p)
    p.add_argument("--center", default="0", help="ball center state")
    return parser


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # a usage error is malformed input; --help exits 0
        return 1 if exc.code else 0
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        # every verdict is raised past the load, which refuses with input errors
        mf = load_model_file(args.model, dt_override=args.dt)
        results, seed = _dispatch(args, mf)
        results["manifest"] = _manifest(args, mf, seed, started, t0)
        paths = emit_report(results, args.out, args.format)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not malformed input
        failure = NumericalFailure(f"linear solve failed: {exc}")
        return _verdict(args, mf, failure, started, t0)
    except (MathVerdictError, NumericalFailure) as exc:
        return _verdict(args, mf, exc, started, t0)
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    return 0


def _manifest(args, mf, seed, started, t0) -> dict:
    return asdict(RunManifest(
        command=args.command,
        config={k: v for k, v in vars(args).items() if k != "command"},
        model_digest=mf.digest,
        master_seed=seed,
        version=__version__,
        started_utc=started,
        duration_s=time.perf_counter() - t0,
    ))


def _verdict(args, mf, exc, started, t0) -> int:
    """Write ``verdict.json`` and return the exit code: 3 for a numerical
    failure, 2 for a mathematical verdict. A failed write only warns."""
    record = {
        "verdict": type(exc).__name__,
        "message": str(exc),
        "command": args.command,
    }
    try:
        manifest = _manifest(args, mf, getattr(args, "seed", None), started, t0)
        emit_report({"verdict": record, "manifest": manifest}, args.out, "json")
    except (OSError, IoError) as err:
        print(f"warning: verdict.json not written: {err}", file=sys.stderr)
    print(f"verdict: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 3 if isinstance(exc, NumericalFailure) else 2


def _dispatch(args, mf):
    model = mf.model
    names = np.array(model.states, dtype=object)  # not coerced: mixed names keep types
    if args.command == "solve":
        _require_rewards(mf)
        rewards = make_rewards(model, mf.f, mf.g)
        try:
            steps = int(grid_steps(args.horizon, model.dt))
        except ValueError as exc:
            raise ConflictingFlags(f"--horizon {args.horizon}: {exc}") from None
        if args.truncate is not None:
            sol = solve_truncated(model, rewards, steps, args.truncate)
        else:
            sol = solve_finite_horizon(model, rewards, steps)
        sup = check_supermartingale(model, rewards, sol)
        times = sol.horizon_steps + 1
        columns = (np.tile(names, times), np.repeat(np.arange(times), model.n_states),
                   sol.surface.ravel(), sol.rule.ravel())
        diag = {
            "max_residual": sup.max_residual,
            "max_continuation_gap": sup.max_continuation_gap,
            "ok": sup.ok,
            "truncation_level": sol.truncation_level,
        }
        if args.truncate is not None:
            diag["truncation_gap_bounds"] = truncation_gap_bound(
                model, rewards, steps, args.truncate
            )
        return {"surface": (("state", "k", "w_k", "stop_flag"), columns),
                "diagnostics": diag}, None

    if args.command == "solve-infinite":
        _require_rewards(mf)
        rewards = make_rewards(model, mf.f, mf.g)
        sol = solve_infinite_horizon(model, rewards, delta=args.delta)
        header = ["state", "w", "stop", "gamma", "Z", "expected_tau"]
        columns = [names, sol.w, sol.region, sol.gamma, sol.Z, sol.expected_tau]
        if args.eps is not None:
            header.append("stop_eps")
            columns.append(stopping_rule_eps(sol, args.eps))
        record = {
            "certified": sol.certified,
            "fixed_point_residual": sol.fixed_point_residual,
            "iterations": sol.iterations,
            "delta": args.delta,
            "d": sol.d,
        }
        return {"values": (tuple(header), columns), "certification": record}, None

    if args.command == "oracle-check":
        check_oracle_size(model.n_states)  # before the solver spends its time
        _require_rewards(mf)
        rewards = make_rewards(model, mf.f, mf.g)
        sol = solve_infinite_horizon(model, rewards)
        oracle = brute_force_region_oracle(model, rewards)
        max_diff = float(np.max(np.abs(sol.w - oracle.w)))
        regions_match = bool((sol.region == oracle.minimal_time_region).all())
        close = max_diff <= residual_tol(sol.w, oracle.w)
        record = {
            "max_diff": max_diff,
            "regions_match": regions_match,
            "certified": sol.certified,
            "agree": bool(close and regions_match and sol.certified),
        }
        if not record["agree"]:
            raise MathVerdictError(
                f"solver and oracle disagree: max diff {max_diff}, "
                f"regions_match={regions_match}"
            )
        return {"oracle_check": record}, None

    if args.command == "diagnose":
        return _diagnose(args, mf, names)

    if args.command == "simulate":
        _require_rewards(mf)
        rewards = make_rewards(model, mf.f, mf.g)
        region = _parse_indices(args.region, model)
        start = _parse_state(args.start, model, "--start")
        horizons = [float(h) for h in args.horizons.split(",")]
        check_region_hit(model, region, start)  # before any path is sampled
        est = estimate_functional(
            model, rewards, region, start, horizons, args.paths, args.seed
        )
        gap = terminal_truncation_gap(
            model, rewards, region, start, horizons, est.std_errors
        )
        record = {
            "liminf_window": est.liminf_window,
            "limsup_window": est.limsup_window,
            "functional_verdict": est.verdict,
            "truncation_verdict": gap.verdict,
        }
        return {
            "estimates": (
                ("horizon", "estimate", "std_error", "gminus_term", "cap_gap"),
                (est.horizons, est.estimates, est.std_errors, gap.gminus_terms, gap.gaps),
            ),
            "verdicts": record,
        }, args.seed

    if args.command == "compactify":
        _require_rewards(mf, need_g=False)
        mu = model.invariant  # a chain without a unique law is refused first
        center = _parse_state(args.center, model, "--center")
        comp = compactify_running_reward(model, mf.f, center=center)
        columns = (names, mf.f, comp.z, comp.f_hat, comp.f_bar)
        record = {
            "N": comp.N,
            "center": model.states[comp.center],
            "mu_f": float(mu.weights @ mf.f),
            "mu_f_bar": comp.mu_f_bar,
        }
        return {"compactified": (("state", "f", "z", "f_hat", "f_bar"), columns),
                "summary": record}, None

    raise ConflictingFlags(f"unknown command {args.command}")


def _diagnose(args, mf, names):
    model = mf.model
    model.invariant  # a chain without a unique law is refused before any check
    if args.check == "poisson":
        _require_rewards(mf, need_g=False)
        zp = zero_potential(model, mf.f)
        record = {"residual": zp.residual, "centred": zp.centred}
        return {"zero_potential": (("state", "q"), (names, zp.q)),
                "poisson": record}, None
    if args.check == "tv":
        probes = (
            _parse_indices(args.probe, model)
            if args.probe is not None
            else list(range(model.n_states))
        )
        if len(set(probes)) < len(probes):
            raise ParseError(f"--probe names a state more than once: {args.probe!r}")
        max_time = args.max_time if args.max_time is not None else 32 * model.dt
        profile = fit_ergodic_bound(
            tv_distance_curve(model, probes, max_time)
        )
        columns = (np.repeat(names[probes], len(profile.times)),
                   np.tile(profile.times, len(probes)), profile.tv.ravel())
        record = {
            "K": profile.K,
            "integral_h": profile.integral_h,
            "tail_ratio": profile.tail_ratio,
            "a2_plausible": profile.a2_plausible,
        }
        return {"tv_curve": (("state", "t", "tv"), columns), "ergodic_fit": record}, None
    if args.check == "dynkin":
        _require_rewards(mf, need_g=False)
        if args.region is None:
            raise ConflictingFlags("--check dynkin needs --region")
        region = _parse_indices(args.region, model)
        start = _parse_state(args.start, model, "--start")
        zp = zero_potential(model, mf.f)
        rep = verify_dynkin_identity(
            model, zp, mf.f, region, args.cap, start, args.paths, args.seed
        )
        return {"dynkin": {
            "estimate": rep.estimate,
            "std_error": rep.std_error,
            "reference": rep.reference,
            "z_score": rep.z_score,
            "verdict": rep.verdict,
        }}, args.seed
    raise ConflictingFlags(f"unknown check {args.check}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
