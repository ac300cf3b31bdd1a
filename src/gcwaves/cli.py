"""Command-line front end.

Subcommands: dispersion, coeffs, soliton, ansatz, minimize, validate.
All outputs are flat files (CSV / JSON) with every float serialized at
17 significant digits so repeated runs are byte-identical.  Exit codes:
0 success, 1 config parse error, 2 assumption/regime gate failed,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import dispersion as disp
from . import dno, fieldops, minimizer, nls
from .errors import GcwavesError, NumericalError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GATE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config parsing: flat INI-like key = value sections with line diagnostics


class ConfigParseError(Exception):
    pass


_SCHEMA = {
    "params": {"rho": float, "beta_under": float, "beta_over": float},
    "grid": {"n": int, "k0_multiples": int, "strip_ny": int,
             "depth_under": float},
    "minimize": {"mu": float, "max_iters": int, "grad_tol": float,
                 "M": float, "use_exact_refinement": bool},
    "scan": {"k_min": float, "k_max": float, "samples": int},
}

_DEFAULTS = {
    "grid": {"n": 4096, "k0_multiples": 0, "strip_ny": 128, "depth_under": 0.0},
    "minimize": {"mu": 2e-3, "max_iters": 2000, "grad_tol": 0.0,
                 "M": 0.5, "use_exact_refinement": False},
    "scan": {"k_min": 1e-3, "k_max": 1e3, "samples": 4096},
}


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def parse_config(path: str) -> dict:
    """Parse the flat key-value config file with line-numbered errors."""
    sections: dict = {k: dict(v) for k, v in _DEFAULTS.items()}
    sections.setdefault("params", {})
    current = None
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as ex:
        raise ConfigParseError(f"{path}: cannot read config: {ex}") from ex
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigParseError(
                    f"{path}:{lineno}: unknown section [{current}]"
                )
            continue
        if "=" not in line:
            raise ConfigParseError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        if current is None:
            raise ConfigParseError(
                f"{path}:{lineno}: key outside any [section]"
            )
        key, value = (s.strip() for s in line.split("=", 1))
        typ = _SCHEMA[current].get(key)
        if typ is None:
            raise ConfigParseError(
                f"{path}:{lineno}: unknown key {key!r} in [{current}]"
            )
        try:
            sections[current][key] = (_parse_bool(value) if typ is bool
                                      else typ(value))
        except ValueError as ex:
            raise ConfigParseError(f"{path}:{lineno}: {ex}") from ex
    missing = [k for k in _SCHEMA["params"] if k not in sections["params"]]
    if missing:
        raise ConfigParseError(
            f"{path}: [params] section must define {', '.join(missing)}"
        )
    try:
        sections["_params"] = disp.Params(**sections["params"])
    except GcwavesError as ex:
        raise ConfigParseError(f"{path}: invalid [params]: {ex}") from ex
    return sections


# ---------------------------------------------------------------------------
# deterministic 17-significant-digit serialization


def _format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        if math.isnan(v) or math.isinf(v):
            return json.dumps(str(v))
        return f"{float(v):.17g}"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_format_value(v[k])}" for k in sorted(v)
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(v)}")


def dump_json(obj) -> str:
    return _format_value(obj) + "\n"


def write_json(path, obj):
    fieldops.atomic_write_text(path, dump_json(obj))


def write_csv(path, header: list, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.17g}" for v in row))
    fieldops.atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _report_dict(rep: disp.AssumptionReport) -> dict:
    c = rep.crit
    return {
        "verdict": rep.verdict,
        "k0": c.k0,
        "nu0": c.nu0,
        "a": c.a,
        "lambda2": c.lambda2,
        "A2": c.a2,
        "assumption1_global": c.assumption1_global,
        "assumption1_nondeg": c.assumption1_nondeg,
        "competing_minima": [[k, v] for k, v in rep.competing_minima],
    }


def _pipeline(cfg: dict):
    p = cfg["_params"]
    scan = cfg["scan"]
    rep = disp.find_critical(p, k_min=scan["k_min"], k_max=scan["k_max"],
                             samples=scan["samples"])
    return p, rep


def _grid_for(cfg: dict, crit, coeffs, mu: float) -> fieldops.PeriodicGrid:
    g = cfg["grid"]
    m = g["k0_multiples"]
    if m <= 0:
        m = fieldops.suggest_carrier_multiple(coeffs, crit, mu)
    return fieldops.make_grid(g["n"], crit.k0, m)


def _coeff_dict(crit, c: nls.NlsCoefficients) -> dict:
    return {
        "k0": crit.k0, "nu0": crit.nu0, "a": crit.a,
        "A2": c.a2, "A3": c.a3, "A4": c.a4,
        "A4_1": c.a4_1, "A4_2": c.a4_2,
        "alpha": c.alpha, "nu_nls": c.nu_nls, "i_nls": c.i_nls,
        "focusing": c.focusing,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_dispersion(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    scan = cfg["scan"]
    ks = np.geomspace(scan["k_min"], scan["k_max"], scan["samples"])
    write_csv(args.out, ["k", "lambda_minus", "lambda_plus", "D"],
              zip(ks, *disp.eval_lambda(ks, p)))
    write_json(args.out + ".json", _report_dict(rep))
    if args.require_valid and rep.verdict != "Valid":
        return EXIT_GATE
    return EXIT_OK


def cmd_coeffs(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    if rep.verdict != "Valid":
        payload = {"error": "assumption gate failed", "report": _report_dict(rep)}
        _emit(args.out, payload)
        return EXIT_GATE
    c = nls.compute_coefficients(p, rep.crit)
    _emit(args.out, _coeff_dict(rep.crit, c))
    return EXIT_OK


def _emit(out, payload):
    text = dump_json(payload)
    if out:
        fieldops.atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_soliton(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    if rep.verdict != "Valid":
        _emit(None, {"error": "assumption gate failed",
                     "report": _report_dict(rep)})
        return EXIT_GATE
    c = nls.compute_coefficients(p, rep.crit)
    if not c.focusing:
        _emit(None, {"error": "defocusing regime", **_coeff_dict(rep.crit, c)})
        return EXIT_GATE
    prof = nls.build_soliton(c, n=cfg["grid"]["n"])
    write_csv(args.out, ["x", "phi"], zip(prof.x, prof.samples))
    write_json(args.out + ".json", {
        "amplitude": prof.amplitude, "decay_rate": prof.decay_rate,
        "mass": nls.soliton_mass(prof), "energy": nls.soliton_energy(prof, c),
        **_coeff_dict(rep.crit, c),
    })
    return EXIT_OK


def cmd_ansatz(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    if rep.verdict != "Valid":
        _emit(None, {"error": "assumption gate failed",
                     "report": _report_dict(rep)})
        return EXIT_GATE
    c = nls.compute_coefficients(p, rep.crit)
    if not c.focusing:
        _emit(None, {"error": "defocusing regime"})
        return EXIT_GATE
    mu = cfg["minimize"]["mu"]
    grid = _grid_for(cfg, rep.crit, c, mu)
    eps = fieldops.eps_of_mu(p, c, rep.crit, grid, mu)
    eta = fieldops.build_eta_star(c, rep.crit, eps, grid, p)
    bd = fieldops.eval_J(eta, p, mu)
    fieldops.write_profile_csv(args.out, eta)
    write_json(args.out + ".summary.json", {
        "mu": mu, "eps": eps, "j_mu": bd.j_mu,
        "two_nu0_mu": 2.0 * rep.crit.nu0 * mu,
        "i_nls_mu3": c.i_nls * mu**3,
        "k_total": bd.k_total, "l_trunc": bd.l_trunc,
    })
    return EXIT_OK


def _breakdown_dict(bd: fieldops.FunctionalBreakdown) -> dict:
    return {k: getattr(bd, k) for k in
            ("k_total", "k2", "k4", "l2", "l3", "l4", "l_trunc", "j_mu", "mu")}


def _run_minimize(cfg, p, rep, c, mu):
    grid = _grid_for(cfg, rep.crit, c, mu)
    mcfg = minimizer.MinimizeConfig(
        mu=mu, grid=grid,
        max_iters=cfg["minimize"]["max_iters"],
        grad_tol=cfg["minimize"]["grad_tol"] or None,
        admissibility_M=cfg["minimize"]["M"],
        use_exact_L_refinement=cfg["minimize"]["use_exact_refinement"],
    )
    return minimizer.minimize(p, c, rep.crit, mcfg)


def _result_dict(r: minimizer.MinimizeResult, crit) -> dict:
    out = {
        "breakdown": _breakdown_dict(r.breakdown),
        "speed": r.speed,
        "nu0": crit.nu0,
        "iterations": r.iterations,
        "final_grad_norm": r.final_grad_norm,
        "boundary_hit": r.boundary_hit,
        "converged": r.converged,
    }
    if r.l_exact is not None:
        out["l_exact"] = r.l_exact
        out["speed_exact"] = r.speed_exact
    return out


def cmd_minimize(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    if rep.verdict != "Valid":
        _emit(None, {"error": "assumption gate failed",
                     "report": _report_dict(rep)})
        return EXIT_GATE
    c = nls.compute_coefficients(p, rep.crit)
    if not c.focusing:
        _emit(None, {"error": "defocusing regime"})
        return EXIT_GATE
    os.makedirs(args.out, exist_ok=True)
    mus = ([float(s) for s in args.sweep.split(",")] if args.sweep
           else [cfg["minimize"]["mu"]])
    runs = []
    for mu in mus:
        tag = f"mu_{mu:.6g}".replace(".", "p").replace("-", "m")
        try:
            r = _run_minimize(cfg, p, rep, c, mu)
        except GcwavesError as ex:
            record = {"mu": mu, "error": str(ex)}
            if isinstance(ex, NumericalError):
                record["diagnostics"] = ex.diagnostics
                if ex.last_iterate is not None:
                    fieldops.write_profile_csv(
                        os.path.join(args.out, f"{tag}.error.profile.csv"),
                        ex.last_iterate)
            write_json(os.path.join(args.out, f"{tag}.error.json"), record)
            return EXIT_NUMERICAL
        runs.append(r)
        fieldops.write_profile_csv(os.path.join(args.out, f"{tag}.profile.csv"),
                                   r.eta)
        write_json(os.path.join(args.out, f"{tag}.result.json"),
                   _result_dict(r, rep.crit))
        write_csv(os.path.join(args.out, f"{tag}.iterations.csv"),
                  ["iteration", "j_mu", "grad_norm", "step"], r.history)
    if len(runs) >= 3:
        fit = minimizer.speed_expansion_check(runs, rep.crit, c)
        write_json(os.path.join(args.out, "speed_fit.json"), {
            "fitted": fit.fitted, "predicted": fit.predicted,
            "mus": list(fit.mus), "values": list(fit.values),
            "residual_trend": list(fit.residual_trend),
        })
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    p, rep = _pipeline(cfg)
    if rep.verdict != "Valid":
        _emit(args.out, {"error": "assumption gate failed",
                         "report": _report_dict(rep)})
        return EXIT_GATE
    crit = rep.crit
    c = nls.compute_coefficients(p, crit)
    k0 = crit.k0
    nx = min(cfg["grid"]["n"], 256)
    ny = cfg["grid"]["strip_ny"]
    depth = cfg["grid"]["depth_under"] or 14.0 / k0
    period = 2.0 * np.pi * 4 / k0
    strip = dno.StripGrid(nx=nx, ny=ny, depth_under=depth)
    checks = {}
    ok = True

    # flat-geometry symbols against the dispersion matrices
    sym_err = 0.0
    for k in (k0, 2 * k0, 3 * k0):
        K = dno.flat_K_matrix(k, p, strip, period)
        _, F = disp.eval_PF(k, p)
        sym_err = max(sym_err, float(np.max(np.abs(K - F))))
    checks["flat_symbol_max_abs_err"] = sym_err
    ok &= sym_err <= 1e-8

    # truncation order against the elliptic oracle
    grid = fieldops.PeriodicGrid(n=nx, period=period)
    x = grid.x
    bu = 0.11 * np.cos(k0 * x) + 0.05 * np.cos(2 * k0 * x) \
        + 0.02 * np.sin(3 * k0 * x)
    bv = -0.04 * np.cos(k0 * x) + 0.03 * np.sin(2 * k0 * x) \
        + 0.01 * np.cos(3 * k0 * x)
    diffs = []
    for s in (0.2, 0.1, 0.05):
        eta = fieldops.ProfilePair(grid, s * bu, s * bv)
        lex = dno.eval_L_exact(eta, p, strip)
        lt = sum(fieldops.eval_L_trunc(eta, p))
        diffs.append(abs(lex - lt))
    slopes = [math.log(diffs[i] / diffs[i + 1]) / math.log(2.0)
              for i in range(len(diffs) - 1)]
    checks["truncation_diffs"] = diffs
    checks["truncation_slopes"] = slopes
    ok &= min(slopes) >= 4.5

    # gradient consistency
    rng = np.random.default_rng(2024)
    def rand_field(scale=3e-2):
        U = np.zeros(nx // 2 + 1, dtype=complex)
        mmax = nx // 12
        U[1:mmax] = ((rng.standard_normal(mmax - 1)
                      + 1j * rng.standard_normal(mmax - 1))
                     * np.exp(-np.arange(1, mmax) / 5.0))
        u = np.fft.irfft(U, nx)
        return scale * u / np.max(np.abs(u))
    max_rel = 0.0
    h = 1e-5
    mu = 1e-3
    for _ in range(3):
        eta = fieldops.ProfilePair(grid, rand_field(), rand_field())
        du, dv = rand_field(), rand_field()
        (gu, gv), _ = fieldops.grad_J(eta, p, mu)
        ep = fieldops.ProfilePair(grid, eta.eta_under + h * du,
                                  eta.eta_over + h * dv)
        em = fieldops.ProfilePair(grid, eta.eta_under - h * du,
                                  eta.eta_over - h * dv)
        fd = (fieldops.eval_J(ep, p, mu).j_mu
              - fieldops.eval_J(em, p, mu).j_mu) / (2 * h)
        an = grid.dx * float(np.sum(gu * du + gv * dv))
        max_rel = max(max_rel, abs(fd - an) / max(abs(fd), 1e-300))
    checks["gradient_max_rel_err"] = max_rel
    ok &= max_rel <= 1e-6

    checks["pass"] = bool(ok)
    _emit(args.out, checks)
    return EXIT_OK if ok else EXIT_NUMERICAL


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gcwaves",
        description="Two-layer gravity-capillary solitary-wave toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_out, out_help):
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="config file path")
        if needs_out == "required":
            q.add_argument("--out", required=True, help=out_help)
        elif needs_out == "optional":
            q.add_argument("--out", default=None, help=out_help)
        q.set_defaults(func=fn)
        return q

    q = add("dispersion", cmd_dispersion, "required", "output CSV path")
    q.add_argument("--require-valid", action="store_true")
    add("coeffs", cmd_coeffs, "optional", "output JSON path (default stdout)")
    add("soliton", cmd_soliton, "required", "output CSV path")
    add("ansatz", cmd_ansatz, "required", "output profile CSV path")
    q = add("minimize", cmd_minimize, "required", "output directory")
    q.add_argument("--sweep", default=None,
                   help="comma-separated mu values for a sweep")
    add("validate", cmd_validate, "optional",
        "output JSON path (default stdout)")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigParseError as ex:
        print(str(ex), file=sys.stderr)
        return EXIT_PARSE
    except GcwavesError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
