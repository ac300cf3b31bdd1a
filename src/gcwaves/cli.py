"""Command-line front end.

Subcommands: dispersion, coeffs, soliton, ansatz, minimize, validate.
All outputs are flat files (CSV / JSON) with every float serialized at
17 significant digits so repeated runs are byte-identical.  Exit codes:
0 success, 1 config parse error or unwritable output, 2 assumption/regime
gate failed, 3 invalid configuration or numerical failure.

Every command but ``dispersion`` passes its config through ``_gate``,
which writes a JSON payload and nothing else when a gate fails:
``coeffs`` and ``validate`` to ``--out`` (stdout when unset), ``soliton``,
``ansatz`` and ``minimize`` to stdout.  ``oracle_suite`` holds the
truncation-vs-oracle checks that ``validate`` and the tests share.

``minimize`` writes each run's ``result.json`` whether or not the run
converged, and a single run exits 0 either way (``converged`` and
``reason`` say which).  A ``--sweep`` fits the speed law only from
three or more converged runs: where any run reports ``converged=False``
it writes no ``speed_fit.json``, names each such mu and its ``reason``
on stderr and exits 3.  A run that raises writes its ``.error.json``,
names its mu, the error and the mu left unrun on one stderr line, and
exits 3 without running the rest of the sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import dispersion as disp
from . import dno, fieldops, minimizer, nls
from .errors import ConfigError, GcwavesError, NumericalError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GATE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config parsing: flat INI-like key = value sections with line diagnostics


class ConfigParseError(Exception):
    pass


class OutputError(Exception):
    """An output path that cannot be written, named as given."""

    def __init__(self, path, ex: OSError):
        super().__init__(f"{path}: cannot write: {ex.strerror or ex}")


def _mu(text: str) -> float:
    """A momentum level, which must be finite and positive."""
    mu = float(text)
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    return mu


_DESCENT = {f.name: f.default
            for f in dataclasses.fields(minimizer.MinimizeConfig)}
_SCAN = inspect.signature(disp.find_critical).parameters

#: (parser, default) of each key; the [params] keys have no default, the
#: descent's take MinimizeConfig's and the scan's find_critical's, each
#: parsed as its default's type
_SCHEMA = {
    "params": {"rho": (float, None), "beta_under": (float, None),
               "beta_over": (float, None)},
    "grid": {"n": (int, 4096), "k0_multiples": (int, 0),
             "strip_ny": (int, 128), "depth_under": (float, 0.0)},
    "minimize": {"mu": (_mu, 2e-3),
                 "max_iters": (int, _DESCENT["max_iters"]),
                 "grad_tol": (float, _DESCENT["grad_tol"]),
                 "M": (float, _DESCENT["admissibility_M"])},
    "scan": {k: (type(_SCAN[k].default), _SCAN[k].default)
             for k in ("k_min", "k_max", "samples")},
}


def _mu_tag(mu: float) -> str:
    """The file-name prefix of a run's outputs."""
    return f"mu_{mu:.6g}".replace(".", "p").replace("-", "m")


def _parse_sweep(text: str) -> list:
    """The mu list of ``--sweep``: finite, positive, and one output name
    (``_mu_tag``) per entry."""
    entries = text.split(",")
    try:
        mus = [_mu(s) for s in entries]
    except ValueError as ex:
        raise ConfigParseError(f"--sweep {text!r}: {ex}") from ex
    runs = {}
    for entry, mu in zip(entries, mus):
        runs.setdefault(_mu_tag(mu), []).append(repr(entry.strip()))
    clashes = [f"{', '.join(e)} share the output name {tag}"
               for tag, e in runs.items() if len(e) > 1]
    if clashes:
        raise ConfigParseError(f"--sweep {text!r}: {'; '.join(clashes)}")
    return mus


def parse_config(path: str) -> dict:
    """Parse the flat key-value config file with line-numbered errors."""
    sections: dict = {
        name: {k: d for k, (_, d) in keys.items() if d is not None}
        for name, keys in _SCHEMA.items()}
    current = None
    seen = {}  # (section, key) -> the line that set it
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
        if key not in _SCHEMA[current]:
            raise ConfigParseError(
                f"{path}:{lineno}: unknown key {key!r} in [{current}]"
            )
        first = seen.setdefault((current, key), lineno)
        if first != lineno:
            raise ConfigParseError(
                f"{path}:{lineno}: key {key!r} repeats in [{current}], "
                f"first set on line {first}"
            )
        try:
            sections[current][key] = _SCHEMA[current][key][0](value)
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
        if not math.isfinite(v):
            return json.dumps(float(v))  # NaN, Infinity or -Infinity
        text = f"{float(v):.17g}"
        # an integral float has no point or exponent, so JSON would read
        # it back as an int
        return text if any(ch in text for ch in ".e") else text + ".0"
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


def _atomic_write(path, chunks):
    """Write an iterable of byte strings via a same-directory temp file
    and rename; a chunk that raises leaves ``path`` as it was, and an
    OSError is raised as an ``OutputError`` that names ``path``."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as ex:
        raise OutputError(path, ex) from ex
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_text(path, text: str):
    """Write via a same-directory temp file and rename."""
    _atomic_write(path, [text.encode()])


def write_json(path, obj):
    atomic_write_text(path, dump_json(obj))


#: the rows write_csv formats and writes at a time
_CSV_BLOCK_ROWS = 2048


def write_csv(path, header: list, columns):
    """CSV of equal-length columns, one per header name, every value
    printed as a float with "%.17g".  The rows are formatted and written
    a block of _CSV_BLOCK_ROWS at a time, so no table-sized text is held."""
    table = np.asarray(columns, dtype=float).T
    row = ",".join(["%.17g"] * len(header)) + "\n"

    def chunks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            yield ((row * len(block)) % tuple(block.ravel().tolist())).encode()

    _atomic_write(path, chunks())


def sidecar_path(csv_path) -> str:
    return os.fspath(csv_path) + ".json"


def write_profile_csv(path, eta: fieldops.ProfilePair):
    """CSV columns x, eta_under, eta_over plus a JSON grid sidecar."""
    g = eta.grid
    write_csv(path, ["x", "eta_under", "eta_over"],
              [g.x, eta.eta_under, eta.eta_over])
    write_json(sidecar_path(path),
               {"n": g.n, "period": g.period, "k0_multiple": g.k0_multiple})


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
        "A2_fixed_v0": c.a2,
        "assumption1_global": c.assumption1_global,
        "assumption1_nondeg": c.assumption1_nondeg,
        "competing_minima": [[k, v] for k, v in rep.competing_minima],
    }


class _GateFailed(Exception):
    """An assumption or regime gate failed; its payload is written."""


def _emit(out, payload):
    text = dump_json(payload)
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _gate(cfg: dict, out, focusing: bool):
    """The critical point and NLS coefficients of a config, past its gates.

    The slow branch must have a strict, non-degenerate global minimum
    (verdict Valid) and, where ``focusing`` is set, the NLS must be
    focusing.  A failed gate writes its payload to ``out`` (stdout when
    ``out`` is None) and raises ``_GateFailed``.
    """
    rep = disp.find_critical(cfg["_params"], **cfg["scan"])
    if rep.verdict != "Valid":
        _emit(out, {"error": "assumption gate failed",
                    "report": _report_dict(rep)})
        raise _GateFailed
    c = nls.compute_coefficients(cfg["_params"], rep.crit)
    if focusing and not c.focusing:
        _emit(out, {"error": "defocusing regime", **_coeff_dict(rep.crit, c)})
        raise _GateFailed
    return rep.crit, c


def _grid_for(cfg: dict, crit, coeffs, mu: float) -> fieldops.PeriodicGrid:
    g = cfg["grid"]
    m = g["k0_multiples"]
    if m == 0:
        m = fieldops.suggest_carrier_multiple(coeffs, crit, mu)
    return fieldops.make_grid(g["n"], crit.k0, m)


def _coeff_dict(crit, c: nls.NlsCoefficients) -> dict:
    """The coefficients, with the soliton's speed and energy null where
    the NLS defocuses and has no soliton."""
    return {
        "k0": crit.k0, "nu0": crit.nu0, "a": crit.a,
        "A2": c.a2, "A3": c.a3, "A4": c.a4,
        "A4_1": c.a4_1, "A4_2": c.a4_2, "alpha": c.alpha,
        "nu_nls": c.nu_nls if c.focusing else None,
        "i_nls": c.i_nls if c.focusing else None,
        "focusing": c.focusing,
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_dispersion(args) -> int:
    cfg = parse_config(args.config)
    p, scan = cfg["_params"], cfg["scan"]
    rep = disp.find_critical(p, **scan)
    ks = np.geomspace(scan["k_min"], scan["k_max"], scan["samples"])
    write_csv(args.out, ["k", "lambda_minus", "lambda_plus", "D"],
              [ks, *disp.eval_lambda(ks, p)])
    write_json(sidecar_path(args.out), _report_dict(rep))
    if args.require_valid and rep.verdict != "Valid":
        return EXIT_GATE
    return EXIT_OK


def cmd_coeffs(args) -> int:
    crit, c = _gate(parse_config(args.config), args.out, focusing=False)
    _emit(args.out, _coeff_dict(crit, c))
    return EXIT_OK


def cmd_soliton(args) -> int:
    cfg = parse_config(args.config)
    crit, c = _gate(cfg, None, focusing=True)
    prof = nls.build_soliton(c, n=cfg["grid"]["n"])
    write_csv(args.out, ["x", "phi"], [prof.x, prof.samples])
    write_json(sidecar_path(args.out), {
        "amplitude": prof.amplitude, "decay_rate": prof.decay_rate,
        "mass": nls.soliton_mass(prof), "energy": nls.soliton_energy(prof, c),
        **_coeff_dict(crit, c),
    })
    return EXIT_OK


def cmd_ansatz(args) -> int:
    cfg = parse_config(args.config)
    crit, c = _gate(cfg, None, focusing=True)
    p = cfg["_params"]
    mu = cfg["minimize"]["mu"]
    grid = _grid_for(cfg, crit, c, mu)
    eps = fieldops.eps_of_mu(p, c, crit, grid, mu)
    eta = fieldops.build_eta_star(c, crit, eps, grid, p)
    bd = fieldops.eval_J(eta, p, mu)
    write_profile_csv(args.out, eta)
    write_json(args.out + ".summary.json", {
        "mu": mu, "eps": eps, "j_mu": bd.j_mu,
        "two_nu0_mu": 2.0 * crit.nu0 * mu,
        "i_nls_mu3": c.i_nls * mu**3,
        "k_total": bd.k_total, "l_trunc": bd.l_trunc,
    })
    return EXIT_OK


def _run_minimize(cfg, crit, c, mu):
    m = cfg["minimize"]
    mcfg = minimizer.MinimizeConfig(
        mu=mu, grid=_grid_for(cfg, crit, c, mu), max_iters=m["max_iters"],
        grad_tol=m["grad_tol"], admissibility_M=m["M"])
    return minimizer.minimize(cfg["_params"], c, crit, mcfg)


def _result_dict(r: minimizer.MinimizeResult, crit) -> dict:
    """Every field of the result but the profile and the history, which
    have files of their own, plus nu0."""
    out = {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
           if f.name not in ("eta", "history")}
    out["breakdown"] = dataclasses.asdict(r.breakdown)
    out["nu0"] = crit.nu0
    return out


def cmd_minimize(args) -> int:
    cfg = parse_config(args.config)
    mus = _parse_sweep(args.sweep) if args.sweep else [cfg["minimize"]["mu"]]
    crit, c = _gate(cfg, None, focusing=True)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as ex:
        raise OutputError(args.out, ex) from ex
    runs = []
    for i, mu in enumerate(mus):
        tag = _mu_tag(mu)
        try:
            r = _run_minimize(cfg, crit, c, mu)
        except GcwavesError as ex:
            record = {"mu": mu, "error": str(ex)}
            if isinstance(ex, NumericalError):
                record["diagnostics"] = ex.diagnostics
                if ex.last_iterate is not None:
                    write_profile_csv(
                        os.path.join(args.out, f"{tag}.error.profile.csv"),
                        ex.last_iterate)
            write_json(os.path.join(args.out, f"{tag}.error.json"), record)
            skipped = ", ".join(f"mu={m:g}" for m in mus[i + 1:]) or "none"
            print(f"mu={mu:g} failed: {ex}; not run: {skipped}",
                  file=sys.stderr)
            return EXIT_NUMERICAL
        runs.append(r)
        write_profile_csv(os.path.join(args.out, f"{tag}.profile.csv"), r.eta)
        write_json(os.path.join(args.out, f"{tag}.result.json"),
                   _result_dict(r, crit))
        write_csv(os.path.join(args.out, f"{tag}.iterations.csv"),
                  ["iteration", "j_mu", "grad_norm", "step", "trials", "n",
                   "approx_wolfe"],
                  list(zip(*r.history)))
    unconverged = [f"mu={mu:g} ({r.reason})"
                   for mu, r in zip(mus, runs) if not r.converged]
    if args.sweep and unconverged:
        print(f"sweep not converged, no speed fit: {', '.join(unconverged)}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if len(runs) >= 3:
        fit = minimizer.speed_expansion_check(runs, crit, c)
        write_json(os.path.join(args.out, "speed_fit.json"),
                   dataclasses.asdict(fit))
    return EXIT_OK


def oracle_suite(p: disp.Params, k0: float, grid: fieldops.PeriodicGrid,
                 strip: dno.StripGrid) -> dict:
    """The truncated functionals against the elliptic oracle.

    ``flat_symbol_max_abs_err`` is the largest entry of |K(k) - F(k)| at
    k = k0, 2 k0, 3 k0, with K the oracle's flat-strip symbol on the
    period of ``grid``.  ``truncation_diffs`` are |L_exact - L_trunc| for
    a test profile of carrier harmonics 1..3 at amplitudes 0.2, 0.1 and
    0.05, and ``truncation_slopes`` their log-log slopes, which approach
    5 where the truncation error is O(amplitude^5).  The caller judges
    the numbers.
    """
    sym_errs = []
    for k in (k0, 2 * k0, 3 * k0):
        K = dno.flat_K_matrix(k, p, strip, grid.period)
        _, F = disp.eval_PF(k, p)
        sym_errs.append(np.max(np.abs(K - F)))
    sym_err = float(np.max(sym_errs))  # a NaN stays a NaN

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
    return {"flat_symbol_max_abs_err": sym_err, "truncation_diffs": diffs,
            "truncation_slopes": slopes}


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    crit, _ = _gate(cfg, args.out, focusing=False)
    p = cfg["_params"]
    k0 = crit.k0
    nx = min(cfg["grid"]["n"], 256)
    ny = cfg["grid"]["strip_ny"]
    depth = cfg["grid"]["depth_under"] or 14.0 / k0
    grid = fieldops.make_grid(nx, k0, 4)
    strip = dno.StripGrid(nx=nx, ny=ny, depth_under=depth)
    checks = oracle_suite(p, k0, grid, strip)
    ok = (checks["flat_symbol_max_abs_err"] <= 1e-8
          and np.min(checks["truncation_slopes"]) >= 4.5)

    # gradient consistency
    rng = np.random.default_rng(2024)
    def rand_field(scale=3e-2):
        U = np.zeros(nx // 2 + 1, dtype=complex)
        mmax = max(nx // 12, 2)  # at least mode 1
        U[1:mmax] = ((rng.standard_normal(mmax - 1)
                      + 1j * rng.standard_normal(mmax - 1))
                     * np.exp(-np.arange(1, mmax) / 5.0))
        u = np.fft.irfft(U, nx)
        return scale * u / np.max(np.abs(u))
    rels = []
    h = 1e-5
    mu = 1e-3
    for _ in range(3):
        eta = fieldops.ProfilePair(grid, rand_field(), rand_field())
        du, dv = rand_field(), rand_field()
        gu, gv = np.fft.irfft(fieldops.grad_J(eta, p, mu)[0], nx)
        ep = fieldops.ProfilePair(grid, eta.eta_under + h * du,
                                  eta.eta_over + h * dv)
        em = fieldops.ProfilePair(grid, eta.eta_under - h * du,
                                  eta.eta_over - h * dv)
        fd = (fieldops.eval_J(ep, p, mu).j_mu
              - fieldops.eval_J(em, p, mu).j_mu) / (2 * h)
        an = grid.dx * float(np.sum(gu * du + gv * dv))
        rels.append(abs(fd - an) / max(abs(fd), 1e-300))
    max_rel = float(np.max(rels))  # a NaN stays a NaN and fails
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

    def add(name, fn, out_required, out_help):
        q = sub.add_parser(name)
        q.add_argument("--config", required=True, help="config file path")
        q.add_argument("--out", required=out_required, help=out_help)
        q.set_defaults(func=fn)
        return q

    q = add("dispersion", cmd_dispersion, True, "output CSV path")
    q.add_argument("--require-valid", action="store_true")
    add("coeffs", cmd_coeffs, False, "output JSON path (default stdout)")
    add("soliton", cmd_soliton, True, "output CSV path")
    add("ansatz", cmd_ansatz, True, "output profile CSV path")
    q = add("minimize", cmd_minimize, True, "output directory")
    q.add_argument("--sweep", default=None,
                   help="comma-separated mu values for a sweep")
    add("validate", cmd_validate, False, "output JSON path (default stdout)")
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigParseError, OutputError) as ex:
        print(str(ex), file=sys.stderr)
        return EXIT_PARSE
    except _GateFailed:
        return EXIT_GATE
    except ConfigError as ex:
        print(f"invalid configuration: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL
    except GcwavesError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
