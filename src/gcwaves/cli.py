"""Command-line front end.

Subcommands: dispersion, coeffs, soliton, ansatz, minimize, validate.
All outputs are flat files (CSV / JSON) with every float serialized at
17 significant digits so repeated runs are byte-identical.  Exit codes:
0 success, 1 config parse error, 2 assumption/regime gate failed,
3 numerical failure.

Every command but ``dispersion`` passes its config through ``_gate``,
which writes a JSON payload and nothing else when a gate fails:
``coeffs`` and ``validate`` to ``--out`` (stdout when unset), ``soliton``,
``ansatz`` and ``minimize`` to stdout.  ``oracle_suite`` holds the
truncation-vs-oracle checks that ``validate`` and the tests share.

``minimize`` writes each run's ``result.json`` whether or not the run
converged, and a single run exits 0 either way (``converged`` and
``reason`` say which).  A ``--sweep`` fits the speed law only from
converged runs: where any run reports ``converged=False`` it writes no
``speed_fit.json``, names each such mu and its ``reason`` on stderr and
exits 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

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


def _mu(text: str) -> float:
    """A momentum level, which must be finite and positive."""
    mu = float(text)
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    return mu


#: (parser, default) of each key; the [params] keys have no default
_SCHEMA = {
    "params": {"rho": (float, None), "beta_under": (float, None),
               "beta_over": (float, None)},
    "grid": {"n": (int, 4096), "k0_multiples": (int, 0),
             "strip_ny": (int, 128), "depth_under": (float, 0.0)},
    "minimize": {"mu": (_mu, 2e-3), "max_iters": (int, 2000),
                 "grad_tol": (float, 0.0), "M": (float, 0.5)},
    "scan": {"k_min": (float, 1e-3), "k_max": (float, 1e3),
             "samples": (int, 4096)},
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


def _atomic_write(path, chunks):
    """Write an iterable of byte strings via a same-directory temp file
    and rename; a chunk that raises leaves ``path`` as it was."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    """Write via a same-directory temp file and rename."""
    _atomic_write(path, [text.encode()])


def write_json(path, obj):
    atomic_write_text(path, dump_json(obj))


def _pow10_pairs(kmin: int, kmax: int):
    """10**k for k = kmin..kmax as unevaluated sums hi + lo of doubles,
    each part correctly rounded from integer arithmetic."""
    hi, lo = [], []
    for k in range(kmin, kmax + 1):
        if k >= 0:
            h = float(10 ** k)
            lo.append(float(10 ** k - int(h)))
        else:
            q = 10 ** -k
            h = 1 / q
            a, b = h.as_integer_ratio()
            lo.append((b - a * q) / (b * q))  # 10**k - a/b
        hi.append(h)
    return np.array(hi), np.array(lo)


def _split(a):
    """Dekker's split of a into high and low halves of 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    h = c - (c - a)
    return h, a - h


#: the range of |x| that write_csv formats in numpy, and the scales
#: 10**k it needs there: k = 16 - P for P = floor(log10|x|), -282..282
#: once log10 may be one off
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_POW_MIN = -266
_POW_HI, _POW_LO = _pow10_pairs(_POW_MIN, 298)
#: the four ASCII digits of 0000..9999 ([a, b, c, d] holds "abcd"), as
#: one little-endian word
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)
_DIGITS4[..., 0] = np.arange(ord("0"), ord("9") + 1)[:, None, None, None]
_DIGITS4[..., 1] = np.arange(ord("0"), ord("9") + 1)[:, None, None]
_DIGITS4[..., 2] = np.arange(ord("0"), ord("9") + 1)[:, None]
_DIGITS4[..., 3] = np.arange(ord("0"), ord("9") + 1)
_DIGITS4 = _DIGITS4.reshape(10000, 4).view("<u4").ravel()
#: the trailing zeros of 0000..9999 (4 for 0000)
_ZEROS4 = np.zeros((10, 10, 10, 10), np.int8)
_ZEROS4[:, :, :, 0] = 1
_ZEROS4[:, :, 0, 0] = 2
_ZEROS4[:, 0, 0, 0] = 3
_ZEROS4[0, 0, 0, 0] = 4
_ZEROS4 = _ZEROS4.ravel()
_CSV_BLOCK_ROWS = 2048
#: a value's bytes in a block's character matrix: sign, "0.000", 17
#: digits with a point among them, "e+123" and the separator
_WIDTH = 30
#: row n is 0xff in its first n columns
_FIRST = np.array([[0xFF] * n + [0] * (18 - n) for n in range(18)], np.uint8)
#: row j holds a point in column j; row 18 is empty
_POINT = np.array([[0] * j + [ord(".")] + [0] * (17 - j) for j in range(18)]
                  + [[0] * 18], np.uint8)
#: row -p: what fixed notation puts before the digits at exponent p,
#: -1 >= p >= -4
_LEADING = np.array([[0] * 5] + [list(b"0." + b"0" * z) + [0] * (3 - z)
                                 for z in range(4)], np.uint8)
#: "e-300" .. "e+300", the exponent part of each exponent; the last
#: row is empty
_EXP_MAX = 300
_EXPONENTS = np.frombuffer(b"".join(
    f"e{e:+03d}".encode().ljust(5, b"\0")
    for e in range(-_EXP_MAX, _EXP_MAX + 1)) + bytes(5),
    np.uint8).reshape(-1, 5)


def _scaled(a, p):
    """Floor and fraction of a * 10**(16 - p), to within 2**-47."""
    k = 16 - p - _POW_MIN
    hi = _POW_HI.take(k)
    prod = a * hi
    (ah, al), (hh, hl) = _split(a), _split(hi)
    # Dekker's exact rounding error of prod, plus a * lo
    t = ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * _POW_LO.take(k)
    f = np.floor(t)
    return prod.astype(np.int64) + f.astype(np.int64), t - f


def _format_block(values, seps):
    """The "%.17g" text of each value, followed by its separator (an
    ASCII code); see write_csv."""
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.int64)
    f, r = _scaled(a, p)
    off = (f >= 10 ** 17).astype(np.int64) - (f < 10 ** 16)
    moved = np.flatnonzero(off)  # log10 is off by one near 10**p
    if len(moved):
        p[moved] += off[moved]
        f[moved], r[moved] = _scaled(a[moved], p[moved])
    fast &= (f >= 10 ** 16) & (f < 10 ** 17) & (np.abs(r - 0.5) > 1e-6)
    d = np.where(fast, f + (r > 0.5), 10 ** 16)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    p += carry

    # the 17 digits, from the head digit and four groups of four
    head, rest = np.divmod(d, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    quads = [*np.divmod(upper, 10 ** 4), *np.divmod(lower, 10 ** 4)]
    words = np.empty((len(values), 5), "<u4")
    words[:, 0] = (head + ord("0")) << 24
    for j, q in enumerate(quads):
        words[:, j + 1] = _DIGITS4.take(q)
    digits = words.view(np.uint8)[:, 3:]
    # digits left once the trailing zeros go
    nd, run = np.full(len(values), 17), np.ones(len(values), bool)
    for q in reversed(quads):
        nd -= run * _ZEROS4.take(q)
        run &= q == 0
    fixed = (p >= -4) & (p < 17)
    small = fixed & (p < 0)  # 0.000ddd
    # the decimal point follows digit `point`: p in fixed notation, 0 in
    # exponential, none (16) in 0.000ddd; fixed notation keeps the
    # integer part's zeros
    point = np.where(fixed, np.where(small, 16, p), 0)
    nd = np.where(fixed & ~small, np.maximum(nd, point + 1), nd)
    kept = digits & _FIRST.take(nd, 0)[:, :17]
    lead = kept & _FIRST.take(point + 1, 0)[:, :17]

    out = np.empty((len(values), _WIDTH), np.uint8)
    out[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    out[:, 1:6] = _LEADING.take(np.where(small, -p, 0), 0)
    # digits 0..point, the point, then the rest: a digit column holds its
    # own digit up to the point and its left neighbour's after it
    body = out[:, 6:24]
    body[:, :17] = lead
    body[:, 17] = 0
    body[:, 1:] |= kept ^ lead
    body |= _POINT.take(np.where(nd > point + 1, point + 1, 18), 0)
    out[:, 24:29] = _EXPONENTS.take(
        np.where(fixed, 2 * _EXP_MAX + 1, p + _EXP_MAX), 0)
    out[:, 29] = seps
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join((b"%.17g" % v).ljust(_WIDTH - 1, b"\0")
                        for v in values[slow].tolist())
        out[slow, :-1] = np.frombuffer(text, np.uint8).reshape(len(slow), -1)
    return out.tobytes().translate(None, b"\0")


def write_csv(path, header: list, columns):
    """CSV of equal-length columns, one per header name, every value
    printed as a float at 17 significant digits, byte for byte as "%.17g"
    prints it.

    The digits come from numpy, not from one decimal conversion per
    value.  For P = floor(log10|x|), S = |x| * 10**(16 - P) lies in
    [1e16, 1e17), and the integer nearest S is the 17 digits.  S is
    formed in double-double arithmetic: Dekker's exact product of |x|
    with hi, the double nearest 10**(16 - P), plus |x| times lo, the
    residual 10**(16 - P) - hi.  The computed S is within 2**-47 (7e-15)
    of the exact one: the error comes only from rounding |x| * lo, lo
    itself and the sum of the low parts.  So wherever the fraction r of
    S lies more than 1e-6 from 1/2, no half-integer lies between the
    computed and the exact S, and both round to the same digits.  Where
    floor(S) falls outside [1e16, 1e17), log10 was off by one next to a
    power of ten, and P moves once.

    Python's "%.17g" prints every other value, one at a time: +-0, nan,
    +-inf, |x| outside [1e-280, 1e280] (well inside the range where
    Dekker's split stays finite and every lo is a normal double),
    |r - 1/2| <= 1e-6 (among them the exact ties, which "%.17g" rounds
    to even), and a value whose floor(S) still lies outside
    [1e16, 1e17).  The digits are laid out by "%g"'s rules in a
    character matrix of _WIDTH bytes a value, padded with NULs, and the
    padding is squeezed out.

    A block's arrays take about 280 bytes a value, some 13 times its
    text.  So the rows go through in blocks of _CSV_BLOCK_ROWS, each
    written as it is done, and no table-sized array or text is held.
    """
    table = np.asarray(columns, dtype=float).T
    seps = np.full(len(header), ord(","), np.uint8)
    seps[-1] = ord("\n")

    def chunks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            yield _format_block(block.ravel(), np.tile(seps, len(block)))

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
    grid = _grid_for(cfg, crit, c, mu)
    mcfg = minimizer.MinimizeConfig(
        mu=mu, grid=grid,
        max_iters=cfg["minimize"]["max_iters"],
        grad_tol=cfg["minimize"]["grad_tol"] or None,
        admissibility_M=cfg["minimize"]["M"],
    )
    return minimizer.minimize(cfg["_params"], c, crit, mcfg)


def _result_dict(r: minimizer.MinimizeResult, crit) -> dict:
    return {
        "breakdown": dataclasses.asdict(r.breakdown),
        "speed": r.speed,
        "nu0": crit.nu0,
        "iterations": r.iterations,
        "value_evals": r.value_evals,
        "gradient_evals": r.gradient_evals,
        "spectral_tail": r.spectral_tail,
        "final_grad_norm": r.final_grad_norm,
        "boundary_hit": r.boundary_hit,
        "max_trial_h2_sq": r.max_trial_h2_sq,
        "converged": r.converged,
        "reason": r.reason,
        "levels": r.levels,
    }


def cmd_minimize(args) -> int:
    cfg = parse_config(args.config)
    mus = _parse_sweep(args.sweep) if args.sweep else [cfg["minimize"]["mu"]]
    crit, c = _gate(cfg, None, focusing=True)
    os.makedirs(args.out, exist_ok=True)
    runs = []
    for mu in mus:
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
            return EXIT_NUMERICAL
        runs.append(r)
        write_profile_csv(os.path.join(args.out, f"{tag}.profile.csv"), r.eta)
        write_json(os.path.join(args.out, f"{tag}.result.json"),
                   _result_dict(r, crit))
        write_csv(os.path.join(args.out, f"{tag}.iterations.csv"),
                  ["iteration", "j_mu", "grad_norm", "step", "trials", "n"],
                  list(zip(*r.history)))
    unconverged = [f"mu={mu:g} ({r.reason})"
                   for mu, r in zip(mus, runs) if not r.converged]
    if args.sweep and unconverged:
        print(f"sweep not converged, no speed fit: {', '.join(unconverged)}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if len(runs) >= 3:
        fit = minimizer.speed_expansion_check(runs, crit, c)
        write_json(os.path.join(args.out, "speed_fit.json"), {
            "fitted": fit.fitted, "predicted": fit.predicted,
            "mus": list(fit.mus), "values": list(fit.values),
            "residual_trend": list(fit.residual_trend),
        })
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
    sym_err = 0.0
    for k in (k0, 2 * k0, 3 * k0):
        K = dno.flat_K_matrix(k, p, strip, grid.period)
        _, F = disp.eval_PF(k, p)
        sym_err = max(sym_err, float(np.max(np.abs(K - F))))

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
          and min(checks["truncation_slopes"]) >= 4.5)

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
    except _GateFailed:
        return EXIT_GATE
    except GcwavesError as ex:
        print(f"numerical failure: {ex}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
