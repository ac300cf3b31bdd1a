import numpy as np
import pytest

from gcwaves import (Params, compute_coefficients, fieldops, find_critical,
                     minimizer)
from gcwaves.errors import ConfigError, NumericalError, OutOfConeError
from gcwaves.fieldops import (ProfilePair, _is_grid_size, build_eta_star,
                              eps_of_mu, eval_J, eval_L_trunc, make_grid,
                              suggest_carrier_multiple)
from gcwaves.minimizer import (MinimizeConfig, MinimizeResult, _ladder,
                               _prolong, _spectral_tail, minimize,
                               speed_expansion_check)

from conftest import BENCH, fft_rows_calls
from spectral_helpers import h2_norm, hessian_model_matrix, roll

MU = 4e-3


@pytest.fixture(scope="module")
def run(bench_crit, bench_coeffs):
    # the ladder (768: 15, 1024: 2, 1536: 1, 2048: 0) ends on an idle
    # grid; on n = 1536 its top grid would still take a step
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, MU)
    grid = make_grid(4096, bench_crit.k0, m)
    cfg = MinimizeConfig(mu=MU, grid=grid, max_iters=1200)
    return minimize(BENCH, bench_coeffs, bench_crit, cfg), cfg


def test_config_validation(bench_crit, bench_coeffs):
    grid = make_grid(1024, bench_crit.k0, 4)
    with pytest.raises(ConfigError):
        MinimizeConfig(mu=0.5, grid=grid)  # above the mu ceiling
    # nan and 0 never meet the stopping test, and inf is met before any
    # step
    for tol in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="grad_tol"):
            MinimizeConfig(mu=1e-3, grid=grid, grad_tol=tol)
    with pytest.raises(ConfigError, match="max_iters"):
        MinimizeConfig(mu=1e-3, grid=grid, max_iters=-1)
    assert MinimizeConfig(mu=1e-3, grid=grid, max_iters=0).max_iters == 0
    # the tolerance is in units of mu
    assert MinimizeConfig(mu=1e-3, grid=grid).tol == 1e-5 * 1e-3
    assert MinimizeConfig(mu=2e-3, grid=grid, grad_tol=1e-7).tol == 2e-10
    # M = 0 would divide the barrier by zero; a negative M is no radius
    for M in (0.0, -0.5):
        with pytest.raises(ConfigError, match="admissibility_M"):
            MinimizeConfig(mu=1e-3, grid=grid, admissibility_M=M)


def test_descent_converges_below_threshold(run, bench_crit):
    r, cfg = run
    assert r.converged
    assert r.final_grad_norm <= cfg.tol
    assert r.breakdown.j_mu < 2.0 * bench_crit.nu0 * MU
    assert not r.boundary_hit


def test_descent_monotone(run):
    # J never rises within a grid of the ladder.  At a switch the same
    # iterate is valued on two discretisations; they agreed to 1.9e-13 of
    # J on the bench grids and to 7.7e-13 at mu = 5e-4, n = 32768
    r, _ = run
    assert len(r.levels) == 4
    rows = r.history
    for prev, row in zip(rows, rows[1:]):
        if row[5] == prev[5]:
            assert row[1] <= prev[1]
        else:
            assert abs(row[1] - prev[1]) <= 1e-11 * abs(prev[1])


def test_minimum_below_test_function(run, bench_crit, bench_coeffs):
    r, cfg = run
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, cfg.grid, MU)
    eta0 = build_eta_star(bench_coeffs, bench_crit, eps, cfg.grid, BENCH)
    assert r.breakdown.j_mu <= eval_J(eta0, BENCH, MU).j_mu


def test_speed_below_nu0(run, bench_crit):
    r, _ = run
    assert 0.0 < r.speed < bench_crit.nu0


def test_speed_translation_invariant(run):
    r, _ = run
    rolled = roll(r.eta, 137)
    l_trunc = sum(eval_L_trunc(rolled, BENCH))
    assert MU / l_trunc == pytest.approx(r.speed, rel=1e-12)


def test_carrier_band_locking(run, bench_crit):
    # on the carrier band the surface component is -a times the interface
    r, _ = run
    k = r.eta.grid.k
    kc = r.eta.grid.carrier
    band = np.abs(k - kc) <= bench_crit.k0 / 3.0
    U = np.fft.rfft(r.eta.eta_under)[band]
    V = np.fft.rfft(r.eta.eta_over)[band]
    rel = np.linalg.norm(V + bench_crit.a * U) / np.linalg.norm(U)
    assert rel <= 0.05


def test_initial_speed_near_nu0(bench_crit, bench_coeffs):
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(2048, bench_crit.k0, m)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta0 = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    nu_init = mu / sum(eval_L_trunc(eta0, BENCH))
    assert nu_init == pytest.approx(bench_crit.nu0, abs=50.0 * mu**2)


def test_determinism(bench_crit, bench_coeffs):
    mu = 6e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(1024, bench_crit.k0, m)
    cfg = MinimizeConfig(mu=mu, grid=grid, max_iters=300)
    r1 = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    r2 = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert np.array_equal(r1.eta.eta_under, r2.eta.eta_under)
    assert np.array_equal(r1.eta.eta_over, r2.eta.eta_over)
    assert r1.history == r2.history


def test_barrier_activates_with_tiny_ball(bench_crit, bench_coeffs):
    mu = 6e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(1024, bench_crit.k0, m)
    eps = eps_of_mu(BENCH, bench_coeffs, bench_crit, grid, mu)
    eta0 = build_eta_star(bench_coeffs, bench_crit, eps, grid, BENCH)
    tiny_M = 0.98 * h2_norm(eta0) / 0.9  # barrier active from the start
    cfg = MinimizeConfig(mu=mu, grid=grid, max_iters=60,
                         admissibility_M=tiny_M, grad_tol=1e-30)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.boundary_hit
    # iterates never breach the ball itself
    assert h2_norm(r.eta) < tiny_M
    # the interpolating backtrack finds the barrier's wall in a few trials
    assert r.value_evals <= 3 * r.iterations


def test_largest_trial_h2_is_reported():
    # a Valid, focusing configuration that converges without an accepted
    # point in the shell, so boundary_hit is false, while one line-search
    # trial lies far outside the ball (s = 3.4e3 against M^2 = 0.25)
    p = Params(0.5, 0.543, 1.2)
    crit = find_critical(p).crit
    c = compute_coefficients(p, crit)
    assert c.focusing
    mu = 4e-4
    m = suggest_carrier_multiple(c, crit, mu)
    assert m == 57
    cfg = MinimizeConfig(mu=mu, grid=make_grid(2048, crit.k0, m))
    r = minimize(p, c, crit, cfg)
    assert r.converged and not r.boundary_hit
    assert r.max_trial_h2_sq > 1e3 * cfg.admissibility_M**2
    # the trials include every accepted point, the last one too
    assert r.max_trial_h2_sq >= h2_norm(r.eta) ** 2


def test_largest_trial_h2_inside_the_ball(run):
    # BENCH at mu = 4e-3 never reaches the barrier's shell
    r, cfg = run
    s0 = (0.9 * cfg.admissibility_M) ** 2
    assert h2_norm(r.eta) ** 2 <= r.max_trial_h2_sq < s0


def test_no_convergence_on_the_barrier():
    # a Valid, focusing configuration whose descent at the default M ends
    # just inside the shell, s = 0.2025000028 against s0 = 0.2025: the
    # barrier's slope cancels J's there, so the objective's gradient meets
    # the tolerance while J's alone is about 1400 times it
    p = Params(0.5, 0.214, 0.05)
    crit = find_critical(p).crit
    c = compute_coefficients(p, crit)
    assert c.focusing
    mu = 6e-3
    cfg = MinimizeConfig(mu=mu, grid=make_grid(1024, crit.k0, 40))
    r = minimize(p, c, crit, cfg)
    assert r.boundary_hit
    assert 0.9 * cfg.admissibility_M < h2_norm(r.eta) < cfg.admissibility_M
    assert r.final_grad_norm <= cfg.tol
    gu, gv = np.fft.irfft(fieldops.grad_J(r.eta, p, mu)[0], cfg.grid.n)
    grad_j = np.sqrt(cfg.grid.dx * (np.sum(gu**2) + np.sum(gv**2)))
    assert grad_j > 100.0 * cfg.tol
    assert not r.converged and r.reason == "barrier_shell"


def test_bench_level_converges_in_few_iterations(bench_crit, bench_coeffs):
    # the exact quadratic model at the NLS speed takes 16 iterations at
    # the benchmark's first sweep level (23 with the fixed-v0 A2); the
    # shifted symbol took 53
    mu = 4e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(4096, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged
    assert r.iterations <= 30


@pytest.mark.parametrize("mu, n, iterations", [
    (4e-3, 4096, 18), (2e-3, 8192, 13), (1e-3, 16384, 11),
])
def test_sweep_levels_take_their_pinned_iterations(bench_crit, bench_coeffs,
                                                   mu, n, iterations):
    # the benchmark's sweep levels; the count reacts to any rounding
    # change in the test profile or the value stage, so a change meant
    # to keep every bit must leave it as it is
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(n, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged
    assert r.iterations == iterations


def test_small_mu_descent_starts_next_to_its_minimum(bench_crit,
                                                    bench_coeffs):
    # with A2 the branch curvature the test profile starts within
    # 0.02 mu^3 of J_min here, and the descent takes 10 iterations and 13
    # values; with the fixed-v0 A2 it started 3.3 mu^3 above and took 62
    # iterations and 104 values
    mu = 5e-4
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(32768, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged and r.final_grad_norm <= cfg.tol
    assert r.iterations <= 20


def test_small_mu_descent_reaches_a_tight_tolerance(bench_crit,
                                                    bench_coeffs):
    # 12 iterations on the carrier grid and one on the grid above; the
    # next grid size, below the requested grid, confirms it without a
    # step
    mu = 5e-4
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(16384, bench_crit.k0, m),
                         grad_tol=1e-6, max_iters=300)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert [lv["n"] for lv in r.levels] == [6144, 8192, 12288]
    assert r.converged and r.final_grad_norm <= cfg.tol


def test_tight_tolerance_passes_the_rounding_plateau(bench_crit,
                                                    bench_coeffs):
    # at 1e-9 mu the predicted decrease of a step falls below an ulp of J,
    # so no trial passes the Armijo test on its value: that test alone
    # spent all 300 iterations on the carrier grid.  The approximate Wolfe
    # test reads the slope instead; the ladder (6144: 16, 8192: 2,
    # 12288: 1, 16384: 0) took 19 iterations
    mu = 5e-4
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(32768, bench_crit.k0, m),
                         grad_tol=1e-9, max_iters=300)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged and r.final_grad_norm <= cfg.tol
    assert r.iterations <= 40
    assert any(h[6] for h in r.history)


def test_a_step_that_moves_nothing_stalls(bench_crit, bench_coeffs,
                                          monkeypatch):
    # a zero direction: the Armijo test accepts the unchanged iterate,
    # which ends the ladder on its grid instead of spending the budget
    monkeypatch.setattr(minimizer._Objective, "precondition",
                        lambda self, q: np.zeros_like(q))
    cfg = _small_config(bench_crit, bench_coeffs, max_iters=300)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert not r.converged and r.reason == "stalled"
    assert r.iterations <= 3
    assert [lv["n"] for lv in r.levels] == [r.eta.grid.n]


def _fail_line_search_trial(monkeypatch, error, entry):
    """Make the objective entry ``entry`` raise ``error`` on its second
    call: the first trial step of the first line search (for eval_J) or
    the first trial that may be accepted (for grad_J)."""
    calls = []
    original = getattr(minimizer, entry)

    def objective(eta, p, mu):
        calls.append(mu)
        if len(calls) == 2:
            raise error
        return original(eta, p, mu)
    monkeypatch.setattr(minimizer, entry, objective)
    return calls


def _small_config(bench_crit, bench_coeffs, max_iters):
    # the ladder (512: 34, 768: 4, 1024: 2, 1536: 0) ends on an idle grid
    mu = 6e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    return MinimizeConfig(mu=mu, grid=make_grid(4096, bench_crit.k0, m),
                          max_iters=max_iters)


@pytest.mark.parametrize("entry", ["eval_J", "grad_J"])
def test_programming_error_in_objective_propagates(bench_crit, bench_coeffs,
                                                   monkeypatch, entry):
    calls = _fail_line_search_trial(monkeypatch, TypeError("broken objective"),
                                    entry)
    cfg = _small_config(bench_crit, bench_coeffs, max_iters=5)
    with pytest.raises(TypeError, match="broken objective"):
        minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert len(calls) == 2


def test_out_of_cone_trial_halves_the_step(bench_crit, bench_coeffs,
                                           monkeypatch):
    # the value entry is where _breakdown raises it
    _fail_line_search_trial(monkeypatch, OutOfConeError("left the cone"),
                            "eval_J")
    cfg = _small_config(bench_crit, bench_coeffs, max_iters=2)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.iterations == 2
    assert r.history[1][3] <= 0.5


def test_rejected_trials_skip_the_gradient(bench_crit, bench_coeffs,
                                          monkeypatch):
    """Only a trial that passes the Armijo test runs a gradient stage, so
    each gradient is that of the next iterate, and the result counts the
    gradient stages that did run."""
    events = []
    value, gradient = minimizer._Objective.__call__, fieldops._gradient

    def counted_value(self, x):
        f_try, trial = value(self, x)
        events.append(f_try)
        return f_try, trial

    def counted_gradient(*args):
        events.append(None)
        return gradient(*args)
    monkeypatch.setattr(minimizer._Objective, "__call__", counted_value)
    monkeypatch.setattr(fieldops, "_gradient", counted_gradient)
    r = minimize(BENCH, bench_coeffs, bench_crit,
                 _small_config(bench_crit, bench_coeffs, max_iters=300))
    assert r.converged
    assert events.count(None) == r.gradient_evals
    assert len(events) - r.gradient_evals == r.value_evals
    assert r.gradient_evals < r.value_evals  # some trials were rejected
    # walk the trials: each gradient follows the value of the next
    # iterate of the history, in order
    accepted = iter(h[1] for h in r.history)
    last = None
    for e in events:
        if e is not None:
            last = e
        else:
            assert last == next(accepted)
    assert next(accepted, None) is None


def _even_band_vector(rng, n):
    """Cosine spectrum of random even rows with no Nyquist mode."""
    X = rng.standard_normal((2, n // 2 + 1))
    X[:, -1] = 0.0
    return X


def _model_objective(bench_crit, bench_coeffs, shell):
    """An objective on n = 32 whose start x0 is a modulated carrier, with
    the barrier's Hessian in its model where ``shell``: (objective, x0,
    the barrier's (dV/ds, V'', x) or None, a generator)."""
    n = 32
    grid = make_grid(n, bench_crit.k0, 4)
    x, kc = grid.x, grid.carrier
    wave = 0.05 * (1.0 + 0.5 * np.cos(2.0 * np.pi * x / grid.period)) \
        * np.cos(kc * x)
    rows = np.stack([wave, -bench_crit.a * wave])
    x0 = np.fft.rfft(rows).real
    ball = h2_norm(ProfilePair(grid, *rows)) / 0.95 if shell else 1.0
    nu = minimizer._model_speed(bench_crit, bench_coeffs, MU)
    obj = minimizer._Objective(BENCH, MU, ball, grid, nu, x0)
    rng = np.random.default_rng(11)
    barrier = None
    if shell:
        x_in = x0 + 1e-3 * _even_band_vector(rng, n)
        _, trial = obj(x_in)
        assert trial.dvds is not None
        obj.move(obj.gradient(trial)[2])
        barrier = (trial.dvds, 2.0 / (obj.s_edge - obj.s0)**2, x_in)
    return obj, x0, barrier, rng


@pytest.mark.parametrize("shell", [False, True])
def test_preconditioner_inverts_the_quadratic_model(bench_crit, bench_coeffs,
                                                    shell):
    # the model is the dense Hessian of K2 + mu^2 / L2 at the NLS speed,
    # its rank-one term at the level's start (a modulated carrier), plus
    # the barrier's Hessian at an iterate inside the shell, formed on the
    # rows and taken to cosine spectra.  The forward error is rounding
    # times the model's condition number, about 270 outside the shell and
    # 530 in it on this grid
    obj, x0, barrier, rng = _model_objective(bench_crit, bench_coeffs, shell)
    M = hessian_model_matrix(BENCH, obj.grid, obj._nu, x0, barrier)
    for _ in range(4):
        d = _even_band_vector(rng, obj.grid.n)
        back = obj.precondition((M @ d.ravel()).reshape(d.shape))
        assert np.linalg.norm(back - d) <= 1e-12 * np.linalg.norm(d)
        assert obj.dot(d, obj.precondition(d)) > 0.0


@pytest.mark.parametrize("shell", [False, True])
def test_one_descent_step_transforms(bench_crit, bench_coeffs, fft_record,
                                     shell):
    # a trial is staged from its spectrum: the eight padded fields and
    # the seven products, 15 rows in 2 calls; its gradient stage adds 16
    # rows in 9 calls, and the model acts mode by mode, with none
    obj, x0, _, _ = _model_objective(bench_crit, bench_coeffs, shell)
    fft_record.clear()
    _, trial = obj(x0)
    assert fft_rows_calls(fft_record) == (15, 2)
    fft_record.clear()
    g, _, shell_terms = obj.gradient(trial)
    assert fft_rows_calls(fft_record) == (16, 9)
    obj.move(shell_terms)
    fft_record.clear()
    obj.precondition(g)
    assert fft_record == []


@pytest.mark.parametrize("params", ["BENCH", "NEAR_RESONANT"])
def test_model_speed_lies_below_nu0(params, bench_crit, bench_coeffs,
                                    resonant_crit, resonant_coeffs):
    # nu_NLS < 0 whenever A2 > 0, so the model's symbol g_nu is g_nu0 plus
    # a positive multiple of F
    crit, c = ((bench_crit, bench_coeffs) if params == "BENCH"
               else (resonant_crit, resonant_coeffs))
    for mu in np.geomspace(1e-5, minimizer._MU_CEILING, 12):
        nu = minimizer._model_speed(crit, c, float(mu))
        assert 0.0 <= nu < crit.nu0


def _evenize(x, n):
    """Reference projection of a flat (u, v) vector onto even profiles:
    the average of each row and its reflection u[j] -> u[-j mod n]."""
    rows = x.reshape(2, n)
    return 0.5 * (rows + np.roll(rows[:, ::-1], 1, axis=1))


def test_cosine_spectrum_is_the_even_projection(bench_crit, bench_coeffs):
    # the real part of the rfft keeps the even part of the rows, which
    # the objective's profile returns
    obj = _model_objective(bench_crit, bench_coeffs, False)[0]
    n = obj.grid.n
    y = np.random.default_rng(3).standard_normal((2, n))
    eta = obj.profile(np.fft.rfft(y).real)
    even = _evenize(y, n)
    assert np.max(np.abs(eta.eta_under - even[0])) <= 1e-15
    assert np.max(np.abs(eta.eta_over - even[1])) <= 1e-15


def test_spectral_dot_equals_full_grid_dot(bench_crit, bench_coeffs):
    # the Parseval-weighted product of two cosine spectra is the L^2
    # product dx sum(a b) of their even rows
    obj = _model_objective(bench_crit, bench_coeffs, False)[0]
    n, dx = obj.grid.n, obj.grid.dx
    rng = np.random.default_rng(5)
    a = _evenize(rng.standard_normal(2 * n), n)
    b = a + 0.5 * _evenize(rng.standard_normal(2 * n), n)
    for u, v in ((a, a), (a, b)):
        full = dx * float(np.sum(u * v))
        spectral = obj.dot(np.fft.rfft(u).real, np.fft.rfft(v).real)
        assert spectral == pytest.approx(full, rel=1e-15, abs=0.0)


def test_spectral_tail_reads_the_top_band():
    grid = make_grid(256, 1.0, 8)
    x = grid.x
    # the top 20% of the 129 rfft bins starts at bin 102
    under = np.cos(3.0 * grid.k[1] * x) + 1e-6 * np.cos(110.0 * grid.k[1] * x)
    over = 0.5 * np.cos(5.0 * grid.k[1] * x) + 4e-6 * np.cos(
        120.0 * grid.k[1] * x)
    assert _spectral_tail(np.fft.rfft([under, over])) == \
        pytest.approx(8e-6, rel=1e-6)
    below = 0.5 * np.cos(101.0 * grid.k[1] * x) + np.cos(2.0 * grid.k[1] * x)
    assert _spectral_tail(np.fft.rfft([under, below])) == \
        pytest.approx(1e-6, rel=1e-6)


def test_history_counts_every_value(run):
    # one row per iteration, plus each grid's start row, which repeats
    # the previous row's iteration number with step 0.0
    r, cfg = run
    assert len(r.history) == r.iterations + len(r.levels)
    starts = [i for i, h in enumerate(r.history)
              if i == 0 or h[5] != r.history[i - 1][5]]
    assert [r.history[i][5] for i in starts] == [lv["n"] for lv in r.levels]
    assert r.history[-1][5] == r.eta.grid.n
    for i in starts:
        assert r.history[i][3] == 0.0 and r.history[i][4] == 1
        assert r.history[i][0] == (r.history[i - 1][0] if i else 0)
    assert [h[0] for i, h in enumerate(r.history) if i not in starts] == \
        list(range(1, r.iterations + 1))
    assert all(h[4] >= 1 for h in r.history)
    assert sum(h[4] for h in r.history) == r.value_evals
    assert sum(lv["iterations"] for lv in r.levels) == r.iterations
    assert sum(lv["value_evals"] for lv in r.levels) == r.value_evals
    assert sum(lv["gradient_evals"] for lv in r.levels) == r.gradient_evals


def test_speed_fit_on_synthetic_runs(bench_crit, bench_coeffs):
    # synthetic speeds nu = nu0 + c mu^2 + d mu^3 recover c
    c_true = bench_coeffs.nu_nls * bench_coeffs.alpha
    d_spur = 40.0

    def fake(mu):
        bd = type("B", (), {})()
        bd.mu = mu
        r = MinimizeResult(
            eta=None, breakdown=bd,
            speed=bench_crit.nu0 + c_true * mu**2 + d_spur * mu**3,
            iterations=1, final_grad_norm=0.0, boundary_hit=False,
            converged=True)
        return r

    runs = [fake(mu) for mu in (4e-3, 2e-3, 1e-3)]
    fit = speed_expansion_check(runs, bench_crit, bench_coeffs)
    assert fit.fitted == pytest.approx(c_true, rel=1e-9)
    assert fit.predicted == pytest.approx(c_true, rel=1e-12)


def test_speed_fit_degenerate_guard(bench_crit, bench_coeffs):
    bd = type("B", (), {"mu": 1e-3})()
    r = MinimizeResult(eta=None, breakdown=bd, speed=0.5, iterations=1,
                       final_grad_norm=0.0, boundary_hit=False, converged=True)
    with pytest.raises(ConfigError):
        speed_expansion_check([r, r], bench_crit, bench_coeffs)
    with pytest.raises(ConfigError):
        speed_expansion_check([r, r, r], bench_crit, bench_coeffs)


@pytest.mark.parametrize("mu, n, sizes", [
    (4e-3, 4096, [768, 1024, 1536, 2048, 3072, 4096]),
    (2e-3, 8192, [1536, 2048, 3072, 4096, 6144, 8192]),
    (1e-3, 16384, [3072, 4096, 6144, 8192, 12288, 16384]),
    (6e-3, 1024, [512, 768, 1024]),
    (1e-3, 4096, [3072, 4096]),
    (1e-3, 3072, [3072]),  # a carrier grid holds no coarser rung
])
def test_ladder_starts_above_the_third_harmonic(bench_crit, bench_coeffs,
                                               mu, n, sizes):
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    grid = make_grid(n, bench_crit.k0, m)
    grids = _ladder(grid)
    assert [g.n for g in grids] == sizes
    # the ladder climbs through every grid size from the carrier grid,
    # by 3/2 after 2^k and by 4/3 after 3 2^k, and ends on the requested
    # grid itself
    assert grids[-1] is grid
    assert [g.n for g in grids] == [k for k in range(grids[0].n, n + 1)
                                    if _is_grid_size(k)]
    # the coarsest grid size whose Nyquist wavenumber lies above 3 k0
    assert grids[0] is grid.carrier_grid
    assert grids[0].n == min(k for k in range(16, n + 1)
                             if _is_grid_size(k) and k // 2 > 3 * m)
    assert all(g.period == grid.period and g.k0_multiple == m
               for g in grids)


@pytest.mark.parametrize("mu, n, grad_tol", [
    (4e-3, 4096, 1e-5), (2e-3, 8192, 1e-5), (1e-3, 16384, 1e-5),
    (5e-4, 131072, 1e-9),
])
def test_the_verdict_holds_on_twice_the_grid(bench_crit, bench_coeffs, mu,
                                             n, grad_tol):
    # the idle grid that confirms a level is 3/2 or 4/3 of the last grid
    # that iterated.  Prolonged to twice that grid, the profile still
    # meets the tolerance (0.074, 0.132, 0.892 and 0.018 of it), so a
    # doubled idle grid would have given the same verdict
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(n, bench_crit.k0, m),
                         grad_tol=grad_tol)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged
    n2 = 2 * r.levels[-2]["n"]
    x = _prolong(np.fft.rfft(np.stack([r.eta.eta_under, r.eta.eta_over])).real,
                 n2)
    obj = minimizer._Objective(BENCH, mu, cfg.admissibility_M,
                               make_grid(n2, bench_crit.k0, m), 0.0, x)
    g, _, _ = obj.gradient(obj(x)[1])
    assert np.sqrt(obj.dot(g, g)) <= cfg.tol


def test_prolongation_is_exact_for_band_limited_even_rows():
    # zero-padding the cosine spectrum reproduces band-limited rows
    n, n_to, period = 64, 256, 10.0
    x, x_to = (-0.5 * period + period / m * np.arange(m)
               for m in (n, n_to))

    def rows(x):
        k = 2.0 * np.pi / period
        return np.stack([np.cos(3 * k * x) + 0.25 * np.cos(30 * k * x),
                         0.5 - np.cos(7 * k * x)])
    X = _prolong(np.fft.rfft(rows(x)).real, n_to)
    assert X.shape == (2, n_to // 2 + 1)
    assert np.max(np.abs(np.fft.irfft(X, n_to) - rows(x_to))) <= 1e-14


def assert_on_last_grid(r, cfg):
    """The profile is on the grid that ended the ladder: the requested
    grid's period and carrier multiple at the last level's n."""
    g = r.eta.grid
    assert g.n == r.levels[-1]["n"]
    assert (g.period, g.k0_multiple) == (cfg.grid.period,
                                         cfg.grid.k0_multiple)


def test_frozen_reference_at_resolved_grid(bench_crit, bench_coeffs):
    # the single-grid descent on n = 8192 gave these; the ladder, which
    # ends on its idle grid 3072, must land within the stopping noise
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(8192, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert r.converged and r.final_grad_norm <= cfg.tol
    assert [lv["n"] for lv in r.levels] == [1536, 2048, 3072]
    # the profile is on the idle grid that confirmed it
    assert_on_last_grid(r, cfg)
    assert r.speed == pytest.approx(0.5986858459751254, rel=2e-7)
    cubic = (r.breakdown.j_mu - 2.0 * bench_crit.nu0 * mu) / mu**3
    assert cubic == pytest.approx(-24.741236, abs=1e-4)
    assert r.spectral_tail <= 1e-14


def test_an_idle_grid_builds_no_hessian_model(bench_crit, bench_coeffs,
                                             monkeypatch):
    # the ladder (1536: 12, 2048: 1, 3072: 0) preconditions steps on the
    # two grids that iterate, so only those take the model's symbol, and
    # the idle grid takes none
    sizes = []
    pf = minimizer.eval_PF

    def counted(k, p):
        sizes.append(k.size)
        return pf(k, p)
    monkeypatch.setattr(minimizer, "eval_PF", counted)
    mu = 2e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    cfg = MinimizeConfig(mu=mu, grid=make_grid(8192, bench_crit.k0, m))
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert [(lv["n"], lv["iterations"]) for lv in r.levels] == \
        [(1536, 12), (2048, 1), (3072, 0)]
    assert r.converged
    assert sizes == [1536 // 2 + 1, 2048 // 2 + 1]


def test_descent_builds_symbols_once_per_grid(bench_crit, bench_coeffs,
                                              symbol_builds):
    # the carrier grid's symbols serve eps_of_mu, eta* and its level of
    # the ladder; each grid above it builds its own once
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, MU)
    cfg = MinimizeConfig(mu=MU, grid=make_grid(4096, bench_crit.k0, m))
    minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert symbol_builds == [768, 1024, 1536, 2048]


def test_a_spent_budget_ends_the_ladder(bench_crit, bench_coeffs):
    # the budget runs out on the carrier grid, so the grid above takes no
    # step: it ends the ladder, short of the tolerance
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, MU)
    cfg = MinimizeConfig(mu=MU, grid=make_grid(4096, bench_crit.k0, m),
                         max_iters=5)
    r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert [(lv["n"], lv["iterations"]) for lv in r.levels] == \
        [(768, 5), (1024, 0)]
    assert r.final_grad_norm > cfg.tol
    assert not r.converged and r.reason == "max_iters"
    assert_on_last_grid(r, cfg)


def test_coarse_grid_failure_names_its_grid(bench_crit, bench_coeffs,
                                            monkeypatch):
    calls = []
    original = minimizer.eval_J

    def objective(eta, p, mu):
        calls.append(mu)
        if len(calls) > 1:
            raise OutOfConeError("every trial leaves the cone")
        return original(eta, p, mu)
    monkeypatch.setattr(minimizer, "eval_J", objective)
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, MU)
    cfg = MinimizeConfig(mu=MU, grid=make_grid(2048, bench_crit.k0, m),
                         grad_tol=1e-30)
    with pytest.raises(NumericalError) as err:
        minimize(BENCH, bench_coeffs, bench_crit, cfg)
    assert err.value.diagnostics["n"] == 768
    # the last iterate is the start of that grid: an even pair whose J is
    # the last history row's (outside the shell, J alone)
    eta = err.value.last_iterate
    assert eta.grid.n == 768
    for row in (eta.eta_under, eta.eta_over):
        mirrored = np.roll(row[::-1], 1)
        assert np.max(np.abs(row - mirrored)) <= 1e-15 * np.max(np.abs(row))
    j = err.value.diagnostics["J"]
    assert abs(original(eta, BENCH, MU).j_mu - j) <= 4 * np.spacing(j)


@pytest.fixture(scope="module")
def period_runs(bench_crit, bench_coeffs):
    """mu = 1e-3 at grad_tol 1e-7 mu on the default period (x1) and on
    twice and four times it (x2, x4: twice and four times m and n)."""
    mu = 1e-3
    m = suggest_carrier_multiple(bench_coeffs, bench_crit, mu)
    runs = []
    for k in (1, 2, 4):
        cfg = MinimizeConfig(mu=mu, grid=make_grid(16384 * k, bench_crit.k0,
                                                   k * m),
                             grad_tol=1e-7)
        r = minimize(BENCH, bench_coeffs, bench_crit, cfg)
        assert r.converged
        runs.append(r)
    return runs


def _per_mu3(j, crit, mu):
    return (j - 2.0 * crit.nu0 * mu) / mu**3


def test_line_correction_removes_the_period_offset(period_runs, bench_crit):
    # the periodic J misses the k = 0 term of a localised wave, an O(1/P)
    # offset: raw J/mu^3 reads -24.04403 at x1 and -24.23673 at x2, and
    # corrected, -24.42874 and -24.42908
    mu = period_runs[0].breakdown.mu
    raw = [_per_mu3(r.breakdown.j_mu, bench_crit, mu) for r in period_runs]
    line = [_per_mu3(r.j_mu_line, bench_crit, mu) for r in period_runs]
    assert raw[0] - raw[1] == pytest.approx(0.1927, abs=1e-3)
    assert abs(line[0] - line[1]) <= 1e-3


def test_line_correction_is_the_closed_form_k0_term(period_runs):
    # dL = rho S^2 / (2 P) with S = 2 l2_upper; J falls by (mu / L)^2 dL,
    # here to within the rounding of J itself
    for r in period_runs:
        bd = r.breakdown
        dL = 2.0 * BENCH.rho * bd.l2_upper**2 / r.eta.grid.period
        drop = (bd.mu / bd.l_trunc) ** 2 * dL
        assert abs((r.j_mu_line - bd.j_mu) + drop) <= 2.0 * np.spacing(bd.j_mu)
        assert r.l_trunc_line == pytest.approx(bd.l_trunc + dL, rel=1e-15)
        assert r.speed_line == bd.mu / r.l_trunc_line


def test_line_corrected_energy_converges_like_inverse_period_squared(
        period_runs, bench_crit):
    # what the correction leaves is O(1/P^2): each doubling of the period
    # cuts it by 4 (3.4e-4, then 8.5e-5, in J/mu^3)
    mu = period_runs[0].breakdown.mu
    line = [_per_mu3(r.j_mu_line, bench_crit, mu) for r in period_runs]
    assert (line[0] - line[1]) / (line[1] - line[2]) == \
        pytest.approx(4.0, abs=0.5)
