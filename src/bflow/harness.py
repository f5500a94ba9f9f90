"""Executable verification of the model's analytic claims.

Each check turns one mathematical statement into a pass/fail report with
an explicit statistic, tolerance, sample count and seed:

* update additivity (exact algebra and two-stage vs one-stage sampling)
* flow draws vs long chains of sequential Bayesian updates
* closed-form transmission KLs vs Monte-Carlo log-ratio estimates
* the multinomial-count construction of the categorical sender
* n-step losses converging onto the continuous-time loss
* accuracy-schedule bookkeeping (telescoping, entropy behaviour, presets)

Estimator notes.  Where a claim involves the expectation of a sampling
op, the check either stratifies the op's own discrete randomness (the
step index, the time grid) or integrates the op's integrand over
Gauss-Hermite nodes; both reuse the production code paths and remove the
Monte-Carlo noise that would otherwise swamp sub-percent tolerances.  A
separate consistency gate then draws real samples from the stochastic op
and requires agreement with the deterministic estimate within standard
errors, so the stochastic path cannot drift from the verified one.

The loss checks run on the modalities' batched ops: the continuous-time
grid is one ``loss_cts`` call over all its times, and each gate is one
``loss_n`` call over all its draws.  Both draw the stream exactly as the
equivalent run of one-row calls would.

Moment comparisons for the categorical sender happen in shift-centered
coordinates: the multiplicative update is invariant to adding a constant
to every logit in a block, and the multinomial construction fixes the
block sum, so only the quotient space is statistically meaningful.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import continuous as cts
from . import discrete as dd
from . import discretised as dsc
from .kernels import logsumexp_rows, mixture_logpdf
from .numerics import Rng, gaussian_sample, softmax_rows
from .predictor import ConstantPredictor, DiscretisedDatumPredictor
from .schedule import PRESETS, ContinuousSigma, DiscreteQuadratic


@dataclass
class PropertyReport:
    property_id: str
    modality: str
    statistic: float
    tolerance: float
    passed: bool
    samples: int
    seed: int
    params: dict = field(default_factory=dict)
    detail: str = ""

    def to_line(self):
        record = {
            "property_id": self.property_id,
            "modality": self.modality,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "params": self.params,
            "detail": self.detail,
        }
        return json.dumps(record, sort_keys=False, separators=(",", ":"))

    def summary(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.property_id:<34} stat={self.statistic:.3e} tol={self.tolerance:.3e} {self.detail}"


def _hermgauss(nodes):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return x, w / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Additivity
# ---------------------------------------------------------------------------


def check_additivity(seed, modality, alpha_a=1.0, alpha_b=1.0, trials=2_000_000):
    if alpha_a <= 0.0 or alpha_b <= 0.0:
        raise ValueError("accuracies must be positive")
    rng = Rng(seed, _path=(1,))
    if modality == "continuous":
        # one belief per trial, as in the discrete branch below
        x = np.full(trials, 0.5)
        prior = cts.prior(trials)
        pa = cts.bayes_update(prior, gaussian_sample(rng, x, 1 / alpha_a), alpha_a)
        two = cts.bayes_update(pa, gaussian_sample(rng, x, 1 / alpha_b), alpha_b)
        one = cts.bayes_update(prior, gaussian_sample(rng, x, 1 / (alpha_a + alpha_b)), alpha_a + alpha_b)
        prec_exact = two.precision == one.precision
        m2, m_one = two.mean, one.mean
        mean_err = abs(m2.mean() - m_one.mean()) / abs(m_one.mean())
        var_err = abs(m2.var(ddof=1) - m_one.var(ddof=1)) / m_one.var(ddof=1)
        stat = max(mean_err, var_err)
        return PropertyReport(
            property_id="additivity-continuous",
            modality="continuous",
            statistic=float(stat),
            tolerance=0.01,
            passed=bool(prec_exact and stat < 0.01),
            samples=trials,
            seed=seed,
            params={"alpha_a": alpha_a, "alpha_b": alpha_b},
            detail=f"mean_err={mean_err:.2e} var_err={var_err:.2e} precision_exact={prec_exact}",
        )
    # discrete: exact functional identity plus two-stage sampling of the mean
    K = 3
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        theta = gen.dirichlet(np.ones(K), size=2)
        ya = gen.normal(0, 3, size=(2, K))
        yb = gen.normal(0, 3, size=(2, K))
        two = dd.bayes_update(dd.bayes_update(theta, ya), yb)
        one = dd.bayes_update(theta, ya + yb)
        worst = max(worst, float(np.max(np.abs(two - one))))
    # one belief row per trial: the update ops treat rows independently,
    # so a (trials, K) state runs every trial through the real code path
    mtrials = 1_000_000
    x_vec = np.ones(mtrials, dtype=np.int64)
    theta0 = dd.uniform_prior(mtrials, K)
    ya = dd.sender_sample(rng, x_vec, alpha_a, K)
    yb = dd.sender_sample(rng, x_vec, alpha_b, K)
    two_m = dd.bayes_update(dd.bayes_update(theta0, ya), yb)
    yc = dd.sender_sample(rng, x_vec, alpha_a + alpha_b, K)
    one_m = dd.bayes_update(theta0, yc)
    mean_err = float(np.max(np.abs(two_m.mean(0) - one_m.mean(0)) / np.abs(one_m.mean(0))))
    passed = worst < 1e-12 and mean_err < 0.015
    return PropertyReport(
        property_id="additivity-discrete",
        modality="discrete",
        statistic=mean_err,
        tolerance=0.015,
        passed=bool(passed),
        samples=1000 + mtrials,
        seed=seed,
        params={"alpha_a": alpha_a, "alpha_b": alpha_b, "K": K},
        detail=f"identity_max={worst:.2e} mean_err={mean_err:.2e}",
    )


# ---------------------------------------------------------------------------
# Flow vs sequential updates
# ---------------------------------------------------------------------------


def check_flow_equivalence(seed, modality, n_list=(2, 16, 64), t=0.5, trials=2_000_000):
    rng = Rng(seed, _path=(2,))
    if modality == "continuous":
        cfg = cts.CtsConfig(sigma1=0.02, D=1)
        sched = cfg.schedule
        x = np.full(trials, 0.5)
        direct = cts.flow_sample(rng, cfg, x, t).mean
        worst = 0.0
        details = []
        for n in n_list:
            p = cts.prior(trials)
            for i in range(1, n + 1):
                a = sched.beta(t * i / n) - sched.beta(t * (i - 1) / n)
                p = cts.bayes_update(p, gaussian_sample(rng, x, 1 / a), a)
            means = p.mean
            mean_err = abs(direct.mean() - means.mean()) / abs(means.mean())
            var_err = abs(direct.var(ddof=1) - means.var(ddof=1)) / means.var(ddof=1)
            worst = max(worst, mean_err, var_err)
            details.append(f"n={n}:{max(mean_err, var_err):.2e}")
        return PropertyReport(
            property_id="flow-equivalence-continuous",
            modality="continuous",
            statistic=float(worst),
            tolerance=0.01,
            passed=bool(worst < 0.01),
            samples=trials * (len(n_list) + 1),
            seed=seed,
            params={"t": t, "n_list": list(n_list)},
            detail=" ".join(details),
        )
    # discrete
    K = 3
    sched = DiscreteQuadratic(2.0)
    t = 0.7
    n = 32
    trials = 500_000
    x_vec = np.ones(trials, dtype=np.int64)
    direct = dd.flow_sample(rng, x_vec, t, sched, K)
    logits = np.zeros((trials, K))
    for i in range(1, n + 1):
        a = sched.beta(t * i / n) - sched.beta(t * (i - 1) / n)
        logits += dd.sender_sample(rng, x_vec, a, K)
    seq = softmax_rows(logits)
    errs = np.abs(direct.mean(0) - seq.mean(0)) / np.abs(seq.mean(0))
    worst = float(errs.max())
    return PropertyReport(
        property_id="flow-equivalence-discrete",
        modality="discrete",
        statistic=worst,
        tolerance=0.015,
        passed=bool(worst < 0.015),
        samples=trials * 2,
        seed=seed,
        params={"t": t, "n": n, "K": K},
        detail=" ".join(f"class{k + 1}:{e:.2e}" for k, e in enumerate(errs)),
    )


# ---------------------------------------------------------------------------
# KL closed forms
# ---------------------------------------------------------------------------


def check_kl_closed_forms(seed, modality, samples=1_000_000, bin_probs_fn=None):
    rng = Rng(seed, _path=(3,))
    if modality == "continuous":
        gen = np.random.default_rng(seed)
        worst_sigma = 0.0
        details = []
        for _ in range(5):
            x = float(gen.uniform(-1, 1))
            x_hat = float(gen.uniform(-1, 1))
            alpha = float(gen.uniform(0.5, 4.0))
            y = gaussian_sample(rng, np.full(samples, x), 1 / alpha)
            log_ratio = -0.5 * alpha * ((y - x) ** 2 - (y - x_hat) ** 2)
            closed = alpha / 2 * (x - x_hat) ** 2
            se = log_ratio.std(ddof=1) / np.sqrt(samples)
            dev = abs(log_ratio.mean() - closed) / se
            worst_sigma = max(worst_sigma, dev)
            details.append(f"{dev:.2f}se")
        return PropertyReport(
            property_id="kl-closed-form-continuous",
            modality="continuous",
            statistic=float(worst_sigma),
            tolerance=3.0,
            passed=bool(worst_sigma <= 3.0),
            samples=5 * samples,
            seed=seed,
            params={"configs": 5},
            detail=" ".join(details),
        )
    # discretised, K=2: quadrature of the mixture KL vs Monte-Carlo
    if bin_probs_fn is None:
        bin_probs_fn = dsc.bin_probs_from_gaussian
    K = 2
    geom = dsc.BinGeometry(K)
    gen = np.random.default_rng(seed)
    worst_sigma = 0.0
    details = []
    for _ in range(3):
        x = geom.center(int(gen.integers(1, K + 1)))
        mu_pred = float(gen.uniform(-0.8, 0.8))
        s_pred = float(gen.uniform(0.3, 0.8))
        alpha = float(gen.uniform(1.0, 3.0))
        probs = bin_probs_fn(np.array([mu_pred]), np.array([s_pred]), K)
        if abs(probs.sum() - 1.0) > 1e-9:
            return PropertyReport(
                property_id="kl-closed-form-discretised",
                modality="discretised",
                statistic=float(abs(probs.sum() - 1.0)),
                tolerance=1e-9,
                passed=False,
                samples=0,
                seed=seed,
                detail="output rows do not carry unit mass",
            )
        y = gaussian_sample(rng, np.full(samples, x), 1 / alpha)
        diff = _dsc_log_ratio(y, x, alpha, probs[0], geom.centers)
        # quadrature reference on a wide grid
        grid = np.linspace(x - 9 / np.sqrt(alpha), x + 9 / np.sqrt(alpha), 20001)
        send_pdf = np.exp(-0.5 * alpha * (grid - x) ** 2) * np.sqrt(alpha / (2 * np.pi))
        recv_pdf = sum(
            probs[0][k] * np.exp(-0.5 * alpha * (grid - geom.center(k + 1)) ** 2) * np.sqrt(alpha / (2 * np.pi))
            for k in range(K)
        )
        integ = send_pdf * (np.log(send_pdf) - np.log(recv_pdf))
        ref = np.trapezoid(integ, grid)
        se = diff.std(ddof=1) / np.sqrt(samples)
        dev = abs(diff.mean() - ref) / se
        worst_sigma = max(worst_sigma, dev)
        details.append(f"{dev:.2f}se")
    return PropertyReport(
        property_id="kl-closed-form-discretised",
        modality="discretised",
        statistic=float(worst_sigma),
        tolerance=3.0,
        passed=bool(worst_sigma <= 3.0),
        samples=3 * samples,
        seed=seed,
        params={"K": K},
        detail=" ".join(details),
    )


# ---------------------------------------------------------------------------
# Multinomial-count limit of the categorical sender
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMSimulator:
    """Finite-count construction: counts from m draws of the blended
    distribution, re-expressed as centred log-odds observations."""

    m: int
    K: int
    alpha: float

    @property
    def omega(self):
        w = np.sqrt(self.alpha / self.m)
        if not w < 1.0:
            raise ValueError(f"alpha={self.alpha}, m={self.m} imply omega={w} >= 1")
        return w

    def sample_y(self, rng, x, trials):
        w = self.omega
        p = np.full(self.K, (1.0 - w) / self.K)
        p[x - 1] += w
        xi = 1.0 + w * self.K / (1.0 - w)
        counts = rng.multinomial(self.m, p, size=trials).astype(np.float64)
        return (counts - self.m / self.K) * np.log(xi)

    def posterior_from_counts(self, theta, counts):
        xi = 1.0 + self.omega * self.K / (1.0 - self.omega)
        post = theta * xi ** np.asarray(counts, dtype=np.float64)
        return post / post.sum()


def check_finite_m_limit(seed, K=2, alpha=0.25, m_list=(100, 1000, 10_000), trials=1_000_000):
    rng = Rng(seed, _path=(4,))
    x = 1
    sender_mean = alpha * (K * np.eye(K)[x - 1] - 1.0)
    mean_c = sender_mean - sender_mean.mean()
    cov_c = alpha * K * (np.eye(K) - np.ones((K, K)) / K)
    mean_scale = np.linalg.norm(mean_c)
    cov_scale = np.linalg.norm(cov_c)
    mean_errs, cov_errs = [], []
    for m in m_list:
        sim = FiniteMSimulator(m=m, K=K, alpha=alpha)
        y = sim.sample_y(rng, x, trials)
        yc = y - y.mean(axis=1, keepdims=True)
        mean_errs.append(float(np.linalg.norm(yc.mean(axis=0) - mean_c) / mean_scale))
        diff = yc - yc.mean(axis=0)
        cov = diff.T @ diff / (trials - 1)
        cov_errs.append(float(np.linalg.norm(cov - cov_c) / cov_scale))
    # sampling noise floor: errors below it are indistinguishable from zero
    per_coord_sd = np.sqrt(alpha * K * (1 - 1 / K))
    mean_floor = 3.0 * per_coord_sd * np.sqrt(K / trials) / mean_scale
    cov_floor = 3.0 * alpha * K * np.sqrt(2.0 * K * K / trials) / cov_scale
    decreasing = all(
        (b < a) or (b < floor)
        for errs, floor in ((mean_errs, mean_floor), (cov_errs, cov_floor))
        for a, b in zip(errs, errs[1:])
    )
    final_ok = mean_errs[-1] < 0.01 and cov_errs[-1] < 0.03
    # posterior identity at the largest m, raw counts vs update function
    sim = FiniteMSimulator(m=m_list[-1], K=K, alpha=alpha)
    gen = np.random.default_rng(seed)
    ident_worst = 0.0
    for _ in range(50):
        theta = gen.dirichlet(np.ones(K))
        counts = gen.multinomial(sim.m, np.full(K, 1.0 / K))
        post = sim.posterior_from_counts(theta, counts)
        y = (counts - sim.m / K) * np.log(1.0 + sim.omega * K / (1.0 - sim.omega))
        h = dd.bayes_update(theta[None, :], y[None, :])[0]
        ident_worst = max(ident_worst, float(np.max(np.abs(post - h))))
    passed = decreasing and final_ok and ident_worst < 1e-10
    return PropertyReport(
        property_id=f"finite-m-limit-K{K}",
        modality="discrete",
        statistic=float(max(mean_errs[-1], cov_errs[-1] / 3.0)),
        tolerance=0.01,
        passed=bool(passed),
        samples=trials * len(m_list),
        seed=seed,
        params={"K": K, "alpha": alpha, "m_list": list(m_list)},
        detail=(
            f"mean_errs={['%.4f' % e for e in mean_errs]} cov_errs={['%.4f' % e for e in cov_errs]} "
            f"identity={ident_worst:.1e} decreasing={decreasing}"
        ),
    )


# ---------------------------------------------------------------------------
# n-step loss converging onto the continuous-time loss
# ---------------------------------------------------------------------------


def _dsc_log_ratio(y, x, alpha, probs_row, centers):
    """Sender minus mixture-receiver log-density of observations y of datum x."""
    send = -0.5 * alpha * (y - x) ** 2 + 0.5 * np.log(alpha / (2 * np.pi))
    with np.errstate(divide="ignore"):
        logw = np.broadcast_to(np.log(probs_row), (y.size, centers.size))
    return send - mixture_logpdf(y, np.ascontiguousarray(logw), centers, 1 / alpha)


def _linf_mean_by_time_grid(loss_at_ts, grid_points=4097):
    # Simpson over an odd uniform grid of the deterministic per-t loss,
    # evaluated in one batched call over the grid
    ts = np.linspace(0.0, 1.0, grid_points)
    vals = loss_at_ts(ts)
    h = 1.0 / (grid_points - 1)
    return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())


def _convergence_report(prop_id, modality, gaps, final_tol, samples, seed, params, extra=""):
    magnitudes = [abs(g) for g in gaps]
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    final_ok = magnitudes[-1] < final_tol
    return PropertyReport(
        property_id=prop_id,
        modality=modality,
        statistic=float(magnitudes[-1]),
        tolerance=final_tol,
        passed=bool(decreasing and final_ok),
        samples=samples,
        seed=seed,
        params=params,
        detail="gaps=" + " ".join(f"{g:+.4%}" for g in gaps) + (" " + extra if extra else ""),
    )


def check_loss_convergence(seed, modality, n_list=(1, 4, 16, 64, 256),
                           loss_n_fn=None, loss_inf_fn=None, gh_nodes=40):
    """Stratified expectation of the n-step loss vs the continuous-time mean.

    The predictors are state-independent oracles, which makes the per-t
    loss deterministic; the n-step expectation is assembled stratum by
    stratum (exactly for the continuous modality, via Gauss-Hermite over
    the sender draw otherwise).  A sampled consistency gate ties the
    stochastic op to the stratum values.

    The hooks replace the batched ops: ``loss_n_fn(rng, n, i, B)`` returns
    B n-step losses at step i, and ``loss_inf_fn(rng, ts)`` the
    continuous-time loss at each time of ts.
    """
    rng = Rng(seed, _path=(5,))
    if modality == "continuous":
        cfg = cts.CtsConfig(sigma1=0.02, D=1)
        x = np.array([0.5])
        pred = ConstantPredictor(x + 0.1, predicts_data=True)
        base_n = loss_n_fn or (lambda r, n, i, B: cts.loss_n(r, pred, cfg, np.tile(x, (B, 1)), n, i))
        base_inf = loss_inf_fn or (lambda r, ts: cts.loss_cts(r, pred, cfg, np.tile(x, (ts.size, 1)), ts))
        linf = _linf_mean_by_time_grid(lambda ts: base_inf(rng, ts))
        gaps = []
        for n in n_list:
            ln = np.mean([base_n(rng, n, i, 1)[0] for i in range(1, n + 1)])
            gaps.append((ln - linf) / linf)
        return _convergence_report(
            "loss-convergence-continuous", "continuous", gaps, 0.005,
            sum(n_list) + 4097, seed, {"n_list": list(n_list), "sigma1": cfg.sigma1},
        )
    if modality == "discretised":
        K = 16
        cfg = cts.CtsConfig(sigma1=0.2, D=1)
        geom = dsc.BinGeometry(K)
        x = np.array([geom.center(11)])
        pred = DiscretisedDatumPredictor(x + 0.15, 0.06, cfg.sigma1)
        sched = cfg.schedule
        base_n = loss_n_fn or (lambda r, n, i, B: dsc.loss_n(r, pred, cfg, np.tile(x, (B, 1)), n, K, i))
        base_inf = loss_inf_fn or (lambda r, ts: dsc.loss_cts(r, pred, cfg, np.tile(x, (ts.size, 1)), K, ts))
        linf = _linf_mean_by_time_grid(lambda ts: base_inf(rng, ts))
        nodes, weights = _hermgauss(gh_nodes)
        probs_live = dsc.probs(pred, cfg, np.zeros((1, 1)), 0.5, K)[0]
        probs_prior = dsc.bin_probs_from_gaussian(np.zeros(1), np.ones(1), K)

        def stratum(alpha, probs):
            # Gauss-Hermite expectation over the sender draw y ~ N(x, 1/alpha)
            y = x[0] + nodes / np.sqrt(alpha)
            return float(np.sum(weights * _dsc_log_ratio(y, x[0], alpha, probs[0], geom.centers)))

        gaps = []
        for n in n_list:
            total = 0.0
            for i in range(1, n + 1):
                t = (i - 1) / n
                total += stratum(sched.step_alpha(i, n), probs_prior if t < cfg.t_min else probs_live)
            gaps.append((total - linf) / linf)
        # consistency gate: the op's own draws at one stratum
        gate_n, gate_i = 16, 9
        stratum_ref = gate_n * stratum(sched.step_alpha(gate_i, gate_n), probs_live)
        draws = base_n(rng, gate_n, gate_i, 50_000)
        gate_se = draws.std(ddof=1) / np.sqrt(draws.size)
        gate_dev = abs(draws.mean() - stratum_ref) / gate_se
        report = _convergence_report(
            "loss-convergence-discretised", "discretised", gaps, 0.01,
            50_000 + 4097, seed, {"n_list": list(n_list), "K": K, "sigma1": cfg.sigma1},
            extra=f"mc_gate={gate_dev:.2f}se",
        )
        report.passed = bool(report.passed and gate_dev <= 4.0)
        return report
    # discrete
    K, D = 3, 2
    sched = DiscreteQuadratic(0.75)
    x = np.array([1, 2])
    p_star = np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])
    probs_rows = np.stack([np.roll(p_star, xi - 1) for xi in x])  # mass 1/2 on the true class
    pred = _RowsPredictor(probs_rows)
    base_n = loss_n_fn or (lambda r, n, i, B: dd.loss_n(r, pred, sched, np.tile(x, (B, 1)), n, K, i))
    base_inf = loss_inf_fn or (lambda r, ts: dd.loss_cts(r, pred, sched, np.tile(x, (ts.size, 1)), K, ts))
    linf = _linf_mean_by_time_grid(lambda ts: base_inf(rng, ts))
    nodes, weights = _hermgauss(24)
    grids = np.meshgrid(*([nodes] * K), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=1)
    W = np.prod(np.stack(np.meshgrid(*([weights] * K), indexing="ij"), axis=0).reshape(K, -1), axis=0)

    def strata(alpha):
        # per dimension: Gauss-Hermite expectation over the sender draw,
        # written in u = y + alpha, where the receiver is a log-sum-exp
        for d in range(D):
            u = alpha * K * np.eye(K)[x[d] - 1] + np.sqrt(alpha * K) * Z
            lse = logsumexp_rows(np.log(probs_rows[d])[None, :] + u)
            yield float(np.sum(W * (u[:, x[d] - 1] - lse)))

    gaps = []
    for n in n_list:
        total = 0.0
        for i in range(1, n + 1):
            for v in strata(sched.step_alpha(i, n)):
                total += v
        gaps.append((total - linf) / linf)
    gate_n, gate_i = 16, 9
    draws = base_n(rng, gate_n, gate_i, 50_000)
    ref = 0.0
    for v in strata(sched.step_alpha(gate_i, gate_n)):
        ref += gate_n * v
    gate_se = draws.std(ddof=1) / np.sqrt(draws.size)
    gate_dev = abs(draws.mean() - ref) / gate_se
    report = _convergence_report(
        "loss-convergence-discrete", "discrete", gaps, 0.01,
        50_000 + 4097, seed, {"n_list": list(n_list), "K": K, "D": D, "beta1": sched.beta1},
        extra=f"mc_gate={gate_dev:.2f}se",
    )
    report.passed = bool(report.passed and gate_dev <= 4.0)
    return report


class _RowsPredictor:
    """Fixed per-dimension output rows, independent of the belief state."""

    def __init__(self, rows):
        self.logits = np.log(np.asarray(rows, dtype=np.float64))

    def forward_batch(self, X, t):
        if self.logits.shape[1] == 2:
            row = self.logits[:, 0] - self.logits[:, 1]
        else:
            row = self.logits.ravel()
        return np.tile(row, (len(X), 1))


# ---------------------------------------------------------------------------
# Schedule bookkeeping
# ---------------------------------------------------------------------------


def check_schedule_telescoping(seed):
    worst = 0.0
    for sched in (ContinuousSigma(0.02), ContinuousSigma(0.001), DiscreteQuadratic(0.75), DiscreteQuadratic(3.0)):
        total = sched.beta(1.0)
        for n in (1, 2, 7, 100):
            s = sum(sched.step_alpha(i, n) for i in range(1, n + 1))
            worst = max(worst, abs(s - total) / max(1.0, total))
    presets_ok = (
        PRESETS["cts-256bin"].sigma1 == 0.001
        and abs(PRESETS["cts-16bin"].sigma1 - np.sqrt(0.001)) < 1e-15
        and PRESETS["binary"].beta1 == 3.0
        and PRESETS["chars27"].beta1 == 0.75
    )
    return PropertyReport(
        property_id="schedule-telescoping",
        modality="both",
        statistic=float(worst),
        tolerance=1e-10,
        passed=bool(worst <= 1e-10 and presets_ok),
        samples=440,
        seed=seed,
        detail=f"presets_ok={presets_ok}",
    )


def check_schedule_entropy(seed, trials=20_000):
    # continuous: ln(1 + beta(t)) must be exactly affine in t
    s = ContinuousSigma(0.001)
    ts = np.linspace(0, 1, 101)
    vals = np.array([np.log1p(s.beta(float(t))) for t in ts])
    second = np.diff(vals, 2)
    affine_err = float(np.max(np.abs(second)) / np.max(np.abs(vals)))
    # discrete: expected belief entropy decreases with t (qualitative)
    rng = Rng(seed, _path=(6,))
    sched = DiscreteQuadratic(3.0)
    K = 3
    draws = trials // 10
    x_vec = np.ones(draws, dtype=np.int64)
    ent = []
    for t in np.linspace(0.1, 1.0, 10):
        theta = dd.flow_sample(rng, x_vec, float(t), sched, K)
        with np.errstate(divide="ignore", invalid="ignore"):
            logt = np.where(theta > 0, np.log(theta), 0.0)
        ent.append(-float(np.sum(theta * logt)) / draws)
    monotone = all(b < a for a, b in zip(ent, ent[1:]))
    return PropertyReport(
        property_id="schedule-entropy",
        modality="both",
        statistic=affine_err,
        tolerance=1e-9,
        passed=bool(affine_err < 1e-9 and monotone),
        samples=trials,
        seed=seed,
        detail=f"affine_err={affine_err:.1e} discrete_entropy_monotone={monotone}",
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

ALL_PROPERTIES = (
    "schedule-telescoping",
    "schedule-entropy",
    "additivity-continuous",
    "additivity-discrete",
    "flow-equivalence-continuous",
    "flow-equivalence-discrete",
    "kl-closed-form-continuous",
    "kl-closed-form-discretised",
    "finite-m-limit-K2",
    "finite-m-limit-K5",
    "loss-convergence-continuous",
    "loss-convergence-discretised",
    "loss-convergence-discrete",
)


def run_all(seed, name_filter=None):
    """Run every property (or the matching subset); returns the reports."""
    runners = {
        "schedule-telescoping": lambda: check_schedule_telescoping(seed),
        "schedule-entropy": lambda: check_schedule_entropy(seed),
        "additivity-continuous": lambda: check_additivity(seed, "continuous"),
        "additivity-discrete": lambda: check_additivity(seed, "discrete"),
        "flow-equivalence-continuous": lambda: check_flow_equivalence(seed, "continuous"),
        "flow-equivalence-discrete": lambda: check_flow_equivalence(seed, "discrete"),
        "kl-closed-form-continuous": lambda: check_kl_closed_forms(seed, "continuous"),
        "kl-closed-form-discretised": lambda: check_kl_closed_forms(seed, "discretised"),
        "finite-m-limit-K2": lambda: check_finite_m_limit(seed, K=2),
        "finite-m-limit-K5": lambda: check_finite_m_limit(seed, K=5),
        "loss-convergence-continuous": lambda: check_loss_convergence(seed, "continuous"),
        "loss-convergence-discretised": lambda: check_loss_convergence(seed, "discretised"),
        "loss-convergence-discrete": lambda: check_loss_convergence(seed, "discrete"),
    }
    names = [n for n in ALL_PROPERTIES if (name_filter is None or name_filter in n)]
    if not names:
        raise ValueError(f"no properties match filter {name_filter!r}")
    return [runners[n]() for n in names]
