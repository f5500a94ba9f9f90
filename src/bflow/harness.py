"""Executable verification of the model's analytic claims.

Each check turns one mathematical statement into a pass/fail report with
an explicit statistic, tolerance, sample count and seed:

* update additivity (exact algebra and two-stage vs one-stage sampling)
* flow draws vs long chains of sequential Bayesian updates
* closed-form transmission KLs vs Monte-Carlo log-ratio estimates
* the multinomial-count construction of the categorical sender
* n-step losses converging onto the continuous-time loss
* accuracy-schedule bookkeeping (telescoping, entropy behaviour, presets)

Every check is a fixed property of its seed (plus the modality or K it
covers), and runs on the production ops that train, eval and sample run:
the updates, flow draws and samplers, the batched losses, the
discretised receiver log-density and the discrete sender-to-receiver
log-ratio.  The harness restates none of them; its only
formulas of its own are the closed forms under test and a trapezoid
reference integral.  A mutation test patches the op it breaks.

Estimator notes.  Where a claim involves the expectation of a sampling
op, the check either stratifies the op's own discrete randomness (the
step index, the time grid) or integrates the op's integrand over
Gauss-Hermite nodes; both remove the Monte-Carlo noise that would
otherwise swamp sub-percent tolerances.  A separate consistency gate then
draws real samples from the stochastic op and requires agreement with the
deterministic estimate within standard errors, so the stochastic path
cannot drift from the verified one.  The loss checks run on the batched
ops, one call per time grid, per n or per gate, each drawing its stream
exactly as the equivalent run of one-row calls would.

Moment comparisons for the categorical sender happen in shift-centered
coordinates: the multiplicative update is invariant to adding a constant
to every logit in a block, and the multinomial construction fixes the
block sum, so only the quotient space is statistically meaningful.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import continuous as cts
from . import discrete as dd
from . import discretised as dsc
from .numerics import Rng, gaussian_sample, log_gaussian_pdf, softmax_rows
from .predictor import ConstantPredictor, ConstantProbsPredictor, DiscretisedDatumPredictor
from .schedule import PRESETS, ContinuousSigma, DiscreteQuadratic, FlowConfig


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
        """One JSON record, its keys in field order."""
        return json.dumps(asdict(self), separators=(",", ":"))

    def summary(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.property_id:<34} stat={self.statistic:.3e} tol={self.tolerance:.3e} {self.detail}"


def _hermgauss(nodes):
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    return x, w / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Additivity
# ---------------------------------------------------------------------------


def check_additivity(seed, modality):
    rng = Rng(seed, _path=(1,))
    alpha_a = alpha_b = 1.0
    if modality == "continuous":
        # one belief per trial, as in the discrete branch below
        trials = 2_000_000
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
    # discrete: exact functional identity over 1000 random two-row cases,
    # drawn case by case and updated in one batch, plus two-stage sampling
    # of the mean
    K = 3
    gen = np.random.default_rng(seed)
    cases = [(gen.dirichlet(np.ones(K), size=2), gen.normal(0, 3, size=(2, K)), gen.normal(0, 3, size=(2, K)))
             for _ in range(1000)]
    theta, ya, yb = (np.concatenate(c) for c in zip(*cases))
    two = dd.bayes_update(dd.bayes_update(theta, ya), yb)
    worst = float(np.max(np.abs(two - dd.bayes_update(theta, ya + yb))))
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


def check_flow_equivalence(seed, modality):
    rng = Rng(seed, _path=(2,))
    if modality == "continuous":
        n_list, t, trials = (2, 16, 64), 0.5, 2_000_000
        sched = ContinuousSigma(0.02)
        cfg = FlowConfig(sched, D=1)
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
    K, n, t, trials = 3, 32, 0.7, 500_000
    sched = DiscreteQuadratic(2.0)
    x_vec = np.ones(trials, dtype=np.int64)
    direct = dd.flow_sample(rng, FlowConfig(sched, trials, K), x_vec, t)
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


def check_kl_closed_forms(seed, modality):
    rng = Rng(seed, _path=(3,))
    samples = 1_000_000
    gen = np.random.default_rng(seed)
    worst_sigma = 0.0
    details = []
    if modality == "continuous":
        for _ in range(5):
            x = float(gen.uniform(-1, 1))
            x_hat = float(gen.uniform(-1, 1))
            alpha = float(gen.uniform(0.5, 4.0))
            y = gaussian_sample(rng, np.full((samples, 1), x), 1 / alpha)
            log_ratio = log_gaussian_pdf(y, x, 1 / alpha) - log_gaussian_pdf(y, x_hat, 1 / alpha)
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
    K = 2
    geom = dsc.BinGeometry(K)
    for _ in range(3):
        x = geom.center(int(gen.integers(1, K + 1)))
        mu_pred = float(gen.uniform(-0.8, 0.8))
        s_pred = float(gen.uniform(0.3, 0.8))
        alpha = float(gen.uniform(1.0, 3.0))
        probs = dsc.bin_probs_from_gaussian(np.array([mu_pred]), np.array([s_pred]), K)
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
        y = gaussian_sample(rng, np.full((samples, 1), x), 1 / alpha)
        recv = dsc.receiver_log_likelihood(y, np.broadcast_to(probs, (samples, 1, K)), K, alpha)
        diff = log_gaussian_pdf(y, x, 1 / alpha) - recv
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
        """Posterior rows (..., K) from prior rows theta and class counts."""
        xi = 1.0 + self.omega * self.K / (1.0 - self.omega)
        post = theta * xi ** np.asarray(counts, dtype=np.float64)
        return post / post.sum(axis=-1, keepdims=True)


def check_finite_m_limit(seed, K):
    rng = Rng(seed, _path=(4,))
    x, alpha, m_list, trials = 1, 0.25, (100, 1000, 10_000), 1_000_000
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
    # posterior identity at the largest m, raw counts vs update function,
    # over 50 cases drawn case by case and updated in one batch
    sim = FiniteMSimulator(m=m_list[-1], K=K, alpha=alpha)
    gen = np.random.default_rng(seed)
    cases = [(gen.dirichlet(np.ones(K)), gen.multinomial(sim.m, np.full(K, 1.0 / K))) for _ in range(50)]
    theta, counts = (np.array(c) for c in zip(*cases))
    y = (counts - sim.m / K) * np.log(1.0 + sim.omega * K / (1.0 - sim.omega))
    ident_worst = float(np.max(np.abs(sim.posterior_from_counts(theta, counts) - dd.bayes_update(theta, y))))
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

N_LIST = (1, 4, 16, 64, 256)
# an odd uniform grid of times for Simpson's rule
TIME_GRID = np.linspace(0.0, 1.0, 4097)
# the sampled consistency gate: 50,000 draws of step GATE_I of GATE_N
GATE_N, GATE_I, GATE_DRAWS = 16, 9, 50_000


def _simpson(vals):
    """Simpson's rule over TIME_GRID of the per-time losses vals."""
    h = 1.0 / (TIME_GRID.size - 1)
    return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-2:2].sum())


def _convergence_report(prop_id, modality, gaps, final_tol, samples, seed, params, gate_dev=None):
    magnitudes = [abs(g) for g in gaps]
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    passed = decreasing and magnitudes[-1] < final_tol
    detail = "gaps=" + " ".join(f"{g:+.4%}" for g in gaps)
    if gate_dev is not None:
        passed = passed and gate_dev <= 4.0
        detail += f" mc_gate={gate_dev:.2f}se"
    return PropertyReport(
        property_id=prop_id,
        modality=modality,
        statistic=float(magnitudes[-1]),
        tolerance=final_tol,
        passed=bool(passed),
        samples=samples,
        seed=seed,
        params={"n_list": list(N_LIST), **params},
        detail=detail,
    )


def _gate_dev(draws, ref):
    """|mean of the sampled losses - the stratum's value| in standard errors."""
    return abs(draws.mean() - ref) / (draws.std(ddof=1) / np.sqrt(draws.size))


def check_loss_convergence(seed, modality):
    """Stratified expectation of the n-step loss vs the continuous-time mean.

    The predictors are state-independent oracles, which makes the per-t
    loss deterministic; the n-step expectation is assembled stratum by
    stratum (exactly for the continuous modality, via Gauss-Hermite over
    the sender draw otherwise).  A sampled consistency gate ties the
    stochastic op to the stratum values.
    """
    rng = Rng(seed, _path=(5,))
    if modality == "continuous":
        cfg = FlowConfig(ContinuousSigma(0.02), D=1)
        x = np.array([0.5])
        pred = ConstantPredictor(x + 0.1, predicts_data=True)
        linf = _simpson(cts.loss_cts(rng, pred, cfg, np.tile(x, (TIME_GRID.size, 1)), TIME_GRID))
        # every step of an n-step run in one call: the exact stratified mean
        gaps = [(cts.loss_n(rng, pred, cfg, np.tile(x, (n, 1)), n, np.arange(1, n + 1)).mean() - linf) / linf
                for n in N_LIST]
        return _convergence_report(
            "loss-convergence-continuous", "continuous", gaps, 0.005,
            sum(N_LIST) + TIME_GRID.size, seed, {"sigma1": cfg.schedule.sigma1},
        )
    if modality == "discretised":
        K = 16
        sched = ContinuousSigma(0.2)
        cfg = FlowConfig(sched, D=1, K=K)
        geom = dsc.BinGeometry(K)
        x = np.array([geom.center(11)])
        pred = DiscretisedDatumPredictor(x + 0.15, 0.06, sched.sigma1)
        linf = _simpson(dsc.loss_cts(rng, pred, cfg, np.tile(x, (TIME_GRID.size, 1)), TIME_GRID))
        nodes, weights = _hermgauss(40)
        probs_live = dsc.probs(pred, cfg, np.zeros((1, 1)), 0.5)[0]
        probs_prior = dsc.bin_probs_from_gaussian(np.zeros(1), np.ones(1), K)

        def stratum(alpha, probs):
            # Gauss-Hermite expectation over the sender draw y ~ N(x, 1/alpha)
            # of the sender minus the receiver log-density
            y = (x[0] + nodes / np.sqrt(alpha))[:, None]
            recv = dsc.receiver_log_likelihood(y, np.broadcast_to(probs, (nodes.size, 1, K)), K, alpha)
            return float(np.sum(weights * (log_gaussian_pdf(y, x, 1 / alpha) - recv)))

        gaps = []
        for n in N_LIST:
            total = 0.0
            for i in range(1, n + 1):
                t = (i - 1) / n
                total += stratum(sched.step_alpha(i, n), probs_prior if t < cfg.t_min else probs_live)
            gaps.append((total - linf) / linf)
        ref = GATE_N * stratum(sched.step_alpha(GATE_I, GATE_N), probs_live)
        draws = dsc.loss_n(rng, pred, cfg, np.tile(x, (GATE_DRAWS, 1)), GATE_N, GATE_I)
        return _convergence_report(
            "loss-convergence-discretised", "discretised", gaps, 0.01,
            GATE_DRAWS + TIME_GRID.size, seed, {"K": K, "sigma1": sched.sigma1}, _gate_dev(draws, ref),
        )
    # discrete
    K, D = 3, 2
    sched = DiscreteQuadratic(0.75)
    cfg = FlowConfig(sched, D, K)
    x = np.array([1, 2])
    p_star = np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])
    probs_rows = np.stack([np.roll(p_star, xi - 1) for xi in x])  # mass 1/2 on the true class
    pred = ConstantProbsPredictor(probs_rows)
    linf = _simpson(dd.loss_cts(rng, pred, cfg, np.tile(x, (TIME_GRID.size, 1)), TIME_GRID))
    # a product grid of Gauss-Hermite nodes over the K sender coordinates,
    # shared by every dimension.  A third of its 24^K nodes weigh under
    # 1e-20, 3e-18 of the rule's unit mass together: less than the rounding
    # of a stratum's sum of O(1) log-ratios, so they are left out
    nodes, weights = _hermgauss(24)
    grid = lambda v: np.stack(np.meshgrid(*([v] * K), indexing="ij"), axis=-1).reshape(-1, K)
    w = grid(weights).prod(axis=1)
    keep = w > 1e-20
    z = np.repeat(grid(nodes)[keep][:, None, :], D, axis=1)
    w = w[keep]
    xs = np.tile(x, (w.size, 1))

    def stratum(alpha):
        # Gauss-Hermite expectation over the sender draw of the sender minus
        # the receiver log-density, summed over dimensions
        y = dd.sender_sample(None, xs, alpha, K, z=z)
        return float(np.sum(w * dd.log_ratio(y, xs, probs_rows, alpha, K)))

    gaps = []
    for n in N_LIST:
        total = 0.0
        for i in range(1, n + 1):
            total += stratum(sched.step_alpha(i, n))
        gaps.append((total - linf) / linf)
    draws = dd.loss_n(rng, pred, cfg, np.tile(x, (GATE_DRAWS, 1)), GATE_N, GATE_I)
    ref = GATE_N * stratum(sched.step_alpha(GATE_I, GATE_N))
    return _convergence_report(
        "loss-convergence-discrete", "discrete", gaps, 0.01,
        GATE_DRAWS + TIME_GRID.size, seed, {"K": K, "D": D, "beta1": sched.beta1}, _gate_dev(draws, ref),
    )


# ---------------------------------------------------------------------------
# Schedule bookkeeping
# ---------------------------------------------------------------------------


def check_schedule_telescoping(seed):
    worst = 0.0
    for sched in (ContinuousSigma(0.02), ContinuousSigma(0.001), DiscreteQuadratic(0.75), DiscreteQuadratic(3.0)):
        total = sched.beta(1.0)
        for n in (1, 2, 7, 100):
            s = float(np.sum(sched.step_alpha(np.arange(1, n + 1), n)))
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


def check_schedule_entropy(seed):
    # continuous: ln(1 + beta(t)) must be exactly affine in t
    vals = np.log1p(ContinuousSigma(0.001).beta(np.linspace(0, 1, 101)))
    affine_err = float(np.max(np.abs(np.diff(vals, 2))) / np.max(np.abs(vals)))
    # discrete: expected belief entropy decreases with t (qualitative); one
    # flow draw of 2,000 dimensions at each of 10 times, all in one call
    rng = Rng(seed, _path=(6,))
    K, draws = 3, 2000
    ts = np.linspace(0.1, 1.0, 10)
    cfg = FlowConfig(DiscreteQuadratic(3.0), draws, K)
    theta = dd.flow_sample(rng, cfg, np.ones((ts.size, draws), dtype=np.int64), ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        logt = np.where(theta > 0, np.log(theta), 0.0)
    ent = -np.sum(theta * logt, axis=(1, 2)) / draws
    monotone = bool(np.all(np.diff(ent) < 0))
    return PropertyReport(
        property_id="schedule-entropy",
        modality="both",
        statistic=affine_err,
        tolerance=1e-9,
        passed=bool(affine_err < 1e-9 and monotone),
        samples=ts.size * draws,
        seed=seed,
        detail=f"affine_err={affine_err:.1e} discrete_entropy_monotone={monotone}",
    )


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

# property id -> (check name, selector), in run order.  run_all looks each
# check up by name when it calls it, so a wrapped or patched module
# attribute is the one that runs.
CHECKS = {
    "schedule-telescoping": ("check_schedule_telescoping", {}),
    "schedule-entropy": ("check_schedule_entropy", {}),
    "additivity-continuous": ("check_additivity", {"modality": "continuous"}),
    "additivity-discrete": ("check_additivity", {"modality": "discrete"}),
    "flow-equivalence-continuous": ("check_flow_equivalence", {"modality": "continuous"}),
    "flow-equivalence-discrete": ("check_flow_equivalence", {"modality": "discrete"}),
    "kl-closed-form-continuous": ("check_kl_closed_forms", {"modality": "continuous"}),
    "kl-closed-form-discretised": ("check_kl_closed_forms", {"modality": "discretised"}),
    "finite-m-limit-K2": ("check_finite_m_limit", {"K": 2}),
    "finite-m-limit-K5": ("check_finite_m_limit", {"K": 5}),
    "loss-convergence-continuous": ("check_loss_convergence", {"modality": "continuous"}),
    "loss-convergence-discretised": ("check_loss_convergence", {"modality": "discretised"}),
    "loss-convergence-discrete": ("check_loss_convergence", {"modality": "discrete"}),
}
ALL_PROPERTIES = tuple(CHECKS)


def run_all(seed, name_filter=None):
    """Run every property (or those whose id contains name_filter); returns
    the reports."""
    names = [n for n in ALL_PROPERTIES if name_filter is None or name_filter in n]
    if not names:
        raise ValueError(f"no properties match filter {name_filter!r}")
    return [globals()[CHECKS[n][0]](seed, **CHECKS[n][1]) for n in names]
