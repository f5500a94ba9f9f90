"""Executable verification of the model's analytic claims.

Each check turns one mathematical statement into a pass/fail report with
an explicit statistic, tolerance, sample count and seed:

* update additivity (exact algebra and two-stage vs one-stage laws)
* flow draws vs chains of sequential Bayesian updates
* closed-form transmission KLs vs quadrature of the production log-ratios
* the multinomial-count construction of the categorical sender
* n-step losses converging onto the continuous-time loss
* accuracy-schedule bookkeeping (telescoping, entropy behaviour, presets)

Every check is a fixed property of its seed (plus the modality or K it
covers), and runs on the production ops that train, eval and sample run:
the updates, flow draws and samplers, the batched losses, the
discretised receiver log-density and the discrete sender-to-receiver
log-ratio.  The harness restates none of them.  Its only formulas of its
own are the closed forms under test, the multinomial's moments, the
noise-row construction below and a trapezoid reference integral.  A
mutation test patches the op it breaks.

Estimator notes.  Each main statistic is exact or quadrature, the same
at every seed.  Where the claim is linear-Gaussian algebra (additivity,
flow equivalence) the state is affine in the ops' standard-normal noise,
so a zero row and one unit draw per noise coordinate, run through the
ops, give its mean and covariance exactly; the finite-m construction uses
the multinomial's moments.  The KL checks integrate the production
log-ratio over Gauss-Hermite nodes of the sender draw.  The loss checks
stratify the ops' own discrete randomness (step index, time grid) and
integrate each stratum over Gauss-Hermite nodes, the discrete strata over
the K - 1 noise differences their log-ratio depends on; a time grid, an n
or a set of strata runs as one batched call, each drawing its stream as
the run of one-row calls would.  A gate then draws real samples from the
stochastic ops and requires agreement within 4 standard errors, so the
sampled path cannot drift from the verified one and an op not affine in
its noise still shows; the affine and KL checks' reports state the gate's
false-alarm rate.  Categorical log-beliefs are compared less each row's
mean: the update is invariant to a shift of a row's logits, so only that
quotient is meaningful.
"""

import json
from dataclasses import asdict, dataclass, field
from functools import cache, partial
from types import SimpleNamespace

import numpy as np

from . import continuous as cts
from . import discrete as dd
from . import discretised as dsc
from .numerics import Rng, gaussian_sample, log_gaussian_pdf, row_sum
from .predictor import ConstantPredictor, ConstantProbsPredictor, DiscretisedDatumPredictor
from .schedule import PRESETS, ContinuousSigma, DiscreteQuadratic, FlowConfig, step_time


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


@cache
def _hermgauss(nodes):
    """Gauss-Hermite nodes and weights for a standard normal, read-only and
    built once per node count."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# ---------------------------------------------------------------------------
# Affine claims: exact moments from noise rows, and a sampled gate
# ---------------------------------------------------------------------------

# the exact statistics' tolerance (a few thousand ulps of O(1) moments); the
# draws per sampled path of a gate and the gate in standard errors: each
# deviation is near |N(0, 1)| when the ops are right and passes 4 se with
# probability under 6.4e-5, so a gate of k deviations false-alarms below k times it
EXACT_TOL, GATE_TRIALS, GATE_SE, GATE_FA = 1e-12, 100_000, 4.0, 6.4e-5


def _unit_noise(draws, width):
    """Noise for `draws` draws of `width` coordinates on 1 + draws * width
    rows: row 0 is zero, row 1 + i * width + k a unit value at coordinate
    k of draw i.  One rng stand-in per draw, whose standard_normal hands
    out that draw's block, so the rows run through an op's own sampling."""
    eye = np.eye(1 + draws * width)
    return [SimpleNamespace(standard_normal=partial(np.reshape, eye[:, 1 + i * width:1 + (i + 1) * width]))
            for i in range(draws)]


def _affine_moments(rows):
    """Mean and covariance of an output affine in standard-normal noise,
    from its values at the rows of _unit_noise."""
    rows = np.reshape(rows, (len(rows), -1))
    jac = rows[1:] - rows[0]
    return rows[0], jac.T @ jac


def _chain_moments(chain, alphas, width):
    return _affine_moments(chain(_unit_noise(len(alphas), width), alphas, 1 + len(alphas) * width))


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _affine_err(ref, moments):
    """Worst relative difference of exact (mean, covariance) pairs."""
    return max(map(_rel, moments, ref))


def _gate_dev(draws, ref):
    """|mean of the sampled values - their exact expectation| in standard errors."""
    return abs(draws.mean() - ref) / (draws.std(ddof=1) / np.sqrt(draws.size))


def _gate(ref, *sampled):
    """Worst deviation of sampled (T, d) draws from the exact moments ref of
    the first coordinate's mean and the squared distance from the mean, and
    its report text with the gate's false-alarm bound."""
    mean, cov = ref
    dev = max(max(_gate_dev(s[:, 0], mean[0]), _gate_dev(np.vecdot(s - mean, s - mean), np.trace(cov)))
              for s in sampled)
    return dev, _gate_text(dev, 2 * len(sampled))


def _gate_text(dev, k):
    """Report text of a gate's worst deviation over k, and its false-alarm bound."""
    return f"gate={dev:.2f}se fa<{k * GATE_FA:.1e}"


def _centred_log(theta):
    """Log-beliefs less each row's mean: the update's shift-free part."""
    logs = np.log(theta)
    # numpy computes the mean as this sum over the count, so the bits match
    return logs - (row_sum(logs) / logs.shape[-1])[..., None]


def _cts_chain(noise, alphas, rows, x=0.5):
    """The states of `rows` chains of cts.bayes_update from the prior, one
    update per accuracy in alphas, observed through gaussian_sample with
    the stream noise[i]."""
    p = cts.prior(rows)
    for src, a in zip(noise, alphas):
        p = cts.bayes_update(p, gaussian_sample(src, np.full(rows, x), 1 / a), a)
    return p


def _cts_means(noise, alphas, rows):
    return _cts_chain(noise, alphas, rows).mean[:, None]


def _dd_chain(noise, alphas, rows, K=3):
    """The centred log-beliefs of `rows` class-1 chains of dd.bayes_update
    from the uniform prior, one dd.sender_sample draw per accuracy in
    alphas, with the stream noise[i]."""
    x = np.ones(rows, dtype=np.int64)
    theta = dd.uniform_prior(rows, K)
    for src, a in zip(noise, alphas):
        theta = dd.bayes_update(theta, dd.sender_sample(src, x, a, K))
    return _centred_log(theta)


def _step_alphas(sched, t, n):
    return [sched.beta(t * i / n) - sched.beta(t * (i - 1) / n) for i in range(1, n + 1)]


def check_additivity(seed, modality):
    """Updates at alpha_a then alpha_b against one at their sum: the worst
    relative difference of the two laws' exact moments, a gate on both
    sampled paths (four deviations), and exact precisions (continuous) or
    the update identity over 1000 random cases (discrete)."""
    rng = Rng(seed, _path=(1,))
    alpha_a = alpha_b = 1.0
    stages = ((alpha_a, alpha_b), (alpha_a + alpha_b,))
    chain, width = (_cts_means, 1) if modality == "continuous" else (_dd_chain, 3)
    ref = _chain_moments(chain, stages[1], width)
    stat = _affine_err(ref, _chain_moments(chain, stages[0], width))
    gate, gate_text = _gate(ref, *(chain([rng] * len(s), s, GATE_TRIALS) for s in stages))
    params = {"alpha_a": alpha_a, "alpha_b": alpha_b}
    if modality == "continuous":
        two, one = (_cts_chain(_unit_noise(len(s), 1), s, 1 + len(s)).precision for s in stages)
        exact_ok, exact = two == one, f"precision_exact={two == one}"
    else:
        # the exact functional identity over 1000 random two-row cases,
        # drawn case by case and updated in one batch
        gen = np.random.default_rng(seed)
        cases = [(gen.dirichlet(np.ones(width), size=2), gen.normal(0, 3, size=(2, width)),
                  gen.normal(0, 3, size=(2, width))) for _ in range(1000)]
        theta, ya, yb = (np.concatenate(c) for c in zip(*cases))
        worst = float(np.max(np.abs(dd.bayes_update(dd.bayes_update(theta, ya), yb) - dd.bayes_update(theta, ya + yb))))
        exact_ok, exact = worst < 1e-12, f"identity_max={worst:.2e}"
        params["K"] = width
    return PropertyReport(
        property_id=f"additivity-{modality}", modality=modality, statistic=stat, tolerance=EXACT_TOL,
        passed=bool(exact_ok and stat < EXACT_TOL and gate <= GATE_SE), samples=2 * GATE_TRIALS, seed=seed,
        params=params, detail=f"{exact} {gate_text}",
    )


# ---------------------------------------------------------------------------
# Flow vs sequential updates
# ---------------------------------------------------------------------------


def check_flow_equivalence(seed, modality):
    """Flow draws against chains of sequential updates: the worst relative
    difference of their exact moments over the chain lengths (and of the
    continuous chain's summed precision from the flow's), and a gate
    holding a sampled flow draw and chain to the flow's moments (four
    deviations)."""
    rng = Rng(seed, _path=(2,))
    if modality == "continuous":
        n_list, t, gate_n, width = (2, 16, 64), 0.5, 16, 1
        sched = ContinuousSigma(0.02)
        flow = lambda noise, rows: cts.flow_sample(noise, FlowConfig(sched, D=1), np.full((rows, 1), 0.5), t)
        state = flow(_unit_noise(1, width)[0], 1 + width)
        ref = _affine_moments(state.mean)
        chains = [_cts_chain(_unit_noise(n, width), _step_alphas(sched, t, n), 1 + n) for n in n_list]
        errs = [max(_affine_err(ref, _affine_moments(p.mean)), abs(p.precision / state.precision[0] - 1.0))
                for p in chains]
        gate, gate_text = _gate(ref, flow(rng, GATE_TRIALS).mean,
                                _cts_means([rng] * gate_n, _step_alphas(sched, t, gate_n), GATE_TRIALS))
        params = {"t": t, "n_list": list(n_list)}
    else:
        n_list, t, gate_n, width = (32,), 0.7, 4, 3
        sched = DiscreteQuadratic(2.0)
        flow = lambda noise, rows: _centred_log(
            dd.flow_sample(noise, FlowConfig(sched, rows, width), np.ones((1, rows), dtype=np.int64), t)[0])
        ref = _affine_moments(flow(_unit_noise(1, width)[0], 1 + width))
        errs = [_affine_err(ref, _chain_moments(_dd_chain, _step_alphas(sched, t, n), width)) for n in n_list]
        gate, gate_text = _gate(ref, flow(rng, GATE_TRIALS),
                                _dd_chain([rng] * gate_n, _step_alphas(sched, t, gate_n), GATE_TRIALS))
        params = {"t": t, "n": n_list[0], "K": width}
    stat = max(errs)
    return PropertyReport(
        property_id=f"flow-equivalence-{modality}", modality=modality, statistic=stat, tolerance=EXACT_TOL,
        passed=bool(stat < EXACT_TOL and gate <= GATE_SE), samples=2 * GATE_TRIALS, seed=seed,
        params={**params, "gate_n": gate_n},
        detail=" ".join(f"n={n}:{e:.1e}" for n, e in zip(n_list, errs)) + f" {gate_text}",
    )


# ---------------------------------------------------------------------------
# KL closed forms
# ---------------------------------------------------------------------------


def _kl_scores(rng, x, alpha, ref, receiver, nodes):
    """One KL config: the Gauss-Hermite expectation Q, under the sender
    N(x, 1/alpha), of the sender log-density less receiver(y); its error
    against ref and Q's change at twice the nodes, both relative to the
    larger of ref and the mean |sender log-density|; and the gate's
    deviation of GATE_TRIALS sampled log-ratios from Q."""

    def log_ratio(y):
        sender = log_gaussian_pdf(y, x, 1 / alpha)
        return sender - receiver(y), sender

    quad = []
    for n in (nodes, 2 * nodes):
        g, w = _hermgauss(n)
        lr, sender = log_ratio((x + g / np.sqrt(alpha))[:, None])
        quad.append((w @ lr, w @ np.abs(sender)))
    (q, scale), (q2, _) = quad
    scale = max(ref, scale)
    draws = log_ratio(gaussian_sample(rng, np.full((GATE_TRIALS, 1), x), 1 / alpha))[0]
    return abs(q - ref) / scale, abs(q2 - q) / scale, _gate_dev(draws, q)


def check_kl_closed_forms(seed, modality):
    """The transmission KL R against the Gauss-Hermite expectation Q of the
    production log-ratio: R is the closed form alpha/2 (x - x_hat)^2
    (continuous, 8 nodes, exact for a log-ratio linear in y) or, for the
    discretised mixture receiver, the harness's own trapezoid, the one
    reference that does not call the op under test (80 nodes).  The
    statistic is the worst |Q - R| over the configs, relative to R or to the
    mean |sender log-density| where that is larger: a KL far below the
    log-densities is a difference of nearly equal values, whose rounding is
    of their size, not of R's.  A gate holds the sampled log-ratios of each
    config to Q (one deviation per config)."""
    rng = Rng(seed, _path=(3,))
    gen = np.random.default_rng(seed)
    scores = []
    if modality == "continuous":
        params = {"configs": 5, "nodes": 8}
        for _ in range(5):
            x, x_hat, alpha = float(gen.uniform(-1, 1)), float(gen.uniform(-1, 1)), float(gen.uniform(0.5, 4.0))
            receiver = lambda y: log_gaussian_pdf(y, x_hat, 1 / alpha)
            scores.append(_kl_scores(rng, x, alpha, alpha / 2 * (x - x_hat) ** 2, receiver, 8))
    else:
        K = 2
        params = {"K": K, "nodes": 80}
        geom = dsc.BinGeometry(K)
        for _ in range(3):
            x = geom.center(int(gen.integers(1, K + 1)))
            mu_pred = float(gen.uniform(-0.8, 0.8))
            s_pred = float(gen.uniform(0.3, 0.8))
            alpha = float(gen.uniform(1.0, 3.0))
            probs = dsc.bin_probs_from_gaussian(np.array([mu_pred]), np.array([s_pred]), K)
            if abs(probs.sum() - 1.0) > 1e-9:
                return PropertyReport(
                    property_id="kl-closed-form-discretised", modality="discretised",
                    statistic=float(abs(probs.sum() - 1.0)), tolerance=1e-9, passed=False, samples=0, seed=seed,
                    detail="output rows do not carry unit mass",
                )
            # trapezoid reference on a wide grid
            grid = np.linspace(x - 9 / np.sqrt(alpha), x + 9 / np.sqrt(alpha), 20001)
            send_pdf = np.exp(-0.5 * alpha * (grid - x) ** 2) * np.sqrt(alpha / (2 * np.pi))
            recv_pdf = sum(
                probs[0][k] * np.exp(-0.5 * alpha * (grid - geom.center(k + 1)) ** 2) * np.sqrt(alpha / (2 * np.pi))
                for k in range(K)
            )
            ref = np.trapezoid(send_pdf * (np.log(send_pdf) - np.log(recv_pdf)), grid)
            receiver = lambda y: dsc.receiver_log_likelihood(y, np.broadcast_to(probs, y.shape + (K,)), K, alpha)
            scores.append(_kl_scores(rng, x, alpha, ref, receiver, 80))
    errs, doubled, devs = zip(*scores)
    stat, gate = float(max(errs)), max(devs)
    return PropertyReport(
        property_id=f"kl-closed-form-{modality}", modality=modality, statistic=stat, tolerance=EXACT_TOL,
        passed=bool(stat < EXACT_TOL and gate <= GATE_SE), samples=len(scores) * GATE_TRIALS, seed=seed,
        params=params, detail=f"errs={','.join(f'{e:.1e}' for e in errs)} doubled={max(doubled):.1e} "
                              + _gate_text(gate, len(scores)),
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

    @property
    def xi(self):
        return 1.0 + self.omega * self.K / (1.0 - self.omega)

    def probs(self, x):
        """The blended class distribution the m draws come from."""
        p = np.full(self.K, (1.0 - self.omega) / self.K)
        p[x - 1] += self.omega
        return p

    def sample_y(self, rng, x, trials):
        counts = rng.multinomial(self.m, self.probs(x), size=trials).astype(np.float64)
        return (counts - self.m / self.K) * np.log(self.xi)

    def centred_moments(self, x):
        """The exact mean and covariance of sample_y's rows less their row
        means, from the multinomial's E = m p and Cov = m (diag p - p p^T)."""
        p, scale, centre = self.probs(x), np.log(self.xi), np.eye(self.K) - 1.0 / self.K
        return scale * self.m * centre @ p, scale**2 * self.m * centre @ (np.diag(p) - np.outer(p, p)) @ centre

    def posterior_from_counts(self, theta, counts):
        """Posterior rows (..., K) from prior rows theta and class counts."""
        post = theta * self.xi ** np.asarray(counts, dtype=np.float64)
        return post / post.sum(axis=-1, keepdims=True)


def check_finite_m_limit(seed, K):
    """The centred count observations tend to the categorical sender's law:
    the errors of their exact moments fall strictly over m_list, with a
    log-log slope of at most -0.4 over the last decade (the law is
    O(m^-1/2), O(1/m) for K=2), towards a limit L of L + b m^-1/2 + c/m
    through the three points, the statistic.  A gate holds sample_y at the
    largest m to its moments (two deviations), and the count posterior
    must equal the update function."""
    rng = Rng(seed, _path=(4,))
    x, alpha, m_list, tol = 1, 0.25, np.array([100, 1000, 10_000]), 1e-3
    centre = np.eye(K) - 1.0 / K
    sender = (centre @ dd.sender_mean(x, alpha, K), alpha * K * centre)
    sims = [FiniteMSimulator(m=int(m), K=K, alpha=alpha) for m in m_list]
    errs = np.array([[_rel(a, b) for a, b in zip(sim.centred_moments(x), sender)] for sim in sims]).T
    slopes = np.log(errs[:, -1] / errs[:, -2]) / np.log(m_list[-1] / m_list[-2])
    fit = np.stack([np.ones(m_list.size), m_list**-0.5, 1.0 / m_list], axis=1)
    limits = np.linalg.solve(fit, errs.T)[0]
    stat = float(np.max(np.abs(limits)))
    sim = sims[-1]
    gate, gate_text = _gate(sim.centred_moments(x), sim.sample_y(rng, x, GATE_TRIALS) @ centre)
    # posterior identity at the largest m, raw counts vs update function,
    # over 50 cases drawn case by case and updated in one batch
    gen = np.random.default_rng(seed)
    cases = [(gen.dirichlet(np.ones(K)), gen.multinomial(sim.m, np.full(K, 1.0 / K))) for _ in range(50)]
    theta, counts = (np.array(c) for c in zip(*cases))
    y = (counts - sim.m / K) * np.log(sim.xi)
    ident_worst = float(np.max(np.abs(sim.posterior_from_counts(theta, counts) - dd.bayes_update(theta, y))))
    law_ok = np.all(np.diff(errs) < 0) and np.all(slopes <= -0.4) and stat < tol
    return PropertyReport(
        property_id=f"finite-m-limit-K{K}", modality="discrete", statistic=stat, tolerance=tol,
        passed=bool(law_ok and gate <= GATE_SE and ident_worst < 1e-10), samples=GATE_TRIALS, seed=seed,
        params={"K": K, "alpha": alpha, "m_list": m_list.tolist()},
        detail=f"mean_errs={['%.2e' % e for e in errs[0]]} cov_errs={['%.2e' % e for e in errs[1]]} "
               f"slopes={slopes[0]:.3f},{slopes[1]:.3f} limits={limits[0]:.1e},{limits[1]:.1e} "
               f"identity={ident_worst:.1e} {gate_text}",
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


def _strata(f):
    """f(i, n) at every step i of each n in N_LIST, then at the gate's
    step: the sum(N_LIST) + 1 strata in one array."""
    return np.concatenate([f(np.arange(1, n + 1), n) for n in N_LIST] + [[f(GATE_I, GATE_N)]])


def _strata_gaps(strata, linf):
    """Each n's summed strata as a gap relative to linf, and the gate's
    reference, n times its stratum."""
    sums = [s.sum() for s in np.split(strata[:-1], np.cumsum(N_LIST)[:-1])]
    return [(s - linf) / linf for s in sums], GATE_N * strata[-1]


def _dd_log_ratio_means(alpha, x, probs, K):
    """The expectations (S,) under the sender of dd.log_ratio, summed over
    the classes x (D,) with receiver probs (D, K), at each accuracy of alpha
    (S,).  The ratio is invariant to a common shift of a dimension's sender
    noise, so it depends on the noise only through the K - 1 differences
    z_k - z_x, Gaussian with covariance I + 11^T: a (K - 1)-dim product
    Gauss-Hermite rule, mapped through its Cholesky factor, enters
    dd.sender_sample as z with z_x = 0.  Accuracies above 0.1 take 80 nodes
    a side, the rest 24: the log-sum-exp bends within a unit of noise as
    alpha grows, and at alpha = 0.75 a 24-node rule is off by 4e-8."""
    mesh = lambda v: np.stack(np.meshgrid(*[v] * (K - 1), indexing="ij"), axis=-1).reshape(-1, K - 1)
    chol = np.linalg.cholesky(np.eye(K - 1) + 1.0)
    others = np.arange(K) != x[:, None] - 1  # (D, K): the classes other than x
    means = np.empty(alpha.shape)
    for sel, nodes in ((alpha <= 0.1, 24), (alpha > 0.1, 80)):
        g, w = _hermgauss(nodes)
        z = np.zeros((nodes ** (K - 1),) + others.shape)
        z[:, others] = np.tile(mesh(g) @ chol.T, x.size)
        a = alpha[sel, None, None, None]
        y = dd.sender_sample(None, x[None, None], a, K, z=z)
        means[sel] = dd.log_ratio(y, x[None, None], probs, a, K) @ mesh(w).prod(axis=1)
    return means


def _convergence_report(prop_id, modality, gaps, final_tol, samples, seed, params, gate_dev=None):
    magnitudes = [abs(g) for g in gaps]
    decreasing = all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    passed = decreasing and magnitudes[-1] < final_tol
    detail = "gaps=" + " ".join(f"{g:+.4%}" for g in gaps)
    if gate_dev is not None:
        passed = passed and gate_dev <= GATE_SE
        detail += f" mc_gate={gate_dev:.2f}se"
    return PropertyReport(
        property_id=prop_id, modality=modality, statistic=float(magnitudes[-1]), tolerance=final_tol,
        passed=bool(passed), samples=samples, seed=seed, params={"n_list": list(N_LIST), **params}, detail=detail,
    )


def check_loss_convergence(seed, modality):
    """Stratified expectation of the n-step loss vs the continuous-time mean.

    The predictors are state-independent oracles, which makes the per-t
    loss deterministic; the n-step expectation is assembled stratum by
    stratum (exactly for the continuous modality, via Gauss-Hermite over
    the sender draw otherwise, every n's strata and the gate's batched
    together).  A sampled consistency gate ties the stochastic op to
    the stratum values.  The discretised report's doubled= is the largest
    change of a gap when its 80-node rule takes twice the nodes.
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
        # every stratum's receiver at its own time (the belief mean is
        # immaterial to the oracle), then its Gauss-Hermite expectation over
        # the sender draw y ~ N(x, 1/alpha) of the sender minus the receiver
        # log-density, all strata in one call, at 80 nodes and at 160
        alpha = _strata(sched.step_alpha)
        probs = dsc.probs(pred, cfg, np.zeros((alpha.size, 1)), _strata(step_time))

        def strata(nodes):
            g, w = _hermgauss(nodes)
            y = x[0] + g / np.sqrt(alpha[:, None])
            recv = dsc.receiver_log_likelihood(y.reshape(-1, 1), np.repeat(probs, nodes, axis=0),
                                               K, np.repeat(alpha, nodes))
            return (log_gaussian_pdf(y[..., None], x, 1 / alpha[:, None]) - recv.reshape(y.shape)) @ w

        gaps, ref = _strata_gaps(strata(80), linf)
        doubled = _strata_gaps(strata(160), linf)[0]
        draws = dsc.loss_n(rng, pred, cfg, np.tile(x, (GATE_DRAWS, 1)), GATE_N, GATE_I)
        report = _convergence_report(
            "loss-convergence-discretised", "discretised", gaps, 0.01,
            GATE_DRAWS + TIME_GRID.size, seed, {"K": K, "sigma1": sched.sigma1}, _gate_dev(draws, ref),
        )
        report.detail += f" doubled={max(abs(b - a) for a, b in zip(gaps, doubled)):.1e}"
        return report
    # discrete
    K, D = 3, 2
    sched = DiscreteQuadratic(0.75)
    cfg = FlowConfig(sched, D, K)
    x = np.array([1, 2])
    p_star = np.array([0.5, 1.0 / 3.0, 1.0 / 6.0])
    probs_rows = np.stack([np.roll(p_star, xi - 1) for xi in x])  # mass 1/2 on the true class
    pred = ConstantProbsPredictor(probs_rows)
    linf = _simpson(dd.loss_cts(rng, pred, cfg, np.tile(x, (TIME_GRID.size, 1)), TIME_GRID))
    gaps, ref = _strata_gaps(_dd_log_ratio_means(_strata(sched.step_alpha), x, probs_rows, K), linf)
    draws = dd.loss_n(rng, pred, cfg, np.tile(x, (GATE_DRAWS, 1)), GATE_N, GATE_I)
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
        property_id="schedule-telescoping", modality="both", statistic=float(worst), tolerance=1e-10,
        passed=bool(worst <= 1e-10 and presets_ok), samples=440, seed=seed, detail=f"presets_ok={presets_ok}",
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
        property_id="schedule-entropy", modality="both", statistic=affine_err, tolerance=1e-9,
        passed=bool(affine_err < 1e-9 and monotone), samples=ts.size * draws, seed=seed,
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


def select_properties(name_filter=None):
    """The ids of every property, or of those containing name_filter, in
    run order; ValueError if none does."""
    names = [n for n in ALL_PROPERTIES if name_filter is None or name_filter in n]
    if not names:
        raise ValueError(f"no properties match filter {name_filter!r}")
    return names


def run_all(seed, name_filter=None):
    """Run every property (or those whose id contains name_filter); returns
    the reports."""
    return [globals()[CHECKS[n][0]](seed, **CHECKS[n][1]) for n in select_properties(name_filter)]
