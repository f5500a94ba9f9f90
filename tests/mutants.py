"""The mutation ledger: source mutants, and the tests that must kill them.

Each mutant names a source file, a snippet that occurs once in it, its
replacement, and tests of which one must fail under it (DeMillo, Lipton and
Sayward, *Hints on test data selection*, IEEE Computer 11(4), 1978).  A test
is retired only when a remaining test kills its mutants.  ``python
tests/mutants.py`` takes no options: it exports the committed HEAD with ``git
archive``, applies each mutant in turn, runs its tests with ``pytest -x -q``,
prints "killed" or "survived" with the seconds taken, and exits non-zero
unless all are killed.  ``tests/test_suite_settings.py`` checks the snippets
and test names; pytest does not collect this file.
"""

import io
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
Mutant = namedtuple("Mutant", "name path snippet replacement tests")  # paths and test ids from ROOT


def _m(name, module, snippet, replacement, *tests):
    return Mutant(name, f"src/bflow/{module}.py", snippet, replacement, tests)


ACC, CLI, KER = "tests/test_acceptance.py::test_criterion_", "tests/test_cli.py::Test", "tests/test_kernels.py::test_"
HAR, CTS, DSC = "tests/test_harness.py::Test", "tests/test_continuous.py::Test", "tests/test_discretised.py::Test"
DD, TRN, TOY = "tests/test_discrete.py::Test", "tests/test_training.py::Test", "tests/test_toy_models.py::Test"
OPC, PRD = TRN + "OpContract::test_", "tests/test_predictor.py::Test"
ZERO, SEQ = OPC + "perfect_predictor_costs_nothing", OPC + "one_step_matches_sequential_calls"
GIVEN = OPC + "loss_n_at_given_noise"
C02, C04 = ACC + "02_distributional_additivity_and_flow", ACC + "04_loss_convergence_all_modalities"
C06, C08 = ACC + "06_gradient_correctness", ACC + "08_schedule_checks"
VERIFY, LIBM = CLI + "VerifyCommand::test_filter_runs_subset", KER + "erf_matches_libm"
FSUM = DSC + "ExpectedCentre::test_closed_form_matches_fsum_of_bin_masses"

CT, DS, DC = "continuous", "discretised", "discrete"

MUTANTS = [
    # the op set: flow_sample, update, estimate, loss_n, recon, loss_inf and its gradient
    _m("continuous.flow_sample: 1.01x mean (flow-equivalence-continuous)", CT, "return g * x +",
       "return 1.01 * g * x +", C02),
    _m("continuous.flow_sample: 1.1x variance", CT, "np.sqrt(g * (1.0 - g))", "np.sqrt(1.1 * g * (1.0 - g))",
       HAR + "ExactMoments::test_continuous_flow"),
    _m("continuous.flow_sample: t = 0 is not the prior", CT, "x.shape[0], cfg.schedule.gamma(t))",
       "x.shape[0], cfg.schedule.gamma(t)) + 1e-12", TRN + "BatchedFlow::test_continuous_rows_equal_per_row_draws"),
    _m("continuous.update: prior means at 1.05x precision (additivity-continuous)", CT, "alpha, 1.0 + sched",
       "alpha, 1.05 + 1.05 * sched", C02),
    _m("continuous.update: new precision +1e-9", CT, "sched.beta(i / n))", "sched.beta(i / n) + 1e-9)",
       OPC + "final_precision[continuous]"),
    _m("continuous.estimate: 1.01x", CT, "return output_map(cfg, state, t, net_out(",
       "return 1.01 * output_map(cfg, state, t, net_out(", CTS + "OutputPrediction::test_zero_noise_estimate"),
    _m("continuous.loss_n: 1.01x step weight (loss-convergence-continuous)", CT, "n * cfg.schedule.step_alpha",
       "1.01 * n * cfg.schedule.step_alpha", GIVEN + "[continuous]", C04),
    _m("continuous.loss_n: one extra normal drawn", CT, "    p = flow_sample(rng, cfg, x, t)\n",
       "    rng.standard_normal(1)\n    p = flow_sample(rng, cfg, x, t)\n", SEQ + "[continuous]"),
    _m("continuous.recon: 1.01x the datum", CT, "x - estimate(predictor, cfg, p, 1.0",
       "1.01 * x - estimate(predictor, cfg, p, 1.0", ZERO + "[continuous]"),
    _m("continuous.loss_inf: 1.01x time weight", CT, "w = 0.5 *", "w = 0.505 *",
       CTS + "LossCtsTime::test_constant_error_closed_form"),
    _m("continuous.loss_inf: 1.01x the datum", CT, "resid = x - x_hat", "resid = 1.01 * x - x_hat",
       ZERO + "[continuous]"),
    _m("continuous.loss_inf: 1.01x gradient", CT, "* 2.0 * (x_hat - x)", "* 2.02 * (x_hat - x)", C06),
    _m("discretised.flow_sample: 0.99x the time", DS, "(rng, cfg, x, t, z)", "(rng, cfg, x, 0.99 * t, z)",
       TRN + "BatchedFlow::test_sample_head_state_matches_reference[discretised-16]"),
    _m("discretised.update: a step of n + 1", DS, "update = continuous.update",
       "update = lambda cfg, s, e, i, n, rng: continuous.update(cfg, s, e, i, n + 1, rng)",
       OPC + "final_precision[discretised]"),
    _m("discretised.estimate: the next bin's centre", DS, "t), u) - 1]", "t), u) % cfg.K]",
       DSC + "Generate::test_forced_bin"),
    _m("discretised.loss_n: receiver (and sender) at 1.5x accuracy", DS, "t), alpha, cfg.K)",
       "t), 1.5 * alpha, cfg.K)", GIVEN + "[discretised]", C04),
    _m("discretised.loss_n: sender draw reuses the flow noise", DS, "1.0 / alpha, z[:, 1])",
       "1.0 / alpha, z[:, 0])", GIVEN + "[discretised]"),
    _m("discretised.loss_n: sender density at 1.01x the datum", DS, "log_ratio(y, x, probs(",
       "log_ratio(y, 1.01 * x, probs(", ZERO + "[discretised]"),
    _m("discretised.loss_n: one extra normal drawn", DS, "    z = rng.standard_normal((x.shape[0], 2)",
       "    rng.standard_normal(1)\n    z = rng.standard_normal((x.shape[0], 2)", SEQ + "[discretised]"),
    _m("discretised.log_ratio: (k_c + x) not halved", DS, "(centers + x) / 2", "(centers + x)",
       DSC + "LogRatio::test_matches_decimal_reference[16]"),
    _m("discretised.recon: the next bin's mass", DS, "idx = quantise(x, cfg.K)",
       "idx = np.minimum(quantise(x, cfg.K) + 1, cfg.K)", ZERO + "[discretised]"),
    _m("discretised.loss_inf: 1.01x time weight (loss-convergence-discretised)", DS, "w = 0.5 *", "w = 0.505 *", C04),
    _m("discretised.loss_inf: 1.01x the datum", DS, "resid = x - centre", "resid = 1.01 * x - centre",
       ZERO + "[discretised]"),
    _m("discretised.loss_inf: 1.01x mean gradient", DS, "dL_dkhat * dkhat_dmu", "1.01 * dL_dkhat * dkhat_dmu",
       TRN + "HeadGradients::test_discretised_head_at_k256_matches_central_differences"),
    _m("discrete.flow_sample: 1.1x beta", DC, "return sender_mean(x, beta, K) + np.sqrt(beta * K)",
       "return sender_mean(x, 1.1 * beta, K) + np.sqrt(1.1 * beta * K)", HAR + "ExactMoments::test_discrete_flow"),
    _m("discrete.flow_sample: t = 0 is not the prior", DC, "np.sqrt(beta * K)", "np.sqrt(beta * K + 1e-300)",
       TRN + "BatchedFlow::test_discrete_rows_equal_per_row_draws[2]"),
    _m("discrete.update: keeps 1.05x the logits", DC, "return state +", "return 1.05 * state +", C02),
    _m("discrete.estimate: the next class", DC, "cfg.K), u)", "cfg.K), u) % cfg.K + 1",
       DD + "Generate::test_forced_class"),
    _m("discrete.loss_n: sender draw reuses the flow noise", DC, "K, z[:, 1])", "K, z[:, 0])",
       GIVEN + "[discrete]", TOY + "EvalTableBehaviour::test_n100_close_to_continuous_limit"),
    _m("discrete.loss_n: weight n + 1 (loss-convergence-discrete)", DC,
       "return n * log_ratio(", "return (n + 1) * log_ratio(", GIVEN + "[discrete]", C04),
    _m("discrete.loss_n: the ratio of the next class", DC, "log_ratio(y, x, probs, alpha, K)\n",
       "log_ratio(y, x % K + 1, probs, alpha, K)\n", ZERO + "[discrete]"),
    _m("discrete.loss_n: one extra normal drawn", DC, "    if not np.isscalar(alpha):\n",
       "    rng.standard_normal(1)\n    if not np.isscalar(alpha):\n", SEQ + "[discrete]"),
    _m("discrete.recon: the next class's probability", DC, "cfg.K), x)", "cfg.K), x % cfg.K + 1)",
       DD + "ReconstructionLoss::test_direct_log_prob_oracle"),
    _m("discrete.loss_inf: 1.01x time weight", DC, "weight = 0.5 * K", "weight = 0.505 * K",
       DD + "LossCtsTime::test_uniform_output_closed_form"),
    _m("discrete.loss_inf: the next class's one-hot", DC, "onehot = one_hot(x, K)", "onehot = one_hot(x % K + 1, K)",
       ZERO + "[discrete]"),
    _m("discrete.loss_inf: 1.01x gradient", DC, "* 2.0 * diff", "* 2.02 * diff", C06),
    # the verify properties that no mutant above turns red
    _m("schedule-telescoping: discrete step accuracy off", "schedule", "(2.0 * i - 1.0)", "(2.0 * i - 1.001)", VERIFY),
    _m("schedule-entropy: log precision not affine in t", "schedule", "(-2.0 * t) - 1.0", "(-2.0 * t**1.01) - 1.0",
       VERIFY),
    _m("additivity-discrete: sender mean at alpha**1.2", DC, "alpha * (K - 1.0), -alpha)",
       "alpha**1.2 * (K - 1.0), -alpha**1.2)", C02),
    _m("flow-equivalence-discrete: 1.1x sender variance", DC, "np.sqrt(alpha * K)", "np.sqrt(1.1 * alpha * K)", C02),
    _m("kl-closed-form-continuous: 1.01x Gaussian quadratic term", "numerics", "- 0.5 * sq / var",
       "- 0.505 * sq / var", ACC + "03_kl_closed_form_continuous"),
    _m("kl-closed-form-continuous: Gaussian draws +0.05", "numerics", "return mean + np.sqrt(var) * z",
       "return mean + 0.05 + np.sqrt(var) * z", ACC + "03_kl_closed_form_continuous"),
    _m("kl-closed-form-discretised: log-ratio at 1.01x accuracy", DS, "terms *= alpha",
       "terms *= 1.01 * alpha", HAR + "SeedSweep::test_kl_properties_pass_with_exact_statistics"),
    _m("finite-m-limit-K2: count weight 1.01x off", "harness", "1.0 + self.omega", "1.0 + 1.01 * self.omega",
       ACC + "05_multinomial_limit"),
    _m("finite-m-limit-K5: count posterior at 1.01 xi", "harness", "theta * self.xi **", "theta * (1.01 * self.xi) **",
       ACC + "05_multinomial_limit"),
    # shared code and the op contracts
    _m("sample_chain: fresh unseeded streams", "schedule", "RowStreams(streams)",
       "RowStreams([type(s)(int(np.random.randint(2**31))) for s in streams])", OPC + "seed_determinism[continuous]"),
    _m("forward_rows: checks the row count only", "schedule", "if out.shape != (X.shape[0], width):",
       "if out.shape[0] != X.shape[0]:", OPC + "wrong_predictor_width_rejected[continuous]"),
    _m("MLP._views: biases start one element early", "predictor", "flat[end : end + fan_out]",
       "flat[end - 1 : end + fan_out - 1]", PRD + "ParamsContract::test_forward_bits_match_reference[1-silu-fourier]"),
    _m("MLP init: weights scaled by 1/sqrt(fan_out)", "predictor", "np.sqrt(W.shape[0])", "np.sqrt(W.shape[1])",
       TRN + "TrainConfig::test_initial_network_unchanged[mixture]"),
    _m("MLP.backward_batch: bias gradient of the first row only", "predictor", "np.sum(delta, axis=0, out=gb)",
       "np.sum(delta[:1], axis=0, out=gb)", PRD + "MLP::test_tape_gradient_vs_finite_differences[silu]",
       C06),
    _m("CtsPosteriorPredictor: atom likelihoods at variance g, not g(1 - g)", "predictor", "/ (g * (1.0 - g))", "/ g",
       PRD + "Oracles::test_posterior_oracle_enumeration"),
    _m("ConstantPredictor.from_probs: K=2 log-odds of class 2", "predictor", "logits[:, 0] - logits[:, 1]",
       "logits[:, 1] - logits[:, 0]", DD + "LossNStep::test_binary_quadrature_oracle"),
    _m("_kl_scores: error times the scale", "harness", "abs(q - ref) / scale", "abs(q - ref) * scale",
       HAR + "IndividualChecks::test_error_is_relative_to_the_larger_of_ref_and_the_sender_scale[0.5]"),
    _m("TrainConfig: learning-rate default 1.001e-4", "training", "learning_rate: float = 1e-4",
       "learning_rate: float = 1.001e-4", CLI + "ConfigParsing::test_defaults_of_keys_a_file_leaves_out"),
    _m("TrainConfig: a hidden width of 1 rejected", "training", "width < 1 for", "width <= 1 for",
       TRN + "TrainConfig::test_hidden_width_of_one_accepted"),
    _m("neg_log_true_class: 1.01x", "numerics", "return -np.sum(", "return -1.01 * np.sum(",
       DSC + "ReconstructionLoss::test_uniform_value"),
    _m("discrete.sender_mean: +0.05", DC, "(K - 1.0), -alpha)", "(K - 1.0), -alpha) + 0.05",
       DD + "SenderSample::test_block_mean_and_variance_formula"),
    _m("head_loss_and_grad: half the time", "training", 'state["t"], net_out, grad', '0.5 * state["t"], net_out, grad',
       TRN + "DiscretisedHeadReference::test_extreme_states"),
    _m("evaluate: row mean +1e-9", "training", "float(samples.mean())", "float(samples.mean()) + 1e-9",
       TRN + "Evaluate::test_row_is_mean_of_direct_batched_call[discrete]"),
    _m("train: eval column from the n = 10 row's streams", "training", "items, 0,", "items, 1,",
       TRN + "TrainLoop::test_eval_column_is_evaluates_inf_row_alone"),
    _m("BinGeometry: centres off by 0.005 of a bin", DS, "K + 1) - 1.0)", "K + 1) - 1.01)",
       DSC + "BinGeometry::test_centre_reads_the_centre_table[4]"),
    # the kernels and the schedules
    _m("erf_vec: near range +1e-300", "kernels", "xs * _horner(z, _P0) / _horner(z, _Q0)",
       "xs * _horner(z, _P0) / _horner(z, _Q0) + 1e-300",
       KER + "erf_bitwise_equal_to_three_branch_reference_over_range_and_specials"),
    _m("erf_vec: saturates at 0.999", "kernels", "np.copysign(1.0, x)", "np.copysign(0.999, x)", LIBM),
    _m("erf_vec: mid range loses its sign", "kernels", "np.copysign(1.0 - v, xf[mid])", "1.0 - v", LIBM),
    _m("erf_vec: mid range 1e-6 relative off", "kernels", "v = np.exp(-(a * a))", "v = np.exp(-(a * a)) * 1.000001",
       LIBM),
    _m("expected_centre: windows end at |u| = 5", DS, "_U_SAT = 6.0", "_U_SAT = 5.0", FSUM),
    _m("expected_centre: the Taylor series on spans up to 2", DS, "taylor = (b - a) / 2 < 0.5",
       "taylor = (b - a) / 2 < 1.0", FSUM),
    _m("logsumexp_rows: +1e-9", "kernels", "hi[:, None])))", "hi[:, None]))) + 1e-9", KER + "logsumexp_rows_vs_naive"),
    _m("logsumexp_rows: shifts by the first column, not the maximum", "kernels", "hi = row_max(m)",
       "hi = m[:, 0].copy()", KER + "logsumexp_rows_handles_neg_inf"),
    _m("ContinuousSigma.step_alpha: 1.01x exponent", "schedule", "** (2.0 / n))", "** (2.02 / n))", C08),
    _m("PRESETS: chars27 at 0.76", "schedule", "DiscreteQuadratic(0.75)", "DiscreteQuadratic(0.76)", C08),
]


def run(mutant, tree):
    """Apply mutant in tree, run its tests and restore the file: pytest's
    exit code, 1 when a test failed, and the seconds taken."""
    path = tree / mutant.path
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet occurs {original.count(mutant.snippet)} times in {mutant.path}")
    path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=tree, capture_output=True).returncode
    finally:
        path.write_text(original, encoding="utf-8")
    return code, time.perf_counter() - start


def main():
    start, bad = time.perf_counter(), 0
    tar = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="bflow-mutants-") as tmp, tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tmp, filter="data")
        for mutant in MUTANTS:
            code, seconds = run(mutant, Path(tmp))
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            bad += code != 1
            print(f"{verdict:<10} {seconds:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
