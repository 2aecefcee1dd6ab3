import numpy as np
import pytest

from glmsub import (
    Criterion,
    ModelSet,
    ModelSpec,
    StageOneError,
    ValidationError,
    WeightedSample,
    build_design,
    draw_with_replacement,
    enumerate_quadratic_models,
    fit_weighted_mle,
    fit_weighted_mles,
    initial_probabilities,
    phi_single,
    pilot_probabilities,
    random_sampling_baseline,
    two_stage,
)
from glmsub.fitting import _row_blocks
from glmsub.twostage import DEFAULT_STAGE1_ATTEMPTS

from conftest import make_logistic_data, make_poisson_data
from oracles import irls_glm


def logistic_population(rng, n=3000, theta=(-0.5, 0.4, 0.2)):
    x, y = make_logistic_data(n, theta, rng)
    return x[:, 1:], y.astype(float)  # raw covariates without the intercept


def poisson_population(rng, n=3000, theta=(0.5, 0.3, -0.2)):
    x, y = make_poisson_data(n, theta, rng)
    return x[:, 1:], y.astype(float)


class TestTwoStage:
    def test_result_shapes(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))
        result = two_stage(logistic, models, raw, y, 60, 150, rng, sampling_model=0)
        assert len(result.fits) == 4
        assert result.combined_sample.n_rows == 210
        assert result.stage1_indices.shape == (60,)
        assert result.stage2_indices.shape == (150,)
        assert len(result.stage2_probs) == len(y)
        assert result.stage2_probs.criterion is Criterion.MMSE

    def test_combined_sample_is_the_fitted_design(self, poisson, rng):
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))
        result = two_stage(poisson, models, raw, y, 40, 80, rng)
        rows = np.concatenate([result.stage1_indices, result.stage2_indices])
        sample = result.combined_sample
        # The design as the Newton loop walks it.
        design = np.hstack([xt for _, xt in _row_blocks(sample.design)]).T
        np.testing.assert_array_equal(design, build_design(models.full_spec, raw[rows]))
        np.testing.assert_array_equal(sample.response, y[rows])
        refit = fit_weighted_mles(poisson, sample, models.columns, population_size=len(y))
        for fit, again in zip(result.fits, refit):
            np.testing.assert_array_equal(fit.theta, again.theta)

    def test_rows_carry_stage_probabilities(self, poisson, rng):
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, ())
        result = two_stage(poisson, models, raw, y, 30, 80, rng, sampling_model=0)
        init = initial_probabilities(poisson, y)
        np.testing.assert_array_equal(
            result.combined_sample.probs[:30], init.probs[result.stage1_indices]
        )
        np.testing.assert_array_equal(
            result.combined_sample.probs[30:],
            result.stage2_probs.probs[result.stage2_indices],
        )

    def test_model_robust_reduction_bitwise(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, ())  # Q = 1
        res_single = two_stage(
            logistic, models, raw, y, 40, 100, np.random.default_rng(5),
            criterion="mVc", sampling_model=0,
        )
        res_robust = two_stage(
            logistic, models, raw, y, 40, 100, np.random.default_rng(5),
            criterion="mVc", sampling_model=None,
        )
        assert np.array_equal(res_single.stage2_probs.probs, res_robust.stage2_probs.probs)
        np.testing.assert_array_equal(
            res_single.stage1_indices, res_robust.stage1_indices
        )
        np.testing.assert_array_equal(
            res_single.stage2_indices, res_robust.stage2_indices
        )

    def test_model_robust_mvc_full_set(self, poisson, rng):
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))
        result = two_stage(
            poisson, models, raw, y, 40, 120, rng, criterion="mVc", sampling_model=None,
        )
        assert result.stage2_probs.criterion is Criterion.MODEL_ROBUST_MVC
        assert len(result.fits) == 4

    def test_determinism_given_stream(self, poisson, rng):
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, (0,))
        a = two_stage(poisson, models, raw, y, 30, 90, np.random.default_rng(11))
        b = two_stage(poisson, models, raw, y, 30, 90, np.random.default_rng(11))
        for fa, fb in zip(a.fits, b.fits):
            np.testing.assert_array_equal(fa.theta, fb.theta)
        np.testing.assert_array_equal(a.stage2_probs.probs, b.stage2_probs.probs)

    def test_size_preconditions(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))  # d_max = 5
        with pytest.raises(ValidationError):
            two_stage(logistic, models, raw, y, 5, 100, rng)
        with pytest.raises(ValidationError):
            two_stage(logistic, models, raw, y, 100, 50, rng)
        # r0 rows cannot identify d_max parameters: rejected up front
        # instead of exhausting the stage-1 attempts.
        with pytest.raises(ValidationError):
            pilot_probabilities(logistic, models, raw, y, 5, rng)

    def test_unknown_criterion_name(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, (0,))
        with pytest.raises(ValidationError, match=r"\(mMSE or mVc\), got 'MMSE'"):
            two_stage(logistic, models, raw, y, 40, 80, rng, criterion="MMSE")

    def test_data_preconditions(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))  # d_max = 5
        with pytest.raises(ValidationError, match="3000 rows but response has 2999"):
            two_stage(logistic, models, raw, y[:-1], 60, 150, rng)
        with pytest.raises(ValidationError, match="dataset has only 5 rows"):
            two_stage(logistic, models, raw[:5], y[:5], 6, 6, rng)

    def test_bad_sampling_model_index(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, ())
        with pytest.raises(ValidationError):
            two_stage(logistic, models, raw, y, 30, 60, rng, sampling_model=3)

    def test_stage_one_exhaustion(self, logistic):
        # Globally separated data: every pilot subsample is separated, so
        # every pilot fit diverges and stage 1 gives up after its attempts.
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(-2, -1, size=50), rng.uniform(1, 2, size=50)])
        y = (x > 0).astype(float)
        raw = x[:, None]
        models = enumerate_quadratic_models(1, ())
        with pytest.raises(StageOneError) as excinfo:
            two_stage(logistic, models, raw, y, 20, 40, rng)
        assert excinfo.value.attempts == DEFAULT_STAGE1_ATTEMPTS

    def test_close_to_full_mle_when_sampling_everything(self, poisson):
        # Both stages the size of the whole dataset with uniform
        # probabilities behave like a double bootstrap around the MLE.
        data_rng = np.random.default_rng(31)
        raw, y = poisson_population(data_rng, n=2000)
        models = enumerate_quadratic_models(2, ())
        design = np.column_stack([np.ones(len(y)), raw])
        mle = irls_glm(design, y, "poisson")
        errors = []
        for seed in range(50):
            res = random_sampling_baseline(
                poisson, models, raw, y, 2000, 2000,
                np.random.default_rng(1000 + seed),
            )
            errors.append(np.max(np.abs(res.fits[0].theta - mle)))
        assert np.median(errors) < 0.05


class TestRandomBaseline:
    def test_both_stages_share_one_uniform_vector(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, ())
        result = random_sampling_baseline(logistic, models, raw, y, 40, 80, rng)
        np.testing.assert_array_equal(result.stage2_probs.probs, np.full(len(y), 1 / len(y)))
        np.testing.assert_array_equal(
            result.combined_sample.probs, np.full(120, 1 / len(y))
        )
        assert result.stage2_probs.criterion is Criterion.UNIFORM

    def test_poisson_equals_unweighted_mle_on_same_rows(self, poisson, rng):
        # Uniform weights cancel in the weighted objective, so the fit on
        # the combined rows equals the plain MLE on those rows.
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, ())
        result = random_sampling_baseline(poisson, models, raw, y, 50, 100, rng)
        rows = np.concatenate([result.stage1_indices, result.stage2_indices])
        design = np.column_stack([np.ones(150), raw[rows]])
        unweighted = fit_weighted_mle(
            poisson,
            WeightedSample(design, y[rows], np.ones(150)),
            tol=1e-10,
        )
        np.testing.assert_allclose(result.fits[0].theta, unweighted.theta, atol=1e-8)

    def test_output_shape_matches_two_stage(self, poisson, rng):
        raw, y = poisson_population(rng)
        models = enumerate_quadratic_models(2, (0, 1))
        result = random_sampling_baseline(poisson, models, raw, y, 30, 60, rng)
        assert len(result.fits) == 4
        assert result.combined_sample.n_rows == 90


class TestPilotProbabilities:
    def test_matches_two_stage_stage2(self, logistic, rng):
        raw, y = logistic_population(rng)
        models = enumerate_quadratic_models(2, (0,))
        pv = pilot_probabilities(
            logistic, models, raw, y, 40, np.random.default_rng(3), criterion="mMSE"
        )
        full = two_stage(
            logistic, models, raw, y, 40, 80, np.random.default_rng(3), criterion="mMSE"
        )
        np.testing.assert_array_equal(pv.probs, full.stage2_probs.probs)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_sampling_model_pilot_is_its_lone_fit(self, poisson, rng, q, criterion):
        # Model 0's terms are not in union order.  Either model's pilot is
        # the lone fit on its own design of the stage-1 rows.
        raw, y = poisson_population(rng)
        models = ModelSet([ModelSpec((1, 0), (0,)), ModelSpec((0, 1), (1,))])
        pv = pilot_probabilities(
            poisson, models, raw, y, 40, np.random.default_rng(5), criterion, sampling_model=q
        )
        init = initial_probabilities(poisson, y)
        idx1 = draw_with_replacement(init, 40, np.random.default_rng(5))
        spec = models.specs[q]
        sample = WeightedSample(build_design(spec, raw[idx1]), y[idx1], init.probs[idx1])
        pilot = fit_weighted_mle(poisson, sample).theta
        expected = phi_single(criterion, poisson, pilot, build_design(spec, raw), y)
        assert pv.probs.tobytes() == expected.probs.tobytes()


class TestDirectionalImprovement:
    def test_mmse_beats_random_at_recovering_full_mle(self, logistic):
        # Paired Monte Carlo on one fixed dataset: the optimality-driven
        # second stage should land closer to the full-data MLE than random
        # sampling, in median over seeds.
        data_rng = np.random.default_rng(7)
        cov = 1.5 * np.eye(2)
        x0 = data_rng.multivariate_normal([0, 0], cov, size=10_000)
        design = np.column_stack([np.ones(10_000), x0])
        theta_true = np.array([-1.0, 0.5, 0.1])
        y = data_rng.binomial(1, 1 / (1 + np.exp(-design @ theta_true))).astype(float)
        models = enumerate_quadratic_models(2, ())
        mle = irls_glm(design, y, "logistic")

        err_opt, err_rand = [], []
        for seed in range(100):
            opt = two_stage(
                logistic, models, x0, y, 100, 1000,
                np.random.default_rng(seed), criterion="mMSE", sampling_model=0,
            )
            rand = random_sampling_baseline(
                logistic, models, x0, y, 100, 1000, np.random.default_rng(seed)
            )
            err_opt.append(np.linalg.norm(opt.fits[0].theta - mle))
            err_rand.append(np.linalg.norm(rand.fits[0].theta - mle))
        assert np.median(err_opt) < np.median(err_rand)
