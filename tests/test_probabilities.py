import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import glmsub._workers
import glmsub.fitting
import glmsub.probabilities as probabilities
from glmsub import (
    DEFAULT_EPS,
    Criterion,
    DegenerateResponseError,
    LazyDesign,
    NumericOverflowError,
    ProbabilityVector,
    SingularInformationError,
    ValidationError,
    build_design,
    draw_with_replacement,
    enumerate_quadratic_models,
    initial_probabilities,
    phi_model_robust,
    phi_single,
)
from glmsub.fitting import _row_blocks

from conftest import make_logistic_data, make_poisson_data
from oracles import phi_model_robust_oracle, phi_oracle


class TestProbabilityVector:
    def test_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum"):
            ProbabilityVector(np.array([0.5, 0.6]), Criterion.UNIFORM)
        with pytest.raises(ValidationError, match="sum"):
            ProbabilityVector(np.full(3, np.nan), Criterion.UNIFORM)

    def test_strict_positivity(self):
        with pytest.raises(ValidationError):
            ProbabilityVector(np.array([1.0, 0.0]), Criterion.UNIFORM)

    def test_entries_below_one(self):
        with pytest.raises(ValidationError):
            ProbabilityVector(np.array([1.0]), Criterion.UNIFORM)

    def test_unknown_criterion_lists_the_names(self):
        with pytest.raises(ValidationError, match=r"uniform, proportional, mMSE, mVc, .*got 'bogus'"):
            ProbabilityVector(np.full(2, 0.5), "bogus")

    def test_ok(self):
        pv = ProbabilityVector(np.full(5, 0.2), "uniform")
        assert len(pv) == 5
        assert pv.criterion is Criterion.UNIFORM


class TestConstruction:
    def test_rejects_empty(self, rng):
        with pytest.raises(ValidationError):
            draw_with_replacement([], 1, rng)

    def test_rejects_negative(self, rng):
        with pytest.raises(ValidationError):
            draw_with_replacement([0.5, -0.1], 1, rng)

    def test_rejects_zero_sum(self, rng):
        with pytest.raises(ValidationError):
            draw_with_replacement([0.0, 0.0], 1, rng)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_rejects_overflowing_sum(self, rng):
        with pytest.raises(ValidationError, match="finite sum"):
            draw_with_replacement([1e308, 1e308, 1.0], 1, rng)

    def test_accepts_unnormalized(self):
        # The cumulative sum is divided by its last entry, so these weights
        # give the draws of their normalized form bit for bit.
        a = draw_with_replacement([2.0, 6.0], 100, np.random.default_rng(3))
        b = draw_with_replacement([0.25, 0.75], 100, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)


class _FixedUniform:
    """Generator stub whose ``random`` returns one value for every draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestDraws:
    def test_degenerate_mass(self, rng):
        # Pre-floor test vector: all mass on index 0.
        probs = np.zeros(6)
        probs[0] = 1.0
        idx = draw_with_replacement(probs, 500, rng)
        assert np.all(idx == 0)

    def test_empirical_frequencies_three_outcomes(self):
        rng = np.random.default_rng(1234)
        probs = np.array([0.2, 0.3, 0.5])
        r = 300_000
        idx = draw_with_replacement(probs, r, rng)
        counts = np.bincount(idx, minlength=3)
        sigma = np.sqrt(r * probs * (1 - probs))
        assert np.all(np.abs(counts - r * probs) < 3 * sigma)

    def test_determinism(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        a = draw_with_replacement(probs, 1000, np.random.default_rng(7))
        b = draw_with_replacement(probs, 1000, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_zero_weight_never_drawn(self, rng):
        probs = np.array([0.5, 0.0, 0.5])
        idx = draw_with_replacement(probs, 20_000, rng)
        assert not np.any(idx == 1)

    def test_trailing_zero_weights_unreachable_at_top_of_unit_interval(self):
        # The largest double below 1.0 must still land on the last
        # positive-weight row, never on the zero-weight rows after it.
        idx = draw_with_replacement([0.5, 0.5, 0.0, 0.0], 8, _FixedUniform(np.nextafter(1.0, 0.0)))
        np.testing.assert_array_equal(idx, np.full(8, 1))

    def test_leading_zero_weights_unreachable_at_zero(self):
        idx = draw_with_replacement([0.0, 0.0, 0.5, 0.5], 8, _FixedUniform(0.0))
        np.testing.assert_array_equal(idx, np.full(8, 2))

    def test_accepts_probability_vector_wrapper(self, rng):
        pv = ProbabilityVector(np.full(4, 0.25), Criterion.UNIFORM)
        idx = draw_with_replacement(pv, 50, rng)
        assert idx.shape == (50,)
        assert set(np.unique(idx)) <= {0, 1, 2, 3}

    def test_size_validation(self, rng):
        with pytest.raises(ValidationError):
            draw_with_replacement(np.array([1.0]), 0, rng)

    def test_chi_square_small(self):
        rng = np.random.default_rng(99)
        probs = np.array([0.2, 0.3, 0.5])
        r = 100_000
        counts = np.bincount(draw_with_replacement(probs, r, rng), minlength=3)
        _, p = stats.chisquare(counts, r * probs)
        assert p > 0.001

    def test_chi_square_large(self):
        rng = np.random.default_rng(99)
        n = 1000
        weights = np.random.default_rng(3).uniform(0.5, 2.0, size=n)
        probs = weights / weights.sum()
        r = 200_000
        counts = np.bincount(draw_with_replacement(probs, r, rng), minlength=n)
        _, p = stats.chisquare(counts, r * probs)
        assert p > 0.001

    @pytest.mark.parametrize("r", [2.7, float("inf"), float("nan"), np.float64(3.0)])
    def test_size_must_be_an_integer(self, rng, r):
        # A float size is refused, not truncated (2.7 drew 2 rows) or left
        # to raise OverflowError (inf) or NumPy's ValueError (nan).
        with pytest.raises(ValidationError, match="must be an integer"):
            draw_with_replacement([0.5, 0.5], r, rng)

    def test_numpy_integer_size(self):
        a = draw_with_replacement([0.5, 0.5], np.int64(5), np.random.default_rng(4))
        b = draw_with_replacement([0.5, 0.5], 5, np.random.default_rng(4))
        np.testing.assert_array_equal(a, b)

    def test_golden_stream(self):
        # Indices recorded before the sampler class was folded into this
        # function, from weights with zero entries given as an array and
        # behind a ``probs`` attribute, and from a ProbabilityVector.
        probs = np.array([0.0, 0.1, 0.0, 0.3, 0.2, 0.0, 0.4, 0.0])
        expected = [6, 3, 3, 6, 6, 3, 1, 3, 3, 3, 4, 6, 3, 4, 1, 4]
        for weights in (probs, SimpleNamespace(probs=probs)):
            idx = draw_with_replacement(weights, 16, np.random.default_rng(2024))
            assert idx.tolist() == expected
        pv = ProbabilityVector(np.array([0.05, 0.1, 0.15, 0.3, 0.2, 0.2]), Criterion.UNIFORM)
        idx = draw_with_replacement(pv, 16, np.random.default_rng(2024))
        assert idx.tolist() == [4, 2, 3, 4, 5, 1, 1, 2, 3, 2, 3, 4, 1, 3, 0, 3]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40).filter(
            lambda w: sum(w) > 1e-6
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_support_and_determinism(self, weights, seed):
        weights = np.array(weights)
        idx1 = draw_with_replacement(weights, 200, np.random.default_rng(seed))
        idx2 = draw_with_replacement(weights, 200, np.random.default_rng(seed))
        np.testing.assert_array_equal(idx1, idx2)
        assert np.all(weights[idx1] > 0)


class TestInitialProbabilities:
    def test_logistic_balanced(self, logistic):
        pv = initial_probabilities(logistic, np.array([0, 0, 1, 1]))
        np.testing.assert_allclose(pv.probs, [0.25] * 4)
        assert pv.criterion is Criterion.PROPORTIONAL

    def test_logistic_unbalanced(self, logistic):
        pv = initial_probabilities(logistic, np.array([0, 0, 0, 1]))
        np.testing.assert_allclose(pv.probs, [1 / 6, 1 / 6, 1 / 6, 1 / 2])

    def test_logistic_degenerate(self, logistic):
        with pytest.raises(DegenerateResponseError):
            initial_probabilities(logistic, np.zeros(5))

    def test_empty_response_is_refused(self, logistic, poisson):
        for family in (logistic, poisson):
            with pytest.raises(ValidationError, match="at least one response"):
                initial_probabilities(family, np.array([]))

    def test_poisson_uniform(self, poisson):
        pv = initial_probabilities(poisson, np.array([0, 1, 2, 3, 4]))
        np.testing.assert_allclose(pv.probs, [0.2] * 5)
        assert pv.criterion is Criterion.UNIFORM


class TestFlooredResiduals:
    """``probabilities._floor`` floors every residual the kernel scores."""

    def test_floor_engages_on_exact_fit(self, poisson):
        # y equals the conditional mean exactly, so the floor applies.
        res = probabilities._floor(np.ones(3), poisson.mean(np.zeros(3)), 1e-6)
        np.testing.assert_array_equal(res, [1e-6] * 3)

    def test_logistic_half(self, logistic):
        res = probabilities._floor(np.array([1.0]), logistic.mean(np.zeros(1)), DEFAULT_EPS)
        np.testing.assert_allclose(res, [0.5])

    def test_poisson_two(self, poisson):
        res = probabilities._floor(np.array([3.0]), poisson.mean(np.zeros(1)), DEFAULT_EPS)
        np.testing.assert_allclose(res, [2.0])

    def test_eps_positive(self, poisson):
        with pytest.raises(ValidationError):
            probabilities._floor(np.ones(1), poisson.mean(np.zeros(1)), 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_non_finite_eps_is_refused_by_name(self, logistic, criterion, eps):
        x, y = make_logistic_data(20, [0.2, -0.4], np.random.default_rng(5))
        with pytest.raises(ValidationError, match="^eps must be positive and finite, got"):
            phi_single(criterion, logistic, np.zeros(2), x, y, eps=eps)


class TestPhiSingle:
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_response_length_must_match_rows(self, logistic, criterion):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        for y in (np.ones(3), np.ones(7)):
            with pytest.raises(ValidationError, match=f"^{len(y)} responses for 5 design rows$"):
                phi_single(criterion, logistic, np.zeros(2), x, y)
        models = enumerate_quadratic_models(1, ())
        with pytest.raises(ValidationError, match="^3 responses for 5 design rows$"):
            phi_model_robust(criterion, logistic, models, [np.zeros(2)], x[:, 1:], np.ones(3))

    def test_zero_rows_are_refused(self, logistic):
        # mMSE: test_fitting.TestFullInformation::test_zero_rows_are_rejected.
        with pytest.raises(ValidationError, match="at least one row"):
            phi_single("mVc", logistic, np.zeros(2), np.ones((0, 2)), np.ones(0))

    def test_uniform_when_scores_equal(self, logistic):
        # Equal residuals and equal row norms: proportionality gives 1/N.
        design = np.ones((8, 1))
        y = np.ones(8)
        pv = phi_single(Criterion.MVC, logistic, np.zeros(1), design, y)
        np.testing.assert_allclose(pv.probs, np.full(8, 0.125), rtol=1e-15)

    def test_two_row_arithmetic(self, poisson):
        # res * ||x|| = (1, 3)  ->  probabilities (0.25, 0.75).
        design = np.ones((2, 1))
        y = np.array([2.0, 4.0])  # residuals |2-1|=1, |4-1|=3 at theta=0
        pv = phi_single("mVc", poisson, np.zeros(1), design, y)
        np.testing.assert_allclose(pv.probs, [0.25, 0.75], rtol=1e-15)

    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_matches_direct_oracle(self, criterion, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        maker = make_logistic_data if kind == "logistic" else make_poisson_data
        x, y = maker(6, [0.3, -0.4], rng)
        theta = rng.normal(0, 0.3, size=2)
        pv = phi_single(criterion, family, theta, x, y)
        np.testing.assert_allclose(
            pv.probs, phi_oracle(criterion, kind, theta, x, y), atol=1e-12
        )

    def test_singular_information(self, logistic, rng):
        col = rng.normal(size=10)
        design = np.column_stack([col, col])
        y = rng.binomial(1, 0.5, size=10).astype(float)
        with pytest.raises(SingularInformationError):
            phi_single(Criterion.MMSE, logistic, np.zeros(2), design, y)

    def test_rejects_non_optimality_criterion(self, logistic):
        with pytest.raises(ValidationError):
            phi_single(Criterion.UNIFORM, logistic, np.zeros(1), np.ones((2, 1)), np.array([0.0, 1.0]))

    def test_rejects_unknown_criterion_name(self, logistic):
        # Names are case-sensitive here; only the YAML parser folds case.
        with pytest.raises(ValidationError, match=r"\(mMSE or mVc\), got 'mvc'"):
            phi_single("mvc", logistic, np.zeros(1), np.ones((2, 1)), np.array([0.0, 1.0]))

    def test_monotone_residual_influence(self, poisson):
        # Raising one row's response (hence its floored residual) strictly
        # raises that row's mVc probability.
        design = np.column_stack([np.ones(5), np.linspace(-1, 1, 5)])
        y = np.array([1.0, 2.0, 1.0, 0.0, 2.0])
        theta = np.array([0.1, 0.2])
        before = phi_single("mVc", poisson, theta, design, y).probs
        y2 = y.copy()
        y2[3] += 5.0
        after = phi_single("mVc", poisson, theta, design, y2).probs
        assert after[3] > before[3]

    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_permutation_equivariance(self, criterion, logistic, rng):
        x, y = make_logistic_data(30, [0.2, -0.3, 0.4], rng)
        theta = np.array([0.1, -0.2, 0.3])
        perm = rng.permutation(30)
        base = phi_single(criterion, logistic, theta, x, y).probs
        permuted = phi_single(criterion, logistic, theta, x[perm], y[perm]).probs
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)

    def test_swapping_identical_rows_is_noop(self, poisson):
        design = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, -1.0]])
        y = np.array([3.0, 3.0, 1.0])
        pv = phi_single("mVc", poisson, np.array([0.1, 0.1]), design, y)
        assert pv.probs[0] == pv.probs[1]


class TestPhiModelRobust:
    def test_single_model_reduction_is_bitwise(self, logistic, rng):
        x0 = rng.normal(size=(20, 2))
        y = rng.binomial(1, 0.5, size=20).astype(float)
        models = enumerate_quadratic_models(2, ())
        theta = rng.normal(0, 0.3, size=3)
        robust = phi_model_robust("mMSE", logistic, models, [theta], x0, y)
        single = phi_single(
            "mMSE", logistic, theta, build_design(models.specs[0], x0), y
        )
        assert np.array_equal(robust.probs, single.probs)
        assert robust.criterion is Criterion.MODEL_ROBUST_MMSE

    def test_two_identical_models(self, poisson, rng):
        from glmsub import ModelSet, ModelSpec

        spec = ModelSpec(main_effects=(0, 1))
        models = ModelSet(specs=(spec, spec), alpha=np.array([0.5, 0.5]))
        x0 = rng.normal(0, 0.4, size=(15, 2))
        y = rng.poisson(1.0, size=15).astype(float)
        theta = rng.normal(0, 0.2, size=3)
        robust = phi_model_robust("mVc", poisson, models, [theta, theta], x0, y)
        single = phi_single("mVc", poisson, theta, build_design(spec, x0), y)
        np.testing.assert_array_equal(robust.probs, single.probs)

    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_matches_composed_oracle(self, kind, logistic, poisson, rng):
        from glmsub import ModelSet, ModelSpec

        family = logistic if kind == "logistic" else poisson
        # The second set's models differ in main effects and list terms
        # out of order, so their columns of the union design are permuted.
        mixed = (ModelSpec((2, 0), (2,)), ModelSpec((1,)), ModelSpec((0, 1, 2), (0, 1)))
        for specs, alpha, width in (
            (enumerate_quadratic_models(2, (0,)).specs, [0.3, 0.7], 2),
            (mixed, [0.2, 0.3, 0.5], 3),
        ):
            models = ModelSet(specs=specs, alpha=np.array(alpha))
            x0 = rng.normal(0, 0.5, size=(12, width))
            y = (
                rng.binomial(1, 0.5, size=12).astype(float)
                if kind == "logistic"
                else rng.poisson(1.5, size=12).astype(float)
            )
            thetas = [rng.normal(0, 0.3, size=spec.n_params) for spec in models.specs]
            designs = [build_design(spec, x0) for spec in models.specs]
            for criterion in ("mMSE", "mVc"):
                robust = phi_model_robust(criterion, family, models, thetas, x0, y)
                expected = phi_model_robust_oracle(criterion, kind, thetas, designs, y, alpha)
                np.testing.assert_allclose(robust.probs, expected, atol=1e-12)

    def test_convex_combination_bounds(self, logistic, rng):
        models = enumerate_quadratic_models(2, (0, 1))
        x0 = rng.normal(size=(25, 2))
        y = rng.binomial(1, 0.5, size=25).astype(float)
        thetas = [rng.normal(0, 0.2, size=spec.n_params) for spec in models.specs]
        singles = np.array(
            [
                phi_single("mVc", logistic, t, build_design(spec, x0), y).probs
                for t, spec in zip(thetas, models.specs)
            ]
        )
        robust = phi_model_robust("mVc", logistic, models, thetas, x0, y).probs
        assert np.all(robust >= singles.min(axis=0) - 1e-15)
        assert np.all(robust <= singles.max(axis=0) + 1e-15)

    def test_pilot_count_mismatch(self, logistic, rng):
        models = enumerate_quadratic_models(2, (0,))
        with pytest.raises(ValidationError):
            phi_model_robust(
                "mMSE", logistic, models, [np.zeros(3)], np.ones((4, 2)), np.array([0, 1, 0, 1])
            )

    @pytest.mark.parametrize(
        "q, split_rows",
        [pytest.param(3, 300, id="3"), pytest.param(4, 300, id="4"), pytest.param(3, 301, id="3-below")],
    )
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_two_workers_give_the_same_bits(
        self, monkeypatch, forks, logistic, q, split_rows, criterion
    ):
        # From _SPLIT_ROWS rows on two CPUs the caller scores models 0, 2, ...
        # and one worker models 1, 3, ...; Q = 3 gives the caller two models.
        # Below it the caller scores every model itself, on two CPUs too.
        from glmsub import ModelSet

        rng = np.random.default_rng(17)
        x0 = rng.normal(size=(300, 2))
        y = rng.binomial(1, 0.4, size=300).astype(float)
        specs = enumerate_quadratic_models(2, (0, 1)).specs[:q]
        models = ModelSet(specs=specs, alpha=rng.dirichlet(np.ones(q)))
        thetas = [rng.normal(0, 0.3, size=spec.n_params) for spec in specs]
        monkeypatch.setattr(glmsub._workers, "_SPLIT_ROWS", split_rows)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: cpus)
            runs.append(phi_model_robust(criterion, logistic, models, thetas, x0, y).probs)
        assert len(forks) == (1 if split_rows <= 300 else 0)
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_two_workers_raise_the_first_model_error(self, monkeypatch, forks, logistic):
        # Both models fail; the caller raises model 0's error, scored in its
        # own share while one worker scores model 1 and, below _SPLIT_ROWS,
        # scored alone.
        models = enumerate_quadratic_models(2, (0,))
        x0 = np.random.default_rng(3).normal(size=(40, 2))
        y = np.tile([0.0, 1.0], 20)
        monkeypatch.setattr(glmsub._workers, "_cpu_budget", lambda: 2)
        for split_rows, n_forks in ((40, 1), (41, 1)):
            monkeypatch.setattr(glmsub._workers, "_SPLIT_ROWS", split_rows)
            with pytest.raises(ValidationError, match="theta has length 1"):
                phi_model_robust("mVc", logistic, models, [np.zeros(1), np.zeros(2)], x0, y)
            assert len(forks) == n_forks


SMALL_BLOCK = 16


class TestBlockedKernel:
    """The scoring passes walk the rows in blocks of ``fitting._BLOCK_ROWS``;
    a small block makes every edge (a partial, exactly one, one-past and
    several blocks) cheap to reach."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(glmsub.fitting, "_BLOCK_ROWS", SMALL_BLOCK)
        # Should the walker stop reading the patched constant, the blocked
        # tests would quietly run one block each.
        assert len(list(_row_blocks(np.ones((SMALL_BLOCK + 1, 1))))) == 2

    @pytest.mark.parametrize("n", [1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 3])
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_single_matches_oracle(self, small_blocks, n, criterion, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        maker = make_logistic_data if kind == "logistic" else make_poisson_data
        x, y = maker(n, [0.3, -0.4], rng)
        if n == 1:
            x = x[:, 1:]  # one row informs one parameter
        theta = rng.normal(0, 0.3, size=x.shape[1])
        scores = probabilities._scores(
            Criterion(criterion), family, theta, x, y.astype(float), 1e-6, np.empty(n)
        )
        np.testing.assert_allclose(
            scores, phi_oracle(criterion, kind, theta, x, y), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 3])
    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    @pytest.mark.parametrize("kind", ["logistic", "poisson"])
    def test_robust_matches_oracle(self, small_blocks, n, criterion, kind, logistic, poisson, rng):
        family = logistic if kind == "logistic" else poisson
        models = enumerate_quadratic_models(2, (0, 1))
        x0 = rng.normal(0, 0.5, size=(n, 2))
        y = (
            rng.binomial(1, 0.5, size=n) if kind == "logistic" else rng.poisson(1.5, size=n)
        ).astype(float)
        thetas = [rng.normal(0, 0.3, size=spec.n_params) for spec in models.specs]
        designs = [build_design(spec, x0) for spec in models.specs]
        robust = phi_model_robust(criterion, family, models, thetas, x0, y)
        expected = phi_model_robust_oracle(criterion, kind, thetas, designs, y, models.alpha)
        np.testing.assert_allclose(robust.probs, expected, rtol=0, atol=1e-12)

    def test_default_block_size_matches_oracle(self, logistic, rng):
        n = 2 * glmsub.fitting._BLOCK_ROWS + 3
        x, y = make_logistic_data(n, [0.3, -0.4], rng)
        theta = np.array([0.2, -0.3])
        pv = phi_single("mMSE", logistic, theta, x, y)
        np.testing.assert_allclose(
            pv.probs, phi_oracle("mMSE", "logistic", theta, x, y), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("criterion", ["mMSE", "mVc"])
    def test_reductions_stay_bitwise_over_blocks(self, small_blocks, criterion, logistic, rng):
        x0 = rng.normal(size=(3 * SMALL_BLOCK + 5, 2))
        y = rng.binomial(1, 0.5, size=x0.shape[0]).astype(float)
        models = enumerate_quadratic_models(2, ())
        theta = rng.normal(0, 0.3, size=3)
        design = build_design(models.specs[0], x0)
        single = phi_single(criterion, logistic, theta, design, y)
        robust = phi_model_robust(criterion, logistic, models, [theta], x0, y)
        lazy = phi_single(criterion, logistic, theta, LazyDesign(models.specs[0], x0), y)
        assert np.array_equal(robust.probs, single.probs)
        assert np.array_equal(lazy.probs, single.probs)

    def test_overflow_names_row_of_the_data(self, small_blocks, poisson):
        design = np.ones((2 * SMALL_BLOCK + 3, 1))
        design[SMALL_BLOCK + 2, 0] = 800.0
        y = np.ones(design.shape[0])
        with pytest.raises(NumericOverflowError, match=r"at row 18 \(eta=800\.0\)$") as excinfo:
            phi_single("mVc", poisson, np.ones(1), design, y)
        assert excinfo.value.index == SMALL_BLOCK + 2

    def test_theta_length_checked(self, logistic):
        with pytest.raises(ValidationError, match="theta has length 1"):
            phi_single("mMSE", logistic, np.zeros(1), np.ones((4, 2)), np.array([0, 1, 0, 1]))

    def test_peak_memory_stays_below_eight_vectors(self, logistic):
        # No N x d design, and no N x d product of one, is ever formed: at
        # N = 200k and Q = 8 the union design alone would be 7 vectors.
        n = 200_000
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=(n, 3))
        y = rng.binomial(1, 0.4, size=n).astype(float)
        models = enumerate_quadratic_models(3, (0, 1, 2))
        thetas = [rng.normal(0, 0.2, size=spec.n_params) for spec in models.specs]
        tracemalloc.start()
        try:
            phi_model_robust("mMSE", logistic, models, thetas, x0, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["mMSE", "mVc"]))
def test_phi_always_a_distribution(seed, criterion):
    # Output sums to one with strictly positive entries on generic data.
    rng = np.random.default_rng(seed)
    from glmsub import Poisson

    n = int(rng.integers(5, 40))
    x = np.column_stack([np.ones(n), rng.normal(0, 0.6, size=n)])
    y = rng.poisson(1.0, size=n).astype(float)
    theta = rng.normal(0, 0.3, size=2)
    pv = phi_single(criterion, Poisson(), theta, x, y)
    assert abs(pv.probs.sum() - 1.0) < 1e-10
    assert np.all(pv.probs > 0)
