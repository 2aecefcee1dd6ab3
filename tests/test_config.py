import numpy as np
import pytest

from glmsub import (
    ConfigError,
    CovariateColumn,
    Criterion,
    Logistic,
    ModelSet,
    Poisson,
    RealDataConfig,
    Scaling,
    ScenarioConfig,
    UniformCovariates,
    ValidationError,
    enumerate_quadratic_models,
    parse_config,
)

SIMULATE_YAML = """
mode: simulate
family: logistic
seed: 20260810
r0: 100
r_grid: [100, 200]
population: 10000
replicates: 50
covariates:
  distribution: normal
  dimension: 2
  mean: [0.0, 0.0]
  covariance: [[1.5, 0.0], [0.0, 1.5]]
model_set:
  quadratic_over: [1, 2]
data_generating:
  quadratic_terms: []
  theta: [-1.0, 0.5, 0.1]
"""

REAL_YAML = """
mode: subsample
family: logistic
r0: 200
r: 500
dataset:
  path: skin.csv
  response: is_skin
  covariates: [red, green, blue]
  scaling:
    red: standardize
    green: standardize
    blue: standardize
"""


WITH_ALPHA = "quadratic_over: [1, 2]\n  alpha: "
NORMAL = SIMULATE_YAML[SIMULATE_YAML.index("distribution") : SIMULATE_YAML.index("\nmodel_set")]


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSimulateConfig:
    def test_table_style_config(self, tmp_path):
        config = parse_config(write(tmp_path, SIMULATE_YAML))
        assert isinstance(config, ScenarioConfig)
        assert isinstance(config.family, Logistic)
        np.testing.assert_array_equal(config.true_theta, [-1.0, 0.5, 0.1])
        assert len(config.model_set) == 4
        assert config.dg_index == 0
        assert config.criterion is Criterion.MMSE  # default
        assert config.eps == 1e-6  # default
        assert config.master_seed == 20260810
        assert config.r_grid == (100, 200)

    def test_eps_default_and_override(self, tmp_path):
        config = parse_config(write(tmp_path, SIMULATE_YAML))
        assert config.eps == 1e-6
        config = parse_config(write(tmp_path, SIMULATE_YAML + "\neps: 1.0e-4\n"))
        assert config.eps == 1e-4

    def test_criterion_override(self, tmp_path):
        config = parse_config(write(tmp_path, SIMULATE_YAML + "\ncriterion: mVc\n"))
        assert config.criterion is Criterion.MVC

    def test_descending_grid_rejected(self, tmp_path):
        bad = SIMULATE_YAML.replace("[100, 200]", "[200, 100]")
        with pytest.raises(ConfigError, match="r_grid"):
            parse_config(write(tmp_path, bad))

    def test_sizes_checked_against_largest_model(self, tmp_path):
        # Four candidates, the largest with 5 parameters: r0 >= 6.
        for old, new, key in (
            ("r0: 100", "r0: 5", "r0"),
            ("[100, 200]", "[99, 200]", "r_grid"),
        ):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(write(tmp_path, SIMULATE_YAML.replace(old, new)))
            assert excinfo.value.key == key
        edge = SIMULATE_YAML.replace("r0: 100", "r0: 6").replace("[100, 200]", "[6, 200]")
        assert parse_config(write(tmp_path, edge)).r0 == 6

    def test_unknown_key_rejected_with_path(self, tmp_path):
        with pytest.raises(ConfigError, match="replicatess"):
            parse_config(write(tmp_path, SIMULATE_YAML + "\nreplicatess: 3\n"))

    def test_unknown_nested_key(self, tmp_path):
        bad = SIMULATE_YAML.replace("distribution: normal", "distribution: normal\n  rte: 2.0")
        with pytest.raises(ConfigError, match="covariates.rte"):
            parse_config(write(tmp_path, bad))

    def test_type_mismatch(self, tmp_path):
        bad = SIMULATE_YAML.replace("population: 10000", "population: many")
        with pytest.raises(ConfigError, match="population"):
            parse_config(write(tmp_path, bad))

    def test_theta_length_mismatch(self, tmp_path):
        bad = SIMULATE_YAML.replace("theta: [-1.0, 0.5, 0.1]", "theta: [-1.0, 0.5]")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))

    def test_quadratic_terms_outside_set(self, tmp_path):
        bad = SIMULATE_YAML.replace("quadratic_over: [1, 2]", "quadratic_over: [1]")
        bad = bad.replace("quadratic_terms: []", "quadratic_terms: [2]")
        with pytest.raises(ConfigError, match="quadratic_terms"):
            parse_config(write(tmp_path, bad))

    def test_exponential_distribution(self, tmp_path):
        text = SIMULATE_YAML.replace(
            """covariates:
  distribution: normal
  dimension: 2
  mean: [0.0, 0.0]
  covariance: [[1.5, 0.0], [0.0, 1.5]]""",
            """covariates:
  distribution: exponential
  dimension: 2
  rate: 1.7320508
""",
        ).replace("theta: [-1.0, 0.5, 0.1]", "theta: [-2.0, 1.5, 0.3]")
        config = parse_config(write(tmp_path, text))
        assert config.covariates.rate == pytest.approx(1.7320508)

    def test_uniform_distribution(self, tmp_path):
        text = SIMULATE_YAML.replace(NORMAL, "distribution: uniform\n  dimension: 2")
        assert parse_config(write(tmp_path, text)).covariates == UniformCovariates(dimension=2)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, text.replace("dimension: 2", "dimension: 2\n  rate: 1.0")))
        assert excinfo.value.key == "covariates.rate"

    def test_alpha_override(self, tmp_path):
        text = SIMULATE_YAML.replace(
            "quadratic_over: [1, 2]",
            "quadratic_over: [1, 2]\n  alpha: [0.4, 0.2, 0.2, 0.2]",
        )
        config = parse_config(write(tmp_path, text))
        np.testing.assert_allclose(config.model_set.alpha, [0.4, 0.2, 0.2, 0.2])

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("covariance: [[1.5,", "covariance: [[abc,", "covariates.covariance[0][0]"),
            ("covariance: [[1.5,", "covariance: [[true,", "covariates.covariance[0][0]"),
            ("[0.0, 1.5]]", "[0.0, .inf]]", "covariates.covariance[1][1]"),
            ("mean: [0.0, 0.0]", "mean: [0.0, .nan]", "covariates.mean[1]"),
            (NORMAL, "distribution: exponential\n  dimension: 2\n  rate: .inf", "covariates.rate"),
            ("theta: [-1.0, 0.5, 0.1]", "theta: [-1.0, false, 0.1]", "data_generating.theta[1]"),
            ("seed: 20260810", "seed: 20260810\neps: .nan", "eps"),
            ("seed: 20260810", "seed: 20260810\neps: -.inf", "eps"),
            ("seed: 20260810", "seed: 20260810\neps: true", "eps"),
            ("seed: 20260810", "seed: 20260810\neps: small", "eps"),
            ("quadratic_over: [1, 2]", WITH_ALPHA + "[.nan, .nan, .nan, .nan]", "model_set.alpha[0]"),
            ("quadratic_over: [1, 2]", WITH_ALPHA + "[0.5, 0.5, 0.5, 0.5]", "model_set.alpha"),
            ("quadratic_over: [1, 2]", WITH_ALPHA + "[1.2, -0.2, 0.0, 0.0]", "model_set.alpha"),
        ],
        ids=[
            "covariance-string", "covariance-bool", "covariance-inf", "mean-nan", "rate-inf",
            "theta-bool", "eps-nan", "eps-minus-inf", "eps-bool", "eps-string",
            "alpha-nan", "alpha-sum", "alpha-range",
        ],
    )
    def test_bad_numbers_name_their_key(self, tmp_path, old, new, key):
        # Non-numeric, boolean and non-finite numbers, and alpha outside the
        # simplex, are config errors on the key at fault.
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, SIMULATE_YAML.replace(old, new)))
        assert excinfo.value.key == key

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("population: 10000", "population: -5", "population"),
            ("population: 10000", "population: 5", "population"),
            ("replicates: 50", "replicates: -3", "replicates"),
            ("replicates: 50", "replicates: 0", "replicates"),
            ("dimension: 2", "dimension: 0", "covariates.dimension"),
            (NORMAL, "distribution: exponential\n  dimension: 2\n  rate: 0.0", "covariates.rate"),
            (NORMAL, "distribution: exponential\n  dimension: 2\n  rate: -1.0", "covariates.rate"),
            ("[[1.5, 0.0], [0.0, 1.5]]", "[[1.0, 2.0], [2.0, 1.0]]", "covariates.covariance"),
            ("[[1.5, 0.0], [0.0, 1.5]]", "[[1.0, 0.5], [0.0, 1.0]]", "covariates.covariance"),
            ("seed: 20260810", "seed: 20260810\neps: 0", "eps"),
            ("seed: 20260810", "seed: -1", "seed"),
            ("[100, 200]", "[]", "r_grid"),
            (NORMAL, "distribution: exponential\n  dimension: 0\n  rate: 1.0", "covariates.dimension"),
            (NORMAL, "distribution: uniform\n  dimension: 0", "covariates.dimension"),
            ("seed: 20260810", "seed: 20260810\ncriterion: best", "criterion"),
            ("distribution: normal", "distribution: gamma", "covariates.distribution"),
            ("mean: [0.0, 0.0]", "mean: [0.0]", "covariates.mean"),
            ("[0.0, 1.5]]", "[0.0]]", "covariates.covariance[1]"),
            ("[[1.5, 0.0], [0.0, 1.5]]", "[[1.5, 0.0]]", "covariates.covariance"),
            ("quadratic_over: [1, 2]", "quadratic_over: [1, 3]", "model_set.quadratic_over"),
            ("quadratic_over: [1, 2]", WITH_ALPHA + "[0.5, 0.5]", "model_set.alpha"),
            ("covariates:\n  " + NORMAL + "\n", "", "covariates"),
        ],
        ids=[
            "population-negative", "population-below-model-size", "replicates-negative",
            "replicates-zero", "dimension-zero", "rate-zero", "rate-negative",
            "covariance-not-positive-definite", "covariance-not-symmetric", "eps-zero",
            "seed-negative", "r-grid-empty", "exponential-dimension-zero",
            "uniform-dimension-zero", "criterion-unknown", "distribution-unknown",
            "mean-length", "covariance-row-length", "covariance-length",
            "position-out-of-range", "alpha-length", "section-missing",
        ],
    )
    def test_out_of_range_values_name_their_key(self, tmp_path, old, new, key):
        # Values of the right type but outside their range or set, lists of
        # the wrong length and missing sections fail at parse time, not once
        # the study runs.
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, SIMULATE_YAML.replace(old, new)))
        assert excinfo.value.key == key

    @pytest.mark.parametrize(
        "alpha",
        [[0.5, 0.5], [0.5, 0.5, 0.5, 0.5], [1.2, -0.2, 0.0, 0.0]],
        ids=["length", "sum", "range"],
    )
    def test_alpha_message_is_the_model_sets(self, tmp_path, alpha):
        # ModelSet owns the alpha rule; the parser puts the key before its message.
        with pytest.raises(ValidationError) as expected:
            ModelSet(enumerate_quadratic_models(2, (0, 1)).specs, alpha)
        text = SIMULATE_YAML.replace("quadratic_over: [1, 2]", WITH_ALPHA + str(alpha))
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, text))
        assert str(excinfo.value) == f"model_set.alpha: {expected.value}"

    def test_smallest_population_accepted(self, tmp_path):
        # The largest of the four candidates has 5 parameters.
        text = SIMULATE_YAML.replace("population: 10000", "population: 6")
        assert parse_config(write(tmp_path, text)).n_population == 6

    def test_too_many_quadratic_terms(self, tmp_path):
        text = (
            SIMULATE_YAML.replace("dimension: 2", "dimension: 11")
            .replace("mean: [0.0, 0.0]", f"mean: {[0.0] * 11}")
            .replace("covariance: [[1.5, 0.0], [0.0, 1.5]]", f"covariance: {np.eye(11).tolist()}")
            .replace("theta: [-1.0, 0.5, 0.1]", f"theta: {[0.1] * 12}")
        )
        listed = text.replace("quadratic_over: [1, 2]", f"quadratic_over: {list(range(1, 12))}")
        with pytest.raises(ConfigError, match=r"^model_set\.quadratic_over: .*Q = 2\^11 = 2048"):
            parse_config(write(tmp_path, listed))
        defaulted = text.replace("model_set:\n  quadratic_over: [1, 2]\n", "")
        with pytest.raises(ConfigError, match=r"^covariates\.dimension: .*Q = 2\^11 = 2048"):
            parse_config(write(tmp_path, defaulted))
        ten = listed.replace(f"{list(range(1, 12))}", f"{list(range(1, 11))}")
        assert len(parse_config(write(tmp_path, ten)).model_set) == 1024

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "none.yaml")


class TestRealDataConfig:
    def test_subsample_config(self, tmp_path):
        config = parse_config(write(tmp_path, REAL_YAML))
        assert isinstance(config, RealDataConfig)
        assert config.mode == "subsample"
        assert config.r == 500
        assert len(config.model_set) == 8  # 3 continuous covariates
        assert config.sampling_model is None  # model-robust default
        assert config.dataset.covariates[0].scaling is Scaling.STANDARDIZE

    def test_quadratic_over_names(self, tmp_path):
        text = REAL_YAML + "\nmodel_set:\n  quadratic_over: [red, green]\n"
        config = parse_config(write(tmp_path, text))
        assert len(config.model_set) == 4

    def test_unknown_quadratic_name(self, tmp_path):
        text = REAL_YAML + "\nmodel_set:\n  quadratic_over: [purple]\n"
        with pytest.raises(ConfigError, match="purple"):
            parse_config(write(tmp_path, text))

    def test_sampling_model_index(self, tmp_path):
        config = parse_config(write(tmp_path, REAL_YAML + "\nsampling_model: 2\n"))
        assert config.sampling_model == 1  # zero-based internally

    def test_sampling_model_out_of_range(self, tmp_path):
        with pytest.raises(ConfigError, match="sampling_model"):
            parse_config(write(tmp_path, REAL_YAML + "\nsampling_model: 9\n"))

    def test_subsample_requires_r(self, tmp_path):
        bad = REAL_YAML.replace("r: 500\n", "")
        with pytest.raises(ConfigError, match="r"):
            parse_config(write(tmp_path, bad))

    def test_ssmse_requires_grid_and_replicates(self, tmp_path):
        text = REAL_YAML.replace("mode: subsample", "mode: ssmse").replace("r: 500\n", "")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, text))
        good = text + "\nr_grid: [300, 500]\nreplicates: 10\n"
        config = parse_config(write(tmp_path, good))
        assert config.mode == "ssmse"
        assert config.r_grid == (300, 500)
        assert config.n_replicates == 10
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, good.replace("replicates: 10", "replicates: 0")))
        assert excinfo.value.key == "replicates"

    def test_sizes_checked_against_largest_model(self, tmp_path):
        # Eight candidates, the largest with 7 parameters: r0 >= 8.
        ssmse = REAL_YAML.replace("mode: subsample", "mode: ssmse").replace(
            "r: 500\n", "r_grid: [300, 500]\nreplicates: 10\n"
        )
        probabilities = REAL_YAML.replace("mode: subsample", "mode: probabilities").replace(
            "r: 500\n", ""
        )
        for text, old, new, key in (
            (REAL_YAML, "r0: 200", "r0: 7", "r0"),
            (probabilities, "r0: 200", "r0: 7", "r0"),
            (ssmse, "r0: 200", "r0: 7", "r0"),
            (REAL_YAML, "r: 500", "r: 199", "r"),
            (ssmse, "[300, 500]", "[150, 500]", "r_grid"),
            (ssmse, "[300, 500]", "[500, 300]", "r_grid"),
            (ssmse, "[300, 500]", "[]", "r_grid"),
        ):
            with pytest.raises(ConfigError) as excinfo:
                parse_config(write(tmp_path, text.replace(old, new)))
            assert excinfo.value.key == key
        edge = REAL_YAML.replace("r0: 200", "r0: 8").replace("r: 500", "r: 8")
        assert parse_config(write(tmp_path, edge)).r == 8

    def test_mode_reads_only_its_own_sizes(self, tmp_path):
        base = REAL_YAML.replace("r: 500\n", "")
        sizes = {"r": "r: 500\n", "r_grid": "r_grid: [300, 500]\n", "replicates": "replicates: 10\n"}
        for mode, own in (
            ("probabilities", ()),
            ("subsample", ("r",)),
            ("ssmse", ("r_grid", "replicates")),
        ):
            text = base.replace("mode: subsample", f"mode: {mode}")
            text += "".join(sizes[key] for key in own)
            assert parse_config(write(tmp_path, text)).mode == mode
            for key in sorted(sizes.keys() - set(own)):
                with pytest.raises(ConfigError) as excinfo:
                    parse_config(write(tmp_path, text + sizes[key]))
                assert excinfo.value.key == key
        # ssmse (the last text above) still accepts sampling_model.
        assert parse_config(write(tmp_path, text + "sampling_model: 2\n")).sampling_model == 1

    def test_poisson_family(self, tmp_path):
        text = REAL_YAML.replace("family: logistic", "family: poisson")
        assert isinstance(parse_config(write(tmp_path, text)).family, Poisson)

    def test_quadratic_over_binary_rejected(self, tmp_path):
        text = REAL_YAML + "\ndataset_continuous_patch: 0\n"
        # Mark 'blue' as non-continuous, then ask for its square.
        text = REAL_YAML.replace(
            "covariates: [red, green, blue]",
            "covariates: [red, green, blue]\n  continuous: [red, green]",
        )
        with pytest.raises(ConfigError):
            parse_config(
                write(tmp_path, text + "\nmodel_set:\n  quadratic_over: [blue]\n")
            )

    def test_too_many_quadratic_terms(self, tmp_path):
        names = [f"c{i}" for i in range(11)]
        text = REAL_YAML.replace("covariates: [red, green, blue]", f"covariates: [{', '.join(names)}]")
        text = text.replace("  scaling:\n    red: standardize\n    green: standardize\n    blue: standardize\n", "")
        with pytest.raises(ConfigError, match=r"^dataset\.continuous: .*Q = 2\^11 = 2048"):
            parse_config(write(tmp_path, text))
        listed = text + f"\nmodel_set:\n  quadratic_over: [{', '.join(names)}]\n"
        with pytest.raises(ConfigError, match=r"^model_set\.quadratic_over: .*Q = 2\^11 = 2048"):
            parse_config(write(tmp_path, listed))
        fewer = text + f"\nmodel_set:\n  quadratic_over: [{', '.join(names[:3])}]\n"
        assert len(parse_config(write(tmp_path, fewer)).model_set) == 8

    def test_bad_scaling_rule(self, tmp_path):
        bad = REAL_YAML.replace("red: standardize", "red: normalize")
        with pytest.raises(ConfigError, match="scaling.red"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("name", ["red", "blue"])
    def test_scaling_message_is_the_columns(self, tmp_path, name):
        # CovariateColumn owns the scaling rule; the parser puts the key before its message.
        with pytest.raises(ValidationError) as expected:
            CovariateColumn(name, scaling="normalize")
        bad = REAL_YAML.replace(f"{name}: standardize", f"{name}: normalize")
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, bad))
        assert str(excinfo.value) == f"dataset.scaling.{name}: {expected.value}"

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("blue: standardize", "purple: standardize", "dataset.scaling.purple"),
            ("  scaling:", "  continuous: [red, purple]\n  scaling:", "dataset.continuous"),
            ("r: 500", "r: 500\nsampling_model: 1.5", "sampling_model"),
            ("r: 500", "r: 500\nsampling_model: robust", "sampling_model"),
            ("[red, green, blue]", "[red, green, blue, red]", "dataset.covariates"),
            ("[red, green, blue]", "[red, green, blue, is_skin]", "dataset.covariates"),
            (REAL_YAML[REAL_YAML.index("[red"):], "[]\n", "dataset.covariates"),
            # YAML keys need not be strings: the first unknown key by its text is named.
            ("r: 500", "r: 500\n1: x\nfoo: y", "1"),
            ("dataset:\n", "dataset:\n  2: x\n  foo: y\n", "dataset.2"),
        ],
        ids=["scaling-unknown-name", "continuous-unknown-name", "sampling-model-float",
             "sampling-model-string", "covariates-duplicate", "covariates-response",
             "covariates-empty", "unknown-keys-of-mixed-types",
             "nested-unknown-keys-of-mixed-types"],
    )
    def test_bad_values_name_their_key(self, tmp_path, old, new, key):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write(tmp_path, REAL_YAML.replace(old, new)))
        assert excinfo.value.key == key


def test_mode_required(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(write(tmp_path, "family: logistic\n"))


def test_bad_mode(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(write(tmp_path, "mode: estimate\nfamily: logistic\n"))


def test_root_must_be_a_mapping(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(write(tmp_path, "- mode: simulate\n"))
    assert excinfo.value.key == "<root>"


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        parse_config(write(tmp_path, "mode: [unclosed\n"))


def test_non_utf8_byte_names_the_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_bytes(b"mode: simulate\n# \xff\n")
    message = r"run\.yaml: not UTF-8: byte 0xff \(invalid start byte\)"
    with pytest.raises(ConfigError, match=message) as excinfo:
        parse_config(path)
    assert excinfo.value.key == str(path)
