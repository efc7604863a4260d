"""Unit tests for the delay models."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.delays import (
    ConstantDelay,
    ExponentialDelay,
    LogNormalDelay,
    ParetoDelay,
    PerChannelDelay,
    UniformDelay,
)

MODELS = [
    ConstantDelay(1.0),
    UniformDelay(0.5, 1.5),
    ExponentialDelay(1.0),
    LogNormalDelay(1.0, 0.5),
    ParetoDelay(0.5, 1.5),
]


class TestAllModels:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_non_negative(self, model):
        rng = random.Random(1)
        assert all(model.sample(rng, 0, 1) >= 0 for _ in range(500))

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_deterministic_per_seed(self, model):
        a = [model.sample(random.Random(7), 0, 1) for _ in range(5)]
        b = [model.sample(random.Random(7), 0, 1) for _ in range(5)]
        assert a == b


class TestSpecifics:
    def test_constant_is_constant(self):
        rng = random.Random(0)
        assert {ConstantDelay(2.5).sample(rng, 0, 1) for _ in range(10)} == {2.5}

    def test_uniform_within_bounds(self):
        rng = random.Random(0)
        model = UniformDelay(1.0, 2.0)
        samples = [model.sample(rng, 0, 1) for _ in range(200)]
        assert all(1.0 <= s <= 2.0 for s in samples)

    def test_pareto_has_minimum_scale(self):
        rng = random.Random(0)
        model = ParetoDelay(scale=0.5, alpha=2.0)
        assert all(model.sample(rng, 0, 1) >= 0.5 for _ in range(200))

    def test_pareto_heavy_tail(self):
        rng = random.Random(0)
        model = ParetoDelay(scale=0.5, alpha=1.2)
        samples = [model.sample(rng, 0, 1) for _ in range(3000)]
        assert max(samples) > 10 * sorted(samples)[len(samples) // 2]

    def test_lognormal_median_roughly_right(self):
        rng = random.Random(0)
        model = LogNormalDelay(median=2.0, sigma=0.4)
        samples = sorted(model.sample(rng, 0, 1) for _ in range(2000))
        median = samples[len(samples) // 2]
        assert 1.6 < median < 2.4

    def test_per_channel_slowdown(self):
        rng = random.Random(0)
        model = PerChannelDelay(
            ConstantDelay(1.0), slow_channels=(((0, 1), 10.0),)
        )
        assert model.sample(rng, 0, 1) == 10.0
        assert model.sample(rng, 1, 0) == 1.0


class TestEdgeCases:
    def test_constant_zero_delay(self):
        rng = random.Random(0)
        assert ConstantDelay(0.0).sample(rng, 0, 1) == 0.0

    def test_uniform_degenerate_interval(self):
        rng = random.Random(0)
        model = UniformDelay(1.25, 1.25)
        assert {model.sample(rng, 0, 1) for _ in range(20)} == {1.25}

    def test_base_model_is_abstract(self):
        import pytest

        from repro.sim.delays import DelayModel

        with pytest.raises(NotImplementedError):
            DelayModel().sample(random.Random(0), 0, 1)

    def test_per_channel_directionality(self):
        """Only the exact (src, dst) direction is slowed."""
        rng = random.Random(0)
        model = PerChannelDelay(
            ConstantDelay(2.0), slow_channels=(((3, 4), 5.0),)
        )
        assert model.sample(rng, 3, 4) == 10.0
        assert model.sample(rng, 4, 3) == 2.0
        assert model.sample(rng, 3, 3) == 2.0

    def test_per_channel_first_occurrence_wins(self):
        """Duplicate channel entries keep the historical linear-scan
        semantics: the first listed factor applies."""
        rng = random.Random(0)
        model = PerChannelDelay(
            ConstantDelay(1.0),
            slow_channels=(((0, 1), 3.0), ((0, 1), 7.0)),
        )
        assert model.sample(rng, 0, 1) == 3.0

    def test_per_channel_empty_mapping_passthrough(self):
        rng = random.Random(0)
        model = PerChannelDelay(ConstantDelay(1.5))
        assert model.sample(rng, 0, 1) == 1.5

    def test_per_channel_consumes_base_rng_stream(self):
        """The wrapper must sample the base exactly once per call, so a
        wrapped and an unwrapped model stay in RNG lockstep — that is
        what lets experiments swap PerChannelDelay in without changing
        unaffected channels' draws."""
        wrapped = PerChannelDelay(
            UniformDelay(0.5, 1.5), slow_channels=(((9, 9), 4.0),)
        )
        plain = UniformDelay(0.5, 1.5)
        a, b = random.Random(3), random.Random(3)
        for _ in range(10):
            assert wrapped.sample(a, 0, 1) == plain.sample(b, 0, 1)

    def test_exponential_mean_roughly_right(self):
        rng = random.Random(0)
        model = ExponentialDelay(2.0)
        samples = [model.sample(rng, 0, 1) for _ in range(4000)]
        assert 1.8 < sum(samples) / len(samples) < 2.2

    def test_models_ignore_channel_identity(self):
        """Sampling is a function of the rng stream alone; src/dst do not
        perturb the draw (adversarial asymmetry belongs to
        PerChannelDelay or the Adversary, not the base models)."""
        for model in MODELS:
            assert model.sample(random.Random(5), 0, 1) == model.sample(
                random.Random(5), 7, 3
            )


class TestParameterValidation:
    """Parameters ``sample`` could not draw from are refused when the
    model is built, as a one-line SimulationError naming the field — not
    as a ZeroDivisionError/ValueError from inside a run's first send."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ConstantDelay(-0.1), "ConstantDelay.delay"),
            (lambda: UniformDelay(-0.5, 1.0), "UniformDelay.low"),
            (lambda: UniformDelay(1.0, 0.5), "UniformDelay.high"),
            (lambda: ExponentialDelay(0), "ExponentialDelay.mean"),
            (lambda: ExponentialDelay(-1.0), "ExponentialDelay.mean"),
            (lambda: LogNormalDelay(0, 0.5), "LogNormalDelay.median"),
            (lambda: LogNormalDelay(1.0, -0.1), "LogNormalDelay.sigma"),
            (lambda: ParetoDelay(-0.5, 1.5), "ParetoDelay.scale"),
            (lambda: ParetoDelay(0.5, 0), "ParetoDelay.alpha"),
            (lambda: ExponentialDelay(float("nan")), "ExponentialDelay.mean"),
            (
                lambda: PerChannelDelay(
                    ConstantDelay(1.0), (((0, 1), 2.0), ((1, 0), -3.0))
                ),
                "PerChannelDelay.slow_channels",
            ),
        ],
    )
    def test_bad_parameter_names_its_field(self, build, field):
        with pytest.raises(SimulationError) as excinfo:
            build()
        message = str(excinfo.value)
        assert message.startswith(f"{field} must be ")
        assert "\n" not in message

    def test_boundary_values_are_accepted(self):
        rng = random.Random(0)
        for model in (
            ConstantDelay(0.0),
            UniformDelay(0.0, 0.0),
            LogNormalDelay(1.0, 0.0),
            ParetoDelay(0.0, 1.5),
            PerChannelDelay(ConstantDelay(1.0), (((0, 1), 0.0),)),
        ):
            assert model.sample(rng, 0, 1) >= 0

    def test_negative_factor_fails_while_building_the_world(self):
        """Used to surface mid-run, as 'delay model produced negative
        delay' from whichever send hit the slow channel first."""
        from repro.protocols import SfsProcess
        from repro.sim import build_world

        with pytest.raises(SimulationError, match="slow_channels"):
            build_world(
                3,
                lambda: SfsProcess(t=1),
                PerChannelDelay(UniformDelay(), (((0, 1), -2.0),)),
                seed=0,
            )
