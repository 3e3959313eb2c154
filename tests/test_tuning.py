import math
import random
import re

import pytest
from scipy import stats

from queuerl.agent import FLOAT_PARAM_FIELDS, INT_PARAM_FIELDS, AgentParams, DdpgAgent
from queuerl.errors import ConfigError
from queuerl.netsim import mm1_topology
from queuerl.tuning import ChoiceSpec, RangeSpec, SearchSpace, random_search, sample_params


def tiny_base(**overrides) -> AgentParams:
    base = dict(
        hidden_sizes=(8, 8),
        batch_size=4,
        num_samples=4,
        planning_steps=0,
        buffer_capacity=64,
        num_episodes=2,
        num_timesteps=3,
        events_per_step=40,
        w1=1.0,
        w2=0.0,
    )
    base.update(overrides)
    return AgentParams(**base)


def test_space_validation():
    with pytest.raises(ConfigError):
        SearchSpace({"not_a_param": ChoiceSpec([1])}).validate()
    with pytest.raises(ConfigError):
        SearchSpace({"learning_rate": RangeSpec(1.0, 0.5)}).validate()
    with pytest.raises(ConfigError):
        SearchSpace({"learning_rate": RangeSpec(0.0, 0.5, scale="log")}).validate()
    with pytest.raises(ConfigError):
        SearchSpace({"learning_rate": RangeSpec(0.1, 0.5, scale="cubic")}).validate()
    with pytest.raises(ConfigError):
        SearchSpace({"tau": ChoiceSpec([])}).validate()
    with pytest.raises(ConfigError):
        SearchSpace({"tau": ChoiceSpec([0.1])}, trials=0).validate()
    SearchSpace({"tau": ChoiceSpec([0.1])}, trials=3).validate()


def test_log_range_samples_are_log_uniform():
    space = SearchSpace({"learning_rate": RangeSpec(1e-5, 1e-1, scale="log")})
    space.validate()
    rng = random.Random(0)
    base = tiny_base()
    values = [
        math.log10(sample_params(space, base, rng).learning_rate) for _ in range(10_000)
    ]
    assert stats.kstest(values, stats.uniform(loc=-5, scale=4).cdf).pvalue > 0.01


def test_linear_range_and_choices_stay_in_domain():
    space = SearchSpace(
        {
            "tau": RangeSpec(0.01, 0.2),
            "batch_size": ChoiceSpec([4, 8, 16]),
            "discount": RangeSpec(0.5, 0.99),
        }
    )
    space.validate()
    rng = random.Random(1)
    base = tiny_base()
    for _ in range(500):
        p = sample_params(space, base, rng)
        assert 0.01 <= p.tau <= 0.2
        assert p.batch_size in (4, 8, 16)
        assert 0.5 <= p.discount <= 0.99
        assert p.hidden_sizes == base.hidden_sizes  # untouched fields persist


def test_integer_fields_sampled_as_integers():
    space = SearchSpace({"num_epochs": RangeSpec(1, 5)})
    rng = random.Random(2)
    for _ in range(50):
        v = sample_params(space, tiny_base(), rng).num_epochs
        assert isinstance(v, int) and 1 <= v <= 5


def test_sampling_is_deterministic():
    space = SearchSpace({"learning_rate": RangeSpec(1e-4, 1e-2, scale="log"),
                         "tau": ChoiceSpec([0.01, 0.1])})
    a = [sample_params(space, tiny_base(), random.Random(42)) for _ in range(20)]
    b = [sample_params(space, tiny_base(), random.Random(42)) for _ in range(20)]
    assert a == b


def test_degenerate_space_trains_identical_params():
    cfg = mm1_topology(0.5, 1.0)
    space = SearchSpace({"tau": ChoiceSpec([0.07])}, trials=3)
    results = random_search(space, cfg, tiny_base(), seed=5)
    assert len(results) == 3
    assert all(r.params.tau == 0.07 for r in results)
    seeds = {r.params.seed for r in results}
    assert len(seeds) == 3  # objectives differ only through the training seed


def test_results_sorted_descending():
    cfg = mm1_topology(0.5, 1.0)
    space = SearchSpace({"learning_rate": RangeSpec(1e-4, 1e-2, scale="log")}, trials=4)
    results = random_search(space, cfg, tiny_base(), seed=9)
    objectives = [r.objective for r in results]
    assert objectives == sorted(objectives, reverse=True)


def test_search_reproducible_end_to_end():
    cfg = mm1_topology(0.5, 1.0)
    space = SearchSpace({"tau": RangeSpec(0.01, 0.3)}, trials=3)
    r1 = random_search(space, cfg, tiny_base(), seed=17)
    r2 = random_search(space, cfg, tiny_base(), seed=17)
    assert [(r.params, r.objective) for r in r1] == [(r.params, r.objective) for r in r2]


def test_param_field_kinds_follow_annotations():
    assert INT_PARAM_FIELDS == {
        "num_epochs", "batch_size", "planning_steps", "num_samples", "num_episodes",
        "num_timesteps", "target_update_frequency", "buffer_capacity", "seed",
        "events_per_step", "reward_skip",
    }
    assert FLOAT_PARAM_FIELDS == {"learning_rate", "tau", "discount", "epsilon", "w1", "w2"}


def test_sampled_integer_fields_are_rounded():
    space = SearchSpace({"seed": RangeSpec(0.0, 100.0), "batch_size": RangeSpec(2.0, 9.0)})
    params = sample_params(space, tiny_base(), random.Random(0))
    assert isinstance(params.seed, int) and isinstance(params.batch_size, int)


# the CLI's exit-code cases cover a bad choice and a bad upper end
@pytest.mark.parametrize("specs, message", [
    ({"w1": RangeSpec(-0.01, 1.0)}, "w1 and w2 must be >= 0"),
    ({"batch_size": RangeSpec(0.2, 8.0)}, "batch_size must be >= 1"),  # rounds to 0
], ids=["float_range_low", "rounded_int_range_low"])
def test_unsampleable_values_raise_before_any_trial(monkeypatch, specs, message):
    # at seed 4 the first trial draws a valid value in both cases, so a
    # search that checked each trial alone would train
    monkeypatch.setattr(DdpgAgent, "train", lambda *a, **kw: pytest.fail("an agent trained"))
    space = SearchSpace(specs, trials=6)
    with pytest.raises(ConfigError, match=re.escape(message)):
        random_search(space, mm1_topology(0.5, 1.0), tiny_base(), seed=4)


def test_half_open_float_range_is_sampleable():
    # discount must be < 1.0, and a linear draw from [0.5, 1.0) is
    space = SearchSpace({"discount": RangeSpec(0.5, 1.0)}, trials=1)
    (result,) = random_search(space, mm1_topology(0.5, 1.0), tiny_base(), seed=3)
    assert 0.5 <= result.params.discount < 1.0
