"""The one settings check and the one settings reader.

Every settings class checks its fields against their declared types
before its own range rules, so a bad value is refused the same way
whether the object is built directly, from a ``--config`` file or from a
checkpoint's model config.
"""

import json
import math
import re
from dataclasses import asdict, fields

import pytest

from gridvolt import evaluation as ev
from gridvolt import losses as gl
from gridvolt import model as gm
from gridvolt import simulation as sim
from gridvolt import training as tr
from gridvolt.settings import from_settings

SETTINGS = (gm.ModelConfig, tr.TrainConfig, sim.ScenarioConfig,
            ev.AttackConfig, gl.LossWeights)


@pytest.mark.parametrize("cls", SETTINGS, ids=lambda c: c.__name__)
def test_every_typed_field_refuses_a_bad_value_naming_it(cls):
    cls()  # the defaults pass their own check
    for field in fields(cls):
        for value in (True, "x", math.nan, math.inf):
            with pytest.raises(ValueError, match=re.escape(field.name)):
                cls(**{field.name: value})


@pytest.mark.parametrize("cls, values", [
    (gm.ModelConfig, {"hidden_dim": True}),
    (gm.ModelConfig, {"beta_init": (1.0, 1.0)}),
    (sim.ScenarioConfig, {"der_penetration": False}),
    (sim.ScenarioConfig, {"tie_close_step": 0.5}),
    (sim.ScenarioConfig, {"tie_closures": (0, 1.5)}),
    (gl.LossWeights, {"lam_phys": math.nan}),
    (ev.AttackConfig, {"sigma_v": math.nan})],
    ids=["hidden-dim-a-bool", "short-beta", "der-a-bool", "step-a-float",
         "tie-index-a-float", "weight-nan", "sigma-nan"])
def test_constructors_refuse_what_a_reader_refuses(cls, values):
    with pytest.raises(ValueError, match=re.escape(next(iter(values)))):
        cls(**values)


def test_int_message_names_the_field_and_value():
    with pytest.raises(ValueError,
                       match=r"^hidden_dim must be an integer, got True$"):
        gm.ModelConfig(hidden_dim=True)


def test_tuple_fields_take_lists_and_are_stored_as_tuples():
    assert gm.ModelConfig(beta_init=[1, 2, 3, 4]).beta_init == (1, 2, 3, 4)
    scenario = sim.ScenarioConfig(tie_closures=[0, 1])
    assert scenario.tie_closures == (0, 1)
    with pytest.raises(ValueError, match="beta_init must be a list of 4"):
        gm.ModelConfig(beta_init=[1.0, 1.0, 0.5, 0.5, 0.5])


def test_model_config_round_trips_through_json():
    c = gm.ModelConfig(hidden_dim=32, temperature=0.5,
                       beta_init=(2.0, 1.0, 0.25, 0.5))
    loaded = from_settings(gm.ModelConfig, json.loads(json.dumps(asdict(c))),
                           "model config")
    assert loaded == c
    assert type(loaded.beta_init) is tuple

