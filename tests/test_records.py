"""Value semantics of the policy, loss-model and scenario classes.

Every policy and loss model is an immutable value: equal parameters make
equal objects with equal hashes, a different class never compares equal,
assignment fails, and pickle and deepcopy give back an equal object (a
scenario may be sent to another process).
"""
import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest
from properties import a1_algorithm

import rtosim
from rtosim.config import LAYER_POLICIES, _LOSS_VARIANTS, build_scenario
from rtosim.estimators import Ewma, ExponentialIncrease, FromFirst, FromLast
from rtosim.scenarios import (
    SCENARIO_NAMES,
    BernoulliLoss,
    BufferOverflowOnly,
    NoLoss,
)

#: parameters for the factories that have no default for them
_REQUIRED = {"bernoulli": {"p": 0.25}, "drop_copies_before": {"i": 2}}

_FACTORIES = [(f"layer{n}.{ident}", ident, factory)
              for n, registry in LAYER_POLICIES.items()
              for ident, factory in registry.items()] + \
    [(f"loss.{ident}", ident, factory)
     for ident, factory in _LOSS_VARIANTS.items()]


def _make(ident, factory):
    return factory(**_REQUIRED.get(ident, {}))


def _values():
    values = [(label, _make(ident, factory))
              for label, ident, factory in _FACTORIES]
    values += [(f"scenario.{name}", build_scenario({"scenario": name}))
               for name in SCENARIO_NAMES]
    return values


_IDS = [label for label, _ in _values()]


@pytest.mark.parametrize("label, ident, factory", _FACTORIES,
                         ids=[label for label, _, _ in _FACTORIES])
def test_two_default_instances_are_equal_with_equal_hashes(label, ident,
                                                           factory):
    a, b = _make(ident, factory), _make(ident, factory)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_two_built_scenarios_are_equal_with_equal_hashes(name):
    a, b = (build_scenario({"scenario": name}) for _ in range(2))
    assert a == b
    assert hash(a) == hash(b)


def test_instances_of_different_classes_are_never_equal():
    values = _values()
    for i, (label_a, a) in enumerate(values):
        for label_b, b in values[i + 1:]:
            assert a != b, (label_a, label_b)
            assert not a == b, (label_a, label_b)
    assert FromFirst() != FromLast()
    assert NoLoss() != BufferOverflowOnly()


def test_a_different_parameter_is_a_different_value():
    assert Ewma(0.5) == Ewma(alpha=0.5)
    assert Ewma(0.5) != Ewma(0.25)
    assert a1_algorithm(k=4.0) != a1_algorithm(k=2.0)


def test_a_bad_argument_list_raises_and_validation_runs():
    for make in (lambda: BernoulliLoss(), lambda: Ewma(0.5, 0.5),
                 lambda: Ewma(0.5, alpha=0.5), lambda: Ewma(beta=0.5)):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(ValueError, match="loss probability"):
        BernoulliLoss(1.0)


@pytest.mark.parametrize("label, value", _values(), ids=_IDS)
def test_assignment_and_deletion_raise_attribute_error(label, value):
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    for name in vars(value):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_repr_names_the_class_and_its_fields():
    assert repr(Ewma()) == "Ewma(alpha=0.5)"
    assert repr(FromFirst()) == "FromFirst()"
    assert repr(ExponentialIncrease()) == "ExponentialIncrease(c=2.0)"
    assert repr(a1_algorithm()) == (
        "TimeoutAlgorithm(layer1=Ewma(alpha=0.5), layer2=FromFirst(), "
        "layer3=Scale(k=4.0), layer4=NoBackoff(t_max=None), "
        "layer5=FixedRetries(r=10))")


@pytest.mark.parametrize("label, value", _values(), ids=_IDS)
def test_pickle_and_deepcopy_give_back_an_equal_value(label, value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                  copy.copy(value)):
        assert type(clone) is type(value)
        assert clone == value
        assert hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_no_rtosim_class_is_a_dataclass():
    # dataclass code generation dominated the cold start of every command;
    # the policy, record and scenario classes build their methods once, in
    # Record
    found = []
    for name in sorted(info.name for info in pkgutil.iter_modules(
            rtosim.__path__)):
        module = importlib.import_module(f"rtosim.{name}")
        found += [f"{name}.{obj.__name__}" for obj in vars(module).values()
                  if isinstance(obj, type) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)]
    assert found == []
