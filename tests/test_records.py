"""Value semantics of the policy, loss-model and scenario classes, and
the field checks that their annotations carry.

Every policy and loss model is an immutable value: equal parameters make
equal objects with equal hashes, a different class never compares equal,
assignment fails, and pickle and deepcopy give back an equal object (a
scenario may be sent to another process).  Every checked field of every
Record class in rtosim refuses what its annotation does not admit.
"""
import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
from fractions import Fraction

import pytest
from properties import a1_algorithm

import rtosim
from rtosim.config import LAYER_POLICIES, _LOSS_VARIANTS, build_scenario
from rtosim.estimators import (
    Ewma,
    ExponentialIncrease,
    FromFirst,
    FromLast,
    IgnoreAndIncrease,
)
from rtosim.experiments import Fig6Result, TsaoLeeResult
from rtosim.record import Record, unwrap_optional
from rtosim.scenarios import (
    SCENARIO_NAMES,
    BernoulliLoss,
    BufferOverflowOnly,
    NoLoss,
    run_scenario,
)
from rtosim.sim import LinkSpec, Topology

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


def _record_classes() -> list[type]:
    """Every Record subclass that an rtosim module defines."""
    found = []
    for name in sorted(info.name for info in pkgutil.iter_modules(
            rtosim.__path__)):
        module = importlib.import_module(f"rtosim.{name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Record)
                  and obj is not Record and obj.__module__ == module.__name__]
    return found


def _bases() -> dict[type, Record]:
    """A valid instance of each Record class, to vary one field of."""
    fig3 = build_scenario({"scenario": "fig3"})
    link = LinkSpec(19200, 0.01)
    result = run_scenario(fig3)
    records = [fig3, fig3.algorithm, link, Topology((link,)), result,
               result.summary, Fig6Result([], 0, result.summary),
               TsaoLeeResult([], 0.0, result.summary), IgnoreAndIncrease()]
    records += [value for _, value in _values()]
    return {type(record): record for record in records}


_BASES = _bases()


def test_a_defaulted_field_is_held_by_its_instances_not_its_class():
    # a default left in the class dict would shadow each instance's value,
    # and 3.12 and later leave a load of a shadowed attribute generic
    defaulted = [cls for cls in _record_classes() if cls._defaults]
    assert Topology in defaulted and Ewma in defaulted
    for cls in defaulted:
        assert not cls._defaults.keys() & vars(cls).keys(), cls
        # built without its defaulted fields, an instance holds each default
        base = _BASES[cls]
        built = cls(**{name: getattr(base, name) for name in cls._fields
                       if name not in cls._defaults})
        for name, default in cls._defaults.items():
            assert getattr(built, name) is default, (cls, name)


class _Foreign(Record):
    """A record of a class that no field admits."""


#: annotation -> (values a field of it refuses, the words of the refusal);
#: an integer key cannot write a fraction (a fractional rate would keep
#: time in float ticks), a number key cannot write nan, inf or a Fraction
#: (`1/3`), and neither can write a bool (--dump-config would write
#: `packets = true`, which build_scenario refuses) or text
_NOT_FINITE = (math.nan, math.inf, -math.inf, Fraction(1, 3), True, False,
               "1.0")
_REFUSED = {
    "Integer": [((2.5, True, False, "1"), "must be an integer")],
    "Count": [((0, -1, 2.5, 19200.5, True, False, "1"),
               "must be an integer >= 1")],
    "Finite": [(_NOT_FINITE, "must be a finite number")],
    "Positive": [(_NOT_FINITE, "must be a finite number"),
                 ((0, 0.0, -1.0), "must be > 0")],
}
#: values that a field checked by membership refuses: an Enum field its
#: member's value, a bool field an int, a Record field another record
_NOT_MEMBERS = ("per_packet", 2, _Foreign())


def _refusals(record: Record) -> list[tuple[str, object, str]]:
    """(field, value, words) for each value a field of `record` refuses;
    only an Optional field takes None."""
    refusals = []
    for field, _ in record._checks:
        annotation, optional = unwrap_optional(record._fields[field])
        groups = _REFUSED.get(annotation, [(_NOT_MEMBERS, "must be one of")])
        if not optional:
            groups = [((*groups[0][0], None), groups[0][1]), *groups[1:]]
        refusals += [(field, value, words) for values, words in groups
                     for value in values]
    return refusals


_FIELD_REFUSALS = [(record, field, value, words)
                   for record in _BASES.values()
                   for field, value, words in _refusals(record)]


@pytest.mark.parametrize(
    "record, field, value, words", _FIELD_REFUSALS,
    ids=[f"{type(record).__name__}.{field}={value!r}"
         for record, field, value, _ in _FIELD_REFUSALS])
def test_every_checked_field_refuses_what_its_annotation_does_not_admit(
        record, field, value, words):
    with pytest.raises(ValueError, match=f"^{field} {words}"):
        type(record)(**{**vars(record), field: value})


def test_every_record_class_has_a_base_and_the_checks_cover_the_aliases():
    assert set(_record_classes()) <= set(_BASES)
    checked = {f"{cls.__name__}.{field}" for cls in _BASES
               for field, _ in cls._checks}
    aliased = {f"{cls.__name__}.{field}" for cls in _BASES
               for field, annotation in cls._fields.items()
               if unwrap_optional(annotation)[0] in _REFUSED}
    assert aliased <= checked
    # the rest are checked by membership; a plain int, float or str
    # annotation, as all of SummaryReport's are, is documentation only
    assert checked - aliased == {
        *(f"Scenario.{field}" for field in (
            "algorithm", "loss", "timer_mode", "retransmit_scope",
            "copy_echo", "topology")),
        *(f"TimeoutAlgorithm.layer{n}" for n in range(1, 6)),
        *(f"{name}.summary" for name in (
            "RunResult", "Fig6Result", "TsaoLeeResult"))}


@pytest.mark.parametrize("record, field", [
    (record, field) for record in _BASES.values()
    for field, annotation in record._fields.items()
    if unwrap_optional(annotation)[1]
    and field in dict(record._checks)],
    ids=lambda value: value if isinstance(value, str) else "")
def test_an_optional_checked_field_takes_none(record, field):
    rebuilt = type(record)(**{**vars(record), field: None})
    assert getattr(rebuilt, field) is None
