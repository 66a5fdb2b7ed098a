"""The value classes: construction, field-wise equality and hash, the
``Name(field=value, ...)`` repr, and no assignment after construction."""

import importlib
import platform
import pkgutil

import pytest

import optmean
from optmean import cli
from optmean._value import Value
from optmean.estimators import FiveNumberSummary
from optmean.meta import StudyEffect
from optmean.order_stats import OrderStatMoments, moments_quadrature
from optmean.weights import Scenario, WeightSet, optimal_weights


def _examples(name):
    """The class ``name``, the values of its `_fields`, and the same values with
    one field changed."""
    if name == "OrderStatMoments":
        values = moments_quadrature(9)._values()
        return OrderStatMoments, values, (*values[:-1], 2e-8)
    return {
        "WeightSet": (WeightSet, (Scenario.S3, 25, 0.25, 0.5, "approx"),
                      (Scenario.S3, 25, 0.25, 0.4, "approx")),
        "FiveNumberSummary": (FiveNumberSummary, (Scenario.S3, 25, 5.0, 1.0, 3.0, 7.0, 12.0),
                              (Scenario.S3, 25, 6.0, 1.0, 3.0, 7.0, 12.0)),
        "StudyEffect": (StudyEffect, (0.5, 0.125), (0.5, 0.25)),
    }[name]


NAMES = ("WeightSet", "FiveNumberSummary", "OrderStatMoments", "StudyEffect")
HASHABLE = ("WeightSet", "FiveNumberSummary", "StudyEffect")


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    cls, values, _ = _examples(name)
    by_position, by_keyword = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, field) for field in cls._fields] == list(values)


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_fieldwise_and_of_one_class(name):
    cls, values, other_values = _examples(name)
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value != cls(*other_values)
    twin = type("Twin", (cls,), {})(*values)
    assert value != twin and twin != value
    assert value.__eq__(twin) is NotImplemented
    assert value != values and value != object()


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_values_hash_equal(name):
    cls, values, _ = _examples(name)
    assert hash(cls(*values)) == hash(cls(**dict(zip(cls._fields, values))))
    assert len({cls(*values), cls(*values)}) == 1


def test_moments_are_unhashable_as_their_fields_are():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(moments_quadrature(9))


def test_repr_names_each_field():
    assert repr(StudyEffect(0.5, 0.125)) == "StudyEffect(d=0.5, var_d=0.125)"
    assert repr(WeightSet("s3", 25, 0.25, 0.5, "approx")) == (
        f"WeightSet(scenario={Scenario.S3!r}, n=25, w1=0.25, w2=0.5, source='approx')")
    assert repr(FiveNumberSummary("s1", 25, 5.0, 1.0, maximum=12.0)) == (
        f"FiveNumberSummary(scenario={Scenario.S1!r}, n=25, median=5.0, minimum=1.0, "
        f"q1=None, q3=None, maximum=12.0)")
    moments = moments_quadrature(9)
    assert repr(moments) == (
        f"OrderStatMoments(n=9, means={moments.means!r}, second_moments="
        f"{moments.second_moments!r}, backend='quadrature', std_error=1e-08)")


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, values, other_values = _examples(name)
    value = cls(*values)
    for field, new in zip(cls._fields, other_values):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, new)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*values)


def test_moments_rebuilt_from_their_fields_have_solved_nothing():
    served = moments_quadrature(29)
    optimal_weights(served, Scenario.S3)
    assert Scenario.S3 in served._solved
    rebuilt = OrderStatMoments(**served._asdict())
    assert rebuilt == served and rebuilt is not served
    assert rebuilt._solved == {}
    assert optimal_weights(rebuilt, Scenario.S3) == served._solved[Scenario.S3]
    assert rebuilt._solved is not served._solved


def test_header_python_version_is_platforms():
    assert cli._libraries()["python"] == platform.python_version()


# the classes that check or normalise their fields in an ``__init__`` of their
# own; every other value class is a record that inherits `Value.__init__`
CHECKING = {"FiveNumberSummary", "Estimate", "WeightSet", "StudyRecord", "StudyEffect",
            "OrderStatMoments", "OrderIndexSet", "DistributionSpec", "SimulationConfig"}
RECORDS = {"Method", "SdMethod", "FiveNumberPayload", "MeanSdPayload", "OddsRatioPayload",
           "MeanRangePayload", "Heterogeneity", "MetaResult", "AsymptoticQuantileCov",
           "RmseRow", "RmseReport", "FitCoefficients"}


def _value_classes() -> list:
    """Every `Value` subclass of the package, each module imported first."""
    for module in pkgutil.iter_modules(optmean.__path__):
        importlib.import_module(f"optmean.{module.name}")
    return sorted((cls for cls in Value.__subclasses__()
                   if cls.__module__.startswith("optmean.")),
                  key=lambda cls: cls.__name__)


VALUE_CLASSES = _value_classes()
PLAIN = [cls for cls in VALUE_CLASSES if "__init__" not in vars(cls)]


def _stand_ins(cls) -> tuple:
    # a distinct value per field: these classes check none of them
    return tuple(f"{cls.__name__}.{name}" for name in cls._fields)


def test_only_classes_that_check_their_fields_write_an_init():
    assert {cls.__name__ for cls in VALUE_CLASSES if "__init__" in vars(cls)} == CHECKING
    assert {cls.__name__ for cls in PLAIN} == RECORDS


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_record_binds_by_position_and_keyword(cls):
    values = _stand_ins(cls)
    by_position = cls(*values)
    assert by_position._values() == values
    assert cls(**dict(zip(cls._fields, values))) == by_position
    assert cls(values[0], **dict(zip(cls._fields[1:], values[1:]))) == by_position
    assert list(vars(by_position)) == list(cls._fields)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_record_fills_omitted_fields_from_its_defaults(cls):
    required = cls._fields[:len(cls._fields) - len(cls._defaults)]
    assert set(cls._fields) - set(required) == set(cls._defaults)  # defaults trail
    given = dict(zip(required, _stand_ins(cls)))
    value = cls(**given)
    assert value._asdict() == {**given, **cls._defaults}
    assert cls(*given.values()) == value
    assert list(vars(value)) == list(cls._fields)


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_record_refuses_a_missing_unknown_repeated_or_extra_field(cls):
    values = _stand_ins(cls)
    fields = dict(zip(cls._fields, values))
    missing = {name: v for name, v in fields.items() if name != cls._fields[0]}
    with pytest.raises(TypeError, match=rf"missing the fields \['{cls._fields[0]}'\]"):
        cls(**missing)
    with pytest.raises(TypeError, match="unknown field 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match="unknown field 'colour'"):
        cls(**fields, colour=1)
    with pytest.raises(TypeError, match=f"repeated or unknown field '{cls._fields[0]}'"):
        cls(*values[:1], **fields)
    with pytest.raises(TypeError, match=f"takes {len(values)} fields, got {len(values)+1}"):
        cls(*values, "extra")
