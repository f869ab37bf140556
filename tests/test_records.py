"""The result records behave as the ``collections.namedtuple`` classes they
replaced: field names and order, ``repr``, tuple equality and hashing,
``_replace``, immutability, copying and pickling."""

import copy
import pickle

import pytest

from apsieve.classifier import (
    CaseTag,
    ClassificationResult,
    EndgameElimination,
    FilterResult,
    HemmiResult,
    Lemma43Result,
    TopOperationResult,
    Verdict,
    VerdictKind,
    _CaseResult,
)
from apsieve.finiteness import FinitenessBound
from apsieve.padic import PrimeContext
from apsieve.psimod import (
    ClassCondition,
    ConditionReport,
    GcdTestResult,
    PsiCertificate,
    PsiModule,
    SpaceType,
)
from apsieve.steenrod import PowerWord, Relation42Result, Relation43Result

CTX = PrimeContext(3)
SPACE = SpaceType(CTX, (2, 4, 6))
MODULE = PsiModule(SPACE, (2, 6), (2, 4, 6), (2,))
REPORT = ConditionReport(MODULE, (ClassCondition(2, 1, 1, True),), True, 2)

# (class, field names, field values, the arguments that build it when they
# are not the values)
RECORDS = [
    (PrimeContext, "p k0", (3, 2), (3,)),
    (SpaceType, "ctx halves", (CTX, (2, 4, 6)), None),
    (PsiModule, "space window degrees witnesses", (SPACE, (2, 6), (2, 4, 6), (2,)), None),
    (ClassCondition, "degree valuation_sum nu_bound passes", (4, 1, 2, True), None),
    (ConditionReport, "module per_class holds_everywhere witness_used",
     (MODULE, (ClassCondition(2, 1, 1, True),), True, 2), None),
    (PsiCertificate, "window report witness windows_tried", ((2, 6), REPORT, 2, 3), None),
    (GcdTestResult, "passed m", (True, 2), None),
    (PowerWord, "exponents coefficient", ((3, 1), 2), None),
    (Relation42Result, "k coeff_second epsilon normalized", (1, 2, None, (PowerWord((5, 1), 2),)), None),
    (Relation43Result, "l eps1 eps2 eps3 coeff_trailing normalized", (2, 0, 1, 2, 1, ()), None),
    (FinitenessBound, "p r monomials min_half_degree", (3, 3, 19, 115), None),
    (Verdict, "space kind reason certificate trace corroborating",
     (SPACE, VerdictKind.ELIMINATED, "PsiCondition", None, ("step",), ()), None),
    (FilterResult, "passed detail rule", (False, "no degree", 1), None),
    (CaseTag, "case s t", (4, None, 1), None),
    (Lemma43Result, "applicable inequality_holds detail", (False, False, "hypotheses not met"), None),
    (HemmiResult, "applicable source_half target_half forced detail", (True, 6, 12, False, "applicable"), None),
    (TopOperationResult, "candidates forced eliminated", (((4, 1),), (4, 1), False), None),
    (EndgameElimination, "rule_id space trace constraint_count", ("E1", SPACE, ("step",), 3), None),
    (_CaseResult, "case passed detail", (1, True, "kept"), None),
    (ClassificationResult,
     "verdicts survivors quasi_regular steenrod_eliminated psi_certified psi_uncertified discrepancies",
     ((), ((2, 4, 6),), (), (), (), (), ()), None),
]


@pytest.fixture(params=RECORDS, ids=[entry[0].__name__ for entry in RECORDS])
def record(request):
    cls, names, values, args = request.param
    return cls, tuple(names.split()), values, values if args is None else args


def test_fields_repr_and_construction(record):
    cls, fields, values, args = record
    value = cls(*args)
    assert cls._fields == fields
    assert tuple(getattr(value, name) for name in fields) == values
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={v!r}" for name, v in zip(fields, values)) + ")"
    assert cls(**dict(zip(fields, args))) == value


def test_equality_and_hash_are_the_plain_tuples(record):
    cls, _, values, args = record
    value = cls(*args)
    assert isinstance(value, tuple) and tuple(value) == values
    assert value == values and hash(value) == hash(values)


def test_replace_keeps_the_type_without_running_new(record):
    cls, fields, values, args = record

    class Counted(cls):
        __slots__ = ()
        built = 0

        def __new__(klass, *a, **kw):
            Counted.built += 1
            return super().__new__(klass, *a, **kw)

    value = Counted(*args)
    copied = value._replace(**{fields[0]: "replaced"})
    assert type(copied) is Counted and Counted.built == 1
    assert copied == ("replaced", *values[1:]) and value == values
    with pytest.raises(ValueError):
        value._replace(unknown=1)


def test_fields_are_read_only(record):
    cls, fields, _, args = record
    value = cls(*args)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    with pytest.raises(AttributeError):
        value.unknown = 0
    assert not hasattr(value, "__dict__")


def test_copy_and_pickle_round_trips(record):
    cls, _, values, args = record
    value = cls(*args)
    # __new__ gets back the arguments it takes: a context only its p
    assert value.__getnewargs__() == args
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == values


def test_defaults():
    assert CaseTag(2) == (2, None, None) and CaseTag(3, s=1) == (3, 1, None)
    assert Verdict(SPACE, VerdictKind.SURVIVES) == (SPACE, VerdictKind.SURVIVES, None, None, (), ())
