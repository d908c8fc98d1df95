"""The immutable value and report types, all built on one slotted base,
`rings.Record`.

Every one of the 13 types refuses assignment and deletion, compares and
hashes by value within its own class only, and comes back equal from copy,
deepcopy and pickle. Poly and WRational keep a `__post_init__` that runs
once per validated construction and never from `_trusted`: bench/tracing.py
counts constructions by wrapping it by name.
"""

import copy
import pickle

import pytest

from dringkit import (
    ChebCertifyReport,
    ChebPair,
    DivisibilityCertificate,
    EvalDivReport,
    Poly,
    PrimeSolvabilityRecord,
    PseudoDivResult,
    QuadInt,
    QuadRing,
    TransferReport,
    TransferSample,
    WRational,
    ZWUnitReport,
    ZZ,
    certify_divisibility,
    cheb_certify,
    cheb_generate,
    eval_divisibility,
    norm_transfer_check,
    pseudo_divide,
    sf_search,
    zw_unit_demo,
)
from dringkit.rings import Record

R5 = QuadRing(5)
GAUSS = QuadRing(-1)


def _gauss(*coords):
    return Poly(tuple(GAUSS.element(a, b) for a, b in coords), GAUSS)


def _transfer(samples):
    return norm_transfer_check(_gauss((1, 1), (0, 1)), _gauss((1, 0), (1, 0)), samples)


def _pairs():
    """Per type, a function that builds one of two unequal values afresh."""
    return {
        QuadRing: lambda i: QuadRing((5, -1)[i]),
        QuadInt: lambda i: QuadInt(3, 4 + i, R5),
        WRational: lambda i: WRational(3, 10 + 3 * i),
        Poly: lambda i: Poly((1, 1 + i)),
        PseudoDivResult: lambda i: pseudo_divide(Poly((1, 0, 2 + i)), Poly((1, 2))),
        TransferSample: lambda i: _transfer([i]).samples[0],
        TransferReport: lambda i: _transfer(range(-1 - i, 2)),
        EvalDivReport: lambda i: eval_divisibility(Poly((0, -1, 0, 1)), Poly((0, 2 + i)), range(-3, 4)),
        DivisibilityCertificate: lambda i: certify_divisibility(Poly((1, 2, 1 + i)), Poly((1, 1))),
        PrimeSolvabilityRecord: lambda i: sf_search(Poly((1, 0, 1)), 13)[i],
        ZWUnitReport: lambda i: zw_unit_demo(3, seed=i),
        ChebPair: lambda i: cheb_generate(3)[2 + i],
        ChebCertifyReport: lambda i: cheb_certify(2 + i, range(-2, 3)),
    }


PAIRS = _pairs()


def test_every_record_type_is_covered():
    assert len(PAIRS) == 13
    assert all(issubclass(cls, Record) and "__slots__" in vars(cls) for cls in PAIRS)
    assert all(type(make(i)) is cls for cls, make in PAIRS.items() for i in (0, 1))


@pytest.mark.parametrize("cls", list(PAIRS), ids=lambda cls: cls.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    value = PAIRS[cls](0)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == PAIRS[cls](0)


@pytest.mark.parametrize("cls", list(PAIRS), ids=lambda cls: cls.__name__)
def test_equality_and_hash_go_by_value(cls):
    value, again, other = PAIRS[cls](0), PAIRS[cls](0), PAIRS[cls](1)
    assert value is not again
    assert value == again and hash(value) == hash(again)
    assert value != other
    fields = tuple(getattr(value, name) for name in cls._fields)
    assert value != fields and fields != value
    assert value != list(fields)


def test_no_record_equals_one_of_another_class():
    values = [make(i) for make in PAIRS.values() for i in (0, 1)]
    # and instances of different classes with equal field values
    values += [PrimeSolvabilityRecord(5, 2), WRational(5, 2), ZWUnitReport(3, 0, 3)]
    values += [cls(1, 0, (), "ALL_DIVIDE") for cls in (EvalDivReport, PseudoDivResult, TransferReport)]
    for x in values:
        for y in values:
            if type(x) is not type(y):
                assert x != y and not x == y


def test_pinned_reprs():
    assert repr(QuadRing(5)) == "QuadRing(d=5)"
    assert repr(WRational(3, 10)) == "WRational(num=3, den=10)"
    certificate = certify_divisibility(Poly((1, 2, 1)), Poly((1, 1)))
    assert repr(certificate) == (
        "DivisibilityCertificate(verdict='DIVIDES', quotient=Poly(x + 1), witness=None)"
    )


@pytest.mark.parametrize("cls", list(PAIRS), ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(cls, clone):
    value = PAIRS[cls](0)
    twin = clone(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)
    assert repr(twin) == repr(value)


def test_the_minimal_polynomial_constants_survive_a_copy():
    twin = pickle.loads(pickle.dumps(R5))
    assert (twin.t, twin.n) == (R5.t, R5.n) == (1, 1)


def test_a_wrong_number_of_fields_is_a_type_error():
    with pytest.raises(TypeError):
        PrimeSolvabilityRecord(5)
    with pytest.raises(TypeError):
        PrimeSolvabilityRecord(5, 2, 1)


def test_post_init_runs_once_per_validated_construction(monkeypatch):
    assert "__post_init__" in vars(Poly) and "__post_init__" in vars(WRational)
    calls = []
    for cls in (Poly, WRational):
        original = vars(cls)["__post_init__"]

        def counted(self, original=original):
            calls.append(type(self))
            return original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    p = Poly((1, 2, 0))
    assert p.coeffs == (1, 2)
    q = Poly.x(GAUSS)
    w = WRational(6, -20)
    assert (w.num, w.den) == (-3, 10)
    assert calls == [Poly, Poly, WRational]

    calls.clear()
    zw_unit_demo(5, seed=0)
    assert calls == [WRational] * 5

    calls.clear()
    r = Poly._trusted([1, 2, 0], ZZ)
    polys = [p * r, p + r, -p, p - r, q * q, q * 2]
    v = WRational._trusted(3, 10)
    fractions = [v * w, v + 1, 1 - v, -v]
    assert calls == []
    assert polys == [Poly((1, 4, 4)), Poly((2, 4)), Poly((-1, -2)), Poly(),
                     Poly.monomial(1, 2, GAUSS), Poly((0, 2), GAUSS)]
    assert fractions == [WRational(-9, 100), WRational(13, 10), WRational(7, 10), WRational(-3, 10)]
