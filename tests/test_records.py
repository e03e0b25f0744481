"""The value records: immutability, equality, hash, repr, copies; the import graph."""

import copy
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nctorus import product_params, tensor_gaussian_closed
from nctorus.algebra import TorusElement
from nctorus.connections import ComplexStructure
from nctorus.errors import InvalidSigma
from nctorus.gaussians import PolyGaussTerm, PolyGaussVector
from nctorus.modules import ModuleTag
from nctorus.tensor import ProductClosedForm, ProductParams, StructureConstants

SRC = Path(__file__).resolve().parent.parent / "src"

_P = product_params(1, 2, 1, 3, 0.2)
_TERM = PolyGaussTerm((1 + 0j,), 1 + 0.5j, 0.2j, 1)
_FORM = tensor_gaussian_closed(1.0, 0j, 1.0, 0j, _P)
_TERM_TEXT = "PolyGaussTerm(poly=((1+0j),), sigma=(1+0.5j), c=0.2j, mu=1, x0=0.0)"
_TAG_TEXT = "ModuleTag(n=1, m=2, theta=0.2, a=1, b=0)"
_P_TEXT = (f"ProductParams(n=1, m=2, k=1, l=3, theta=0.2, right={_TAG_TEXT}, "
           "left=ModuleTag(n=1, m=3, theta=-0.2, a=1, b=0), A=1.4, B=0.3999999999999999, "
           "M=5, r=1, L=6)")

# (class, positional fields, keyword arguments left at their defaults, repr,
#  fields that fail validation and the error they raise, or None)
RECORDS = [
    (TorusElement, ({(1, 0): 1j},), {}, "TorusElement(coeffs={(1, 0): 1j})", None),
    (ComplexStructure, (0.5j, 0j, 0j), {"c1": 0j, "c2": 0j},
     "ComplexStructure(tau=0.5j, c1=0j, c2=0j)", ((1 + 0j, 0j, 0j), ValueError)),
    (PolyGaussTerm, ((1 + 0j,), 1 + 0.5j, 0.2j, 1, 0.0), {"x0": 0.0}, _TERM_TEXT,
     (((1 + 0j,), -1 + 0j, 0j, 0, 0.0), InvalidSigma)),
    (PolyGaussVector, (2, (_TERM,)), {}, f"PolyGaussVector(m=2, terms=({_TERM_TEXT},))", None),
    (ModuleTag, (1, 2, 0.2, 1, 0), {}, _TAG_TEXT, None),
    (ProductParams, (1, 2, 1, 3, 0.2, _P.right, _P.left, 1.4, 0.3999999999999999, 5, 1, 6), {},
     _P_TEXT, None),
    (ProductClosedForm, (_P, 1.0, 0j, 1.0, 0j, _FORM.x_n, _FORM.y_n, _FORM.s), {},
     f"ProductClosedForm(params={_P_TEXT}, sigma1=1.0, c1=0j, sigma2=1.0, c2=0j, "
     "x_n=-0.13999999999999999, y_n=0.02666666666666666, s=2.909352359719846j)", None),
    (StructureConstants, ((1, 1, 1), (((1 + 0j,),),), {(0, 0): (1, [])}, 1j), {},
     "StructureConstants(shape=(1, 1, 1), values=((((1+0j),),),), rows={(0, 0): (1, [])}, "
     "s=1j)", None),
]


def _subclass(cls):
    """cls with ``__slots__ = ()``, bound in this module so that pickle finds it."""
    name = f"Sub{cls.__name__}"
    sub = globals()[name] = type(name, (cls,), {"__slots__": (), "__module__": __name__})
    return sub


SUBCLASSES = {entry[0]: _subclass(entry[0]) for entry in RECORDS}


def _changed(fields):
    """fields with the last one changed: plus 1 if a number, else empty."""
    last = fields[-1]
    return (*fields[:-1], last + 1 if isinstance(last, (int, float, complex)) else type(last)())


def _bypassing_init(cls, fields):
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(record, name, value)
    return record


@pytest.mark.parametrize("cls, fields, defaults, text, invalid", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_contract(cls, fields, defaults, text, invalid):
    record = cls(*fields)
    names = cls.__slots__
    assert tuple(getattr(record, name) for name in names) == fields
    # keyword construction, and the defaults left out
    assert cls(**dict(zip(names, fields))) == record
    assert cls(*fields[:len(fields) - len(defaults)]) == record
    assert repr(record) == text
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
    # equality and hash are those of the field tuple, within one class; a
    # subclass without slots of its own keeps its parent's fields
    sub = SUBCLASSES[cls]
    sub_record, changed = sub(*fields), sub(*_changed(fields))
    assert record != fields and record != sub_record
    assert record.__eq__(fields) is NotImplemented
    assert sub_record == sub(*fields) and sub_record != changed
    assert repr(sub_record) == "Sub" + text
    assert sub._fields == cls._fields == names
    try:
        want = hash(fields)
    except TypeError:  # a dict field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(sub_record) == want != hash(changed)
    for original in (record, sub_record):
        for other in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert type(other) is type(original) and other == original
    if invalid is not None:
        bad, error = invalid
        with pytest.raises(error):
            cls(*bad)
        # copies rebuild through the constructor, so they validate again
        forged = _bypassing_init(cls, bad)
        with pytest.raises(error):
            copy.copy(forged)
        with pytest.raises(error):
            pickle.loads(pickle.dumps(forged))


def test_cli_import_loads_no_code_generation_modules():
    # a fresh interpreter without site: the records are plain classes and
    # annotations stay strings, so none of these is needed at import
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import nctorus.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("cls", [ModuleTag, ProductParams, ProductClosedForm, StructureConstants])
def test_record_constructor_names_its_fields(cls):
    # the records without a constructor of their own bind through Record's
    assert "__init__" not in vars(cls)
    fields = next(entry[1] for entry in RECORDS if entry[0] is cls)
    names = cls._fields
    assert cls(*fields[:2], **dict(zip(names[2:], fields[2:]))) == cls(*fields)
    signature = re.escape(f"{cls.__name__}({', '.join(names)}) takes each field once, got ")
    # one too many, two missing, an unknown one, one twice
    for values, by_name, given in (
            ((*fields, None), {}, f"{len(fields) + 1} by position and ()"),
            (fields[:-2], {}, f"{len(fields) - 2} by position and ()"),
            (fields[1:], {"other": None}, f"{len(fields) - 1} by position and (other)"),
            (fields, {names[0]: fields[0]}, f"{len(fields)} by position and ({names[0]})")):
        with pytest.raises(TypeError, match=f"^{signature}{re.escape(given)} by name$"):
            cls(*values, **by_name)
