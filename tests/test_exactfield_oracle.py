"""Differential test: the integer-coordinate number fields of a5fano.exactfield
against the Fraction-based exactfield of the seed code, which the benchmark
keeps verbatim as perfbench/reference/a5fano/exactfield.py.  That module
imports only math and fractions, so it is loaded from its path on its own,
apart from the package.

Every operation is done on both types from the same random coordinates, and
the results must agree coordinate for coordinate and in print; the new type's
results must also be in normal form (int numerators, positive int
denominator, gcd 1).
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest

from a5fano import exactfield
from test_exactfield import embed

REFERENCE_PATH = (Path(__file__).resolve().parents[1]
                  / "perfbench" / "reference" / "a5fano" / "exactfield.py")
_spec = importlib.util.spec_from_file_location("reference_exactfield", REFERENCE_PATH)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MINPOLYS = {
    "QQ": (0, 1),
    "phi": (-1, -1, 1),  # phi^2 = phi + 1
    "omega": (1, 1, 1),  # omega^2 + omega + 1 = 0
    "s": (-1, 0, -4, 0, 1),  # s^4 = 4 s^2 + 1
    "c": (-2, 0, 0, 1),  # c^3 = 2
    "h": (Fraction(-1, 2), 0, 1),  # h^2 = 1/2, not integral
    "k": (Fraction(-1, 3), Fraction(1, 2), 0, 1),  # k^3 = 1/3 - k/2, not integral
}
FIELDS = {name: (exactfield.NumberField(m, name=name), ref.NumberField(m, name=name))
          for name, m in MINPOLYS.items()}
EXAMPLES_PER_FIELD = 300  # 2100 in all

# a rational is drawn as numerator, denominator; hypothesis favours the
# bounds, so zeros and integers come up often
NUM_DEN = (st.integers(-30, 30), st.integers(1, 12))
RATIONAL_ST = st.tuples(*NUM_DEN)
COORDS_ST = {n: st.tuples(*NUM_DEN * n) for n in range(1, 5)}


def fractions_of(flat):
    return tuple(Fraction(flat[i], flat[i + 1]) for i in range(0, len(flat), 2))


def assert_same(new, ref):
    assert isinstance(new, exactfield.FieldElement)
    assert new.coords == ref.coords
    assert str(new) == str(ref)
    assert all(type(c) is int for c in new.num)
    assert type(new.den) is int and new.den > 0
    assert math.gcd(new.den, *new.num) == 1


def same_error(new_call, ref_call):
    """Both raise the same exception type, or both return agreeing results.
    The two modules define their own exception classes, so a reference
    FieldError is matched by class name."""
    try:
        expected = ref_call()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            new_call()
        return
    except ref.FieldError as exc:
        with pytest.raises(getattr(exactfield, type(exc).__name__)):
            new_call()
        return
    assert_same(new_call(), expected)


@pytest.mark.parametrize("name", sorted(MINPOLYS))
def test_integer_coordinates_match_fraction_reference(name):
    F, R = FIELDS[name]
    n = F.degree

    @hypothesis.settings(max_examples=EXAMPLES_PER_FIELD, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(COORDS_ST[n], COORDS_ST[n], RATIONAL_ST, st.integers(-4, 4))
    def check(ca, cb, q, k):
        ca, cb, (q,) = fractions_of(ca), fractions_of(cb), fractions_of(q)
        if q.denominator == 1:
            q = q.numerator  # int scalars take their own path
        a, b, ra, rb = F(ca), F(cb), R(ca), R(cb)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(q - a, q - ra)
        assert_same(a * q, ra * q)
        assert_same(a + q, ra + q)
        same_error(lambda: a / b, lambda: ra / rb)
        same_error(lambda: q / a, lambda: q / ra)
        same_error(a.inverse, ra.inverse)
        same_error(lambda: a ** k, lambda: ra ** k)
        assert (a == b) == (ra == rb)
        assert (a == q) == (ra == q)
        assert a == F(ca) and hash(a) == hash(F(ca))
        assert a.is_rational() == ra.is_rational()
        if ra.is_rational():
            assert a.rational_value() == ra.rational_value()
            assert type(a.rational_value()) is Fraction
            assert hash(a) == hash(a.rational_value())
        if n <= 2:
            for x, rx in ((a, ra), (a * a, ra * ra), (a * q, ra * q)):
                root, ref_root = exactfield.sqrt_in_field(x), ref.sqrt_in_field(rx)
                if ref_root is None:
                    assert root is None
                else:
                    assert_same(root, ref_root)
        if name == "phi":
            S, RS = FIELDS["s"]
            s, rs = S.gen(), RS.gen()
            assert_same(embed(a, S, (s * s - 1) / 2),
                        ref.embed(ra, RS, (rs * rs - 1) / 2))

    check()


def test_non_integral_minimal_polynomial():
    F, _ = FIELDS["h"]
    h = F.gen()
    assert h * h == Fraction(1, 2)
    assert (h * h).den == 2
    assert (1 / h) == 2 * h
