"""A self-check of the pin tables: each family's test fails on a mutation.

For each route family, and for each kind of independent value it uses,
the first key with that source is checked in process, editing no file:
the family's ``test_pins`` passes on the key as pinned, and fails when the
last bit of its stored hex is flipped, and when its independent value is
moved away from the pinned value by more than the recorded distance.
Each family's table is also checked for the form that ``pins`` states,
and the re-record helpers ``keeps_to_the_rule`` and ``recorded_distance``
are checked on their own.
"""

import math
import struct

import numpy as np
import pytest

import alphaleak
import test_kernels
import test_rule_routes
import test_stacked
from pins import keeps_to_the_rule, pin_id, recorded_distance

FAMILIES = (test_kernels, test_rule_routes, test_stacked)


def _flip_last_bit(hexed):
    """The ``float.hex`` of the double one unit in the last place away."""
    (bits,) = struct.unpack("<q", struct.pack("<d", float.fromhex(hexed)))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0].hex()


def _cases():
    """(family, key): the first key of each family for each source."""
    cases = {}
    for family in FAMILIES:
        for key in sorted(family.PINS):
            source = family.PINS[key][-2]
            if source is not None:
                cases.setdefault((family.__name__, source), (family, key))
    return list(cases.values())


@pytest.mark.parametrize("family, key", _cases(),
                         ids=lambda case: getattr(case, "__name__", None) or pin_id(case))
def test_a_mutated_pin_fails_its_family_test(family, key, monkeypatch):
    entry = family.PINS[key]
    got = family.observe(key)
    monkeypatch.setattr(family, "observe", lambda _: got)  # the route runs once
    family.test_pins(key)

    with monkeypatch.context() as m:
        m.setitem(family.PINS, key, (_flip_last_bit(entry[0]),) + entry[1:])
        with pytest.raises(AssertionError):
            family.test_pins(key)

    # away from the pinned value, by more than the recorded distance
    source, distance = entry[-2:]
    independent = family.independent(source, key)
    away = 1.0 if independent >= float.fromhex(entry[0]) else -1.0
    moved = independent + away * 2.0 * distance
    while abs(moved - independent) <= distance:
        moved = np.nextafter(moved, away * np.inf)
    monkeypatch.setattr(family, "independent", lambda *_: moved)
    with pytest.raises(AssertionError):
        family.test_pins(key)


def _is_error_name(name):
    error = getattr(alphaleak, name, None)
    return isinstance(error, type) and issubclass(error, alphaleak.AlphaleakError)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.__name__)
def test_each_family_table_has_the_stated_form(family):
    ids = [pin_id(key) for key in family.PINS]
    assert len(set(ids)) == len(ids)
    for key, entry in family.PINS.items():
        value, (source, distance) = entry[0], entry[-2:]
        if _is_error_name(value):
            assert source is None and distance is None, key
            continue
        assert math.isfinite(float.fromhex(value)), key
        if source is None:
            assert distance is None, key
        else:
            # a distance rounded up to two significant digits
            assert isinstance(source, str) and distance >= 0.0, key
            assert float(f"{distance:.1e}") == distance, key


@pytest.mark.parametrize("new, old, optimum, maximize, keeps", [
    (1.0 + 5e-8, 1.0, None, None, True),          # within 1e-7 relative
    (1.0 - 5e-8, 1.0, None, True, True),          # ... whichever way it moves
    (1.0 + 1e-6, 1.0, 1.0 + 2e-6, None, True),    # nearer the known optimum
    (1.0 + 1e-6, 1.0, 1.0 - 1e-6, None, False),   # farther from it
    (1.0 + 1e-6, 1.0, None, True, True),          # better when maximizing
    (1.0 - 1e-6, 1.0, None, True, False),         # worse when maximizing
    (1.0 - 1e-6, 1.0, None, False, True),         # better when minimizing
])
def test_keeps_to_the_rule(new, old, optimum, maximize, keeps):
    assert keeps_to_the_rule(new, old, lambda: optimum, maximize) is keeps


def test_keeps_to_the_rule_looks_up_the_optimum_only_for_a_moved_value():
    def optimum():
        raise AssertionError("the optimum is not needed within 1e-7")

    assert keeps_to_the_rule(2.0, 2.0, optimum)


def test_recorded_distance_of_equal_values_is_zero():
    assert recorded_distance(0.3, 0.3) == 0.0


@pytest.mark.parametrize("value, independent, recorded", [
    (1.0 + 1.234e-12, 1.0, 1.3e-12),
    (0.5, 0.5 + 2.0 ** -30, 9.4e-10),             # 2**-30 = 9.31...e-10
    (1.0 + 9.95e-3, 1.0, 1e-2),
])
def test_recorded_distance_rounds_up_to_two_digits(value, independent, recorded):
    assert recorded_distance(value, independent) == recorded


def test_recorded_distance_is_never_below_the_distance():
    rng = np.random.default_rng(0)
    for value, independent in rng.uniform(-1.0, 1.0, size=(200, 2)) * 10.0 ** rng.integers(
            -15, 1, size=(200, 1)):
        d = recorded_distance(value, independent)
        assert abs(value - independent) <= d
        assert float(f"{d:.1e}") == d
