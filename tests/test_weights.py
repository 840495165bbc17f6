import random
from fractions import Fraction

import pytest

from tuttebound.graphs import GraphError, banana
from tuttebound.weights import (INF, UNDEF, WeightAssignment, WeightDomainError,
                                convert, is_finite, load_weights, parallel,
                                save_weights, series)

SYSTEMS = ("V", "T", "Y")


def test_series_v_example():
    assert series(Fraction(-1), Fraction(-1), "V", Fraction(4)) == Fraction(1, 2)


def test_parallel_y_identity():
    y = 0.37 + 0.1j
    assert parallel(y, 1, "Y", 2.5) == y


def test_parallel_v_bad_point():
    assert parallel(-1, INF, "V", 3.0) is UNDEF
    assert parallel(INF, -1, "V", 3.0) is UNDEF


def test_all_bad_pairs():
    q = Fraction(3)
    cases = [
        (parallel, "V", Fraction(-1), INF),
        (parallel, "Y", Fraction(0), INF),
        (parallel, "T", Fraction(1, 1 - 3), Fraction(1)),
        (series, "V", Fraction(0), Fraction(-3)),
        (series, "Y", Fraction(1), Fraction(1 - 3)),
        (series, "T", Fraction(0), INF),
    ]
    for op, system, a, b in cases:
        assert op(a, b, system, q) is UNDEF
        assert op(b, a, system, q) is UNDEF


def test_undefined_absorbs():
    for op in (parallel, series):
        for system in SYSTEMS:
            assert op(UNDEF, 0.3, system, 2.0) is UNDEF
            assert op(0.3, UNDEF, system, 2.0) is UNDEF


def test_convert_chromatic_point():
    q = Fraction(5)
    assert convert(Fraction(-1), "V", "T", q) == Fraction(1, 1 - 5)


def test_convert_infinity_to_one():
    assert convert(INF, "V", "T", 5) == 1


def test_convert_minus_q_to_infinity():
    assert convert(-5, "V", "T", 5) is INF


def test_convert_round_trip_is_identity():
    rng = random.Random(1)
    q = Fraction(7, 2)
    values = [INF, UNDEF, Fraction(0), Fraction(3, 7), Fraction(-2)]
    for src in SYSTEMS:
        for dst in SYSTEMS:
            for x in values:
                back = convert(convert(x, src, dst, q), dst, src, q)
                if x is UNDEF:
                    assert back is UNDEF
                elif x is INF:
                    assert back is INF
                else:
                    assert back == x
    for _ in range(50):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        qq = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) or 1.0
        y = convert(convert(x, "V", "T", qq), "T", "V", qq)
        assert is_finite(y) and abs(y - x) < 1e-10 * (1 + abs(x))


def test_rejects_zero_q():
    with pytest.raises(WeightDomainError):
        convert(1.0, "V", "T", 0)
    with pytest.raises(WeightDomainError):
        parallel(1.0, 2.0, "V", 0)
    with pytest.raises(WeightDomainError):
        series(1.0, 2.0, "V", Fraction(0))


def test_rejects_unknown_system():
    with pytest.raises(WeightDomainError):
        parallel(1.0, 2.0, "X", 2.0)


def test_closed_formulas():
    rng = random.Random(4)
    for _ in range(40):
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if q == 0:
            continue
        assert abs(parallel(a, b, "V", q) - ((1 + a) * (1 + b) - 1)) < 1e-12
        den = q + a + b
        if abs(den) > 1e-6:
            assert abs(series(a, b, "V", q) - a * b / den) < 1e-10
        den = 1 + (q - 1) * a * b
        if abs(den) > 1e-6:
            got = parallel(a, b, "T", q)
            assert abs(got - (a + b + (q - 2) * a * b) / den) < 1e-9
        assert abs(series(a, b, "T", q) - a * b) < 1e-12
        assert abs(parallel(a, b, "Y", q) - a * b) < 1e-12
        den = q - 2 + a + b
        if abs(den) > 1e-6:
            assert abs(series(a, b, "Y", q) - (q - 1 + a * b) / den) < 1e-10


def test_operations_intertwine_with_conversion():
    # par/ser in any system equal convert o par/ser o convert.
    rng = random.Random(8)
    points = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(40)]
    points += [INF] * 5
    for _ in range(100):
        a = rng.choice(points)
        b = rng.choice(points)
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if q == 0:
            continue
        for op in (parallel, series):
            for src in SYSTEMS:
                for dst in SYSTEMS:
                    direct = op(convert(a, src, dst, q), convert(b, src, dst, q), dst, q)
                    routed = convert(op(a, b, src, q), src, dst, q)
                    if direct is UNDEF or routed is UNDEF:
                        assert direct is UNDEF and routed is UNDEF
                    elif direct is INF or routed is INF:
                        aa = abs(1 / direct) if is_finite(direct) else 0.0
                        bb = abs(1 / routed) if is_finite(routed) else 0.0
                        assert aa < 1e-6 and bb < 1e-6
                    else:
                        assert abs(direct - routed) <= 1e-6 * (1 + abs(direct))


def test_exact_arithmetic_stays_exact():
    q = Fraction(9, 2)
    out = series(Fraction(1, 3), Fraction(-2, 5), "V", q)
    assert isinstance(out, Fraction)
    assert out == Fraction(1, 3) * Fraction(-2, 5) / (q + Fraction(1, 3) - Fraction(2, 5))


def test_weight_assignment_uniform_and_coverage():
    g = banana(3)
    w = WeightAssignment.uniform(g, -1)
    w.check_covers(g)
    assert w.value(2) == -1
    partial = WeightAssignment("V", {0: -1})
    with pytest.raises(Exception):
        partial.check_covers(g)


def test_weight_assignment_system_conversion():
    w = WeightAssignment("V", {0: -1.0, 1: INF})
    t = w.in_system("T", 5.0)
    assert t.system == "T"
    assert abs(t.value(0) - 1 / (1 - 5)) < 1e-15
    assert t.value(1) == 1


def test_weight_json_round_trip(tmp_path):
    w = WeightAssignment("T", {0: 0.25 + 0.5j, 1: INF, 2: UNDEF})
    text = save_weights(w)
    w2 = load_weights(text)
    assert w2.system == "T"
    assert w2.value(0) == 0.25 + 0.5j
    assert w2.value(1) is INF
    assert w2.value(2) is UNDEF
    path = tmp_path / "w.json"
    path.write_text(text)
    assert load_weights(path).value(0) == 0.25 + 0.5j
    with pytest.raises(GraphError, match="bad weight value"):
        load_weights('{"system": "V", "0": {"im": 1.0}}')
    with pytest.raises(GraphError, match="bad weight file"):
        load_weights('{"0": {"re": 1.0}}')


def test_load_weights_long_json_string():
    # Longer than any file name the OS accepts; must be parsed, not probed.
    w = WeightAssignment.uniform(40, -0.5)
    text = save_weights(w)
    assert len(text) > 1024
    for source in (text, "  \n" + text):
        back = load_weights(source)
        assert back.system == w.system
        assert back.values == w.values
