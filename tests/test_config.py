import numpy as np
import pytest

from possem.config import build_system, dump_system, parse_config
from possem.errors import ConfigError

INLINE = """
# two-channel system with a complex polynomial coupling
d = 2
m = 2
box = -4 4 -4 4
bc = free
mu = 3.5

[coeff 1 1]
kind = constant
entry 1 1 = [6, 0]
entry 2 2 = [6, 0]

[coeff 2 2]
kind = constant
entry 1 1 = [6, 0]
entry 2 2 = [6, 0]

[coeff 1 2]
kind = polynomial
term 2 1 = 0 0 : [3, 4]
term 2 1 = 1 0 : [0.5, 0]

[coeff 2 1]
kind = polynomial
term 2 1 = 0 0 : [-3, -4]
term 2 1 = 1 0 : [-0.5, 0]
"""


def test_build_inline_system():
    sys_, meta = build_system(INLINE)
    assert sys_.d == 2 and sys_.m == 2
    assert sys_.bc == "free"
    assert sys_.mu == 3.5
    x = np.array([1.0, 0.0])
    C12 = sys_.eval_coefficient(0, 1, x)
    assert C12[1, 0] == pytest.approx(3 + 4j + 0.5)
    assert np.allclose(sys_.symmetrized(0, 1, x), 0.0)


def test_round_trip():
    sys_, _ = build_system(INLINE)
    text = dump_system(sys_)
    sys2, _ = build_system(text)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.uniform(-4, 4, 2)
        for k in range(2):
            for l in range(2):
                assert np.allclose(sys_.eval_coefficient(k, l, x),
                                   sys2.eval_coefficient(k, l, x))
    # dumping twice is byte identical
    assert dump_system(sys2) == text


def test_catalog_delegation():
    sys_, meta = build_system("catalog = witness_W\n")
    assert meta["catalog"] == "witness_W"
    assert sys_.m == 2


@pytest.mark.parametrize("text, message", [
    ("catalog = ex1_3\nmu = 99\nd = 3\n[coeff 1 1]\nkind = mystery\n",
     "line 2: mu = 99 would be ignored"),
    ("catalog = ex1_3\nbc = free\nd = 3\n", "line 3: d = 3 would be ignored"),
    ("catalog = rand_coupled(3)\n\n[coeff 1 1]\nkind = mystery\n",
     r"line 3: \[coeff 1 1\] would be ignored"),
], ids=["mu", "d", "coeff-section"])
def test_catalog_config_rejects_what_it_would_ignore(text, message):
    with pytest.raises(ConfigError, match=message):
        build_system(text)


def test_missing_key_reported():
    with pytest.raises(ConfigError, match="box"):
        build_system("d = 2\nm = 1\n")


def test_bad_pair_carries_line_number():
    text = "d = 1\nm = 1\nbox = 0 1\n[coeff 1 1]\nkind = constant\nentry 1 1 = [oops, 0]\n"
    with pytest.raises(ConfigError, match="line 6"):
        build_system(text)


def test_bad_section_header():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[coefficient 1 1]\n")


def test_unknown_kind():
    text = "d = 1\nm = 1\nbox = 0 1\n[coeff 1 1]\nkind = mystery\n"
    with pytest.raises(ConfigError, match="mystery"):
        build_system(text)


def test_missing_kind():
    text = "d = 1\nm = 1\nbox = 0 1\n[coeff 1 1]\nentry 1 1 = [1, 0]\n"
    with pytest.raises(ConfigError, match=r"line 4: \[coeff 1 1\] has no 'kind =' line"):
        build_system(text)


def test_entry_out_of_range():
    text = "d = 1\nm = 1\nbox = 0 1\n[coeff 1 1]\nkind = constant\nentry 2 1 = [1, 0]\n"
    with pytest.raises(ConfigError, match="out of range"):
        build_system(text)


def test_missing_sections_are_zero():
    sys_, _ = build_system("d = 2\nm = 1\nbox = 0 1 0 1\nmu = 0\n")
    assert sys_.coefficient(0, 0).is_zero()
