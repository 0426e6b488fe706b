import json
import shlex
from pathlib import Path

import pytest

from possem.cli import main


def run(argv, tmp_path, extra=()):
    return main(list(argv) + ["--out", str(tmp_path)] + list(extra))


def test_decouple_positive(tmp_path, capsys):
    code = run(["decouple", "--catalog", "ex1_3"], tmp_path)
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "POSITIVE-DECOUPLED" in report
    assert (tmp_path / "coefficients_1.csv").exists()
    assert (tmp_path / "coefficients_2.csv").exists()
    assert "--grid" not in report


def test_decouple_positive_reports_unused_grid(tmp_path):
    code = run(["decouple", "--catalog", "ex1_3", "--grid", "32"], tmp_path)
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "POSITIVE-DECOUPLED" in report
    assert "--grid 32 unused: it only sizes the witness.csv" in report
    assert not (tmp_path / "witness.csv").exists()


def test_decouple_witness(tmp_path):
    code = run(["decouple", "--catalog", "witness_W", "--grid", "32"], tmp_path)
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "NOT-POSITIVE" in report
    csv = (tmp_path / "witness.csv").read_text()
    assert csv.splitlines()[0] == "x1,x2,channel,u_plus,u_minus"


def test_positivity_subcommand(tmp_path):
    code = run(["positivity", "--catalog", "scalar_heat", "--grid", "8",
                "--times", "0.01", "0.1", "1"], tmp_path)
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "SIGN-PATTERN-OK" in report
    assert "propagator: spectral (self-adjoint channel groups)\n" in report
    lines = (tmp_path / "positivity.csv").read_text().splitlines()
    assert lines[0] == "t,min_entry_real,max_entry_imag"
    assert len(lines) == 4


PROPAGATOR_LINES = {"spectral": "spectral (self-adjoint channel groups)", "expm": "expm",
                    "expm_multiply": "expm_multiply (sparse generator)"}

# ex1_3 with a second coupling entry: on the free space K couples its two
# channels both ways, so the generator has no spectral form
TWO_WAY_PAIR = """
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
kind = constant
entry 1 2 = [1, 0]
entry 2 1 = [3, 4]

[coeff 2 1]
kind = constant
entry 1 2 = [-1, 0]
entry 2 1 = [-3, -4]
"""


@pytest.mark.parametrize("name, bc, method", [("scalar_heat", "dirichlet", "spectral"),
                                              ("ex1_3", "free", "spectral"),
                                              ("two_way_pair", "free", "expm"),
                                              ("two_way_pair", "free", "expm_multiply")])
def test_positivity_names_the_propagator_path(tmp_path, name, bc, method):
    # the two-way pair takes the sparse chain at 12^2 and a dense expm at 4^2;
    # ex1_3's one-way coupling keeps the spectral path
    grid = "12" if method == "expm_multiply" else "4"
    if name == "two_way_pair":
        cfg = tmp_path / "two_way.cfg"
        cfg.write_text(TWO_WAY_PAIR)
        system = ["--config", str(cfg)]
    else:
        system = ["--catalog", name]
    code = run(["positivity", *system, "--grid", grid, "--bc", bc, "--json"], tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["propagator"] == method
    assert f"propagator: {PROPAGATOR_LINES[method]}\n" in (tmp_path / "report.txt").read_text()


# a real scalar system with the mixed coefficient 0.9: positive, but its Q1
# stiffness has a positive entry between diagonal neighbours
MIXED_SCALAR = """
d = 2
m = 1
box = 0 1 0 1
mu = 0.05

[coeff 1 1]
kind = constant
entry 1 1 = [1, 0]

[coeff 2 2]
kind = constant
entry 1 1 = [1, 0]

[coeff 1 2]
kind = constant
entry 1 1 = [0.9, 0]

[coeff 2 1]
kind = constant
entry 1 1 = [0.9, 0]
"""


@pytest.mark.parametrize("name, bc, channels, coupling", [
    ("ex1_3", "free", [2, 1], "cross-channel"),
    ("mixed_scalar", "dirichlet", [1, 1], "same-channel"),
])
def test_positivity_names_the_witness_channels(tmp_path, name, bc, channels, coupling):
    if name == "mixed_scalar":
        cfg = tmp_path / "mixed.cfg"
        cfg.write_text(MIXED_SCALAR)
        system = ["--config", str(cfg)]
    else:
        system = ["--catalog", name]
    code = run(["positivity", *system, "--grid", "4", "--bc", bc, "--json"], tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    kind, i, j, _ = data["witness"]
    assert kind == "lattice" and data["witness_channels"] == channels
    m = 2 if name == "ex1_3" else 1
    assert [i % m + 1, j % m + 1] == channels and data["witness_coupling"] == coupling
    line = f"witness channels: ({channels[0]}, {channels[1]}), {coupling}\n"
    assert line in (tmp_path / "report.txt").read_text()


def test_positivity_without_witness_names_no_channels(tmp_path):
    code = run(["positivity", "--catalog", "scalar_heat", "--grid", "4", "--json"], tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["witness"] is None and "witness_channels" not in data
    assert "witness channels" not in (tmp_path / "report.txt").read_text()


def test_check_elliptic(tmp_path):
    code = run(["check-elliptic", "--catalog", "ex1_3"], tmp_path)
    assert code == 0
    assert "PASS" in (tmp_path / "report.txt").read_text()
    assert (tmp_path / "ellipticity.csv").exists()


def test_probe_and_analyze(tmp_path):
    code = run(["probe", "--catalog", "ex1_3", "--point", "0.5", "0.5",
                "--kl", "1", "2"], tmp_path)
    assert code == 0
    assert (tmp_path / "probe.csv").exists()
    code = run(["analyze", "--catalog", "ex1_3"], tmp_path)
    assert code == 0
    assert "multiplication operator: False" in (tmp_path / "report.txt").read_text()


def test_selftest_tents(tmp_path):
    code = run(["selftest-tents"], tmp_path)
    assert code == 0
    assert "worst entrywise error" in (tmp_path / "report.txt").read_text()


def test_catalog_listing(tmp_path):
    code = run(["catalog"], tmp_path)
    assert code == 0
    report = (tmp_path / "report.txt").read_text()
    assert "witness_W" in report and "ex5_5" in report


def test_assemble_dump_config_roundtrip(tmp_path):
    code = run(["assemble", "--catalog", "witness_W", "--grid", "4",
                "--dump-config"], tmp_path)
    assert code == 0
    cfg = (tmp_path / "system.cfg").read_text()
    from possem.config import build_system, dump_system
    sys_, _ = build_system(cfg)
    assert dump_system(sys_) == cfg
    assert (tmp_path / "stiffness.txt").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 2\nm = 1\n")      # missing box
    assert main(["decouple", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["decouple", "--catalog", "nope", "--out", str(tmp_path)]) == 2


def test_seeded_catalog_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir(); out2.mkdir()
    assert main(["decouple", "--catalog", "rand_coupled(3)", "--out", str(out1)]) == 0
    assert main(["decouple", "--catalog", "rand_coupled(3)", "--out", str(out2)]) == 0
    assert (out1 / "witness.csv").read_bytes() == (out2 / "witness.csv").read_bytes()
    assert (out1 / "report.txt").read_text() == (out2 / "report.txt").read_text()


def test_json_mirror(tmp_path):
    code = run(["decouple", "--catalog", "ex1_3", "--json"], tmp_path)
    assert code == 0
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["decision"] == "positive-decoupled"


def test_witness_subcommand(tmp_path):
    code = run(["witness", "--catalog", "witness_W"], tmp_path)
    assert code == 0
    assert "NOT-POSITIVE" in (tmp_path / "report.txt").read_text()
    for command in ("catalog", "selftest-tents"):     # they load no system
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", "5"], tmp_path)
        assert exc.value.code == 2
    code = run(["witness", "--catalog", "scalar_heat"], tmp_path)
    assert code == 0
    assert "no witness exists" in (tmp_path / "report.txt").read_text()


def test_precondition_failure_exit_code(tmp_path):
    # declared coercivity constant above the true one: precondition trips,
    # reported as a numerical failure
    cfg = tmp_path / "bad_mu.cfg"
    cfg.write_text(
        "d = 2\nm = 1\nbox = 0 1 0 1\nmu = 50\n"
        "[coeff 1 1]\nkind = constant\nentry 1 1 = [1, 0]\n"
        "[coeff 2 2]\nkind = constant\nentry 1 1 = [1, 0]\n")
    assert main(["decouple", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_out_directory_is_created(tmp_path):
    out = tmp_path / "results" / "nested"
    assert main(["decouple", "--catalog", "ex1_3", "--grid", "32", "--out", str(out)]) == 0
    assert "POSITIVE-DECOUPLED" in (out / "report.txt").read_text()
    assert (out / "coefficients_1.csv").exists()


def test_seed_without_seeded_generator_is_rejected(tmp_path, capsys):
    assert run(["decouple", "--catalog", "ex1_3", "--seed", "5"], tmp_path) == 2
    assert run(["decouple", "--catalog", "rand_coupled(3)", "--seed", "5"], tmp_path) == 2
    assert "--seed 5 would be ignored" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()
    assert run(["decouple", "--catalog", "rand_coupled", "--seed", "3"], tmp_path) == 0
    assert "NOT-POSITIVE" in (tmp_path / "report.txt").read_text()
    for command in ("catalog", "selftest-tents"):     # they load no system
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", "5"], tmp_path)
        assert exc.value.code == 2


def test_bc_overrides_config(tmp_path):
    cfg = tmp_path / "free.cfg"
    cfg.write_text(
        "d = 2\nm = 1\nbox = 0 1 0 1\nbc = free\nmu = 0.5\n"
        "[coeff 1 1]\nkind = constant\nentry 1 1 = [1, 0]\n"
        "[coeff 2 2]\nkind = constant\nentry 1 1 = [1, 0]\n")
    assert run(["assemble", "--config", str(cfg), "--grid", "4"], tmp_path) == 0
    assert "25 degrees of freedom (free)" in (tmp_path / "report.txt").read_text()
    assert run(["assemble", "--config", str(cfg), "--bc", "dirichlet",
                "--grid", "4"], tmp_path) == 0
    assert "9 degrees of freedom (dirichlet)" in (tmp_path / "report.txt").read_text()


INLINE_D2 = "d = 2\nm = 1\nbox = 0 1 0 1\nmu = 0\n"


@pytest.mark.parametrize("text, message", [
    ("catalog = rand_coupled\n", "line 1: rand_coupled is seeded"),
    ("catalog = ex1_3\nseed = 3\n", "line 2: seed = 3 would be ignored"),
    ("catalog = rand_coupled(3)\nseed = 3\n", "line 2: seed = 3 would be ignored"),
    ("catalog = ex1_3\nbc = neumann\n", "line 2: bc must be"),
    (INLINE_D2 + "bc = neumann\n", "line 5: bc must be"),
    (INLINE_D2 + "[coeff 1 1]\nkind = constant\n[coeff 3 1]\nkind = constant\n",
     "line 7: coefficient (3, 1) out of range for d = 2"),
    (INLINE_D2 + "mue = 3\n", "line 5: mue = 3 would be ignored: an inline config"),
    (INLINE_D2 + "seed = 4\n", "line 5: seed = 4 would be ignored: an inline config"),
    (INLINE_D2 + "[coeff 1 1]\nkind = polynomial\nterm 1 1 = -1 0 : [1, 0]\n",
     "line 7: need 2 exponents >= 0 of sum at most 6"),
    (INLINE_D2 + "[coeff 1 1]\nkind = polynomial\nterm 1 1 = 4 3 : [1, 0]\n",
     "line 7: need 2 exponents >= 0 of sum at most 6"),
    ("d = 2\nm = 0\nbox = 0 1 0 1\n", "line 2: m must be at least 1, got 0"),
    ("d = 2\nm = -1\nbox = 0 1 0 1\n", "line 2: m must be at least 1, got -1"),
    ("d = 2\nm = 1\nbox = 1 0 0 1\n",
     "line 3: box intervals must be finite with positive length"),
    (INLINE_D2 + "[coeff 1 1]\nkind = constant\nentry 1 1 = [inf, 0]\n",
     "line 7: non-finite number in pair '[inf, 0]'"),
    ("d = 2\nm = 1\nbox = 0 1 0 1\nmu = nan\n", "line 4: mu must be finite, got nan"),
], ids=["unseeded", "ignored-seed", "seed-on-named-seed", "bc-catalog", "bc-inline",
        "coeff-out-of-range", "unknown-inline-key", "seed-inline", "negative-exponent",
        "past-degree-cap", "m-zero", "m-negative", "reversed-box", "inf-entry", "nan-mu"])
def test_config_mistakes_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(text)
    assert run(["check-elliptic", "--config", str(cfg)], tmp_path) == 2
    assert message in capsys.readouterr().err


ARGUMENT_MISTAKES = [
    ("probe --catalog ex1_3 --kl 3 1", "--kl 3 1: indices must lie in 1..2"),
    ("probe --catalog ex1_3 --kl 0 1", "--kl 0 1: indices must lie in 1..2"),
    ("probe --catalog ex1_3 --point 0.5", "--point needs 2 coordinates, got 1"),
    ("analyze --catalog ex1_3 --point 0.5", "--point needs 2 coordinates, got 1"),
    ("probe --catalog ex1_3 --point 9 0",
     "--point 9 0: must lie strictly inside the box [-4, 4] x [-4, 4]"),
    ("probe --catalog ex1_3 --point 4 0",
     "--point 4 0: must lie strictly inside the box [-4, 4] x [-4, 4]"),
    ("analyze --catalog ex1_3 --point 9 0", "--point 9 0: must lie in the box [-4, 4] x [-4, 4]"),
    ("assemble --catalog ex1_3 --grid 0", "--grid 0: need >= 1 cell per dimension"),
    ("positivity --catalog ex1_3 --grid 0", "--grid 0: need >= 1 cell per dimension"),
    ("decouple --catalog witness_W --grid 0", "--grid 0: need >= 1 sample per axis"),
    ("witness --catalog witness_W --grid 0", "--grid 0: need >= 1 sample per axis"),
    ("decouple --catalog witness_W --grid -3", "--grid -3: need >= 1 sample per axis"),
    ("positivity --catalog scalar_heat --grid 1",
     "--grid 1: zero-trace grid needs >= 2 cells per dimension"),
    ("positivity --catalog scalar_heat --times -1",
     "--times must be positive and finite, got -1.0"),
    ("positivity --catalog scalar_heat --bc free --grid 4 --times inf",
     "--times must be positive and finite, got inf"),
    ("positivity --catalog scalar_heat --times 0.1 nan",
     "--times must be positive and finite, got 0.1 nan"),
]


@pytest.mark.parametrize("argv, message", ARGUMENT_MISTAKES,
                         ids=[argv for argv, _ in ARGUMENT_MISTAKES])
def test_argument_mistakes_exit_2(tmp_path, capsys, argv, message):
    assert run(argv.split(), tmp_path) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {message}\n"
    assert not (tmp_path / "report.txt").exists()


def readme_commands():
    """The ``possem ...`` lines of README's "Command line" block, as argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("possem ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(tmp_path, argv):
    # argparse keeps the last --out, so the run writes into tmp_path only
    assert run(argv, tmp_path) == 0
    assert (tmp_path / "report.txt").exists()


def test_readme_library_example(capsys):
    # the "Library" block runs as printed, and its comments hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    decision, claim, scan = capsys.readouterr().out.splitlines()
    w = scope["w"]
    assert decision == "not-positive"
    assert abs(w.value - 4.0) <= 1e-12 and w.value > w.threshold
    assert claim == f"{w.value} > {w.threshold}"
    assert scan == "NEGATIVE-FOUND"
