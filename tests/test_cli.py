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
    lines = (tmp_path / "positivity.csv").read_text().splitlines()
    assert lines[0] == "t,min_entry_real,max_entry_imag"
    assert len(lines) == 4


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
    import json
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
