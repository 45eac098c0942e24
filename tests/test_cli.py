import csv
import io
import json
import math

import pytest

from dinerq.cli import main, parse_profile, parse_strategy_token
from dinerq.errors import GameError
from dinerq.qasm import import_qasm
from dinerq.circuit import simulate_circuit
from test_payoff import BAD_PAYOFF_CONFIGS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_profile_tokens():
    profile = parse_profile("C,E,C,E")
    assert profile.letters == "CECE"
    s = parse_strategy_token("theta=1.5:phi=0.5")
    assert s.name is None and s.theta == 1.5 and s.phi == 0.5
    with pytest.raises(GameError, match="Q"):
        parse_strategy_token("Q")
    with pytest.raises(GameError):
        parse_profile("C,E,C")


def test_simulate_text(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--profile", "A,A,A,A")
    assert code == 0
    assert "0000" in out
    assert "A=6.0000" in out


def test_simulate_json_deterministic(capsys):
    args = ("simulate", "--profile", "C,E,C,E", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc["distribution"]) == {"0101"}
    assert doc["distribution"]["0101"] == pytest.approx(1.0, abs=1e-9)
    assert doc["payoffs"][1] == pytest.approx(4.0, abs=1e-9)


def test_simulate_shots(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--profile", "C,C,C,C", "--shots", "1024", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"0000": 1024}


def test_shots_without_seed_fails(capsys):
    code, _, err = run_cli(capsys, "simulate", "--profile", "C,C,C,C", "--shots", "10")
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize(
    "shots,seed,message",
    [
        ("10", "-1", "seed must be >= 0"),
        (str(2**63), "1", "shots must be in"),
        ("99999999999999999999", "1", "shots must be in"),
    ],
)
def test_bad_shots_or_seed_is_error_exit(capsys, shots, seed, message):
    code, out, err = run_cli(
        capsys, "simulate", "--profile", "A,A,A,A", "--shots", shots, "--seed", seed
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_largest_shot_count_is_accepted(capsys):
    # The point mass puts every shot in one bin, so no large histogram is drawn.
    code, out, _ = run_cli(
        capsys, "simulate", "--profile", "C,C,C,C", "--model", "classical",
        "--shots", str(2**63 - 1), "--seed", "1", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["counts"] == {"0000": 2**63 - 1}


def test_bad_profile_token_fails(capsys):
    code, _, err = run_cli(capsys, "simulate", "--profile", "C,E,C,Q")
    assert code == 1
    assert "Q" in err


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2


def test_table_row_counts(capsys):
    _, out, _ = run_cli(capsys, "table", "--model", "classical", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 16
    _, out, _ = run_cli(capsys, "table", "--model", "quantum", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 81
    assert rows[0][0] == "profile" and len(rows[1]) == 1 + 16 + 4
    eeee = next(r for r in rows[1:] if r[0] == "EEEE")
    assert float(eeee[1 + 0b1111]) == pytest.approx(1.0, abs=1e-9)
    assert [float(v) for v in eeee[-4:]] == pytest.approx([1, 1, 1, 1], abs=1e-9)


def test_json_csv_numeric_agreement(capsys):
    _, csv_out, _ = run_cli(capsys, "table", "--model", "quantum", "--format", "csv")
    _, json_out, _ = run_cli(capsys, "table", "--model", "quantum", "--format", "json")
    rows = {r[0]: r for r in list(csv.reader(io.StringIO(csv_out)))[1:]}
    for row in json.loads(json_out)["rows"]:
        csv_row = rows[row["profile"]]
        for i, name in enumerate("ABCD"):
            a, b = row["payoffs"][i], float(csv_row[17 + i])
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_analyze_classical(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--model", "classical")
    assert "EEEE" in out
    assert "Dominant strategies: A=E  B=E  C=E  D=E" in out
    assert "Symmetric optima: CCCC" in out


def test_analyze_quantum(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--model", "quantum")
    assert "AAAA" in out
    assert "Deviation check: PASS" in out
    assert "EEEE is not an equilibrium" in out
    _, json_out, _ = run_cli(capsys, "analyze", "--model", "quantum", "--format", "json")
    doc = json.loads(json_out)
    assert doc["nash"] == ["AAAA"]
    assert len(doc["symmetric_optima"]) == 8
    assert "EEEE" not in doc["nash"]
    assert len(doc["aaaa_deviations"]) == 12


def test_sweep_corners(capsys):
    _, out, _ = run_cli(
        capsys, "sweep", "--player", "D", "--others", "EEE",
        "--theta-steps", "3", "--phi-steps", "3", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))[1:]
    grid = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert grid[(0.0, math.pi / 2)] == pytest.approx(8.0, abs=1e-9)
    assert grid[(math.pi, 0.0)] == pytest.approx(1.0, abs=1e-9)
    _, out, _ = run_cli(
        capsys, "sweep", "--player", "D", "--others", "CCC",
        "--theta-steps", "2", "--phi-steps", "2", "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))[1:]
    grid = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert grid[(0.0, 0.0)] == pytest.approx(6.0, abs=1e-9)


def test_sweep_bad_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--player", "D", "--others", "EEE", "--theta-steps", "1",
    )
    assert code == 1 and "steps" in err


def test_export_qasm_round_trip(capsys, tmp_path):
    out_file = tmp_path / "game.qasm"
    code, _, _ = run_cli(
        capsys, "export-qasm", "--profile", "A,A,A,A", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("OPENQASM 2.0;")
    dist = simulate_circuit(import_qasm(text))
    assert dist.as_dict()["0000"] == pytest.approx(1.0, abs=1e-9)


def test_custom_payoff_file(capsys, tmp_path):
    cfg = tmp_path / "payoffs.json"
    cfg.write_text(json.dumps({"symmetric": {"C": [6, 4, 3, 0], "E": [8, 4, 3, 1]}}))
    _, out, _ = run_cli(
        capsys, "simulate", "--profile", "A,A,A,A", "--payoffs", str(cfg),
        "--format", "json",
    )
    assert json.loads(out)["payoffs"] == pytest.approx([6, 6, 6, 6], abs=1e-9)


def test_bad_payoff_file(capsys, tmp_path):
    cfg = tmp_path / "payoffs.json"
    cfg.write_text("{}")
    code, _, err = run_cli(
        capsys, "simulate", "--profile", "A,A,A,A", "--payoffs", str(cfg)
    )
    assert code == 1 and "outcomes" in err


def test_classical_simulate_rejects_quantum_move(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--profile", "A,A,A,A", "--model", "classical"
    )
    assert code == 1 and "classical" in err


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"symmetric": {"C": "6430", "E": "8431"}}, "JSON array"),
        ({"symmetric": "CE"}, "symmetric"),
    ],
)
def test_malformed_symmetric_payoff_file(capsys, tmp_path, doc, message):
    cfg = tmp_path / "payoffs.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "simulate", "--profile", "A,A,A,A", "--payoffs", str(cfg)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_sweep_grid_bound_checked_before_kernel(capsys, monkeypatch):
    from dinerq import cli, ewl

    def kernel_must_not_run(*args):
        raise AssertionError("kernel called on an over-limit grid")

    monkeypatch.setattr(ewl, "batch_probabilities", kernel_must_not_run)
    steps = math.isqrt(cli.MAX_SWEEP_POINTS)
    assert steps * steps == cli.MAX_SWEEP_POINTS  # one more phi step goes over
    code, out, err = run_cli(
        capsys, "sweep", "--player", "D", "--others", "EEE",
        "--theta-steps", str(steps), "--phi-steps", str(steps + 1),
    )
    assert code == 1 and out == ""
    assert str(cli.MAX_SWEEP_POINTS) in err


def test_sweep_grid_at_bound_reaches_kernel(capsys, monkeypatch):
    from dinerq import cli, ewl

    class KernelReached(Exception):
        pass

    calls = []

    def stub_kernel(thetas, phis):
        calls.append(thetas.shape)
        raise KernelReached

    monkeypatch.setattr(ewl, "batch_probabilities", stub_kernel)
    steps = math.isqrt(cli.MAX_SWEEP_POINTS)
    with pytest.raises(KernelReached):
        main([
            "sweep", "--player", "D", "--others", "EEE",
            "--theta-steps", str(steps), "--phi-steps", str(steps),
        ])
    assert calls == [(cli.SWEEP_CHUNK, 4)]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--model", "classical", "--player", "D", "--others", "AAA"],
        ["export-qasm", "--profile", "A,A,A,A", "--format", "json"],
        ["export-qasm", "--profile", "A,A,A,A", "--payoffs", "payoffs.json"],
    ],
)
def test_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith("usage: dinerq")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", sorted(BAD_PAYOFF_CONFIGS))
def test_bad_payoff_file_is_error_exit(capsys, tmp_path, case):
    cfg = tmp_path / "payoffs.json"
    cfg.write_bytes(BAD_PAYOFF_CONFIGS[case])
    code, out, err = run_cli(capsys, "table", "--payoffs", str(cfg))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
