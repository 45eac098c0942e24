import itertools
import math
import re

import pytest

from dinerq import ewl
from dinerq.circuit import Circuit, CNOTGate, CZGate, MeasureGate, U3Gate, build_game_circuit
from dinerq.errors import GameError, QasmError
from dinerq.qasm import HEADER, export_qasm, import_qasm


def test_export_format():
    circuit = Circuit((U3Gate(math.pi, math.pi, math.pi, 1),))
    text = export_qasm(circuit)
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[4];"
    assert lines[3] == "creg c[4];"
    assert lines[4] == "u3(pi,pi,pi) q[1];"


def test_symbolic_angles():
    text = export_qasm(
        Circuit((U3Gate(math.pi / 2, math.pi / 2, -math.pi / 2, 0), U3Gate(0.0, 0.25, -1.5, 3)))
    )
    assert "u3(pi/2,pi/2,-pi/2) q[0];" in text
    assert "u3(0,0.25,-1.5) q[3];" in text


def test_two_qubit_and_measure_lines():
    circuit = Circuit((CZGate(0, 1), CNOTGate(2, 3), MeasureGate(1, 1)))
    text = export_qasm(circuit)
    assert "cz q[0],q[1];" in text
    assert "cx q[2],q[3];" in text
    assert "measure q[1] -> c[1];" in text


def test_game_circuit_has_four_measure_lines():
    text = export_qasm(build_game_circuit(ewl.StrategyProfile.from_letters("AAAA")))
    assert sum(1 for line in text.splitlines() if line.startswith("measure")) == 4


def test_round_trip_all_81_game_circuits():
    for combo in itertools.product("CEA", repeat=4):
        circuit = build_game_circuit(ewl.StrategyProfile.from_letters("".join(combo)))
        again = import_qasm(export_qasm(circuit))
        assert again.gates == circuit.gates


def test_round_trip_decimal_angles():
    circuit = Circuit((U3Gate(1.2345678901234567, -0.5, 3.0, 2),))
    assert import_qasm(export_qasm(circuit)).gates == circuit.gates


def test_unsupported_gate_named():
    text = export_qasm(Circuit(())) + "h q[0];\n"
    with pytest.raises(QasmError, match="'h'"):
        import_qasm(text)


def test_missing_header():
    with pytest.raises(QasmError, match="line 1"):
        import_qasm("qreg q[4];\n")
    with pytest.raises(QasmError, match="line 2"):
        import_qasm('OPENQASM 2.0;\nqreg q[4];\n')


def test_truncated_header():
    # the error names the line where the first missing header line belongs
    for present in (1, 2, 3):
        text = "\n".join(HEADER[:present]) + "\n"
        with pytest.raises(QasmError, match=re.escape(repr(HEADER[present]))) as exc:
            import_qasm(text)
        assert exc.value.lineno == present + 1


@pytest.mark.parametrize(
    "line",
    ["u3(0,0,0) q[4];", "cx q[0],q[4];", "cz q[4],q[1];", "measure q[4] -> c[0];",
     "measure q[0] -> c[4];"],
)
def test_register_index_beyond_the_register_is_game_error(line):
    with pytest.raises(GameError, match=r"\b4\b"):
        import_qasm(export_qasm(Circuit(())) + line + "\n")


def test_parse_errors_carry_line_numbers():
    text = export_qasm(Circuit(())) + "u3(pi,pi) q[0];\n"
    with pytest.raises(QasmError, match="line 5"):
        import_qasm(text)
    text = export_qasm(Circuit(())) + "u3(frog,0,0) q[0];\n"
    with pytest.raises(QasmError, match="frog"):
        import_qasm(text)


def test_blank_lines_and_comments_skipped():
    text = export_qasm(Circuit((CZGate(0, 1),)))
    padded = text.replace("cz", "\n// a comment\ncz")
    assert import_qasm(padded).gates == (CZGate(0, 1),)


@pytest.mark.parametrize(
    "angle", ["pi/0", "-pi/0", "nan", "-nan", "inf", "-inf", "infinity", "1e999"]
)
def test_bad_angle_is_qasm_error_with_line(angle):
    text = export_qasm(Circuit(())) + f"u3({angle},0,0) q[0];\n"
    with pytest.raises(QasmError, match="line 5") as exc:
        import_qasm(text)
    assert exc.value.lineno == 5


@pytest.mark.parametrize(
    "line", ["u3(0,0,0) q[{}];", "cz q[0],q[{}];", "measure q[0] -> c[{}];"]
)
def test_overlong_register_index_is_qasm_error(line):
    # int() refuses more than 4,300 digits with a plain ValueError
    text = export_qasm(Circuit(())) + line.format("1" * 5000) + "\n"
    with pytest.raises(QasmError, match="line 5"):
        import_qasm(text)
