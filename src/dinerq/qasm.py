"""QASM 2.0 export and import for the {u3, cz, cx, measure} gate set.

Exported text is bit-exact:

    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[4];
    creg c[4];
    u3(pi,pi,pi) q[1];
    cz q[0],q[1];
    cx q[0],q[1];
    measure q[0] -> c[0];

Angles that are exactly 0, pi, pi/2 or -pi/2 print symbolically; anything
else prints as a 17-significant-digit decimal (which round-trips a double
exactly). The importer accepts only this subset and reports errors with the
offending line number.
"""

from __future__ import annotations

import math
import re

from .circuit import Circuit, CNOTGate, CZGate, Gate, MeasureGate, U3Gate
from .errors import QasmError

HEADER = ['OPENQASM 2.0;', 'include "qelib1.inc";', "qreg q[4];", "creg c[4];"]

_SYMBOLIC = {0.0: "0", math.pi: "pi", math.pi / 2: "pi/2", -math.pi / 2: "-pi/2"}


def _format_angle(x: float) -> str:
    for value, text in _SYMBOLIC.items():
        if x == value:
            return text
    return f"{x:.17g}"


def export_qasm(circuit: Circuit) -> str:
    lines = list(HEADER)
    for g in circuit.gates:
        if isinstance(g, U3Gate):
            angles = ",".join(_format_angle(a) for a in (g.theta, g.phi, g.lam))
            lines.append(f"u3({angles}) q[{g.target}];")
        elif isinstance(g, CZGate):
            lines.append(f"cz q[{g.a}],q[{g.b}];")
        elif isinstance(g, CNOTGate):
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif isinstance(g, MeasureGate):
            lines.append(f"measure q[{g.qubit}] -> c[{g.cbit}];")
        else:
            raise QasmError(0, f"cannot export gate {g!r}")
    return "\n".join(lines) + "\n"


_ANGLE_RE = re.compile(r"^(-?)pi(?:/(\d+))?$")
# Register indices of at most 9 digits: a longer one cannot name a qubit, and
# int() refuses more than 4,300 digits with a bare ValueError.
_U3_RE = re.compile(r"^u3\(([^)]*)\)\s+q\[(\d{1,9})\];$")
_TWOQ_RE = re.compile(r"^(cz|cx)\s+q\[(\d{1,9})\],\s*q\[(\d{1,9})\];$")
_MEASURE_RE = re.compile(r"^measure\s+q\[(\d{1,9})\]\s*->\s*c\[(\d{1,9})\];$")
_UNKNOWN_GATE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)")


def _parse_angle(text: str, lineno: int) -> float:
    text = text.strip()
    m = _ANGLE_RE.match(text)
    try:
        if m:
            value = math.pi / int(m.group(2) or 1)
            value = -value if m.group(1) else value
        else:
            value = float(text)
    except (ArithmeticError, ValueError):
        raise QasmError(lineno, f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise QasmError(lineno, f"angle {text!r} is not finite")
    return value


def import_qasm(text: str) -> Circuit:
    """Parse the emitted QASM subset back into a Circuit."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "OPENQASM 2.0;":
        raise QasmError(1, 'file must start with "OPENQASM 2.0;"')

    gates: list[Gate] = []
    expect_header = 1  # remaining HEADER lines to match
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if expect_header < len(HEADER):
            if line != HEADER[expect_header]:
                raise QasmError(lineno, f"expected {HEADER[expect_header]!r}, got {line!r}")
            expect_header += 1
            continue

        m = _U3_RE.match(line)
        if m:
            parts = m.group(1).split(",")
            if len(parts) != 3:
                raise QasmError(lineno, "u3 takes exactly 3 angles")
            theta, phi, lam = (_parse_angle(p, lineno) for p in parts)
            gates.append(U3Gate(theta, phi, lam, int(m.group(2))))
            continue
        m = _TWOQ_RE.match(line)
        if m:
            a, b = int(m.group(2)), int(m.group(3))
            gates.append(CZGate(a, b) if m.group(1) == "cz" else CNOTGate(a, b))
            continue
        m = _MEASURE_RE.match(line)
        if m:
            gates.append(MeasureGate(int(m.group(1)), int(m.group(2))))
            continue

        m = _UNKNOWN_GATE_RE.match(line)
        if m and m.group(1) not in ("u3", "cz", "cx", "measure"):
            raise QasmError(lineno, f"unsupported gate {m.group(1)!r}")
        raise QasmError(lineno, f"cannot parse {line!r}")

    if expect_header < len(HEADER):
        raise QasmError(len(lines) + 1, f"missing {HEADER[expect_header]!r}")
    return Circuit(tuple(gates))
