//! OpenQASM 2.0 (subset) import and export.
//!
//! Supports the gate vocabulary the benchmarks use — `h x y z s sdg t tdg
//! sx cx cz ccx swap rz ry rx u1 p id barrier` — over a single quantum
//! register, plus the non-unitary statements `measure q[a] -> c[b]`,
//! `reset q[a]` and classically controlled gates `if (c==v) gate` over a
//! single classical register of at most 64 bits. This is enough to
//! round-trip every circuit this workspace generates (including the
//! teleportation benchmark) and to load common benchmark files.
//!
//! # Examples
//!
//! ```
//! use aq_circuits::qasm::{parse_qasm, to_qasm};
//!
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     h q[0];
//!     cx q[0], q[1];
//! "#;
//! let c = parse_qasm(src)?;
//! assert_eq!(c.n_qubits(), 2);
//! assert_eq!(c.len(), 2);
//! let text = to_qasm(&c).expect("gate circuits always serialise");
//! assert!(text.contains("cx q[0], q[1];"));
//! # Ok::<(), aq_circuits::qasm::ParseQasmError>(())
//! ```

use std::error::Error;
use std::fmt;

use aq_dd::GateMatrix;

use crate::{Circuit, Op};

/// Error produced by [`parse_qasm`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

/// Parses an OpenQASM 2.0 subset into a [`Circuit`].
///
/// # Errors
///
/// Returns an error for unknown gates, malformed statements, missing or
/// repeated `qreg`/`creg` declarations, out-of-range qubit or classical
/// bit indices, or `if` conditions that are not of the form `c == value`.
/// `barrier`, `id` and comments are accepted and ignored.
pub fn parse_qasm(src: &str) -> Result<Circuit, ParseQasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut reg_name = String::new();
    let mut creg: Option<(String, u32)> = None;

    for (lineno, raw_line) in src.lines().enumerate() {
        let lineno = lineno + 1;
        // strip // comments
        let line = raw_line.split("//").next().unwrap_or("");
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let lower = stmt.to_ascii_lowercase();
            if lower.starts_with("openqasm") || lower.starts_with("include") {
                continue;
            }
            if let Some(rest) = lower.strip_prefix("qreg") {
                if circuit.is_some() {
                    return Err(ParseQasmError::new(lineno, "multiple qreg declarations"));
                }
                let (name, size) = parse_reg(rest.trim(), lineno)?;
                reg_name = name;
                let mut c = Circuit::new(size);
                if let Some((_, bits)) = &creg {
                    c.widen_cbits(*bits);
                }
                circuit = Some(c);
                continue;
            }
            if lower.starts_with("creg") {
                if creg.is_some() {
                    return Err(ParseQasmError::new(lineno, "multiple creg declarations"));
                }
                let (name, size) = parse_reg(stmt[4..].trim(), lineno)?;
                if size > 64 {
                    return Err(ParseQasmError::new(
                        lineno,
                        "classical register is limited to 64 bits",
                    ));
                }
                if let Some(c) = circuit.as_mut() {
                    c.widen_cbits(size);
                }
                creg = Some((name, size));
                continue;
            }
            if lower.starts_with("barrier") {
                continue;
            }
            let c = circuit
                .as_mut()
                .ok_or_else(|| ParseQasmError::new(lineno, "gate before qreg declaration"))?;
            parse_stmt(c, &reg_name, &creg, stmt, lineno)?;
        }
    }
    circuit.ok_or_else(|| ParseQasmError::new(0, "no qreg declaration found"))
}

/// Dispatches one statement: `measure`, `reset`, `if (...)` or a gate.
fn parse_stmt(
    c: &mut Circuit,
    reg: &str,
    creg: &Option<(String, u32)>,
    stmt: &str,
    lineno: usize,
) -> Result<(), ParseQasmError> {
    let lower = stmt.to_ascii_lowercase();
    if lower.starts_with("measure") {
        let (qubit, cbit) = parse_measure(&stmt[7..], reg, creg, c.n_qubits(), lineno)?;
        c.push_measure(qubit, cbit);
        return Ok(());
    }
    if lower.starts_with("reset") {
        let qubit = parse_qubit(stmt[5..].trim(), reg, c.n_qubits(), lineno)?;
        c.push_reset(qubit);
        return Ok(());
    }
    if lower.starts_with("if") {
        let (value, body) = parse_condition(&stmt[2..], creg, lineno)?;
        // Parse the body into a scratch circuit: a `swap` body expands to
        // three CNOTs, each of which gets its own conditional wrapper.
        let mut scratch = Circuit::new(c.n_qubits());
        parse_gate_stmt(&mut scratch, reg, body, lineno)?;
        for op in scratch.iter() {
            let Op::Gate { .. } = op else {
                return Err(ParseQasmError::new(
                    lineno,
                    "conditional bodies must be unitary gates",
                ));
            };
            c.push_conditional(value, op.clone());
        }
        return Ok(());
    }
    parse_gate_stmt(c, reg, stmt, lineno)
}

/// Parses `q[a] -> c[b]` (the part of a measure statement after the keyword).
fn parse_measure(
    rest: &str,
    reg: &str,
    creg: &Option<(String, u32)>,
    n_qubits: u32,
    lineno: usize,
) -> Result<(u32, u32), ParseQasmError> {
    let Some((name, bits)) = creg else {
        return Err(ParseQasmError::new(
            lineno,
            "measure before creg declaration",
        ));
    };
    let (q, cb) = rest.split_once("->").ok_or_else(|| {
        ParseQasmError::new(lineno, "malformed measure (expected `q[a] -> c[b]`)")
    })?;
    let qubit = parse_qubit(q.trim(), reg, n_qubits, lineno)?;
    let cbit = parse_qubit(cb.trim(), name, *bits, lineno)
        .map_err(|e| ParseQasmError::new(lineno, format!("in measure target: {}", e.message)))?;
    Ok((qubit, cbit))
}

/// Parses `(c == value) body` (the part of an `if` statement after the
/// keyword), returning the comparison value and the body statement.
fn parse_condition<'a>(
    rest: &'a str,
    creg: &Option<(String, u32)>,
    lineno: usize,
) -> Result<(u64, &'a str), ParseQasmError> {
    let Some((name, bits)) = creg else {
        return Err(ParseQasmError::new(lineno, "if before creg declaration"));
    };
    let rest = rest.trim_start();
    let inner = rest
        .strip_prefix('(')
        .ok_or_else(|| ParseQasmError::new(lineno, "malformed if (expected `if (c==v) gate`)"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| ParseQasmError::new(lineno, "unclosed if condition"))?;
    let cond = &inner[..close];
    let body = inner[close + 1..].trim();
    let (lhs, rhs) = cond
        .split_once("==")
        .ok_or_else(|| ParseQasmError::new(lineno, "if condition must be `creg == value`"))?;
    if lhs.trim() != name {
        return Err(ParseQasmError::new(
            lineno,
            format!("unknown register `{}` in if condition", lhs.trim()),
        ));
    }
    let value: u64 = rhs
        .trim()
        .parse()
        .map_err(|_| ParseQasmError::new(lineno, "bad value in if condition"))?;
    if *bits < 64 && value >= 1u64 << *bits {
        return Err(ParseQasmError::new(
            lineno,
            format!("if condition value {value} exceeds the {bits}-bit register"),
        ));
    }
    if body.is_empty() {
        return Err(ParseQasmError::new(lineno, "if condition without a body"));
    }
    Ok((value, body))
}

fn parse_reg(rest: &str, lineno: usize) -> Result<(String, u32), ParseQasmError> {
    // form: name[size]
    let open = rest
        .find('[')
        .ok_or_else(|| ParseQasmError::new(lineno, "malformed qreg"))?;
    let close = rest
        .find(']')
        .ok_or_else(|| ParseQasmError::new(lineno, "malformed qreg"))?;
    let name = rest[..open].trim().to_string();
    let size: u32 = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseQasmError::new(lineno, "bad register size"))?;
    if size == 0 {
        return Err(ParseQasmError::new(
            lineno,
            "register size must be positive",
        ));
    }
    Ok((name, size))
}

fn parse_gate_stmt(
    c: &mut Circuit,
    reg: &str,
    stmt: &str,
    lineno: usize,
) -> Result<(), ParseQasmError> {
    // split "name(params) q[a], q[b]"
    let (head, args_str) = match stmt.find(|ch: char| ch.is_whitespace()) {
        Some(i) => stmt.split_at(i),
        None => {
            return Err(ParseQasmError::new(
                lineno,
                format!("malformed statement `{stmt}`"),
            ))
        }
    };
    let (name, params) = match head.find('(') {
        Some(i) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| ParseQasmError::new(lineno, "unclosed parameter list"))?;
            (&head[..i], parse_params(&head[i + 1..close], lineno)?)
        }
        None => (head, Vec::new()),
    };
    let name = name.trim().to_ascii_lowercase();
    if name == "id" || name == "barrier" {
        return Ok(());
    }

    let qubits: Vec<u32> = args_str
        .split(',')
        .map(|a| parse_qubit(a.trim(), reg, c.n_qubits(), lineno))
        .collect::<Result<_, _>>()?;
    // `cx q[0],q[0];` names no gate: a control cannot be its own target
    for (i, q) in qubits.iter().enumerate() {
        if qubits.iter().take(i).any(|p| p == q) {
            return Err(ParseQasmError::new(
                lineno,
                format!("`{name}` operands must be distinct qubits ({reg}[{q}] repeats)"),
            ));
        }
    }

    let one = |lineno: usize| -> Result<u32, ParseQasmError> {
        qubits
            .first()
            .copied()
            .filter(|_| qubits.len() == 1)
            .ok_or_else(|| ParseQasmError::new(lineno, format!("`{name}` takes one qubit")))
    };
    let param = |k: usize| -> Result<f64, ParseQasmError> {
        if params.len() == k + 1 {
            Ok(params[k])
        } else {
            Err(ParseQasmError::new(
                lineno,
                format!("`{name}` takes {} parameter(s)", k + 1),
            ))
        }
    };

    match name.as_str() {
        "h" => c.push_gate(GateMatrix::h(), one(lineno)?, &[]),
        "x" => c.push_gate(GateMatrix::x(), one(lineno)?, &[]),
        "y" => c.push_gate(GateMatrix::y(), one(lineno)?, &[]),
        "z" => c.push_gate(GateMatrix::z(), one(lineno)?, &[]),
        "s" => c.push_gate(GateMatrix::s(), one(lineno)?, &[]),
        "sdg" => c.push_gate(GateMatrix::sdg(), one(lineno)?, &[]),
        "t" => c.push_gate(GateMatrix::t(), one(lineno)?, &[]),
        "tdg" => c.push_gate(GateMatrix::tdg(), one(lineno)?, &[]),
        "sx" => c.push_gate(GateMatrix::sx(), one(lineno)?, &[]),
        "rz" => c.push_gate(GateMatrix::rz(param(0)?), one(lineno)?, &[]),
        "ry" => c.push_gate(GateMatrix::ry(param(0)?), one(lineno)?, &[]),
        "rx" => c.push_gate(GateMatrix::rx(param(0)?), one(lineno)?, &[]),
        "p" | "u1" => c.push_gate(GateMatrix::phase(param(0)?), one(lineno)?, &[]),
        "cx" | "cnot" => {
            let [a, b] = two(&qubits, &name, lineno)?;
            c.push_gate(GateMatrix::x(), b, &[(a, true)]);
        }
        "cz" => {
            let [a, b] = two(&qubits, &name, lineno)?;
            c.push_gate(GateMatrix::z(), b, &[(a, true)]);
        }
        "swap" => {
            let [a, b] = two(&qubits, &name, lineno)?;
            c.push_gate(GateMatrix::x(), b, &[(a, true)]);
            c.push_gate(GateMatrix::x(), a, &[(b, true)]);
            c.push_gate(GateMatrix::x(), b, &[(a, true)]);
        }
        "ccx" | "toffoli" => {
            if qubits.len() != 3 {
                return Err(ParseQasmError::new(lineno, "`ccx` takes three qubits"));
            }
            c.push_gate(
                GateMatrix::x(),
                qubits[2],
                &[(qubits[0], true), (qubits[1], true)],
            );
        }
        other => {
            return Err(ParseQasmError::new(
                lineno,
                format!("unsupported gate `{other}`"),
            ));
        }
    }
    Ok(())
}

fn two(qubits: &[u32], name: &str, lineno: usize) -> Result<[u32; 2], ParseQasmError> {
    if qubits.len() == 2 {
        Ok([qubits[0], qubits[1]])
    } else {
        Err(ParseQasmError::new(
            lineno,
            format!("`{name}` takes two qubits"),
        ))
    }
}

fn parse_qubit(arg: &str, reg: &str, n: u32, lineno: usize) -> Result<u32, ParseQasmError> {
    let open = arg
        .find('[')
        .ok_or_else(|| ParseQasmError::new(lineno, format!("malformed qubit `{arg}`")))?;
    let close = arg
        .find(']')
        .ok_or_else(|| ParseQasmError::new(lineno, format!("malformed qubit `{arg}`")))?;
    let name = arg[..open].trim();
    if !reg.is_empty() && name != reg {
        return Err(ParseQasmError::new(
            lineno,
            format!("unknown register `{name}`"),
        ));
    }
    let idx: u32 = arg[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseQasmError::new(lineno, "bad qubit index"))?;
    if idx >= n {
        return Err(ParseQasmError::new(
            lineno,
            format!("qubit index {idx} out of range"),
        ));
    }
    Ok(idx)
}

/// Parses a comma-separated parameter list supporting numeric literals and
/// the forms `pi`, `-pi`, `pi/k`, `-pi/k`, `k*pi/m` used by benchmark files.
fn parse_params(s: &str, lineno: usize) -> Result<Vec<f64>, ParseQasmError> {
    s.split(',')
        .map(|p| parse_angle(p.trim(), lineno))
        .collect()
}

fn parse_angle(s: &str, lineno: usize) -> Result<f64, ParseQasmError> {
    if let Ok(v) = s.parse::<f64>() {
        return Ok(v);
    }
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest.trim()),
        None => (false, s),
    };
    let value = if let Some((num, den)) = body.split_once('/') {
        let num = parse_pi_product(num.trim(), lineno)?;
        let den: f64 = den
            .trim()
            .parse()
            .map_err(|_| ParseQasmError::new(lineno, format!("bad angle `{s}`")))?;
        num / den
    } else {
        parse_pi_product(body, lineno)?
    };
    Ok(if neg { -value } else { value })
}

fn parse_pi_product(s: &str, lineno: usize) -> Result<f64, ParseQasmError> {
    if s.eq_ignore_ascii_case("pi") {
        return Ok(std::f64::consts::PI);
    }
    if let Some((k, pi)) = s.split_once('*') {
        if pi.trim().eq_ignore_ascii_case("pi") {
            let k: f64 = k
                .trim()
                .parse()
                .map_err(|_| ParseQasmError::new(lineno, format!("bad angle `{s}`")))?;
            return Ok(k * std::f64::consts::PI);
        }
    }
    s.parse::<f64>()
        .map_err(|_| ParseQasmError::new(lineno, format!("bad angle `{s}`")))
}

/// Error produced by [`to_qasm`]: the operation (by index) that has no
/// OpenQASM 2.0 spelling, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmExportError {
    op_index: usize,
    message: String,
}

impl QasmExportError {
    fn new(op_index: usize, message: impl Into<String>) -> Self {
        QasmExportError {
            op_index,
            message: message.into(),
        }
    }

    /// 0-based index of the circuit operation that cannot be serialised.
    pub fn op_index(&self) -> usize {
        self.op_index
    }
}

impl fmt::Display for QasmExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM export error at op {}: {}",
            self.op_index, self.message
        )
    }
}

impl Error for QasmExportError {}

/// Serialises a circuit to OpenQASM 2.0, including `measure`, `reset` and
/// classically controlled (`if (c==v) gate`) statements. When the circuit
/// uses classical bits a `creg c[n];` declaration follows the `qreg` line,
/// so the output reparses to an equivalent circuit byte-stably:
/// `to_qasm(parse_qasm(text)) == text` for text this function produced.
///
/// # Errors
///
/// Returns an error if the circuit contains quantum-walk operators
/// ([`Op::MatchingEvolution`] / [`Op::Permutation`]) or gates outside the
/// QASM 2 vocabulary (plain QASM 2 has no controlled form beyond `cx`,
/// `cz` and `ccx`).
pub fn to_qasm(circuit: &Circuit) -> Result<String, QasmExportError> {
    use std::fmt::Write as _;
    let mut out = String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    if circuit.n_cbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.n_cbits());
    }
    for (i, op) in circuit.iter().enumerate() {
        write_op(&mut out, i, op, "")?;
    }
    Ok(out)
}

/// Serialises one operation as a statement line, with `prefix` (empty or a
/// rendered `if (...) ` condition) before the gate name.
fn write_op(out: &mut String, i: usize, op: &Op, prefix: &str) -> Result<(), QasmExportError> {
    use std::fmt::Write as _;
    let (matrix, target, controls) = match op {
        Op::Measure { qubit, cbit } => {
            let _ = writeln!(out, "measure q[{qubit}] -> c[{cbit}];");
            return Ok(());
        }
        Op::Reset { qubit } => {
            let _ = writeln!(out, "reset q[{qubit}];");
            return Ok(());
        }
        Op::Conditional { value, op } => {
            if !prefix.is_empty() {
                return Err(QasmExportError::new(i, "nested if has no QASM 2 spelling"));
            }
            return write_op(out, i, op, &format!("if (c=={value}) "));
        }
        Op::Gate {
            matrix,
            target,
            controls,
        } => (matrix, target, controls),
        _ => {
            return Err(QasmExportError::new(
                i,
                "cannot serialise walk operators to QASM 2",
            ));
        }
    };
    let name = matrix.name();
    let base = name.split('(').next().unwrap_or(name).to_ascii_lowercase();
    let param = name
        .find('(')
        .map(|i| name[i..].to_string())
        .unwrap_or_default();
    match (base.as_str(), controls.len()) {
        (_, 0) => {
            let q = format!("q[{target}]");
            let g = match base.as_str() {
                "h" | "x" | "y" | "z" | "s" | "sdg" | "t" | "tdg" | "sx" => base.clone(),
                "p" => format!("u1{param}"),
                "rz" | "ry" | "rx" => format!("{base}{param}"),
                other => {
                    return Err(QasmExportError::new(
                        i,
                        format!("gate `{other}` has no QASM 2 spelling"),
                    ));
                }
            };
            let _ = writeln!(out, "{prefix}{g} {q};");
        }
        ("x", 1) if controls[0].1 => {
            let _ = writeln!(out, "{prefix}cx q[{}], q[{target}];", controls[0].0);
        }
        ("z", 1) if controls[0].1 => {
            let _ = writeln!(out, "{prefix}cz q[{}], q[{target}];", controls[0].0);
        }
        ("x", 2) if controls.iter().all(|c| c.1) => {
            let _ = writeln!(
                out,
                "{prefix}ccx q[{}], q[{}], q[{target}];",
                controls[0].0, controls[1].0
            );
        }
        _ => {
            return Err(QasmExportError::new(
                i,
                format!(
                    "controlled `{base}` with {} controls has no QASM 2 spelling",
                    controls.len()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::EngineError;
    use aq_testutil::TestResult;

    #[test]
    fn parse_basic_program() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            creg c[3];
            h q[0];        // comment
            t q[1]; tdg q[2];
            cx q[0], q[1];
            ccx q[0], q[1], q[2];
            rz(pi/4) q[0];
            u1(-pi/2) q[1];
            measure q[0] -> c[0];
        "#;
        let c = parse_qasm(src).expect("parse");
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.n_cbits(), 3);
        assert_eq!(c.len(), 8);
        assert!(matches!(
            c.iter().last(),
            Some(Op::Measure { qubit: 0, cbit: 0 })
        ));
    }

    #[test]
    fn parse_measurement_statements() {
        let src = r#"
            OPENQASM 2.0;
            qreg q[3];
            creg c[2];
            h q[0];
            measure q[0] -> c[1];
            reset q[2];
            if (c==2) x q[1];
            if(c==1) swap q[0], q[2];
        "#;
        let c = parse_qasm(src).expect("parse");
        assert_eq!(c.n_cbits(), 2);
        let ops: Vec<&Op> = c.iter().collect();
        // h, measure, reset, 1 conditional x, 3 conditional cx (swap)
        assert_eq!(ops.len(), 7);
        assert!(matches!(ops[1], Op::Measure { qubit: 0, cbit: 1 }));
        assert!(matches!(ops[2], Op::Reset { qubit: 2 }));
        assert!(matches!(ops[3], Op::Conditional { value: 2, .. }));
        assert!(matches!(ops[6], Op::Conditional { value: 1, .. }));
    }

    #[test]
    fn measurement_parse_errors_are_located() {
        let err =
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\nmeasure q[0] -> c[0];").expect_err("no creg");
        assert!(err.to_string().contains("measure before creg"), "{err}");

        let err = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nif (c==5) x q[0];")
            .expect_err("value too wide");
        assert!(err.to_string().contains("exceeds"), "{err}");

        let err =
            parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nif (c==1) measure q[0] -> c[0];")
                .expect_err("nonunitary body");
        assert!(err.to_string().contains("unsupported gate"), "{err}");

        let err = parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg c[80];").expect_err("creg too wide");
        assert!(err.to_string().contains("limited to 64 bits"), "{err}");
    }

    #[test]
    fn roundtrip_measurement_is_byte_stable() {
        // export → parse → export must reproduce the text byte-for-byte
        let mut c = Circuit::new(3);
        c.push_gate(GateMatrix::t(), 0, &[]);
        c.extend_from(&crate::teleport());
        let text = to_qasm(&c).expect("teleport serialises");
        assert!(text.contains("creg c[2];"), "{text}");
        assert!(text.contains("measure q[1] -> c[0];"), "{text}");
        assert!(text.contains("if (c==3) z q[2];"), "{text}");
        let reparsed = parse_qasm(&text).expect("reparse");
        assert_eq!(reparsed.n_cbits(), 2);
        let text2 = to_qasm(&reparsed).expect("re-export");
        assert_eq!(text, text2, "round trip must be byte-stable");
    }

    #[test]
    fn parse_angles() {
        assert!((parse_angle("pi", 1).unwrap() - std::f64::consts::PI).abs() < 1e-15);
        assert!((parse_angle("-pi/2", 1).unwrap() + std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert!((parse_angle("3*pi/4", 1).unwrap() - 2.356194490192345).abs() < 1e-12);
        assert!((parse_angle("0.5", 1).unwrap() - 0.5).abs() < 1e-15);
        assert!(parse_angle("wat", 1).is_err());
    }

    #[test]
    fn repeated_operands_are_parse_errors() {
        for (stmt, gate) in [
            ("cx q[0],q[0];", "cx"),
            ("cz q[2], q[2];", "cz"),
            ("swap q[1],q[1];", "swap"),
            ("ccx q[0],q[1],q[0];", "ccx"),
            ("if (c==1) cx q[1],q[1];", "cx"),
        ] {
            let src = format!("OPENQASM 2.0;\nqreg q[3];\ncreg c[1];\n{stmt}");
            let err = parse_qasm(&src).expect_err(stmt);
            assert_eq!(err.line(), 4, "{stmt}");
            assert!(
                err.to_string()
                    .contains(&format!("`{gate}` operands must be distinct")),
                "{stmt}: {err}"
            );
        }
        // distinct operands still parse
        assert!(parse_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];").is_ok());
    }

    #[test]
    fn errors_are_located() {
        let err = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];").expect_err("bad gate");
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("unsupported gate `foo`"));

        let err = parse_qasm("OPENQASM 2.0;\nh q[0];").expect_err("no qreg");
        assert!(err.to_string().contains("gate before qreg"));

        let err = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[4];").expect_err("range");
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn roundtrip_preserves_semantics() -> TestResult {
        use aq_dd::QomegaContext;
        // grover(2)'s MCZ is a plain cz, so the whole circuit round-trips
        let small = crate::grover(2, 1);
        let text = to_qasm(&small).expect("grover(2) is pure gates");
        let reparsed = parse_qasm(&text).expect("reparse");
        let mut m1 = aq_dd::Manager::new(QomegaContext::new(), 2);
        let u1 = aq_sim_free_unitary(&mut m1, &small)?;
        let u2 = aq_sim_free_unitary(&mut m1, &reparsed)?;
        assert_eq!(u1, u2, "round trip must preserve the unitary");
        Ok(())
    }

    // local mini-builder (aq-sim depends on this crate, not vice versa)
    fn aq_sim_free_unitary(
        m: &mut aq_dd::Manager<aq_dd::QomegaContext>,
        c: &Circuit,
    ) -> Result<aq_dd::Edge<aq_dd::MatId>, EngineError> {
        let mut u = m.try_identity()?;
        for op in c.iter() {
            if let Op::Gate {
                matrix,
                target,
                controls,
            } = op
            {
                let g = m.try_gate(matrix, *target, controls)?;
                u = m.try_mat_mul(&g, &u)?;
            }
        }
        Ok(u)
    }

    #[test]
    fn swap_expands_to_three_cnots() {
        let c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nswap q[0], q[1];").expect("parse");
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn walk_ops_rejected_on_export() {
        let (c, _) = crate::bwt(crate::BwtParams {
            height: 2,
            steps: 1,
            seed: 0,
        });
        let err = to_qasm(&c).expect_err("walk operators have no QASM 2 spelling");
        assert!(
            err.to_string().contains("cannot serialise walk operators"),
            "{err}"
        );
        // the offending op index points past the gate prefix
        assert!(err.op_index() < c.len());
    }

    #[test]
    fn unsupported_controlled_gates_rejected_on_export() {
        // grover(4)'s multi-controlled Z has 3 controls — not QASM 2
        let c = crate::grover(4, 5);
        let err = to_qasm(&c).expect_err("mcz has no QASM 2 spelling");
        assert!(err.to_string().contains("no QASM 2 spelling"), "{err}");
    }
}
