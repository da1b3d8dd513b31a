//! The line-delimited wire protocol: one JSON object per line, request in,
//! response out. This module is the one place that knows the wire format:
//! [`Request::parse`] and its exact inverse [`Request::render`] read and
//! write every request key through the [`key`] table, and
//! [`Response::render`] writes every reply.
//!
//! # Grammar
//!
//! ```text
//! request    = submit | sample | status | wait | metrics | drain | shutdown
//! submit     = {"verb":"submit", circuit..., "scheme":"numeric"|"qomega"|"gcd",
//!               ["eps":<f64>,] ["priority":0..=9,] ["top_k":<n>,]
//!               ["resume":"<path>",]
//!               "budget":{["max_nodes":n,]["max_weights":n,]
//!                         ["max_bits":n,]["deadline_secs":s]}}
//! sample     = {"verb":"sample", <submit fields except "resume">,
//!               ["shots":1..=1000000,] ["seed":<u64>]}
//! circuit    = "circuit":"grover","n":n,"marked":m
//!            | "circuit":"bwt","height":h,"steps":s[,"weld_seed":x]
//!            | "circuit":"gse"[,"precision_bits":b][,"trotter_slices":t]
//!            | "circuit":"qft","n":n
//!            | "qasm":"<inline OpenQASM 2.0>"
//! status     = {"verb":"status","job":id}
//! wait       = {"verb":"wait","job":id[,"timeout_secs":s]}
//! metrics    = {"verb":"metrics"}
//! drain      = {"verb":"drain"}
//! shutdown   = {"verb":"shutdown"}
//! ```
//!
//! Responses always carry `"ok"`: protocol-level failures (malformed
//! JSON, unknown verbs, oversized frames) are `{"ok":false,"error":...}`;
//! everything the service decided — including *rejected* submissions and
//! *aborted* jobs, which are valid outcomes — is `"ok":true` with a
//! `"state"` field. Frames are capped at [`MAX_FRAME_BYTES`].

use std::path::PathBuf;
use std::time::Duration;

use aq_circuits::{bwt, grover, qft, BwtParams, Circuit, GseParams};
use aq_dd::RunBudget;
use aq_sim::{SampleParams, SchemeSpec};

use crate::json::Json;
use crate::metrics::LATENCY_BUCKET_EDGES_US;
use crate::service::Response;

/// Hard cap on one request or response line, in bytes (including the
/// newline). Inline QASM must fit; bigger circuits belong in files.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Widest register the service admits. Wider jobs are rejected at
/// submission: amplitude extraction is `O(2ⁿ)` and a serving process must
/// not be wedged by one pathological request.
pub const MAX_QUBITS: u32 = 24;

/// Most shots one `sample` submission may request. Drawing is `O(n)` per
/// shot on the final DD, but fork-per-shot circuits (mid-circuit
/// measurement) re-simulate every shot, so the cap keeps one request from
/// monopolising a worker.
pub const MAX_SHOTS: u64 = 1_000_000;

/// Numeric tolerance ε of a `numeric` submission that names none.
pub const DEFAULT_EPS: f64 = 1e-10;

/// Top measurement probabilities reported when `top_k` is absent.
pub const DEFAULT_TOP_K: usize = 4;

/// Shots a `sample` submission draws when it names none.
pub const DEFAULT_SHOTS: u64 = 1024;

/// Sampler seed of a `sample` submission that names none.
pub const DEFAULT_SAMPLE_SEED: u64 = 0;

/// Weld permutation seed of a `bwt` circuit that names none.
pub const DEFAULT_WELD_SEED: u64 = 0xBD7;

/// Counting-register width of a `gse` circuit that names none.
pub const DEFAULT_GSE_PRECISION_BITS: u32 = 4;

/// Trotter slices of a `gse` circuit that names none.
pub const DEFAULT_GSE_TROTTER_SLICES: u32 = 1;

/// How long a `wait` without `timeout_secs` blocks.
pub const DEFAULT_WAIT_TIMEOUT: Duration = Duration::from_secs(60);

/// Prefix of an abort reason that marks the job retryable: its worker
/// died mid-job, the job itself was fine, and resubmitting reruns it
/// bit-identically.
pub const TRANSIENT_PREFIX: &str = "transient:";

/// Request keys, each spelled once. [`Request::parse`] reads them,
/// [`Request::render`] writes them, and `aq-cli` names its flags after
/// them (`top_k` is `--top-k`).
pub mod key {
    /// Which verb the line carries.
    pub const VERB: &str = "verb";
    /// Named circuit kind: `grover`, `bwt`, `gse` or `qft`.
    pub const CIRCUIT: &str = "circuit";
    /// Inline OpenQASM 2.0 source, in place of `circuit`.
    pub const QASM: &str = "qasm";
    /// Register width (`grover`, `qft`).
    pub const N: &str = "n";
    /// Marked element (`grover`).
    pub const MARKED: &str = "marked";
    /// Tree height (`bwt`).
    pub const HEIGHT: &str = "height";
    /// Trotter steps (`bwt`).
    pub const STEPS: &str = "steps";
    /// Weld permutation seed (`bwt`).
    pub const WELD_SEED: &str = "weld_seed";
    /// Counting-register width (`gse`).
    pub const PRECISION_BITS: &str = "precision_bits";
    /// Trotter slices (`gse`).
    pub const TROTTER_SLICES: &str = "trotter_slices";
    /// Weight system: `numeric`, `qomega` or `gcd`.
    pub const SCHEME: &str = "scheme";
    /// Numeric tolerance ε.
    pub const EPS: &str = "eps";
    /// Queue priority, 0..=9.
    pub const PRIORITY: &str = "priority";
    /// Top measurement probabilities to report.
    pub const TOP_K: &str = "top_k";
    /// Checkpoint path to resume from.
    pub const RESUME: &str = "resume";
    /// Shots to draw (`sample`).
    pub const SHOTS: &str = "shots";
    /// Sampler seed (`sample`).
    pub const SEED: &str = "seed";
    /// The resource-budget object.
    pub const BUDGET: &str = "budget";
    /// Node cap, inside `budget`.
    pub const MAX_NODES: &str = "max_nodes";
    /// Distinct-weight cap, inside `budget`.
    pub const MAX_WEIGHTS: &str = "max_weights";
    /// Coefficient bit-width cap, inside `budget`.
    pub const MAX_BITS: &str = "max_bits";
    /// Wall-clock deadline in seconds, inside `budget`.
    pub const DEADLINE_SECS: &str = "deadline_secs";
    /// Job id (`status`, `wait`).
    pub const JOB: &str = "job";
    /// How long `wait` blocks, in seconds.
    pub const TIMEOUT_SECS: &str = "timeout_secs";
}

/// What circuit a submission asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitSpec {
    /// Grover search over `n` qubits for `marked`.
    Grover {
        /// Data qubits.
        n: u32,
        /// Marked element.
        marked: u64,
    },
    /// Binary Welded Tree walk.
    Bwt {
        /// Tree height.
        height: u32,
        /// Trotter steps.
        steps: u32,
        /// Weld permutation seed.
        seed: u64,
    },
    /// Ground State Estimation (numeric schemes only — its rotation
    /// angles are not in `D[ω]`; algebraic runs abort fail-soft).
    Gse {
        /// Counting-register width.
        precision_bits: u32,
        /// Trotter slices.
        trotter_slices: u32,
    },
    /// Quantum Fourier transform on `n` qubits.
    Qft {
        /// Register width.
        n: u32,
    },
    /// Inline OpenQASM 2.0 source.
    Qasm(String),
}

impl CircuitSpec {
    /// The named circuit `kind` (`grover`, `bwt`, `gse` or `qft`), with
    /// its integer parameters read through `field` by [`key`]; absent
    /// optional parameters take their defaults. [`Request::parse`] reads
    /// them from the request object, `aq-cli` from its flags.
    ///
    /// # Errors
    ///
    /// An unknown kind, or a missing, ill-typed or oversized parameter.
    pub fn named(
        kind: &str,
        field: impl Fn(&str) -> Result<Option<u64>, String>,
    ) -> Result<CircuitSpec, String> {
        let int = |k: &str, default: Option<u64>| {
            field(k)?
                .or(default)
                .ok_or_else(|| format!("missing or non-integer field `{k}`"))
        };
        let small = |k: &str, default: Option<u32>| {
            let n = int(k, default.map(u64::from))?;
            u32::try_from(n).map_err(|_| format!("field `{k}` must fit in 32 bits, got {n}"))
        };
        Ok(match kind {
            "grover" => CircuitSpec::Grover {
                n: small(key::N, None)?,
                marked: int(key::MARKED, None)?,
            },
            "bwt" => CircuitSpec::Bwt {
                height: small(key::HEIGHT, None)?,
                steps: small(key::STEPS, None)?,
                seed: int(key::WELD_SEED, Some(DEFAULT_WELD_SEED))?,
            },
            "gse" => CircuitSpec::Gse {
                precision_bits: small(key::PRECISION_BITS, Some(DEFAULT_GSE_PRECISION_BITS))?,
                trotter_slices: small(key::TROTTER_SLICES, Some(DEFAULT_GSE_TROTTER_SLICES))?,
            },
            "qft" => CircuitSpec::Qft {
                n: small(key::N, None)?,
            },
            other => {
                return Err(format!(
                    "unknown circuit `{other}` (expected grover|bwt|gse|qft, or inline `qasm`)"
                ))
            }
        })
    }

    /// Builds the circuit and its start basis state, validating every
    /// parameter first — a bad request must come back as a rejection
    /// reason, never reach a panicking constructor.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason.
    pub fn build(&self) -> Result<(Circuit, u64), String> {
        match self {
            CircuitSpec::Grover { n, marked } => {
                if !(1..=MAX_QUBITS).contains(n) {
                    return Err(format!("grover: n must be in 1..={MAX_QUBITS}, got {n}"));
                }
                if *marked >= 1u64 << n {
                    return Err(format!("grover: marked {marked} out of range for n={n}"));
                }
                Ok((grover(*n, *marked), 0))
            }
            CircuitSpec::Bwt {
                height,
                steps,
                seed,
            } => {
                if !(1..=6).contains(height) {
                    return Err(format!("bwt: height must be in 1..=6, got {height}"));
                }
                if !(1..=10_000).contains(steps) {
                    return Err(format!("bwt: steps must be in 1..=10000, got {steps}"));
                }
                let (c, tree) = bwt(BwtParams {
                    height: *height,
                    steps: *steps,
                    seed: *seed,
                });
                Ok((c, tree.entrance()))
            }
            CircuitSpec::Gse {
                precision_bits,
                trotter_slices,
            } => {
                if !(1..=12).contains(precision_bits) {
                    return Err(format!(
                        "gse: precision_bits must be in 1..=12, got {precision_bits}"
                    ));
                }
                if !(1..=64).contains(trotter_slices) {
                    return Err(format!(
                        "gse: trotter_slices must be in 1..=64, got {trotter_slices}"
                    ));
                }
                let params = GseParams {
                    precision_bits: *precision_bits,
                    trotter_slices: *trotter_slices,
                    ..GseParams::default()
                };
                // the circuit prepares its own initial state (as the
                // figure harness does), so runs start from |0…0⟩
                Ok((aq_circuits::gse(&params), 0))
            }
            CircuitSpec::Qft { n } => {
                if !(1..=MAX_QUBITS).contains(n) {
                    return Err(format!("qft: n must be in 1..={MAX_QUBITS}, got {n}"));
                }
                Ok((qft(*n), 0))
            }
            CircuitSpec::Qasm(src) => {
                let c = aq_circuits::qasm::parse_qasm(src).map_err(|e| e.to_string())?;
                if c.n_qubits() > MAX_QUBITS {
                    return Err(format!(
                        "qasm: {} qubits exceeds the service limit of {MAX_QUBITS}",
                        c.n_qubits()
                    ));
                }
                if c.is_empty() {
                    return Err("qasm: circuit has no operations".into());
                }
                Ok((c, 0))
            }
        }
    }

    /// Canonical label for checkpoints and reports (`grover6x42`,
    /// `qasm@<fingerprint>` …).
    pub fn label(&self) -> String {
        match self {
            CircuitSpec::Grover { n, marked } => format!("grover{n}x{marked}"),
            CircuitSpec::Bwt {
                height,
                steps,
                seed,
            } => format!("bwt_h{height}s{steps}x{seed:x}"),
            CircuitSpec::Gse {
                precision_bits,
                trotter_slices,
            } => format!("gse_p{precision_bits}t{trotter_slices}"),
            CircuitSpec::Qft { n } => format!("qft{n}"),
            CircuitSpec::Qasm(src) => {
                // FNV-1a over the source: stable identity without keeping
                // the text in every label
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in src.bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                format!("qasm@{h:016x}")
            }
        }
    }
}

/// A parsed submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// What to simulate.
    pub circuit: CircuitSpec,
    /// Which weight system to run under.
    pub scheme: SchemeSpec,
    /// Queue priority, 0 (lowest) to 9; higher runs first.
    pub priority: u8,
    /// Mandatory resource budget (admission rejects unlimited budgets —
    /// a multi-tenant service must not host unbounded jobs).
    pub budget: RunBudget,
    /// Checkpoint file to resume from.
    pub resume: Option<PathBuf>,
    /// Top measurement probabilities to report.
    pub top_k: usize,
    /// Set for the `sample` verb: draw this many seeded shots from the
    /// final state instead of reporting amplitudes. Mutually exclusive
    /// with `resume` (a shot stream has no mid-point checkpoint).
    pub sample: Option<SampleParams>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job (the `submit` verb, or `sample` when
    /// [`SubmitRequest::sample`] is set).
    Submit(Box<SubmitRequest>),
    /// Query a job's state.
    Status {
        /// Job id.
        job: u64,
    },
    /// Block until a job reaches a terminal state (or the timeout).
    Wait {
        /// Job id.
        job: u64,
        /// Give up after this long.
        timeout: Duration,
    },
    /// Fetch service metrics.
    Metrics,
    /// Stop admission and wait for in-flight work to finish.
    Drain,
    /// Stop admission, evict the queue, cancel running jobs (they
    /// checkpoint), stop the workers.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A human-readable protocol error (malformed JSON, missing or
    /// ill-typed fields, unknown verb).
    pub fn parse(line: &str) -> Result<Request, String> {
        if line.trim().is_empty() {
            return Err("empty request".into());
        }
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let verb = v
            .get(key::VERB)
            .and_then(Json::as_str)
            .ok_or("missing string field `verb`")?;
        match verb {
            "submit" => Ok(Request::Submit(Box::new(parse_submit(&v)?))),
            "sample" => {
                let mut submit = parse_submit(&v)?;
                if submit.resume.is_some() {
                    return Err("sample jobs cannot resume from a checkpoint".into());
                }
                let shots = opt_u64(&v, key::SHOTS)?.unwrap_or(DEFAULT_SHOTS);
                if !(1..=MAX_SHOTS).contains(&shots) {
                    return Err(format!("shots must be in 1..={MAX_SHOTS}, got {shots}"));
                }
                let seed = opt_u64(&v, key::SEED)?.unwrap_or(DEFAULT_SAMPLE_SEED);
                submit.sample = Some(SampleParams { shots, seed });
                Ok(Request::Submit(Box::new(submit)))
            }
            "status" => Ok(Request::Status {
                job: require_u64(&v, key::JOB)?,
            }),
            "wait" => Ok(Request::Wait {
                job: require_u64(&v, key::JOB)?,
                timeout: opt_f64(&v, key::TIMEOUT_SECS)?.map_or(DEFAULT_WAIT_TIMEOUT, |s| {
                    Duration::from_secs_f64(s.clamp(0.0, 600.0))
                }),
            }),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown verb `{other}`")),
        }
    }

    /// Renders the request as one compact JSON line (no newline): the
    /// exact inverse of [`Request::parse`], which reads every value of
    /// every request it can return back unchanged.
    pub fn render(&self) -> String {
        let verb = |name: &str| (key::VERB, Json::str(name));
        let pairs = match self {
            Request::Submit(s) => submit_pairs(s),
            Request::Status { job } => vec![verb("status"), (key::JOB, int(*job))],
            Request::Wait { job, timeout } => vec![
                verb("wait"),
                (key::JOB, int(*job)),
                (key::TIMEOUT_SECS, Json::Num(timeout.as_secs_f64())),
            ],
            Request::Metrics => vec![verb("metrics")],
            Request::Drain => vec![verb("drain")],
            Request::Shutdown => vec![verb("shutdown")],
        };
        Json::obj(pairs).render()
    }
}

/// The weight system a wire `scheme` name selects (absent means
/// `numeric`). `eps` is read only for `numeric`; absent, it is
/// [`DEFAULT_EPS`].
///
/// # Errors
///
/// An unknown scheme name, an ill-typed `eps`, or an `eps` outside
/// `[0, 1]`.
pub fn scheme_named(
    name: Option<&str>,
    eps: impl FnOnce() -> Result<Option<f64>, String>,
) -> Result<SchemeSpec, String> {
    Ok(match name.unwrap_or("numeric") {
        "numeric" => match eps()?.unwrap_or(DEFAULT_EPS) {
            eps if (0.0..=1.0).contains(&eps) => SchemeSpec::Numeric { eps },
            eps => return Err(format!("eps must be in [0, 1], got {eps}")),
        },
        "qomega" => SchemeSpec::Qomega,
        "gcd" => SchemeSpec::Gcd,
        other => {
            return Err(format!(
                "unknown scheme `{other}` (expected numeric|qomega|gcd)"
            ))
        }
    })
}

fn scheme_name(scheme: &SchemeSpec) -> &'static str {
    match scheme {
        SchemeSpec::Numeric { .. } => "numeric",
        SchemeSpec::Qomega => "qomega",
        SchemeSpec::Gcd => "gcd",
    }
}

/// A wire integer. Every integer [`Request::parse`] accepts is at most
/// 2⁵³, where doubles are still exact.
fn int(n: u64) -> Json {
    Json::Num(n as f64)
}

fn require_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    opt_u64(v, key)?
        .map(|n| {
            usize::try_from(n).map_err(|_| format!("field `{key}` value {n} does not fit in usize"))
        })
        .transpose()
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => j
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

fn parse_submit(v: &Json) -> Result<SubmitRequest, String> {
    let circuit = if let Some(src) = v.get(key::QASM).and_then(Json::as_str) {
        CircuitSpec::Qasm(src.to_string())
    } else {
        match v.get(key::CIRCUIT).and_then(Json::as_str) {
            Some(kind) => CircuitSpec::named(kind, |k| opt_u64(v, k))?,
            None => return Err("submit needs either `circuit` or `qasm`".into()),
        }
    };
    let scheme = scheme_named(v.get(key::SCHEME).and_then(Json::as_str), || {
        opt_f64(v, key::EPS)
    })?;

    let priority = opt_u64(v, key::PRIORITY)?.unwrap_or(0);
    let priority = u8::try_from(priority)
        .ok()
        .filter(|p| *p <= 9)
        .ok_or_else(|| format!("priority must be 0..=9, got {priority}"))?;

    let b = v.get(key::BUDGET).unwrap_or(&Json::Null);
    let budget = RunBudget {
        max_nodes: opt_usize(b, key::MAX_NODES)?,
        max_distinct_weights: opt_usize(b, key::MAX_WEIGHTS)?,
        max_weight_bits: opt_u64(b, key::MAX_BITS)?,
        deadline: match opt_f64(b, key::DEADLINE_SECS)? {
            Some(s) if !(0.0..=3600.0).contains(&s) => {
                return Err(format!("deadline_secs must be in [0, 3600], got {s}"))
            }
            s => s.map(Duration::from_secs_f64),
        },
    };

    let resume = match v.get(key::RESUME) {
        None | Some(Json::Null) => None,
        Some(j) => Some(PathBuf::from(
            j.as_str().ok_or("field `resume` must be a path string")?,
        )),
    };

    Ok(SubmitRequest {
        circuit,
        scheme,
        priority,
        budget,
        resume,
        top_k: opt_usize(v, key::TOP_K)?.unwrap_or(DEFAULT_TOP_K).min(64),
        sample: None,
    })
}

/// The fields of a `submit` (or, with [`SubmitRequest::sample`] set,
/// `sample`) line, in the order the grammar lists them.
fn submit_pairs(s: &SubmitRequest) -> Vec<(&'static str, Json)> {
    let verb = if s.sample.is_some() {
        "sample"
    } else {
        "submit"
    };
    let mut pairs = vec![(key::VERB, Json::str(verb))];
    let small = |n: u32| int(u64::from(n));
    match &s.circuit {
        CircuitSpec::Grover { n, marked } => pairs.extend([
            (key::CIRCUIT, Json::str("grover")),
            (key::N, small(*n)),
            (key::MARKED, int(*marked)),
        ]),
        CircuitSpec::Bwt {
            height,
            steps,
            seed,
        } => pairs.extend([
            (key::CIRCUIT, Json::str("bwt")),
            (key::HEIGHT, small(*height)),
            (key::STEPS, small(*steps)),
            (key::WELD_SEED, int(*seed)),
        ]),
        CircuitSpec::Gse {
            precision_bits,
            trotter_slices,
        } => pairs.extend([
            (key::CIRCUIT, Json::str("gse")),
            (key::PRECISION_BITS, small(*precision_bits)),
            (key::TROTTER_SLICES, small(*trotter_slices)),
        ]),
        CircuitSpec::Qft { n } => {
            pairs.extend([(key::CIRCUIT, Json::str("qft")), (key::N, small(*n))])
        }
        CircuitSpec::Qasm(src) => pairs.push((key::QASM, Json::str(src.as_str()))),
    }
    pairs.push((key::SCHEME, Json::str(scheme_name(&s.scheme))));
    if let SchemeSpec::Numeric { eps } = s.scheme {
        pairs.push((key::EPS, Json::Num(eps)));
    }
    pairs.push((key::PRIORITY, int(u64::from(s.priority))));
    pairs.push((key::TOP_K, int(s.top_k as u64)));
    if let Some(path) = &s.resume {
        pairs.push((key::RESUME, Json::str(path.to_string_lossy())));
    }
    if let Some(p) = s.sample {
        pairs.extend([(key::SHOTS, int(p.shots)), (key::SEED, int(p.seed))]);
    }
    let b = &s.budget;
    let budget = [
        (key::MAX_NODES, b.max_nodes.map(|n| n as f64)),
        (key::MAX_WEIGHTS, b.max_distinct_weights.map(|n| n as f64)),
        (key::MAX_BITS, b.max_weight_bits.map(|n| n as f64)),
        (key::DEADLINE_SECS, b.deadline.map(|d| d.as_secs_f64())),
    ]
    .into_iter()
    .filter_map(|(k, v)| Some((k, Json::Num(v?))))
    .collect();
    pairs.push((key::BUDGET, Json::obj(budget)));
    pairs
}

impl Response {
    /// Renders the response as one compact JSON line (no newline).
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    fn to_json(&self) -> Json {
        match self {
            Response::Submitted { job } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("submit")),
                ("job", Json::Num(*job as f64)),
                ("state", Json::str("queued")),
            ]),
            Response::Rejected {
                reason,
                retry_after_ms,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::str("submit")),
                    ("state", Json::str("rejected")),
                    ("reason", Json::str(reason.as_str())),
                ];
                if let Some(ms) = retry_after_ms {
                    pairs.push(("retry_after_ms", Json::Num(*ms as f64)));
                }
                Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            }
            Response::Status(s) => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("verb", Json::str("status")),
                    ("job", Json::Num(s.job as f64)),
                    ("state", Json::str(s.state.as_str())),
                    ("label", Json::str(s.label.as_str())),
                    ("scheme", Json::str(s.scheme.as_str())),
                    ("priority", Json::Num(s.priority as f64)),
                ];
                if let Some(o) = &s.outcome {
                    pairs.push(("gates_applied", Json::Num(o.gates_applied as f64)));
                    pairs.push(("seconds", Json::Num(o.seconds)));
                    pairs.push(("final_nodes", Json::Num(o.final_nodes as f64)));
                    pairs.push(("resumed", Json::Bool(o.resumed)));
                    pairs.push(("cache_hit_rate", Json::Num(o.statistics.cache_hit_rate())));
                    pairs.push((
                        "top",
                        Json::Arr(
                            o.top_probabilities
                                .iter()
                                .map(|(i, p)| Json::Arr(vec![Json::Num(*i as f64), Json::Num(*p)]))
                                .collect(),
                        ),
                    ));
                    if let Some(r) = &o.sample {
                        pairs.push((
                            "sample",
                            Json::obj(vec![
                                ("shots", Json::Num(r.shots as f64)),
                                ("seed", Json::Num(r.seed as f64)),
                                ("forked", Json::Bool(r.forked)),
                                (
                                    "counts",
                                    Json::Arr(
                                        r.counts
                                            .iter()
                                            .map(|(i, n)| {
                                                Json::Arr(vec![
                                                    Json::Num(*i as f64),
                                                    Json::Num(*n as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "probabilities",
                                    Json::Arr(
                                        r.probabilities
                                            .iter()
                                            .map(|p| {
                                                let mut fields = vec![
                                                    (
                                                        "index".to_string(),
                                                        Json::Num(p.index as f64),
                                                    ),
                                                    ("p".to_string(), Json::Num(p.probability)),
                                                ];
                                                if let Some(e) = &p.exact {
                                                    fields.push((
                                                        "exact".to_string(),
                                                        Json::str(e.as_str()),
                                                    ));
                                                }
                                                Json::Obj(fields)
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        ));
                    }
                    if let Some(a) = &o.aborted {
                        pairs.push(("reason", Json::str(a.reason.as_str())));
                        pairs.push(("evicted", Json::Bool(a.evicted)));
                        pairs.push((
                            "checkpoint",
                            match &a.checkpoint {
                                Some(p) => Json::str(p.display().to_string()),
                                None => Json::Null,
                            },
                        ));
                    }
                }
                Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            }
            Response::UnknownJob { job } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("status")),
                ("job", Json::Num(*job as f64)),
                ("state", Json::str("unknown")),
            ]),
            Response::Metrics(m) => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("metrics")),
                ("submitted", Json::Num(m.submitted as f64)),
                ("completed", Json::Num(m.completed as f64)),
                ("aborted", Json::Num(m.aborted as f64)),
                ("rejected", Json::Num(m.rejected as f64)),
                ("evicted", Json::Num(m.evicted as f64)),
                ("queue_depth", Json::Num(m.queue_depth as f64)),
                ("running", Json::Num(m.running as f64)),
                ("worker_deaths", Json::Num(m.worker_deaths as f64)),
                ("worker_respawns", Json::Num(m.worker_respawns as f64)),
                ("shed_deadline", Json::Num(m.shed_deadline as f64)),
                ("samples", Json::Num(m.samples as f64)),
                ("shots", Json::Num(m.shots as f64)),
                (
                    "result_cache",
                    Json::obj(vec![
                        ("served", Json::Num(m.cache_served as f64)),
                        ("hits", Json::Num(m.cache.hits as f64)),
                        ("misses", Json::Num(m.cache.misses as f64)),
                        ("insertions", Json::Num(m.cache.insertions as f64)),
                        ("evictions", Json::Num(m.cache.evictions as f64)),
                        ("hit_rate", Json::Num(m.cache.hit_rate())),
                        ("entries", Json::Num(m.cache_entries as f64)),
                        ("capacity", Json::Num(m.cache_capacity as f64)),
                    ]),
                ),
                (
                    "connections",
                    Json::obj(vec![
                        ("accepted", Json::Num(m.connections_accepted as f64)),
                        ("rejected", Json::Num(m.connections_rejected as f64)),
                        (
                            "reaped_at_shutdown",
                            Json::Num(m.connections_reaped_at_shutdown as f64),
                        ),
                    ]),
                ),
                (
                    "latency_ms",
                    Json::obj(vec![
                        (
                            "bucket_edges",
                            Json::Arr(
                                LATENCY_BUCKET_EDGES_US
                                    .iter()
                                    .map(|&e| Json::Num(e as f64 / 1_000.0))
                                    .collect(),
                            ),
                        ),
                        (
                            "counts",
                            Json::Arr(
                                m.latency_counts
                                    .iter()
                                    .map(|&c| Json::Num(c as f64))
                                    .collect(),
                            ),
                        ),
                        ("p50", m.p50_ms.map(Json::Num).unwrap_or(Json::Null)),
                        ("p99", m.p99_ms.map(Json::Num).unwrap_or(Json::Null)),
                    ]),
                ),
                (
                    "workers",
                    Json::Arr(
                        m.workers
                            .iter()
                            .map(|w| {
                                Json::obj(vec![
                                    ("worker", Json::Num(w.worker as f64)),
                                    ("class", Json::str(w.class.as_str())),
                                    ("jobs", Json::Num(w.stats.jobs as f64)),
                                    ("busy_seconds", Json::Num(w.stats.busy_seconds)),
                                    ("cache_hit_rate", Json::Num(w.stats.engine.cache_hit_rate())),
                                    (
                                        "nodes_allocated",
                                        Json::Num(
                                            (w.stats.engine.vec_nodes + w.stats.engine.mat_nodes)
                                                as f64,
                                        ),
                                    ),
                                    ("compactions", Json::Num(w.stats.engine.compactions as f64)),
                                    ("warm_reuses", Json::Num(w.stats.warm_reuses as f64)),
                                    ("session_shrinks", Json::Num(w.stats.session_shrinks as f64)),
                                    ("quarantines", Json::Num(w.stats.quarantines as f64)),
                                    ("validations", Json::Num(w.stats.validations as f64)),
                                    (
                                        "validate_failures",
                                        Json::Num(w.stats.validate_failures as f64),
                                    ),
                                    ("rebuilds", Json::Num(w.stats.rebuilds as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "health",
                    Json::Arr(
                        m.health
                            .iter()
                            .map(|h| {
                                Json::obj(vec![
                                    ("class", Json::str(h.class.as_str())),
                                    ("configured", Json::Num(h.configured as f64)),
                                    ("live", Json::Num(h.live as f64)),
                                    ("respawning", Json::Num(h.respawning as f64)),
                                    ("restarts_used", Json::Num(h.restarts_used as f64)),
                                    ("restart_budget", Json::Num(h.restart_budget as f64)),
                                    ("healthy", Json::Bool(h.healthy)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "chaos",
                    match &m.chaos {
                        None => Json::Null,
                        Some(c) => Json::obj(vec![
                            ("kills", Json::Num(c.kills as f64)),
                            ("corruptions", Json::Num(c.corruptions as f64)),
                            ("stalls", Json::Num(c.stalls as f64)),
                            ("wakeups", Json::Num(c.wakeups as f64)),
                        ]),
                    },
                ),
            ]),
            Response::Drained { completed, aborted } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("drain")),
                ("state", Json::str("drained")),
                ("completed", Json::Num(*completed as f64)),
                ("aborted", Json::Num(*aborted as f64)),
            ]),
            Response::ShutdownDone {
                evicted_queued,
                cancelled_running,
            } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("verb", Json::str("shutdown")),
                ("state", Json::str("stopped")),
                ("evicted_queued", Json::Num(*evicted_queued as f64)),
                ("cancelled_running", Json::Num(*cancelled_running as f64)),
            ]),
            Response::Error { message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::str(message.as_str())),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_submit() {
        let line = r#"{"verb":"submit","circuit":"grover","n":6,"marked":42,
            "scheme":"numeric","eps":1e-10,"priority":3,"top_k":2,
            "budget":{"max_nodes":100000,"deadline_secs":5}}"#;
        let Request::Submit(s) = Request::parse(line).expect("parse") else {
            panic!("expected submit");
        };
        assert_eq!(s.circuit, CircuitSpec::Grover { n: 6, marked: 42 });
        assert_eq!(s.scheme, SchemeSpec::Numeric { eps: 1e-10 });
        assert_eq!(s.priority, 3);
        assert_eq!(s.top_k, 2);
        assert_eq!(s.budget.max_nodes, Some(100_000));
        assert_eq!(s.budget.deadline, Some(Duration::from_secs_f64(5.0)),);
    }

    #[test]
    fn parses_a_sample_submit() {
        let line = r#"{"verb":"sample","qasm":"OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n",
            "scheme":"gcd","shots":512,"seed":41,"budget":{"max_nodes":100000}}"#;
        let Request::Submit(s) = Request::parse(line).expect("parse") else {
            panic!("expected submit");
        };
        assert_eq!(
            s.sample,
            Some(SampleParams {
                shots: 512,
                seed: 41
            })
        );
        assert_eq!(s.scheme, SchemeSpec::Gcd);
        assert!(s.resume.is_none());

        // shots and seed default when omitted
        let line = r#"{"verb":"sample","circuit":"qft","n":3,"budget":{"max_nodes":1000}}"#;
        let Request::Submit(s) = Request::parse(line).expect("parse") else {
            panic!("expected submit");
        };
        assert_eq!(
            s.sample,
            Some(SampleParams {
                shots: 1024,
                seed: 0
            })
        );

        // a plain submit never carries sample parameters
        let line = r#"{"verb":"submit","circuit":"qft","n":3,"budget":{"max_nodes":1000}}"#;
        let Request::Submit(s) = Request::parse(line).expect("parse") else {
            panic!("expected submit");
        };
        assert_eq!(s.sample, None);
    }

    #[test]
    fn sample_rejects_bad_shots_and_resume() {
        for (line, needle) in [
            (
                r#"{"verb":"sample","circuit":"qft","n":3,"shots":0}"#,
                "shots must be in",
            ),
            (
                r#"{"verb":"sample","circuit":"qft","n":3,"shots":2000000}"#,
                "shots must be in",
            ),
            (
                r#"{"verb":"sample","circuit":"qft","n":3,"resume":"/tmp/x.aqckp"}"#,
                "cannot resume",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("", "empty"),
            ("{\"verb\":\"submit\"}", "`circuit` or `qasm`"),
            ("{\"verb\":\"fly\"}", "unknown verb"),
            ("{\"job\":1}", "verb"),
            ("not json", "invalid JSON"),
            (
                "{\"verb\":\"submit\",\"circuit\":\"grover\",\"n\":6,\"marked\":42,\"scheme\":\"vortex\"}",
                "unknown scheme",
            ),
            (
                "{\"verb\":\"submit\",\"circuit\":\"teleport\"}",
                "unknown circuit",
            ),
            ("{\"verb\":\"status\"}", "`job`"),
            (
                "{\"verb\":\"submit\",\"circuit\":\"grover\",\"n\":6,\"marked\":1,\"priority\":12}",
                "priority",
            ),
        ] {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn circuit_specs_validate_and_build() {
        assert!(CircuitSpec::Grover { n: 6, marked: 42 }.build().is_ok());
        assert!(CircuitSpec::Grover { n: 0, marked: 0 }.build().is_err());
        assert!(CircuitSpec::Grover { n: 30, marked: 0 }.build().is_err());
        assert!(CircuitSpec::Grover { n: 3, marked: 9 }.build().is_err());
        assert!(CircuitSpec::Qft { n: 4 }.build().is_ok());
        let (c, start) = CircuitSpec::Bwt {
            height: 2,
            steps: 3,
            seed: 7,
        }
        .build()
        .expect("bwt builds");
        assert!(start < 1 << c.n_qubits());
        assert!(CircuitSpec::Qasm("garbage".into()).build().is_err());
        let qasm = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n";
        assert!(CircuitSpec::Qasm(qasm.into()).build().is_ok());
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        assert_eq!(
            CircuitSpec::Grover { n: 6, marked: 42 }.label(),
            "grover6x42"
        );
        let a = CircuitSpec::Qasm("h q[0];".into()).label();
        let b = CircuitSpec::Qasm("x q[0];".into()).label();
        assert_ne!(a, b);
        assert_eq!(a, CircuitSpec::Qasm("h q[0];".into()).label());
    }
}
