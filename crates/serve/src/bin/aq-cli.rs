//! `aq-cli` — a thin command-line client for `aq-served`.
//!
//! ```text
//! aq-cli --addr=HOST:PORT submit <circuit>
//!        [--scheme=numeric|qomega|gcd] [--eps=1e-10] [--priority=0..9]
//!        [--max-nodes=N] [--max-weights=N] [--max-bits=N]
//!        [--deadline-secs=S] [--resume=PATH] [--top-k=K] [--wait=SECS]
//!        [--retries=N]
//! aq-cli --addr=HOST:PORT sample <submit flags except --resume>
//!        [--shots=N] [--seed=S]
//! aq-cli --addr=HOST:PORT status --job=ID
//! aq-cli --addr=HOST:PORT wait --job=ID [--timeout=SECS]
//! aq-cli --addr=HOST:PORT metrics | drain | shutdown
//!
//! circuit = --circuit=grover --n=N --marked=M
//!         | --circuit=bwt --height=H --steps=S [--weld-seed=X]
//!         | --circuit=gse [--precision-bits=B] [--trotter-slices=T]
//!         | --circuit=qft --n=N
//!         | --qasm-file=PATH
//! ```
//!
//! Request flags are named after the wire keys of `aq_serve::protocol`
//! (`top_k` is `--top-k`); the client builds a typed `Request` from them
//! and sends its `Request::render` line, so absent fields take the same
//! defaults the server would apply.
//!
//! `sample` submits a seeded shot-sampling job: the response's terminal
//! status carries a `"sample"` object with the bitstring histogram
//! (`counts` as `[basis index, hits]` pairs summing to `shots`) and the
//! per-outcome probabilities — exact strings included under algebraic
//! schemes. Equal seeds give bit-identical histograms.
//!
//! Prints the server's JSON response line(s) on stdout. Exit status is 0
//! when every response had `"ok":true`, 1 otherwise (a *rejected*
//! submission or *aborted* job is still `ok:true` — inspect `state`).
//!
//! `submit --retries=N` (implies `--wait`) resubmits up to N extra times
//! on retryable failures — a rejection carrying `retry_after_ms`, a
//! `transient:` abort (the worker died mid-job), or a dropped connection
//! — with capped exponential backoff honouring the server's hint. Every
//! attempt's response lines are printed; the exit status reflects the
//! final attempt.

use std::collections::HashMap;
use std::str::FromStr;
use std::time::Duration;

use aq_dd::RunBudget;
use aq_serve::protocol::{
    key, scheme_named, DEFAULT_SAMPLE_SEED, DEFAULT_SHOTS, DEFAULT_TOP_K, DEFAULT_WAIT_TIMEOUT,
    TRANSIENT_PREFIX,
};
use aq_serve::{Backoff, CircuitSpec, Json, Request, SubmitRequest, TcpClient};
use aq_sim::SampleParams;

fn usage() -> ! {
    eprintln!(
        "usage: aq-cli --addr=HOST:PORT <submit|sample|status|wait|metrics|drain|shutdown> [flags]\n\
         see `aq-cli --help` in the README \"Serving\" section for flag details"
    );
    std::process::exit(2);
}

fn flag_map(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for a in args {
        let Some(rest) = a.strip_prefix("--") else {
            usage();
        };
        match rest.split_once('=') {
            Some((k, v)) => map.insert(k.to_string(), v.to_string()),
            None => map.insert(rest.to_string(), String::new()),
        };
    }
    map
}

/// The value of the flag named after wire key `key` (`top_k` is
/// `--top-k`), parsed; exits 2 when it does not parse.
fn flag<T: FromStr>(map: &HashMap<String, String>, key: &str) -> Option<T> {
    let name = key.replace('_', "-");
    map.get(&name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("cannot parse --{name}={v}")))
    })
}

/// A flag holding seconds, as a duration; exits 2 unless it is a finite
/// non-negative number.
fn secs_flag(map: &HashMap<String, String>, key: &str) -> Option<Duration> {
    flag(map, key).map(|s: f64| {
        Duration::try_from_secs_f64(s)
            .unwrap_or_else(|e| fail(&format!("--{}={s}: {e}", key.replace('_', "-"))))
    })
}

fn fail(message: &str) -> ! {
    eprintln!("aq-cli: {message}");
    std::process::exit(2);
}

/// The `submit` (or, with `sample` set, `sample`) request the flags
/// describe; absent fields take the wire defaults.
fn submit_request(map: &HashMap<String, String>, sample: bool) -> SubmitRequest {
    let circuit = match map.get("qasm-file") {
        Some(path) => CircuitSpec::Qasm(
            std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}"))),
        ),
        None => {
            let kind: String = flag(map, key::CIRCUIT).unwrap_or_else(|| usage());
            CircuitSpec::named(&kind, |k| Ok(flag(map, k))).unwrap_or_else(|e| fail(&e))
        }
    };
    let scheme = flag::<String>(map, key::SCHEME);
    SubmitRequest {
        circuit,
        scheme: scheme_named(scheme.as_deref(), || Ok(flag(map, key::EPS)))
            .unwrap_or_else(|e| fail(&e)),
        priority: flag(map, key::PRIORITY).unwrap_or(0),
        budget: RunBudget {
            max_nodes: flag(map, key::MAX_NODES),
            max_distinct_weights: flag(map, key::MAX_WEIGHTS),
            max_weight_bits: flag(map, key::MAX_BITS),
            deadline: secs_flag(map, key::DEADLINE_SECS),
        },
        resume: flag(map, key::RESUME),
        top_k: flag(map, key::TOP_K).unwrap_or(DEFAULT_TOP_K),
        sample: sample.then(|| SampleParams {
            shots: flag(map, key::SHOTS).unwrap_or(DEFAULT_SHOTS),
            seed: flag(map, key::SEED).unwrap_or(DEFAULT_SAMPLE_SEED),
        }),
    }
}

/// One submit+wait exchange on a fresh connection. Returns the wait
/// response (or the submit response when there was no job to wait on),
/// printing every line as it arrives.
fn submit_once(addr: &str, line: &str, timeout: Duration) -> std::io::Result<Json> {
    let mut client = TcpClient::connect(addr)?;
    let mut send = |line: &str| {
        let response = client.roundtrip(line)?;
        println!("{response}");
        Json::parse(&response)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    };
    let reply = send(line)?;
    match job_of(&reply) {
        Some(job) => send(&Request::Wait { job, timeout }.render()),
        None => Ok(reply), // rejected: no job to wait on
    }
}

/// The job id a `submit` reply assigns (the reply names it under the
/// request's own `job` key).
fn job_of(reply: &Json) -> Option<u64> {
    reply.get(key::JOB).and_then(Json::as_u64)
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool).unwrap_or(false)
}

/// `Some(server_hint_ms)` when the exchange is worth retrying: a
/// rejection with a `retry_after_ms` hint or a `transient:` abort.
fn retry_hint_ms(response: &Json) -> Option<u64> {
    let text = |k| response.get(k).and_then(Json::as_str);
    match text("state")? {
        "rejected" => response.get("retry_after_ms").and_then(Json::as_u64),
        "aborted" if text("reason")?.starts_with(TRANSIENT_PREFIX) => Some(0),
        _ => None,
    }
}

/// The `--retries=N` loop: submit+wait on a fresh connection per
/// attempt, backing off (and honouring the server's hint) between
/// retryable failures. Exits the process with the final attempt's
/// status.
fn submit_with_retries(addr: &str, line: &str, timeout: Duration, retries: u32) -> ! {
    let mut delays = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 0xC11);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let hint = match submit_once(addr, line, timeout) {
            Ok(response) => match retry_hint_ms(&response) {
                Some(ms) => ms,
                None => std::process::exit(if is_ok(&response) { 0 } else { 1 }),
            },
            // A dropped connection (the server was mid-restart, or our
            // worker died while we waited) is itself transient.
            Err(e) => {
                eprintln!("aq-cli: attempt {attempt} failed: {e}");
                0
            }
        };
        if attempt > retries {
            eprintln!("aq-cli: giving up after {attempt} attempts");
            std::process::exit(1);
        }
        let delay = delays.next_delay().max(Duration::from_millis(hint));
        eprintln!("aq-cli: retrying in {}ms", delay.as_millis());
        aq_serve::backoff::sleep(delay);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut verb = None;
    let mut rest = Vec::new();
    for a in &args {
        if let Some(v) = a.strip_prefix("--addr=") {
            addr = Some(v.to_string());
        } else if verb.is_none() && !a.starts_with("--") {
            verb = Some(a.clone());
        } else {
            rest.push(a.clone());
        }
    }
    let (Some(addr), Some(verb)) = (addr, verb) else {
        usage();
    };
    let map = flag_map(&rest);

    let job = || flag(&map, key::JOB).unwrap_or_else(|| usage());
    let line = match verb.as_str() {
        "submit" | "sample" => Request::Submit(Box::new(submit_request(&map, verb == "sample"))),
        "status" => Request::Status { job: job() },
        "wait" => Request::Wait {
            job: job(),
            timeout: secs_flag(&map, "timeout").unwrap_or(DEFAULT_WAIT_TIMEOUT),
        },
        "metrics" => Request::Metrics,
        "drain" => Request::Drain,
        "shutdown" => Request::Shutdown,
        _ => usage(),
    }
    .render();
    let submits = verb == "submit" || verb == "sample";
    let wait = secs_flag(&map, "wait").filter(|_| submits);

    // `--retries=N` takes the resilient path: submit+wait per attempt on
    // a fresh connection, resubmitting on retryable failures.
    if let Some(retries) = flag(&map, "retries").filter(|_| submits) {
        submit_with_retries(&addr, &line, wait.unwrap_or(DEFAULT_WAIT_TIMEOUT), retries);
    }

    let mut client = TcpClient::connect(&addr).unwrap_or_else(|e| {
        eprintln!("aq-cli: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut all_ok = true;
    let mut send = |line: &str| {
        let response = client.roundtrip(line).unwrap_or_else(|e| {
            eprintln!("aq-cli: request failed: {e}");
            std::process::exit(1);
        });
        println!("{response}");
        let reply = Json::parse(&response).ok();
        all_ok &= reply.as_ref().is_some_and(is_ok);
        reply
    };
    let reply = send(&line);
    // `submit --wait=SECS` chains a wait on the job id just returned;
    // rejected submissions have no job id and nothing to wait on.
    if let (Some(timeout), Some(job)) = (wait, reply.as_ref().and_then(job_of)) {
        send(&Request::Wait { job, timeout }.render());
    }
    std::process::exit(if all_ok { 0 } else { 1 });
}
