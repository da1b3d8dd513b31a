//! The TCP side: an in-process `ServeCore` behind the `Server` event loop
//! on loopback, driven through `aq_serve::TcpClient` (the client `aq-cli`
//! uses).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aq_serve::{Json, ServeConfig, ServeCore, Server, TcpClient};
use aq_sim::JobOutcome;

use crate::trace::Tracer;

/// A running server and the thread of its event loop.
#[derive(Debug)]
pub struct Running {
    pub addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Starts a core with the default configuration (1 numeric and 1
/// algebraic worker, result cache on); only the checkpoint directory is
/// moved under `out` so the run writes nothing outside its checkout.
pub fn start(out: &Path) -> std::io::Result<Running> {
    let cfg = ServeConfig {
        checkpoint_dir: out.join("checkpoints"),
        ..ServeConfig::default()
    };
    let core = ServeCore::start(cfg)?;
    let server = Server::bind(Arc::clone(&core), 0)?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread })
}

impl Running {
    /// Sends `shutdown` and waits for the event loop to end.
    pub fn stop(self) -> Result<(), String> {
        let mut c =
            TcpClient::connect(self.addr).map_err(|e| format!("connect for shutdown: {e}"))?;
        c.roundtrip("{\"verb\":\"shutdown\"}")
            .map_err(|e| format!("shutdown verb: {e}"))?;
        drop(c);
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("event loop failed: {e}")),
            Err(_) => Err("event loop panicked".into()),
        }
    }
}

/// One request from send to its terminal reply.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub latency_s: f64,
    pub submit_rtt_s: f64,
    pub wait_rtt_s: Vec<f64>,
    /// The terminal reply line (the `wait` status, or the first reply
    /// when the request was refused).
    pub terminal: String,
}

impl Exchange {
    pub fn json(&self) -> Json {
        Json::parse(&self.terminal).unwrap_or(Json::Null)
    }
}

fn state_of(reply: &Json) -> Option<&str> {
    reply.get("state").and_then(Json::as_str)
}

/// Sends `line` and, when it was queued, `wait`s until the job is
/// terminal.
pub fn exchange(client: &mut TcpClient, line: &str, tr: &mut Tracer) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let first = tr.span("serve.submit_rtt", |_| client.roundtrip(line))?;
    let submit_rtt_s = t0.elapsed().as_secs_f64();
    let reply = Json::parse(&first).unwrap_or(Json::Null);
    let mut terminal = first;
    let mut wait_rtt_s = Vec::new();
    if reply.get("ok").and_then(Json::as_bool) == Some(true) && state_of(&reply) == Some("queued") {
        let job = reply.get("job").and_then(Json::as_u64).unwrap_or(0);
        let wait = format!("{{\"verb\":\"wait\",\"job\":{job},\"timeout_secs\":60}}");
        loop {
            let t = Instant::now();
            let line = tr.span("serve.wait_rtt", |_| client.roundtrip(&wait))?;
            wait_rtt_s.push(t.elapsed().as_secs_f64());
            let r = Json::parse(&line).unwrap_or(Json::Null);
            let done = !matches!(state_of(&r), Some("queued") | Some("running"));
            terminal = line;
            if done {
                break;
            }
        }
    }
    Ok(Exchange {
        latency_s: t0.elapsed().as_secs_f64(),
        submit_rtt_s,
        wait_rtt_s,
        terminal,
    })
}

/// The terminal reply without its job id, for byte comparison of
/// repeated requests.
pub fn without_job_id(reply: &str) -> String {
    let Some(at) = reply.find("\"job\":") else {
        return reply.to_string();
    };
    let rest = &reply[at + 6..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    format!("{}\"job\":#{}", &reply[..at], &rest[digits..])
}

/// The reply without the fields a fresh computation of the same job may
/// change: its id, its run time and its engine cache statistics.
pub fn without_run_fields(reply: &Json) -> String {
    match reply {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "job" | "seconds" | "cache_hit_rate"))
                .cloned()
                .collect(),
        )
        .render(),
        other => other.render(),
    }
}

/// Compares a completed status reply with the in-process outcome of the
/// same job: ops applied, final nodes, top-k and the sample report.
pub fn matches_outcome(reply: &Json, out: &JobOutcome) -> Result<(), String> {
    if state_of(reply) != Some("completed") {
        return Err(format!(
            "state {:?}: {}",
            state_of(reply),
            reply
                .get("reason")
                .or(reply.get("error"))
                .and_then(Json::as_str)
                .unwrap_or("")
        ));
    }
    let num = |k: &str| reply.get(k).and_then(Json::as_u64);
    if num("gates_applied") != Some(out.gates_applied as u64)
        || num("final_nodes") != Some(out.final_nodes as u64)
    {
        return Err(format!(
            "ops/nodes {:?}/{:?} vs in-process {}/{}",
            num("gates_applied"),
            num("final_nodes"),
            out.gates_applied,
            out.final_nodes
        ));
    }
    let pairs = |v: Option<&Json>| -> Vec<(f64, f64)> {
        match v {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|x| match x {
                    Json::Arr(p) if p.len() == 2 => Some((p[0].as_f64()?, p[1].as_f64()?)),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let top: Vec<(f64, f64)> = out
        .top_probabilities
        .iter()
        .map(|(i, p)| (*i as f64, *p))
        .collect();
    if pairs(reply.get("top")) != top {
        return Err("top-k differs from the in-process run".into());
    }
    match (&out.sample, reply.get("sample")) {
        (None, None) => Ok(()),
        (Some(s), Some(w)) => {
            let counts: Vec<(f64, f64)> = s
                .counts
                .iter()
                .map(|(i, n)| (*i as f64, *n as f64))
                .collect();
            if pairs(w.get("counts")) != counts
                || w.get("forked").and_then(Json::as_bool) != Some(s.forked)
            {
                return Err("sample histogram differs from the in-process run".into());
            }
            Ok(())
        }
        _ => Err("sample report present on one side only".into()),
    }
}

/// Counters read back through the `metrics` verb.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeCounters {
    pub cache_hit_rate: f64,
    pub warm_reuses: f64,
    pub rejected: f64,
}

pub fn read_metrics(client: &mut TcpClient) -> Result<ServeCounters, String> {
    let line = client
        .roundtrip("{\"verb\":\"metrics\"}")
        .map_err(|e| format!("metrics verb: {e}"))?;
    let m = Json::parse(&line).map_err(|e| format!("metrics reply: {e:?}"))?;
    let warm_reuses = match m.get("workers") {
        Some(Json::Arr(ws)) => ws
            .iter()
            .filter_map(|w| w.get("warm_reuses").and_then(Json::as_f64))
            .sum(),
        _ => 0.0,
    };
    Ok(ServeCounters {
        cache_hit_rate: m
            .get("result_cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        warm_reuses,
        rejected: m.get("rejected").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Aggregates over a set of exchanges, in ms.
#[derive(Debug, Default)]
pub struct WireRows {
    pub submit_rtt_ms: Vec<f64>,
    pub wait_rtt_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub queue_wire_ms: Vec<f64>,
}

impl WireRows {
    /// Adds one exchange; `run_ms` is the engine time reported in the
    /// status reply, and the rest of the latency is queue plus wire.
    pub fn add(&mut self, x: &Exchange) {
        self.submit_rtt_ms.push(x.submit_rtt_s * 1e3);
        self.wait_rtt_ms
            .extend(x.wait_rtt_s.iter().map(|s| s * 1e3));
        if let Some(run) = x.json().get("seconds").and_then(Json::as_f64) {
            self.run_ms.push(run * 1e3);
            self.queue_wire_ms.push((x.latency_s - run) * 1e3);
        }
    }

    pub fn emit(self, report: &mut crate::report::Report, counters: ServeCounters) {
        report.median("serve.submit_rtt_ms", "ms", self.submit_rtt_ms);
        report.median("serve.wait_rtt_ms", "ms", self.wait_rtt_ms);
        report.median("serve.run_ms", "ms", self.run_ms);
        report.median("serve.queue_wire_ms", "ms", self.queue_wire_ms);
        report.metric(
            "serve.cache_hit_rate",
            "share",
            counters.cache_hit_rate,
            vec![],
        );
        report.metric("serve.warm_reuses", "count", counters.warm_reuses, vec![]);
        report.metric("serve.rejected", "count", counters.rejected, vec![]);
    }
}
