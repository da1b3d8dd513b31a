//! `wire-mix`: two closed-loop clients over TCP against an in-process
//! server, then in-process reference passes over the same jobs.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use aq_circuits::Circuit;
use aq_serve::{Json, TcpClient};
use aq_sim::JobOutcome;

use crate::gen::{self, Invalid, Step, WireMix, WIRE_MAX_NODES};
use crate::inproc::{self, Job, Passes};
use crate::report::Report;
use crate::trace::Tracer;
use crate::wire::{self, Exchange, Running, WireRows};

const CLIENTS: usize = 2;
/// Requests generated per client; more than a run can send.
const STEPS: usize = 800;
/// Share of the run's remaining seconds spent in the closed loop; the
/// rest runs the in-process reference passes.
const LOOP_SHARE: f64 = 0.55;
/// Latency recorded for a valid request that failed or was refused: it
/// misses every limit.
const FAILED_MS: f64 = 1e9;

/// Everything set up before the first timed request.
#[derive(Debug)]
pub struct Setup {
    pub mix: WireMix,
    pub server: Running,
    pub clients: Vec<TcpClient>,
}

pub fn setup(seed: u64, out: &Path) -> Result<Setup, String> {
    let mix = gen::wire_mix(seed, CLIENTS, STEPS);
    let server = wire::start(out).map_err(|e| format!("server start: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| TcpClient::connect(server.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        mix,
        server,
        clients,
    })
}

pub fn teardown(s: Setup) -> Result<(), String> {
    drop(s.clients);
    s.server.stop()
}

/// One request as the client saw it.
#[derive(Debug)]
struct Record {
    step: Step,
    result: Result<Exchange, String>,
    /// Seconds from the start of the closed loop to the terminal reply.
    done_s: f64,
}

/// Requests (both clients together) after which `peak_rss_mb` is read,
/// and between the readings kept with it. Resident memory grows with the
/// requests served (by 0.6–1 MB a request on a 2-vCPU KVM guest; the
/// server also keeps a record of every job), so reading it at a fixed
/// count rather than at the end of the timed loop keeps a faster server
/// from reading as a bigger one.
const RSS_AFTER_REQUESTS: usize = 320;
const RSS_EVERY: usize = 40;

/// Completed requests across clients, and the memory readings taken
/// every [`RSS_EVERY`] requests.
#[derive(Debug, Default)]
struct RssProbe {
    done: AtomicUsize,
    readings: Mutex<Vec<f64>>,
}

impl RssProbe {
    fn request_done(&self) {
        if (self.done.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(RSS_EVERY) {
            let mb = crate::stats::peak_rss_mb();
            self.readings
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(mb);
        }
    }
}

/// What one client saw: its requests and its spans.
type ClientLog = (Vec<Record>, Tracer);

/// Runs one client's sequence for `loop_s` seconds from `t0` (closed
/// loop: the next request goes out when the previous one is terminal).
fn client_loop(
    mut client: TcpClient,
    seq: &[Step],
    pool: &[gen::WireJob],
    t0: Instant,
    loop_s: f64,
    tracing: bool,
    rss: &RssProbe,
) -> ClientLog {
    let mut tr = Tracer::new(tracing);
    let mut records = Vec::new();
    for step in seq {
        if t0.elapsed().as_secs_f64() >= loop_s {
            break;
        }
        let line = match step {
            Step::Valid(idx) => pool[*idx].line.as_str(),
            Step::Invalid(_, line) => line.as_str(),
        };
        let result = tr
            .span("wire.request", |tr| wire::exchange(&mut client, line, tr))
            .map_err(|e| format!("i/o: {e}"));
        let done_s = t0.elapsed().as_secs_f64();
        let broken = result.is_err();
        rss.request_done();
        records.push(Record {
            step: step.clone(),
            result,
            done_s,
        });
        if broken {
            break;
        }
    }
    (records, tr)
}

/// The in-process job of a pool entry; its circuit is appended to
/// `circuits`.
fn job_of(idx: usize, wj: &gen::WireJob, circuits: &mut Vec<Circuit>) -> Result<Job, String> {
    let (circuit, start) = wj
        .circuit
        .build()
        .map_err(|e| format!("generated job {idx} is invalid: {e}"))?;
    circuits.push(circuit);
    let mut job = Job::new(
        format!("{idx}/{}/{}", wj.kind, wj.scheme.wire()),
        circuits.len() - 1,
        start,
        wj.scheme.spec(),
        wj.scheme,
    );
    job.sample = wj.sample;
    job.max_nodes = Some(WIRE_MAX_NODES as usize);
    Ok(job)
}

/// The in-process outcome of pool entry `idx`, running it on first use.
fn reference_for<'a>(
    outcomes: &'a mut BTreeMap<usize, JobOutcome>,
    idx: usize,
    pool: &[gen::WireJob],
    circuits: &mut Vec<Circuit>,
) -> Result<&'a JobOutcome, String> {
    match outcomes.entry(idx) {
        Entry::Occupied(e) => Ok(e.into_mut()),
        Entry::Vacant(e) => {
            let job = job_of(idx, &pool[idx], circuits)?;
            Ok(e.insert(job.run(circuits)))
        }
    }
}

fn check_invalid(kind: Invalid, reply: &Json) -> Result<(), String> {
    let ok = reply.get("ok").and_then(Json::as_bool);
    let state = reply.get("state").and_then(Json::as_str);
    let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
    let pass = match kind {
        Invalid::MalformedJson => {
            ok == Some(false) && reply.get("error").and_then(Json::as_str).is_some()
        }
        Invalid::MissingBudget => {
            state == Some("rejected") && reason.contains("budget is mandatory")
        }
        Invalid::TooWide => {
            state == Some("rejected") && reason.contains("exceeds the service limit")
        }
    };
    if pass {
        Ok(())
    } else {
        Err(format!("{kind:?} got {}", reply.render()))
    }
}

/// What the run measured, for the caller's metrics.
#[derive(Debug)]
pub struct Measured {
    pub loop_s: f64,
    /// Peak resident memory (MB) after [`RSS_AFTER_REQUESTS`] requests
    /// (at the end of the loop when fewer completed).
    pub rss_mb: f64,
    /// Every reading taken, one per [`RSS_EVERY`] requests.
    pub rss_readings_mb: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub completed: usize,
    /// Checked completions in each whole second of the closed loop.
    pub completed_per_s: Vec<f64>,
    pub passes: Passes,
    pub rows: WireRows,
    pub counters: wire::ServeCounters,
    pub circuits: Vec<Circuit>,
    pub jobs: Vec<Job>,
    pub qasm: Vec<String>,
}

pub fn run(s: Setup, seconds: f64, tr: &mut Tracer, rep: &mut Report) -> Measured {
    let Setup {
        mix,
        server,
        clients,
    } = s;
    let tracing = tr.is_on();
    let loop_budget = seconds * LOOP_SHARE;
    let t0 = Instant::now();
    let rss = RssProbe::default();
    let results: Vec<Option<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&mix.sequences)
            .map(|(client, seq)| {
                let (pool, rss) = (&mix.pool, &rss);
                scope.spawn(move || client_loop(client, seq, pool, t0, loop_budget, tracing, rss))
            })
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    let loop_s = t0.elapsed().as_secs_f64();
    let rss_readings_mb = rss
        .readings
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let rss_mb = rss_readings_mb
        .get(RSS_AFTER_REQUESTS / RSS_EVERY - 1)
        .copied()
        .unwrap_or_else(crate::stats::peak_rss_mb);

    let counters = TcpClient::connect(server.addr)
        .map_err(|e| format!("metrics connect: {e}"))
        .and_then(|mut c| wire::read_metrics(&mut c))
        .unwrap_or_else(|e| {
            rep.fail(e);
            wire::ServeCounters::default()
        });
    if let Err(e) = server.stop() {
        rep.fail(e);
    }

    let mut records = Vec::new();
    for log in results {
        let Some((r, t)) = log else {
            rep.fail("a client thread panicked".into());
            continue;
        };
        records.extend(r);
        tr.absorb(t);
    }

    // In-process reference passes over the mix's fixed reference set.
    let mut circuits = Vec::new();
    let mut jobs = Vec::new();
    let mut pool_of_job = Vec::new();
    for &idx in &mix.reference {
        match job_of(idx, &mix.pool[idx], &mut circuits) {
            Ok(job) => {
                jobs.push(job);
                pool_of_job.push(idx);
            }
            Err(e) => rep.fail(e),
        }
    }
    // Valid requests outside the reference set get one untimed in-process
    // run each, before the passes, so that the passes take what is left
    // of the run and the run ends on time. A request whose job cannot be
    // built fails its check below.
    let mut outcome_of: BTreeMap<usize, JobOutcome> = BTreeMap::new();
    let mut extra_circuits = Vec::new();
    for r in &records {
        if let Step::Valid(idx) = r.step {
            if !mix.reference.contains(&idx) {
                let _ = reference_for(&mut outcome_of, idx, &mix.pool, &mut extra_circuits);
            }
        }
    }
    let mut reference: BTreeMap<String, JobOutcome> = BTreeMap::new();
    let remaining = (seconds - t0.elapsed().as_secs_f64()).max(0.0);
    let passes = inproc::run_passes(&circuits, &jobs, remaining, 3, tr, &mut |job, out| {
        let first = reference
            .entry(job.label.clone())
            .or_insert_with(|| out.clone());
        if first.top_probabilities != out.top_probabilities
            || first.final_nodes != out.final_nodes
            || first.sample.as_ref().map(|s| &s.counts) != out.sample.as_ref().map(|s| &s.counts)
        {
            return Err("in-process result changed between passes".into());
        }
        match &out.aborted {
            Some(a) => Err(format!("aborted: {}", a.reason)),
            None => Ok(()),
        }
    });
    rep.attempted += passes.attempted;
    rep.failures.extend(passes.failures.iter().cloned());
    for (job, idx) in jobs.iter().zip(&pool_of_job) {
        if let Some(o) = reference.get(&job.label) {
            outcome_of.insert(*idx, o.clone());
        }
    }

    // Check every reply.
    let mut latencies_ms = Vec::new();
    let mut first_reply: BTreeMap<usize, String> = BTreeMap::new();
    let mut rows = WireRows::default();
    let mut completed_per_s = vec![0.0; (loop_s as usize).max(1)];
    let mut completed = 0;
    let (mut repeats, mut cache_served) = (0u64, 0u64);
    for r in &records {
        rep.attempted += 1;
        let x = match &r.result {
            Ok(x) => x,
            Err(e) => {
                rep.fail(format!("request failed: {e}"));
                if matches!(r.step, Step::Valid(_)) {
                    latencies_ms.push(FAILED_MS);
                }
                continue;
            }
        };
        rows.add(x);
        let reply = x.json();
        let verdict = match &r.step {
            Step::Invalid(kind, _) => check_invalid(*kind, &reply),
            Step::Valid(idx) => {
                let reference =
                    match reference_for(&mut outcome_of, *idx, &mix.pool, &mut extra_circuits) {
                        Ok(o) => o,
                        Err(e) => {
                            rep.fail(e);
                            latencies_ms.push(FAILED_MS);
                            continue;
                        }
                    };
                let normalized = wire::without_job_id(&x.terminal);
                let first = first_reply
                    .entry(*idx)
                    .or_insert_with(|| x.terminal.clone());
                wire::matches_outcome(&reply, reference).and_then(|()| {
                    // A cache-served repeat replays the stored outcome, run
                    // time included, byte for byte. A repeat whose entry was
                    // evicted (LRU) runs again and may differ only in run
                    // time and engine cache statistics.
                    let repeat = *first != x.terminal;
                    repeats += u64::from(repeat);
                    if wire::without_job_id(first) == normalized {
                        cache_served += u64::from(repeat);
                        Ok(())
                    } else if wire::without_run_fields(&Json::parse(first).unwrap_or(Json::Null))
                        == wire::without_run_fields(&reply)
                    {
                        Ok(())
                    } else {
                        Err("repeated request's reply differs from the first".into())
                    }
                })
            }
        };
        let valid = matches!(r.step, Step::Valid(_));
        match verdict {
            Ok(()) if valid => {
                completed += 1;
                if let Some(slot) = completed_per_s.get_mut(r.done_s as usize) {
                    *slot += 1.0;
                }
                latencies_ms.push(x.latency_s * 1e3);
            }
            Ok(()) => {}
            Err(e) => {
                rep.fail(format!("{}: {e}", step_label(&r.step, &mix)));
                if valid {
                    latencies_ms.push(FAILED_MS);
                }
            }
        }
    }
    rep.attempted += 1;
    if repeats == 0 || cache_served * 2 < repeats {
        rep.fail(format!(
            "only {cache_served} of {repeats} repeats were served from the result cache"
        ));
    }
    let qasm = mix
        .pool
        .iter()
        .filter_map(|j| match &j.circuit {
            aq_serve::CircuitSpec::Qasm(q) => Some(q.clone()),
            _ => None,
        })
        .take(64)
        .collect();
    Measured {
        loop_s,
        rss_mb,
        rss_readings_mb,
        latencies_ms,
        completed,
        completed_per_s,
        passes,
        rows,
        counters,
        circuits,
        jobs,
        qasm,
    }
}

fn step_label(step: &Step, mix: &WireMix) -> String {
    match step {
        Step::Valid(i) => format!("request {i} ({})", mix.pool[*i].kind),
        Step::Invalid(k, _) => format!("invalid {k:?}"),
    }
}
