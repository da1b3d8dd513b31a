//! Wire-schema lockdown for the one codec in `aq_serve::protocol`.
//!
//! - Every field the service writes is read back here through the
//!   rendered JSON, field by field, from live jobs.
//! - Every `Response` variant renders to a golden byte string: field
//!   order included, since `scripts/ci.sh` greps the live server's
//!   replies.
//! - `Request::parse(&r.render()) == Ok(r)` holds for every request
//!   `parse` can return: a seeded property over all seven verbs, the five
//!   circuit kinds, the three schemes, each budget field present and
//!   absent, `resume` and `sample`.
//! - `aq-cli` flags reach a live server as typed, rendered requests.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use aq_dd::{EngineStatistics, RunBudget};
use aq_serve::protocol::{
    DEFAULT_EPS, DEFAULT_GSE_PRECISION_BITS, DEFAULT_GSE_TROTTER_SLICES, DEFAULT_SAMPLE_SEED,
    DEFAULT_SHOTS, DEFAULT_TOP_K, DEFAULT_WAIT_TIMEOUT, DEFAULT_WELD_SEED,
};
use aq_serve::service::ClassHealthReport;
use aq_serve::{
    CircuitSpec, Client, FaultCounters, JobState, JobStatusReport, Json, MetricsReport, Request,
    Response, ResultCacheStats, SchemeClass, ServeConfig, ServeCore, SubmitRequest, WorkerReport,
    WorkerStats, LATENCY_BUCKETS, MAX_SHOTS,
};
use aq_sim::{JobAbortInfo, JobOutcome, SampleParams, SampleProbability, SampleReport, SchemeSpec};
use aq_testutil::Rng;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aq-wire-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Renders a response the way the TCP server would and parses it back.
fn wire(response: &Response) -> Json {
    Json::parse(&response.render()).expect("every response renders as valid JSON")
}

fn require_num(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field `{key}` in {json:?}"))
}

fn require_str<'j>(json: &'j Json, key: &str) -> &'j str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string field `{key}` in {json:?}"))
}

fn require_bool(json: &Json, key: &str) -> bool {
    json.get(key)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("missing bool field `{key}` in {json:?}"))
}

fn require_arr<'j>(json: &'j Json, key: &str) -> &'j [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("missing array field `{key}`, got {other:?}"),
    }
}

fn require_obj<'j>(json: &'j Json, key: &str) -> &'j Json {
    match json.get(key) {
        Some(o @ Json::Obj(_)) => o,
        other => panic!("missing object field `{key}`, got {other:?}"),
    }
}

#[test]
fn every_response_field_round_trips_through_the_wire() {
    let cfg = ServeConfig {
        workers: vec![SchemeClass::Numeric, SchemeClass::Algebraic],
        queue_capacity: 16,
        checkpoint_dir: test_dir("schema"),
        ..ServeConfig::default()
    };
    let core = ServeCore::start(cfg).expect("start worker pool");
    let client = Client::new(Arc::clone(&core));

    // --- submit: a sampled algebraic job (exercises the exact field) ---
    let submitted = client.submit(SubmitRequest {
        circuit: CircuitSpec::Grover { n: 4, marked: 11 },
        scheme: SchemeSpec::Qomega,
        priority: 3,
        budget: RunBudget::unlimited().with_max_nodes(2_000_000),
        resume: None,
        top_k: 4,
        sample: Some(SampleParams { shots: 64, seed: 7 }),
    });
    let sj = wire(&submitted);
    assert!(require_bool(&sj, "ok"));
    assert_eq!(require_str(&sj, "verb"), "submit");
    assert_eq!(require_str(&sj, "state"), "queued");
    let job = require_num(&sj, "job") as u64;

    // --- wait → status of a completed job: outcome + sample schema ---
    let status = client.wait(job, Duration::from_secs(120));
    let st = wire(&status);
    assert!(require_bool(&st, "ok"));
    assert_eq!(require_str(&st, "verb"), "status");
    assert_eq!(require_num(&st, "job") as u64, job);
    assert_eq!(require_str(&st, "state"), "completed");
    assert!(!require_str(&st, "label").is_empty());
    assert!(!require_str(&st, "scheme").is_empty());
    assert_eq!(require_num(&st, "priority") as u8, 3);
    assert!(require_num(&st, "gates_applied") >= 1.0);
    assert!(require_num(&st, "seconds") >= 0.0);
    assert!(require_num(&st, "final_nodes") >= 1.0);
    assert!(!require_bool(&st, "resumed"));
    assert!(require_num(&st, "cache_hit_rate") >= 0.0);
    // Sampled jobs report their distribution through the sample block;
    // the top-k array stays empty by design.
    assert!(require_arr(&st, "top").is_empty());
    let sample = require_obj(&st, "sample");
    assert_eq!(require_num(sample, "shots") as u64, 64);
    assert_eq!(require_num(sample, "seed") as u64, 7);
    assert!(!require_bool(sample, "forked"));
    let counts = require_arr(sample, "counts");
    let total: f64 = counts
        .iter()
        .map(|pair| match pair {
            Json::Arr(iv) => iv.get(1).and_then(Json::as_f64).unwrap_or(0.0),
            _ => 0.0,
        })
        .sum();
    assert_eq!(total as u64, 64, "histogram counts sum to the shot count");
    let probabilities = require_arr(sample, "probabilities");
    assert!(!probabilities.is_empty());
    for p in probabilities {
        assert!(require_num(p, "index") >= 0.0);
        assert!(require_num(p, "p") >= 0.0);
        // exact amplitude string: present on the algebraic lane
        assert!(
            p.get("exact").and_then(Json::as_str).is_some(),
            "Qomega probabilities carry exact amplitudes: {p:?}"
        );
    }

    // --- an unsampled job: top-k probabilities populated ---
    let plain = client.submit(SubmitRequest {
        circuit: CircuitSpec::Grover { n: 4, marked: 11 },
        scheme: SchemeSpec::Numeric { eps: 1e-10 },
        priority: 0,
        budget: RunBudget::unlimited().with_max_nodes(2_000_000),
        resume: None,
        top_k: 4,
        sample: None,
    });
    let plain_job = require_num(&wire(&plain), "job") as u64;
    let plain_status = wire(&client.wait(plain_job, Duration::from_secs(120)));
    assert_eq!(require_str(&plain_status, "state"), "completed");
    let top = require_arr(&plain_status, "top");
    assert_eq!(top.len(), 4, "top-k probabilities present when unsampled");
    match &top[0] {
        Json::Arr(pair) => {
            assert_eq!(pair[0].as_u64(), Some(11), "marked element wins");
            assert!(pair[1].as_f64().unwrap_or(0.0) > 0.9);
        }
        other => panic!("top entries are [index, p] pairs, got {other:?}"),
    }

    // --- a starved budget: aborted status with checkpoint fields ---
    let starved = client.submit(SubmitRequest {
        circuit: CircuitSpec::Grover { n: 6, marked: 45 },
        scheme: SchemeSpec::Numeric { eps: 1e-10 },
        priority: 0,
        budget: RunBudget::unlimited().with_max_nodes(20),
        resume: None,
        top_k: 4,
        sample: None,
    });
    let starved_job = require_num(&wire(&starved), "job") as u64;
    let aborted_status = client.wait(starved_job, Duration::from_secs(120));
    let ab = wire(&aborted_status);
    assert_eq!(require_str(&ab, "state"), "aborted");
    assert!(require_str(&ab, "reason").contains("node budget exceeded"));
    assert!(!require_bool(&ab, "evicted"));
    assert!(
        ab.get("checkpoint").is_some(),
        "aborted status carries the checkpoint field (path or null)"
    );

    // --- metrics: the full report schema ---
    let metrics = wire(&core.handle(aq_serve::Request::Metrics));
    assert!(require_bool(&metrics, "ok"));
    assert_eq!(require_str(&metrics, "verb"), "metrics");
    assert_eq!(require_num(&metrics, "submitted") as u64, 3);
    assert_eq!(require_num(&metrics, "completed") as u64, 2);
    assert_eq!(require_num(&metrics, "aborted") as u64, 1);
    assert_eq!(require_num(&metrics, "rejected") as u64, 0);
    assert_eq!(require_num(&metrics, "evicted") as u64, 0);
    assert_eq!(require_num(&metrics, "queue_depth") as u64, 0);
    assert_eq!(require_num(&metrics, "running") as u64, 0);
    assert_eq!(require_num(&metrics, "worker_deaths") as u64, 0);
    assert_eq!(require_num(&metrics, "worker_respawns") as u64, 0);
    assert_eq!(require_num(&metrics, "shed_deadline") as u64, 0);
    assert_eq!(require_num(&metrics, "samples") as u64, 1);
    assert_eq!(require_num(&metrics, "shots") as u64, 64);

    let cache = require_obj(&metrics, "result_cache");
    assert_eq!(require_num(cache, "served") as u64, 0);
    assert!(require_num(cache, "hits") >= 0.0);
    assert!(require_num(cache, "misses") >= 1.0);
    assert!(require_num(cache, "insertions") >= 1.0);
    assert!(require_num(cache, "evictions") >= 0.0);
    assert!((0.0..=1.0).contains(&require_num(cache, "hit_rate")));
    assert!(require_num(cache, "entries") >= 1.0);
    assert!(require_num(cache, "capacity") >= 1.0);

    let conns = require_obj(&metrics, "connections");
    assert_eq!(
        require_num(conns, "accepted") as u64,
        0,
        "no TCP server attached"
    );
    assert_eq!(require_num(conns, "rejected") as u64, 0);
    assert_eq!(require_num(conns, "reaped_at_shutdown") as u64, 0);

    let latency = require_obj(&metrics, "latency_ms");
    let edges = require_arr(latency, "bucket_edges");
    let lat_counts = require_arr(latency, "counts");
    assert_eq!(lat_counts.len(), edges.len() + 1, "overflow bucket");
    assert!(latency.get("p50").and_then(Json::as_f64).is_some());
    assert!(latency.get("p99").and_then(Json::as_f64).is_some());

    let workers = require_arr(&metrics, "workers");
    assert_eq!(workers.len(), 2);
    for w in workers {
        assert!(require_num(w, "worker") < 2.0);
        assert!(matches!(require_str(w, "class"), "numeric" | "algebraic"));
        assert!(require_num(w, "jobs") >= 0.0);
        assert!(require_num(w, "busy_seconds") >= 0.0);
        assert!(require_num(w, "cache_hit_rate") >= 0.0);
        assert!(require_num(w, "nodes_allocated") >= 0.0);
        assert!(require_num(w, "compactions") >= 0.0);
        assert!(require_num(w, "warm_reuses") >= 0.0);
        assert!(require_num(w, "session_shrinks") >= 0.0);
        assert!(require_num(w, "quarantines") >= 0.0);
        assert!(require_num(w, "validations") >= 0.0);
        assert!(require_num(w, "validate_failures") >= 0.0);
        assert!(require_num(w, "rebuilds") >= 0.0);
    }
    let total_jobs: f64 = workers.iter().map(|w| require_num(w, "jobs")).sum();
    assert_eq!(total_jobs as u64, 3);

    let health = require_arr(&metrics, "health");
    assert_eq!(health.len(), 2, "one row per scheme class");
    for h in health {
        assert!(matches!(require_str(h, "class"), "numeric" | "algebraic"));
        assert_eq!(require_num(h, "configured") as u64, 1);
        assert_eq!(require_num(h, "live") as u64, 1);
        assert_eq!(require_num(h, "respawning") as u64, 0);
        assert_eq!(require_num(h, "restarts_used") as u64, 0);
        assert!(require_num(h, "restart_budget") >= 1.0);
        assert!(require_bool(h, "healthy"));
    }

    // chaos block: null without a fault plan, but the keys stay read —
    // the chaos suite runs in another binary, the schema lives here
    match metrics.get("chaos") {
        Some(Json::Null) | None => {}
        Some(c) => {
            assert!(require_num(c, "kills") >= 0.0);
            assert!(require_num(c, "corruptions") >= 0.0);
            assert!(require_num(c, "stalls") >= 0.0);
            assert!(require_num(c, "wakeups") >= 0.0);
        }
    }

    // --- drain, then shutdown: terminal lifecycle schemas ---
    let drained = wire(&client.drain());
    assert!(require_bool(&drained, "ok"));
    assert_eq!(require_str(&drained, "verb"), "drain");
    assert_eq!(require_str(&drained, "state"), "drained");
    assert_eq!(require_num(&drained, "completed") as u64, 2);
    assert_eq!(require_num(&drained, "aborted") as u64, 1);

    let stopped = wire(&client.shutdown());
    assert!(require_bool(&stopped, "ok"));
    assert_eq!(require_str(&stopped, "verb"), "shutdown");
    assert_eq!(require_str(&stopped, "state"), "stopped");
    assert_eq!(require_num(&stopped, "evicted_queued") as u64, 0);
    assert_eq!(require_num(&stopped, "cancelled_running") as u64, 0);
}

#[test]
fn rejection_and_error_schemas_round_trip() {
    let cfg = ServeConfig {
        workers: vec![SchemeClass::Numeric],
        queue_capacity: 4,
        checkpoint_dir: test_dir("reject"),
        ..ServeConfig::default()
    };
    let core = ServeCore::start(cfg).expect("start worker pool");
    let client = Client::new(Arc::clone(&core));

    // No algebraic worker configured → static rejection with a reason.
    let rejected = client.submit(SubmitRequest {
        circuit: CircuitSpec::Grover { n: 3, marked: 1 },
        scheme: SchemeSpec::Qomega,
        priority: 0,
        budget: RunBudget::unlimited(),
        resume: None,
        top_k: 1,
        sample: None,
    });
    let rj = wire(&rejected);
    assert!(require_bool(&rj, "ok"));
    assert_eq!(require_str(&rj, "state"), "rejected");
    assert!(!require_str(&rj, "reason").is_empty());

    // Unknown job id → the unknown-state status schema.
    let unknown = wire(&client.status(999_999));
    assert_eq!(require_str(&unknown, "state"), "unknown");
    assert_eq!(require_num(&unknown, "job") as u64, 999_999);

    let stopped = wire(&client.shutdown());
    assert_eq!(require_str(&stopped, "state"), "stopped");
}

// ------------------------------------------------------------ goldens --

/// One fixed value of every `Response` variant (and of every optional
/// branch inside them), named for the golden table below.
fn golden_responses() -> Vec<(&'static str, Response)> {
    let mut statistics = EngineStatistics::default();
    statistics.mv.lookups = 8;
    statistics.mv.hits = 2;
    let outcome = |aborted: Option<JobAbortInfo>, sample: Option<SampleReport>| JobOutcome {
        gates_applied: 42,
        seconds: 0.125,
        final_nodes: 9,
        statistics,
        top_probabilities: if sample.is_some() || aborted.is_some() {
            Vec::new()
        } else {
            vec![(11, 0.9613037109375), (0, 0.0025787353515625)]
        },
        resumed: aborted.is_none() && sample.is_none(),
        sample,
        aborted,
    };
    let status = |state: JobState, outcome: Option<JobOutcome>| {
        Response::Status(Box::new(JobStatusReport {
            job: 3,
            state,
            label: "grover4x11".into(),
            scheme: "qomega".into(),
            priority: 3,
            outcome,
        }))
    };
    let sample = SampleReport {
        shots: 64,
        seed: 7,
        forked: false,
        counts: vec![(0, 30), (11, 34)],
        probabilities: vec![
            SampleProbability {
                index: 0,
                probability: 0.5,
                exact: Some("(0w3 + 0w2 + 0w + 1) / sqrt2^2".into()),
            },
            SampleProbability {
                index: 11,
                probability: 0.5,
                exact: None,
            },
        ],
    };
    let mut latency_counts = [0u64; LATENCY_BUCKETS];
    latency_counts[2] = 5;
    latency_counts[LATENCY_BUCKETS - 1] = 1;
    let mut engine = statistics;
    engine.vec_nodes = 100;
    engine.mat_nodes = 20;
    engine.compactions = 1;
    let metrics = |chaos: Option<FaultCounters>| {
        Response::Metrics(Box::new(MetricsReport {
            submitted: 6,
            completed: 3,
            aborted: 2,
            rejected: 1,
            evicted: 1,
            queue_depth: 0,
            running: 0,
            cache_served: 1,
            cache: ResultCacheStats {
                hits: 1,
                misses: 3,
                insertions: 2,
                evictions: 0,
            },
            cache_entries: 2,
            cache_capacity: 256,
            connections_accepted: 4,
            connections_rejected: 1,
            latency_counts,
            p50_ms: Some(0.4),
            p99_ms: None,
            workers: vec![
                WorkerReport {
                    worker: 0,
                    class: SchemeClass::Numeric,
                    stats: WorkerStats {
                        jobs: 3,
                        engine,
                        busy_seconds: 0.75,
                        warm_reuses: 2,
                        session_shrinks: 0,
                        quarantines: 1,
                        validations: 1,
                        validate_failures: 0,
                        rebuilds: 1,
                    },
                },
                WorkerReport {
                    worker: 1,
                    class: SchemeClass::Algebraic,
                    stats: WorkerStats::default(),
                },
            ],
            worker_deaths: 1,
            worker_respawns: 1,
            shed_deadline: 0,
            samples: 1,
            shots: 64,
            connections_reaped_at_shutdown: 0,
            health: vec![
                ClassHealthReport {
                    class: SchemeClass::Numeric,
                    configured: 1,
                    live: 1,
                    respawning: 0,
                    restarts_used: 1,
                    restart_budget: 8,
                    healthy: true,
                },
                ClassHealthReport {
                    class: SchemeClass::Algebraic,
                    configured: 1,
                    live: 0,
                    respawning: 1,
                    restarts_used: 8,
                    restart_budget: 8,
                    healthy: false,
                },
            ],
            chaos,
        }))
    };
    vec![
        ("submitted", Response::Submitted { job: 7 }),
        (
            "rejected_retryable",
            Response::Rejected {
                reason: "queue full".into(),
                retry_after_ms: Some(250),
            },
        ),
        (
            "rejected_permanent",
            Response::Rejected {
                reason: "no worker serves the algebraic class".into(),
                retry_after_ms: None,
            },
        ),
        ("status_queued", status(JobState::Queued, None)),
        (
            "status_completed_top_k",
            status(JobState::Completed, Some(outcome(None, None))),
        ),
        (
            "status_completed_sample",
            status(JobState::Completed, Some(outcome(None, Some(sample)))),
        ),
        (
            "status_aborted_checkpointed",
            status(
                JobState::Aborted,
                Some(outcome(
                    Some(JobAbortInfo {
                        reason: "node budget exceeded: 25 nodes allocated (limit 24)".into(),
                        checkpoint: Some(PathBuf::from("/ck/job-3.aqckp")),
                        evicted: true,
                    }),
                    None,
                )),
            ),
        ),
        (
            "status_aborted_transient",
            status(
                JobState::Aborted,
                Some(outcome(
                    Some(JobAbortInfo {
                        reason: "transient: worker died mid-job; resubmit to rerun".into(),
                        checkpoint: None,
                        evicted: false,
                    }),
                    None,
                )),
            ),
        ),
        ("unknown_job", Response::UnknownJob { job: 999 }),
        ("metrics", metrics(None)),
        (
            "metrics_chaos",
            metrics(Some(FaultCounters {
                kills: 2,
                corruptions: 1,
                stalls: 0,
                wakeups: 5,
            })),
        ),
        (
            "drained",
            Response::Drained {
                completed: 2,
                aborted: 1,
            },
        ),
        (
            "shutdown",
            Response::ShutdownDone {
                evicted_queued: 0,
                cancelled_running: 1,
            },
        ),
        (
            "error",
            Response::Error {
                message: "invalid JSON at byte 0: unexpected \"x\"\n".into(),
            },
        ),
    ]
}

/// The exact bytes of each response above. Captured from the renderer
/// before it moved into `protocol.rs`; any change here is a wire-contract
/// change.
const GOLDEN: &[(&str, &str)] = &[
    (
        "submitted",
        r#"{"ok":true,"verb":"submit","job":7,"state":"queued"}"#,
    ),
    (
        "rejected_retryable",
        r#"{"ok":true,"verb":"submit","state":"rejected","reason":"queue full","retry_after_ms":250}"#,
    ),
    (
        "rejected_permanent",
        r#"{"ok":true,"verb":"submit","state":"rejected","reason":"no worker serves the algebraic class"}"#,
    ),
    (
        "status_queued",
        r#"{"ok":true,"verb":"status","job":3,"state":"queued","label":"grover4x11","scheme":"qomega","priority":3}"#,
    ),
    (
        "status_completed_top_k",
        r#"{"ok":true,"verb":"status","job":3,"state":"completed","label":"grover4x11","scheme":"qomega","priority":3,"gates_applied":42,"seconds":0.125,"final_nodes":9,"resumed":true,"cache_hit_rate":0.25,"top":[[11,0.9613037109375],[0,0.0025787353515625]]}"#,
    ),
    (
        "status_completed_sample",
        r#"{"ok":true,"verb":"status","job":3,"state":"completed","label":"grover4x11","scheme":"qomega","priority":3,"gates_applied":42,"seconds":0.125,"final_nodes":9,"resumed":false,"cache_hit_rate":0.25,"top":[],"sample":{"shots":64,"seed":7,"forked":false,"counts":[[0,30],[11,34]],"probabilities":[{"index":0,"p":0.5,"exact":"(0w3 + 0w2 + 0w + 1) / sqrt2^2"},{"index":11,"p":0.5}]}}"#,
    ),
    (
        "status_aborted_checkpointed",
        r#"{"ok":true,"verb":"status","job":3,"state":"aborted","label":"grover4x11","scheme":"qomega","priority":3,"gates_applied":42,"seconds":0.125,"final_nodes":9,"resumed":false,"cache_hit_rate":0.25,"top":[],"reason":"node budget exceeded: 25 nodes allocated (limit 24)","evicted":true,"checkpoint":"/ck/job-3.aqckp"}"#,
    ),
    (
        "status_aborted_transient",
        r#"{"ok":true,"verb":"status","job":3,"state":"aborted","label":"grover4x11","scheme":"qomega","priority":3,"gates_applied":42,"seconds":0.125,"final_nodes":9,"resumed":false,"cache_hit_rate":0.25,"top":[],"reason":"transient: worker died mid-job; resubmit to rerun","evicted":false,"checkpoint":null}"#,
    ),
    (
        "unknown_job",
        r#"{"ok":true,"verb":"status","job":999,"state":"unknown"}"#,
    ),
    (
        "metrics",
        r#"{"ok":true,"verb":"metrics","submitted":6,"completed":3,"aborted":2,"rejected":1,"evicted":1,"queue_depth":0,"running":0,"worker_deaths":1,"worker_respawns":1,"shed_deadline":0,"samples":1,"shots":64,"result_cache":{"served":1,"hits":1,"misses":3,"insertions":2,"evictions":0,"hit_rate":0.25,"entries":2,"capacity":256},"connections":{"accepted":4,"rejected":1,"reaped_at_shutdown":0},"latency_ms":{"bucket_edges":[0.1,0.2,0.4,0.8,1.6,3.2,6.4,12.8,25.6,51.2,102.4,204.8,409.6,819.2,1638.4,3276.8,6553.6,13107.2,26214.4],"counts":[0,0,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1],"p50":0.4,"p99":null},"workers":[{"worker":0,"class":"numeric","jobs":3,"busy_seconds":0.75,"cache_hit_rate":0.25,"nodes_allocated":120,"compactions":1,"warm_reuses":2,"session_shrinks":0,"quarantines":1,"validations":1,"validate_failures":0,"rebuilds":1},{"worker":1,"class":"algebraic","jobs":0,"busy_seconds":0,"cache_hit_rate":0,"nodes_allocated":0,"compactions":0,"warm_reuses":0,"session_shrinks":0,"quarantines":0,"validations":0,"validate_failures":0,"rebuilds":0}],"health":[{"class":"numeric","configured":1,"live":1,"respawning":0,"restarts_used":1,"restart_budget":8,"healthy":true},{"class":"algebraic","configured":1,"live":0,"respawning":1,"restarts_used":8,"restart_budget":8,"healthy":false}],"chaos":null}"#,
    ),
    (
        "metrics_chaos",
        r#"{"ok":true,"verb":"metrics","submitted":6,"completed":3,"aborted":2,"rejected":1,"evicted":1,"queue_depth":0,"running":0,"worker_deaths":1,"worker_respawns":1,"shed_deadline":0,"samples":1,"shots":64,"result_cache":{"served":1,"hits":1,"misses":3,"insertions":2,"evictions":0,"hit_rate":0.25,"entries":2,"capacity":256},"connections":{"accepted":4,"rejected":1,"reaped_at_shutdown":0},"latency_ms":{"bucket_edges":[0.1,0.2,0.4,0.8,1.6,3.2,6.4,12.8,25.6,51.2,102.4,204.8,409.6,819.2,1638.4,3276.8,6553.6,13107.2,26214.4],"counts":[0,0,5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1],"p50":0.4,"p99":null},"workers":[{"worker":0,"class":"numeric","jobs":3,"busy_seconds":0.75,"cache_hit_rate":0.25,"nodes_allocated":120,"compactions":1,"warm_reuses":2,"session_shrinks":0,"quarantines":1,"validations":1,"validate_failures":0,"rebuilds":1},{"worker":1,"class":"algebraic","jobs":0,"busy_seconds":0,"cache_hit_rate":0,"nodes_allocated":0,"compactions":0,"warm_reuses":0,"session_shrinks":0,"quarantines":0,"validations":0,"validate_failures":0,"rebuilds":0}],"health":[{"class":"numeric","configured":1,"live":1,"respawning":0,"restarts_used":1,"restart_budget":8,"healthy":true},{"class":"algebraic","configured":1,"live":0,"respawning":1,"restarts_used":8,"restart_budget":8,"healthy":false}],"chaos":{"kills":2,"corruptions":1,"stalls":0,"wakeups":5}}"#,
    ),
    (
        "drained",
        r#"{"ok":true,"verb":"drain","state":"drained","completed":2,"aborted":1}"#,
    ),
    (
        "shutdown",
        r#"{"ok":true,"verb":"shutdown","state":"stopped","evicted_queued":0,"cancelled_running":1}"#,
    ),
    (
        "error",
        r#"{"ok":false,"error":"invalid JSON at byte 0: unexpected \"x\"\n"}"#,
    ),
];

#[test]
fn every_response_variant_renders_its_golden_bytes() {
    let responses = golden_responses();
    assert_eq!(responses.len(), GOLDEN.len());
    for ((name, response), (golden_name, golden)) in responses.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert_eq!(response.render(), *golden, "{name}");
    }
}

// --------------------------------------------------------- round trip --

/// A wire integer: every integer `parse` accepts is at most 2⁵³.
fn wire_int(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => 0,
        1 => 1 << 53,
        2 => rng.below(1000),
        _ => rng.below((1 << 53) + 1),
    }
}

fn wire_u32(rng: &mut Rng) -> u32 {
    match rng.below(3) {
        0 => u32::MAX,
        1 => rng.below(100) as u32,
        _ => rng.next_u64() as u32,
    }
}

/// Seconds in `[0, max]` as `parse` builds them, edges included.
fn wire_duration(rng: &mut Rng, max: f64) -> Duration {
    let secs = match rng.below(4) {
        0 => 0.0,
        1 => max,
        _ => rng.unit_f64() * max,
    };
    Duration::from_secs_f64(secs)
}

/// Text that exercises the JSON string escapes.
fn wire_text(rng: &mut Rng) -> String {
    const PALETTE: &[char] = &[
        'a', 'q', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', 'ω', '𝄞',
    ];
    (0..rng.below(24))
        .map(|_| PALETTE[rng.below(PALETTE.len() as u64) as usize])
        .collect()
}

fn maybe<T>(rng: &mut Rng, f: impl FnOnce(&mut Rng) -> T) -> Option<T> {
    if rng.gen_bool() {
        Some(f(rng))
    } else {
        None
    }
}

fn arbitrary_circuit(rng: &mut Rng) -> CircuitSpec {
    match rng.below(5) {
        0 => CircuitSpec::Grover {
            n: wire_u32(rng),
            marked: wire_int(rng),
        },
        1 => CircuitSpec::Bwt {
            height: wire_u32(rng),
            steps: wire_u32(rng),
            seed: wire_int(rng),
        },
        2 => CircuitSpec::Gse {
            precision_bits: wire_u32(rng),
            trotter_slices: wire_u32(rng),
        },
        3 => CircuitSpec::Qft { n: wire_u32(rng) },
        _ => CircuitSpec::Qasm(wire_text(rng)),
    }
}

fn arbitrary_scheme(rng: &mut Rng) -> SchemeSpec {
    match rng.below(3) {
        0 => SchemeSpec::Numeric {
            eps: match rng.below(5) {
                0 => 0.0,
                1 => 1.0,
                2 => DEFAULT_EPS,
                3 => f64::MIN_POSITIVE * rng.unit_f64(),
                _ => rng.unit_f64(),
            },
        },
        1 => SchemeSpec::Qomega,
        _ => SchemeSpec::Gcd,
    }
}

fn arbitrary_submit(rng: &mut Rng, sample: bool) -> SubmitRequest {
    let wire_usize = |rng: &mut Rng| usize::try_from(wire_int(rng)).expect("64-bit usize");
    SubmitRequest {
        circuit: arbitrary_circuit(rng),
        scheme: arbitrary_scheme(rng),
        priority: rng.below(10) as u8,
        budget: RunBudget {
            max_nodes: maybe(rng, wire_usize),
            max_distinct_weights: maybe(rng, wire_usize),
            max_weight_bits: maybe(rng, wire_int),
            deadline: maybe(rng, |rng| wire_duration(rng, 3600.0)),
        },
        // `sample` rejects `resume`, so only a plain submit carries one
        resume: if sample {
            None
        } else {
            maybe(rng, |rng| PathBuf::from(wire_text(rng)))
        },
        top_k: rng.below(65) as usize,
        sample: sample.then(|| SampleParams {
            shots: 1 + rng.below(MAX_SHOTS),
            seed: wire_int(rng),
        }),
    }
}

/// A request `parse` can return: integers at most 2⁵³, `top_k` at most
/// 64, `eps` in [0, 1], durations built by `Duration::from_secs_f64`
/// within the clamp and deadline ranges.
fn arbitrary_request(rng: &mut Rng) -> Request {
    match rng.below(7) {
        0 => Request::Submit(Box::new(arbitrary_submit(rng, false))),
        1 => Request::Submit(Box::new(arbitrary_submit(rng, true))),
        2 => Request::Status { job: wire_int(rng) },
        3 => Request::Wait {
            job: wire_int(rng),
            timeout: wire_duration(rng, 600.0),
        },
        4 => Request::Metrics,
        5 => Request::Drain,
        _ => Request::Shutdown,
    }
}

/// Which parts of the grammar a generated request exercised.
fn coverage(request: &Request) -> Vec<&'static str> {
    let s = match request {
        Request::Submit(s) => s,
        Request::Status { .. } => return vec!["status"],
        Request::Wait { .. } => return vec!["wait"],
        Request::Metrics => return vec!["metrics"],
        Request::Drain => return vec!["drain"],
        Request::Shutdown => return vec!["shutdown"],
    };
    let present = |set: bool, yes: &'static str, no: &'static str| if set { yes } else { no };
    let b = &s.budget;
    vec![
        present(s.sample.is_some(), "sample", "submit"),
        match s.circuit {
            CircuitSpec::Grover { .. } => "grover",
            CircuitSpec::Bwt { .. } => "bwt",
            CircuitSpec::Gse { .. } => "gse",
            CircuitSpec::Qft { .. } => "qft",
            CircuitSpec::Qasm(_) => "qasm",
        },
        match s.scheme {
            SchemeSpec::Numeric { .. } => "numeric",
            SchemeSpec::Qomega => "qomega",
            SchemeSpec::Gcd => "gcd",
        },
        present(s.resume.is_some(), "resume", "no resume"),
        present(b.max_nodes.is_some(), "max_nodes", "no max_nodes"),
        present(
            b.max_distinct_weights.is_some(),
            "max_weights",
            "no max_weights",
        ),
        present(b.max_weight_bits.is_some(), "max_bits", "no max_bits"),
        present(b.deadline.is_some(), "deadline_secs", "no deadline_secs"),
    ]
}

#[test]
fn every_parsable_request_round_trips_through_render() {
    const SEED: u64 = 0x00C0_DEC0;
    const CASES: u64 = 4000;
    let mut seen = std::collections::BTreeSet::new();
    for case in 0..CASES {
        let seed = SEED + case;
        let request = arbitrary_request(&mut Rng::from_seed(seed));
        let line = request.render();
        assert_eq!(
            Request::parse(&line),
            Ok(request.clone()),
            "round trip failed for seed {seed:#x}: {line}"
        );
        seen.extend(coverage(&request));
    }
    for part in [
        "submit",
        "sample",
        "status",
        "wait",
        "metrics",
        "drain",
        "shutdown",
        "grover",
        "bwt",
        "gse",
        "qft",
        "qasm",
        "numeric",
        "qomega",
        "gcd",
        "resume",
        "no resume",
        "max_nodes",
        "no max_nodes",
        "max_weights",
        "no max_weights",
        "max_bits",
        "no max_bits",
        "deadline_secs",
        "no deadline_secs",
    ] {
        assert!(seen.contains(part), "the generator never produced {part}");
    }
}

#[test]
fn omitted_fields_parse_to_the_published_defaults() {
    let parsed = |line: &str| Request::parse(line).expect(line);
    let Request::Submit(s) = parsed(r#"{"verb":"sample","circuit":"gse"}"#) else {
        panic!("expected a submission");
    };
    assert_eq!(
        s.circuit,
        CircuitSpec::Gse {
            precision_bits: DEFAULT_GSE_PRECISION_BITS,
            trotter_slices: DEFAULT_GSE_TROTTER_SLICES,
        }
    );
    assert_eq!(s.scheme, SchemeSpec::Numeric { eps: DEFAULT_EPS });
    assert_eq!(s.top_k, DEFAULT_TOP_K);
    assert_eq!(
        s.sample,
        Some(SampleParams {
            shots: DEFAULT_SHOTS,
            seed: DEFAULT_SAMPLE_SEED,
        })
    );
    let Request::Submit(s) = parsed(r#"{"verb":"submit","circuit":"bwt","height":2,"steps":3}"#)
    else {
        panic!("expected a submission");
    };
    assert_eq!(
        s.circuit,
        CircuitSpec::Bwt {
            height: 2,
            steps: 3,
            seed: DEFAULT_WELD_SEED,
        }
    );
    assert_eq!(
        parsed(r#"{"verb":"wait","job":4}"#),
        Request::Wait {
            job: 4,
            timeout: DEFAULT_WAIT_TIMEOUT,
        }
    );
}

#[test]
fn a_sampled_bwt_job_keeps_its_weld_seed_and_shot_seed_apart() {
    let line = r#"{"verb":"sample","circuit":"bwt","height":2,"steps":3,"weld_seed":5,
        "seed":7,"scheme":"gcd","budget":{"max_nodes":1000}}"#;
    let Ok(Request::Submit(s)) = Request::parse(line) else {
        panic!("expected a submission");
    };
    assert_eq!(
        s.circuit,
        CircuitSpec::Bwt {
            height: 2,
            steps: 3,
            seed: 5,
        }
    );
    assert_eq!(
        s.sample,
        Some(SampleParams {
            shots: DEFAULT_SHOTS,
            seed: 7
        })
    );
    // and the pair survives a render
    let request = Request::Submit(s);
    assert_eq!(Request::parse(&request.render()), Ok(request));
}

/// Runs the `aq-cli` binary against `addr`; returns its exit status and
/// its stdout reply lines parsed as JSON.
fn aq_cli(addr: &str, args: &[&str]) -> (bool, Vec<Json>) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_aq-cli"))
        .arg(format!("--addr={addr}"))
        .args(args)
        .output()
        .expect("run aq-cli");
    let text = String::from_utf8(out.stdout).expect("utf-8 replies");
    let replies = text
        .lines()
        .map(|l| Json::parse(l).expect("every printed reply is JSON"))
        .collect();
    (out.status.success(), replies)
}

#[test]
fn aq_cli_flags_reach_the_server_as_typed_requests() {
    let cfg = ServeConfig {
        workers: vec![SchemeClass::Algebraic],
        queue_capacity: 4,
        checkpoint_dir: test_dir("cli"),
        ..ServeConfig::default()
    };
    let core = ServeCore::start(cfg).expect("start worker pool");
    let server = aq_serve::Server::bind(core, 0).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("event loop"));

    let bwt = [
        "--circuit=bwt",
        "--height=2",
        "--steps=3",
        "--weld-seed=5",
        "--scheme=gcd",
        "--max-nodes=100000",
        "--wait=60",
    ];
    let (ok, replies) = aq_cli(&addr, &[&["submit"], &bwt[..]].concat());
    assert!(ok, "{replies:?}");
    assert_eq!(replies.len(), 2, "submit reply, then the chained wait");
    assert_eq!(require_str(&replies[1], "state"), "completed");
    assert_eq!(require_str(&replies[1], "label"), "bwt_h2s3x5/gcd");

    // the same walk sampled: the weld seed and the shot seed stay apart
    let sample = [&["sample", "--shots=16", "--seed=7"], &bwt[..]].concat();
    let (ok, replies) = aq_cli(&addr, &sample);
    assert!(ok, "{replies:?}");
    assert_eq!(require_str(&replies[1], "label"), "bwt_h2s3x5/gcd");
    let drawn = require_obj(&replies[1], "sample");
    assert_eq!(require_num(drawn, "seed") as u64, 7);
    assert_eq!(require_num(drawn, "shots") as u64, 16);

    // a flag that does not parse fails in the client, before any request
    let (ok, replies) = aq_cli(&addr, &["status", "--job=seven"]);
    assert!(!ok && replies.is_empty());

    let (ok, replies) = aq_cli(&addr, &["shutdown"]);
    assert!(ok);
    assert_eq!(require_str(&replies[0], "state"), "stopped");
    server_thread
        .join()
        .expect("server thread exits after shutdown");
}
