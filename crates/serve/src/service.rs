//! The service core: admission control, the job registry and lifecycle,
//! and the hand-rolled worker pool.
//!
//! # Job state machine
//!
//! ```text
//! submit ──(admission)──► queued ──► running ──► completed
//!    │                       │          │
//!    │                       │          ├──► aborted   (budget / engine error)
//!    │                       │          └──► aborted*  (evicted: cancelled, checkpointed)
//!    │                       └──► aborted* (evicted: swept at shutdown)
//!    └──► rejected  (full queue, draining, bad request, missing budget,
//!                    no worker pinned to the scheme class)
//! ```
//!
//! `aborted*` evictions carry a checkpoint when anything had run, so the
//! client can resubmit with `resume` and finish bit-identically.
//!
//! Workers are plain OS threads, each *pinned to one scheme class*
//! (numeric or algebraic) and owning one engine `Manager` at a time via
//! its job's `Simulator` — managers are `Send` (see aq-dd's
//! `send_audit`) but never shared. A worker survives anything a job does:
//! engine errors arrive as structured aborts from
//! [`run_job`](aq_sim::run_job), and a panic in the stack below is caught
//! and converted into an aborted outcome.
//!
//! # Supervision
//!
//! Even the catch-everything worker loop can die — a panic outside the
//! guarded region (chaos injection does this on purpose), a stack
//! overflow aborting the unwind, a bug in the loop itself. The
//! [`ServeCore::supervise`] pass runs on every request and every event
//! loop tick and walks the worker slots through a small state machine:
//!
//! ```text
//!           spawn ok                    thread finished, not clean
//!   Spawning ───────► Live ──────────────────────────┐
//!      ▲                │ clean exit (queue closed)   │ death: orphaned job
//!      │ backoff due    ▼                             ▼ aborted `transient:`
//!      │            Retired ◄──(budget exhausted)── Respawning
//!      └────────────────────────────────────────────────┘
//! ```
//!
//! Each death recovers the orphaned job as a `transient:` abort, then
//! respawns the worker after a seeded, jittered exponential backoff —
//! until the class's restart budget runs out. A class with no slot left
//! outside `Retired` is **unhealthy**: its queued jobs are evicted once
//! (with a reason), and new submissions are refused with a
//! `retry_after_ms` hint instead of queueing into a black hole.

use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aq_circuits::Circuit;
use aq_dd::EngineStatistics;
use aq_sim::{
    EngineSession, JobAbortInfo, JobOutcome, JobSpec, SampleParams, SchemeSpec, SessionConfig,
    SimOptions,
};

use crate::backoff::Backoff;
use crate::cache::{CacheKey, ResultCache, ResultCacheStats};
use crate::faults::{ChaosKill, FaultCounters, FaultPlan};
use crate::lockaudit::{DebugCondvar, DebugMutex, DebugMutexGuard};
use crate::metrics::{histogram_quantile_ms, Metrics, WorkerStats, LATENCY_BUCKETS};
use crate::protocol::{Request, SubmitRequest, TRANSIENT_PREFIX};
use crate::queue::{AdmissionError, JobQueue};

/// How long blocking verbs sleep between completion checks; each wakeup
/// also runs a supervision pass, so a dead worker cannot stall `wait`,
/// `drain` or `shutdown` past this granularity.
const SUPERVISE_INTERVAL: Duration = Duration::from_millis(25);

/// The two families of weight systems a worker can be pinned to. Engine
/// managers are cheap per job, but the *working set* (gate caches, weight
/// table shapes) differs sharply between floats and bigint rings — the
/// pool keeps them on separate workers so an exact blow-up job cannot
/// stall the interactive numeric lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeClass {
    /// Tolerance-ε double-precision jobs.
    Numeric,
    /// Exact `Q[ω]` / `D[ω]` jobs.
    Algebraic,
}

impl SchemeClass {
    /// Number of classes (size of per-class arrays in the queue).
    pub const COUNT: usize = 2;

    /// Every class, in [`SchemeClass::index`] order.
    pub const ALL: [SchemeClass; SchemeClass::COUNT] =
        [SchemeClass::Numeric, SchemeClass::Algebraic];

    /// Dense index of this class, for per-class sub-queue arrays.
    pub const fn index(self) -> usize {
        match self {
            SchemeClass::Numeric => 0,
            SchemeClass::Algebraic => 1,
        }
    }

    /// The class a scheme belongs to.
    pub fn of(scheme: &SchemeSpec) -> SchemeClass {
        if scheme.is_algebraic() {
            SchemeClass::Algebraic
        } else {
            SchemeClass::Numeric
        }
    }

    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            SchemeClass::Numeric => "numeric",
            SchemeClass::Algebraic => "algebraic",
        }
    }

    /// Parses a pin-spec token.
    pub fn parse(s: &str) -> Option<SchemeClass> {
        match s {
            "numeric" => Some(SchemeClass::Numeric),
            "algebraic" => Some(SchemeClass::Algebraic),
            _ => None,
        }
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker pins, one entry per worker thread.
    pub workers: Vec<SchemeClass>,
    /// Bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Where per-job abort/eviction checkpoints are written.
    pub checkpoint_dir: PathBuf,
    /// Bound on memoized completed outcomes in the content-addressed
    /// result cache (`0` disables the cache).
    pub result_cache_capacity: usize,
    /// Per-worker session retention budget, in arena/unique-table slots
    /// (see [`aq_sim::SessionConfig::max_retained_capacity`]).
    pub session_max_retained_capacity: usize,
    /// Bound on simultaneously open TCP connections in the event loop;
    /// connections beyond it receive a structured error and are closed.
    pub max_connections: usize,
    /// Worker respawns the supervisor may spend per scheme class before
    /// marking the class unhealthy.
    pub restart_budget: u32,
    /// Nominal first respawn delay (jittered to `[d/2, d)`).
    pub backoff_base: Duration,
    /// Nominal respawn delay cap.
    pub backoff_cap: Duration,
    /// Seed for the supervisor's deterministic backoff jitter (each
    /// worker slot derives its own stream from this).
    pub supervisor_seed: u64,
    /// Run the structural invariant checker on a suspect warm session
    /// manager before reusing it (see
    /// [`aq_sim::SessionConfig::suspect_validate`]).
    pub session_suspect_validate: bool,
    /// The `retry_after_ms` hint attached to refusals for an unhealthy
    /// scheme class.
    pub unhealthy_retry_after: Duration,
    /// Per-connection flush grace at shutdown: a connection that cannot
    /// take its final bytes within this window is reaped (and counted)
    /// instead of starving other connections' flushes.
    pub shutdown_conn_flush_grace: Duration,
    /// Deterministic fault-injection plan (inert by default; only active
    /// under the `chaos` feature).
    pub fault_plan: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: vec![SchemeClass::Numeric, SchemeClass::Algebraic],
            queue_capacity: 64,
            checkpoint_dir: std::env::temp_dir().join("aq-serve-checkpoints"),
            result_cache_capacity: 256,
            session_max_retained_capacity: SessionConfig::default().max_retained_capacity,
            max_connections: 128,
            restart_budget: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            supervisor_seed: 0x5EED_507E,
            session_suspect_validate: true,
            unhealthy_retry_after: Duration::from_secs(5),
            shutdown_conn_flush_grace: Duration::from_secs(1),
            fault_plan: FaultPlan::none(),
        }
    }
}

impl ServeConfig {
    /// `n` workers pinned alternately numeric, algebraic, numeric, … —
    /// the default mix for a general-purpose server.
    pub fn with_workers(n: usize) -> Self {
        ServeConfig {
            workers: (0..n.max(1))
                .map(|i| {
                    if i % 2 == 0 {
                        SchemeClass::Numeric
                    } else {
                        SchemeClass::Algebraic
                    }
                })
                .collect(),
            ..ServeConfig::default()
        }
    }
}

/// Lifecycle position of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Inside a worker.
    Running,
    /// The whole circuit was applied.
    Completed,
    /// Stopped early (budget, engine error, or eviction).
    Aborted,
}

impl JobState {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Aborted => "aborted",
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Completed | JobState::Aborted)
    }
}

/// Everything a worker needs to run one admitted job.
#[derive(Debug)]
struct JobWork {
    circuit: Circuit,
    start: u64,
    scheme: SchemeSpec,
    options: SimOptions,
    label: String,
    resume: Option<PathBuf>,
    top_k: usize,
    sample: Option<SampleParams>,
}

/// Registry entry for one admitted job.
#[derive(Debug)]
struct JobRecord {
    state: JobState,
    label: String,
    scheme: String,
    priority: u8,
    submitted_at: Instant,
    outcome: Option<JobOutcome>,
    cancel: Arc<AtomicBool>,
    /// Result-cache key to fill on completion. `None` for resumed jobs
    /// (their outcome depends on checkpoint state the key cannot see) and
    /// for jobs that were themselves served from the cache.
    cache_key: Option<CacheKey>,
}

impl JobRecord {
    /// The reply `status` and `wait` give for this job.
    fn report(&self, job: u64) -> Response {
        Response::Status(Box::new(JobStatusReport {
            job,
            state: self.state,
            label: self.label.clone(),
            scheme: self.scheme.clone(),
            priority: self.priority,
            outcome: self.outcome.clone(),
        }))
    }
}

#[derive(Debug, Default)]
struct Registry {
    map: HashMap<u64, JobRecord>,
    /// Jobs admitted but not yet terminal (queued + running), maintained
    /// under this lock so drain/shutdown can wait race-free.
    pending: u64,
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    queue: JobQueue<JobWork>,
    registry: DebugMutex<Registry>,
    /// Signalled on every terminal transition (wait/drain listeners).
    terminal: DebugCondvar,
    next_id: AtomicU64,
    metrics: Metrics,
    /// Content-addressed memo of completed outcomes. Locked strictly
    /// *after* releasing the registry lock (never both at once).
    result_cache: DebugMutex<ResultCache>,
    /// Bumped on every terminal transition; the event loop re-polls its
    /// pending `wait` verbs only when this moves.
    completion_epoch: AtomicU64,
}

impl Shared {
    fn lock_registry(&self) -> DebugMutexGuard<'_, Registry> {
        self.registry.lock()
    }

    /// Moves a job to a terminal state and does every piece of
    /// bookkeeping that hangs off it.
    fn finish_job(&self, id: u64, outcome: JobOutcome) {
        let mut reg = self.lock_registry();
        let Some(rec) = reg.map.get_mut(&id) else {
            return;
        };
        if rec.state.is_terminal() {
            return;
        }
        let latency = rec.submitted_at.elapsed();
        let aborted = outcome.aborted.as_ref();
        rec.state = if aborted.is_none() {
            JobState::Completed
        } else {
            JobState::Aborted
        };
        match aborted {
            None => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                if let Some(report) = &outcome.sample {
                    self.metrics.samples.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .shots
                        .fetch_add(report.shots, Ordering::Relaxed);
                }
            }
            Some(info) => {
                self.metrics.aborted.fetch_add(1, Ordering::Relaxed);
                if info.evicted {
                    self.metrics.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // A completed, non-resumed outcome with a key becomes a cache
        // fill — staged here and performed only after the registry lock
        // is released (lock-order discipline: never hold two locks).
        let fill = if outcome.aborted.is_none() && !outcome.resumed {
            rec.cache_key.take().map(|key| (key, outcome.clone()))
        } else {
            None
        };
        rec.outcome = Some(outcome);
        self.metrics.latency.record(latency);
        reg.pending = reg.pending.saturating_sub(1);
        drop(reg);
        if let Some((key, memo)) = fill {
            self.result_cache.lock().insert(key, memo);
        }
        self.completion_epoch.fetch_add(1, Ordering::Release);
        self.terminal.notify_all();
    }
}

/// A typed job status (what the `status`/`wait` verbs report).
#[derive(Debug, Clone)]
pub struct JobStatusReport {
    /// Job id.
    pub job: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The job's checkpoint/report label.
    pub label: String,
    /// Scheme label (`numeric_eps…`, `qomega`, `gcd`).
    pub scheme: String,
    /// Queue priority it was admitted with.
    pub priority: u8,
    /// Terminal measurements (present once completed/aborted).
    pub outcome: Option<JobOutcome>,
}

/// One worker's row in the metrics report.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index.
    pub worker: usize,
    /// Scheme class the worker is pinned to.
    pub class: SchemeClass,
    /// Aggregates over the jobs it ran.
    pub stats: WorkerStats,
}

/// One scheme class's supervision health in the metrics report.
#[derive(Debug, Clone)]
pub struct ClassHealthReport {
    /// The class.
    pub class: SchemeClass,
    /// Worker slots configured for this class.
    pub configured: u64,
    /// Slots currently live (thread running).
    pub live: u64,
    /// Slots waiting out a respawn backoff (or mid-spawn).
    pub respawning: u64,
    /// Respawns already spent from the class's restart budget.
    pub restarts_used: u32,
    /// The configured restart budget.
    pub restart_budget: u32,
    /// Whether the class still accepts jobs (some slot is not retired).
    /// Classes with no configured workers are reported healthy here;
    /// admission rejects them with the static no-worker reason instead.
    pub healthy: bool,
}

/// A point-in-time metrics snapshot (the `metrics` verb).
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Submit requests received (accepted + rejected).
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs aborted (including evictions).
    pub aborted: u64,
    /// Submissions refused.
    pub rejected: u64,
    /// Evicted subset of `aborted`.
    pub evicted: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// Jobs inside workers right now.
    pub running: u64,
    /// Completed jobs answered from the result cache without queueing
    /// (subset of `completed`).
    pub cache_served: u64,
    /// Result-cache lifetime counters.
    pub cache: ResultCacheStats,
    /// Memoized outcomes currently stored.
    pub cache_entries: u64,
    /// Configured result-cache bound.
    pub cache_capacity: u64,
    /// TCP connections accepted by the event loop.
    pub connections_accepted: u64,
    /// Connections refused at the connection cap.
    pub connections_rejected: u64,
    /// Latency histogram bucket counts (edges in
    /// [`crate::metrics::LATENCY_BUCKET_EDGES_US`], plus overflow).
    pub latency_counts: [u64; LATENCY_BUCKETS],
    /// Median latency upper bound, fractional ms.
    pub p50_ms: Option<f64>,
    /// 99th-percentile latency upper bound, fractional ms.
    pub p99_ms: Option<f64>,
    /// Per-worker aggregates.
    pub workers: Vec<WorkerReport>,
    /// Worker threads the supervisor found dead.
    pub worker_deaths: u64,
    /// Worker threads the supervisor respawned.
    pub worker_respawns: u64,
    /// Submissions rejected by deadline-aware load shedding (subset of
    /// `rejected`).
    pub shed_deadline: u64,
    /// Completed sampling jobs (subset of `completed`; cache-served
    /// histograms included).
    pub samples: u64,
    /// Total shots drawn across completed sampling jobs.
    pub shots: u64,
    /// Connections dropped at shutdown for exceeding their flush grace.
    pub connections_reaped_at_shutdown: u64,
    /// Per-class supervision health.
    pub health: Vec<ClassHealthReport>,
    /// Fault-injection counters when a chaos plan is active.
    pub chaos: Option<FaultCounters>,
}

impl MetricsReport {
    /// The accounting identity the service guarantees at quiescence.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.completed + self.aborted + self.rejected
            && self.queue_depth == 0
            && self.running == 0
    }
}

/// A typed response (rendered to one JSON line by [`Response::render`]).
#[derive(Debug, Clone)]
pub enum Response {
    /// Job admitted.
    Submitted {
        /// Assigned job id.
        job: u64,
    },
    /// Submission refused by admission control.
    Rejected {
        /// Why.
        reason: String,
        /// When present, the earliest point retrying makes sense (class
        /// unhealthy, queue full, or deadline-shed): a hint, not a
        /// guarantee. Absent for permanent refusals (bad request, no
        /// worker configured, draining).
        retry_after_ms: Option<u64>,
    },
    /// Job status (from `status` or `wait`).
    Status(Box<JobStatusReport>),
    /// `status`/`wait` named a job the registry has never seen.
    UnknownJob {
        /// The id asked about.
        job: u64,
    },
    /// Metrics snapshot.
    Metrics(Box<MetricsReport>),
    /// Drain finished: admission stopped, everything terminal.
    Drained {
        /// Completed-job count at drain time.
        completed: u64,
        /// Aborted-job count at drain time.
        aborted: u64,
    },
    /// Shutdown finished: workers joined.
    ShutdownDone {
        /// Queued jobs swept out without running.
        evicted_queued: u64,
        /// Running jobs cancelled (checkpointed where possible).
        cancelled_running: u64,
    },
    /// Protocol-level failure (`ok:false`).
    Error {
        /// What went wrong.
        message: String,
    },
}

/// Supervision state of one worker thread slot.
#[derive(Debug)]
enum WorkerState {
    /// Thread spawned and, as far as the supervisor knows, running.
    Live(JoinHandle<()>),
    /// Thread died; a respawn is scheduled at the given instant.
    Respawning {
        /// When the backoff expires and the slot may spawn again.
        at: Instant,
    },
    /// A supervision pass is handling this slot right now (reaping the
    /// finished thread or spawning a new one) with the lock released.
    Spawning,
    /// Permanently stopped: clean exit after queue close, or the class's
    /// restart budget ran out.
    Retired,
}

/// One worker thread's slot in the supervisor.
#[derive(Debug)]
struct WorkerSlot {
    class: SchemeClass,
    state: WorkerState,
    /// Bumped on every respawn; names the thread.
    generation: u64,
    /// Id of the job the thread is running right now (`0` when idle).
    /// On death the supervisor recovers it as a `transient:` abort.
    current_job: Arc<AtomicU64>,
    /// Set by the worker loop just before a normal return; a finished
    /// thread that never set it died.
    clean_exit: Arc<AtomicBool>,
    /// This slot's deterministic jittered respawn-delay schedule.
    backoff: Backoff,
}

/// Supervisor state: the worker slots plus per-class restart accounting.
#[derive(Debug)]
struct Supervisor {
    slots: Vec<WorkerSlot>,
    /// Respawns spent per class, against `ServeConfig::restart_budget`.
    restarts_used: [u32; SchemeClass::COUNT],
    /// Whether the once-per-exhaustion queue eviction sweep already ran
    /// for an unhealthy class.
    unhealthy_swept: [bool; SchemeClass::COUNT],
    /// Supervision pass counter (drives deterministic spurious wakeups).
    tick: u64,
}

impl Supervisor {
    /// Restart-budget units already spent for `class`.
    fn restarts_used_for(&self, class: SchemeClass) -> u32 {
        self.restarts_used.get(class.index()).copied().unwrap_or(0)
    }

    /// Spends one restart-budget unit for `class` if any remains;
    /// `false` means the budget is exhausted and the slot must retire.
    fn try_spend_restart(&mut self, class: SchemeClass, budget: u32) -> bool {
        match self.restarts_used.get_mut(class.index()) {
            Some(used) if *used < budget => {
                *used += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks `class` as having had its unhealthy eviction sweep; returns
    /// `true` only on the first marking (the sweep runs exactly once).
    fn mark_unhealthy_swept(&mut self, class: SchemeClass) -> bool {
        match self.unhealthy_swept.get_mut(class.index()) {
            Some(swept) if !*swept => {
                *swept = true;
                true
            }
            _ => false,
        }
    }

    /// Phase-3 bookkeeping for one slot: clean exits retire, deaths
    /// respawn while budget remains (spending one unit and advancing the
    /// slot's backoff) and retire once it runs out.
    fn record_outcome(&mut self, idx: usize, died: bool, budget: u32, now: Instant) {
        let Some(class) = self.slots.get(idx).map(|s| s.class) else {
            return;
        };
        let respawn = died && self.try_spend_restart(class, budget);
        if let Some(slot) = self.slots.get_mut(idx) {
            slot.state = if respawn {
                WorkerState::Respawning {
                    at: now + slot.backoff.next_delay(),
                }
            } else {
                WorkerState::Retired
            };
        }
    }
}

/// The running service: queue, registry, metrics and the worker pool.
///
/// Construct with [`ServeCore::start`], talk to it with
/// [`ServeCore::handle`] (directly, through the in-process
/// [`Client`](crate::Client), or via the TCP
/// [`Server`](crate::Server)), and stop it with the `Shutdown` request.
#[derive(Debug)]
pub struct ServeCore {
    shared: Arc<Shared>,
    /// Locked strictly on its own (never while holding the registry,
    /// queue or metrics locks, and nothing else is locked under it).
    supervisor: DebugMutex<Supervisor>,
}

/// Spawns (or respawns) one worker thread for a slot, resetting the
/// slot's shared flags first.
fn spawn_worker(
    shared: &Arc<Shared>,
    idx: usize,
    class: SchemeClass,
    generation: u64,
    current_job: &Arc<AtomicU64>,
    clean_exit: &Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>> {
    current_job.store(0, Ordering::Release);
    clean_exit.store(false, Ordering::Release);
    let shared = Arc::clone(shared);
    let current_job = Arc::clone(current_job);
    let clean_exit = Arc::clone(clean_exit);
    std::thread::Builder::new()
        .name(format!("aq-serve-worker-{idx}-g{generation}"))
        .spawn(move || worker_loop(shared, idx, class, current_job, clean_exit))
}

impl ServeCore {
    /// Starts the worker pool and returns the core.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if a worker thread cannot be spawned (the OS is out
    /// of threads); any workers already started are shut down again.
    pub fn start(cfg: ServeConfig) -> io::Result<Arc<ServeCore>> {
        std::fs::create_dir_all(&cfg.checkpoint_dir).ok();
        let workers = cfg.workers.clone();
        let backoff_base = cfg.backoff_base;
        let backoff_cap = cfg.backoff_cap;
        let seed = cfg.supervisor_seed;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            metrics: Metrics::new(workers.len()),
            registry: DebugMutex::new("serve.registry", Registry::default()),
            terminal: DebugCondvar::new(),
            next_id: AtomicU64::new(1),
            result_cache: DebugMutex::new(
                "serve.result_cache",
                ResultCache::new(cfg.result_cache_capacity),
            ),
            completion_epoch: AtomicU64::new(0),
            cfg,
        });
        let mut slots: Vec<WorkerSlot> = Vec::with_capacity(workers.len());
        for (idx, &class) in workers.iter().enumerate() {
            let current_job = Arc::new(AtomicU64::new(0));
            let clean_exit = Arc::new(AtomicBool::new(false));
            match spawn_worker(&shared, idx, class, 0, &current_job, &clean_exit) {
                Ok(h) => slots.push(WorkerSlot {
                    class,
                    state: WorkerState::Live(h),
                    generation: 0,
                    current_job,
                    clean_exit,
                    backoff: Backoff::new(backoff_base, backoff_cap, seed.wrapping_add(idx as u64)),
                }),
                Err(e) => {
                    shared.queue.close();
                    for slot in slots {
                        if let WorkerState::Live(h) = slot.state {
                            h.join().ok();
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(Arc::new(ServeCore {
            shared,
            supervisor: DebugMutex::new(
                "serve.supervisor",
                Supervisor {
                    slots,
                    restarts_used: [0; SchemeClass::COUNT],
                    unhealthy_swept: [false; SchemeClass::COUNT],
                    tick: 0,
                },
            ),
        }))
    }

    /// The configuration the core was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Handles one request to a terminal response. `Wait`, `Drain` and
    /// `Shutdown` block the calling thread (that is their contract).
    /// Every request starts with a supervision pass, so a dead worker is
    /// noticed at the next request at the latest.
    pub fn handle(&self, request: Request) -> Response {
        self.supervise();
        match request {
            Request::Submit(submit) => self.submit(*submit),
            Request::Status { job } => self.status(job),
            Request::Wait { job, timeout } => self.wait(job, timeout),
            Request::Metrics => Response::Metrics(Box::new(self.metrics_report())),
            Request::Drain => self.drain(),
            Request::Shutdown => self.shutdown(),
        }
    }

    /// One supervision pass: reap finished worker threads, recover jobs
    /// orphaned by deaths as `transient:` aborts, respawn dead workers
    /// under the per-class restart budget (with jittered exponential
    /// backoff), and — when a class just ran out of budget — evict its
    /// queued jobs once so nothing waits on a class that cannot serve.
    ///
    /// Runs on every request, every event-loop tick, and every wakeup of
    /// a blocking verb; safe to call concurrently (the `Spawning`
    /// placeholder state keeps two passes off the same slot).
    pub fn supervise(&self) {
        let shared = &self.shared;

        // Phase 1 (supervisor lock): collect finished threads and due
        // respawns, marking their slots `Spawning` so a concurrent pass
        // skips them. No joins or spawns under the lock.
        type Reaped = (usize, JoinHandle<()>, Arc<AtomicU64>, Arc<AtomicBool>);
        type PendingSpawn = (usize, SchemeClass, u64, Arc<AtomicU64>, Arc<AtomicBool>);
        let mut finished: Vec<Reaped> = Vec::new();
        let mut to_spawn: Vec<PendingSpawn> = Vec::new();
        let spurious;
        {
            let mut sup = self.supervisor.lock();
            sup.tick += 1;
            spurious = shared.cfg.fault_plan.spurious_wakeup(sup.tick);
            let now = Instant::now();
            for (idx, slot) in sup.slots.iter_mut().enumerate() {
                let due = match &slot.state {
                    WorkerState::Live(h) => {
                        if h.is_finished() {
                            let state = std::mem::replace(&mut slot.state, WorkerState::Spawning);
                            if let WorkerState::Live(h) = state {
                                finished.push((
                                    idx,
                                    h,
                                    Arc::clone(&slot.current_job),
                                    Arc::clone(&slot.clean_exit),
                                ));
                            }
                        }
                        false
                    }
                    WorkerState::Respawning { at } => *at <= now,
                    WorkerState::Spawning | WorkerState::Retired => false,
                };
                if due {
                    slot.state = WorkerState::Spawning;
                    slot.generation += 1;
                    to_spawn.push((
                        idx,
                        slot.class,
                        slot.generation,
                        Arc::clone(&slot.current_job),
                        Arc::clone(&slot.clean_exit),
                    ));
                }
            }
        }

        // Phase 2 (no locks): join the finished threads, classify clean
        // exit vs death, recover orphaned jobs, and spawn due respawns.
        let mut outcomes: Vec<(usize, bool)> = Vec::new(); // (slot, died)
        for (idx, handle, current_job, clean_exit) in finished {
            crate::lockaudit::blocking_op("join finished worker");
            let panicked = handle.join().is_err();
            let died = panicked || !clean_exit.load(Ordering::Acquire);
            if died {
                shared.metrics.worker_deaths.fetch_add(1, Ordering::Relaxed);
                let orphan = current_job.swap(0, Ordering::AcqRel);
                if orphan != 0 {
                    shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
                    shared.finish_job(orphan, transient_death_outcome());
                }
            }
            outcomes.push((idx, died));
        }
        let mut spawned: Vec<(usize, io::Result<JoinHandle<()>>)> = Vec::new();
        for (idx, class, generation, current_job, clean_exit) in to_spawn {
            spawned.push((
                idx,
                spawn_worker(shared, idx, class, generation, &current_job, &clean_exit),
            ));
        }

        // Phase 3 (supervisor lock): record the outcomes — schedule
        // respawns under budget, retire otherwise, install spawned
        // threads — and find classes that just became unhealthy.
        let mut sweep: Option<[bool; SchemeClass::COUNT]> = None;
        if !outcomes.is_empty() || !spawned.is_empty() {
            let mut sup = self.supervisor.lock();
            let now = Instant::now();
            let budget = shared.cfg.restart_budget;
            for (idx, died) in outcomes {
                sup.record_outcome(idx, died, budget, now);
            }
            for (idx, result) in spawned {
                match result {
                    Ok(h) => {
                        if let Some(slot) = sup.slots.get_mut(idx) {
                            slot.state = WorkerState::Live(h);
                        }
                        shared
                            .metrics
                            .worker_respawns
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    // Spawn failed (OS out of threads): costs another
                    // budget unit and waits out another backoff.
                    Err(_) => sup.record_outcome(idx, true, budget, now),
                }
            }
            // A class whose every configured slot is retired is
            // unhealthy; sweep its queued jobs exactly once.
            // `SchemeClass::ALL` is in `index()` order, so the zip lines
            // the flags up with the classes without any indexing.
            let mut healthy = [true; SchemeClass::COUNT];
            let mut newly_unhealthy = false;
            for (&class, healthy_flag) in SchemeClass::ALL.iter().zip(healthy.iter_mut()) {
                let mut configured = 0usize;
                let mut alive = 0usize;
                for slot in sup.slots.iter().filter(|s| s.class == class) {
                    configured += 1;
                    if !matches!(slot.state, WorkerState::Retired) {
                        alive += 1;
                    }
                }
                if configured > 0 && alive == 0 {
                    *healthy_flag = false;
                    if sup.mark_unhealthy_swept(class) {
                        newly_unhealthy = true;
                    }
                }
            }
            if newly_unhealthy && !shared.queue.is_closed() {
                sweep = Some(healthy);
            }
        }

        // Phase 4 (no supervisor lock): perform the eviction sweep and
        // the chaos-plan spurious wakeup.
        if let Some(healthy) = sweep {
            let evicted = shared
                .queue
                .evict_unmatched(|class| healthy.get(class.index()).copied().unwrap_or(true));
            for q in evicted {
                shared.finish_job(
                    q.id,
                    evicted_outcome(
                        "evicted: no healthy worker remains for the job's scheme class \
                         (restart budget exhausted)",
                    ),
                );
            }
        }
        if spurious {
            shared.queue.chaos_notify_all();
        }
    }

    /// Whether a configured class has lost every worker slot to the
    /// restart budget. Unconfigured classes are never unhealthy (they
    /// are rejected with the static no-worker reason instead).
    fn class_is_unhealthy(&self, class: SchemeClass) -> bool {
        let sup = self.supervisor.lock();
        let mut configured = 0usize;
        let mut alive = 0usize;
        for slot in sup.slots.iter().filter(|s| s.class == class) {
            configured += 1;
            if !matches!(slot.state, WorkerState::Retired) {
                alive += 1;
            }
        }
        configured > 0 && alive == 0
    }

    /// Per-class supervision health rows for the metrics report.
    fn class_health(&self) -> Vec<ClassHealthReport> {
        let sup = self.supervisor.lock();
        SchemeClass::ALL
            .iter()
            .map(|&class| {
                let mut configured = 0u64;
                let mut live = 0u64;
                let mut respawning = 0u64;
                for slot in sup.slots.iter().filter(|s| s.class == class) {
                    configured += 1;
                    match slot.state {
                        WorkerState::Live(_) => live += 1,
                        WorkerState::Respawning { .. } | WorkerState::Spawning => respawning += 1,
                        WorkerState::Retired => {}
                    }
                }
                ClassHealthReport {
                    class,
                    configured,
                    live,
                    respawning,
                    restarts_used: sup.restarts_used_for(class),
                    restart_budget: self.shared.cfg.restart_budget,
                    healthy: configured == 0 || live + respawning > 0,
                }
            })
            .collect()
    }

    /// Rough wait estimate (ms) for a job of `class` admitted now: the
    /// class's historical mean busy time per job times its queue position,
    /// spread over the live workers — plus the time until the earliest
    /// respawn when nothing is live. Used for `retry_after_ms` hints and
    /// deadline shedding; an estimate, not a promise.
    fn estimated_wait_ms(&self, class: SchemeClass) -> u64 {
        let shared = &self.shared;
        let (mut jobs, mut busy_s) = (0u64, 0.0f64);
        {
            let rows = shared.metrics.workers.lock();
            for (idx, row) in rows.iter().enumerate() {
                if shared.cfg.workers.get(idx) == Some(&class) {
                    jobs += row.jobs;
                    busy_s += row.busy_seconds;
                }
            }
        }
        let depth = shared
            .queue
            .depths()
            .get(class.index())
            .copied()
            .unwrap_or(0) as u64;
        let (live, respawn_wait_ms) = {
            let sup = self.supervisor.lock();
            let now = Instant::now();
            let mut live = 0u64;
            let mut earliest: Option<u64> = None;
            for slot in sup.slots.iter().filter(|s| s.class == class) {
                match &slot.state {
                    WorkerState::Live(_) => live += 1,
                    WorkerState::Respawning { at } => {
                        let ms = at.saturating_duration_since(now).as_millis() as u64;
                        earliest = Some(earliest.map_or(ms, |e: u64| e.min(ms)));
                    }
                    WorkerState::Spawning => earliest = Some(0),
                    WorkerState::Retired => {}
                }
            }
            (live, earliest.unwrap_or(0))
        };
        // No history yet: assume a nominal 50ms/job so the estimate stays
        // a small positive hint instead of zero.
        let avg_ms = if jobs > 0 {
            busy_s * 1_000.0 / jobs as f64
        } else {
            50.0
        };
        let mut est = (avg_ms * (depth + 1) as f64 / live.max(1) as f64) as u64;
        if live == 0 {
            est = est.saturating_add(respawn_wait_ms);
        }
        est.max(1)
    }

    fn submit(&self, req: SubmitRequest) -> Response {
        let shared = &self.shared;
        shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        let reject = |reason: String, retry_after_ms: Option<u64>| {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            Response::Rejected {
                reason,
                retry_after_ms,
            }
        };

        // Admission control, cheapest checks first.
        if req.budget.is_unlimited() {
            return reject(
                "a resource budget is mandatory: set budget.max_nodes, budget.max_weights, \
                 budget.max_bits and/or budget.deadline_secs"
                    .into(),
                None,
            );
        }
        let class = SchemeClass::of(&req.scheme);
        if !shared.cfg.workers.contains(&class) {
            return reject(
                format!(
                    "no worker is pinned to the {} scheme class on this server",
                    class.as_str()
                ),
                None,
            );
        }
        // An unhealthy class (restart budget exhausted) refuses with a
        // retry hint rather than queueing into a black hole. Skipped once
        // the queue is closed: draining is permanent, not retryable.
        if !shared.queue.is_closed() && self.class_is_unhealthy(class) {
            return reject(
                format!(
                    "the {} scheme class is unhealthy: its worker restart budget is exhausted",
                    class.as_str()
                ),
                Some(shared.cfg.unhealthy_retry_after.as_millis() as u64),
            );
        }
        let (circuit, start) = match req.circuit.build() {
            Ok(pair) => pair,
            Err(reason) => return reject(reason, None),
        };

        // Content-addressed short-circuit: a repeated submission of work
        // the cache has already seen completes immediately — before the
        // queue, so a hit succeeds even while the queue is full. Resumed
        // jobs are never cacheable (their result depends on checkpoint
        // state the key cannot address).
        let cache_key = if req.resume.is_none() {
            Some(CacheKey::new(
                &circuit,
                start,
                &req.scheme,
                req.top_k,
                &req.budget,
                req.sample,
            ))
        } else {
            None
        };
        let memoized = cache_key
            .as_ref()
            .and_then(|key| shared.result_cache.lock().get(key));

        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        let label = format!("{}/{}", req.circuit.label(), req.scheme.label());

        if let Some(outcome) = memoized {
            shared.metrics.cache_served.fetch_add(1, Ordering::Relaxed);
            let record = JobRecord {
                state: JobState::Queued,
                label,
                scheme: req.scheme.label(),
                priority: req.priority,
                submitted_at: Instant::now(),
                outcome: None,
                cancel: Arc::new(AtomicBool::new(false)),
                cache_key: None, // already cached; don't re-insert
            };
            {
                let mut reg = shared.lock_registry();
                reg.map.insert(id, record);
                reg.pending += 1;
            }
            // Completes through the normal terminal path so every counter
            // and the latency histogram (sub-ms buckets) see it.
            shared.finish_job(id, outcome);
            return Response::Submitted { job: id };
        }

        // Deadline-aware load shedding: if the estimated queue wait
        // already eats the job's whole deadline, running it would only
        // burn a worker on a guaranteed budget abort — refuse now, with
        // the estimate as the retry hint. (Checked after the cache: a hit
        // is instant regardless of queue depth.)
        if let Some(deadline) = req.budget.deadline {
            let est_ms = self.estimated_wait_ms(class);
            if Duration::from_millis(est_ms) > deadline {
                shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                return reject(
                    format!(
                        "deadline-shed: estimated queue wait {est_ms}ms exceeds the job's \
                         {}ms deadline",
                        deadline.as_millis()
                    ),
                    Some(est_ms),
                );
            }
        }
        let work = JobWork {
            circuit,
            start,
            scheme: req.scheme.clone(),
            options: SimOptions {
                record_trace: false,
                budget: req.budget,
                checkpoint_on_abort: Some(
                    shared.cfg.checkpoint_dir.join(format!("job-{id}.aqckp")),
                ),
                ..SimOptions::default()
            },
            label: label.clone(),
            resume: req.resume.clone(),
            top_k: req.top_k,
            sample: req.sample,
        };
        let record = JobRecord {
            state: JobState::Queued,
            label,
            scheme: req.scheme.label(),
            priority: req.priority,
            submitted_at: Instant::now(),
            outcome: None,
            cancel: Arc::new(AtomicBool::new(false)),
            cache_key,
        };

        // Insert the record before queueing so a fast worker always finds
        // it; roll both back if the queue refuses.
        {
            let mut reg = shared.lock_registry();
            reg.map.insert(id, record);
            reg.pending += 1;
        }
        if let Err(e) = shared.queue.push(id, req.priority, class, work) {
            let mut reg = shared.lock_registry();
            reg.map.remove(&id);
            reg.pending = reg.pending.saturating_sub(1);
            drop(reg);
            // A full queue is worth retrying once it drains; a closed
            // (draining) service is not.
            let hint = match e {
                AdmissionError::Full { .. } => Some(self.estimated_wait_ms(class)),
                AdmissionError::Closed => None,
            };
            return reject(e.to_string(), hint);
        }
        Response::Submitted { job: id }
    }

    fn status(&self, job: u64) -> Response {
        let reg = self.shared.lock_registry();
        match reg.map.get(&job) {
            None => Response::UnknownJob { job },
            Some(rec) => rec.report(job),
        }
    }

    fn wait(&self, job: u64, timeout: Duration) -> Response {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let reg = self.shared.lock_registry();
                match reg.map.get(&job) {
                    None => return Response::UnknownJob { job },
                    Some(rec) if rec.state.is_terminal() => return rec.report(job),
                    Some(_) => {}
                }
                let now = Instant::now();
                if now >= deadline {
                    return Response::Error {
                        message: format!("timed out waiting for job {job}"),
                    };
                }
                let step = (deadline - now).min(SUPERVISE_INTERVAL);
                let (guard, _) = self.shared.terminal.wait_timeout(reg, step);
                drop(guard);
            }
            // Each wakeup supervises (registry lock released first): a
            // worker dying mid-job cannot stall this wait — its death
            // recovers the job as a `transient:` abort within a tick.
            self.supervise();
        }
    }

    /// Assembles a metrics snapshot.
    pub fn metrics_report(&self) -> MetricsReport {
        let shared = &self.shared;
        let latency_counts = shared.metrics.latency.counts();
        let workers = shared
            .metrics
            .workers
            .lock()
            .iter()
            .cloned()
            .enumerate()
            .map(|(worker, stats)| WorkerReport {
                worker,
                // rows and cfg.workers are index-aligned by construction
                class: shared
                    .cfg
                    .workers
                    .get(worker)
                    .copied()
                    .unwrap_or(SchemeClass::Numeric),
                stats,
            })
            .collect();
        let (cache, cache_entries) = {
            let c = shared.result_cache.lock();
            (c.stats(), c.len() as u64)
        };
        MetricsReport {
            submitted: shared.metrics.submitted.load(Ordering::Relaxed),
            completed: shared.metrics.completed.load(Ordering::Relaxed),
            aborted: shared.metrics.aborted.load(Ordering::Relaxed),
            rejected: shared.metrics.rejected.load(Ordering::Relaxed),
            evicted: shared.metrics.evicted.load(Ordering::Relaxed),
            queue_depth: shared.queue.len() as u64,
            running: shared.metrics.running.load(Ordering::Relaxed),
            cache_served: shared.metrics.cache_served.load(Ordering::Relaxed),
            cache,
            cache_entries,
            cache_capacity: shared.cfg.result_cache_capacity as u64,
            connections_accepted: shared.metrics.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: shared.metrics.connections_rejected.load(Ordering::Relaxed),
            p50_ms: histogram_quantile_ms(&latency_counts, 0.50),
            p99_ms: histogram_quantile_ms(&latency_counts, 0.99),
            latency_counts,
            workers,
            worker_deaths: shared.metrics.worker_deaths.load(Ordering::Relaxed),
            worker_respawns: shared.metrics.worker_respawns.load(Ordering::Relaxed),
            shed_deadline: shared.metrics.shed_deadline.load(Ordering::Relaxed),
            samples: shared.metrics.samples.load(Ordering::Relaxed),
            shots: shared.metrics.shots.load(Ordering::Relaxed),
            connections_reaped_at_shutdown: shared
                .metrics
                .connections_reaped_at_shutdown
                .load(Ordering::Relaxed),
            health: self.class_health(),
            chaos: shared.cfg.fault_plan.counters(),
        }
    }

    fn drain(&self) -> Response {
        self.begin_drain();
        loop {
            self.supervise();
            // Supervision just recovered any orphans, so the poll usually
            // succeeds immediately; otherwise sleep one tick (interrupted
            // early by any terminal transition) and supervise again — a
            // worker dying mid-drain therefore cannot hang the drain.
            if let Some(resp) = self.try_drain() {
                return resp;
            }
            let reg = self.shared.lock_registry();
            if reg.pending > 0 {
                let (guard, _) = self.shared.terminal.wait_timeout(reg, SUPERVISE_INTERVAL);
                drop(guard);
            }
        }
    }

    fn shutdown(&self) -> Response {
        let (evicted_queued, cancelled_running) = self.begin_shutdown();
        loop {
            self.supervise();
            if let Some(resp) = self.try_complete_shutdown(evicted_queued, cancelled_running) {
                return resp;
            }
            let reg = self.shared.lock_registry();
            if reg.pending > 0 {
                let (guard, _) = self.shared.terminal.wait_timeout(reg, SUPERVISE_INTERVAL);
                drop(guard);
            }
        }
    }

    // ---- non-blocking verb surface (event loop) -------------------------
    //
    // The TCP event loop cannot park a thread per slow verb, so the three
    // blocking verbs split into begin/poll pairs: `begin_*` performs the
    // state transition, `try_*`/`poll_*` checks for completion without
    // blocking. The loop re-polls when [`ServeCore::completion_epoch`]
    // moves.

    /// The terminal-transition counter; changes whenever a pending `wait`,
    /// `drain` or `shutdown` poll might newly succeed.
    pub fn completion_epoch(&self) -> u64 {
        self.shared.completion_epoch.load(Ordering::Acquire)
    }

    /// Non-blocking `wait` poll: the status once the job is terminal (or
    /// unknown), `None` while it is still in flight.
    pub fn poll_wait(&self, job: u64) -> Option<Response> {
        let reg = self.shared.lock_registry();
        match reg.map.get(&job) {
            None => Some(Response::UnknownJob { job }),
            Some(rec) if rec.state.is_terminal() => Some(rec.report(job)),
            Some(_) => None,
        }
    }

    /// Starts a drain: closes admission and aborts *stranded* queued jobs
    /// — jobs whose scheme class has no pinned worker, which would
    /// otherwise leave the drain waiting forever. (Admission normally
    /// prevents them; this is the fail-safe the drain contract needs.)
    pub fn begin_drain(&self) {
        let shared = &self.shared;
        shared.queue.close();
        let stranded = shared
            .queue
            .evict_unmatched(|class| shared.cfg.workers.contains(&class));
        for q in stranded {
            shared.finish_job(
                q.id,
                evicted_outcome("evicted: drain found no worker pinned to the job's scheme class"),
            );
        }
    }

    /// Non-blocking drain poll; call after [`ServeCore::begin_drain`].
    pub fn try_drain(&self) -> Option<Response> {
        let shared = &self.shared;
        if shared.lock_registry().pending > 0 {
            return None;
        }
        Some(Response::Drained {
            completed: shared.metrics.completed.load(Ordering::Relaxed),
            aborted: shared.metrics.aborted.load(Ordering::Relaxed),
        })
    }

    /// Starts a shutdown: closes admission, sweeps out every queued job,
    /// and cancels what is running (each job checkpoints itself). Returns
    /// `(evicted_queued, cancelled_running)` for the final response.
    pub fn begin_shutdown(&self) -> (u64, u64) {
        let shared = &self.shared;
        shared.queue.close();
        let evicted = shared.queue.evict_all();
        let evicted_queued = evicted.len() as u64;
        for q in evicted {
            shared.finish_job(
                q.id,
                evicted_outcome("evicted: shutdown before the job started (resubmit to rerun)"),
            );
        }
        let cancelled_running = {
            let reg = shared.lock_registry();
            let mut n = 0;
            for rec in reg.map.values() {
                if rec.state == JobState::Running {
                    rec.cancel.store(true, Ordering::Relaxed);
                    n += 1;
                }
            }
            n
        };
        (evicted_queued, cancelled_running)
    }

    /// Non-blocking shutdown poll; call after [`ServeCore::begin_shutdown`]
    /// with its counts. Joins the (now idle) worker pool on success.
    pub fn try_complete_shutdown(
        &self,
        evicted_queued: u64,
        cancelled_running: u64,
    ) -> Option<Response> {
        if self.shared.lock_registry().pending > 0 {
            return None;
        }
        // Retire every slot, taking live handles out for the final join.
        // A slot mid-spawn defers the poll: the new thread will be Live
        // (and joinable) at the next supervision pass.
        let handles: Vec<JoinHandle<()>> = {
            let mut sup = self.supervisor.lock();
            if sup
                .slots
                .iter()
                .any(|s| matches!(s.state, WorkerState::Spawning))
            {
                return None;
            }
            sup.slots
                .iter_mut()
                .filter_map(
                    |slot| match std::mem::replace(&mut slot.state, WorkerState::Retired) {
                        WorkerState::Live(h) => Some(h),
                        _ => None,
                    },
                )
                .collect()
        };
        crate::lockaudit::blocking_op("join worker pool");
        for h in handles {
            let _ = h.join();
        }
        Some(Response::ShutdownDone {
            evicted_queued,
            cancelled_running,
        })
    }

    /// Counts one accepted TCP connection (event-loop bookkeeping).
    pub fn note_connection_accepted(&self) {
        self.shared
            .metrics
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one refused TCP connection (cap reached or accept failed).
    pub fn note_connection_rejected(&self) {
        self.shared
            .metrics
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection dropped at shutdown because it exceeded its
    /// per-connection flush grace.
    pub fn note_connection_reaped(&self) {
        self.shared
            .metrics
            .connections_reaped_at_shutdown
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The zero-work aborted outcome drain/shutdown sweeps use.
fn evicted_outcome(reason: &str) -> JobOutcome {
    JobOutcome {
        gates_applied: 0,
        seconds: 0.0,
        final_nodes: 0,
        statistics: EngineStatistics::default(),
        top_probabilities: Vec::new(),
        resumed: false,
        sample: None,
        aborted: Some(JobAbortInfo {
            reason: reason.into(),
            checkpoint: None,
            evicted: true,
        }),
    }
}

/// The zero-work aborted outcome the supervisor writes for a job
/// orphaned by a worker death. [`TRANSIENT_PREFIX`] marks it retryable —
/// the job itself was fine; resubmitting reruns it bit-identically.
fn transient_death_outcome() -> JobOutcome {
    JobOutcome {
        gates_applied: 0,
        seconds: 0.0,
        final_nodes: 0,
        statistics: EngineStatistics::default(),
        top_probabilities: Vec::new(),
        resumed: false,
        sample: None,
        aborted: Some(JobAbortInfo {
            reason: format!("{TRANSIENT_PREFIX} worker died mid-job; resubmit to rerun"),
            checkpoint: None,
            evicted: false,
        }),
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    worker_idx: usize,
    class: SchemeClass,
    current_job: Arc<AtomicU64>,
    clean_exit: Arc<AtomicBool>,
) {
    // The worker's persistent engine session: one warm `Manager` per
    // scheme kind, budget-reset between jobs and reused across them, so
    // steady-state jobs pay no arena/table (re)allocation. A panicking
    // job quarantines its lane (the next job starts cold) — the session
    // itself survives.
    let mut session = EngineSession::new(SessionConfig {
        max_retained_capacity: shared.cfg.session_max_retained_capacity,
        suspect_validate: shared.cfg.session_suspect_validate,
    });
    while let Some(qjob) = shared.queue.pop(class) {
        // Advertise the claim before anything can go wrong: if this
        // thread dies mid-job, the supervisor finds the id here and
        // recovers the job as a `transient:` abort instead of leaving it
        // "running" forever.
        current_job.store(qjob.id, Ordering::Release);
        let cancel = {
            let mut reg = shared.lock_registry();
            let Some(rec) = reg.map.get_mut(&qjob.id) else {
                current_job.store(0, Ordering::Release);
                continue; // record vanished (never happens; stay alive anyway)
            };
            rec.state = JobState::Running;
            Arc::clone(&rec.cancel)
        };
        shared.metrics.running.fetch_add(1, Ordering::Relaxed);

        // Chaos kill point — deliberately *outside* the catch_unwind
        // below, so the panic takes down the whole worker thread and
        // exercises the supervisor's real death/recover/respawn path
        // rather than the per-job guard.
        if shared.cfg.fault_plan.kill_worker(qjob.id) {
            // aq-lint: allow(R8): deliberate chaos-plan worker kill; the supervisor must see a real panic
            std::panic::panic_any(ChaosKill);
        }

        let work = &qjob.payload;
        let spec = JobSpec {
            circuit: &work.circuit,
            start: work.start,
            scheme: work.scheme.clone(),
            options: work.options.clone(),
            label: work.label.clone(),
            resume: work.resume.clone(),
            top_k: work.top_k,
            sample: work.sample,
        };
        // The last line of the never-lose-a-worker defence: session.run is
        // fail-soft by design, but if anything underneath it ever panics
        // the panic is converted into an aborted outcome here.
        let outcome = match catch_unwind(AssertUnwindSafe(|| session.run(&spec, Some(&cancel)))) {
            Ok(outcome) => outcome,
            Err(payload) => {
                // The unwound lane may hold arbitrarily damaged retained
                // state; quarantine it so the next job starts cold.
                session.note_panic(&work.scheme);
                JobOutcome {
                    gates_applied: 0,
                    seconds: 0.0,
                    final_nodes: 0,
                    statistics: EngineStatistics::default(),
                    top_probabilities: Vec::new(),
                    resumed: false,
                    sample: None,
                    aborted: Some(JobAbortInfo {
                        reason: format!(
                            "internal error: job panicked: {}",
                            panic_message(&payload)
                        ),
                        checkpoint: None,
                        evicted: false,
                    }),
                }
            }
        };
        // Chaos corruption point: silently damage the parked manager the
        // job just left warm; the session's suspect-validate pass must
        // catch it before the next warm reuse.
        #[cfg(feature = "chaos")]
        if let Some(seed) = shared.cfg.fault_plan.corrupt_session(qjob.id) {
            if session.chaos_corrupt_parked(&work.scheme, seed) {
                shared.cfg.fault_plan.note_corruption_landed();
            }
        }
        current_job.store(0, Ordering::Release);
        shared.metrics.record_worker_job(
            worker_idx,
            &outcome.statistics,
            outcome.seconds,
            session.stats(),
        );
        shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
        shared.finish_job(qjob.id, outcome);
    }
    clean_exit.store(true, Ordering::Release);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}
