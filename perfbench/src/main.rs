//! The repository benchmark: end-to-end metrics of three workloads
//! (`paper-figs`, `wide-local`, `wire-mix`) and, in a separate traced
//! run, per-layer rows measured from outside each layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-figs|wide-local|wire-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! the full report (per-pass values, pass counts, host core count,
//! revision and, when traced, every span) is written to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`. See
//! `perfbench/README.md` for what each workload and metric means.
//! `BENCHMARK.json` lists `paper-figs` and `wire-mix`; `wide-local` runs
//! on demand (the README says why).

mod cpu;
mod gen;
mod inproc;
mod layers;
mod paper;
mod report;
mod stats;
mod trace;
mod wide;
mod wire;
mod wiremix;

use std::path::{Path, PathBuf};
use std::time::Instant;

use aq_testutil::Rng;

use inproc::{Job, Passes};
use report::Report;
use trace::Tracer;

/// End-to-end metrics (name, unit), printed by an untraced run.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("gcd_s", "s"),
    ("qomega_s", "s"),
    ("numeric_s", "s"),
    ("jobs_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
];

/// Per-layer metrics (name, unit), printed by a traced run.
const PER_LAYER: [(&str, &str); 45] = [
    ("bigint.operand_bits", "bits"),
    ("bigint.mul_ns", "ns"),
    ("bigint.divrem_ns", "ns"),
    ("bigint.gcd_ns", "ns"),
    ("rings.mul_big_ns", "ns"),
    ("rings.mul_inline_ns", "ns"),
    ("rings.zomega_gcd_ns", "ns"),
    ("rings.domega_new_ns", "ns"),
    ("rings.qomega_inverse_ns", "ns"),
    ("dd.gate_build_s", "s"),
    ("dd.mat_vec_s", "s"),
    ("dd.extract_s", "s"),
    ("dd.sampler_build_s", "s"),
    ("dd.draw_ns", "ns"),
    ("dd.compute_hit_rate", "share"),
    ("dd.weight_hit_rate", "share"),
    ("dd.distinct_weights", "count"),
    ("dd.nodes_allocated", "count"),
    ("dd.peak_state_nodes", "count"),
    ("dd.coeff_bits_peak", "bits"),
    ("dd.compactions", "count"),
    ("sim.step_s", "s"),
    ("sim.result_s", "s"),
    ("sim.gates_per_s", "1/s"),
    ("sim.shots_per_s", "1/s"),
    ("sim.gap_gcd", "ratio"),
    ("sim.gap_qomega", "ratio"),
    ("circuits.parse_s", "s"),
    ("circuits.compile_s", "s"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.wait_rtt_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.queue_wire_ms", "ms"),
    ("serve.cache_hit_rate", "share"),
    ("serve.warm_reuses", "count"),
    ("serve.rejected", "count"),
    ("self.harness_share", "share"),
    ("self.run_job_share", "share"),
    ("self.wire_client_share", "share"),
    ("self.replay_other_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.span_cost_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.probe_s", "s"),
    ("trace.passes", "count"),
];

/// Per-layer rows of layers a workload's own work never reaches. The
/// traced run does no extra work to fill them: it prints them as 0 and
/// lists them in the report file under `not_exercised`.
fn not_exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "paper-figs" => &[
            "sim.shots_per_s",
            "circuits.parse_s",
            "serve.submit_rtt_ms",
            "serve.wait_rtt_ms",
            "serve.run_ms",
            "serve.queue_wire_ms",
            "serve.cache_hit_rate",
            "serve.warm_reuses",
            "serve.rejected",
            "self.wire_client_share",
        ],
        "wide-local" => &[
            "circuits.compile_s",
            "serve.submit_rtt_ms",
            "serve.wait_rtt_ms",
            "serve.run_ms",
            "serve.queue_wire_ms",
            "serve.cache_hit_rate",
            "serve.warm_reuses",
            "serve.rejected",
            "self.wire_client_share",
        ],
        _ => &["circuits.compile_s"],
    }
}

/// Set-up rounds per run, and set-ups per round (see [`timed_setup`]).
const SETUP_ROUNDS: usize = 4;
const SETUPS_PER_ROUND: usize = 8;
/// In-process passes per run, at least.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    started: Instant,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper-figs|wide-local|wire-mix> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = get("--workload").unwrap_or_else(|| usage());
    let seed = get("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = get("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match get("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        started,
    }
}

/// `setup_s`: runs the set-up `f` in [`SETUP_ROUNDS`] rounds of
/// [`SETUPS_PER_ROUND`], each pinned to the next allowed CPU as the passes
/// are (see [`cpu`]), and tears every one down. Each set-up's seconds are
/// corrected for the host's speed as the jobs' are (see
/// [`inproc::JobTimes::corrected`]), with the calibration loop run after
/// it on the same CPU. The value is the median over rounds of each
/// round's fastest corrected set-up: the first set-ups of a run are
/// colder, and a few milliseconds of set-up otherwise spread by half from
/// run to run. Then, unpinned so that threads it spawns may run on any
/// CPU, it sets up once more and returns that set-up, the median and
/// every set-up's wall seconds (the kept one last).
fn timed_setup<T>(mut f: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_ROUNDS * SETUPS_PER_ROUND + 1);
    let mut round_best = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        let mut best = f64::INFINITY;
        for i in 0..SETUPS_PER_ROUND {
            cpu::pin_round_robin(round * SETUPS_PER_ROUND + i);
            let t = Instant::now();
            let x = f();
            let s = t.elapsed().as_secs_f64();
            teardown(x);
            let calib = inproc::calibrate();
            best = best.min(s * inproc::CALIBRATION_REF_S / calib);
            times.push(s);
        }
        round_best.push(best);
    }
    cpu::unpin();
    let t = Instant::now();
    let kept = f();
    times.push(t.elapsed().as_secs_f64());
    (kept, stats::median(&round_best), times)
}

/// Seconds left of the run's `--seconds`, counted from the start of the
/// process; at least one.
fn left_s(a: &Args) -> f64 {
    (a.seconds - a.started.elapsed().as_secs_f64()).max(1.0)
}

/// The value, or exit with status 1 before printing any result.
fn or_exit<T>(r: Result<T, String>, what: &str) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("perfbench: {what} failed: {e}");
        std::process::exit(1)
    })
}

/// `gcd_s`, `qomega_s`, `numeric_s`: one run of each of the scheme's jobs
/// at its host-speed-corrected time (see [`inproc::JobTimes::corrected`]).
/// The samples kept with each are the per-pass wall block times; every
/// job's wall time in every run and the calibration time around it go
/// into the report file.
fn scheme_rows(rep: &mut Report, p: &Passes) {
    use gen::Scheme;
    for (name, g) in [
        ("gcd_s", Scheme::Gcd),
        ("qomega_s", Scheme::Qomega),
        ("numeric_s", Scheme::Numeric),
    ] {
        let samples = p.group_s.get(&g).cloned().unwrap_or_default();
        rep.metric(name, "s", p.group_corrected_s(g), samples);
    }
    let rows: Vec<String> = p
        .per_job
        .iter()
        .map(|(label, j)| {
            let vals: Vec<String> = j.seconds.iter().map(|x| report::json_num(*x)).collect();
            format!("\"{label}\":[{}]", vals.join(","))
        })
        .collect();
    rep.sections
        .push(("per_job_s".into(), format!("{{{}}}", rows.join(","))));
    let cal: Vec<String> = p
        .per_job
        .iter()
        .map(|(label, j)| {
            let vals: Vec<String> = j.calib_s.iter().map(|x| report::json_num(*x)).collect();
            format!("\"{label}\":[{}]", vals.join(","))
        })
        .collect();
    rep.sections
        .push(("per_job_calib_s".into(), format!("{{{}}}", cal.join(","))));
    let cpus: Vec<String> = p
        .cpu
        .iter()
        .map(|c| c.map_or("null".into(), |c| c.to_string()))
        .collect();
    rep.sections
        .push(("pass_cpu".into(), format!("[{}]", cpus.join(","))));
}

/// End-to-end rows of an in-process workload.
fn pass_metrics(rep: &mut Report, p: &Passes) {
    scheme_rows(rep, p);
    let job_ms = p.corrected_ms();
    let per_pass: Vec<f64> = p
        .pass_s
        .iter()
        .map(|s| p.attempted as f64 / p.pass_s.len() as f64 / s)
        .collect();
    rep.metric("jobs_per_s", "1/s", p.jobs_per_s(), per_pass);
    rep.metric("p50_ms", "ms", p.latency_ms(0.5), job_ms.clone());
    rep.metric("p90_ms", "ms", p.latency_ms(0.9), job_ms);
    rep.metric("peak_rss_mb", "MB", p.rss_mb[0], p.rss_mb.clone());
}

/// The `sim.*` pass rows and the pass count, with `overhead_share` the
/// traced run's measured tracing overhead.
fn sim_rows(rep: &mut Report, p: &Passes, overhead_share: f64) {
    rep.median("sim.step_s", "s", p.step_s.clone());
    rep.median("sim.result_s", "s", p.result_s.clone());
    let rates: Vec<f64> = p
        .gates
        .iter()
        .zip(&p.step_s)
        .map(|(g, s)| *g as f64 / s)
        .collect();
    rep.median("sim.gates_per_s", "1/s", rates);
    rep.metric(
        "trace.overhead_share",
        "share",
        overhead_share,
        p.pass_s.clone(),
    );
    rep.metric("trace.passes", "count", p.pass_s.len() as f64, vec![]);
}

/// The fastest traced over the fastest untraced pass, minus one: passes
/// run identical work, and each kind counts at its fastest, which also
/// keeps the first, colder pass from counting.
fn pass_overhead(p: &Passes) -> f64 {
    p.fastest_pass(true) / p.fastest_pass(false) - 1.0
}

/// Shots per second of the workload's sampling jobs over all passes, one
/// sample per pass; nothing for a workload without sampling jobs.
fn shots_rows(rep: &mut Report, jobs: &[Job], p: &Passes) {
    let sampled: Vec<&Job> = jobs.iter().filter(|j| j.sample.is_some()).collect();
    if sampled.is_empty() {
        return;
    }
    let mut per_pass = Vec::new();
    for pass in 0..p.pass_s.len() {
        let (mut shots, mut secs) = (0.0, 0.0);
        for j in &sampled {
            if let Some(t) = p.per_job.get(&j.label).and_then(|t| t.seconds.get(pass)) {
                shots += j.sample.map_or(0, |s| s.shots) as f64;
                secs += t;
            }
        }
        per_pass.push(shots / secs);
    }
    rep.median("sim.shots_per_s", "1/s", per_pass);
}

/// Self-time shares and tracing cost from the recorded spans.
fn span_rows(rep: &mut Report, tr: &Tracer) {
    let tot = tr.totals();
    let total = |n: &str| tot.get(n).map_or(0.0, |t| t.total_s);
    let own = |n: &str| tot.get(n).map_or(0.0, |t| t.self_s);
    let share = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let harness = [
        "pass",
        "pass.gcd",
        "pass.qomega",
        "pass.numeric",
        "bench.check",
    ]
    .iter()
    .map(|n| own(n))
    .sum::<f64>();
    rep.metric(
        "self.harness_share",
        "share",
        share(harness, total("pass")),
        vec![],
    );
    rep.metric(
        "self.run_job_share",
        "share",
        share(own("sim.run_job"), total("pass")),
        vec![],
    );
    if tot.contains_key("wire.request") {
        rep.metric(
            "self.wire_client_share",
            "share",
            share(own("wire.request"), total("wire.request")),
            vec![],
        );
    }
    rep.metric(
        "self.replay_other_share",
        "share",
        share(own("dd.replay"), total("dd.replay")),
        vec![],
    );
    rep.metric("trace.span_cost_ns", "ns", trace::span_cost_ns(), vec![]);
    rep.metric("trace.spans", "count", tr.spans().len() as f64, vec![]);
}

fn run_paper(a: &Args, tr: &mut Tracer, rep: &mut Report) {
    let (inp, setup, times) = timed_setup(|| paper::setup(a.seed), drop);
    let inp = or_exit(inp, "paper-figs set-up");
    rep.metric("setup_s", "s", setup, times);
    let jobs = paper::jobs(&inp);
    let mut rng = Rng::from_seed(a.seed ^ 0x4F52_4445);
    let passes = inproc::run_passes(
        &inp.circuits,
        &jobs,
        left_s(a),
        MIN_PASSES,
        tr,
        &mut |j, o| paper::check(&inp, j, o),
    );
    rep.attempted += passes.attempted;
    rep.failures.extend(passes.failures.iter().cloned());
    pass_metrics(rep, &passes);
    if !a.trace {
        return;
    }
    let probe = Instant::now();
    sim_rows(rep, &passes, pass_overhead(&passes));
    let acc = layers::replay_all(&inp.circuits, &paper::replays(&inp), tr, &mut rng)
        .unwrap_or_else(|e| {
            rep.fail(e);
            layers::DdTotals::default()
        });
    layers::dd_rows(rep, &acc, tr);
    layers::arithmetic_rows(rep, tr, &mut rng, acc.coeff_bits_peak);
    layers::circuits_rows(rep, tr, &[], std::slice::from_ref(&inp.gse_raw));
    rep.metric("trace.probe_s", "s", probe.elapsed().as_secs_f64(), vec![]);
}

fn run_wide(a: &Args, tr: &mut Tracer, rep: &mut Report) {
    let (inp, setup, times) = timed_setup(|| wide::setup(a.seed), drop);
    let inp = or_exit(inp, "wide-local set-up");
    rep.metric("setup_s", "s", setup, times);
    let jobs = wide::jobs(&inp);
    let mut rng = Rng::from_seed(a.seed ^ 0x4F52_4445);
    let mut seen = wide::Seen::default();
    let passes = inproc::run_passes(
        &inp.circuits,
        &jobs,
        left_s(a),
        MIN_PASSES,
        tr,
        &mut |j, o| wide::check(&inp, &mut seen, j, o),
    );
    rep.attempted += passes.attempted;
    rep.failures.extend(passes.failures.iter().cloned());
    pass_metrics(rep, &passes);
    if !a.trace {
        return;
    }
    let probe = Instant::now();
    sim_rows(rep, &passes, pass_overhead(&passes));
    shots_rows(rep, &jobs, &passes);
    let acc =
        layers::replay_all(&inp.circuits, &wide::replays(&inp), tr, &mut rng).unwrap_or_else(|e| {
            rep.fail(e);
            layers::DdTotals::default()
        });
    layers::dd_rows(rep, &acc, tr);
    layers::arithmetic_rows(rep, tr, &mut rng, acc.coeff_bits_peak);
    let qasm: Vec<String> = inp.models.iter().map(|m| m.qasm.clone()).collect();
    layers::circuits_rows(rep, tr, &qasm, &[]);
    rep.metric("trace.probe_s", "s", probe.elapsed().as_secs_f64(), vec![]);
}

fn run_wire(a: &Args, out: &Path, tr: &mut Tracer, rep: &mut Report) {
    let (setup, value, times) = timed_setup(
        || wiremix::setup(a.seed, out),
        |s| {
            if let Ok(s) = s {
                let _ = wiremix::teardown(s);
            }
        },
    );
    let setup = or_exit(setup, "wire-mix set-up");
    rep.metric("setup_s", "s", value, times);
    let m = wiremix::run(setup, left_s(a), tr, rep);
    scheme_rows(rep, &m.passes);
    rep.metric(
        "jobs_per_s",
        "1/s",
        m.completed as f64 / m.loop_s,
        m.completed_per_s.clone(),
    );
    rep.metric(
        "p50_ms",
        "ms",
        stats::quantile(&m.latencies_ms, 0.5),
        m.latencies_ms.clone(),
    );
    rep.metric(
        "p90_ms",
        "ms",
        stats::quantile(&m.latencies_ms, 0.9),
        m.latencies_ms.clone(),
    );
    rep.metric("peak_rss_mb", "MB", m.rss_mb, m.rss_readings_mb.clone());
    if !a.trace {
        return;
    }
    let probe = Instant::now();
    sim_rows(rep, &m.passes, pass_overhead(&m.passes));
    shots_rows(rep, &m.jobs, &m.passes);
    let unitary: Vec<&Job> = m
        .jobs
        .iter()
        .filter(|j| !m.circuits[j.circuit].has_nonunitary_ops())
        .take(12)
        .collect();
    let replays: Vec<layers::Replay> = gen::Scheme::ALL
        .iter()
        .flat_map(|g| {
            unitary.iter().map(|j| layers::Replay {
                circuit: j.circuit,
                start: j.start,
                scheme: g.spec(),
            })
        })
        .collect();
    let mut rng = Rng::from_seed(a.seed ^ 0x4C41_5945);
    let acc = layers::replay_all(&m.circuits, &replays, tr, &mut rng).unwrap_or_else(|e| {
        rep.fail(e);
        layers::DdTotals::default()
    });
    layers::dd_rows(rep, &acc, tr);
    layers::arithmetic_rows(rep, tr, &mut rng, acc.coeff_bits_peak);
    layers::circuits_rows(rep, tr, &m.qasm, &[]);
    m.rows.emit(rep, m.counters);
    rep.metric("trace.probe_s", "s", probe.elapsed().as_secs_f64(), vec![]);
}

fn main() {
    let a = parse_args();
    let out = PathBuf::from("perfbench/out");
    if !Path::new("perfbench/Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        eprintln!(
            "perfbench: run from the repository root (perfbench/ and crates/ must be present)"
        );
        std::process::exit(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    let mut tr = Tracer::new(a.trace);
    // Read the CPU set before any pass pins a thread.
    cpu::allowed();
    let mut rep = Report::default();
    match a.workload.as_str() {
        "paper-figs" => run_paper(&a, &mut tr, &mut rep),
        "wide-local" => run_wide(&a, &mut tr, &mut rep),
        "wire-mix" => run_wire(&a, &out, &mut tr, &mut rep),
        _ => usage(),
    }
    if a.trace {
        span_rows(&mut rep, &tr);
        let totals: Vec<String> = tr
            .totals()
            .iter()
            .map(|(n, t)| {
                format!(
                    "\"{n}\":{{\"calls\":{},\"total_s\":{},\"self_s\":{},\"count\":{}}}",
                    t.calls,
                    report::json_num(t.total_s),
                    report::json_num(t.self_s),
                    t.count
                )
            })
            .collect();
        rep.sections
            .push(("span_totals".into(), format!("{{{}}}", totals.join(","))));
        rep.sections.push(("spans".into(), tr.render_spans()));
        let skipped = not_exercised(&a.workload);
        for &(name, unit) in PER_LAYER.iter().filter(|(n, _)| skipped.contains(n)) {
            if !rep.metrics.iter().any(|m| m.name == name) {
                rep.metric(name, unit, 0.0, vec![]);
            }
        }
        let names: Vec<String> = skipped.iter().map(|n| format!("\"{n}\"")).collect();
        rep.sections
            .push(("not_exercised".into(), format!("[{}]", names.join(","))));
    }
    let wanted: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in wanted.iter().filter(|(n, _)| *n != "ok_share") {
        match rep.metrics.iter().find(|m| m.name == name) {
            None => rep.fail(format!("metric {name} was not measured")),
            Some(m) if m.unit != unit => {
                rep.fail(format!("metric {name} is in {}, not {unit}", m.unit))
            }
            Some(_) => {}
        }
    }
    let ok = rep.ok_share();
    rep.metric("ok_share", "share", ok, vec![]);
    let file = out.join(format!(
        "{}-seed{}-trace{}.json",
        a.workload,
        a.seed,
        u8::from(a.trace)
    ));
    let full = rep.full_json(&a.workload, a.seed, a.seconds, a.trace);
    if let Err(e) = std::fs::write(&file, full) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    for f in rep.failures.iter().take(20) {
        eprintln!("check failed: {f}");
    }
    let mut printed = Report {
        attempted: rep.attempted,
        failures: rep.failures.clone(),
        ..Report::default()
    };
    for (name, _) in wanted {
        if let Some(m) = rep.metrics.iter().find(|m| m.name == *name) {
            println!(
                "# {:<26} {:>16} {:<6} n={}",
                m.name,
                report::json_num(m.value),
                m.unit,
                m.samples.len()
            );
            printed.metrics.push(m.clone());
        }
    }
    println!(
        "# host_cores={} revision={} report={}",
        cpu::allowed().len(),
        stats::git_revision(),
        file.display()
    );
    println!("{}", printed.result_line());
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_serve::Json;

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("valid JSON");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
        let rows = |key: &str| -> Vec<(String, Option<String>)> {
            match spec.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|m| Some((field(m, "name")?, field(m, "unit"))))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let listed = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(rows("end_to_end"), listed(&END_TO_END));
        assert_eq!(rows("per_layer"), listed(&PER_LAYER));
        let workloads: Vec<String> = rows("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, ["paper-figs", "wire-mix"]);
        for w in &workloads {
            for name in not_exercised(w) {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
            }
        }
    }
}
