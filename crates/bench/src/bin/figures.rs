//! Regenerates every figure of the paper's evaluation as CSV data series.
//!
//! ```text
//! cargo run --release -p aq-bench --bin figures -- all            # quick scale
//! cargo run --release -p aq-bench --bin figures -- fig3 --paper   # paper scale
//! ```
//!
//! Optional resource-budget flags (`--max-nodes=N`, `--max-weights=N`,
//! `--max-bits=N`, `--deadline-secs=S`) cap every series of an ε sweep; a
//! capped series is reported as an explicit `aborted` row with its partial
//! prefix kept, and the remaining ε points still run to completion.
//!
//! With `--checkpoint=PATH` a budget abort additionally dumps the aborted
//! stage's simulator to PATH; re-running the same figure with
//! `--resume=PATH` (and a roomier budget) continues that stage from the
//! stored cursor instead of replaying it, while all other stages run
//! normally.
//!
//! Output lands in `target/figures/*.csv`; a textual summary (the rows the
//! paper reports) is printed to stdout. See `EXPERIMENTS.md` for the
//! paper-vs-measured comparison.

use std::path::Path;

use aq_bench::{
    budget_from_args, checkpoint_from_args, eps_label, print_summary, reference_run_budgeted,
    traced_numeric_vs_reference_resumable, write_figure, Scale, FIG2_EPSILONS, PAPER_EPSILONS,
};
use aq_circuits::cliffordt::CliffordTCompiler;
use aq_circuits::{bwt, grover, gse, BwtParams, Circuit, GseParams};
use aq_dd::{GcdContext, QomegaContext, RunBudget};
use aq_sim::{Column, SimOptions, Simulator, Trace};

/// Result of the figure stages that stop on an engine error.
type Fallible<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Crash-safety wiring shared by every sweep: where to dump a checkpoint
/// on abort, and which (if any) checkpoint to continue from.
#[derive(Clone, Copy, Default)]
struct Persist<'a> {
    checkpoint: Option<&'a Path>,
    resume: Option<&'a Path>,
}

fn main() -> Fallible {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args(&args);
    let budget = budget_from_args(&args);
    let (checkpoint, resume) = checkpoint_from_args(&args);
    let persist = Persist {
        checkpoint: checkpoint.as_deref(),
        resume: resume.as_deref(),
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    match which {
        "fig2" => fig2_and_fig5(scale, budget, persist, true, false),
        "fig3" => fig3(scale, budget, persist),
        "fig4" => fig4(scale, budget, persist),
        "fig5" => fig2_and_fig5(scale, budget, persist, false, true),
        "ablation" => ablation(scale)?,
        "extras" => extras(scale)?,
        "all" => {
            fig2_and_fig5(scale, budget, persist, true, true);
            fig3(scale, budget, persist);
            fig4(scale, budget, persist);
            ablation(scale)?;
            extras(scale)?;
        }
        other => {
            eprintln!(
                "unknown figure `{other}`; use fig2|fig3|fig4|fig5|ablation|extras|all \
                 [--paper] [--max-nodes=N] [--max-weights=N] [--max-bits=N] [--deadline-secs=S] \
                 [--checkpoint=PATH] [--resume=PATH]"
            );
            std::process::exit(2);
        }
    }
    Ok(())
}

/// The compiled Clifford+T GSE circuit used by Figs. 2 and 5.
fn gse_circuit(scale: Scale) -> Circuit {
    let params = match scale {
        Scale::Quick => GseParams {
            precision_bits: 4,
            ..GseParams::default()
        },
        Scale::Paper => GseParams {
            precision_bits: 6,
            trotter_slices: 2,
            ..GseParams::default()
        },
    };
    let raw = gse(&params);
    // The figure workload is the compiled circuit itself, so approximation
    // quality is not under test: the quick scale uses single database
    // lookups (shorter words, minutes-scale algebraic runs); the paper
    // scale uses the two-stage meet-in-the-middle search.
    let (budget, two_stage) = match scale {
        Scale::Quick => (8, false),
        Scale::Paper => (12, true),
    };
    let mut comp = CliffordTCompiler::new(budget);
    if !two_stage {
        comp = comp.without_two_stage();
    }
    let (compiled, worst) = comp.compile(&raw);
    println!(
        "GSE: {} qubits, {} raw ops -> {} Clifford+T ops (worst per-gate distance {worst:.3})",
        raw.n_qubits(),
        raw.len(),
        compiled.len()
    );
    compiled
}

/// Fig. 3: Grover — size / accuracy / runtime over applied gates.
fn fig3(scale: Scale, budget: RunBudget, persist: Persist<'_>) {
    let (n, marked) = match scale {
        Scale::Quick => (11, 0b10110101101),
        Scale::Paper => (15, 0b101101011010110),
    };
    let circuit = grover(n, marked);
    println!("Grover: {n} qubits, {} ops", circuit.len());
    let sample = (circuit.len() / 60).max(1);
    let reference = reference_run_budgeted(&circuit, sample, 0, budget);
    let mut labelled: Vec<(String, Trace)> = Vec::new();
    for eps in PAPER_EPSILONS {
        labelled.push((
            eps_label(eps),
            traced_numeric_vs_reference_resumable(
                &circuit,
                eps,
                &reference,
                budget,
                &format!("fig3/{}", eps_label(eps)),
                persist.checkpoint,
                persist.resume,
            ),
        ));
    }
    labelled.push(("algebraic".into(), reference.trace));
    write_figure("fig3", &labelled);
    print_summary("Fig. 3 (Grover)", &labelled);
}

/// Fig. 4: Binary Welded Tree — size / accuracy / runtime.
fn fig4(scale: Scale, budget: RunBudget, persist: Persist<'_>) {
    let params = match scale {
        Scale::Quick => BwtParams {
            height: 4,
            steps: 40,
            seed: 0xBD7,
        },
        Scale::Paper => BwtParams {
            height: 5,
            steps: 60,
            seed: 0xBD7,
        },
    };
    let (circuit, tree) = bwt(params);
    println!(
        "BWT: height {}, {} vertices, {} qubits, {} ops",
        params.height,
        tree.vertex_count(),
        circuit.n_qubits(),
        circuit.len()
    );
    let sample = (circuit.len() / 60).max(1);
    let reference = reference_run_budgeted(&circuit, sample, tree.coined_start(), budget);
    let mut labelled: Vec<(String, Trace)> = Vec::new();
    for eps in PAPER_EPSILONS {
        labelled.push((
            eps_label(eps),
            traced_numeric_vs_reference_resumable(
                &circuit,
                eps,
                &reference,
                budget,
                &format!("fig4/{}", eps_label(eps)),
                persist.checkpoint,
                persist.resume,
            ),
        ));
    }
    labelled.push(("algebraic".into(), reference.trace));
    write_figure("fig4", &labelled);
    print_summary("Fig. 4 (BWT)", &labelled);
}

/// Figs. 2 and 5 share the same GSE workload: one algebraic reference
/// run feeds both ε sweeps.
fn fig2_and_fig5(
    scale: Scale,
    budget: RunBudget,
    persist: Persist<'_>,
    emit_fig2: bool,
    emit_fig5: bool,
) {
    let circuit = gse_circuit(scale);
    let sample = (circuit.len() / 50).max(1);
    let reference = reference_run_budgeted(&circuit, sample, 0, budget);
    let mut eps_list: Vec<f64> = PAPER_EPSILONS.to_vec();
    for e in FIG2_EPSILONS {
        if !eps_list.contains(&e) {
            eps_list.push(e);
        }
    }
    eps_list.sort_by(|a, b| b.total_cmp(a));
    let mut traces: Vec<(f64, Trace)> = Vec::new();
    for eps in eps_list {
        traces.push((
            eps,
            traced_numeric_vs_reference_resumable(
                &circuit,
                eps,
                &reference,
                budget,
                &format!("gse/{}", eps_label(eps)),
                persist.checkpoint,
                persist.resume,
            ),
        ));
    }
    let pick = |list: &[f64]| -> Vec<(String, Trace)> {
        let mut out: Vec<(String, Trace)> = list
            .iter()
            .map(|e| {
                let t = traces
                    .iter()
                    .find(|(x, _)| x == e)
                    .expect("swept")
                    .1
                    .clone();
                (eps_label(*e), t)
            })
            .collect();
        out.push(("algebraic".into(), reference.trace.clone()));
        out
    };
    if emit_fig2 {
        let labelled = pick(&FIG2_EPSILONS);
        write_figure("fig2", &labelled);
        print_summary("Fig. 2 (GSE size vs epsilon)", &labelled);
    }
    if emit_fig5 {
        let labelled = pick(&PAPER_EPSILONS);
        write_figure("fig5", &labelled);
        print_summary("Fig. 5 (GSE)", &labelled);
        println!(
            "algebraic peak coefficient bit-width: {}",
            reference.trace.peak_weight_bits()
        );
    }
}

/// Normalization-scheme ablation (Sec. V-B): `Q[ω]` inverses vs `D[ω]` GCDs.
fn ablation(scale: Scale) -> Fallible {
    let grover_c = match scale {
        Scale::Quick => grover(9, 0b101101011),
        Scale::Paper => grover(11, 0b10110101101),
    };
    let (bwt_c, tree) = bwt(BwtParams {
        height: 3,
        steps: 30,
        seed: 0xBD7,
    });
    let gse_c = {
        let raw = gse(&GseParams {
            precision_bits: 3,
            ..GseParams::default()
        });
        // single lookups: the ablation compares normalization schemes,
        // not compilation quality, and shorter words keep it minutes-scale
        CliffordTCompiler::new(6)
            .without_two_stage()
            .compile(&raw)
            .0
    };

    let mut rows: Vec<(String, Trace, Trace, f64, f64)> = Vec::new();
    for (name, circuit, start) in [
        ("grover", &grover_c, 0u64),
        ("bwt", &bwt_c, tree.coined_start()),
        ("gse", &gse_c, 0),
    ] {
        let q = traced_walk(QomegaContext::new(), circuit, start)?;
        let g = traced_walk(GcdContext::new(), circuit, start)?;
        let qf = trivial_fraction(QomegaContext::new(), circuit, start)?;
        let gf = trivial_fraction(GcdContext::new(), circuit, start)?;
        rows.push((name.to_string(), q, g, qf, gf));
    }

    println!("== Normalization ablation (Sec. V-B) ==");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "bench", "Qw secs", "GCD secs", "Qw nodes", "GCD nodes", "Qw triv", "GCD triv"
    );
    let mut cols: Vec<Column> = vec![Column {
        name: "bench".into(),
        values: rows.iter().map(|r| r.0.clone()).collect(),
    }];
    cols.push(Column::from_f64(
        "qomega_seconds",
        rows.iter().map(|r| r.1.total_seconds()),
    ));
    cols.push(Column::from_f64(
        "gcd_seconds",
        rows.iter().map(|r| r.2.total_seconds()),
    ));
    cols.push(Column::from_usize(
        "qomega_peak_nodes",
        rows.iter().map(|r| r.1.peak_nodes()),
    ));
    cols.push(Column::from_usize(
        "gcd_peak_nodes",
        rows.iter().map(|r| r.2.peak_nodes()),
    ));
    cols.push(Column::from_f64(
        "qomega_trivial_fraction",
        rows.iter().map(|r| r.3),
    ));
    cols.push(Column::from_f64(
        "gcd_trivial_fraction",
        rows.iter().map(|r| r.4),
    ));
    for (name, q, g, qf, gf) in &rows {
        println!(
            "{:<8} {:>12.3} {:>12.3} {:>12} {:>12} {:>10.3} {:>10.3}",
            name,
            q.total_seconds(),
            g.total_seconds(),
            q.peak_nodes(),
            g.peak_nodes(),
            qf,
            gf
        );
    }
    aq_sim::write_csv("target/figures/ablation_normalization.csv", &cols).expect("write csv");

    norm_scheme_ablation()
}

/// Numeric-normalization ablation: the simple leftmost scheme vs the
/// largest-magnitude scheme of \[29\] at small non-zero ε. Dividing by a
/// near-cancellation pivot produces huge co-weights that merge wrongly
/// under the tolerance — the “numerical instability of the multiplication
/// algorithm” the paper observes as error peaks in Fig. 3b.
fn norm_scheme_ablation() -> Fallible {
    use aq_bench::reference_run;
    use aq_dd::{NormScheme, NumericContext};
    use aq_sim::normalized_distance;

    let circuit = grover(9, 0b101101011);
    let reference = reference_run(&circuit, 50, 0);
    println!("== Norm-scheme ablation (leftmost vs max-magnitude, Grover 9) ==");
    println!(
        "{:<10} {:<16} {:>14} {:>12}",
        "eps", "scheme", "final error", "peak nodes"
    );
    let mut rows: Vec<(f64, &str, f64, usize)> = Vec::new();
    for eps in [1e-16, 1e-13, 1e-10] {
        for (scheme, name) in [
            (NormScheme::Leftmost, "leftmost"),
            (NormScheme::MaxMagnitude, "max-magnitude"),
        ] {
            let ctx = NumericContext::with_eps_and_scheme(eps, scheme);
            let mut sim = Simulator::new(ctx, &circuit);
            let mut peak = 0usize;
            while sim.try_step()? {
                peak = peak.max(sim.nodes());
            }
            let s = sim.state();
            let v_num = sim.manager_mut().amplitudes(&s);
            let v_alg = &reference.samples[&circuit.len()];
            let err = normalized_distance(&v_num, v_alg);
            println!("{eps:<10.0e} {name:<16} {err:>14.3e} {peak:>12}");
            rows.push((eps, name, err, peak));
        }
    }
    let cols = vec![
        Column::from_f64("eps", rows.iter().map(|r| r.0)),
        Column {
            name: "scheme".into(),
            values: rows.iter().map(|r| r.1.to_string()).collect(),
        },
        Column::from_f64("final_error", rows.iter().map(|r| r.2)),
        Column::from_usize("peak_nodes", rows.iter().map(|r| r.3)),
    ];
    aq_sim::write_csv("target/figures/ablation_norm_scheme.csv", &cols).expect("write csv");
    Ok(())
}

/// Extension experiments beyond the paper's figures (see EXPERIMENTS.md):
/// matrix-matrix vs matrix-vector workloads, and the correctness of
/// DD-based equivalence checking under the eps trade-off.
fn extras(scale: Scale) -> Fallible {
    matrix_vs_vector(scale)?;
    equivalence_correctness()
}

/// Builds the whole-circuit unitary (matrix-matrix pipeline) and compares
/// it with stepwise state simulation — the two workloads the paper's
/// introduction names for DD-based design automation.
fn matrix_vs_vector(scale: Scale) -> Fallible {
    use aq_dd::NumericContext;
    use std::time::Instant;
    let n = match scale {
        Scale::Quick => 8,
        Scale::Paper => 10,
    };
    let circuit = grover(n, (1 << n) - 2);
    println!("== Extras: matrix-matrix vs matrix-vector (Grover {n}) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "backend", "mxv secs", "mxm secs", "U nodes"
    );
    let mut rows: Vec<(String, f64, f64, usize)> = Vec::new();
    macro_rules! case {
        ($label:expr, $ctx:expr) => {{
            let t0 = Instant::now();
            let mut sim = Simulator::new($ctx, &circuit);
            while sim.try_step()? {}
            let mxv = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let mut sim = Simulator::new($ctx, &circuit);
            let u = sim.try_build_unitary()?;
            let mxm = t0.elapsed().as_secs_f64();
            let nodes = sim.manager().mat_nodes(&u);
            println!("{:<22} {:>12.3} {:>12.3} {:>12}", $label, mxv, mxm, nodes);
            rows.push(($label.to_string(), mxv, mxm, nodes));
        }};
    }
    case!("numeric eps=1e-10", aq_bench::figure_numeric_context(1e-10));
    case!("numeric eps=0", NumericContext::new());
    case!("algebraic Q[w]", QomegaContext::new());
    let cols = vec![
        Column {
            name: "backend".into(),
            values: rows.iter().map(|r| r.0.clone()).collect(),
        },
        Column::from_f64("mxv_seconds", rows.iter().map(|r| r.1)),
        Column::from_f64("mxm_seconds", rows.iter().map(|r| r.2)),
        Column::from_usize("unitary_nodes", rows.iter().map(|r| r.3)),
    ];
    aq_sim::write_csv("target/figures/extras_mxm_vs_mxv.csv", &cols).expect("write csv");
    Ok(())
}

/// Equivalence checking (the paper's Sec. V-B design task) across the
/// eps trade-off: a numeric manager with eps = 0 *fails to recognise*
/// truly equivalent circuits (false negatives), while a large eps
/// *wrongly equates* distinct circuits (false positives). The exact
/// manager gets both right, by construction.
fn equivalence_correctness() -> Fallible {
    use aq_dd::{GateMatrix, NumericContext};
    use aq_sim::circuits_equivalent;

    let n = 4;
    let base = {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.push_gate(GateMatrix::h(), q, &[]);
            c.push_gate(GateMatrix::t(), q, &[]);
        }
        c.push_gate(GateMatrix::x(), 3, &[(0, true), (1, true)]);
        c
    };
    // truly equivalent: base followed by HH (= identity) on a qubit
    let equal = {
        let mut c = base.clone();
        c.push_gate(GateMatrix::h(), 2, &[]);
        c.push_gate(GateMatrix::h(), 2, &[]);
        c
    };
    // truly different: base with one extra T (a pi/4 phase on one branch)
    let different = {
        let mut c = base.clone();
        c.push_gate(GateMatrix::t(), 2, &[]);
        c
    };

    // nearly equal (numeric only): base with a tiny extra P(1e−4) phase —
    // truly different, but a loose ε cannot see it (false positive).
    // Note that *exactly representable* circuits cannot differ this
    // subtly: the smallest non-identity Clifford+T deviation is a T-type
    // phase, far outside any sensible ε — exactness removes the failure
    // mode structurally.
    let near = {
        let mut c = base.clone();
        c.push_gate(GateMatrix::phase(1e-4), 2, &[]);
        c
    };

    println!("== Extras: equivalence checking under the trade-off ==");
    println!(
        "{:<14} {:>18} {:>18} {:>18}",
        "backend", "equal pair", "different pair", "near-miss pair"
    );
    let verdict = |b: bool| if b { "EQUIVALENT" } else { "different" };
    let mut rows: Vec<(String, bool, bool, String)> = Vec::new();
    for eps in [0.0, 1e-13, 1e-1] {
        let a = circuits_equivalent(NumericContext::with_eps(eps), &base, &equal)?;
        let d = circuits_equivalent(NumericContext::with_eps(eps), &base, &different)?;
        let nm = circuits_equivalent(NumericContext::with_eps(eps), &base, &near)?;
        println!(
            "{:<14} {:>18} {:>18} {:>18}",
            format!("eps={eps:.0e}"),
            verdict(a),
            verdict(d),
            verdict(nm)
        );
        rows.push((format!("eps={eps:.0e}"), a, d, verdict(nm).to_string()));
    }
    let a = circuits_equivalent(QomegaContext::new(), &base, &equal)?;
    let d = circuits_equivalent(QomegaContext::new(), &base, &different)?;
    println!(
        "{:<14} {:>18} {:>18} {:>18}",
        "algebraic",
        verdict(a),
        verdict(d),
        "n/a (compile)"
    );
    rows.push(("algebraic".into(), a, d, "n/a".into()));
    let cols = vec![
        Column {
            name: "backend".into(),
            values: rows.iter().map(|r| r.0.clone()).collect(),
        },
        Column {
            name: "says_equal_pair_equal".into(),
            values: rows.iter().map(|r| r.1.to_string()).collect(),
        },
        Column {
            name: "says_different_pair_different".into(),
            values: rows.iter().map(|r| (!r.2).to_string()).collect(),
        },
        Column {
            name: "near_miss_verdict".into(),
            values: rows.iter().map(|r| r.3.clone()).collect(),
        },
    ];
    aq_sim::write_csv("target/figures/extras_equivalence.csv", &cols).expect("write csv");
    Ok(())
}

fn traced_walk<W: aq_dd::WeightContext>(ctx: W, circuit: &Circuit, start: u64) -> Fallible<Trace> {
    let mut sim = Simulator::with_options(ctx, circuit, SimOptions::default());
    sim.try_reset_to(start)?;
    Ok(sim.try_run()?.trace)
}

fn trivial_fraction<W: aq_dd::WeightContext>(
    ctx: W,
    circuit: &Circuit,
    start: u64,
) -> Fallible<f64> {
    let mut sim = Simulator::with_options(
        ctx,
        circuit,
        SimOptions {
            record_trace: false,
            ..SimOptions::default()
        },
    );
    sim.try_reset_to(start)?;
    while sim.try_step()? {}
    let state = sim.state();
    let (total, unit) = sim.manager().vec_weight_stats(&state);
    Ok(if total == 0 {
        0.0
    } else {
        unit as f64 / total as f64
    })
}
