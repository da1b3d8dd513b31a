//! Full-simulation benchmarks: one per paper figure, comparing the weight
//! systems on (scaled-down) versions of the evaluated workloads.

use aq_testutil::bench::{bench, black_box};

use aq_circuits::cliffordt::CliffordTCompiler;
use aq_circuits::{bwt, grover, gse, BwtParams, Circuit, GseParams};
use aq_dd::{GcdContext, NumericContext, QomegaContext, WeightContext};
use aq_sim::{SimOptions, Simulator};

fn run<W: WeightContext>(
    ctx: W,
    circuit: &Circuit,
    start: u64,
) -> Result<usize, Box<dyn std::error::Error>> {
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
    Ok(sim.nodes())
}

/// Fig. 3 headline: Grover simulation per weight system.
fn bench_grover() {
    let circuit = grover(8, 0b10110101);
    bench("grover_fig3/numeric_eps1e-10", || {
        run(NumericContext::with_eps(1e-10), black_box(&circuit), 0)
    });
    bench("grover_fig3/numeric_eps0", || {
        run(NumericContext::new(), black_box(&circuit), 0)
    });
    bench("grover_fig3/algebraic_qomega", || {
        run(QomegaContext::new(), black_box(&circuit), 0)
    });
    bench("grover_fig3/algebraic_gcd", || {
        run(GcdContext::new(), black_box(&circuit), 0)
    });
}

/// Fig. 4 headline: BWT walk per weight system.
fn bench_bwt() {
    let (circuit, tree) = bwt(BwtParams {
        height: 3,
        steps: 20,
        seed: 0xBD7,
    });
    let start = tree.entrance();
    bench("bwt_fig4/numeric_eps1e-10", || {
        run(NumericContext::with_eps(1e-10), black_box(&circuit), start)
    });
    bench("bwt_fig4/algebraic_qomega", || {
        run(QomegaContext::new(), black_box(&circuit), start)
    });
    bench("bwt_fig4/algebraic_gcd", || {
        run(GcdContext::new(), black_box(&circuit), start)
    });
}

/// Fig. 2 / Fig. 5 headline: compiled Clifford+T GSE per weight system.
fn bench_gse() {
    let raw = gse(&GseParams {
        precision_bits: 3,
        ..GseParams::default()
    });
    // single lookups keep the per-iteration cost benchmarkable; the
    // two-stage search roughly doubles word lengths and coefficient depth
    let (circuit, _) = CliffordTCompiler::new(6).without_two_stage().compile(&raw);
    bench("gse_fig5/numeric_eps1e-10", || {
        run(NumericContext::with_eps(1e-10), black_box(&circuit), 0)
    });
    bench("gse_fig5/numeric_eps0", || {
        run(NumericContext::new(), black_box(&circuit), 0)
    });
    bench("gse_fig5/algebraic_qomega", || {
        run(QomegaContext::new(), black_box(&circuit), 0)
    });
}

fn main() {
    bench_grover();
    bench_bwt();
    bench_gse();
}
