//! Quickstart: build a Bell state three ways — exactly in `Q[ω]`, exactly
//! in `D[ω]` with GCD normalization, and numerically with a tolerance —
//! and see that the exact representations agree structurally while the
//! numeric one only agrees up to ε.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use aqudd::dd::{GateMatrix, GcdContext, Manager, NumericContext, QomegaContext, WeightContext};

fn bell_state<W: WeightContext>(label: &str, ctx: W) -> Result<(), Box<dyn std::error::Error>> {
    let mut m = Manager::new(ctx, 2);
    let state = m.try_basis_state(0b00)?;
    let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    let cx = m.try_gate(&GateMatrix::x(), 1, &[(0, true)])?;
    let after_h = m.try_mat_vec(&h, &state)?;
    let bell = m.try_mat_vec(&cx, &after_h)?;

    println!("— {label} —");
    println!("  decision-diagram nodes: {}", m.vec_nodes(&bell));
    println!("  distinct weights interned: {}", m.distinct_weights());
    for (i, amp) in m.amplitudes(&bell).iter().enumerate() {
        println!("  ⟨{i:02b}|ψ⟩ = {amp}");
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The exact contexts represent 1/√2 algebraically: applying H twice
    // gives *literally* the identity, not something 1e−16 away from it.
    bell_state(
        "algebraic Q[ω] (Algorithm 2 normalization)",
        QomegaContext::new(),
    )?;
    bell_state(
        "algebraic D[ω] (Algorithm 3, GCD normalization)",
        GcdContext::new(),
    )?;
    bell_state(
        "numeric doubles, ε = 1e−10",
        NumericContext::with_eps(1e-10),
    )?;

    // Canonicity in action: HH = I is an O(1) root-edge comparison.
    let mut m = Manager::new(QomegaContext::new(), 2);
    let h = m.try_gate(&GateMatrix::h(), 1, &[])?;
    let hh = m.try_mat_mul(&h, &h)?;
    let id = m.try_identity()?;
    println!("\nexact HH == I (root comparison): {}", hh == id);

    let mut m = Manager::new(NumericContext::new(), 2);
    let h = m.try_gate(&GateMatrix::h(), 1, &[])?;
    let hh = m.try_mat_mul(&h, &h)?;
    let id = m.try_identity()?;
    println!(
        "ε = 0 floating-point HH == I:      {}  (the paper's Sec. III problem!)",
        hh == id
    );
    Ok(())
}
