//! Differential test of the synthesis decision procedure.
//!
//! Every (basis, target) pair below was first decomposed with the
//! sweep-only optimizer that preceded the Levenberg–Marquardt finish, and
//! the layer counts are pinned in [`EXPECTED_LAYERS`]: the optimizer must
//! make the same accept/reject decision at every layer count, or compiled
//! circuits (and their fidelities) change. The only pinned differences are
//! nine small-angle CPhase targets, marked in the table, where the
//! sweep-only search stalled short of the tolerance at two layers and fell
//! through to three. Two layers is the right answer for each: any CPhase
//! is a two-layer gate on sqrt(iSWAP) (its `(a, 0, 0)` edge satisfies
//! `x >= y + |z|`) and every gate is a two-layer gate on B, and the test
//! checks each of those two-layer decompositions to the tolerance.
//!
//! `NSB_SYNTH_SEEDS=<n>` adds `n` more seeded Haar-random targets per
//! basis. Their layer counts are not pinned; they are checked against the
//! analytic layer cap of each basis and for agreement between the depth
//! oracle and the NuOp-style incremental search.

use nsb_math::{complex_normal, haar_su2, haar_u4, polar_unitary4, Mat4};
use nsb_synth::{Decomposer, DecomposerConfig};
use nsb_weyl::{canonical_gate, WeylCoord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::PI;

/// Haar-random targets per basis that are always run (and pinned).
const PINNED_HAAR: usize = 2;

/// Minimal layer counts, keyed `basis/target`; a trailing comment gives the
/// sweep-only optimizer's count where it differed.
const EXPECTED_LAYERS: &[(&str, usize)] = &[
    ("sqrt_iswap/cphase_pi_2^1", 2),
    ("sqrt_iswap/cphase_pi_2^2", 2),
    ("sqrt_iswap/cphase_pi_2^3", 2),
    ("sqrt_iswap/cphase_pi_2^4", 2),
    ("sqrt_iswap/cphase_pi_2^5", 2),
    ("sqrt_iswap/cphase_pi_2^6", 2),
    ("sqrt_iswap/cphase_pi_2^7", 2),
    ("sqrt_iswap/cphase_pi_2^8", 2),  // sweep-only search: 3
    ("sqrt_iswap/cphase_pi_2^9", 2),  // sweep-only search: 3
    ("sqrt_iswap/cphase_pi_2^10", 2), // sweep-only search: 3
    ("sqrt_iswap/cnot", 2),
    ("sqrt_iswap/swap", 3),
    ("sqrt_iswap/rzz_1.3", 2),
    ("sqrt_iswap/haar_0", 2),
    ("sqrt_iswap/haar_1", 2),
    ("cnot/cphase_pi_2^1", 2),
    ("cnot/cphase_pi_2^2", 2),
    ("cnot/cphase_pi_2^3", 2),
    ("cnot/cphase_pi_2^4", 2),
    ("cnot/cphase_pi_2^5", 2),
    ("cnot/cphase_pi_2^6", 2),
    ("cnot/cphase_pi_2^7", 2),
    ("cnot/cphase_pi_2^8", 2),
    ("cnot/cphase_pi_2^9", 2),
    ("cnot/cphase_pi_2^10", 2),
    ("cnot/cnot", 1),
    ("cnot/swap", 3),
    ("cnot/rzz_1.3", 2),
    ("cnot/haar_0", 3),
    ("cnot/haar_1", 3),
    ("b/cphase_pi_2^1", 2),
    ("b/cphase_pi_2^2", 2),
    ("b/cphase_pi_2^3", 2),
    ("b/cphase_pi_2^4", 2),
    ("b/cphase_pi_2^5", 2),
    ("b/cphase_pi_2^6", 2),
    ("b/cphase_pi_2^7", 2),
    ("b/cphase_pi_2^8", 2), // sweep-only search: 3
    ("b/cphase_pi_2^9", 2),
    ("b/cphase_pi_2^10", 2),
    ("b/cnot", 2),
    ("b/swap", 2),
    ("b/rzz_1.3", 2),
    ("b/haar_0", 2),
    ("b/haar_1", 2),
    ("nonstandard/cphase_pi_2^1", 2),
    ("nonstandard/cphase_pi_2^2", 2),
    ("nonstandard/cphase_pi_2^3", 3),
    ("nonstandard/cphase_pi_2^4", 3),
    ("nonstandard/cphase_pi_2^5", 3),
    ("nonstandard/cphase_pi_2^6", 3),
    ("nonstandard/cphase_pi_2^7", 3),
    ("nonstandard/cphase_pi_2^8", 3),
    ("nonstandard/cphase_pi_2^9", 3),
    ("nonstandard/cphase_pi_2^10", 3),
    ("nonstandard/cnot", 2),
    ("nonstandard/swap", 3),
    ("nonstandard/rzz_1.3", 2),
    ("nonstandard/haar_0", 2),
    ("nonstandard/haar_1", 2),
    ("baseline/cphase_pi_2^1", 2),
    ("baseline/cphase_pi_2^2", 2),
    ("baseline/cphase_pi_2^3", 2),
    ("baseline/cphase_pi_2^4", 2),
    ("baseline/cphase_pi_2^5", 2), // sweep-only search: 3
    ("baseline/cphase_pi_2^6", 2), // sweep-only search: 3
    ("baseline/cphase_pi_2^7", 2),
    ("baseline/cphase_pi_2^8", 2),  // sweep-only search: 3
    ("baseline/cphase_pi_2^9", 2),  // sweep-only search: 3
    ("baseline/cphase_pi_2^10", 2), // sweep-only search: 3
    ("baseline/cnot", 2),
    ("baseline/swap", 3),
    ("baseline/rzz_1.3", 2),
    ("baseline/haar_0", 2),
    ("baseline/haar_1", 2),
];

/// The bases under test: standard gates, a dressed nonstandard gate and a
/// GST-noised sqrt(iSWAP) standing in for a calibrated Baseline edge.
fn bases() -> Vec<(&'static str, Mat4)> {
    let mut rng = StdRng::seed_from_u64(13);
    let nonstandard = Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng))
        * canonical_gate(WeylCoord::new(0.30, 0.24, 0.06))
        * Mat4::kron(&haar_su2(&mut rng), &haar_su2(&mut rng));
    // GST-grade tomography noise: 400k shots at noise scale 2 (see
    // `TomographyModel::gst` in nsb-device), projected back to U(4).
    let mut rng = StdRng::seed_from_u64(0xba5e);
    let sigma = 2.0 / 400_000f64.sqrt();
    let mut noisy = Mat4::sqrt_iswap();
    for r in 0..4 {
        for c in 0..4 {
            noisy[(r, c)] += complex_normal(&mut rng).scale(sigma);
        }
    }
    vec![
        ("sqrt_iswap", Mat4::sqrt_iswap()),
        ("cnot", Mat4::cnot()),
        ("b", Mat4::b_gate()),
        ("nonstandard", nonstandard),
        ("baseline", polar_unitary4(&noisy)),
    ]
}

/// Structured targets plus `haar` seeded Haar-random ones.
fn targets(haar: usize) -> Vec<(String, Mat4)> {
    let mut out: Vec<(String, Mat4)> = (1..=10)
        .map(|k| {
            (
                format!("cphase_pi_2^{k}"),
                Mat4::cphase(PI / f64::from(1u32 << k)),
            )
        })
        .collect();
    out.push(("cnot".into(), Mat4::cnot()));
    out.push(("swap".into(), Mat4::swap()));
    out.push(("rzz_1.3".into(), Mat4::rzz(1.3)));
    let mut rng = StdRng::seed_from_u64(0x4aa2);
    out.extend((0..haar).map(|i| (format!("haar_{i}"), haar_u4(&mut rng))));
    out
}

/// Most layers any target needs on each basis: three for sqrt(iSWAP)-
/// and CNOT-class gates, two for B; the others are checked by the table.
fn layer_cap(basis: &str) -> usize {
    match basis {
        "b" => 2,
        _ => 3,
    }
}

fn extra_seeds() -> usize {
    std::env::var("NSB_SYNTH_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

#[test]
fn decision_procedure_matches_pinned_layer_counts() {
    let cfg = DecomposerConfig::default();
    // Bound on ||W - e^{i phi} T||_F implied by `error <= tol`: the
    // residual 4 - |tr| = 20 error / (4 + |tr|) is at most 5 tol, and the
    // squared distance at the optimal phase is twice the residual.
    let dist_tol = (10.0 * cfg.tol).sqrt();
    let pinned = targets(PINNED_HAAR).len();
    let mut observed = Vec::new();
    for (bname, basis) in bases() {
        let oracle = Decomposer::with_config(basis, cfg);
        let incremental = Decomposer::with_config(
            basis,
            DecomposerConfig {
                use_depth_oracle: false,
                ..cfg
            },
        );
        for (i, (tname, target)) in targets(PINNED_HAAR + extra_seeds()).into_iter().enumerate() {
            let name = format!("{bname}/{tname}");
            let a = oracle
                .decompose(&target)
                .unwrap_or_else(|e| panic!("{name} with the depth oracle: {e}"));
            let b = incremental
                .decompose(&target)
                .unwrap_or_else(|e| panic!("{name} incremental: {e}"));
            assert_eq!(
                a.layers, b.layers,
                "{name}: depth oracle and incremental disagree"
            );
            for s in [&a, &b] {
                assert!(s.error <= cfg.tol, "{name}: error {:.3e}", s.error);
                let rebuilt = s.unitary_with_phase(&vec![basis; s.layers]);
                assert!(
                    (rebuilt - target).norm() <= dist_tol,
                    "{name}: rebuilt unitary is {:.3e} from the target",
                    (rebuilt - target).norm()
                );
            }
            if i < pinned {
                observed.push((name, a.layers));
            } else {
                assert!(a.layers <= layer_cap(bname), "{name}: {} layers", a.layers);
            }
        }
    }
    let expected: Vec<(String, usize)> = EXPECTED_LAYERS
        .iter()
        .map(|&(n, l)| (n.to_string(), l))
        .collect();
    assert_eq!(observed, expected, "layer counts changed");
}
