//! MSM's dispatched kernels against its row-major reference.
//!
//! `Msm::distance_ws` and `Msm::distance_upto` run the anti-diagonal
//! wavefront with a branch-free split/merge cost; `Msm::distance` is the
//! allocating row-major reference. The wavefront must return the
//! reference's exact bits at every Table 4 cost, on every shape the
//! boundary chains special-case, on the plateaus and repeated values
//! where the cost function's `<=`/`>=` between-test sits on its edge,
//! and on non-finite samples. The pruned kernel must honour the
//! `distance_upto` contract, and the pruned 1-NN engine must report the
//! exact engine's accuracy bit for bit.

use tsdist_core::elastic::Msm;
use tsdist_core::measure::Distance;
use tsdist_core::registry;
use tsdist_core::Workspace;
use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};
use tsdist_eval::Eval;

/// SplitMix64 noise in `[-2, 2)`.
fn noise(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        })
        .collect()
}

/// Values snapped to a coarse grid: long plateaus and many exact ties,
/// so `new == adjacent` / `new == opposite` hits the between-test edge.
fn plateaus(seed: u64, len: usize) -> Vec<f64> {
    noise(seed, len)
        .iter()
        .map(|v| (v * 1.5).round() * 0.5)
        .collect()
}

/// The MSM grid of Table 4, from the registry.
fn msm_grid() -> Vec<Box<dyn Distance>> {
    registry::elastic_families()
        .into_iter()
        .find(|f| f.family == "MSM")
        .expect("the registry has an MSM family")
        .grid
}

const SHAPES: [(usize, usize); 10] = [
    (1, 1),
    (1, 9),
    (1, 112),
    (9, 1),
    (112, 1),
    (2, 3),
    (17, 23),
    (40, 7),
    (64, 100),
    (112, 112),
];

fn assert_same_bits(d: &dyn Distance, x: &[f64], y: &[f64], ws: &mut Workspace, what: &str) {
    let reference = d.distance(x, y);
    let dispatched = d.distance_ws(x, y, ws);
    assert_eq!(
        reference.to_bits(),
        dispatched.to_bits(),
        "{} {what} {}x{}: reference {reference} vs dispatched {dispatched}",
        d.name(),
        x.len(),
        y.len()
    );
}

#[test]
fn dispatched_kernel_is_bit_identical_at_every_grid_cost_and_shape() {
    let grid = msm_grid();
    assert!(grid.len() > 1, "the MSM grid is a sweep");
    let mut ws = Workspace::new();
    for d in &grid {
        for (s, &(m, n)) in SHAPES.iter().enumerate() {
            let seed = 100 + s as u64;
            let x = noise(seed, m);
            let y = noise(seed ^ 0xDEAD, n);
            assert_same_bits(d.as_ref(), &x, &y, &mut ws, "noise");
            assert_same_bits(d.as_ref(), &y, &x, &mut ws, "noise (swapped)");
        }
    }
}

#[test]
fn plateaus_and_repeated_values_hit_the_cost_boundary_identically() {
    let mut ws = Workspace::new();
    for d in &msm_grid() {
        for (s, &(m, n)) in SHAPES.iter().enumerate() {
            let seed = 200 + s as u64;
            let x = plateaus(seed, m);
            let y = plateaus(seed ^ 0xBEEF, n);
            assert_same_bits(d.as_ref(), &x, &y, &mut ws, "plateaus");
            // A constant series and a series against itself: every
            // split/merge sees `new == adjacent == opposite`.
            let flat = vec![0.5; m];
            assert_same_bits(d.as_ref(), &flat, &y, &mut ws, "constant");
            assert_same_bits(d.as_ref(), &x, &x, &mut ws, "self");
        }
    }
}

#[test]
fn non_finite_samples_are_bit_identical() {
    let mut ws = Workspace::new();
    let d = Msm::new(0.5);
    let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    for (s, &(m, n)) in SHAPES.iter().enumerate() {
        for (k, &special) in specials.iter().enumerate() {
            let seed = 300 + (s * 3 + k) as u64;
            let mut x = noise(seed, m);
            let mut y = noise(seed ^ 0xF00D, n);
            x[m / 2] = special;
            assert_same_bits(&d, &x, &y, &mut ws, "one special in x");
            y[0] = special;
            y[n - 1] = specials[(k + 1) % 3];
            assert_same_bits(&d, &x, &y, &mut ws, "specials in both");
            let all = vec![special; m];
            assert_same_bits(&d, &all, &y, &mut ws, "all special");
        }
    }
}

#[test]
fn pruned_kernel_honours_the_upto_contract() {
    let mut ws = Workspace::new();
    for d in &msm_grid() {
        for (s, &(m, n)) in SHAPES.iter().enumerate() {
            let seed = 400 + s as u64;
            let x = noise(seed, m);
            let y = noise(seed ^ 0xCAFE, n);
            let exact = d.distance_ws(&x, &y, &mut ws);
            for factor in [0.25, 0.999, 1.0, 1.001, 2.0] {
                let cutoff = exact * factor;
                let got = d.distance_upto(&x, &y, &mut ws, cutoff);
                if exact < cutoff {
                    assert_eq!(
                        got.to_bits(),
                        exact.to_bits(),
                        "{} {m}x{n} factor {factor}: below-cutoff result must be exact",
                        d.name()
                    );
                } else {
                    assert!(
                        got >= cutoff,
                        "{} {m}x{n} factor {factor}: {got} < cutoff {cutoff}",
                        d.name()
                    );
                }
            }
            for cutoff in [f64::INFINITY, f64::NAN] {
                let got = d.distance_upto(&x, &y, &mut ws, cutoff);
                assert_eq!(
                    got.to_bits(),
                    exact.to_bits(),
                    "{} {m}x{n} cutoff {cutoff}: an unbounded cutoff is the exact kernel",
                    d.name()
                );
            }
        }
    }
}

#[test]
fn pruned_and_exact_engines_report_identical_accuracy() {
    let config = ArchiveConfig::quick(2, 20);
    for i in 0..2 {
        let ds = generate_dataset(&config, i);
        for d in &msm_grid() {
            let run = |pruned| {
                Eval::new(d.as_ref())
                    .on(&ds)
                    .pruned(pruned)
                    .run()
                    .unwrap()
                    .accuracy
                    .unwrap()
            };
            let (exact, pruned) = (run(false), run(true));
            assert_eq!(
                exact.to_bits(),
                pruned.to_bits(),
                "{} on {}: exact {exact} vs pruned {pruned}",
                d.name(),
                ds.name
            );
        }
    }
}
