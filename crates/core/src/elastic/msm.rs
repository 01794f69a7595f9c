//! The Move–Split–Merge distance (Stefan, Athitsos & Das 2013).
//!
//! MSM edits one series into the other with three operations — move
//! (substitute, cost = value change), split, and merge (both cost the
//! constant `c`) — and, unlike DTW/LCSS/EDR, is a *metric*. It is one of
//! the two measures (with TWE) that the paper finds significantly better
//! than DTW, debunking M4.
//!
//! `Msm::distance` is the allocating row-major reference; the dispatched
//! `distance_ws` / `distance_upto` are the anti-diagonal kernels in
//! [`super::wavefront`], bit-identical to it. All three share the one
//! branch-free cost function `Msm::c`.

use crate::measure::Distance;
use crate::workspace::Workspace;

/// MSM distance with split/merge cost `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Msm {
    /// The split/merge cost (Table 4 tunes `c` over
    /// `{0.01, ..., 500}`; the paper's unsupervised pick is `c = 0.5`).
    pub cost: f64,
}

impl Msm {
    /// Creates MSM with the given split/merge cost.
    ///
    /// # Panics
    /// Panics if `cost` is negative.
    pub fn new(cost: f64) -> Self {
        assert!(cost >= 0.0, "MSM cost must be non-negative, got {cost}");
        Msm { cost }
    }

    /// The split/merge cost function C(new, adjacent, opposite):
    /// `c` when `new` lies between its neighbours, otherwise `c` plus the
    /// distance to the nearer neighbour.
    ///
    /// Branch-free: both candidate costs are computed and the non-short-
    /// circuit `&`/`|` between-test picks one with a select, so the
    /// wavefront kernels' inner loops vectorize. The select returns
    /// exactly the expression an `if`/`else` on the same test would
    /// evaluate, so the bits do not depend on which form the compiler
    /// emits (NaN operands fail every comparison and take the "outside"
    /// arm).
    #[inline(always)]
    pub(crate) fn c(&self, new: f64, adjacent: f64, opposite: f64) -> f64 {
        let between =
            ((adjacent <= new) & (new <= opposite)) | ((adjacent >= new) & (new >= opposite));
        let outside = self.cost + (new - adjacent).abs().min((new - opposite).abs());
        if between {
            self.cost
        } else {
            outside
        }
    }
}

impl Distance for Msm {
    fn name(&self) -> String {
        format!("MSM(c={})", self.cost)
    }

    fn distance(&self, x: &[f64], y: &[f64]) -> f64 {
        let m = x.len();
        let n = y.len();
        if m == 0 || n == 0 {
            return if m == n { 0.0 } else { f64::INFINITY };
        }

        let mut prev = vec![0.0f64; n];
        let mut curr = vec![0.0f64; n];

        // Row 0.
        prev[0] = (x[0] - y[0]).abs();
        for j in 1..n {
            prev[j] = prev[j - 1] + self.c(y[j], y[j - 1], x[0]);
        }

        for i in 1..m {
            curr[0] = prev[0] + self.c(x[i], x[i - 1], y[0]);
            for j in 1..n {
                let move_cost = prev[j - 1] + (x[i] - y[j]).abs();
                let split_x = prev[j] + self.c(x[i], x[i - 1], y[j]);
                let merge_y = curr[j - 1] + self.c(y[j], x[i], y[j - 1]);
                curr[j] = move_cost.min(split_x).min(merge_y);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[n - 1]
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        // The anti-diagonal wavefront kernel: bit-identical to the
        // row-major `distance` (same per-cell dataflow), but free of its
        // left-neighbour dependency chain, so the branch-free recurrence
        // vectorizes.
        super::wavefront::msm_wavefront_ws(self, x, y, ws)
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        if cutoff.is_nan() || cutoff == f64::INFINITY {
            return self.distance_ws(x, y, ws);
        }
        super::wavefront::msm_wavefront_pruned(self, x, y, cutoff, ws).0
    }

    fn lanes_hint(&self) -> usize {
        crate::lanes::LANES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 5] = [0.0, 1.0, 2.0, 1.0, 0.0];

    #[test]
    fn identical_series_zero() {
        assert_eq!(Msm::new(0.5).distance(&X, &X), 0.0);
    }

    #[test]
    fn symmetric() {
        let y = [0.5, 1.5, 1.0, 0.0, 2.0];
        let m = Msm::new(0.5);
        assert!((m.distance(&X, &y) - m.distance(&y, &X)).abs() < 1e-12);
    }

    #[test]
    fn single_point_is_absolute_difference() {
        assert_eq!(Msm::new(1.0).distance(&[3.0], &[5.5]), 2.5);
    }

    #[test]
    fn triangle_inequality_holds() {
        // MSM is a metric; verify on a grid of small examples.
        let series = [
            vec![0.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
            vec![0.0, 3.0, 0.0],
        ];
        let m = Msm::new(0.3);
        for a in &series {
            for b in &series {
                for c in &series {
                    let ab = m.distance(a, b);
                    let bc = m.distance(b, c);
                    let ac = m.distance(a, c);
                    assert!(ac <= ab + bc + 1e-9, "triangle violated");
                }
            }
        }
    }

    #[test]
    fn split_merge_costs_bound_stretch() {
        // y repeats a value of x: one split (cost c) suffices.
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 1.0, 2.0];
        let c = 0.25;
        let d = Msm::new(c).distance(&x, &y);
        assert!((d - c).abs() < 1e-12, "d = {d}");
    }

    #[test]
    fn higher_cost_penalizes_warping_more() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 0.0, 1.0, 2.0]; // needs one stretch
        let cheap = Msm::new(0.01).distance(&x, &y);
        let pricey = Msm::new(10.0).distance(&x, &y);
        assert!(cheap < pricey);
    }

    #[test]
    fn unequal_lengths_supported() {
        let d = Msm::new(0.5).distance(&[1.0, 2.0], &[1.0, 1.5, 2.0, 2.5, 3.0]);
        assert!(d.is_finite() && d > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_cost_panics() {
        let _ = Msm::new(-1.0);
    }

    #[test]
    fn dispatch_kernel_is_bit_identical_to_the_row_major_reference() {
        let mut ws = Workspace::default();
        let d = Msm::new(0.5);
        for (m, n) in [(1, 1), (1, 9), (7, 7), (9, 1), (17, 23), (64, 64)] {
            let x: Vec<f64> = (0..m)
                .map(|i| ((i * 37 + 11) % 19) as f64 * 0.3 - 2.0)
                .collect();
            let y: Vec<f64> = (0..n)
                .map(|i| ((i * 53 + 5) % 23) as f64 * 0.2 - 1.5)
                .collect();
            let row_major = d.distance(&x, &y);
            let wave = d.distance_ws(&x, &y, &mut ws);
            assert_eq!(row_major.to_bits(), wave.to_bits(), "m={m} n={n}");
        }
    }
}
