//! Anti-diagonal wavefront layouts for the DP kernels (DTW, WDTW, MSM).
//!
//! A row-major DTW sweep carries a loop dependency through `curr[j - 1]`:
//! every cell waits on its left neighbour, so the inner loop runs at the
//! latency of one `min`-chain + `add` per cell. Sweeping *anti-diagonals*
//! (`d = i + j`) removes that edge — every cell on a diagonal depends
//! only on the two *previous* diagonals — so the inner loop is a pure
//! element-wise map over contiguous scratch rows that the compiler can
//! vectorize and the CPU can overlap.
//!
//! ## Bit-compatibility with the row-major kernels
//!
//! Cell values are **bit-identical** to [`super::dtw::dtw_banded_ws`]:
//! the cost expression (`diff * diff`, or `w * diff * diff` for WDTW) and
//! the `min` operand order (`diag.min(top).min(left)`) are preserved
//! exactly, and `f64::min` over non-NaN operands is order-insensitive in
//! value (local costs are `>= 0`, so `-0.0` never appears). Only the
//! *schedule* changes, never the per-cell dataflow. The `ws_equivalence`
//! and `wavefront` test suites pin this down.
//!
//! ## Coordinates
//!
//! Diagonal `d` holds cells `(i, j = d - i)` of the `(m+1) x (n+1)` DP
//! matrix, stored indexed by `i` in rows of length `m + 1`. With the
//! Sakoe–Chiba band `|i - j| <= band` the in-band index range on diagonal
//! `d` is
//!
//! ```text
//! lo(d) = max(1, d - n, ceil((d - band) / 2))
//! hi(d) = min(m, d - 1, floor((d + band) / 2))
//! ```
//!
//! `lo` is non-decreasing in `d` and `hi` grows by at most one per step
//! (each clamp component does), so INF-filling the halo `[lo-1, hi+1]`
//! on every diagonal covers every read any later diagonal makes of this
//! one — including the one-cell gaps of empty band-0 diagonals. `y` is
//! copied once in reverse (`yr[k] = y[n-1-k]`) so both series are read
//! *forward* along a diagonal: `y[j-1] = yr[n - d + i]`.
//!
//! ## Pruned variant
//!
//! [`dtw_wavefront_pruned`] keeps the EAPruned live-window idea in
//! diagonal space. A warping path advances `d` by 1 (step) or 2
//! (diagonal move), so it can skip *one* diagonal but never two:
//! abandoning is admissible exactly when the live windows of **both**
//! previous diagonals are empty. Cells worth computing are those with a
//! potentially-live predecessor,
//! `[min(l1_lo, l2_lo + 1), max(l1_hi + 1, l2_hi + 1)]` intersected with
//! the band range; everything else on the diagonal has only dead
//! predecessors, hence a true value `>= cutoff`, for which the INF fill
//! is a sound overestimate (the standard EAPruned argument: a
//! substituted INF can only displace an operand that was itself
//! `>= cutoff`, so live cells still compute exact bits). Stale scratch
//! from three diagonals ago is neutralized by INF-filling a fixed ±2
//! margin around the union of this and the previous diagonal's computed
//! spans, which contains every future read of this row.
//!
//! ## MSM
//!
//! [`msm_wavefront_ws`] / [`msm_wavefront_pruned`] run the same schedule
//! over MSM's unpadded `m x n` table (`d = i + j`, rows of length `m`):
//! its boundary row and column are split/merge chains, not INF, so they
//! are computed as scalar cells and only the interior is the vectorized
//! map. The moves are DTW's and every step cost is `>= 0`, so the pruned
//! variant reuses the live-window rule and the ±2 fill margin above.

use super::msm::Msm;
use crate::workspace::Workspace;

const INF: f64 = f64::INFINITY;

/// In-band index range `[lo, hi]` (1-based `i`) of diagonal `d`.
#[inline]
fn band_range(d: usize, m: usize, n: usize, band: usize) -> (usize, usize) {
    let lo = 1
        .max(d.saturating_sub(n))
        .max(d.saturating_sub(band).div_ceil(2));
    let hi = m.min(d - 1).min((d + band) / 2);
    (lo, hi)
}

/// An empty live window.
const DEAD: (usize, usize) = (usize::MAX, 0);

/// The live-window state shared by the pruned wavefronts: the live
/// windows (first/last index with value `< cutoff`; [`DEAD`] when empty)
/// of diagonals `d-1` and `d-2`, and the previous diagonal's computed
/// span.
struct LiveWindows {
    l1: (usize, usize),
    l2: (usize, usize),
    prev: (usize, usize),
}

impl LiveWindows {
    fn new(l1: (usize, usize), l2: (usize, usize)) -> Self {
        LiveWindows {
            l1,
            l2,
            prev: (0, 0),
        }
    }

    /// Two consecutive fully-dead diagonals: every warping path crosses
    /// at least one of them, so the distance is `>= cutoff`.
    #[inline]
    fn abandoned(&self) -> bool {
        self.l1.0 == usize::MAX && self.l2.0 == usize::MAX
    }

    /// The span `[clo, chi]` (empty when `clo > chi`) of the next
    /// diagonal's in-range cells `[blo, bhi]` that have a potentially-live
    /// predecessor: the diagonal move reaches `i` from `l2` at `i-1`, the
    /// top/left moves from `l1` at `i-1` / `i`. First INF-fills `row` (the
    /// next diagonal's buffer) wherever a future diagonal might read a
    /// stale value from three diagonals ago.
    #[inline]
    fn open(&mut self, blo: usize, bhi: usize, row: &mut [f64]) -> (usize, usize) {
        let (mut rlo, mut rhi) = DEAD;
        if self.l1.0 != usize::MAX {
            rlo = self.l1.0;
            rhi = self.l1.1 + 1;
        }
        if self.l2.0 != usize::MAX {
            rlo = rlo.min(self.l2.0 + 1);
            rhi = rhi.max(self.l2.1 + 1);
        }
        let clo = blo.max(rlo);
        let chi = bhi.min(rhi);
        let eff = if clo <= chi { (clo, chi) } else { self.prev };
        let fs_lo = eff.0.min(self.prev.0).saturating_sub(2);
        let fs_hi = (eff.1.max(self.prev.1) + 2).min(row.len() - 1);
        row[fs_lo..=fs_hi].fill(INF);
        self.prev = eff;
        (clo, chi)
    }

    /// Shifts in the live window of the diagonal just computed, whose
    /// computed cells `out` start at index `clo`. A separate pass keeps
    /// the DP loops branch-free.
    #[inline]
    fn close(&mut self, out: &[f64], clo: usize, cutoff: f64) {
        let mut live = DEAD;
        if let Some(f) = out.iter().position(|&v| v < cutoff) {
            // `rposition` cannot miss once `position` hit, but fall back
            // to `f` rather than panic.
            let l = out.iter().rposition(|&v| v < cutoff).unwrap_or(f);
            live = (clo + f, clo + l);
        }
        self.l2 = self.l1;
        self.l1 = live;
    }

    /// Whether index `i` of the last diagonal is in its live window.
    #[inline]
    fn live_at(&self, i: usize) -> bool {
        self.l1.0 <= i && i <= self.l1.1
    }
}

/// Anti-diagonal banded DTW with squared local costs: the vectorized
/// engine behind [`super::Dtw`]. Bit-identical to
/// [`super::dtw::dtw_banded_ws`] (same per-cell dataflow, different
/// schedule); `band` is the absolute Sakoe–Chiba radius.
pub fn dtw_wavefront_ws(x: &[f64], y: &[f64], band: usize, ws: &mut Workspace) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { INF };
    }
    // A band narrower than the length difference strands the corner:
    // the row-major kernel returns INF through all-dead rows.
    if m + band < n || n + band < m {
        return INF;
    }
    let (mut p2, mut p1, mut cur, yr) = ws.diag_scratch(m + 1, n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    for d in 2..=(m + n) {
        let (lo, hi) = band_range(d, m, n, band);
        let fill_hi = (hi + 1).min(m);
        cur[lo - 1..=fill_hi].fill(INF);
        if lo <= hi {
            let len = hi - lo + 1;
            let yb = n + lo - d;
            let xs = &x[lo - 1..lo - 1 + len];
            let ys = &yr[yb..yb + len];
            let pd = &p2[lo - 1..lo - 1 + len];
            let pt = &p1[lo - 1..lo - 1 + len];
            let pl = &p1[lo..lo + len];
            let out = &mut cur[lo..lo + len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "all six slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
                let diff = xs[k] - ys[k];
                let best = pd[k].min(pt[k]).min(pl[k]);
                out[k] = diff * diff + best;
            }
        }
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    p1[m]
}

/// Cutoff-pruned anti-diagonal DTW; the wavefront successor of the
/// row-major EAPruned kernel. Returns `(distance, dp_cells_computed)`
/// and honours the [`crate::measure::Distance::distance_upto`] contract
/// against [`dtw_wavefront_ws`]: bit-identical when the true distance is
/// `< cutoff`, otherwise `f64::INFINITY`. `cutoff` must be finite;
/// non-positive cutoffs abandon immediately.
pub fn dtw_wavefront_pruned(
    x: &[f64],
    y: &[f64],
    band: usize,
    cutoff: f64,
    ws: &mut Workspace,
) -> (f64, u64) {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return (if m == n { 0.0 } else { INF }, 0);
    }
    if cutoff.is_nan() || cutoff <= 0.0 {
        return (INF, 0);
    }
    if m + band < n || n + band < m {
        return (INF, 0);
    }
    let (mut p2, mut p1, mut cur, yr) = ws.diag_scratch(m + 1, n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    // Diagonal 0 holds only the live origin; diagonal 1 holds no cell.
    let mut lw = LiveWindows::new(DEAD, (0, 0));
    let mut cells = 0u64;

    for d in 2..=(m + n) {
        if lw.abandoned() {
            return (INF, cells);
        }
        let (blo, bhi) = band_range(d, m, n, band);
        let (clo, chi) = lw.open(blo, bhi, cur);
        let mut live: &[f64] = &[];
        if clo <= chi {
            let len = chi - clo + 1;
            let yb = n + clo - d;
            let xs = &x[clo - 1..clo - 1 + len];
            let ys = &yr[yb..yb + len];
            let pd = &p2[clo - 1..clo - 1 + len];
            let pt = &p1[clo - 1..clo - 1 + len];
            let pl = &p1[clo..clo + len];
            let out = &mut cur[clo..clo + len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "all six slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
                let diff = xs[k] - ys[k];
                let best = pd[k].min(pt[k]).min(pl[k]);
                out[k] = diff * diff + best;
            }
            cells += len as u64;
            live = out;
        }
        lw.close(live, clo, cutoff);
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    // The corner cell is exact iff it sits in the final live window.
    if lw.live_at(m) && p1[m] < cutoff {
        (p1[m], cells)
    } else {
        (INF, cells)
    }
}

/// Anti-diagonal WDTW (unbanded, logistic weights indexed by `|i - j|`):
/// the vectorized engine behind [`super::WeightedDtw`]. Bit-identical to
/// the row-major sweep; the per-diagonal weight gather
/// `wq[k] = weights[|2 i - d|]` is the only extra work.
pub fn wdtw_wavefront_ws(x: &[f64], y: &[f64], weights: &[f64], ws: &mut Workspace) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { INF };
    }
    let (mut p2, mut p1, mut cur, extra) = ws.diag_scratch(m + 1, n + m + 1);
    let (yr, wq) = extra.split_at_mut(n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    for d in 2..=(m + n) {
        let lo = 1.max(d.saturating_sub(n));
        let hi = m.min(d - 1);
        let fill_hi = (hi + 1).min(m);
        cur[lo - 1..=fill_hi].fill(INF);
        let len = hi - lo + 1;
        let yb = n + lo - d;
        let xs = &x[lo - 1..lo - 1 + len];
        let ys = &yr[yb..yb + len];
        let pd = &p2[lo - 1..lo - 1 + len];
        let pt = &p1[lo - 1..lo - 1 + len];
        let pl = &p1[lo..lo + len];
        let wk = &mut wq[..len];
        for k in 0..len {
            // tsdist-lint: allow(hot-path-bounds-check, reason = "weight gather over a pre-cut slice; the index is data-independent")
            wk[k] = weights[(2 * (lo + k)).abs_diff(d)];
        }
        let out = &mut cur[lo..lo + len];
        for k in 0..len {
            // tsdist-lint: allow(hot-path-bounds-check, reason = "all seven slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
            let diff = xs[k] - ys[k];
            let best = pd[k].min(pt[k]).min(pl[k]);
            out[k] = wk[k] * diff * diff + best;
        }
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    p1[m]
}

/// Cutoff-pruned anti-diagonal WDTW; same live-window machinery as
/// [`dtw_wavefront_pruned`] with the logistic weight folded into the
/// (still non-negative) local cost. Returns `(distance, cells)`.
pub fn wdtw_wavefront_pruned(
    x: &[f64],
    y: &[f64],
    weights: &[f64],
    cutoff: f64,
    ws: &mut Workspace,
) -> (f64, u64) {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return (if m == n { 0.0 } else { INF }, 0);
    }
    if cutoff.is_nan() || cutoff <= 0.0 {
        return (INF, 0);
    }
    let (mut p2, mut p1, mut cur, extra) = ws.diag_scratch(m + 1, n + m + 1);
    let (yr, wq) = extra.split_at_mut(n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    p2[0] = 0.0;

    let mut lw = LiveWindows::new(DEAD, (0, 0));
    let mut cells = 0u64;

    for d in 2..=(m + n) {
        if lw.abandoned() {
            return (INF, cells);
        }
        let blo = 1.max(d.saturating_sub(n));
        let bhi = m.min(d - 1);
        let (clo, chi) = lw.open(blo, bhi, cur);
        let mut live: &[f64] = &[];
        if clo <= chi {
            let len = chi - clo + 1;
            let yb = n + clo - d;
            let xs = &x[clo - 1..clo - 1 + len];
            let ys = &yr[yb..yb + len];
            let pd = &p2[clo - 1..clo - 1 + len];
            let pt = &p1[clo - 1..clo - 1 + len];
            let pl = &p1[clo..clo + len];
            let wk = &mut wq[..len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "weight gather over a pre-cut slice; the index is data-independent")
                wk[k] = weights[(2 * (clo + k)).abs_diff(d)];
            }
            let out = &mut cur[clo..clo + len];
            for k in 0..len {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "all seven slices are pre-cut to `len`, so the checks fold away and the loop vectorizes")
                let diff = xs[k] - ys[k];
                let best = pd[k].min(pt[k]).min(pl[k]);
                out[k] = wk[k] * diff * diff + best;
            }
            cells += len as u64;
            live = out;
        }
        lw.close(live, clo, cutoff);
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    if lw.live_at(m) && p1[m] < cutoff {
        (p1[m], cells)
    } else {
        (INF, cells)
    }
}

/// Anti-diagonal MSM: the vectorized engine behind [`super::Msm`].
/// Bit-identical to the row-major `Msm::distance` (same per-cell
/// dataflow, `move.min(split).min(merge)`, different schedule).
///
/// Unlike DTW there is no padded boundary row: diagonal `d` holds the
/// cells `(i, j = d - i)` of the `m x n` table indexed by `i`, the row-0
/// and column-0 split/merge chains are scalar boundary cells, and the
/// interior is one element-wise map over pre-cut slices of `x[i]`,
/// `x[i-1]`, `y[j]` and `y[j-1]` (the last two read forward from the
/// once-reversed `yr`: `y[d-i] = yr[n-1-d+i]`).
pub fn msm_wavefront_ws(msm: &Msm, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return if m == n { 0.0 } else { INF };
    }
    let (mut p2, mut p1, mut cur, yr) = ws.diag_scratch(m, n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }

    // Diagonal 0 is the single corner cell.
    p1[0] = (x[0] - y[0]).abs();
    for d in 1..=(m + n - 2) {
        // Row-0 cell (0, d) and column-0 cell (d, 0): one link of each
        // boundary chain per diagonal.
        if d < n {
            // tsdist-lint: allow(hot-path-bounds-check, reason = "O(1) boundary cells per diagonal; the interior loop runs over slices pre-cut to `len`, so its checks fold away and it vectorizes")
            cur[0] = p1[0] + msm.c(y[d], y[d - 1], x[0]);
        }
        if d < m {
            cur[d] = p1[d - 1] + msm.c(x[d], x[d - 1], y[0]);
        }
        let lo = 1.max(d.saturating_sub(n - 1));
        let hi = (m - 1).min(d - 1);
        if lo <= hi {
            msm_diagonal(msm, x, yr, p2, p1, cur, d, lo, hi);
        }
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    p1[m - 1]
}

/// The interior cells `lo..=hi` (all with `i >= 1`, `j >= 1`) of MSM
/// diagonal `d`: every input is pre-cut to the run length so the loop is
/// branch- and check-free.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn msm_diagonal(
    msm: &Msm,
    x: &[f64],
    yr: &[f64],
    p2: &[f64],
    p1: &[f64],
    cur: &mut [f64],
    d: usize,
    lo: usize,
    hi: usize,
) {
    let n = yr.len();
    let len = hi - lo + 1;
    let yb = n - 1 + lo - d;
    let xi = &x[lo..lo + len];
    let xp = &x[lo - 1..lo - 1 + len];
    let yj = &yr[yb..yb + len];
    let yp = &yr[yb + 1..yb + 1 + len];
    let pd = &p2[lo - 1..lo - 1 + len];
    let pt = &p1[lo - 1..lo - 1 + len];
    let pl = &p1[lo..lo + len];
    let out = &mut cur[lo..lo + len];
    for k in 0..len {
        let move_cost = pd[k] + (xi[k] - yj[k]).abs();
        let split_x = pt[k] + msm.c(xi[k], xp[k], yj[k]);
        let merge_y = pl[k] + msm.c(yj[k], xi[k], yp[k]);
        out[k] = move_cost.min(split_x).min(merge_y);
    }
}

/// Cutoff-pruned anti-diagonal MSM with the [`dtw_wavefront_pruned`]
/// live-window rule. Every MSM step cost is `>= 0` and its three moves
/// are DTW's (`(i-1, j-1)`, `(i-1, j)`, `(i, j-1)`), so "two consecutive
/// dead diagonals ⇒ distance ≥ cutoff" and the ±2 stale-scratch margin
/// carry over unchanged; the boundary chain cells join the computed
/// span only when their single predecessor is live. Returns
/// `(distance, dp_cells_computed)` under the
/// [`crate::measure::Distance::distance_upto`] contract against
/// [`msm_wavefront_ws`]. `cutoff` must not be NaN; non-positive cutoffs
/// abandon immediately.
pub fn msm_wavefront_pruned(
    msm: &Msm,
    x: &[f64],
    y: &[f64],
    cutoff: f64,
    ws: &mut Workspace,
) -> (f64, u64) {
    let m = x.len();
    let n = y.len();
    if m == 0 || n == 0 {
        return (if m == n { 0.0 } else { INF }, 0);
    }
    if cutoff.is_nan() || cutoff <= 0.0 {
        return (INF, 0);
    }
    let (mut p2, mut p1, mut cur, yr) = ws.diag_scratch(m, n);
    for (slot, &v) in yr.iter_mut().zip(y.iter().rev()) {
        *slot = v;
    }
    p2.fill(INF);
    p1.fill(INF);
    cur.fill(INF);
    p1[0] = (x[0] - y[0]).abs();

    // Diagonal 0 is the corner; the diagonal before it does not exist.
    let corner = if p1[0] < cutoff { (0, 0) } else { DEAD };
    let mut lw = LiveWindows::new(corner, DEAD);
    let mut cells = 1u64;

    for d in 1..=(m + n - 2) {
        if lw.abandoned() {
            return (INF, cells);
        }
        let blo = d.saturating_sub(n - 1);
        let bhi = (m - 1).min(d);
        let (clo, chi) = lw.open(blo, bhi, cur);
        let mut live: &[f64] = &[];
        if clo <= chi {
            // `clo == 0` implies `d < n` (row-0 cell), `chi == d` implies
            // `d < m` (column-0 cell); each has one, live, predecessor.
            if clo == 0 {
                // tsdist-lint: allow(hot-path-bounds-check, reason = "O(1) boundary cells per diagonal; the interior loop runs over slices pre-cut to `len`, so its checks fold away and it vectorizes")
                cur[0] = p1[0] + msm.c(y[d], y[d - 1], x[0]);
            }
            if chi == d {
                cur[d] = p1[d - 1] + msm.c(x[d], x[d - 1], y[0]);
            }
            let lo = clo.max(1);
            let hi = chi.min(d - 1);
            if lo <= hi {
                msm_diagonal(msm, x, yr, p2, p1, cur, d, lo, hi);
            }
            cells += (chi - clo + 1) as u64;
            live = &cur[clo..=chi];
        }
        lw.close(live, clo, cutoff);
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    // The corner cell is exact iff it sits in the final live window.
    if lw.live_at(m - 1) && p1[m - 1] < cutoff {
        (p1[m - 1], cells)
    } else {
        (INF, cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elastic::dtw::{dtw_banded_ws, WeightedDtw};
    use crate::measure::Distance;

    /// SplitMix64 noise, the repo's deterministic test generator.
    fn noise(seed: u64, len: usize) -> Vec<f64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 31;
                (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn wavefront_matches_row_major_bit_for_bit() {
        let mut ws_a = crate::workspace::Workspace::new();
        let mut ws_b = crate::workspace::Workspace::new();
        for (seed, m, n) in [
            (1u64, 1usize, 1usize),
            (2, 2, 2),
            (3, 7, 7),
            (4, 8, 8),
            (5, 9, 9),
            (6, 19, 19),
            (7, 33, 47),
            (8, 47, 33),
            (9, 64, 64),
            (10, 128, 100),
        ] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xDEAD, n);
            for band in [0usize, 1, 2, 3, 5, 7, 13, 26, 64, 200] {
                let a = dtw_banded_ws(&x, &y, band, &mut ws_a);
                let b = dtw_wavefront_ws(&x, &y, band, &mut ws_b);
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "m={m} n={n} band={band}: row-major {a} vs wavefront {b}"
                );
            }
        }
    }

    #[test]
    fn pruned_wavefront_honours_the_upto_contract() {
        let mut ws = crate::workspace::Workspace::new();
        for (seed, m, n) in [(11u64, 19usize, 19usize), (12, 33, 41), (13, 64, 64)] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xBEEF, n);
            for band in [0usize, 3, 7, 26, 100] {
                let exact = dtw_wavefront_ws(&x, &y, band, &mut ws);
                if !exact.is_finite() {
                    continue;
                }
                for factor in [0.25, 0.5, 0.999, 1.001, 2.0, 10.0] {
                    let cutoff = exact * factor;
                    let (got, _) = dtw_wavefront_pruned(&x, &y, band, cutoff, &mut ws);
                    if exact < cutoff {
                        assert_eq!(
                            got.to_bits(),
                            exact.to_bits(),
                            "band={band} factor={factor}: below-cutoff result must be exact"
                        );
                    } else {
                        assert!(
                            got >= cutoff,
                            "band={band} factor={factor}: got {got} < cutoff {cutoff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_wavefront_computes_fewer_cells_under_a_tight_cutoff() {
        let mut ws = crate::workspace::Workspace::new();
        let x = noise(21, 128);
        let y = noise(22, 128);
        let band = 32;
        let exact = dtw_wavefront_ws(&x, &y, band, &mut ws);
        let (_, loose) = dtw_wavefront_pruned(&x, &y, band, exact * 4.0, &mut ws);
        let (got, tight) = dtw_wavefront_pruned(&x, &y, band, exact * 1.01, &mut ws);
        assert_eq!(got.to_bits(), exact.to_bits());
        assert!(
            tight <= loose,
            "tighter cutoff computed more cells: {tight} > {loose}"
        );
    }

    #[test]
    fn wdtw_wavefront_matches_row_major_bit_for_bit() {
        let mut ws = crate::workspace::Workspace::new();
        for (seed, m, n) in [
            (31u64, 1usize, 1usize),
            (32, 7, 9),
            (33, 19, 19),
            (34, 33, 47),
            (35, 64, 64),
        ] {
            let x = noise(seed, m);
            let y = noise(seed ^ 0xF00D, n);
            for g in [0.01, 0.05, 0.5] {
                let wdtw = WeightedDtw::new(g);
                let a = wdtw.distance(&x, &y);
                let half = m.max(n) as f64 / 2.0;
                let weights: Vec<f64> = (0..m.max(n))
                    .map(|k| 1.0 / (1.0 + (-g * (k as f64 - half)).exp()))
                    .collect();
                let b = wdtw_wavefront_ws(&x, &y, &weights, &mut ws);
                assert_eq!(a.to_bits(), b.to_bits(), "g={g} m={m} n={n}");
                let exact = a;
                let (below, _) = wdtw_wavefront_pruned(&x, &y, &weights, exact * 2.0, &mut ws);
                assert_eq!(below.to_bits(), exact.to_bits());
                if exact > 0.0 {
                    let (above, _) = wdtw_wavefront_pruned(&x, &y, &weights, exact * 0.5, &mut ws);
                    assert!(above >= exact * 0.5);
                }
            }
        }
    }

    #[test]
    fn msm_pruned_wavefront_computes_fewer_cells_under_a_tight_cutoff() {
        let mut ws = crate::workspace::Workspace::new();
        let x = noise(65, 128);
        let y = noise(66, 128);
        let msm = Msm::new(0.5);
        let exact = msm_wavefront_ws(&msm, &x, &y, &mut ws);
        let (_, loose) = msm_wavefront_pruned(&msm, &x, &y, exact * 4.0, &mut ws);
        let (got, tight) = msm_wavefront_pruned(&msm, &x, &y, exact * 1.01, &mut ws);
        assert_eq!(got.to_bits(), exact.to_bits());
        assert!(
            tight < loose,
            "tight cutoff computed {tight} cells, loose {loose}"
        );
        let (dead, early) = msm_wavefront_pruned(&msm, &x, &y, exact * 0.1, &mut ws);
        assert_eq!(dead, INF);
        assert!(
            early < tight,
            "a dead cutoff abandons early: {early} vs {tight}"
        );
    }

    #[test]
    fn degenerate_inputs_match_row_major() {
        let mut ws = crate::workspace::Workspace::new();
        assert_eq!(dtw_wavefront_ws(&[], &[], 5, &mut ws), 0.0);
        assert_eq!(dtw_wavefront_ws(&[1.0], &[], 5, &mut ws), INF);
        assert_eq!(dtw_wavefront_ws(&[], &[1.0], 5, &mut ws), INF);
        // Band narrower than the length difference: INF both ways.
        let x = noise(41, 10);
        let y = noise(42, 30);
        assert_eq!(
            dtw_wavefront_ws(&x, &y, 3, &mut ws).to_bits(),
            dtw_banded_ws(&x, &y, 3, &mut ws).to_bits()
        );
        assert_eq!(dtw_wavefront_pruned(&x, &y, 3, 1.0, &mut ws).0, INF);
    }
}
