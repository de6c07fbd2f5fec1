//! The efficient batching scheme (Section VI of the paper).
//!
//! The result set `R` (all ε-neighbor pairs) can exceed GPU global memory,
//! so the neighbor table is computed in `n_b` batches, each filling a
//! bounded device buffer of `b_b` items that is sorted, shipped to the
//! host, and copied into the table builder. The scheme must (i) never
//! overflow `b_b` — a real kernel would corrupt memory — while (ii)
//! keeping `n_b` minimal, because every extra batch is another transfer
//! on the slow host-GPU link, and (iii) not over-allocating pinned staging
//! memory.
//!
//! Mechanics, exactly as published:
//!
//! * Estimate the total result size `a_b` from the counting kernel's
//!   exact neighbor count `e_b` over a sample fraction `f = 0.01`. (The
//!   paper writes `a_b = e_b / f`; since the kernel samples at
//!   `stride = round(1/f)`, we scale by the *realized* sample size —
//!   `a_b = e_b · |D| / ceil(|D|/stride)` — which is unbiased even when
//!   `1/f` is non-integral or the stride does not divide `|D|`.)
//! * Overestimate by `α = 0.05`:  `n_b = ceil((1 + α) · a_b / b_b)`
//!   (Equation 1).
//! * Assign points to batches by *stride*: batch `l` processes points
//!   `{g · n_b + l}` of the spatially sorted database (Figure 2), so every
//!   batch is a uniform spatial sample and the `|R_l|` stay consistent —
//!   this is what lets a single global `α` be small.
//! * Buffer sizing: when the estimate is large (`≥ 3·10⁸` pairs) use a
//!   static `b_b = 10⁸`; when small, size the three per-stream buffers
//!   directly from the estimate with a doubled α
//!   (`b_b = a_b(1 + 2α) / n_streams`), since pinned allocation time would
//!   otherwise dominate small workloads. (The paper words the threshold in
//!   terms of `e_b`; dimensional consistency with `b_b` requires the
//!   *scaled* estimate, which is what we use.)

use serde::{Deserialize, Serialize};

/// Tunables of the batching scheme, with the paper's published defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Overestimation factor α (paper: 0.05).
    pub alpha: f64,
    /// Sample fraction f for the estimation kernel (paper: 0.01).
    pub sample_fraction: f64,
    /// Estimated-total threshold above which the static buffer size is
    /// used (paper: 3·10⁸ pairs).
    pub static_threshold: u64,
    /// The static per-stream buffer size in pairs (paper: 10⁸).
    pub static_buffer_items: usize,
    /// Number of CUDA streams / per-stream buffers (paper: 3).
    pub n_streams: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            alpha: 0.05,
            sample_fraction: 0.01,
            static_threshold: 300_000_000,
            static_buffer_items: 100_000_000,
            n_streams: 3,
        }
    }
}

/// The concrete plan derived from an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// `n_b`: number of batches.
    pub n_batches: usize,
    /// `b_b`: per-stream device buffer capacity in pairs.
    pub buffer_items: usize,
    /// `a_b`: the estimated total result size.
    pub estimated_total: u64,
    /// The α actually applied (doubled for small estimates).
    pub effective_alpha: f64,
    /// Whether the variable (estimate-derived) buffer sizing was used.
    pub variable_buffer: bool,
}

impl BatchConfig {
    /// Minimum number of points the estimation kernel samples (when the
    /// database has that many). At the paper's `f = 0.01` a database of a
    /// few thousand points would otherwise be estimated from a handful of
    /// neighborhoods — or just one — and a single unlucky sample point
    /// yields buffers smaller than a single neighborhood, which no amount
    /// of batch-splitting can recover from.
    pub const MIN_SAMPLE: usize = 32;

    /// Sampling stride implied by the sample fraction alone:
    /// `round(1/f)`, the paper's setting.
    pub fn stride(&self) -> usize {
        (1.0 / self.sample_fraction).round().max(1.0) as usize
    }

    /// Sampling stride of the estimation kernel for a database of
    /// `n_points`: thread `g` counts the neighbors of point `g · stride`.
    /// This is `round(1/f)`, clamped so the realized sample keeps at
    /// least [`Self::MIN_SAMPLE`] points (all of them, for databases
    /// smaller than that). Every consumer of the sample (the kernel
    /// launch and the estimate scaling) must use this same stride.
    pub fn stride_for(&self, n_points: usize) -> usize {
        self.stride().min((n_points / Self::MIN_SAMPLE).max(1))
    }

    /// Number of points the estimation kernel actually samples for a
    /// database of `n_points`: `ceil(n / stride)`.
    pub fn sample_size(&self, n_points: usize) -> usize {
        n_points.div_ceil(self.stride_for(n_points)).max(1)
    }

    /// Scale the counting kernel's sample count `e_b` to the total
    /// estimate `a_b`.
    ///
    /// The paper writes `a_b = e_b / f`, but the kernel samples at
    /// `stride = round(1/f)` and covers `ceil(n / stride)` points, so for
    /// `f` where `1/f` is non-integral (or `n mod stride != 0`) the
    /// *realized* fraction differs from `f` and dividing by `f` would bias
    /// `a_b` systematically. Scaling by the realized sample size —
    /// `a_b = e_b · n / sample_size` — is unbiased for every `f` and `n`.
    pub fn estimate_total(&self, e_b: u64, n_points: usize) -> u64 {
        let sample = self.sample_size(n_points);
        (e_b as f64 * n_points as f64 / sample as f64).ceil() as u64
    }

    /// Build the batch plan for sample count `e_b` over a database of
    /// `n_points` (Equation 1).
    pub fn plan(&self, e_b: u64, n_points: usize) -> BatchPlan {
        let a_b = self.estimate_total(e_b, n_points).max(1);

        let (buffer_items, effective_alpha, variable) = if a_b >= self.static_threshold {
            (self.static_buffer_items, self.alpha, false)
        } else {
            // Small estimate: α doubles ("the total result set size
            // estimate is more uncertain and there is more variability in
            // |R_l| between batches") and the buffers are sized to finish
            // in one round of the streams.
            let alpha2 = 2.0 * self.alpha;
            let bb = ((a_b as f64 * (1.0 + alpha2)) / self.n_streams as f64).ceil() as usize;
            (bb.max(1), alpha2, true)
        };

        // Equation 1: n_b = ceil((1 + α) a_b / b_b).
        let n_batches =
            (((1.0 + effective_alpha) * a_b as f64) / buffer_items as f64).ceil() as usize;

        BatchPlan {
            n_batches: n_batches.max(1),
            buffer_items,
            estimated_total: a_b,
            effective_alpha,
            variable_buffer: variable,
        }
    }
}

impl BatchPlan {
    /// Expected result size of one batch under the uniform-stride
    /// assumption.
    pub fn expected_batch_size(&self) -> usize {
        (self.estimated_total as f64 / self.n_batches as f64).ceil() as usize
    }

    /// Shrink the plan so that `n_buffers` device buffers of `b_b` pairs
    /// (at `pair_bytes` each) fit in `available_bytes`, increasing
    /// `n_batches` to compensate. Returns `None` if even a minimal buffer
    /// cannot fit. This is a robustness extension beyond the paper (which
    /// assumes the static size always fits).
    pub fn fit_to_memory(
        mut self,
        available_bytes: usize,
        pair_bytes: usize,
        n_buffers: usize,
    ) -> Option<BatchPlan> {
        let max_items = available_bytes / pair_bytes.max(1) / n_buffers.max(1);
        if max_items == 0 {
            return None;
        }
        if self.buffer_items > max_items {
            self.buffer_items = max_items;
            self.n_batches = (((1.0 + self.effective_alpha) * self.estimated_total as f64)
                / self.buffer_items as f64)
                .ceil() as usize;
        }
        Some(self)
    }

    /// Double the batch count — the overflow-recovery fallback. (With the
    /// published α the estimate would have to be off by >5% for this to
    /// trigger; adversarial tests exercise it.)
    pub fn with_doubled_batches(mut self) -> BatchPlan {
        self.n_batches *= 2;
        self
    }

    /// Replan from an *exact* total result size (known after an
    /// overflowed pass counted every append attempt), keeping the buffer
    /// size and applying Equation 1 with `margin` as the α. Unlike
    /// [`Self::with_doubled_batches`] this converges to the minimal batch
    /// count for the true `|R|`, so the executed `n_b` stays monotone in
    /// the configured α instead of overshooting by powers of two.
    pub fn replan_for_total(mut self, exact_total: u64, margin: f64) -> BatchPlan {
        self.estimated_total = exact_total.max(1);
        self.effective_alpha = margin;
        self.n_batches = (((1.0 + margin) * self.estimated_total as f64) / self.buffer_items as f64)
            .ceil()
            .max(1.0) as usize;
        self
    }
}

/// The strided point→batch assignment of Figure 2: point `i` belongs to
/// batch `i mod n_b`.
#[inline]
pub fn batch_of(point_id: usize, n_batches: usize) -> usize {
    point_id % n_batches
}

/// The points of batch `l`: `{g · n_b + l | g = 0, 1, …}` (Figure 2's
/// x-axis labels, zero-indexed).
pub fn batch_points(
    n_points: usize,
    n_batches: usize,
    batch: usize,
) -> impl Iterator<Item = usize> {
    (batch..n_points).step_by(n_batches.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_1_exact() {
        // a_b = 1000, bb = 100, alpha = 0.05 -> nb = ceil(1050/100) = 11.
        let cfg = BatchConfig {
            alpha: 0.05,
            sample_fraction: 1.0, // stride 1: e_b is already the total
            static_threshold: 0,  // force the static path
            static_buffer_items: 100,
            n_streams: 3,
        };
        let plan = cfg.plan(1000, 5000);
        assert_eq!(plan.n_batches, 11);
        assert_eq!(plan.buffer_items, 100);
        assert_eq!(plan.effective_alpha, 0.05);
        assert!(!plan.variable_buffer);
    }

    #[test]
    fn small_estimates_use_three_variable_buffers() {
        let cfg = BatchConfig::default();
        // e_b = 1000 at f = 0.01 over n = 100_000 (stride 100, sample
        // 1000) -> a_b = 1000 * 100_000 / 1000 = 100_000, far below 3e8.
        let plan = cfg.plan(1000, 100_000);
        assert!(plan.variable_buffer);
        assert_eq!(plan.effective_alpha, 0.10);
        assert_eq!(plan.estimated_total, 100_000);
        // bb = 100_000 * 1.1 / 3 = 36_667; nb = ceil(1.1*1e5/36667) = 3.
        assert_eq!(plan.buffer_items, 36_667);
        assert_eq!(plan.n_batches, 3, "small runs finish in one stream round");
    }

    #[test]
    fn large_estimates_use_static_buffer() {
        let cfg = BatchConfig::default();
        // e_b = 5e6 at f = 0.01 over n = 1e6 -> a_b = 5e8 >= 3e8.
        let plan = cfg.plan(5_000_000, 1_000_000);
        assert!(!plan.variable_buffer);
        assert_eq!(plan.buffer_items, 100_000_000);
        // nb = ceil(1.05 * 5e8 / 1e8) = 6.
        assert_eq!(plan.n_batches, 6);
    }

    #[test]
    fn estimate_scales_by_realized_sample_size() {
        // f = 0.03: 1/f = 33.33 is non-integral, so the kernel's stride is
        // round(1/f) = 33 and the realized fraction differs from f. The
        // estimate must scale by the realized sample, not by 1/f.
        let cfg = BatchConfig {
            sample_fraction: 0.03,
            ..BatchConfig::default()
        };
        assert_eq!(cfg.stride(), 33);
        let n = 10_000;
        assert_eq!(cfg.stride_for(n), 33); // no MIN_SAMPLE clamp at this n
        assert_eq!(cfg.sample_size(n), 304); // ceil(10_000/33)
        let e_b = 304u64;
        // Unbiased: e_b * n / sample = 304 * 10_000 / 304 = 10_000.
        assert_eq!(cfg.estimate_total(e_b, n), 10_000);
        // The naive paper formula e_b / f would overestimate by the
        // stride-rounding bias (~1.3% here): ceil(304 / 0.03) = 10_134.
        let naive = (e_b as f64 / cfg.sample_fraction).ceil() as u64;
        assert_eq!(naive, 10_134);
        assert!(naive > cfg.estimate_total(e_b, n));
        // And the plan consumes the unbiased value.
        assert_eq!(cfg.plan(e_b, n).estimated_total, 10_000);
    }

    #[test]
    fn estimate_unbiased_when_stride_does_not_divide_n() {
        // Even with 1/f integral, n % stride != 0 inflates the realized
        // fraction: n = 10_050 at stride 100 samples 101 points, not
        // 100.5.
        let cfg = BatchConfig::default(); // f = 0.01
        let n = 10_050;
        assert_eq!(cfg.stride_for(n), 100);
        assert_eq!(cfg.sample_size(n), 101);
        // e_b * 10_050 / 101, not e_b * 100.
        assert_eq!(cfg.estimate_total(1010, n), 100_500);
        assert_eq!(cfg.estimate_total(101, n), 10_050);
    }

    #[test]
    fn small_databases_sample_everything() {
        // Below MIN_SAMPLE · stride points, the f-derived stride would
        // estimate from almost nothing; the clamp keeps the realized
        // sample at MIN_SAMPLE points, down to "all of them" for tiny
        // databases — where an exact estimate is effectively free.
        let cfg = BatchConfig::default(); // f = 0.01, stride 100
        assert_eq!(cfg.stride_for(60), 1);
        assert_eq!(cfg.sample_size(60), 60); // exhaustive: e_b is exact
        assert_eq!(cfg.estimate_total(777, 60), 777);
        assert_eq!(cfg.stride_for(2000), 62); // 2000/32
        assert_eq!(cfg.sample_size(2000), 33); // ceil(2000/62) >= MIN_SAMPLE
        assert!(cfg.sample_size(2000) >= BatchConfig::MIN_SAMPLE);
        // Large databases are unaffected.
        assert_eq!(cfg.stride_for(1_000_000), 100);
    }

    #[test]
    fn batch_buffers_always_cover_expected_size_with_margin() {
        let cfg = BatchConfig::default();
        for e_b in [1u64, 100, 10_000, 1_000_000, 50_000_000] {
            let plan = cfg.plan(e_b, 1_000_000);
            assert!(
                plan.expected_batch_size() <= plan.buffer_items,
                "e_b = {e_b}: expected {} > buffer {}",
                plan.expected_batch_size(),
                plan.buffer_items
            );
            // The α margin: buffer exceeds the expected size by ~alpha.
            let slack = plan.buffer_items as f64 / plan.expected_batch_size().max(1) as f64;
            assert!(slack >= 1.0, "slack {slack}");
        }
    }

    #[test]
    fn zero_estimate_still_plans_valid_batches() {
        let plan = BatchConfig::default().plan(0, 100);
        assert!(plan.n_batches >= 1);
        assert!(plan.buffer_items >= 1);
    }

    #[test]
    fn fit_to_memory_shrinks_buffers_and_grows_batches() {
        let cfg = BatchConfig::default();
        let plan = cfg.plan(5_000_000, 1_000_000); // static 1e8-item buffers
        let fitted = plan.fit_to_memory(240_000_000, 8, 3).unwrap();
        assert_eq!(fitted.buffer_items, 10_000_000);
        assert!(fitted.n_batches > plan.n_batches);
        // Impossible fit.
        assert!(plan.fit_to_memory(4, 8, 3).is_none());
    }

    #[test]
    fn fit_to_memory_no_change_when_already_fitting() {
        let cfg = BatchConfig::default();
        let plan = cfg.plan(1000, 100_000);
        let fitted = plan.fit_to_memory(usize::MAX, 8, 3).unwrap();
        assert_eq!(fitted, plan);
    }

    #[test]
    fn strided_assignment_matches_figure_2() {
        // Figure 2: n_b = 5; the first five points land in batches
        // 1..5 (1-indexed in the figure, 0..4 here), repeating.
        let nb = 5;
        for i in 0..20 {
            assert_eq!(batch_of(i, nb), i % 5);
        }
        let b0: Vec<usize> = batch_points(20, nb, 0).collect();
        assert_eq!(b0, vec![0, 5, 10, 15]);
        let b4: Vec<usize> = batch_points(20, nb, 4).collect();
        assert_eq!(b4, vec![4, 9, 14, 19]);
    }

    #[test]
    fn batch_points_partition_database() {
        let n = 103;
        let nb = 7;
        let mut seen = vec![false; n];
        for l in 0..nb {
            for i in batch_points(n, nb, l) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn doubled_batches_fallback() {
        let plan = BatchConfig::default().plan(1000, 100_000);
        let doubled = plan.with_doubled_batches();
        assert_eq!(doubled.n_batches, plan.n_batches * 2);
    }

    #[test]
    fn replan_for_total_applies_equation_1_to_the_exact_total() {
        let cfg = BatchConfig {
            alpha: 0.0,
            sample_fraction: 1.0,
            static_threshold: 0,
            static_buffer_items: 100,
            n_streams: 3,
        };
        // The estimate said 1000 pairs (10 batches); the pass counted
        // 2000. Replanning at 5% margin gives ceil(1.05*2000/100) = 21
        // batches — not the 20 → 40 a blind doubling would produce.
        let plan = cfg.plan(1000, 5000);
        assert_eq!(plan.n_batches, 10);
        let replanned = plan.replan_for_total(2000, 0.05);
        assert_eq!(replanned.n_batches, 21);
        assert_eq!(replanned.estimated_total, 2000);
        assert_eq!(replanned.effective_alpha, 0.05);
        assert_eq!(replanned.buffer_items, plan.buffer_items);
    }
}
