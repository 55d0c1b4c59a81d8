//! Wall-clock calibration of the virtual [`CostModel`].
//!
//! The serving layer's saturation and shed curves are driven by a *virtual*
//! cost model so they stay bit-reproducible. That model is only honest if
//! its unit charges track real hardware: this module measures actual
//! per-batch guard-stack nanoseconds over the standard workload and fits
//!
//! ```text
//! batch_ns ≈ overhead_ns + hit_ns · hits + miss_ns · misses
//! ```
//!
//! by ordinary least squares (3×3 normal equations, solved exactly by
//! Cramer's rule), then rescales the fit into [`CostModel`] units with one
//! cache hit's nanoseconds as the unit. The meter charges every evaluated
//! request `cost_miss` units, hit or miss, so `hit_ns` is reported but
//! priced nowhere. The residual error is reported so a
//! calibration that fits badly (noisy machine, degenerate sample) is
//! visible instead of silently trusted.
//!
//! Measurements are wall-clock and therefore *not* deterministic — the
//! fitted constants are an input an operator reviews and pins in
//! configuration, not something experiments derive on the fly.

use std::time::Instant;

use apdm_guards::GuardContext;
use apdm_policy::Action;
use serde::{Deserialize, Serialize};

use crate::batcher::CostModel;
use crate::workload::{standard_stacks, WorkloadGen, WorkloadOracle, WorkloadSpec};

/// Batch sizes cycled through while sampling (mixed sizes keep the design
/// matrix well-conditioned: overhead separates from per-request cost).
const BATCH_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// One fitted calibration. All `*_ns` fields are wall-clock derived.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Measured `(hits, misses, ns)` batches that entered the fit.
    pub samples: usize,
    /// Fitted fixed dispatch overhead per batch, in nanoseconds.
    pub overhead_ns: f64,
    /// Fitted cost of one verdict-cache hit, in nanoseconds.
    pub hit_ns: f64,
    /// Fitted cost of one full evaluation (cache miss), in nanoseconds.
    pub miss_ns: f64,
    /// Root-mean-square residual of the fit, in nanoseconds per batch.
    pub residual_rms_ns: f64,
    /// `residual_rms_ns` relative to the mean measured batch time.
    pub residual_rel: f64,
    /// The tick budget the capacity was derived from, in nanoseconds.
    pub tick_budget_ns: u64,
    /// The fitted model in [`CostModel`] units (one cache hit = 1 unit).
    pub fitted: CostModel,
}

/// Solve the 3×3 system `m · x = v` by Cramer's rule. `None` when the
/// matrix is (numerically) singular.
fn solve3(m: [[f64; 3]; 3], v: [f64; 3]) -> Option<[f64; 3]> {
    let det = |a: [[f64; 3]; 3]| -> f64 {
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    };
    let d = det(m);
    if d.abs() < 1e-9 {
        return None;
    }
    let mut out = [0.0; 3];
    for (col, slot) in out.iter_mut().enumerate() {
        let mut mc = m;
        for row in 0..3 {
            mc[row][col] = v[row];
        }
        *slot = det(mc) / d;
    }
    Some(out)
}

/// Measure per-batch guard-stack nanoseconds over the standard workload
/// and fit the cost model. `rounds` cycles of `BATCH_SIZES` are sampled
/// twice each — the first pass is miss-heavy, the replay hit-heavy — so
/// the fit sees both regimes. `tick_budget_ns` is the wall-clock budget
/// one service tick is meant to absorb (it sets `capacity_per_tick`).
pub fn run_calibration(seed: u64, rounds: usize, tick_budget_ns: u64) -> CalibrationReport {
    let mut stack = standard_stacks(1, true).pop().expect("one stack");
    let mut gen = WorkloadGen::new(WorkloadSpec {
        seed,
        per_tick: 32,
        arrival_ticks: u64::MAX / 2,
        ..WorkloadSpec::default()
    });
    let oracle = WorkloadOracle;
    let mut samples: Vec<(f64, f64, f64)> = Vec::new();
    let mut now = 0u64;
    for _ in 0..rounds.max(1) {
        for &size in &BATCH_SIZES {
            now += 1;
            let batch: Vec<_> = gen.tick_requests(now).into_iter().take(size).collect();
            // Two passes over the identical batch: cold (miss-heavy) then
            // warm (hit-heavy). Both are timed and fitted.
            for _pass in 0..2 {
                let before = stack.cache_stats().expect("calibration stack is cached");
                let started = Instant::now();
                for req in &batch {
                    let subject = format!("d{}", req.device);
                    let alternatives: Vec<&Action> = req.alternatives.iter().collect();
                    let ctx = GuardContext {
                        tick: now,
                        subject: &subject,
                        state: &req.state,
                        alternatives: &alternatives,
                        world_token: 0,
                    };
                    let _ = stack.check(&ctx, &req.proposed, oracle);
                }
                let ns = started.elapsed().as_nanos() as f64;
                let after = stack.cache_stats().expect("calibration stack is cached");
                samples.push(((after.0 - before.0) as f64, (after.1 - before.1) as f64, ns));
            }
        }
    }
    // Normal equations for rows [1, hits, misses] against measured ns.
    let mut ata = [[0.0f64; 3]; 3];
    let mut aty = [0.0f64; 3];
    for &(h, m, y) in &samples {
        let row = [1.0, h, m];
        for i in 0..3 {
            for j in 0..3 {
                ata[i][j] += row[i] * row[j];
            }
            aty[i] += row[i] * y;
        }
    }
    let (overhead_ns, hit_ns, miss_ns) = match solve3(ata, aty) {
        Some([o, h, m]) => (o, h, m),
        None => {
            // Degenerate sample (e.g. no hits ever): charge everything to
            // misses and split the conventional 2:1 miss:hit ratio.
            let total_ns: f64 = samples.iter().map(|s| s.2).sum();
            let total_misses: f64 = samples.iter().map(|s| s.1).sum::<f64>().max(1.0);
            let m = total_ns / total_misses;
            (0.0, m / 2.0, m)
        }
    };
    let mean_ns = samples.iter().map(|s| s.2).sum::<f64>() / samples.len().max(1) as f64;
    let residual_sq: f64 = samples
        .iter()
        .map(|&(h, m, y)| {
            let fit = overhead_ns + hit_ns * h + miss_ns * m;
            (y - fit) * (y - fit)
        })
        .sum();
    let residual_rms_ns = (residual_sq / samples.len().max(1) as f64).sqrt();

    // Rescale to CostModel units: one cache hit = 1 unit. Clamp the unit
    // away from zero so a noisy fit cannot produce a divide-by-zero or a
    // zero-capacity model.
    let unit_ns = if hit_ns > 1.0 {
        hit_ns
    } else {
        miss_ns.max(2.0) / 2.0
    };
    let to_units = |ns: f64| -> u64 { (ns / unit_ns).round().max(0.0) as u64 };
    let fitted = CostModel {
        capacity_per_tick: to_units(tick_budget_ns as f64).max(1),
        batch_overhead: to_units(overhead_ns),
        cost_miss: to_units(miss_ns).max(1),
    };
    CalibrationReport {
        samples: samples.len(),
        overhead_ns,
        hit_ns,
        miss_ns,
        residual_rms_ns,
        residual_rel: if mean_ns > 0.0 {
            residual_rms_ns / mean_ns
        } else {
            0.0
        },
        tick_budget_ns,
        fitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve3_inverts_a_known_system() {
        // x = 2, y = -1, z = 3.
        let m = [[1.0, 1.0, 1.0], [2.0, 0.0, 1.0], [0.0, 1.0, 2.0]];
        let v = [4.0, 7.0, 5.0];
        let x = solve3(m, v).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-9, "{x:?}");
        assert!((x[2] - 3.0).abs() < 1e-9, "{x:?}");
        assert!(solve3([[0.0; 3]; 3], [1.0; 3]).is_none());
    }

    #[test]
    fn calibration_fits_a_sane_positive_model() {
        let report = run_calibration(42, 4, 1_000_000);
        assert!(report.samples >= BATCH_SIZES.len() * 2);
        // Wall-clock magnitudes vary wildly across machines; the shape
        // must not: everything is finite, and the fitted model is usable.
        assert!(report.miss_ns.is_finite() && report.hit_ns.is_finite());
        assert!(report.fitted.cost_miss >= 1);
        assert!(report.fitted.capacity_per_tick >= 1);
        assert!(report.residual_rms_ns.is_finite());
    }
}
