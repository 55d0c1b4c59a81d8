//! The benchmark's own seeded request streams.
//!
//! The service only ever sees the `DecisionRequest`s generated here; the
//! same seed always gives the same stream. Every round of a run replays
//! the identical stream against a fresh service, so the service's
//! deterministic counters must repeat exactly from round to round.

use apdm_policy::Action;
use apdm_serve::{schema, DecisionRequest, TenantId};
use apdm_statespace::{StateDelta, VarId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Upper edge of the guard stacks' good region (`x ∈ [0, 5]`).
const GOOD_MAX: f64 = 5.0;

/// The quantized states of the hot stream: five grid points, so
/// 5 states × 3 actions × {with, without} retreat = 30 guard contexts.
const STATE_GRID: [f64; 5] = [0.5, 1.5, 2.5, 3.5, 4.5];

/// How states are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum States {
    /// On [`STATE_GRID`]: the memo cache answers all but the first sight
    /// of each context.
    Grid,
    /// Uniform in `[0, 5)`: every fingerprint is new, the cache never hits.
    Continuous,
}

/// Requests offered per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// The same count every tick.
    Steady(usize),
    /// `burst` requests in the first `burst_ticks` ticks of every
    /// `period`, `base` otherwise.
    Bursts {
        base: usize,
        burst: usize,
        period: u64,
        burst_ticks: u64,
    },
}

impl Arrivals {
    fn at(&self, tick: u64) -> usize {
        match *self {
            Arrivals::Steady(n) => n,
            Arrivals::Bursts {
                base,
                burst,
                period,
                burst_ticks,
            } => {
                if (tick - 1) % period < burst_ticks {
                    burst
                } else {
                    base
                }
            }
        }
    }
}

/// Shape of one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    pub seed: u64,
    /// Ticks during which requests arrive.
    pub ticks: u64,
    pub arrivals: Arrivals,
    pub states: States,
    /// Device population; popularity is Zipf(`zipf`) over it.
    pub devices: u64,
    pub zipf: f64,
    pub tenants: u32,
    /// Ticks a request may wait before the service must shed it.
    pub deadline_slack: u64,
}

/// A generated stream: the requests arriving at tick `t` are
/// `ticks[t - 1]`, and request ids run `0..offered` in arrival order.
#[derive(Debug, Clone)]
pub struct Stream {
    pub ticks: Vec<Vec<DecisionRequest>>,
    pub offered: u64,
}

impl Stream {
    /// Every request, in id order.
    pub fn requests(&self) -> impl Iterator<Item = &DecisionRequest> {
        self.ticks.iter().flatten()
    }
}

/// Generate the stream for `spec`.
pub fn generate(spec: &StreamSpec) -> Stream {
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x57A1_1BE4_C400_0001);
    let schema = schema();
    let mut cdf: Vec<f64> = (1..=spec.devices)
        .scan(0.0, |total, rank| {
            *total += 1.0 / (rank as f64).powf(spec.zipf);
            Some(*total)
        })
        .collect();
    let total = *cdf.last().expect("at least one device");
    cdf.iter_mut().for_each(|c| *c /= total);

    let mut next_id = 0u64;
    let ticks = (1..=spec.ticks)
        .map(|tick| {
            (0..spec.arrivals.at(tick))
                .map(|_| {
                    let u: f64 = rng.random();
                    let rank = cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u64;
                    // A bijective scramble so the hottest device is not device 0.
                    let device = (rank * 7 + 5) % spec.devices;
                    let tenant = if rng.random_bool(0.5) {
                        TenantId(0)
                    } else {
                        TenantId(rng.random_range(0..spec.tenants))
                    };
                    let x = match spec.states {
                        States::Grid => STATE_GRID[rng.random_range(0..STATE_GRID.len())],
                        States::Continuous => rng.random_range(0.0..GOOD_MAX),
                    };
                    let roll = rng.random_range(0..10u32);
                    let proposed = if roll < 5 {
                        Action::adjust("patrol", StateDelta::empty())
                    } else if roll < 9 {
                        Action::adjust("east", StateDelta::single(VarId(0), 1.0))
                    } else {
                        Action::adjust("strike", StateDelta::empty())
                    };
                    let alternatives = if rng.random_bool(0.5) {
                        vec![Action::adjust("west", StateDelta::single(VarId(0), -1.0))]
                    } else {
                        Vec::new()
                    };
                    let id = next_id;
                    next_id += 1;
                    DecisionRequest {
                        id,
                        tenant,
                        device,
                        state: schema.state(&[x]).expect("state inside the schema"),
                        proposed,
                        alternatives,
                        submitted_at: tick,
                        deadline: Some(tick + spec.deadline_slack),
                        ctx: None,
                    }
                })
                .collect()
        })
        .collect();
    Stream {
        ticks,
        offered: next_id,
    }
}

/// The verdict the guard stacks must give `req`, derived from the
/// workload's rules rather than from the guard code: `strike` harms a
/// human and is denied; an `east` step past the good region is replaced
/// by the advertised `west` retreat, or denied when there is none;
/// everything else is allowed.
pub fn expected_verdict(req: &DecisionRequest) -> &'static str {
    let x = req.state.values()[0];
    match req.proposed.name() {
        "strike" => "deny",
        "east" if x + 1.0 > GOOD_MAX => {
            if req.alternatives.is_empty() {
                "deny"
            } else {
                "replace:west"
            }
        }
        _ => "allow",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> StreamSpec {
        StreamSpec {
            seed,
            ticks: 20,
            arrivals: Arrivals::Bursts {
                base: 3,
                burst: 9,
                period: 5,
                burst_ticks: 2,
            },
            states: States::Continuous,
            devices: 48,
            zipf: 0.6,
            tenants: 4,
            deadline_slack: 8,
        }
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let a = generate(&spec(7));
        assert_eq!(a.ticks, generate(&spec(7)).ticks);
        assert_ne!(a.ticks, generate(&spec(8)).ticks);
        assert_eq!(a.offered, 4 * (2 * 9 + 3 * 3));
        let ids: Vec<u64> = a.requests().map(|r| r.id).collect();
        assert_eq!(ids, (0..a.offered).collect::<Vec<u64>>());
    }
}
