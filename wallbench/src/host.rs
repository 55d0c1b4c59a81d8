//! The host-speed reference: a fixed kernel, independent of the program
//! under test, timed after every round so that the round's timings can be
//! scaled to a host of fixed speed.
//!
//! On a shared virtual machine the same code runs up to ~1.7× slower for
//! seconds to minutes at a time, as other guests load the physical cores,
//! so two sets of runs of the same program can disagree by more than any
//! useful regression bound. Dividing by a reference timed at the same
//! moment cancels most of that. The kernel mixes the two kinds of work
//! the decision service does: building, formatting, sorting and hashing
//! small JSON-like records (as ledger canonicalization and checkpoints do),
//! which slows the most under contention, and a dependent FNV-1a multiply
//! chain over their bytes (as the chain digest does), which slows only with
//! the clock.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::ns;

/// Kernel time, in ns, of the host every scaled figure is reported for:
/// about the kernel's time on an uncontended 2.0 GHz Xeon vCPU.
pub const NOMINAL_NS: f64 = 20e6;

/// Records built, sorted and hashed per pass.
const RECORDS: u64 = 2000;
/// Passes of record building per kernel run.
const PASSES: u64 = 12;
/// FNV-1a sweeps over the last pass's bytes per kernel run.
const SWEEPS: u64 = 64;

/// Time one run of the reference kernel, in ns.
pub fn reference_ns() -> u64 {
    let t0 = Instant::now();
    let mut acc = 0u64;
    let mut bytes = String::new();
    for pass in 0..PASSES {
        let mut records: Vec<String> = (0..RECORDS)
            .map(|i| {
                let mut r = String::new();
                let _ = write!(
                    r,
                    r#"{{"seq":{},"device":"d{:x}","score":{:.3}}}"#,
                    i ^ pass,
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    (i as f64) / 7.0
                );
                r
            })
            .collect();
        records.sort();
        let mut h = DefaultHasher::new();
        records.hash(&mut h);
        acc ^= h.finish();
        if pass + 1 == PASSES {
            bytes = records.concat();
        }
    }
    for _ in 0..SWEEPS {
        let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ acc;
        for &b in bytes.as_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        acc = hash;
    }
    black_box(acc);
    ns(t0, Instant::now())
}

/// The host's speed relative to the nominal host, from one kernel run:
/// above 1 when the host is faster. Multiply a time by it, or divide a
/// rate by it, to scale the figure to the nominal host.
pub fn speed() -> f64 {
    NOMINAL_NS / reference_ns().max(1) as f64
}
