//! Differential oracle checker for the optimized simulator stack.
//!
//! PR 1 rewrote the cache/refresh hot path (packed 4-bit LRU words, u32
//! phase-quotient refresh scheduling, shift/mask line splits). This crate
//! guards that machinery with *differential testing*: a deliberately naive
//! reference model ([`oracle`]) — plain `Vec`s, divisions, per-line
//! deadlines, written for obviousness rather than speed — is run in
//! lockstep with the optimized `esteem-cache`/`esteem-edram` stack over
//! fuzzed configurations and access streams ([`fuzz`]), and every
//! observable is compared after every operation ([`lockstep`]):
//!
//! * per-access: hit/miss, hit LRU position, victim way identity,
//!   evicted-valid flag, write-back block address, bank/module/leader
//!   attribution;
//! * per-reconfiguration: write-back/discard/slot-transition counts;
//! * per-advance: refresh and invalidation counts, drained per-bank
//!   refresh windows, full line-state equality (valid/dirty/tag/retention
//!   clock), way masks, ATD counters, and the eq. 2–8 energy identities
//!   evaluated over both sides' counters;
//! * for L1-shaped cases, the L1 batch kernel the simulator runs
//!   (`access_batch_l1`) on a replica: per access, hit, hit position and
//!   write-back block address against the scalar path; per advance, the
//!   folded lifetime counters and occupancy; at the end, every line and
//!   LRU position.
//!
//! Any mismatch — or a panic out of the optimized stack, which the
//! `strict-invariants` feature makes far more likely by promoting internal
//! `debug_assert!`s to hard asserts — becomes a [`Divergence`]. The
//! [`minimize`] module shrinks the failing case to a short reproducer
//! (config + op list) which the `esteem-check` binary writes to
//! `results/repros/` as JSON; `esteem-check --replay FILE` re-runs one.
//!
//! The checker also differentially tests Algorithm 1 itself
//! ([`oracle_algorithm1`] vs `esteem_core::esteem::algorithm1_explain`)
//! over fuzzed hit histograms, pinning the documented contract that the
//! `A_min` floor always holds.

pub mod fuzz;
pub mod lockstep;
pub mod minimize;
pub mod oracle;
pub mod repro;

use serde::{Deserialize, Serialize};

/// One observed disagreement between the optimized stack and the oracle
/// (or a panic out of the optimized stack).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Index of the op at which the mismatch was detected (`ops.len()`
    /// for the post-run flush comparison).
    pub op_index: usize,
    /// The observable that disagreed (e.g. `"access.way"`, `"refreshes"`).
    pub field: String,
    /// Oracle's value, rendered.
    pub expected: String,
    /// Optimized stack's value, rendered.
    pub got: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op {}: {} diverged: oracle={} optimized={}",
            self.op_index, self.field, self.expected, self.got
        )
    }
}

/// Naive reference transcription of the paper's Algorithm 1, encoding the
/// documented contract directly: count non-monotone inversions above the
/// noise floor, pick the first alpha-coverage position, and clamp to a
/// floor that is `A_min` — raised to `A - 1` for non-LRU modules — so the
/// "minimum ways always kept on" guarantee of `A_min` holds
/// unconditionally.
pub fn oracle_algorithm1(hits: &[u64], alpha: f64, a_min: u8, non_lru_guard: bool) -> u8 {
    let a = hits.len() as u8;
    assert!((1..=64).contains(&a));
    let total: u64 = hits.iter().sum();
    let noise_floor = (total / 128).max(4);
    let mut anomalies = 0usize;
    for i in 0..hits.len() - 1 {
        if hits[i] < hits[i + 1] && hits[i + 1] >= noise_floor {
            anomalies += 1;
        }
    }
    let non_lru = non_lru_guard && anomalies >= hits.len() / 4;
    let floor = if non_lru { a_min.max(a - 1) } else { a_min };

    // First position whose accumulated hits reach alpha * total. Must use
    // the exact same float comparison as the optimized side, so identical
    // inputs take identical branches.
    let threshold = alpha * total as f64;
    let mut accumulated = 0u64;
    let mut chosen = a_min.max(1);
    for (i, &h) in hits.iter().enumerate() {
        accumulated += h;
        if accumulated as f64 >= threshold {
            chosen = (i + 1) as u8;
            break;
        }
    }
    chosen.max(floor).min(a).max(1)
}
