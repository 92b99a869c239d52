//! Runs a fuzzed case through the optimized stack and the oracle in
//! lockstep, comparing every observable.
//!
//! The harness drives `SetAssocCache` + `RefreshEngine` exactly the way
//! `esteem_core::System` does: demand accesses are reported to the refresh
//! engine via `on_access`, reconfigurations go through
//! `set_module_active_ways` (turned-off lines are *not* unscheduled — the
//! engine notices the shrink at its next advance, matching the simulator),
//! and the engine is advanced to the current cycle at every `Advance` op.
//! After each advance the *entire* observable state is compared: line
//! states (with the retention clock read from
//! [`RefreshEngine::last_restore`]), every lifetime counter, the ATD
//! histograms, the drained per-bank refresh windows, and the eq. 2–8
//! energy identities evaluated over both sides' counters. A panic out of
//! the optimized stack (e.g. a promoted `strict-invariants` assert) is
//! caught and reported as a divergence at the op that raised it, so it
//! minimizes like any mismatch.
//!
//! Every case whose fresh cache has the L1 shape
//! ([`SetAssocCache::supports_l1_batch`]: one module, one bank, no leader
//! sampling, no retention clock, at most 16 ways) is also replayed
//! through [`SetAssocCache::access_batch_l1`], the kernel every simulated
//! bundle goes through, on an independent replica cache (`L1Replica`).
//! Accesses buffer between `Advance` ops and flush as one block (the way
//! the simulator's front end feeds its refill blocks). Each record is
//! compared against the scalar path's outcome (hit, hit position,
//! write-back block address); at every flush the lifetime counters folded
//! with [`SetAssocCache::apply_rec_stats`] and the occupancy must match,
//! and the end of the case sweeps every line and LRU position. The
//! simulator never reconfigures an L1, so a `Reconfig` op ends the
//! replica's coverage: it flushes, sweeps and retires. A kernel bug
//! therefore minimizes to a repro exactly like an oracle mismatch.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};

use esteem_cache::{encode_l1_access, AccessOutcome, CacheGeometry, L1Rec, SetAssocCache};
use esteem_edram::{RefreshEngine, RefreshPolicy, RetentionSpec};
use esteem_energy::{EnergyBreakdown, EnergyInputs, EnergyParams};

use crate::fuzz::{Case, Op};
use crate::oracle::{CaseConfig, CheckPolicy, OracleModel};
use crate::Divergence;

thread_local! {
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Replaces the process panic hook with one that records the message
/// (with location) for [`run_case`] instead of printing a backtrace. Call
/// once before a fuzzing loop; without it every strict-invariant panic
/// spams stderr while being converted into a [`Divergence`] anyway.
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        let msg = info.to_string();
        LAST_PANIC.with(|c| *c.borrow_mut() = Some(msg));
    }));
}

/// Translates the fuzzer's policy tag into the optimized stack's enum.
pub fn to_refresh_policy(policy: CheckPolicy, phases: u8) -> RefreshPolicy {
    match policy {
        CheckPolicy::PeriodicAll => RefreshPolicy::PeriodicAll,
        CheckPolicy::PeriodicValid => RefreshPolicy::PeriodicValid,
        CheckPolicy::PolyphaseValid => RefreshPolicy::PolyphaseValid { phases },
        CheckPolicy::PolyphaseDirty => RefreshPolicy::PolyphaseDirty { phases },
    }
}

/// What [`run_case_report`] learned from one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseReport {
    /// The first divergence (or caught panic); `None` means the optimized
    /// stack and the oracle agreed on every compared observable.
    pub divergence: Option<Divergence>,
    /// Accesses the L1 replica ran through `access_batch_l1`; `None` when
    /// the case's cache is not L1-shaped and the replica never engaged.
    pub l1_accesses: Option<u64>,
    /// Whether a module shrink made the polyphase engine walk its armed
    /// lines (always `false` under a periodic policy).
    pub polyphase_shrink: bool,
}

/// Runs one case to completion; `Some` carries the first divergence (or
/// caught panic), `None` means the optimized stack and the oracle agreed
/// on every compared observable.
pub fn run_case(case: &Case) -> Option<Divergence> {
    run_case_report(case).divergence
}

/// [`run_case`], also reporting whether and how far the L1 replica ran.
pub fn run_case_report(case: &Case) -> CaseReport {
    LAST_PANIC.with(|c| *c.borrow_mut() = None);
    let op_index = RefCell::new(0usize);
    let l1_accesses = Cell::new(None);
    let polyphase_shrink = Cell::new(false);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_case_inner(case, &op_index, &l1_accesses, &polyphase_shrink)
    }));
    let divergence = match result {
        Ok(d) => d,
        Err(payload) => {
            let msg = LAST_PANIC
                .with(|c| c.borrow_mut().take())
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                })
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            Some(Divergence {
                op_index: *op_index.borrow(),
                field: "panic".into(),
                expected: "no panic".into(),
                got: msg,
            })
        }
    };
    CaseReport {
        divergence,
        l1_accesses: l1_accesses.get(),
        polyphase_shrink: polyphase_shrink.get(),
    }
}

/// The optimized side's cache for `cfg`, built the way the simulator
/// builds one: per-access retention clocks only for the policies that
/// read them.
fn fresh_cache(cfg: &CaseConfig) -> SetAssocCache {
    let geom = CacheGeometry {
        sets: cfg.sets,
        ways: cfg.ways,
        line_bytes: 64,
        banks: cfg.banks,
        modules: cfg.modules,
        tag_bits: 40,
    };
    geom.validate();
    let mut cache = SetAssocCache::new(geom, cfg.leader_stride);
    cache.set_retention_tracking(cfg.policy.is_polyphase());
    cache
}

/// Whether a case with config `cfg` engages the L1 replica, i.e. its
/// fresh cache has the shape the L1 batch kernel accepts.
pub(crate) fn is_l1_shaped(cfg: &CaseConfig) -> bool {
    fresh_cache(cfg).supports_l1_batch()
}

macro_rules! diff {
    ($at:expr, $field:expr, $oracle:expr, $optimized:expr) => {{
        let (o, g) = (&$oracle, &$optimized);
        if o != g {
            return Some(Divergence {
                op_index: $at,
                field: $field.to_string(),
                expected: format!("{o:?}"),
                got: format!("{g:?}"),
            });
        }
    }};
}

struct Harness<'a> {
    cache: SetAssocCache,
    engine: RefreshEngine,
    oracle: OracleModel,
    params: EnergyParams,
    now: u64,
    /// Accumulated `N_L` (reconfiguration slot transitions) per side.
    opt_transitions: u64,
    ora_transitions: u64,
    /// Accumulated reconfiguration write-backs per side (part of `A_MM`).
    opt_reconf_wb: u64,
    ora_reconf_wb: u64,
    /// The L1 batch-kernel replica, while engaged.
    l1: Option<L1Replica>,
    /// Accesses the replica has run so far (`None`: never engaged).
    l1_accesses: &'a Cell<Option<u64>>,
    /// Set once the engine has run a post-shrink disarm walk.
    polyphase_shrink: &'a Cell<bool>,
}

/// An independent cache fed exclusively through the L1 batch kernel. It
/// has no refresh engine: the simulator's L1s have none, and the periodic
/// policies an L1-shaped case runs never touch the scalar side's lines.
struct L1Replica {
    cache: SetAssocCache,
    /// Encoded accesses since the last flush, each with the scalar path's
    /// (already oracle-checked) outcome and the op index it came from.
    pending: Vec<u64>,
    expected: Vec<AccessOutcome>,
    ats: Vec<usize>,
    recs: Vec<L1Rec>,
    wbs: Vec<u64>,
}

impl L1Replica {
    fn new(cache: &SetAssocCache) -> Self {
        Self {
            cache: cache.clone(),
            pending: Vec::new(),
            expected: Vec::new(),
            ats: Vec::new(),
            recs: Vec::new(),
            wbs: Vec::new(),
        }
    }

    /// Runs the buffered accesses through the kernel, compares each
    /// record against the scalar outcome and folds its stats, then checks
    /// lifetime counters and occupancy against the scalar cache.
    fn flush(&mut self, at: usize, scalar: &SetAssocCache) -> Option<Divergence> {
        self.recs.clear();
        self.wbs.clear();
        self.cache
            .access_batch_l1(&self.pending, &mut self.recs, &mut self.wbs);
        let mut wbs = self.wbs.iter().copied();
        for (i, &rec) in self.recs.iter().enumerate() {
            let (want, op) = (self.expected[i], self.ats[i]);
            diff!(op, "l1.hit", want.hit, rec.hit());
            if want.hit {
                diff!(op, "l1.hit_pos", want.hit_pos, rec.hit_pos());
            }
            let wb = if rec.has_writeback() {
                wbs.next()
            } else {
                None
            };
            diff!(op, "l1.writeback", want.writeback, wb);
            self.cache.apply_rec_stats(rec, self.pending[i] & 1 != 0);
        }
        diff!(at, "l1.stray_writebacks", 0, wbs.count());
        self.pending.clear();
        self.expected.clear();
        self.ats.clear();
        diff!(at, "l1.stats", scalar.stats, self.cache.stats);
        diff!(
            at,
            "l1.valid_lines",
            scalar.valid_lines(),
            self.cache.valid_lines()
        );
        diff!(
            at,
            "l1.valid_per_bank",
            scalar.valid_lines_per_bank(),
            self.cache.valid_lines_per_bank()
        );
        None
    }

    /// Whole-state sweep against the scalar cache (after the last flush):
    /// any silent state skew the record comparison missed surfaces here.
    fn compare_lines(&self, at: usize, scalar: &SetAssocCache) -> Option<Divergence> {
        let g = scalar.geometry();
        for set in 0..g.sets {
            for way in 0..g.ways {
                diff!(
                    at,
                    format!("l1.line[{set}][{way}]"),
                    scalar.line(set, way),
                    self.cache.line(set, way)
                );
                diff!(
                    at,
                    format!("l1.lru_pos[{set}][{way}]"),
                    scalar.lru_position_of(set, way),
                    self.cache.lru_position_of(set, way)
                );
            }
        }
        self.cache.assert_invariants();
        None
    }
}

/// Flushes the L1 replica, if engaged; with `retire` it also sweeps every
/// line and then disengages.
fn flush_l1(h: &mut Harness, at: usize, retire: bool) -> Option<Divergence> {
    let Some(r) = &mut h.l1 else {
        return None;
    };
    let n = r.pending.len() as u64;
    h.l1_accesses.set(h.l1_accesses.get().map(|c| c + n));
    if let Some(d) = r.flush(at, &h.cache) {
        return Some(d);
    }
    if retire {
        let d = r.compare_lines(at, &h.cache);
        h.l1 = None;
        return d;
    }
    None
}

fn run_case_inner(
    case: &Case,
    op_index: &RefCell<usize>,
    l1_accesses: &Cell<Option<u64>>,
    polyphase_shrink: &Cell<bool>,
) -> Option<Divergence> {
    let cfg = &case.config;
    let cache = fresh_cache(cfg);
    let policy = to_refresh_policy(cfg.policy, cfg.phases);
    let engine = RefreshEngine::new(
        policy,
        RetentionSpec {
            period_cycles: cfg.retention,
        },
        &cache,
    );
    let l1 = cache.supports_l1_batch().then(|| L1Replica::new(&cache));
    if l1.is_some() {
        l1_accesses.set(Some(0));
    }
    let mut h = Harness {
        params: EnergyParams::for_l2_capacity(cache.geometry().capacity_bytes()),
        cache,
        engine,
        oracle: OracleModel::new(cfg),
        now: 0,
        opt_transitions: 0,
        ora_transitions: 0,
        opt_reconf_wb: 0,
        ora_reconf_wb: 0,
        l1,
        l1_accesses,
        polyphase_shrink,
    };

    for (at, op) in case.ops.iter().enumerate() {
        *op_index.borrow_mut() = at;
        match *op {
            Op::Access {
                block,
                write,
                dcycles,
            } => {
                h.now += dcycles;
                let opt = h.cache.access(block, write, h.now);
                h.engine.on_access(&opt, h.now);
                let ora = h.oracle.access(block, write, h.now);
                diff!(at, "access.hit", ora.hit, opt.hit);
                diff!(at, "access.set", ora.set, opt.set);
                diff!(at, "access.bank", ora.bank, opt.bank);
                diff!(at, "access.module", ora.module, opt.module);
                diff!(at, "access.leader", ora.leader, opt.leader);
                diff!(at, "access.way", ora.way, opt.way);
                if ora.hit {
                    diff!(at, "access.hit_pos", ora.hit_pos, opt.hit_pos);
                } else {
                    diff!(
                        at,
                        "access.evicted_valid",
                        ora.evicted_valid,
                        opt.evicted_valid
                    );
                    diff!(at, "access.writeback", ora.writeback, opt.writeback);
                }
                // Queue for the L1 replica; it flushes as one block at the
                // next advance, like the simulator's refill.
                if let Some(r) = &mut h.l1 {
                    r.pending.push(encode_l1_access(block, write));
                    r.expected.push(opt);
                    r.ats.push(at);
                }
            }
            Op::Reconfig { module, ways } => {
                if let Some(d) = flush_l1(&mut h, at, true) {
                    return Some(d);
                }
                let opt = h.cache.set_module_active_ways(module, ways, h.now);
                let ora = h.oracle.reconfig(module, ways, h.now);
                h.opt_transitions += opt.slot_transitions;
                h.ora_transitions += ora.slot_transitions;
                h.opt_reconf_wb += opt.writebacks;
                h.ora_reconf_wb += ora.writebacks;
                diff!(at, "reconfig.writebacks", ora.writebacks, opt.writebacks);
                diff!(at, "reconfig.discards", ora.discards, opt.discards);
                diff!(
                    at,
                    "reconfig.slot_transitions",
                    ora.slot_transitions,
                    opt.slot_transitions
                );
                diff!(
                    at,
                    "module_ways",
                    h.oracle.module_ways(),
                    h.cache.module_ways()
                );
            }
            Op::Advance { dcycles } => {
                h.now += dcycles;
                if let Some(d) = advance_and_compare(&mut h, at) {
                    return Some(d);
                }
            }
        }
    }

    // Final flush: push every pending refresh through, then do one last
    // full-state comparison, and sweep the L1 replica against the scalar
    // cache.
    let at = case.ops.len();
    *op_index.borrow_mut() = at;
    h.now += 3 * cfg.retention;
    if let Some(d) = advance_and_compare(&mut h, at) {
        return Some(d);
    }
    flush_l1(&mut h, at, true)
}

fn advance_and_compare(h: &mut Harness, at: usize) -> Option<Divergence> {
    let rep = h.engine.advance(&mut h.cache, h.now);
    h.polyphase_shrink.set(h.engine.disarm_walks() > 0);
    let (ora_r, ora_i) = h.oracle.advance_refresh(h.now);
    diff!(at, "advance.refreshes", ora_r, rep.refreshes);
    diff!(at, "advance.invalidations", ora_i, rep.invalidations);
    if let Some(d) = compare_full(h, at) {
        return Some(d);
    }
    // The scalar side checked out against the oracle; now the L1 replica
    // runs its buffered block and must match the scalar side exactly.
    flush_l1(h, at, false)
}

/// The post-advance whole-state comparison.
fn compare_full(h: &mut Harness, at: usize) -> Option<Divergence> {
    let cfg = h.oracle.config().clone();
    let cache = &h.cache;
    let oracle = &h.oracle;

    // Lifetime access counters.
    diff!(at, "stats.hits", oracle.hits, cache.stats.hits);
    diff!(at, "stats.misses", oracle.misses, cache.stats.misses);
    diff!(
        at,
        "stats.writebacks",
        oracle.writebacks,
        cache.stats.writebacks
    );
    diff!(at, "stats.writes", oracle.writes, cache.stats.writes);
    diff!(at, "stats.pos_hits", oracle.pos_hits, cache.stats.pos_hits);

    // Occupancy, per-bank distribution, powered slots, way masks.
    diff!(at, "valid_lines", oracle.valid_lines(), cache.valid_lines());
    diff!(
        at,
        "valid_per_bank",
        oracle.valid_per_bank(),
        cache.valid_lines_per_bank().to_vec()
    );
    diff!(
        at,
        "active_slots",
        oracle.active_slots(),
        cache.active_slots()
    );
    diff!(at, "module_ways", oracle.module_ways(), cache.module_ways());

    // ATD leader-set accounting: histogram credit and leader census.
    for m in 0..cfg.modules {
        diff!(
            at,
            format!("atd.module_hits[{m}]"),
            oracle.atd_hits[m as usize],
            cache.atd.module_hits(m).to_vec()
        );
        diff!(
            at,
            format!("atd.leaders_in_module[{m}]"),
            oracle.leaders_in_module(m),
            cache.atd.leaders_in_module(m)
        );
    }

    // Refresh totals and the per-bank contention windows.
    diff!(
        at,
        "refresh.total",
        oracle.total_refreshes,
        h.engine.total_refreshes()
    );
    diff!(
        at,
        "refresh.invalidations",
        oracle.total_invalidations,
        h.engine.total_invalidations()
    );
    let ora_banks = h.oracle.drain_bank_refreshes();
    let opt_banks = h.engine.drain_bank_refreshes();
    diff!(at, "refresh.bank_window", ora_banks, opt_banks);

    // Full line-state sweep.
    let track = cfg.policy.is_polyphase();
    for set in 0..cfg.sets {
        for way in 0..cfg.ways {
            let opt = h.cache.line(set, way);
            let (valid, dirty, tag, restored) = h.oracle.line(set, way);
            diff!(at, format!("line[{set}][{way}].valid"), valid, opt.valid);
            if valid {
                diff!(at, format!("line[{set}][{way}].dirty"), dirty, opt.dirty);
                diff!(at, format!("line[{set}][{way}].tag"), tag, opt.tag);
                if track {
                    diff!(
                        at,
                        format!("line[{set}][{way}].last_restore"),
                        restored,
                        h.engine.last_restore(&h.cache, set, way)
                    );
                }
            }
        }
    }

    // Structural self-check of the optimized cache (counter recounts, LRU
    // permutations, mask containment, ATD census). Panics are caught by
    // the run_case catch_unwind and surfaced as divergences.
    h.cache.assert_invariants();

    // Eq. 2–8 energy identities from both sides' counters. The inputs were
    // compared above, so any disagreement here isolates a divergence in
    // the derived quantities (active fraction, A_MM synthesis, N_L).
    let seconds = h.now as f64 / 2.0e9;
    let opt_in = EnergyInputs {
        seconds,
        active_fraction: h.cache.active_fraction(),
        l2_hits: h.cache.stats.hits,
        l2_misses: h.cache.stats.misses,
        refreshes: h.engine.total_refreshes(),
        mem_accesses: h.cache.stats.misses + h.cache.stats.writebacks + h.opt_reconf_wb,
        block_transitions: h.opt_transitions,
    };
    let total_slots = u64::from(cfg.sets) * u64::from(cfg.ways);
    let ora_in = EnergyInputs {
        seconds,
        active_fraction: h.oracle.active_slots() as f64 / total_slots as f64,
        l2_hits: h.oracle.hits,
        l2_misses: h.oracle.misses,
        refreshes: h.oracle.total_refreshes,
        mem_accesses: h.oracle.misses + h.oracle.writebacks + h.ora_reconf_wb,
        block_transitions: h.ora_transitions,
    };
    let opt_e = EnergyBreakdown::compute(&h.params, &opt_in);
    let ora_e = EnergyBreakdown::compute(&h.params, &ora_in);
    diff!(at, "energy.l2_leakage", ora_e.l2_leakage, opt_e.l2_leakage);
    diff!(at, "energy.l2_dynamic", ora_e.l2_dynamic, opt_e.l2_dynamic);
    diff!(at, "energy.l2_refresh", ora_e.l2_refresh, opt_e.l2_refresh);
    diff!(at, "energy.mm_leakage", ora_e.mm_leakage, opt_e.mm_leakage);
    diff!(at, "energy.mm_dynamic", ora_e.mm_dynamic, opt_e.mm_dynamic);
    diff!(at, "energy.algo", ora_e.algo, opt_e.algo);
    diff!(at, "energy.total", ora_e.total(), opt_e.total());

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CaseConfig;

    fn base_config(policy: CheckPolicy) -> CaseConfig {
        CaseConfig {
            sets: 16,
            ways: 4,
            banks: 2,
            modules: 2,
            leader_stride: Some(8),
            policy,
            retention: 400,
            phases: if policy.is_polyphase() { 4 } else { 1 },
        }
    }

    /// A hand-written, straight-line case agrees end to end.
    #[test]
    fn simple_case_agrees() {
        for policy in [
            CheckPolicy::PeriodicAll,
            CheckPolicy::PeriodicValid,
            CheckPolicy::PolyphaseValid,
            CheckPolicy::PolyphaseDirty,
        ] {
            let case = Case {
                config: base_config(policy),
                ops: vec![
                    Op::Access {
                        block: 3,
                        write: true,
                        dcycles: 10,
                    },
                    Op::Access {
                        block: 19,
                        write: false,
                        dcycles: 10,
                    },
                    Op::Access {
                        block: 3,
                        write: false,
                        dcycles: 10,
                    },
                    Op::Advance { dcycles: 500 },
                    Op::Reconfig { module: 0, ways: 1 },
                    Op::Access {
                        block: 35,
                        write: true,
                        dcycles: 5,
                    },
                    Op::Advance { dcycles: 900 },
                    Op::Reconfig { module: 0, ways: 4 },
                    Op::Advance { dcycles: 2000 },
                ],
            };
            let report = run_case_report(&case);
            assert_eq!(report.divergence, None, "policy {policy:?} diverged");
            assert_eq!(
                report.l1_accesses, None,
                "multi-module case is not L1-shaped"
            );
            assert_eq!(
                report.polyphase_shrink,
                policy.is_polyphase(),
                "the shrink turns off valid lines; only polyphase walks them"
            );
        }
    }

    /// A hand-written L1-shaped case engages the L1 replica, which agrees
    /// with the scalar path across hits at depth, dirty evictions and an
    /// advance mid-stream, under both non-polyphase policies.
    #[test]
    fn l1_shaped_case_agrees() {
        // Set 3 of a 16-set, 2-way cache: blocks 3, 19, 35, 51 collide.
        let access = |block, write| Op::Access {
            block,
            write,
            dcycles: 10,
        };
        let ops = vec![
            access(3, true),
            access(19, true),
            access(3, false),  // hit at position 1
            access(35, false), // evicts dirty 19
            Op::Advance { dcycles: 500 },
            access(19, false), // evicts dirty 3
            access(35, true),  // hit at position 1
            access(51, false), // evicts clean 19
            access(4, true),
            Op::Advance { dcycles: 900 },
            access(4, false),
        ];
        for policy in [CheckPolicy::PeriodicAll, CheckPolicy::PeriodicValid] {
            let config = CaseConfig {
                sets: 16,
                ways: 2,
                banks: 1,
                modules: 1,
                leader_stride: None,
                policy,
                retention: 400,
                phases: 1,
            };
            assert!(is_l1_shaped(&config));
            let mut scalar = fresh_cache(&config);
            for op in &ops {
                if let Op::Access { block, write, .. } = *op {
                    scalar.access(block, write, 0);
                }
            }
            assert_eq!(scalar.stats.writebacks, 2, "case lost its dirty evictions");
            let case = Case {
                config,
                ops: ops.clone(),
            };
            let report = run_case_report(&case);
            assert_eq!(report.divergence, None, "policy {policy:?} diverged");
            assert_eq!(report.l1_accesses, Some(9), "L1 replica did not run");
        }
    }

    /// A panic out of the optimized stack is converted into a divergence
    /// pinned to the op that raised it (here: an out-of-range
    /// reconfiguration, which `set_module_active_ways` rejects with an
    /// assert before the oracle runs).
    #[test]
    fn panic_becomes_divergence() {
        let case = Case {
            config: base_config(CheckPolicy::PeriodicValid),
            ops: vec![Op::Reconfig { module: 0, ways: 9 }],
        };
        let d = run_case(&case).expect("out-of-range reconfig must diverge");
        assert_eq!(d.field, "panic");
        assert_eq!(d.op_index, 0);
        assert!(d.got.contains("1..=A"), "payload lost: {}", d.got);
    }
}
