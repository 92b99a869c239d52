//! The two in-process simulator workloads: their job sets, the timed
//! serial runs, the traced run, and the layer replays.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use esteem_cache::SetAssocCache;
use esteem_core::controller::{self, IntervalCtx};
use esteem_core::{SimMetrics, SimReport, Simulator};
use esteem_edram::{BankContention, RefreshEngine};
use esteem_serve::job::{JobSpec, ResolvedJob};
use esteem_trace::{EventKind, TraceEvent, TraceFilter, Tracer};
use esteem_workloads::AccessStream;

use crate::stats::{fnv1a, median, self_cpu_s};

/// Instruction budget and warm-up of one workload's jobs.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub instructions: u64,
    /// `None` keeps the paper's 35 M-cycle warm-up.
    pub warmup: Option<u64>,
}

/// The fixed job set of a sim workload, in run order.
pub fn job_set(streaming: bool, seed: u64, size: Size) -> Vec<JobSpec> {
    let (workloads, techniques): (&[&str], &[&str]) = if streaming {
        (&["SoMi", "LsLb", "McLu"], &["rpv", "esteem"])
    } else {
        (&["gamess", "povray", "gcc"], &["baseline", "esteem"])
    };
    let mut jobs = Vec::new();
    for w in workloads {
        for t in techniques {
            jobs.push(JobSpec {
                workload: (*w).into(),
                technique: (*t).into(),
                instructions: size.instructions,
                warmup: size.warmup,
                seed,
                ..JobSpec::default()
            });
        }
    }
    jobs
}

/// Key naming one job in digests and reports.
pub fn job_key(spec: &JobSpec) -> String {
    format!("{}/{}", spec.workload, spec.technique)
}

pub fn resolve(spec: &JobSpec) -> ResolvedJob {
    spec.resolve()
        .expect("benchmark job specs name known workloads and techniques")
}

/// Total measured instructions of one job (all cores).
pub fn job_instructions(r: &ResolvedJob) -> u64 {
    r.cfg.sim_instructions * u64::from(r.cfg.cores)
}

/// Digest of a report's canonical JSON.
pub fn report_digest(report: &SimReport) -> u64 {
    fnv1a(report_json(report).as_bytes())
}

pub fn report_json(report: &SimReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// One fresh simulation, timed in its two halves. Times are the
/// process's CPU seconds (see [`crate::stats::cpu_time_s`]): the
/// simulator is serial, so they equal its wall time on an idle host,
/// and unlike wall time they do not grow while co-tenants hold the CPU.
pub struct Timed {
    pub report: SimReport,
    pub new_s: f64,
    pub run_s: f64,
}

pub fn run_once(r: &ResolvedJob) -> Timed {
    let t0 = self_cpu_s();
    let sim = Simulator::new(r.cfg.clone(), &r.profiles, &r.label);
    let t1 = self_cpu_s();
    let report = sim.run();
    let t2 = self_cpu_s();
    Timed {
        report,
        new_s: t1 - t0,
        run_s: t2 - t1,
    }
}

/// Samples of a timed sim-workload run.
#[derive(Debug, Default)]
pub struct TimedRun {
    pub setup_s: Vec<f64>,
    /// CPU times (`Simulator::new` + `run`), ms, by job key.
    pub job_ms: BTreeMap<String, Vec<f64>>,
    /// `run` CPU times of each job, by job key.
    pub run_s: BTreeMap<String, Vec<f64>>,
    /// Measured instructions of one pass over the job set.
    pub pass_instructions: u64,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl TimedRun {
    /// Each job's median `Simulator::new` + `run` across passes, ms.
    pub fn median_job_ms(&self) -> Vec<f64> {
        self.job_ms.values().map(|v| median(v)).collect()
    }

    /// Host throughput over the job set: one pass's instructions over
    /// the sum of each job's median `run` across passes.
    pub fn minstr_per_s(&self) -> f64 {
        let s: f64 = self.run_s.values().map(|v| median(v)).sum();
        self.pass_instructions as f64 / s.max(1e-9) / 1e6
    }
}

/// Runs whole passes over the job set, serially and always fresh,
/// until the next pass would overrun `seconds` (at least one pass).
/// Every report is checked against `reference` (when the seed has
/// one) and against the same job's report from the first pass.
pub fn run_timed(
    specs: &[JobSpec],
    seconds: f64,
    reference: Option<&BTreeMap<String, u64>>,
) -> TimedRun {
    let jobs: Vec<(String, ResolvedJob)> = specs.iter().map(|s| (job_key(s), resolve(s))).collect();
    let mut out = TimedRun::default();
    let mut first: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for (key, job) in &jobs {
            let t = run_once(job);
            out.attempted += 1;
            out.setup_s.push(t.new_s);
            let ms = (t.new_s + t.run_s) * 1e3;
            out.job_ms.entry(key.clone()).or_default().push(ms);
            out.run_s.entry(key.clone()).or_default().push(t.run_s);
            if out.passes == 0 {
                out.pass_instructions += job_instructions(job);
            }
            let digest = report_digest(&t.report);
            let expected = reference
                .and_then(|r| r.get(key))
                .or_else(|| first.get(key))
                .copied();
            match expected {
                Some(want) if want != digest => {
                    out.failed += 1;
                    out.errors.push(format!(
                        "{key}: report digest {digest:016x}, expected {want:016x}"
                    ));
                }
                _ => {
                    if let Err(e) = sanity(job, &t.report) {
                        out.failed += 1;
                        out.errors.push(format!("{key}: {e}"));
                    }
                }
            }
            first.entry(key.clone()).or_insert(digest);
        }
        out.passes += 1;
        let pass = pass_start.elapsed();
        if start.elapsed() + pass > Duration::from_secs_f64(seconds) {
            break;
        }
    }
    out
}

/// Invariants every report must satisfy, whatever the seed.
fn sanity(job: &ResolvedJob, r: &SimReport) -> Result<(), String> {
    if r.per_core.len() != job.cfg.cores as usize {
        return Err(format!("{} per-core entries", r.per_core.len()));
    }
    if let Some(c) = r
        .per_core
        .iter()
        .find(|c| c.instructions != job.cfg.sim_instructions)
    {
        return Err(format!("core retired {} instructions", c.instructions));
    }
    let e = r.energy.total();
    if !(e.is_finite() && e > 0.0) {
        return Err(format!("energy total {e}"));
    }
    if !(0.0..=1.0).contains(&r.active_ratio) {
        return Err(format!("active ratio {}", r.active_ratio));
    }
    Ok(())
}

/// Wall time spread over the simulator's own spans in one traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanShares {
    pub run_us: f64,
    pub refill_us: f64,
    /// Union of every span inside `sim.run` (nested spans count once).
    pub attributed_us: f64,
}

/// Runs one job with the span ring and the front-end metrics attached.
/// Returns the report, the span accounting, the mean refill time from
/// [`SimMetrics`], and the traced `run` CPU time, as [`run_once`].
pub fn run_traced(r: &ResolvedJob) -> Result<(SimReport, SpanShares, f64, f64), String> {
    let tracer = Tracer::ring(1 << 18, TraceFilter::none().with(EventKind::Span));
    let metrics = Arc::new(SimMetrics::new(r.cfg.cores as usize));
    let sim = Simulator::new(r.cfg.clone(), &r.profiles, &r.label)
        .with_tracer(tracer.clone())
        .with_metrics(Arc::clone(&metrics));
    let t0 = self_cpu_s();
    let report = sim.run();
    let run_s = self_cpu_s() - t0;
    if tracer.dropped() > 0 {
        return Err(format!("span ring dropped {} events", tracer.dropped()));
    }
    let spans: Vec<(String, f64, f64)> = tracer
        .drain()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span {
                name,
                start_us,
                dur_us,
            } => Some((name, start_us, dur_us)),
            _ => None,
        })
        .collect();
    let shares = span_shares(&spans);
    if shares.run_us <= 0.0 {
        return Err("no sim.run span recorded".into());
    }
    let (mut sum, mut n) = (0.0, 0u64);
    for core in 0..r.cfg.cores as usize {
        let h = metrics.refill_us(core);
        sum += h.mean() * h.count() as f64;
        n += h.count();
    }
    let refill_mean_us = if n > 0 { sum / n as f64 } else { 0.0 };
    Ok((report, shares, refill_mean_us, run_s))
}

/// Span accounting over `(name, start_us, dur_us)` events: the root
/// `sim.run`, the `block.refill` total, and the covered union of all
/// other spans.
pub fn span_shares(spans: &[(String, f64, f64)]) -> SpanShares {
    let mut s = SpanShares::default();
    let mut inner: Vec<(f64, f64)> = Vec::new();
    for (name, start, dur) in spans {
        match name.as_str() {
            "sim.run" => s.run_us += dur,
            other => {
                if other == "block.refill" {
                    s.refill_us += dur;
                }
                inner.push((*start, start + dur));
            }
        }
    }
    inner.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered_to = f64::NEG_INFINITY;
    for (lo, hi) in inner {
        let lo = lo.max(covered_to);
        if hi > lo {
            s.attributed_us += hi - lo;
            covered_to = hi;
        }
    }
    s
}

/// Time and work counts from replaying one job's generated stream
/// through the public layer functions.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTimes {
    pub next_bundle_ns: f64,
    pub next_bundles: u64,
    pub fill_ns: f64,
    pub l1_ns: f64,
    pub bundles: u64,
    pub l2_ns: f64,
    pub l2_accesses: u64,
    pub feed_ns: f64,
    pub feed_events: u64,
    pub advance_ns: f64,
    pub advances: u64,
    pub window_ns: f64,
    pub windows: u64,
    pub controller_ns: f64,
    pub intervals: u64,
}

impl LayerTimes {
    pub fn add(&mut self, o: &LayerTimes) {
        self.next_bundle_ns += o.next_bundle_ns;
        self.next_bundles += o.next_bundles;
        self.fill_ns += o.fill_ns;
        self.l1_ns += o.l1_ns;
        self.bundles += o.bundles;
        self.l2_ns += o.l2_ns;
        self.l2_accesses += o.l2_accesses;
        self.feed_ns += o.feed_ns;
        self.feed_events += o.feed_events;
        self.advance_ns += o.advance_ns;
        self.advances += o.advances;
        self.window_ns += o.window_ns;
        self.windows += o.windows;
        self.controller_ns += o.controller_ns;
        self.intervals += o.intervals;
    }
}

/// Per-unit cost, 0 when the layer did no work.
pub fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Bundles generated per front-end refill in the replay.
const REPLAY_CHUNK: usize = 4096;

/// One core's generator and L1 in the replay.
struct ReplayCore {
    stream: AccessStream,
    l1: SetAssocCache,
    enc: Vec<u64>,
    instrs: Vec<u32>,
    recs: Vec<esteem_cache::L1Rec>,
    wbs: Vec<u64>,
    cursor: usize,
    wb_cursor: usize,
    cycle: f64,
    cpi: f64,
}

/// Replays `cycles` cycles of the job's own generated stream through
/// the layers the simulator composes: `AccessStream::fill_encoded` (and
/// the reference `next_bundle`), `SetAssocCache::access_batch_l1` on
/// the L1 geometry, `SetAssocCache::access` on the L2 geometry with the
/// technique's retention tracking, `RefreshEngine::{on_access_batch,
/// advance}`, `BankContention::roll_window`, and the technique's
/// `CacheController::on_interval`. Cores advance at their base CPI (the
/// replay has no stall feedback), in the simulator's quantum order.
pub fn replay(r: &ResolvedJob, cycles: u64) -> LayerTimes {
    let cfg = &r.cfg;
    let mut t = LayerTimes::default();
    let mut cores: Vec<ReplayCore> = r
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut l1 = SetAssocCache::new(cfg.l1_geometry(), None);
            l1.set_retention_tracking(false);
            ReplayCore {
                stream: AccessStream::new(p, i as u32, cfg.seed),
                l1,
                enc: Vec::new(),
                instrs: Vec::new(),
                recs: Vec::new(),
                wbs: Vec::new(),
                cursor: 0,
                wb_cursor: 0,
                cycle: 0.0,
                cpi: p.cpi_base,
            }
        })
        .collect();
    let policy = cfg.technique.refresh_policy();
    let mut l2 = SetAssocCache::new(cfg.l2_geometry(), cfg.leader_stride());
    l2.set_retention_tracking(policy.is_polyphase());
    let mut refresh = RefreshEngine::new(policy, cfg.retention, &l2);
    let mut contention = BankContention::new(cfg.l2_banks, cfg.retention.period_cycles)
        .with_params(2.0, cfg.bank_burst_lines);
    let mut ctl = controller::for_technique(&cfg.technique);
    let off = Tracer::off();
    let mut misses: Vec<(u64, bool, u64)> = Vec::new();
    let mut feed = Vec::new();
    let mut bank_counts = vec![0u64; usize::from(cfg.l2_banks)];
    let mut bank_refreshes = Vec::new();
    let mut next_window = cfg.retention.period_cycles;
    let mut qend = 0u64;
    while qend < cycles {
        qend += cfg.quantum_cycles;
        misses.clear();
        for c in &mut cores {
            while c.cycle < qend as f64 {
                if c.cursor == c.enc.len() {
                    c.enc.clear();
                    c.instrs.clear();
                    c.recs.clear();
                    c.wbs.clear();
                    c.cursor = 0;
                    c.wb_cursor = 0;
                    let t0 = Instant::now();
                    c.stream
                        .fill_encoded(&mut c.enc, &mut c.instrs, REPLAY_CHUNK);
                    t.fill_ns += ns(t0);
                    let t0 = Instant::now();
                    c.l1.access_batch_l1(&c.enc, &mut c.recs, &mut c.wbs);
                    t.l1_ns += ns(t0);
                    t.bundles += c.enc.len() as u64;
                }
                let i = c.cursor;
                c.cursor += 1;
                c.cycle += f64::from(c.instrs[i]) * c.cpi;
                let rec = c.recs[i];
                if !rec.hit() {
                    let now = c.cycle as u64;
                    misses.push((c.enc[i] >> 1, false, now));
                    if rec.has_writeback() {
                        misses.push((c.wbs[c.wb_cursor], true, now));
                        c.wb_cursor += 1;
                    }
                }
            }
        }
        let t0 = Instant::now();
        for &(block, write, now) in &misses {
            let o = l2.access(block, write, now);
            feed.push((o, now));
            bank_counts[usize::from(o.bank)] += 1;
        }
        t.l2_ns += ns(t0);
        t.l2_accesses += misses.len() as u64;
        if refresh.needs_access_feed() && !feed.is_empty() {
            let t0 = Instant::now();
            refresh.on_access_batch(&feed);
            t.feed_ns += ns(t0);
            t.feed_events += feed.len() as u64;
        }
        feed.clear();
        contention.record_accesses(&bank_counts);
        bank_counts.fill(0);
        let t0 = Instant::now();
        refresh.advance(&mut l2, qend);
        t.advance_ns += ns(t0);
        t.advances += 1;
        if qend >= next_window {
            refresh.drain_bank_refreshes_into(&mut bank_refreshes);
            let t0 = Instant::now();
            contention.roll_window(qend, &bank_refreshes);
            t.window_ns += ns(t0);
            t.windows += 1;
            while next_window <= qend {
                next_window += cfg.retention.period_cycles;
            }
        }
        if ctl.due(qend) {
            let t0 = Instant::now();
            ctl.on_interval(IntervalCtx {
                l2: &mut l2,
                now: qend,
                tracer: &off,
            });
            t.controller_ns += ns(t0);
            t.intervals += 1;
        }
    }
    // The reference per-call generator, over as many bundles as core 0
    // drew from the batched one.
    let mut stream = AccessStream::new(&r.profiles[0], 0, cfg.seed);
    let n = cores[0].stream.total_references();
    let t0 = Instant::now();
    for _ in 0..n {
        std::hint::black_box(stream.next_bundle());
    }
    t.next_bundle_ns = ns(t0);
    t.next_bundles = n;
    t
}

/// Exact simulated ratios summed over a set of reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub refreshes: u64,
    pub mem_accesses: u64,
    pub instructions: u64,
    pub active_ratio_sum: f64,
    pub ipc_sum: f64,
    pub cores: u64,
    pub reports: u64,
}

impl Counts {
    pub fn add(&mut self, r: &SimReport) {
        for c in &r.per_core {
            self.l1_hits += c.l1_hits;
            self.l1_misses += c.l1_misses;
            self.instructions += c.instructions;
            self.ipc_sum += c.ipc;
            self.cores += 1;
        }
        self.l2_hits += r.l2_hits;
        self.l2_misses += r.l2_misses;
        self.refreshes += r.refreshes;
        self.mem_accesses += r.mem_accesses;
        self.active_ratio_sum += r.active_ratio;
        self.reports += 1;
    }

    pub fn l1_miss_ratio(&self) -> f64 {
        self.l1_misses as f64 / (self.l1_hits + self.l1_misses).max(1) as f64
    }

    pub fn l2_miss_ratio(&self) -> f64 {
        self.l2_misses as f64 / (self.l2_hits + self.l2_misses).max(1) as f64
    }

    pub fn per_kinstr(&self, n: u64) -> f64 {
        n as f64 * 1e3 / self.instructions.max(1) as f64
    }

    pub fn active_ratio(&self) -> f64 {
        self.active_ratio_sum / self.reports.max(1) as f64
    }

    pub fn ipc(&self) -> f64 {
        self.ipc_sum / self.cores.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        instructions: 100_000,
        warmup: Some(100_000),
    };

    #[test]
    fn same_seed_same_digest() {
        let spec = &job_set(false, 7, TINY)[1];
        let r = resolve(spec);
        let a = report_digest(&run_once(&r).report);
        let b = report_digest(&run_once(&r).report);
        assert_eq!(a, b);
        let other = resolve(&job_set(false, 8, TINY)[1]);
        assert_ne!(a, report_digest(&run_once(&other).report));
    }

    #[test]
    fn tracing_keeps_the_report_and_attributes_spans() {
        let r = resolve(&job_set(true, 3, TINY)[0]);
        let plain = run_once(&r).report;
        let (traced, shares, _, _) = run_traced(&r).expect("traced run");
        assert_eq!(report_digest(&plain), report_digest(&traced));
        assert!(shares.refill_us > 0.0);
        assert!(shares.attributed_us <= shares.run_us);
    }

    #[test]
    fn span_union_counts_nested_time_once() {
        let spans = vec![
            ("sim.run".to_owned(), 0.0, 100.0),
            ("block.refill".to_owned(), 10.0, 20.0),
            ("block.barrier".to_owned(), 15.0, 5.0),
            ("refresh.window".to_owned(), 50.0, 10.0),
        ];
        let s = span_shares(&spans);
        assert_eq!(s.run_us, 100.0);
        assert_eq!(s.refill_us, 20.0);
        assert_eq!(s.attributed_us, 30.0);
    }

    #[test]
    fn replay_exercises_every_layer() {
        let r = resolve(&job_set(true, 3, TINY)[0]);
        let t = replay(&r, 300_000);
        assert!(t.bundles > 0 && t.next_bundles > 0);
        assert!(t.l2_accesses > 0 && t.feed_events > 0, "RPV feeds refresh");
        assert!(t.advances == 300 && t.windows == 3);
    }
}
