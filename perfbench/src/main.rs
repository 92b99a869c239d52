//! `perfbench`: the repository's benchmark. One workload per run,
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`; the last line of standard output is the JSON result.
//! See `perfbench/README.md` for the workloads and the metric map.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke                   all four workloads, seconds-long
//! perfbench --print-digests <seed>..  reference report digests
//! ```

mod serve;
mod sim;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use crate::stats::{median, quantile, self_cpu_s, Scrape};

/// End-to-end metrics, emitted by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("p50_ms.low", "ms"),
    ("p95_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p95_ms.high", "ms"),
    ("slo_rps", "1/s"),
    ("throughput_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
];

/// Per-layer metrics, emitted by every workload with `--trace 1`
/// (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.fill_encoded_ns", "ns"),
    ("workloads.next_bundle_ns", "ns"),
    ("cache.l1_batch_ns", "ns"),
    ("cache.l2_access_ns", "ns"),
    ("edram.refresh_feed_ns", "ns"),
    ("edram.refresh_advance_ns", "ns"),
    ("edram.bank_window_ns", "ns"),
    ("core.controller_interval_us", "us"),
    ("core.refill_share", "ratio"),
    ("core.unattributed_share", "ratio"),
    ("core.refill_mean_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("cache.l1_miss_ratio", "ratio"),
    ("cache.l2_miss_ratio", "ratio"),
    ("edram.refreshes_per_kinstr", "1/kinstr"),
    ("mem.accesses_per_kinstr", "1/kinstr"),
    ("core.active_ratio", "ratio"),
    ("core.ipc", "instr/cycle"),
    ("harness.runcache_hits", "count"),
    ("serve.submit_us", "us"),
    ("serve.fetch_us", "us"),
    ("http.health_rtt_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.cache_lookup_us", "us"),
    ("serve.run_us", "us"),
    ("serve.run_samples", "count"),
    ("serve.insert_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("par.worker_utilization", "ratio"),
    ("serve.cached", "count"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("loadgen.late_ms", "ms"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimResident,
    SimStreaming,
    ServeFresh,
    ServeCached,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SimResident,
    Workload::SimStreaming,
    Workload::ServeFresh,
    Workload::ServeCached,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimResident => "sim-resident",
            Workload::SimStreaming => "sim-streaming",
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeCached => "serve-cached",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The p95 latency limit `slo_rps` is judged against, ms.
    pub fn slo_p95_ms(self) -> f64 {
        match self {
            Workload::SimResident => 4_000.0,
            Workload::SimStreaming => 8_000.0,
            Workload::ServeFresh => 250.0,
            Workload::ServeCached => 25.0,
        }
    }
}

/// Open-loop rate of serve-fresh, jobs/s: about 35% of the 1-worker
/// daemon's capacity for this job mix (about 80 jobs/s on a 2-vCPU
/// x86-64 host). README.md says why there is no 70% level.
pub const FRESH_RPS: f64 = 28.0;
/// A run whose generator sent its p99 request later than this is
/// rejected: its latencies would describe the generator, not the daemon.
pub const LATE_P99_BOUND_MS: f64 = 50.0;
/// serve-fresh re-simulates every Nth job in process and byte-compares.
pub const SAMPLE_EVERY: usize = 8;
/// Cheap and expensive specs primed into the run cache for
/// serve-cached: the planner's 80/20 mix exactly, so every seed primes
/// the same amount of simulation.
pub const CACHED_WORKING_SET: (usize, usize) = (32, 8);
/// serve-cached requests per second of `--seconds`, with one and with
/// two clients: a little under what a 2-vCPU x86-64 host sustains.
pub const CACHED_NOMINAL_RPS: (f64, f64) = (2500.0, 3500.0);
/// Daemon set-ups per serve run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Window length, seconds, for reading serve-fresh's best window: each
/// holds over a hundred requests.
pub const FRESH_WINDOW_S: f64 = 5.0;
/// Upper bound on the cycles each layer replay covers.
pub const REPLAY_CYCLES: u64 = 20_000_000;

/// Job sizes: the paper configuration, or seconds-long smoke sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub resident: sim::Size,
    pub streaming: sim::Size,
    pub smoke: bool,
}

pub const FULL: Scale = Scale {
    resident: sim::Size {
        instructions: 20_000_000,
        warmup: None,
    },
    streaming: sim::Size {
        instructions: 10_000_000,
        warmup: None,
    },
    smoke: false,
};

pub const SMOKE: Scale = Scale {
    resident: sim::Size {
        instructions: 300_000,
        warmup: Some(300_000),
    },
    streaming: sim::Size {
        instructions: 300_000,
        warmup: Some(300_000),
    },
    smoke: true,
};

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn error(&mut self, e: impl Into<String>) {
        self.errors.push(e.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result object, metrics in declaration order.
    pub fn to_json(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let entry = Value::Map(vec![
                    ("value".into(), Value::F64(v)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_owned(), entry)
            })
            .collect();
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&v).expect("values serialize")
    }
}

/// Latency and rate at one load level.
#[derive(Debug, Clone, Copy, Default)]
struct Level {
    p50_ms: f64,
    p95_ms: f64,
    rps: f64,
    /// The backlog the level leaves clears within the latency limit.
    keeps_up: bool,
}

/// Fewest requests a window needs to count in [`Level::best_of`].
const MIN_WINDOW_SAMPLES: usize = 20;

impl Level {
    /// Percentiles over all of `latencies_ms`; `wall_s` is the level's
    /// wall time, start to last completion.
    fn pooled(latencies_ms: &[f64], wall_s: f64, keeps_up: bool) -> Self {
        Level {
            p50_ms: median(latencies_ms),
            p95_ms: quantile(latencies_ms, 0.95),
            rps: latencies_ms.len() as f64 / wall_s,
            keeps_up,
        }
    }

    /// The level read window by window: `samples` are `(seconds since
    /// the level began, latency ms)`, grouped into windows of
    /// `window_s`, read as in [`Level::best_of`].
    fn best_window(samples: &[(f64, f64)], window_s: f64, keeps_up: bool) -> Self {
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(t, ms) in samples {
            windows.entry((t / window_s) as u64).or_default().push(ms);
        }
        Self::best_of(
            windows.into_values().map(|w| (w, window_s)).collect(),
            keeps_up,
        )
    }

    /// The level read from `windows`, each `(latencies ms, seconds it
    /// spans)`: p50, p95 and the request rate are those of the best
    /// window. A co-tenant slows a shared host for seconds at a time;
    /// the best window is what the level does when it is not slowed,
    /// and that repeats from run to run where a pooled figure does not.
    fn best_of(windows: Vec<(Vec<f64>, f64)>, keeps_up: bool) -> Self {
        let full: Vec<&(Vec<f64>, f64)> = windows
            .iter()
            .filter(|w| w.0.len() >= MIN_WINDOW_SAMPLES)
            .collect();
        if full.is_empty() {
            let all: Vec<f64> = windows.iter().flat_map(|w| w.0.iter().copied()).collect();
            let span = windows.iter().map(|w| w.1).sum::<f64>();
            return Self::pooled(&all, span, keeps_up);
        }
        let lowest =
            |f: &dyn Fn(&[f64]) -> f64| full.iter().map(|w| f(&w.0)).fold(f64::INFINITY, f64::min);
        Level {
            p50_ms: lowest(&|w| median(w)),
            p95_ms: lowest(&|w| quantile(w, 0.95)),
            rps: full
                .iter()
                .map(|w| w.0.len() as f64 / w.1)
                .fold(0.0, f64::max),
            keeps_up,
        }
    }
}

/// Fills the load-level metrics. `throughput_rps`, `p50_ms` and
/// `p95_ms` describe the high level; `slo_rps` is the achieved rate of
/// the highest level whose p95 meets the workload's limit without a
/// growing backlog (0 if neither does).
fn set_levels(out: &mut Outcome, w: Workload, low: Level, high: Level) {
    out.set("p50_ms.low", low.p50_ms);
    out.set("p95_ms.low", low.p95_ms);
    out.set("p50_ms.high", high.p50_ms);
    out.set("p95_ms.high", high.p95_ms);
    out.set("throughput_rps", high.rps);
    out.set("p50_ms", high.p50_ms);
    out.set("p95_ms", high.p95_ms);
    let slo = [high, low]
        .into_iter()
        .find(|l| l.keeps_up && l.p95_ms <= w.slo_p95_ms())
        .map_or(0.0, |l| l.rps);
    out.set("slo_rps", slo);
}

fn set_success(out: &mut Outcome) {
    let attempted = out.attempted.max(1);
    out.set("success_rate", 1.0 - out.failed as f64 / attempted as f64);
}

fn self_rss(out: &mut Outcome) {
    match stats::peak_rss_mb("self") {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.error(e),
    }
}

/// Reference digests of the full-size sim reports, by seed and job.
fn reference(seed: u64) -> Option<BTreeMap<String, u64>> {
    let mut map = BTreeMap::new();
    for line in include_str!("../reference/digests.txt").lines() {
        let mut f = line.split_whitespace();
        if let (Some(s), Some(key), Some(d)) = (f.next(), f.next(), f.next()) {
            if s.parse() == Ok(seed) {
                map.insert(key.to_owned(), u64::from_str_radix(d, 16).ok()?);
            }
        }
    }
    (!map.is_empty()).then_some(map)
}

/// Fails a fresh-simulation run that the in-process run cache served.
fn runcache_guard(out: &mut Outcome) {
    let hits = esteem_harness::runcache::cache_stats().hits;
    out.set("harness.runcache_hits", hits as f64);
    if hits > 0 {
        out.error(format!(
            "{hits} run-cache hits in a fresh-simulation workload"
        ));
    }
}

fn sim_workload(w: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    let streaming = w == Workload::SimStreaming;
    let size = if streaming {
        scale.streaming
    } else {
        scale.resident
    };
    let specs = sim::job_set(streaming, seed, size);
    let mut out = Outcome::default();
    if trace {
        layer_metrics(&mut out, &specs);
        runcache_guard(&mut out);
        return out;
    }
    let reference = if scale.smoke { None } else { reference(seed) };
    let t = sim::run_timed(&specs, seconds, reference.as_ref());
    out.attempted = t.attempted;
    out.failed = t.failed;
    out.errors.extend(t.errors.iter().cloned());
    runcache_guard(&mut out);
    out.set("setup_s", median(&t.setup_s));
    self_rss(&mut out);
    set_success(&mut out);
    out.set("sim_minstr_per_s", t.minstr_per_s());
    // One job at a time: the workload's only load level is both levels,
    // read from each job's median pass.
    let jobs_ms = t.median_job_ms();
    let level = Level::pooled(&jobs_ms, jobs_ms.iter().sum::<f64>() / 1e3, true);
    set_levels(&mut out, w, level, level);
    println!(
        "# {} passes over {} jobs, {} reference digests",
        t.passes,
        specs.len(),
        if reference.is_some() {
            "checked against"
        } else {
            "no"
        }
    );
    out
}

/// The traced run's simulator layers, shared by every workload: an
/// untraced and a traced `Simulator::run` of each job (span shares,
/// tracing overhead, exact simulated ratios) and a replay of each
/// job's own stream through the layer functions.
fn layer_metrics(out: &mut Outcome, specs: &[esteem_serve::job::JobSpec]) {
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut shares = sim::SpanShares::default();
    let mut refill = (0.0, 0u64);
    let mut counts = sim::Counts::default();
    let mut layers = sim::LayerTimes::default();
    for spec in specs {
        let job = sim::resolve(spec);
        let plain = sim::run_once(&job);
        untraced_s += plain.run_s;
        match sim::run_traced(&job) {
            Ok((report, s, refill_mean_us, run_s)) => {
                traced_s += run_s;
                shares.run_us += s.run_us;
                shares.refill_us += s.refill_us;
                shares.attributed_us += s.attributed_us;
                refill.0 += refill_mean_us;
                refill.1 += 1;
                if sim::report_digest(&report) != sim::report_digest(&plain.report) {
                    out.error(format!(
                        "{}: tracing changed the report",
                        sim::job_key(spec)
                    ));
                }
                counts.add(&report);
            }
            Err(e) => out.error(format!("{}: {e}", sim::job_key(spec))),
        }
        let cycles = (job.cfg.warmup_cycles + job.cfg.sim_instructions).min(REPLAY_CYCLES);
        layers.add(&sim::replay(&job, cycles));
    }
    out.attempted += specs.len() as u64;
    let run_us = shares.run_us.max(1e-9);
    out.set("core.refill_share", shares.refill_us / run_us);
    out.set(
        "core.unattributed_share",
        (shares.run_us - shares.attributed_us) / run_us,
    );
    out.set("core.refill_mean_us", refill.0 / refill.1.max(1) as f64);
    out.set("trace.overhead_ms", (traced_s - untraced_s) * 1e3);
    let l = &layers;
    out.set("workloads.fill_encoded_ns", sim::per(l.fill_ns, l.bundles));
    out.set(
        "workloads.next_bundle_ns",
        sim::per(l.next_bundle_ns, l.next_bundles),
    );
    out.set("cache.l1_batch_ns", sim::per(l.l1_ns, l.bundles));
    out.set("cache.l2_access_ns", sim::per(l.l2_ns, l.l2_accesses));
    out.set("edram.refresh_feed_ns", sim::per(l.feed_ns, l.feed_events));
    out.set(
        "edram.refresh_advance_ns",
        sim::per(l.advance_ns, l.advances),
    );
    out.set("edram.bank_window_ns", sim::per(l.window_ns, l.windows));
    out.set(
        "core.controller_interval_us",
        sim::per(l.controller_ns, l.intervals) / 1e3,
    );
    out.set("cache.l1_miss_ratio", counts.l1_miss_ratio());
    out.set("cache.l2_miss_ratio", counts.l2_miss_ratio());
    out.set(
        "edram.refreshes_per_kinstr",
        counts.per_kinstr(counts.refreshes),
    );
    out.set(
        "mem.accesses_per_kinstr",
        counts.per_kinstr(counts.mem_accesses),
    );
    out.set("core.active_ratio", counts.active_ratio());
    out.set("core.ipc", counts.ipc());
}

/// Spawns `SETUP_REPEATS` daemons, running `prepare` on each, and keeps
/// the last. Returns it with the median set-up time (spawn until
/// `/v1/health` answers, plus `prepare`).
fn set_up<T>(
    out: &mut Outcome,
    mut prepare: impl FnMut(&serve::Daemon) -> Result<T, String>,
) -> Option<(serve::Daemon, T)> {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let (d, _) = match serve::Daemon::spawn() {
            Ok(x) => x,
            Err(e) => {
                out.error(e);
                return None;
            }
        };
        let prepared = match prepare(&d) {
            Ok(p) => p,
            Err(e) => {
                out.error(e);
                return None;
            }
        };
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUP_REPEATS {
            kept = Some((d, prepared));
        } else if let Err(e) = d.stop() {
            out.error(e);
        }
    }
    out.set("setup_s", median(&times));
    kept
}

/// Daemon stage metrics over a timed phase, from `/metrics` deltas.
/// Returns the sum of the stage p50s, µs.
fn stage_metrics(out: &mut Outcome, before: &Scrape, after: &Scrape, wall_s: f64) -> f64 {
    let st = |h: &str| format!("serve/stage/{h}");
    let p50 = |h: &str| after.delta_quantile(before, &st(h), 0.5);
    out.set("serve.queue_wait_us", p50("queue_wait_us"));
    out.set(
        "serve.queue_wait_p99_us",
        after.delta_quantile(before, &st("queue_wait_us"), 0.99),
    );
    out.set("serve.cache_lookup_us", p50("cache_lookup_us"));
    out.set("serve.run_us", p50("run_us"));
    out.set(
        "serve.run_samples",
        after.delta_count(before, &st("run_us")),
    );
    // The daemon labels this stage `serialize_us`; it times only the
    // run-cache insert (reports are serialized when fetched).
    out.set("serve.insert_us", p50("serialize_us"));
    out.set(
        "par.worker_utilization",
        after.delta(before, "pool/task_us_sum") / (wall_s * 1e6),
    );
    out.set("serve.cached", after.delta(before, "serve/jobs_cached"));
    out.set(
        "serve.coalesced",
        after.delta(before, "serve/jobs_coalesced"),
    );
    out.set("serve.shed", after.delta(before, "serve/jobs_shed"));
    out.set("serve.failed", after.delta(before, "serve/jobs_failed"));
    out.set(
        "harness.runcache_hits",
        after.delta(before, "runcache/hits"),
    );
    [
        "submit_us",
        "queue_wait_us",
        "cache_lookup_us",
        "run_us",
        "serialize_us",
    ]
    .iter()
    .map(|h| p50(h))
    .sum()
}

fn serve_fresh(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let w = Workload::ServeFresh;
    let mut out = Outcome::default();
    let Some((daemon, health)) = set_up(&mut out, |d| serve::health_rtts(&d.addr, 50)) else {
        return out;
    };
    let offsets = serve::arrivals(seed, FRESH_RPS, seconds);
    let specs = serve::planned_specs(seed, offsets.len());
    let before = daemon.scrape();
    let cpu_before = daemon.cpu_s();
    let mut stages_us = 0.0;
    let t0 = Instant::now();
    let (samples, busy_s, drain_s) = serve::open_phase(&daemon.addr, &specs, &offsets);
    let wall_s = t0.elapsed().as_secs_f64();
    let after = daemon.scrape();
    let cpu_after = daemon.cpu_s();
    out.attempted = samples.len() as u64;
    // Every job must have finished as `done`; every SAMPLE_EVERY-th
    // report is byte-compared with an in-process run of its spec.
    let mut fetch_us = Vec::new();
    let mut instructions = 0u64;
    for (i, (s, spec)) in samples.iter().zip(&specs).enumerate() {
        let ok = match (s.job, &s.error, s.latency_ms) {
            (Some(job), None, Some(_)) => match serve::fetch_report(&daemon.addr, job) {
                Ok((json, us)) => {
                    fetch_us.push(us);
                    if i % SAMPLE_EVERY == 0 {
                        serve::matches_in_process(spec, &json)
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(e),
            },
            (_, Some(e), _) => Err(e.clone()),
            _ => Err(format!("job {i} never completed")),
        };
        match ok {
            Ok(()) => instructions += spec.instructions,
            Err(e) => {
                out.failed += 1;
                out.error(e);
            }
        }
    }
    match (before, after) {
        (Ok(b), Ok(a)) => {
            let reused = a.delta(&b, "serve/jobs_cached") + a.delta(&b, "serve/jobs_coalesced");
            if reused > 0.0 {
                out.error(format!(
                    "{reused} jobs served from the run cache or coalesced"
                ));
            }
            stages_us = stage_metrics(&mut out, &b, &a, wall_s);
        }
        (Err(e), _) | (_, Err(e)) => out.error(e),
    }
    // Simulated instructions per daemon CPU-second over the phase.
    match (cpu_before, cpu_after) {
        (Ok(b), Ok(a)) => out.set(
            "sim_minstr_per_s",
            instructions as f64 / (a - b).max(1e-9) / 1e6,
        ),
        (Err(e), _) | (_, Err(e)) => out.error(e),
    }
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late_us / 1e3).collect();
    let late_p99 = quantile(&late_ms, 0.99);
    if late_p99 > LATE_P99_BOUND_MS {
        out.error(format!(
            "generator ran late: p99 {late_p99:.2} ms > {LATE_P99_BOUND_MS} ms"
        ));
    }
    let timed: Vec<(f64, f64)> = offsets
        .iter()
        .zip(&samples)
        .filter_map(|(&off, s)| s.latency_ms.map(|ms| (off as f64 / 1e6, ms)))
        .collect();
    let latency: Vec<f64> = timed.iter().map(|s| s.1).collect();
    // One fixed rate, so the workload's only load level is both levels.
    // The rate is the offered one, taken over the whole run.
    let keeps_up = drain_s <= w.slo_p95_ms() / 1e3;
    let level = Level {
        rps: latency.len() as f64 / busy_s,
        ..Level::best_window(&timed, FRESH_WINDOW_S, keeps_up)
    };
    set_levels(&mut out, w, level, level);
    match daemon.peak_rss_mb() {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.error(e),
    }
    if let Err(e) = daemon.stop() {
        out.error(e);
    }
    set_success(&mut out);
    if trace {
        let submit: Vec<f64> = samples.iter().map(|s| s.submit_us).collect();
        out.set("serve.submit_us", median(&submit));
        out.set("serve.fetch_us", median(&fetch_us));
        out.set("http.health_rtt_us", median(&health));
        out.set("loadgen.late_ms", late_p99);
        // Client p50 minus the daemon's stage p50s.
        out.set("serve.unattributed_ms", median(&latency) - stages_us / 1e3);
        serve_layer_jobs(&mut out, &specs);
    }
    println!(
        "# {} arrivals at {FRESH_RPS} jobs/s, every {SAMPLE_EVERY}th re-simulated in process",
        samples.len()
    );
    out
}

/// Simulator-layer metrics for a serve workload: the first cheap and
/// the first expensive planned job, run and replayed in process.
fn serve_layer_jobs(out: &mut Outcome, specs: &[esteem_serve::job::JobSpec]) {
    let cheap = specs
        .iter()
        .find(|s| s.instructions == serve::plan_options(0).cheap_instructions);
    let expensive = specs
        .iter()
        .find(|s| s.instructions != serve::plan_options(0).cheap_instructions);
    let picked: Vec<_> = cheap.into_iter().chain(expensive).cloned().collect();
    let attempted = out.attempted;
    layer_metrics(out, &picked);
    out.attempted = attempted;
}

fn serve_cached(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let w = Workload::ServeCached;
    let mut out = Outcome::default();
    let specs = serve::working_set(seed, CACHED_WORKING_SET.0, CACHED_WORKING_SET.1);
    let prime = |d: &serve::Daemon| -> Result<(Vec<u64>, Vec<f64>), String> {
        let ids = serve::run_all(&d.addr, &specs)?;
        let health = serve::health_rtts(&d.addr, 50)?;
        Ok((ids, health))
    };
    let Some((daemon, (ids, health))) = set_up(&mut out, prime) else {
        return out;
    };
    let mut primed = Vec::new();
    for id in &ids {
        match serve::fetch_report(&daemon.addr, *id) {
            Ok((json, _)) => primed.push(json),
            Err(e) => {
                out.error(e);
                return out;
            }
        }
    }
    // Each level gets about half of `seconds` at its nominal rate, in
    // blocks of about a second that alternate with the other level's,
    // so both sample the host across the whole phase. Each block is one
    // window of its level; a slow host takes up to twice as long.
    let half = seconds / 2.0;
    let blocks = half.round().max(1.0) as usize;
    let cap = Duration::from_secs_f64(2.0 * half / blocks as f64);
    let before = daemon.scrape();
    let mut stages_us = 0.0;
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let mut windows: [Vec<(Vec<f64>, f64)>; 2] = Default::default();
    let mut errors = Vec::new();
    // Instructions and CPU seconds of the in-process checks.
    let mut checked = (0u64, 0.0f64);
    let t0 = Instant::now();
    for b in 0..blocks {
        for (k, (samples, clients, rps)) in [
            (&mut low, 1, CACHED_NOMINAL_RPS.0),
            (&mut high, 2, CACHED_NOMINAL_RPS.1),
        ]
        .into_iter()
        .enumerate()
        {
            let n = (rps * half / blocks as f64) as usize;
            let order = seed.wrapping_add((2 * b + k) as u64);
            let started = Instant::now();
            let (s, e) = serve::closed_phase(&daemon.addr, &specs, &primed, order, clients, n, cap);
            let ms = s.iter().map(|x| x.latency_ms).collect();
            windows[k].push((ms, started.elapsed().as_secs_f64()));
            samples.extend(s);
            errors.extend(e);
        }
        // Every primed report must match an in-process run of its spec.
        // The runs are spread between the blocks, so that the workload's
        // simulation throughput (their instructions per CPU-second)
        // samples the host across the whole phase, as the sim workloads'
        // does, and not only during set-up.
        for (i, spec) in specs.iter().enumerate().skip(b).step_by(blocks) {
            let cpu0 = self_cpu_s();
            if let Err(e) = serve::matches_in_process(spec, &primed[i]) {
                out.error(e);
            }
            checked.0 += spec.instructions;
            checked.1 += self_cpu_s() - cpu0;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    out.set(
        "sim_minstr_per_s",
        checked.0 as f64 / checked.1.max(1e-9) / 1e6,
    );
    let after = daemon.scrape();
    out.attempted = (low.len() + high.len()) as u64;
    out.failed = low.iter().chain(&high).filter(|s| !s.ok).count() as u64;
    errors.truncate(20);
    out.errors.extend(errors);
    match (before, after) {
        (Ok(b), Ok(a)) => {
            let ran = a.delta_count(&b, "serve/stage/run_us");
            if ran > 0.0 {
                out.error(format!("{ran} jobs simulated during the cached phase"));
            }
            stages_us = stage_metrics(&mut out, &b, &a, wall_s);
        }
        (Err(e), _) | (_, Err(e)) => out.error(e),
    }
    let high_ms: Vec<f64> = high.iter().map(|s| s.latency_ms).collect();
    let [low_windows, high_windows] = windows;
    set_levels(
        &mut out,
        w,
        Level::best_of(low_windows, true),
        Level::best_of(high_windows, true),
    );
    match daemon.peak_rss_mb() {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.error(e),
    }
    if let Err(e) = daemon.stop() {
        out.error(e);
    }
    set_success(&mut out);
    if trace {
        let both: Vec<&serve::ClosedSample> = low.iter().chain(&high).collect();
        out.set(
            "serve.submit_us",
            median(&both.iter().map(|s| s.submit_us).collect::<Vec<_>>()),
        );
        out.set(
            "serve.fetch_us",
            median(&both.iter().map(|s| s.fetch_us).collect::<Vec<_>>()),
        );
        out.set("http.health_rtt_us", median(&health));
        out.set("serve.unattributed_ms", median(&high_ms) - stages_us / 1e3);
        serve_layer_jobs(&mut out, &specs);
    }
    println!(
        "# {} + {} requests over a {}-spec working set with 1 and 2 clients",
        low.len(),
        high.len(),
        specs.len()
    );
    out
}

pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, scale: Scale) -> Outcome {
    match w {
        Workload::SimResident | Workload::SimStreaming => {
            sim_workload(w, seed, seconds, trace, scale)
        }
        Workload::ServeFresh => serve_fresh(seed, seconds, trace),
        Workload::ServeCached => serve_cached(seed, seconds, trace),
    }
}

fn print_table(w: Workload, out: &Outcome, trace: bool) {
    let names = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} ({})",
        w.name(),
        if trace { "per-layer" } else { "end-to-end" }
    );
    for &(name, unit) in names {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        println!("#   {name:<28} {v:>14.4} {unit}");
    }
    println!(
        "#   attempted {} failed {} correct {}",
        out.attempted,
        out.failed,
        out.correct()
    );
    for e in out.errors.iter().take(10) {
        println!("#   error: {e}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Runs every workload, both modes, and prints one table each.
/// Returns whether all were correct.
fn run_all(seed: u64, seconds: f64, scale: Scale, modes: &[bool]) -> bool {
    let mut ok = true;
    let mut combined = Vec::new();
    for w in WORKLOADS {
        for &trace in modes {
            let out = run(w, seed, seconds, trace, scale);
            print_table(w, &out, trace);
            ok &= out.correct();
            combined.push((
                format!("{}/{}", w.name(), if trace { 1 } else { 0 }),
                out.correct(),
            ));
        }
    }
    let summary = Value::Map(
        combined
            .into_iter()
            .map(|(k, c)| (k, Value::Bool(c)))
            .collect(),
    );
    println!(
        "{}",
        serde_json::to_string(&summary).expect("values serialize")
    );
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        return if run_all(1, 2.0, SMOKE, &[false, true]) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.first().map(String::as_str) == Some("--print-digests") {
        for seed in &args[1..] {
            let Ok(seed) = seed.parse::<u64>() else {
                eprintln!("bad seed {seed}");
                return ExitCode::FAILURE;
            };
            for streaming in [false, true] {
                let size = if streaming {
                    FULL.streaming
                } else {
                    FULL.resident
                };
                for spec in sim::job_set(streaming, seed, size) {
                    let r = sim::run_once(&sim::resolve(&spec)).report;
                    println!(
                        "{seed} {} {:016x}",
                        sim::job_key(&spec),
                        sim::report_digest(&r)
                    );
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if a.workload == "all" {
        run_all(a.seed, a.seconds, FULL, &[a.trace]);
        return ExitCode::SUCCESS;
    }
    let Some(w) = Workload::parse(&a.workload) else {
        eprintln!("perfbench: unknown workload {:?}", a.workload);
        return ExitCode::FAILURE;
    };
    let out = run(w, a.seed, a.seconds, a.trace, FULL);
    print_table(w, &out, a.trace);
    println!("{}", out.to_json(a.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit for {name}");
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name()));
        }
    }

    /// BENCHMARK.json declares exactly the metrics the benchmark emits.
    #[test]
    fn benchmark_json_matches_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let m = v.as_map().expect("object");
        let names = |key: &str| -> Vec<(String, String)> {
            serde::map_get(m, key)
                .expect(key)
                .as_seq()
                .expect("list")
                .iter()
                .map(|e| {
                    let e = e.as_map().expect("entry");
                    let s = |k| serde::map_get(e, k).expect(k).as_str().expect(k).to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = serde::map_get(m, "workloads")
            .expect("workloads")
            .as_seq()
            .expect("list")
            .iter()
            .map(|e| {
                serde::map_get(e.as_map().expect("entry"), "name")
                    .expect("name")
                    .as_str()
                    .expect("str")
                    .to_owned()
            })
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn every_metric_is_emitted_with_its_unit() {
        let out = Outcome::default();
        for (trace, names) in [(false, END_TO_END), (true, PER_LAYER)] {
            let v: Value = serde_json::from_str(&out.to_json(trace)).expect("json");
            let m = v.as_map().expect("object");
            let metrics = serde::map_get(m, "metrics")
                .expect("metrics")
                .as_map()
                .expect("map");
            assert_eq!(metrics.len(), names.len());
            for (&(name, unit), (k, e)) in names.iter().zip(metrics) {
                assert_eq!(name, k);
                let e = e.as_map().expect("entry");
                assert_eq!(
                    serde::map_get(e, "unit").expect("unit").as_str(),
                    Some(unit)
                );
            }
        }
    }

    #[test]
    fn reference_digests_cover_the_default_seed() {
        let r = reference(1).expect("seed 1 has reference digests");
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn slo_rps_picks_the_highest_level_within_the_limit() {
        let w = Workload::ServeFresh;
        let low = Level {
            p50_ms: 5.0,
            p95_ms: 40.0,
            rps: 30.0,
            keeps_up: true,
        };
        let mut high = Level {
            p95_ms: 120.0,
            rps: 60.0,
            ..low
        };
        let mut out = Outcome::default();
        set_levels(&mut out, w, low, high);
        assert_eq!(out.metrics["slo_rps"], 60.0);
        high.p95_ms = 1e4;
        set_levels(&mut out, w, low, high);
        assert_eq!(out.metrics["slo_rps"], 30.0);
        high.p95_ms = 1.0;
        high.keeps_up = false;
        set_levels(&mut out, w, low, high);
        assert_eq!(out.metrics["slo_rps"], 30.0);
    }
}
