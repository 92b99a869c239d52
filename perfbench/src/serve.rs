//! The two daemon workloads: a fresh `esteem-serve` process per run,
//! an open-loop driver for unique jobs, and a closed-loop driver for
//! run-cache hits.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use esteem_serve::client;
use esteem_serve::job::JobSpec;
use esteem_serve::loadgen::{self, LoadgenOptions};

use crate::sim;
use crate::stats::{fnv1a, Scrape};

/// A daemon child process with one simulation worker, no journal, and
/// no disk run-cache tier.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Spawns the daemon built beside this binary and waits until
    /// `/v1/health` answers. Returns it with the elapsed set-up time.
    pub fn spawn() -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let bin = exe.with_file_name("esteem-serve");
        let t0 = Instant::now();
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .env_remove("ESTEEM_RUN_CACHE_DIR")
            .env_remove("ESTEEM_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(a)) => a.to_owned(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its address: {line:?}"));
            }
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let deadline = t0 + Duration::from_secs(10);
        loop {
            if let Ok((200, _)) = client::request(&daemon.addr, "GET", "/v1/health", None) {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
            if Instant::now() > deadline {
                return Err("daemon health check timed out".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn scrape(&self) -> Result<Scrape, String> {
        client::metrics(&self.addr).map(|t| Scrape::parse(&t))
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        crate::stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// The daemon's CPU time so far, seconds, all threads together.
    pub fn cpu_s(&self) -> Result<f64, String> {
        crate::stats::cpu_time_s(Some(self.child.id()))
    }

    /// Graceful shutdown; the process is killed if it does not exit.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = client::shutdown(&self.addr);
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The planner options every serve workload draws jobs from: the
/// gamess cheap/expensive 80/20 mix, every job unique, one client
/// label (so the daemon's queue is FIFO).
pub fn plan_options(seed: u64) -> LoadgenOptions {
    LoadgenOptions {
        seed,
        clients: 1,
        hit_ratio: 0.0,
        ..LoadgenOptions::default()
    }
}

/// `n` planned job specs.
pub fn planned_specs(seed: u64, n: usize) -> Vec<JobSpec> {
    let opts = plan_options(seed);
    loadgen::plan(&opts, n)
        .iter()
        .map(|p| loadgen::spec_for(p, &opts))
        .collect()
}

/// The first `cheap` cheap and `expensive` expensive specs the planner
/// draws for `seed`, cheap ones first, each group in plan order.
pub fn working_set(seed: u64, cheap: usize, expensive: usize) -> Vec<JobSpec> {
    let cheap_instructions = plan_options(seed).cheap_instructions;
    let (mut c, mut e): (Vec<JobSpec>, Vec<JobSpec>) =
        planned_specs(seed, 16 * (cheap + expensive))
            .into_iter()
            .partition(|s| s.instructions == cheap_instructions);
    assert!(
        c.len() >= cheap && e.len() >= expensive,
        "the plan holds enough jobs of each kind"
    );
    c.truncate(cheap);
    e.truncate(expensive);
    c.extend(e);
    c
}

/// Arrival offsets (µs) inside `[0, span_s)` for Poisson arrivals.
pub fn arrivals(seed: u64, rps: f64, span_s: f64) -> Vec<u64> {
    let n = (rps * span_s * 2.0) as usize + 16;
    let span_us = (span_s * 1e6) as u64;
    let mut offs = loadgen::arrival_offsets_us(seed, n, rps);
    offs.retain(|&o| o < span_us);
    offs
}

/// One open-loop request.
#[derive(Debug, Clone)]
pub struct OpenSample {
    pub job: Option<u64>,
    /// How late the generator sent it, µs.
    pub late_us: f64,
    /// Client-timed `POST /v1/jobs`, µs.
    pub submit_us: f64,
    /// Due time to completion, ms; `None` if it never completed.
    pub latency_ms: Option<f64>,
    pub error: Option<String>,
}

/// Open loop on two threads and at most two connections: this thread
/// submits each job at its due time; a watcher follows completions in
/// submission order on each job's event stream, which the daemon
/// closes the moment the job ends. With one worker and one client
/// label the daemon runs jobs in submission order, so the watcher is
/// never behind a finished job. Latency runs from the due time.
/// Returns the samples, the time from the start to the last
/// completion, and the time from the last due time to the last
/// completion (the backlog the phase left), in seconds.
pub fn open_phase(
    addr: &str,
    specs: &[JobSpec],
    offsets_us: &[u64],
) -> (Vec<OpenSample>, f64, f64) {
    let mut samples: Vec<OpenSample> = Vec::with_capacity(offsets_us.len());
    let (tx, rx) = mpsc::channel::<(usize, u64)>();
    let start = Instant::now() + Duration::from_millis(20);
    let done = std::thread::scope(|s| {
        let watcher = s.spawn(move || {
            let mut done = Vec::new();
            for (i, job) in rx {
                let path = format!("/v1/jobs/{job}/events");
                let r = client::stream_lines(addr, &path, |_| {});
                done.push((i, r, Instant::now()));
            }
            done
        });
        for (i, (&off, spec)) in offsets_us.iter().zip(specs).enumerate() {
            let due = start + Duration::from_micros(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let r = client::submit(addr, spec);
            let mut sample = OpenSample {
                job: None,
                late_us: sent.saturating_duration_since(due).as_secs_f64() * 1e6,
                submit_us: sent.elapsed().as_secs_f64() * 1e6,
                latency_ms: None,
                error: None,
            };
            match r {
                Ok(resp) => {
                    sample.job = Some(resp.job);
                    tx.send((i, resp.job)).expect("watcher alive");
                }
                Err(e) => sample.error = Some(e),
            }
            samples.push(sample);
        }
        drop(tx);
        watcher.join().expect("watcher thread panicked")
    });
    let last_due = start + Duration::from_micros(offsets_us.last().copied().unwrap_or(0));
    let mut last_done = last_due;
    for (i, r, at) in done {
        match r {
            Ok(200) => {
                let due = start + Duration::from_micros(offsets_us[i]);
                samples[i].latency_ms = Some(at.duration_since(due).as_secs_f64() * 1e3);
                last_done = last_done.max(at);
            }
            Ok(status) => samples[i].error = Some(format!("event stream status {status}")),
            Err(e) => samples[i].error = Some(e),
        }
    }
    (
        samples,
        last_done.duration_since(start).as_secs_f64(),
        last_done.duration_since(last_due).as_secs_f64(),
    )
}

/// The report a finished job returned, as canonical JSON, plus the
/// client-timed `GET /v1/jobs/{id}` in µs.
pub fn fetch_report(addr: &str, job: u64) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let (state, v) = client::poll(addr, job)?;
    let us = t0.elapsed().as_secs_f64() * 1e6;
    if state != "done" {
        return Err(format!("job {job} is {state}"));
    }
    let result = v
        .as_map()
        .and_then(|m| serde::map_get(m, "result").ok())
        .ok_or_else(|| format!("job {job} has no result"))?;
    Ok((serde_json::to_string(result).expect("values serialize"), us))
}

/// Byte-compares the daemon's report for `spec` with a fresh
/// in-process `Simulator::run` of the same spec.
pub fn matches_in_process(spec: &JobSpec, daemon_json: &str) -> Result<(), String> {
    let local = sim::report_json(&sim::run_once(&sim::resolve(spec)).report);
    if local == daemon_json {
        Ok(())
    } else {
        Err(format!(
            "seed {}: daemon report {:016x} differs from in-process {:016x}",
            spec.seed,
            fnv1a(daemon_json.as_bytes()),
            fnv1a(local.as_bytes())
        ))
    }
}

/// One closed-loop request against a primed working set.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSample {
    pub latency_ms: f64,
    pub submit_us: f64,
    pub fetch_us: f64,
    pub ok: bool,
}

/// Closed loop: `clients` callers (this thread plus at most one
/// more), each resubmitting working-set specs back to back and
/// fetching the report, until `requests` have been sent or `cap` has
/// passed. Every answer must be a run-cache hit whose report is
/// byte-identical to the primed one. The request count is fixed rather
/// than the time because the daemon keeps every job it serves: its
/// memory then depends on the work done, not on the host's speed.
/// Returns the samples and the error messages.
pub fn closed_phase(
    addr: &str,
    specs: &[JobSpec],
    primed: &[String],
    order_seed: u64,
    clients: usize,
    requests: usize,
    cap: Duration,
) -> (Vec<ClosedSample>, Vec<String>) {
    let end = Instant::now() + cap;
    let sent = AtomicUsize::new(0);
    let run_client = |k: usize| {
        let mut out = Vec::new();
        let mut errors = Vec::new();
        let mut i = (order_seed as usize).wrapping_add(k * 7919);
        while sent.fetch_add(1, Ordering::Relaxed) < requests && Instant::now() < end {
            i = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (i >> 33) % specs.len();
            let t0 = Instant::now();
            let sub = client::submit(addr, &specs[pick]);
            let submit_us = t0.elapsed().as_secs_f64() * 1e6;
            let mut sample = ClosedSample {
                latency_ms: 0.0,
                submit_us,
                fetch_us: 0.0,
                ok: false,
            };
            match sub {
                Ok(r) if r.cached => match fetch_report(addr, r.job) {
                    Ok((json, fetch_us)) => {
                        sample.fetch_us = fetch_us;
                        if json == primed[pick] {
                            sample.ok = true;
                        } else {
                            errors.push(format!("job {}: cached report differs", r.job));
                        }
                    }
                    Err(e) => errors.push(e),
                },
                Ok(r) => errors.push(format!("job {} was not a run-cache hit", r.job)),
                Err(e) => errors.push(e),
            }
            sample.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            out.push(sample);
        }
        (out, errors)
    };
    std::thread::scope(|s| {
        let other = (clients > 1).then(|| s.spawn(|| run_client(1)));
        let (mut out, mut errors) = run_client(0);
        if let Some(h) = other {
            let (o, e) = h.join().expect("client thread panicked");
            out.extend(o);
            errors.extend(e);
        }
        (out, errors)
    })
}

/// Submits `specs` one after another and waits for each to finish.
pub fn run_all(addr: &str, specs: &[JobSpec]) -> Result<Vec<u64>, String> {
    let mut ids = Vec::with_capacity(specs.len());
    for spec in specs {
        let r = client::submit(addr, spec)?;
        if r.cached || r.coalesced {
            return Err(format!("priming job {} was not fresh", r.job));
        }
        ids.push(r.job);
    }
    for &id in &ids {
        client::stream_lines(addr, &format!("/v1/jobs/{id}/events"), |_| {})?;
    }
    Ok(ids)
}

/// Client-timed `GET /v1/health` round trips, µs.
pub fn health_rtts(addr: &str, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            match client::request(addr, "GET", "/v1/health", None)? {
                (200, _) => Ok(t0.elapsed().as_secs_f64() * 1e6),
                (s, b) => Err(format!("health check {s}: {b}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(planned_specs(11, 50), planned_specs(11, 50));
        assert_ne!(planned_specs(11, 50), planned_specs(12, 50));
        assert_eq!(arrivals(11, 30.0, 2.0), arrivals(11, 30.0, 2.0));
        let seeds: std::collections::BTreeSet<u64> =
            planned_specs(11, 500).iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 500, "every planned job is unique");
    }

    #[test]
    fn working_set_has_the_exact_mix() {
        let cheap = plan_options(3).cheap_instructions;
        let set = working_set(3, 32, 8);
        assert_eq!(set.len(), 40);
        assert_eq!(set.iter().filter(|s| s.instructions == cheap).count(), 32);
        assert_eq!(set, working_set(3, 32, 8));
    }

    #[test]
    fn arrivals_stay_inside_the_span() {
        let a = arrivals(5, 40.0, 3.0);
        assert!(a.iter().all(|&o| o < 3_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((60..=180).contains(&a.len()), "{} arrivals", a.len());
    }
}
