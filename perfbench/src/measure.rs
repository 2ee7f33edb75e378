//! Measurement primitives: process CPU time from `getrusage(2)`, peak
//! memory from the process's own `/proc/self` entries, percentiles over
//! latency samples, and the per-run metric list printed as the result
//! line.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub tv_sec: i64,
        pub tv_usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then fourteen
    /// `long` counters.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub counters: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// Process-wide CPU time: user plus system, every thread.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time() -> Duration {
    let mut ru = sys::Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let tv = |t: &sys::Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
    tv(&ru.utime) + tv(&ru.stime)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_time() -> Duration {
    compile_error!("perfbench reads CPU time through the 64-bit Linux getrusage layout");
}

/// Reset the process's peak resident set size to its current size, so
/// that [`peak_rss_bytes`] covers only what runs after the reset (set-up
/// allocations then do not hide the measured loop's).
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`]: `VmHWM` of
/// `/proc/self/status`.
pub fn peak_rss_bytes() -> std::io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// The `q`-quantile (0..=1) of sorted samples, nearest-rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// The percentile every workload reports as `latency_tail_ms`. p99 did
/// not repeat from run to run on a shared 2-core machine (its spread
/// across runs reached several times its median on the served reads);
/// p90 did.
pub const TAIL_QUANTILE: f64 = 0.90;

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run prints: correctness, op accounting and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The single-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end figures of one closed-loop phase.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per-op latency of completed ops, nanoseconds, in completion order.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Raw SMILES bytes packed, returned or screened by completed ops.
    pub raw_bytes: u64,
    /// Wall time the ops were measured over.
    pub wall: Duration,
    /// Process CPU spent over `wall`.
    pub cpu: Duration,
}

impl LoopStats {
    /// Record a completed op.
    pub fn record(&mut self, latency_ns: u64, raw_bytes: u64) {
        self.latencies_ns.push(latency_ns);
        self.raw_bytes += raw_bytes;
    }

    pub fn completed(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    /// Push the end-to-end metrics shared by every workload (all but
    /// `setup_s`, the deck ratio and peak memory, which the workload
    /// knows). Rates and CPU per op are totals over the whole phase;
    /// the latency percentiles are over every completed op.
    pub fn report(&self, r: &mut Report) -> Result<(), String> {
        if self.latencies_ns.is_empty() {
            return Err(format!("no op completed of {} attempted", self.attempted));
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let ops = sorted.len() as f64;
        let wall = self.wall.as_secs_f64();
        r.push(
            "throughput_mb_s",
            self.raw_bytes as f64 / 1e6 / wall,
            "MB/s",
        );
        r.push("ops_per_s", ops / wall, "1/s");
        r.push("latency_p50_ms", quantile(&sorted, 0.5) as f64 / 1e6, "ms");
        r.push(
            "latency_tail_ms",
            quantile(&sorted, TAIL_QUANTILE) as f64 / 1e6,
            "ms",
        );
        r.push("cpu_ms_per_op", self.cpu.as_secs_f64() * 1e3 / ops, "ms");
        r.push("ok_ratio", ops / self.attempted.max(1) as f64, "ratio");
        r.attempted += self.attempted;
        r.failed += self.failed;
        Ok(())
    }
}
