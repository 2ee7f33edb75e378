//! perfbench: the end-to-end and per-layer benchmark of zsmiles.
//!
//! ```text
//! perfbench --workload <pack|get|sample|screen> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Either way a run sets up once: deck generation, dictionary training,
//! packing, and for served workloads server start and warm-up. With
//! `--trace 0` it then runs the workload's closed loop for `S` seconds,
//! checks every output, and prints the end-to-end metrics. With
//! `--trace 1` it runs the
//! loop untraced and traced for `S/3` seconds each, replays the traced
//! ops layer by layer for up to `S/3`, writes the spans to
//! `.bench_trace/<workload>.tsv`, and prints the per-layer metrics. The
//! last line of standard output is the JSON result either way.

mod deck;
mod layers;
mod measure;
mod pack;
mod served;
mod trace;

use measure::Report;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pack,
    Get,
    Sample,
    Screen,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "pack" => Workload::Pack,
            "get" => Workload::Get,
            "sample" => Workload::Sample,
            "screen" => Workload::Screen,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pack => "pack",
            Workload::Get => "get",
            Workload::Sample => "sample",
            Workload::Screen => "screen",
        }
    }
}

/// Every per-layer figure a traced run reports.
#[derive(Debug)]
pub struct Figures {
    pub write: layers::WriteLayers,
    pub shard_write_busy_ms: f64,
    pub shard_finish_ms: f64,
    pub fetch_ns: f64,
    pub get_many_ns_per_line: f64,
    pub get_range_ns_per_line: f64,
    pub decompress_ns_per_line: f64,
    pub protocol_ns_per_request: f64,
    pub requests_per_op: f64,
    pub bytes_mapped_mb: f64,
    pub score_ns_per_line: f64,
    /// Median untraced op time.
    pub op_median_us: f64,
    /// Self time of the workload's on-path layers per op.
    pub layers_us_per_op: f64,
    pub overhead_ratio: f64,
}

impl Figures {
    fn report(&self, r: &mut Report) {
        let w = &self.write;
        r.push("compress.ns_per_line", w.compress_ns_per_line, "ns");
        r.push("compress.payload_ratio", w.payload_ratio, "ratio");
        r.push("parallel.encode_mb_s", w.parallel_mb_s, "MB/s");
        r.push("index.ns_per_line", w.index_ns_per_line, "ns");
        r.push("index.bytes_per_line", w.index_bytes_per_line, "B");
        r.push("shard.write_busy_ms", self.shard_write_busy_ms, "ms");
        r.push("shard.finish_ms", self.shard_finish_ms, "ms");
        r.push("shard.fetch_ns", self.fetch_ns, "ns");
        r.push(
            "shard.get_many_ns_per_line",
            self.get_many_ns_per_line,
            "ns",
        );
        r.push(
            "shard.get_range_ns_per_line",
            self.get_range_ns_per_line,
            "ns",
        );
        r.push("sink.write_mb_s", w.sink_write_mb_s, "MB/s");
        r.push("sink.commit_ms", w.sink_commit_ms, "ms");
        r.push(
            "sink.bytes_per_raw_byte",
            w.sink_bytes_per_raw_byte,
            "ratio",
        );
        r.push("decompress.ns_per_line", self.decompress_ns_per_line, "ns");
        r.push(
            "protocol.ns_per_request",
            self.protocol_ns_per_request,
            "ns",
        );
        r.push("serve.requests_per_op", self.requests_per_op, "count");
        r.push("source.bytes_mapped_mb", self.bytes_mapped_mb, "MB");
        r.push("vscreen.score_ns_per_line", self.score_ns_per_line, "ns");
        r.push("op.median_us", self.op_median_us, "us");
        r.push("layers.self_us_per_op", self.layers_us_per_op, "us");
        r.push(
            "residual_us",
            self.op_median_us - self.layers_us_per_op,
            "us",
        );
        r.push("trace.overhead_ratio", self.overhead_ratio, "ratio");
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload '{workload}' (pack|get|sample|screen)"))?,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pack|get|sample|screen> --seed N --seconds S --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload {
        Workload::Pack => pack::run(args.seed, args.seconds, args.trace, &mut report),
        w => served::run(w, args.seed, args.seconds, args.trace, &mut report),
    };
    match outcome {
        Ok(()) => {
            report.correct = true;
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            report.correct = false;
            println!("{}", report.to_json());
            std::process::exit(1);
        }
    }
}
