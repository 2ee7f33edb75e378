//! Layer replay for the traced run: the exact inputs of a workload's ops
//! are fed again, in process, through the public functions of each layer,
//! with a span around every call.
//!
//! On-path spans carry the op id of the op they replay; their self times
//! add up, per op, to the layer share of the end-to-end op time. Probe
//! spans (op id [`NO_OP`]) measure a layer this workload does not cross
//! on its own path, on this workload's deck, so every traced run reports
//! every layer.

use std::path::Path;
use zsmiles_core::serve::{HitRow, Request, Response, Screener as _};
use zsmiles_core::{
    compress_parallel_dyn, sync_parent_dir, AnyDictionary, ArchiveSink, ArchiveWriter,
    AtomicFileSink, CountingSink, DeckReader, DynEngine as _, LineIndex, WriterOptions,
    ZsmilesError,
};

use crate::deck::{NO_OP, SHARD_LINES};
use crate::trace::{Trace, ROOT};

/// One client op as the layers see it.
#[derive(Debug, Clone)]
pub enum ReadOp {
    /// `GET` of one line.
    Get(u64),
    /// `GET_MANY` of a line set, answered in request order.
    Many(Vec<u64>),
    /// `GET_RANGE` of `start..end`.
    Range(u64, u64),
    /// `TOP_HITS`: score the whole deck against a pocket seed.
    TopHits { k: u32, seed: u64 },
}

/// Lines per `get_range` batch of a server-side `TOP_HITS` sweep (the
/// server's own batch size).
pub const SWEEP_BATCH: u64 = 4096;

impl ReadOp {
    pub fn request(&self) -> Request {
        match self {
            ReadOp::Get(line) => Request::Get { line: *line },
            ReadOp::Many(lines) => Request::GetMany {
                lines: lines.clone(),
            },
            ReadOp::Range(start, end) => Request::GetRange {
                start: *start,
                end: *end,
            },
            ReadOp::TopHits { k, seed } => Request::TopHits {
                k: *k,
                pattern: seed.to_string(),
            },
        }
    }

    /// The line sets the op reads, batch by batch.
    fn batches(&self, deck_lines: u64) -> Vec<Vec<u64>> {
        match self {
            ReadOp::Get(line) => vec![vec![*line]],
            ReadOp::Many(lines) => vec![lines.clone()],
            ReadOp::Range(start, end) => vec![(*start..*end).collect()],
            ReadOp::TopHits { .. } => (0..deck_lines)
                .step_by(SWEEP_BATCH as usize)
                .map(|s| (s..(s + SWEEP_BATCH).min(deck_lines)).collect())
                .collect(),
        }
    }
}

/// Encode a frame and decode it back, as the two ends of the wire do.
fn wire_roundtrip_request(req: &Request) -> Result<(), ZsmilesError> {
    let frame = req.encode();
    let back = Request::decode(&frame[4..])?;
    assert_eq!(&back, req, "request frame round trip");
    Ok(())
}

fn wire_roundtrip_response(resp: &Response) -> Result<(), ZsmilesError> {
    let frame = resp.encode();
    let back = Response::decode(&frame[4..])?;
    assert_eq!(&back, resp, "response frame round trip");
    Ok(())
}

/// How much of the op stream a read replay covered.
#[derive(Debug, Default)]
pub struct ReadReplay {
    pub ops: u64,
    pub lines: u64,
    pub scored: u64,
}

/// Replay `ops` through protocol, shard fetch, decompress and (for
/// `TOP_HITS`) vscreen scoring, one root span per op. Stops early once
/// `budget` has elapsed; returns how much was replayed.
pub fn replay_reads(
    t: &mut Trace,
    reader: &DeckReader,
    dict: &AnyDictionary,
    ops: impl Iterator<Item = (u64, ReadOp)>,
    budget: std::time::Duration,
) -> Result<ReadReplay, ZsmilesError> {
    let deck_lines = reader.len() as u64;
    let mut dec = dict.boxed_decoder();
    let screener = vscreen::PocketScreener;
    let started = std::time::Instant::now();
    let mut out = ReadReplay::default();
    for (op, read) in ops {
        if started.elapsed() >= budget {
            break;
        }
        let root = t.begin("replay.op", op, ROOT);
        let req = read.request();
        t.span("protocol", op, root, || wire_roundtrip_request(&req))?;
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        for batch in read.batches(deck_lines) {
            let compressed = t.span("shard.fetch", op, root, || {
                batch
                    .iter()
                    .map(|&i| reader.compressed_line(i as usize))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let decoded = t.span("decompress", op, root, || {
                compressed
                    .iter()
                    .map(|z| {
                        let mut line = Vec::with_capacity(z.len() * 3);
                        dec.decode_line(z, &mut line).map(|_| line)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            out.lines += batch.len() as u64;
            if let ReadOp::TopHits { seed, .. } = read {
                t.span("vscreen.score", op, root, || {
                    screener.score_batch(&seed.to_string(), &decoded, &mut scores)
                })?;
                out.scored += decoded.len() as u64;
            }
            lines.extend(decoded);
        }
        let resp = match read {
            ReadOp::TopHits { k, .. } => {
                let rows = t.span("vscreen.score", op, root, || {
                    vscreen::ScoreTable::new(std::mem::take(&mut scores)).top_k(k as usize)
                });
                Response::Hits(
                    rows.into_iter()
                        .map(|(i, s)| HitRow {
                            index: i as u64,
                            score_bits: s.to_bits(),
                            smiles: std::mem::take(&mut lines[i]),
                        })
                        .collect(),
                )
            }
            _ => Response::Lines(lines),
        };
        t.span("protocol", op, root, || wire_roundtrip_response(&resp))?;
        t.end(root);
        out.ops += 1;
    }
    Ok(out)
}

/// Off-path read probes on the whole deck: a `get_range` sweep in
/// [`SWEEP_BATCH`] batches, `get_many` over the replayed ops' line sets,
/// and vscreen scoring of the first sweep batch. Returns
/// `(get_range ns/line, get_many ns/line, score ns/line)`.
pub fn read_probes(
    t: &mut Trace,
    reader: &DeckReader,
    ops: &[ReadOp],
    score_seed: u64,
) -> Result<(f64, f64, f64), ZsmilesError> {
    let n = reader.len() as u64;
    let mut first_batch = Vec::new();
    let s = t.begin("probe.get_range", NO_OP, ROOT);
    for start in (0..n).step_by(SWEEP_BATCH as usize) {
        let lines = reader.get_range(start as usize..(start + SWEEP_BATCH).min(n) as usize)?;
        if start == 0 {
            first_batch = lines;
        }
    }
    t.end(s);
    let range_ns = t.self_ns("probe.get_range") / n.max(1) as f64;

    let mut many_lines = 0u64;
    let s = t.begin("probe.get_many", NO_OP, ROOT);
    for op in ops {
        for batch in op.batches(n) {
            let idx: Vec<usize> = batch.iter().map(|&i| i as usize).collect();
            many_lines += reader.get_many(&idx)?.len() as u64;
        }
    }
    t.end(s);
    let many_ns = t.self_ns("probe.get_many") / many_lines.max(1) as f64;

    let mut scores = Vec::new();
    t.span("probe.vscreen", NO_OP, ROOT, || {
        vscreen::PocketScreener.score_batch(&score_seed.to_string(), &first_batch, &mut scores)
    })?;
    let score_ns = t.self_ns("probe.vscreen") / first_batch.len().max(1) as f64;
    Ok((range_ns, many_ns, score_ns))
}

/// A sink that records a span around every append, header patch and
/// flush the archive writer makes.
struct TracedSink<'t, K> {
    inner: K,
    trace: &'t mut Trace,
    parent: u32,
}

impl<K: ArchiveSink> ArchiveSink for TracedSink<'_, K> {
    fn append(&mut self, buf: &[u8]) -> Result<(), ZsmilesError> {
        let inner = &mut self.inner;
        self.trace
            .span("sink.append", NO_OP, self.parent, || inner.append(buf))
    }

    fn write_at(&mut self, offset: u64, buf: &[u8]) -> Result<(), ZsmilesError> {
        let inner = &mut self.inner;
        self.trace.span("sink.append", NO_OP, self.parent, || {
            inner.write_at(offset, buf)
        })
    }

    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn flush(&mut self) -> Result<(), ZsmilesError> {
        let inner = &mut self.inner;
        self.trace
            .span("sink.append", NO_OP, self.parent, || inner.flush())
    }
}

/// Write-path figures of one deck.
#[derive(Debug)]
pub struct WriteLayers {
    pub compress_ns_per_line: f64,
    pub payload_ratio: f64,
    pub parallel_mb_s: f64,
    pub index_ns_per_line: f64,
    pub index_bytes_per_line: f64,
    pub sink_write_mb_s: f64,
    pub sink_commit_ms: f64,
    pub sink_bytes_per_raw_byte: f64,
}

/// Replay the write path of one pack of `raw` layer by layer: serial
/// encode, pooled encode on `threads` workers (checked byte-identical),
/// the line index over the encoded payload, and the sink: each shard cut
/// the way `ShardedWriter` cuts it, written by a single-threaded
/// `ArchiveWriter` through a metering, traced `AtomicFileSink`, then the
/// deferred fsyncs and the directory fsync.
pub fn write_probe(
    t: &mut Trace,
    raw: &[u8],
    dict: &AnyDictionary,
    threads: usize,
    dir: &Path,
) -> Result<WriteLayers, ZsmilesError> {
    let engine = dict.as_dyn();
    let s = t.begin("compress", NO_OP, ROOT);
    let (serial, stats) = compress_parallel_dyn(engine, raw, 1);
    t.end(s);
    let s = t.begin("parallel", NO_OP, ROOT);
    let (pooled, _) = compress_parallel_dyn(engine, raw, threads);
    t.end(s);
    assert!(serial == pooled, "pooled encode differs from serial encode");
    drop(pooled);
    let s = t.begin("index", NO_OP, ROOT);
    let index = LineIndex::build(&serial);
    t.end(s);
    let mut index_bytes = Vec::new();
    index.write_to(&mut index_bytes)?;
    assert_eq!(index.len(), stats.lines, "one index entry per line");

    let root = t.begin("sink.pack", NO_OP, ROOT);
    let mut appended = 0u64;
    let mut deferred = Vec::new();
    let lines: Vec<&[u8]> = raw
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    for (no, shard) in lines.chunks(SHARD_LINES as usize).enumerate() {
        let sink = TracedSink {
            inner: CountingSink::new(AtomicFileSink::create(
                &dir.join(format!("replay.{no:05}.zsa")),
            )?),
            trace: &mut *t,
            parent: root,
        };
        let mut w = ArchiveWriter::with_options(
            sink,
            dict.clone(),
            WriterOptions {
                threads: 1,
                ..WriterOptions::default()
            },
        )?;
        for line in shard {
            w.write_line(line)?;
        }
        let (sink, _) = w.finish()?;
        appended += sink.inner.bytes_appended();
        let atomic = sink.inner.into_inner();
        deferred.push(t.span("sink.commit", NO_OP, root, || atomic.commit_deferred())?);
    }
    for d in deferred {
        t.span("sink.commit", NO_OP, root, || d.sync())?;
    }
    t.span("sink.commit", NO_OP, root, || {
        sync_parent_dir(&dir.join("replay.zsm"))
    })?;
    t.end(root);

    let ns = |name: &str| t.self_ns(name);
    let nlines = stats.lines.max(1) as f64;
    Ok(WriteLayers {
        compress_ns_per_line: ns("compress") / nlines,
        payload_ratio: stats.ratio(),
        parallel_mb_s: raw.len() as f64 * 1e3 / ns("parallel"),
        index_ns_per_line: ns("index") / nlines,
        index_bytes_per_line: index_bytes.len() as f64 / nlines,
        sink_write_mb_s: appended as f64 * 1e3 / ns("sink.append"),
        sink_commit_ms: ns("sink.commit") / 1e6,
        sink_bytes_per_raw_byte: appended as f64 / raw.len() as f64,
    })
}
