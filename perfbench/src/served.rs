//! The served workloads — `get`, `sample` and `screen` — driven through
//! an in-process `Server` with `zsmiles serve`'s defaults and one
//! `QueryClient` connection on the benchmark's single client thread.

use molgen::Dataset;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zsmiles_core::serve::{ErrorCode, HitRow, Response};
use zsmiles_core::{
    AnyDictionary, ClientOptions, DeckReader, QueryClient, ServeHandle, ServeOptions, Server,
};

use crate::deck::{self, Rng, WorkDir};
use crate::layers::{self, ReadOp, SWEEP_BATCH};
use crate::measure::{cpu_time, mean, peak_rss_bytes, quantile, reset_peak_rss, LoopStats, Report};
use crate::trace::{Trace, ROOT};
use crate::{Figures, Res, Workload};

/// Served deck of `get` and `sample`: 4 seeded shuffles of a 131 072-line
/// generated pool, 524 288 lines (~27 MB raw) in 16 shards.
pub const SERVED_POOL: usize = 131_072;
pub const SERVED_COPIES: usize = 4;
/// Screen deck: 20 480 lines, so one `TOP_HITS` sweep takes about 0.2 s
/// and a 25 s run still answers over 100 requests, enough for ten beyond
/// p90.
pub const SCREEN_LINES: usize = 20_480;
/// Distinct lines per `sample` batch. On a shared 2-vCPU VM, batches of
/// 256 lines (about 0.5 ms each, one or two in flight) hand work between
/// threads on the two vCPUs thousands of times a second, and their ops/s
/// swung 3.5x within minutes as the host's load moved; over seeds run
/// interleaved with 4096-line batches, ops/s and p90 spread 0.27 and
/// 0.33 against 0.09 and 0.18.
pub const SAMPLE_BATCH: usize = 4096;
/// Hits per `TOP_HITS` request.
pub const TOP_K: u32 = 25;

/// Requests in flight on the one connection, on every served workload.
pub const DEPTH: usize = 1;

/// `zsmiles serve`'s defaults, with the vscreen screener installed.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        screener: Some(Arc::new(vscreen::PocketScreener)),
        ..ServeOptions::default()
    }
}

fn client_options() -> ClientOptions {
    ClientOptions {
        connect_timeout: Some(Duration::from_secs(5)),
        read_timeout: Some(Duration::from_secs(30)),
        ..ClientOptions::default()
    }
}

/// The pocket seed every `screen` op asks for.
fn pocket_seed(seed: u64) -> u64 {
    Rng::new(seed ^ 0x5C2EE7).next_u64()
}

/// Op `i` of a workload's stream: a pure function of `(seed, i)`, so the
/// post-run check and the traced replay can regenerate any op.
pub fn op(w: Workload, seed: u64, i: u64, deck_lines: u64) -> ReadOp {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    match w {
        Workload::Get => ReadOp::Get(rng.below(deck_lines)),
        Workload::Sample => {
            let mut lines: Vec<u64> = Vec::with_capacity(SAMPLE_BATCH);
            let mut seen = HashSet::with_capacity(SAMPLE_BATCH);
            while lines.len() < SAMPLE_BATCH {
                let l = rng.below(deck_lines);
                if seen.insert(l) {
                    lines.push(l);
                }
            }
            ReadOp::Many(lines)
        }
        Workload::Screen => ReadOp::TopHits {
            k: TOP_K,
            seed: pocket_seed(seed),
        },
        Workload::Pack => unreachable!("pack ops are not reads"),
    }
}

/// Hash of one line, a word at a time.
fn line_hash(line: &[u8]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    let mut chunks = line.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h, u64::from_le_bytes(tail) ^ ((line.len() as u64) << 56))
}

fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// Order-sensitive digest of the lines one op returned, from their
/// line hashes.
fn digest(hashes: impl Iterator<Item = u64>) -> u64 {
    hashes.fold(0x1319_8A2E_0370_7344, mix)
}

/// `line_hash` of every deck line as a direct `DeckReader::get` returns
/// it, computed on `nproc()` threads.
fn direct_line_hashes(reader: &DeckReader) -> Res<Vec<u64>> {
    let n = reader.len();
    let per = n.div_ceil(deck::nproc()).max(1);
    let mut table = vec![0u64; n];
    std::thread::scope(|scope| {
        let handles: Vec<_> = table
            .chunks_mut(per)
            .enumerate()
            .map(|(k, out)| {
                scope.spawn(move || -> Result<(), zsmiles_core::ZsmilesError> {
                    for (j, slot) in out.iter_mut().enumerate() {
                        *slot = line_hash(&reader.get(k * per + j)?);
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("hash thread panicked"))
    })?;
    Ok(table)
}

/// A served deck ready for clients.
pub struct Served {
    pub deck: Dataset,
    pub dict: AnyDictionary,
    pub manifest: std::path::PathBuf,
    pub stored_bytes: u64,
    pub reader: DeckReader,
    pub handle: ServeHandle,
}

/// Read the whole deck over the wire in `GET_RANGE` batches and check it
/// against the raw deck; returns the number of requests sent. This is
/// the set-up's warm-up: every page of the server's mapping is touched
/// once, so measured reads cost CPU and not page faults or the device.
pub fn sweep_check(handle: &ServeHandle, deck: &Dataset) -> Res<u64> {
    let mut c = QueryClient::connect_with(handle.addr(), &client_options())?;
    let n = deck.len() as u64;
    let mut requests = 0;
    for start in (0..n).step_by(SWEEP_BATCH as usize) {
        let end = (start + SWEEP_BATCH).min(n);
        let lines = c.get_range(start, end)?;
        requests += 1;
        for (k, line) in lines.iter().enumerate() {
            if line.as_slice() != deck.line(start as usize + k) {
                return Err(
                    format!("served line {} differs from the deck", start as usize + k).into(),
                );
            }
        }
    }
    Ok(requests)
}

/// Set-up: generate the deck, train the dictionary, pack, start the
/// server and warm it up.
fn setup(w: Workload, seed: u64, dir: &Path, trace: Option<&mut Trace>) -> Res<Served> {
    let deck = match w {
        Workload::Screen => deck::generate(SCREEN_LINES, seed),
        _ => deck::generate_tiled(SERVED_POOL, SERVED_COPIES, seed),
    };
    let dict = deck::train(&deck)?;
    let info = deck::pack_traced(deck.as_bytes(), &dict, &dir.join("deck.zsm"), trace)?;
    let stored_bytes = deck::stored_bytes(&info)?;
    let handle = Server::start(&info.manifest_path, "127.0.0.1:0", serve_options())?;
    sweep_check(&handle, &deck)?;
    if let Workload::Screen = w {
        let mut c = QueryClient::connect_with(handle.addr(), &client_options())?;
        c.top_hits(TOP_K, &pocket_seed(seed).to_string())?;
    }
    let reader = DeckReader::open(&info.manifest_path)?;
    Ok(Served {
        deck,
        dict,
        manifest: info.manifest_path,
        stored_bytes,
        reader,
        handle,
    })
}

/// The local campaign a `TOP_HITS` answer must equal: `vscreen::screen`
/// over the deck, then `top_hits_cold` over the same deck on disk.
fn local_hits(s: &Served, seed: u64) -> Res<Vec<HitRow>> {
    let pocket = vscreen::Pocket::from_seed(pocket_seed(seed));
    let scores = vscreen::screen(&s.deck, &pocket);
    let cold = vscreen::ColdArchive::open(&s.manifest)?;
    Ok(vscreen::top_hits_cold(&cold, &scores, TOP_K as usize)?
        .into_iter()
        .map(|h| HitRow {
            index: h.index as u64,
            score_bits: h.score.to_bits(),
            smiles: h.smiles,
        })
        .collect())
}

/// Why an op failed, counted against attempts.
#[derive(Debug, Default)]
pub struct Failures {
    by_kind: BTreeMap<String, u64>,
    /// Connects that failed: no request reached the server.
    pub connect: u64,
}

impl Failures {
    fn count(&mut self, kind: impl Into<String>) {
        *self.by_kind.entry(kind.into()).or_default() += 1;
    }

    pub fn describe(&self) -> String {
        format!("{:?} (connect failures: {})", self.by_kind, self.connect)
    }
}

fn classify(e: &zsmiles_core::ZsmilesError) -> &'static str {
    let msg = e.to_string();
    if msg.contains("silent") || msg.contains("timed out") || msg.contains("WouldBlock") {
        "timeout"
    } else if msg.contains("Busy") {
        "busy"
    } else {
        "error"
    }
}

/// Ops of one closed-loop mode (untraced or traced), accumulated over
/// one or more time slices.
#[derive(Default)]
struct Phase {
    stats: LoopStats,
    /// Digest per issued op; `None` where the op failed.
    digests: Vec<Option<u64>>,
    /// `TOP_HITS` answers that differed from the local campaign.
    wrong_hits: u64,
    failures: Failures,
    /// Requests the server counted while this phase ran.
    requests: u64,
}

/// Run a closed loop for `budget`, continuing `ph`'s op stream, with
/// `depth` requests in flight on one connection. Each completed op's
/// latency (from its send to its response) and digest are recorded;
/// failures are classified and the connection is re-opened.
fn run_phase(
    w: Workload,
    seed: u64,
    s: &Served,
    expected_hits: &[HitRow],
    budget: Duration,
    mut trace: Option<&mut Trace>,
    ph: &mut Phase,
) {
    let n = s.deck.len() as u64;
    let requests0 = s.handle.stats().requests;
    let mut issued = ph.digests.len() as u64;
    let start = Instant::now();
    let cpu0 = cpu_time();
    'outer: while start.elapsed() < budget {
        let mut client = match QueryClient::connect_with(s.handle.addr(), &client_options()) {
            Ok(c) => c,
            Err(_) => {
                ph.failures.connect += 1;
                ph.stats.attempted += 1;
                ph.stats.failed += 1;
                continue;
            }
        };
        let mut pipe = client.pipeline(DEPTH);
        // (op index, send instant, open span) of each op in flight.
        let mut inflight: VecDeque<(u64, Instant, u32)> = VecDeque::new();
        loop {
            let done = start.elapsed() >= budget;
            let result = if done {
                if inflight.is_empty() {
                    break 'outer;
                }
                pipe.recv().map(|r| r.expect("responses owed"))
            } else {
                let i = issued;
                issued += 1;
                ph.stats.attempted += 1;
                ph.digests.push(None);
                let req = op(w, seed, i, n).request();
                let span = match trace.as_mut() {
                    Some(t) => t.begin("client.op", i, ROOT),
                    None => ROOT,
                };
                inflight.push_back((i, Instant::now(), span));
                match pipe.send(&req) {
                    Ok(None) => continue,
                    Ok(Some(resp)) => Ok(resp),
                    Err(e) => Err(e),
                }
            };
            match result {
                Ok(resp) => {
                    let (i, sent, span) = inflight.pop_front().expect("a response answers an op");
                    let lat = sent.elapsed();
                    if let Some(t) = trace.as_mut() {
                        t.end(span);
                    }
                    match resp {
                        Response::Lines(lines) => {
                            let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
                            ph.stats.record(lat.as_nanos() as u64, bytes);
                            ph.digests[i as usize] =
                                Some(digest(lines.iter().map(|l| line_hash(l))));
                        }
                        Response::Hits(rows) => {
                            ph.stats
                                .record(lat.as_nanos() as u64, s.deck.total_bytes() as u64);
                            if rows != expected_hits {
                                ph.wrong_hits += 1;
                            }
                            ph.digests[i as usize] = Some(0);
                        }
                        Response::Error { code, .. } => {
                            ph.stats.failed += 1;
                            ph.failures.count(match code {
                                ErrorCode::Busy => "busy".to_string(),
                                other => format!("{other:?}"),
                            });
                        }
                        other => {
                            ph.stats.failed += 1;
                            ph.failures.count(format!("unexpected {other:?}"));
                        }
                    }
                }
                Err(e) => {
                    // The connection is unusable: every op in flight on
                    // it failed.
                    ph.stats.failed += inflight.len() as u64;
                    for _ in 0..inflight.len() {
                        ph.failures.count(classify(&e));
                    }
                    if let Some(t) = trace.as_mut() {
                        for &(_, _, span) in &inflight {
                            t.end(span);
                        }
                    }
                    continue 'outer;
                }
            }
        }
    }
    ph.stats.wall += start.elapsed();
    ph.stats.cpu += cpu_time() - cpu0;
    ph.requests += s.handle.stats().requests - requests0;
}

/// Check a phase: every completed read equals a direct `DeckReader::get`
/// of the same lines (compared through `direct`, the hash of every deck
/// line as `DeckReader::get` returns it), every `TOP_HITS` equals the local campaign, and the
/// server's request counter reconciles with the client's own counts.
fn check_phase(w: Workload, seed: u64, s: &Served, ph: &Phase, direct: &[u64]) -> Res<()> {
    if ph.wrong_hits > 0 {
        return Err(format!(
            "{} TOP_HITS answers differ from the local campaign",
            ph.wrong_hits
        )
        .into());
    }
    let sent = ph.stats.attempted - ph.failures.connect;
    if ph.requests < ph.stats.completed() || ph.requests > sent {
        return Err(format!(
            "server counted {} requests; client completed {} of {} sent",
            ph.requests,
            ph.stats.completed(),
            sent
        )
        .into());
    }
    if w == Workload::Screen {
        return Ok(());
    }
    let n = s.deck.len() as u64;
    let mut bad = 0u64;
    for (i, d) in ph.digests.iter().enumerate() {
        let Some(d) = d else { continue };
        let expected = match op(w, seed, i as u64, n) {
            ReadOp::Get(l) => digest(std::iter::once(direct[l as usize])),
            ReadOp::Many(ls) => digest(ls.iter().map(|&l| direct[l as usize])),
            _ => unreachable!("only reads are digested"),
        };
        if expected != *d {
            bad += 1;
        }
    }
    if bad > 0 {
        return Err(format!("{bad} served answers differ from DeckReader::get").into());
    }
    Ok(())
}

/// Alternating untraced/traced slices of a traced run.
pub const SLICES: u32 = 6;

pub fn run(w: Workload, seed: u64, seconds: u64, traced: bool, r: &mut Report) -> Res<()> {
    let work = WorkDir::create(w.name())?;
    if !traced {
        let t0 = Instant::now();
        let s = setup(w, seed, &work.fresh("setup")?, None)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let expected = if w == Workload::Screen {
            local_hits(&s, seed)?
        } else {
            Vec::new()
        };
        let mut ph = Phase::default();
        reset_peak_rss()?;
        run_phase(
            w,
            seed,
            &s,
            &expected,
            Duration::from_secs(seconds),
            None,
            &mut ph,
        );
        let peak_rss = peak_rss_bytes()?;
        eprintln!("{}: failures {}", w.name(), ph.failures.describe());
        check_phase(w, seed, &s, &ph, &direct_line_hashes(&s.reader)?)?;
        r.push("setup_s", setup_s, "s");
        ph.stats.report(r)?;
        r.push(
            "stored_bytes_per_raw_byte",
            s.stored_bytes as f64 / s.deck.total_bytes() as f64,
            "ratio",
        );
        r.push("peak_rss_mb", peak_rss as f64 / 1e6, "MB");
        return Ok(());
    }

    // Traced run: one set-up (its pack traced), an untraced phase, a
    // traced phase, then the layer replay of the traced phase's ops.
    let mut t = Trace::new();
    let s = setup(w, seed, &work.fresh("setup")?, Some(&mut t))?;
    let expected = if w == Workload::Screen {
        local_hits(&s, seed)?
    } else {
        Vec::new()
    };
    let third = Duration::from_secs_f64(seconds as f64 / 3.0);
    // Untraced and traced slices alternate, so drift over the run
    // cannot pass for tracing overhead.
    let (mut plain, mut traced_phase) = (Phase::default(), Phase::default());
    for _ in 0..SLICES {
        let slice = third / SLICES;
        run_phase(w, seed, &s, &expected, slice, None, &mut plain);
        run_phase(
            w,
            seed,
            &s,
            &expected,
            slice,
            Some(&mut t),
            &mut traced_phase,
        );
    }
    let direct = direct_line_hashes(&s.reader)?;
    check_phase(w, seed, &s, &plain, &direct)?;
    check_phase(w, seed, &s, &traced_phase, &direct)?;
    r.attempted += plain.stats.attempted + traced_phase.stats.attempted;
    r.failed += plain.stats.failed + traced_phase.stats.failed;

    let n = s.deck.len() as u64;
    let replayed = layers::replay_reads(
        &mut t,
        &s.reader,
        &s.dict,
        (0..traced_phase.digests.len() as u64).map(|i| (i, op(w, seed, i, n))),
        third,
    )?;
    let probe_ops: Vec<ReadOp> = (0..replayed.ops.min(2000))
        .map(|i| op(w, seed, i, n))
        .collect();
    let (range_ns, many_ns, probe_score_ns) =
        layers::read_probes(&mut t, &s.reader, &probe_ops, pocket_seed(seed))?;
    let write = layers::write_probe(
        &mut t,
        s.deck.as_bytes(),
        &s.dict,
        deck::nproc(),
        &work.fresh("replay")?,
    )?;

    plain.stats.latencies_ns.sort_unstable();
    let op_median_ns = quantile(&plain.stats.latencies_ns, 0.5) as f64;
    let plain_mean = mean(&plain.stats.latencies_ns);
    let traced_mean = mean(&t.durations("client.op"));
    let ns = |name: &str| t.self_ns(name);
    let on_path = ["protocol", "shard.fetch", "decompress", "vscreen.score"]
        .iter()
        .map(|name| ns(name))
        .sum::<f64>()
        / replayed.ops.max(1) as f64;
    let pack_ops = t.durations("pack.op").len().max(1) as f64;
    let figures = Figures {
        write,
        shard_write_busy_ms: ns("shard.write") / 1e6 / pack_ops,
        shard_finish_ms: ns("shard.finish") / 1e6 / pack_ops,
        fetch_ns: ns("shard.fetch") / replayed.lines.max(1) as f64,
        get_many_ns_per_line: many_ns,
        get_range_ns_per_line: range_ns,
        decompress_ns_per_line: ns("decompress") / replayed.lines.max(1) as f64,
        protocol_ns_per_request: ns("protocol") / replayed.ops.max(1) as f64,
        requests_per_op: traced_phase.requests as f64 / traced_phase.stats.attempted.max(1) as f64,
        bytes_mapped_mb: s.reader.bytes_mapped() as f64 / 1e6,
        score_ns_per_line: if w == Workload::Screen {
            ns("vscreen.score") / replayed.scored.max(1) as f64
        } else {
            probe_score_ns
        },
        op_median_us: op_median_ns / 1e3,
        layers_us_per_op: on_path / 1e3,
        overhead_ratio: traced_mean / plain_mean,
    };
    figures.report(r);
    t.write_tsv(&Path::new(".bench_trace").join(format!("{}.tsv", w.name())))?;
    Ok(())
}
