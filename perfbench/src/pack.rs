//! The `pack` workload: one op packs a seeded ~10 MB molgen deck into a
//! sharded deck on local disk, up to the published manifest.

use molgen::Dataset;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zsmiles_core::{AnyDictionary, DeckReader, Server};

use crate::deck::{self, WorkDir};
use crate::layers::{self, ReadOp, SWEEP_BATCH};
use crate::measure::{cpu_time, mean, peak_rss_bytes, quantile, reset_peak_rss, LoopStats, Report};
use crate::served::{self, SLICES};
use crate::trace::{Trace, ROOT};
use crate::{Figures, Res};

/// Lines of the packed deck: 6 shards of `SHARD_LINES`, ~10.2 MB raw.
pub const PACK_LINES: usize = 196_608;

/// The deck, its dictionary, and the bytes of a published, fully checked
/// pack of it that every later pack must reproduce.
struct PackSetup {
    deck: Dataset,
    dict: AnyDictionary,
    manifest: PathBuf,
    reference: Vec<(PathBuf, Vec<u8>)>,
}

/// Set-up: generate, train, and one warm-up pack whose output reopens,
/// passes `verify()` and unpacks back to the deck.
fn setup(seed: u64, dir: &Path) -> Res<PackSetup> {
    let deck = deck::generate(PACK_LINES, seed);
    let dict = deck::train(&deck)?;
    let info = deck::pack(deck.as_bytes(), &dict, &dir.join("deck.zsm"), None)?;
    let reader = DeckReader::open(&info.manifest_path)?;
    reader.verify()?;
    let mut unpacked = Vec::with_capacity(deck.total_bytes());
    reader.unpack_to(&mut unpacked, deck::nproc(), deck::WRITE_CHUNK)?;
    if unpacked != deck.as_bytes() {
        return Err("the published deck does not unpack back to the deck".into());
    }
    let mut reference = Vec::new();
    for f in deck::deck_files(&info) {
        let name = PathBuf::from(f.file_name().expect("deck files have names"));
        reference.push((name, std::fs::read(&f)?));
    }
    Ok(PackSetup {
        deck,
        dict,
        manifest: info.manifest_path,
        reference,
    })
}

/// Packs back to back for `budget` of pack time, added to `stats`. Every
/// output must be byte-identical to the checked reference pack; it is
/// then deleted (neither check nor delete is timed).
fn run_phase(
    p: &PackSetup,
    work: &WorkDir,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    stats: &mut LoopStats,
) -> Res<()> {
    let mut op = stats.attempted;
    let until = stats.wall + budget;
    while stats.wall < until {
        let dir = work.fresh("op")?;
        let manifest = dir.join("deck.zsm");
        stats.attempted += 1;
        let cpu0 = cpu_time();
        let t0 = Instant::now();
        let packed = match trace.as_mut() {
            Some(t) => {
                let root = t.begin("pack.op", op, ROOT);
                let info = deck::pack(p.deck.as_bytes(), &p.dict, &manifest, Some((t, op, root)));
                t.end(root);
                info
            }
            None => deck::pack(p.deck.as_bytes(), &p.dict, &manifest, None),
        };
        let lat = t0.elapsed();
        stats.cpu += cpu_time() - cpu0;
        stats.wall += lat;
        op += 1;
        let info = match packed {
            Ok(info) => info,
            Err(e) => {
                eprintln!("pack: op failed: {e}");
                stats.failed += 1;
                continue;
            }
        };
        let files = deck::deck_files(&info);
        if files.len() != p.reference.len() {
            return Err("a pack wrote a different number of files".into());
        }
        for (f, (name, bytes)) in files.iter().zip(&p.reference) {
            if f.file_name() != Some(name.as_os_str()) || std::fs::read(f)? != *bytes {
                return Err(
                    format!("pack output {} differs from the checked pack", f.display()).into(),
                );
            }
        }
        stats.record(lat.as_nanos() as u64, p.deck.total_bytes() as u64);
    }
    std::fs::remove_dir_all(work.path().join("op"))?;
    Ok(())
}

pub fn run(seed: u64, seconds: u64, traced: bool, r: &mut Report) -> Res<()> {
    let work = WorkDir::create("pack")?;
    if !traced {
        let t0 = Instant::now();
        let p = setup(seed, &work.fresh("setup")?)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let mut stats = LoopStats::default();
        reset_peak_rss()?;
        run_phase(&p, &work, Duration::from_secs(seconds), None, &mut stats)?;
        let peak_rss = peak_rss_bytes()?;
        r.push("setup_s", setup_s, "s");
        stats.report(r)?;
        let stored: usize = p.reference.iter().map(|(_, b)| b.len()).sum();
        r.push(
            "stored_bytes_per_raw_byte",
            stored as f64 / p.deck.total_bytes() as f64,
            "ratio",
        );
        r.push("peak_rss_mb", peak_rss as f64 / 1e6, "MB");
        return Ok(());
    }

    let mut t = Trace::new();
    let p = setup(seed, &work.fresh("setup")?)?;
    let third = Duration::from_secs_f64(seconds as f64 / 3.0);
    let (mut plain, mut traced_phase) = (LoopStats::default(), LoopStats::default());
    for _ in 0..SLICES {
        let slice = third / SLICES;
        run_phase(&p, &work, slice, None, &mut plain)?;
        run_phase(&p, &work, slice, Some(&mut t), &mut traced_phase)?;
    }
    r.attempted += plain.attempted + traced_phase.attempted;
    r.failed += plain.failed + traced_phase.failed;

    // The write layers, replayed one by one on the same deck.
    let write = layers::write_probe(
        &mut t,
        p.deck.as_bytes(),
        &p.dict,
        deck::nproc(),
        &work.fresh("replay")?,
    )?;
    // The read layers, on the published deck: the check's unpack as
    // `GET_RANGE` sweeps, replayed in process and served over the wire.
    let reader = DeckReader::open(&p.manifest)?;
    let n = reader.len() as u64;
    let sweep: Vec<ReadOp> = (0..n)
        .step_by(SWEEP_BATCH as usize)
        .map(|s| ReadOp::Range(s, (s + SWEEP_BATCH).min(n)))
        .collect();
    let replayed = layers::replay_reads(
        &mut t,
        &reader,
        &p.dict,
        sweep
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, op)| (i as u64, op)),
        third,
    )?;
    let (range_ns, many_ns, score_ns) = layers::read_probes(&mut t, &reader, &sweep, seed)?;
    let handle = Server::start(&p.manifest, "127.0.0.1:0", served::serve_options())?;
    let sent = served::sweep_check(&handle, &p.deck)?;
    let requests_per_op = handle.stats().requests as f64 / sent as f64;
    drop(handle);

    plain.latencies_ns.sort_unstable();
    let ns = |name: &str| t.self_ns(name);
    let ops = traced_phase.latencies_ns.len().max(1) as f64;
    let figures = Figures {
        write,
        shard_write_busy_ms: ns("shard.write") / 1e6 / ops,
        shard_finish_ms: ns("shard.finish") / 1e6 / ops,
        fetch_ns: ns("shard.fetch") / replayed.lines.max(1) as f64,
        get_many_ns_per_line: many_ns,
        get_range_ns_per_line: range_ns,
        decompress_ns_per_line: ns("decompress") / replayed.lines.max(1) as f64,
        protocol_ns_per_request: ns("protocol") / replayed.ops.max(1) as f64,
        requests_per_op,
        bytes_mapped_mb: reader.bytes_mapped() as f64 / 1e6,
        score_ns_per_line: score_ns,
        op_median_us: quantile(&plain.latencies_ns, 0.5) as f64 / 1e3,
        layers_us_per_op: (ns("shard.write") + ns("shard.finish")) / 1e3 / ops,
        overhead_ratio: mean(&traced_phase.latencies_ns) / mean(&plain.latencies_ns),
    };
    figures.report(r);
    t.write_tsv(&Path::new(".bench_trace").join("pack.tsv"))?;
    Ok(())
}
