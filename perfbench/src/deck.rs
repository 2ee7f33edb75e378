//! Deck generation, dictionary training and packing — the set-up every
//! workload shares — plus the scratch directory a run works in.

use molgen::Dataset;
use std::path::{Path, PathBuf};
use zsmiles_core::train::DictBuilder as _;
use zsmiles_core::{
    AnyDictionary, BaseBuilder, ShardPolicy, ShardedPackInfo, ShardedWriter, TrainCorpus,
    TrainOptions, WriterOptions, ZsmilesError,
};

use crate::trace::{Trace, ROOT};

/// Lines per shard of every packed deck (the CLI's `--shard-lines`).
pub const SHARD_LINES: u64 = 32_768;

/// Raw bytes handed to `ShardedWriter::write` per call, as the CLI's
/// `pack` streams its input.
pub const WRITE_CHUNK: usize = 1 << 20;

/// Op id of spans that belong to no client op (set-up, probes).
pub const NO_OP: u64 = u64::MAX;

/// Worker threads the machine offers; packing and encode use all of them.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: the benchmark's only random source, so a seed fixes every
/// input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2^-40 for
    /// the deck sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A seeded molgen mixed deck of `lines` lines, generated in `nproc()`
/// parts on as many threads (each part has its own derived seed).
pub fn generate(lines: usize, seed: u64) -> Dataset {
    let parts = nproc().min(lines.max(1));
    let per = lines.div_ceil(parts);
    let decks: Vec<Dataset> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|p| {
                let n = per.min(lines - p * per);
                let part_seed = Rng::new(seed ^ (p as u64).wrapping_mul(0xA24B_AED4)).next_u64();
                s.spawn(move || Dataset::generate_mixed(n, part_seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("deck generator thread panicked"))
            .collect()
    });
    let refs: Vec<&Dataset> = decks.iter().collect();
    Dataset::concat(&refs)
}

/// A deck of `copies × pool` lines: `copies` seeded shuffles of one
/// generated pool of molecules. Generating costs about 20 µs a line, so
/// the large served deck repeats molecules at distinct line numbers
/// rather than generating every line.
pub fn generate_tiled(pool: usize, copies: usize, seed: u64) -> Dataset {
    let base = generate(pool, seed);
    let mut rng = Rng::new(seed ^ 0x711E);
    let mut order: Vec<usize> = (0..base.len()).collect();
    let mut deck = Dataset::new();
    for _ in 0..copies {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for &i in &order {
            deck.push(base.line(i));
        }
    }
    deck
}

/// Fit a base dictionary to the deck the way `pack --train
/// --no-preprocess` does: a seeded reservoir sample of the CLI's default
/// size, then cost-guided selection. Ring-ID preprocessing stays off
/// because it renumbers ring IDs, and every check here compares decks,
/// served lines and hits byte for byte with the raw deck.
pub fn train(deck: &Dataset) -> Result<AnyDictionary, ZsmilesError> {
    let opts = TrainOptions {
        preprocess: false,
        ..TrainOptions::default()
    };
    let corpus = TrainCorpus::sample(deck.as_bytes(), opts.sample_lines, opts.seed)?;
    Ok(BaseBuilder { opts }
        .train(&corpus)?
        .into_dictionary()
        .expect("the base builder produces a dictionary"))
}

/// Pack `raw` into a sharded deck at `manifest` with production
/// durability: every shard goes through `AtomicFileSink` with deferred
/// fsyncs, then the manifest commits. With a trace, each
/// `ShardedWriter::write` call and the `finish` call get a span under
/// `parent`.
pub fn pack(
    raw: &[u8],
    dict: &AnyDictionary,
    manifest: &Path,
    mut trace: Option<(&mut Trace, u64, u32)>,
) -> Result<ShardedPackInfo, ZsmilesError> {
    let opts = WriterOptions {
        threads: nproc(),
        ..WriterOptions::default()
    };
    let mut w = ShardedWriter::create(
        manifest,
        dict.clone(),
        ShardPolicy::by_lines(SHARD_LINES),
        opts,
    )?;
    for chunk in raw.chunks(WRITE_CHUNK) {
        match trace.as_mut() {
            Some((t, op, parent)) => t.span("shard.write", *op, *parent, || w.write(chunk))?,
            None => w.write(chunk)?,
        }
    }
    match trace {
        Some((t, op, parent)) => t.span("shard.finish", op, parent, || w.finish()),
        None => w.finish(),
    }
}

/// Every file a published sharded deck consists of: the manifest and
/// each shard it names.
pub fn deck_files(info: &ShardedPackInfo) -> Vec<PathBuf> {
    let dir = info.manifest_path.parent().unwrap_or(Path::new("."));
    std::iter::once(info.manifest_path.clone())
        .chain(info.shards.iter().map(|s| dir.join(&s.file)))
        .collect()
}

/// Bytes on disk of a published deck: manifest, headers, dictionaries,
/// payload, index and footers.
pub fn stored_bytes(info: &ShardedPackInfo) -> Result<u64, ZsmilesError> {
    let mut total = 0;
    for f in deck_files(info) {
        total += std::fs::metadata(&f)?.len();
    }
    Ok(total)
}

/// Trace a set-up pack as one root span, when tracing.
pub fn pack_traced(
    raw: &[u8],
    dict: &AnyDictionary,
    manifest: &Path,
    trace: Option<&mut Trace>,
) -> Result<ShardedPackInfo, ZsmilesError> {
    match trace {
        Some(t) => {
            let root = t.begin("pack.op", NO_OP, ROOT);
            let info = pack(raw, dict, manifest, Some((&mut *t, NO_OP, root)));
            t.end(root);
            info
        }
        None => pack(raw, dict, manifest, None),
    }
}

/// A scratch directory under the checkout, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.0.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
