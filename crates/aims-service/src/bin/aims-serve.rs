//! `aims-serve` — the TCP front-end over a synthetic demo cube.
//!
//! Usage:
//!
//! ```text
//! aims-serve [--port P] [--side N] [--block B] [--cache C] [--queue Q] [--seed S]
//!            [--data DIR] [--durability always|periodic[:K]|none]
//! ```
//!
//! Binds 127.0.0.1 (port 0 picks a free port), prints
//! `aims-serve listening on 127.0.0.1:{port}` once ready, and runs until
//! a client sends a SHUTDOWN frame.
//!
//! With `--data DIR` the coefficient store lives on a durable
//! [`FileDevice`] instead of memory. A missing directory is built in one
//! streamed pass whose working set is fixed whatever `--side` is (under
//! 1 MiB of buffers plus 8 bytes a row), so the cube is never held whole:
//!
//! 1. **column pass**: the demo cube's cells are generated a tile of
//!    columns at a time, and each tile gets the axis-0 transform and goes
//!    to a spill file, `blocks.aims.spill`, beside the staging file;
//! 2. **row pass**: batches of rows come back from the spill and get the
//!    axis-1 transform ([`stream_demo_coeffs`]: the same coefficients as
//!    the in-memory [`demo_cube`], bit for bit), then go to the store's
//!    [`ImageWriter`](aims_storage::ImageWriter), which digests, prices
//!    (`Σc²`) and encodes each block in the pass that writes it;
//! 3. **publish**: [`finish`](aims_storage::ImageWriter::finish) writes
//!    the digest table and the header, whose meta blob, covered by the
//!    header checksum, records the geometry, the seed and the energy
//!    catalog (the writer's one `Σc²` per block); the spill is unlinked
//!    and a rename publishes the store. The spill is never fsynced. A
//!    server killed mid-create leaves no store, never a part of one, and
//!    at most the staging file and the spill, which the next start
//!    overwrites.
//!
//! An existing directory is reopened (WAL recovery runs; `aims-serve`
//! never writes a block after create, so a store whose recovery replayed
//! a record is refused). `--side`, `--block` and `--seed` may be omitted
//! there; one that is given must match the store. Either way the cube
//! geometry and the energy catalog then come from the header meta, no
//! block is read before the first query (a damaged block is found by the
//! query that reads it and bounded from the catalog), and the service
//! serves every query from the on-disk store.

use std::io::Write;
use std::sync::Arc;

use aims_dsp::dwt::is_power_of_two;
use aims_dsp::filters::{FilterKind, WaveletFilter};
use aims_service::{demo_cube, stream_demo_coeffs, QueryService, Server, ServiceConfig};
use aims_storage::store::AllocKind;
use aims_storage::{BlockDevice, CoefficientStore, DurabilityMode, FileDevice, FileDeviceOptions};

/// The in-memory cube, and a `--data` store being created, when a
/// geometry flag is omitted.
const DEFAULT_SIDE: usize = 64;
const DEFAULT_BLOCK: usize = 32;
const DEFAULT_SEED: u64 = 41;

struct Opts {
    port: u16,
    /// `None` when the flag is omitted: a reopen takes the store's value.
    side: Option<usize>,
    block: Option<usize>,
    seed: Option<u64>,
    cache: usize,
    queue: usize,
    data: Option<String>,
    durability: DurabilityMode,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        port: 0,
        side: None,
        block: None,
        seed: None,
        cache: 256,
        queue: 64,
        data: None,
        durability: DurabilityMode::Always,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--port" => opts.port = value("--port")?.parse().map_err(|e| format!("{e}"))?,
            "--side" => opts.side = Some(value("--side")?.parse().map_err(|e| format!("{e}"))?),
            "--block" => opts.block = Some(value("--block")?.parse().map_err(|e| format!("{e}"))?),
            "--cache" => opts.cache = value("--cache")?.parse().map_err(|e| format!("{e}"))?,
            "--queue" => opts.queue = value("--queue")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = Some(value("--seed")?.parse().map_err(|e| format!("{e}"))?),
            "--data" => opts.data = Some(value("--data")?),
            "--durability" => {
                let raw = value("--durability")?;
                opts.durability = DurabilityMode::parse(&raw)
                    .ok_or_else(|| format!("bad durability mode {raw}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: aims-serve [--port P] [--side N] [--block B] [--cache C] \
                     [--queue Q] [--seed S] [--data DIR] [--durability MODE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(side) = opts.side.filter(|&s| !is_power_of_two(s)) {
        return Err(format!("--side {side} is not a power of two"));
    }
    let sizes =
        [("--block", opts.block), ("--cache", Some(opts.cache)), ("--queue", Some(opts.queue))];
    if let Some((flag, _)) = sizes.into_iter().find(|&(_, value)| value == Some(0)) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(opts)
}

/// The first bytes of every `--data` header meta blob: a tag, then the
/// blob's format version.
const META_TAG: [u8; 4] = *b"AIMC";
const META_VERSION: u16 = 1;

/// What a `--data` store's header meta records: enough to rebuild the
/// cube geometry and the store's energy catalog without reading a block.
struct StoreMeta {
    seed: u64,
    dims: Vec<usize>,
    filter: WaveletFilter,
    /// `Σc²` of each block as written.
    catalog: Vec<f64>,
}

/// Length of [`encode_meta`]'s blob for a store of `blocks` blocks.
fn meta_len(dims: &[usize], filter: &WaveletFilter, blocks: usize) -> usize {
    30 + 8 * dims.len() + filter.name().len() + 8 * blocks
}

/// The header meta blob of a store whose blocks have `energies`: tag,
/// version, seed, dims, filter name, then the energy catalog (a count and
/// one big-endian `f64` per block), as the image writer priced each block.
fn encode_meta(seed: u64, dims: &[usize], filter: &WaveletFilter, energies: &[f64]) -> Vec<u8> {
    let name = filter.name().as_bytes();
    let mut out = Vec::with_capacity(meta_len(dims, filter, energies.len()));
    out.extend_from_slice(&META_TAG);
    out.extend_from_slice(&META_VERSION.to_be_bytes());
    out.extend_from_slice(&seed.to_be_bytes());
    out.extend_from_slice(&(dims.len() as u32).to_be_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_be_bytes());
    }
    out.extend_from_slice(&(name.len() as u32).to_be_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(energies.len() as u64).to_be_bytes());
    for e in energies {
        out.extend_from_slice(&e.to_bits().to_be_bytes());
    }
    out
}

/// Creates the demo cube's store in `dir` through the streamed build (see
/// the module docs), returning the published device.
fn create_store(
    dir: &str,
    (side, block, seed): (usize, usize, u64),
    opts: FileDeviceOptions,
) -> std::io::Result<FileDevice> {
    let (dims, filter) = ([side, side], FilterKind::Db4.filter());
    let num_blocks = (side * side).div_ceil(block);
    let len = meta_len(&dims, &filter, num_blocks);
    let mut writer = FileDevice::image_writer(dir, block, num_blocks, len, opts)?;
    let spill = writer.spill()?;
    stream_demo_coeffs(side, seed, &spill, |batch| writer.append(batch))?;
    drop(spill);
    writer.finish(|energies| encode_meta(seed, &dims, &filter, energies))
}

/// Decodes [`encode_meta`]'s blob. Every length in it comes out of the
/// file: each is checked against what is left of the blob before anything
/// is allocated or indexed with it.
fn decode_meta(meta: &[u8]) -> Result<StoreMeta, String> {
    /// Splits `n` bytes off the front of `rest`.
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        let (head, tail) = rest.split_at_checked(n).ok_or("truncated meta")?;
        *rest = tail;
        Ok(head)
    }
    let big_endian = |bytes: &[u8]| bytes.iter().fold(0u64, |v, &b| v << 8 | b as u64);
    let Some(mut rest) = meta.strip_prefix(&META_TAG) else {
        return Err(
            "its meta has no format tag, so it predates the persisted energy catalog".into()
        );
    };
    let version = big_endian(take(&mut rest, 2)?);
    if version != u64::from(META_VERSION) {
        return Err(format!("unsupported meta format version {version}"));
    }
    let seed = big_endian(take(&mut rest, 8)?);
    let ndims = big_endian(take(&mut rest, 4)?) as usize;
    let dims = take(&mut rest, ndims.saturating_mul(8))?
        .chunks_exact(8)
        .map(|d| big_endian(d) as usize)
        .collect();
    let name_len = big_endian(take(&mut rest, 4)?) as usize;
    let name = std::str::from_utf8(take(&mut rest, name_len)?).map_err(|e| format!("{e}"))?;
    let filter = FilterKind::ALL
        .into_iter()
        .map(|k| k.filter())
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown filter {name} in device meta"))?;
    let count = usize::try_from(big_endian(take(&mut rest, 8)?)).unwrap_or(usize::MAX);
    let catalog = take(&mut rest, count.saturating_mul(8))?
        .as_chunks::<8>()
        .0
        .iter()
        .map(|e| f64::from_be_bytes(*e))
        .collect();
    if !rest.is_empty() {
        return Err(format!("{} trailing bytes in meta", rest.len()));
    }
    Ok(StoreMeta { seed, dims, filter, catalog })
}

/// Opens (recovering) or creates the durable store, returning the cube
/// geometry plus the sequential store over it. Either way the geometry and the energy
/// catalog come from the device's header meta, and no block is read.
fn durable_store(
    opts: &Opts,
) -> Result<(Vec<usize>, WaveletFilter, CoefficientStore<FileDevice>), String> {
    let dir = opts.data.as_deref().expect("durable_store needs --data");
    let dev_opts = FileDeviceOptions { mode: opts.durability, ..Default::default() };
    let (device, started) = if FileDevice::exists(dir) {
        let device = FileDevice::open(dir, dev_opts).map_err(|e| format!("open {dir}: {e}"))?;
        let r = device.recovery();
        if r.replayed_records > 0 {
            return Err(format!(
                "{dir}: WAL recovery replayed {} records, but aims-serve never writes a block \
                 after create, so the blocks no longer match the store's energy catalog",
                r.replayed_records
            ));
        }
        (device, format!("reopened {dir} (truncated {} torn WAL bytes)", r.truncated_bytes))
    } else {
        let (side, block) =
            (opts.side.unwrap_or(DEFAULT_SIDE), opts.block.unwrap_or(DEFAULT_BLOCK));
        let seed = opts.seed.unwrap_or(DEFAULT_SEED);
        let device = create_store(dir, (side, block, seed), dev_opts)
            .map_err(|e| format!("create {dir}: {e}"))?;
        let num_blocks = device.num_blocks();
        (device, format!("created {dir} ({num_blocks} blocks, {})", opts.durability.label()))
    };
    let StoreMeta { seed, dims, filter, catalog } = decode_meta(device.meta()).map_err(|e| {
        format!("{dir}: {e}; delete the directory and restart to re-create the store")
    })?;
    let block = device.block_size();
    let mismatched = [
        (
            "--side",
            opts.side.filter(|&s| dims != [s, s]).map(|s| s.to_string()),
            format!("dims {dims:?}"),
        ),
        (
            "--block",
            opts.block.filter(|&b| b != block).map(|b| b.to_string()),
            format!("block {block}"),
        ),
        ("--seed", opts.seed.filter(|&s| s != seed).map(|s| s.to_string()), format!("seed {seed}")),
    ];
    if let Some((flag, Some(value), stored)) = mismatched.into_iter().find(|m| m.1.is_some()) {
        return Err(format!(
            "{flag} {value} does not match the store in {dir}, which holds {stored}"
        ));
    }
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&len| len > 0 && len <= device.capacity_items())
        .ok_or_else(|| format!("device meta dims {dims:?} do not fit the device"))?;
    let store = CoefficientStore::reopen(device, AllocKind::Sequential, len, catalog)
        .map_err(|e| format!("{dir}: {e}"))?;
    println!("aims-serve: {started}");
    Ok((dims, filter, store))
}

fn serve<D: BlockDevice + Send + Sync + 'static>(service: Arc<QueryService<D>>, port: u16) {
    let server = match Server::spawn(Arc::clone(&service), &format!("127.0.0.1:{port}")) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("aims-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("aims-serve listening on 127.0.0.1:{}", server.port());
    std::io::stdout().flush().ok();
    server.join();
    service.shutdown();
    println!("aims-serve: clean shutdown");
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("aims-serve: {e}");
            std::process::exit(2);
        }
    };
    let config = ServiceConfig {
        queue_capacity: opts.queue,
        cache_blocks: opts.cache,
        ..ServiceConfig::default()
    };
    if opts.data.is_some() {
        let (dims, filter, store) = match durable_store(&opts) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("aims-serve: {e}");
                std::process::exit(1);
            }
        };
        serve(Arc::new(QueryService::open(dims, filter, store, config)), opts.port);
    } else {
        let cube = demo_cube(opts.side.unwrap_or(DEFAULT_SIDE), opts.seed.unwrap_or(DEFAULT_SEED));
        let service = QueryService::new(cube, opts.block.unwrap_or(DEFAULT_BLOCK), config);
        serve(Arc::new(service), opts.port);
    }
}
