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
//! [`FileDevice`] instead of memory. An existing directory is reopened
//! (WAL recovery runs). A missing one is built in four steps:
//!
//! 1. **cube build**: the demo cube's cells, one `side`² buffer;
//! 2. **in-place transform**: that buffer becomes the Db4 coefficients
//!    ([`DataCube::into_transform`](aims_propolyne::DataCube::into_transform)),
//!    so no second copy of the cube is ever held;
//! 3. **image write**: the coefficients go to disk in one sequential pass
//!    published by rename ([`FileDevice::create_from`]), so a server
//!    killed mid-create leaves no store, never a part of one;
//! 4. **verified catalog pass**: shared with the reopen path below.
//!
//! Either way the cube geometry then comes from the device's header meta,
//! one verified pass over the blocks rebuilds the energy catalog (the
//! coefficients themselves stay on disk), and the service serves every
//! query from the on-disk store.

use std::io::Write;
use std::sync::Arc;

use aims_dsp::filters::{FilterKind, WaveletFilter};
use aims_propolyne::BlockedCoefficients;
use aims_service::{demo_cube, QueryService, Server, ServiceConfig};
use aims_storage::{BlockDevice, DurabilityMode, FileDevice, FileDeviceOptions};

struct Opts {
    port: u16,
    side: usize,
    block: usize,
    cache: usize,
    queue: usize,
    seed: u64,
    data: Option<String>,
    durability: DurabilityMode,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        port: 0,
        side: 64,
        block: 32,
        cache: 256,
        queue: 64,
        seed: 41,
        data: None,
        durability: DurabilityMode::Always,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--port" => opts.port = value("--port")?.parse().map_err(|e| format!("{e}"))?,
            "--side" => opts.side = value("--side")?.parse().map_err(|e| format!("{e}"))?,
            "--block" => opts.block = value("--block")?.parse().map_err(|e| format!("{e}"))?,
            "--cache" => opts.cache = value("--cache")?.parse().map_err(|e| format!("{e}"))?,
            "--queue" => opts.queue = value("--queue")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
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
    Ok(opts)
}

/// Header meta blob for `--data` stores: dims + the filter name, enough
/// to rebuild the cube geometry on reopen.
fn encode_meta(dims: &[usize], filter: &WaveletFilter) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(dims.len() as u32).to_be_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_be_bytes());
    }
    let name = filter.name().as_bytes();
    out.extend_from_slice(&(name.len() as u32).to_be_bytes());
    out.extend_from_slice(name);
    out
}

fn decode_meta(meta: &[u8]) -> Result<(Vec<usize>, WaveletFilter), String> {
    /// Splits `n` bytes off the front of `rest`. Both lengths below come
    /// out of the file: each is checked against what is left of the blob
    /// before anything is allocated or indexed with it.
    fn take<'a>(rest: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        let (head, tail) = rest.split_at_checked(n).ok_or("truncated meta")?;
        *rest = tail;
        Ok(head)
    }
    let big_endian = |bytes: &[u8]| bytes.iter().fold(0u64, |v, &b| v << 8 | b as u64) as usize;
    let mut rest = meta;
    let ndims = big_endian(take(&mut rest, 4)?);
    let dims = take(&mut rest, ndims.saturating_mul(8))?.chunks_exact(8).map(big_endian).collect();
    let name_len = big_endian(take(&mut rest, 4)?);
    let name = std::str::from_utf8(take(&mut rest, name_len)?).map_err(|e| format!("{e}"))?;
    let filter = FilterKind::ALL
        .into_iter()
        .map(|k| k.filter())
        .find(|f| f.name() == name)
        .ok_or_else(|| format!("unknown filter {name} in device meta"))?;
    Ok((dims, filter))
}

/// Opens (recovering) or creates the durable store, returning the cube
/// geometry plus the blocked store. Either way the geometry comes from the
/// device's header meta and the energy catalog from one verified read pass.
fn durable_store(
    opts: &Opts,
) -> Result<(Vec<usize>, WaveletFilter, BlockedCoefficients<FileDevice>), String> {
    let dir = opts.data.as_deref().expect("durable_store needs --data");
    let dev_opts = FileDeviceOptions { mode: opts.durability, ..Default::default() };
    let device = if FileDevice::exists(dir) {
        let device = FileDevice::open(dir, dev_opts).map_err(|e| format!("open {dir}: {e}"))?;
        let r = device.recovery();
        println!(
            "aims-serve: reopened {dir} (replayed {} records, truncated {} bytes, lsn {})",
            r.replayed_records, r.truncated_bytes, r.recovered_lsn
        );
        device
    } else {
        let cube = demo_cube(opts.side, opts.seed);
        let meta = encode_meta(cube.dims(), cube.filter());
        let num_blocks = cube.coeffs().len().div_ceil(opts.block);
        let dev_opts = FileDeviceOptions { meta, ..dev_opts };
        let device = FileDevice::create_from(dir, opts.block, num_blocks, cube.coeffs(), dev_opts)
            .map_err(|e| format!("create {dir}: {e}"))?;
        println!("aims-serve: created {dir} ({num_blocks} blocks, {})", opts.durability.label());
        device
    };
    let (dims, filter) = decode_meta(device.meta())?;
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&len| len > 0 && len <= device.capacity_items())
        .ok_or_else(|| format!("device meta dims {dims:?} do not fit the device"))?;
    let blocked =
        BlockedCoefficients::from_device(device, len).map_err(|e| format!("catalog: {e}"))?;
    Ok((dims, filter, blocked))
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
        let (dims, filter, blocked) = match durable_store(&opts) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("aims-serve: {e}");
                std::process::exit(1);
            }
        };
        serve(Arc::new(QueryService::open(dims, filter, blocked, config)), opts.port);
    } else {
        let service = QueryService::new(demo_cube(opts.side, opts.seed), opts.block, config);
        serve(Arc::new(service), opts.port);
    }
}
