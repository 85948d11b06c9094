//! On-device layout of the two tiers.
//!
//! Both tiers live on ordinary [`aims_storage::BlockDevice`]s — the
//! in-memory device for tests, the WAL-backed [`aims_storage::FileDevice`]
//! for durability — so every write below rides the existing checksum /
//! write-ahead-log / crash-recovery machinery unchanged.
//!
//! Each device opens with a small **manifest** region at block 0..M
//! followed by fixed-size segment slots:
//!
//! ```text
//! hot device   [ manifest ][ seg 0 raw samples ][ seg 1 raw samples ] …
//! hist device  [ manifest ][ seg 0 coefficients ][ seg 1 coefficients ] …
//! ```
//!
//! The hot manifest records, per slot, a state (`empty` / `sealed raw` /
//! `retired` / `open`) and the slot's logical sample count; the historical
//! manifest records, per slot, `[energy…, partial, installed]`: the slot's
//! per-block coefficient energies (the catalog the progressive bound plans
//! from), its full-cover partial (the COUNT of the whole segment, folded
//! from its coefficients, which answers a query that covers the segment)
//! and an *installed* flag — so a reopened store never reads a coefficient
//! block to rebuild either. The compaction swap protocol orders its writes
//! so that, at every crash point, exactly one manifest claims each segment:
//!
//! 1. coefficient blocks → hist WAL,
//! 2. hist manifest `installed = 1`, the energy catalog and the full-cover
//!    partial (one flush),
//! 3. hist checkpoint (the commit point),
//! 4. hot manifest `retired` (raw slot released).
//!
//! A crash before (3) leaves the raw slot authoritative — the partial
//! coefficient writes are garbage that the redo overwrites. A crash
//! between (3) and (4) is repaired on reopen by finishing the retirement,
//! which is idempotent.
//!
//! Historical blocks are **write-once before install**: a segment's
//! coefficient blocks are written before its `installed` flag commits,
//! slots are never reused, and nothing names a segment historical before
//! that flag is durable — so a cached historical block can never go stale
//! and the read cache needs no invalidation.

use std::io;

use aims_storage::BlockDevice;

/// All values an f64 carries exactly: the manifest is stored through the
/// same checksummed f64-block pipeline as the payload data.
pub(crate) const HOT_MAGIC: u64 = 0x4149_4D53_484F_5431; // "AIMSHOT1"
pub(crate) const HIST_MAGIC: u64 = 0x4149_4D53_4853_5432; // "AIMSHST2"
/// The historical layout before the full-cover partial joined each slot
/// (`[energy…, installed]`). Recognised only to refuse it by name.
const HIST_MAGIC_V1: u64 = 0x4149_4D53_4853_5431; // "AIMSHST1"

/// Per-slot states in the hot manifest.
pub(crate) const SLOT_EMPTY: f64 = 0.0;
pub(crate) const SLOT_RAW: f64 = 1.0;
pub(crate) const SLOT_RETIRED: f64 = 2.0;
pub(crate) const SLOT_OPEN: f64 = 3.0;

/// Static geometry of a tiered store. Fixed at creation and persisted in
/// both manifests; `open_durable` validates a reopened directory against
/// the caller's config.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Samples per segment. Must be a power of two (each sealed segment
    /// is wavelet-transformed whole).
    pub segment_len: usize,
    /// f64 values per device block. Must divide `segment_len`.
    pub block_size: usize,
    /// Capacity of both devices, in segment slots.
    pub max_segments: usize,
    /// Wavelet filter the compactor applies to sealed segments.
    pub filter: aims_dsp::filters::FilterKind,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            segment_len: 4096,
            block_size: 256,
            max_segments: 64,
            filter: aims_dsp::filters::FilterKind::Haar,
        }
    }
}

impl TierConfig {
    /// Panics unless the geometry is self-consistent.
    pub fn validate(&self) {
        assert!(
            self.segment_len.is_power_of_two() && self.segment_len >= 2,
            "segment_len must be a power of two >= 2, got {}",
            self.segment_len
        );
        assert!(
            self.block_size >= 8 && self.segment_len.is_multiple_of(self.block_size),
            "block_size must be >= 8 and divide segment_len ({} / {})",
            self.segment_len,
            self.block_size
        );
        assert!(self.max_segments >= 1, "max_segments must be >= 1");
    }

    /// Device blocks per segment slot.
    pub fn blocks_per_segment(&self) -> usize {
        self.segment_len / self.block_size
    }

    /// Manifest values per slot on the hot device: (state, length).
    const HOT_STRIDE: usize = 2;

    /// Manifest values per slot on the historical device: one energy per
    /// coefficient block, the full-cover partial and the installed flag.
    fn hist_stride(&self) -> usize {
        self.blocks_per_segment() + 2
    }

    fn manifest_blocks(&self, stride: usize) -> usize {
        (HEADER + stride * self.max_segments).div_ceil(self.block_size)
    }

    /// First hot-device block of segment slot `seg`.
    pub fn hot_block(&self, seg: usize) -> usize {
        self.manifest_blocks(Self::HOT_STRIDE) + seg * self.blocks_per_segment()
    }

    /// First historical-device block of segment slot `seg`.
    pub fn hist_block(&self, seg: usize) -> usize {
        self.manifest_blocks(self.hist_stride()) + seg * self.blocks_per_segment()
    }

    /// Total blocks the hot device needs.
    pub fn hot_device_blocks(&self) -> usize {
        self.hot_block(self.max_segments)
    }

    /// Total blocks the historical device needs.
    pub fn hist_device_blocks(&self) -> usize {
        self.hist_block(self.max_segments)
    }
}

/// Manifest header values: magic, segment length, block size, total length.
const HEADER: usize = 4;

/// A manifest staged in memory as the flat f64 image of its device
/// blocks. Mutations mark the touched block dirty so a flush writes only
/// what changed (a seal touches two blocks, not the whole region).
pub(crate) struct Manifest {
    image: Vec<f64>,
    block_size: usize,
    /// Values per slot (see [`TierConfig::HOT_STRIDE`] / `hist_stride`).
    stride: usize,
    dirty: Vec<bool>,
}

impl Manifest {
    pub(crate) fn fresh_hot(cfg: &TierConfig) -> Self {
        Self::fresh(HOT_MAGIC, cfg, TierConfig::HOT_STRIDE)
    }

    pub(crate) fn fresh_hist(cfg: &TierConfig) -> Self {
        Self::fresh(HIST_MAGIC, cfg, cfg.hist_stride())
    }

    /// A fresh device is zero-filled, so only the header block differs
    /// from what is already there; every slot block stays clean until a
    /// slot is first set.
    fn fresh(magic: u64, cfg: &TierConfig, stride: usize) -> Self {
        let blocks = cfg.manifest_blocks(stride);
        let mut m = Manifest {
            image: vec![0.0; blocks * cfg.block_size],
            block_size: cfg.block_size,
            stride,
            dirty: vec![false; blocks],
        };
        m.image[0] = f64::from_bits(magic);
        m.image[1] = cfg.segment_len as f64;
        m.image[2] = cfg.block_size as f64;
        m.dirty[0] = true;
        m
    }

    pub(crate) fn load_hot<D: BlockDevice>(device: &D, cfg: &TierConfig) -> io::Result<Self> {
        Self::load(device, HOT_MAGIC, cfg, TierConfig::HOT_STRIDE, "hot")
    }

    pub(crate) fn load_hist<D: BlockDevice>(device: &D, cfg: &TierConfig) -> io::Result<Self> {
        Self::load(device, HIST_MAGIC, cfg, cfg.hist_stride(), "hist")
    }

    /// Rebuilds the staged image from device blocks 0..M. The device comes
    /// from a directory, so anything about it that disagrees with `cfg` —
    /// magic, `segment_len`, `block_size`, or a size other than the
    /// manifest plus `cfg.max_segments` slots — is
    /// `InvalidData`, not a panic: every slot offset is computed from
    /// `cfg`, and under the wrong one checksum-valid blocks of the wrong
    /// segment would be read.
    fn load<D: BlockDevice>(
        device: &D,
        magic: u64,
        cfg: &TierConfig,
        stride: usize,
        what: &str,
    ) -> io::Result<Self> {
        let invalid = |why: String| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{what} device: {why}"))
        };
        let differs = |field: &str, found: usize, want: usize| {
            invalid(format!("{field} is {found} on disk, {want} in the config"))
        };
        if device.block_size() != cfg.block_size {
            return Err(differs("block_size", device.block_size(), cfg.block_size));
        }
        let read = |b: usize| {
            device
                .read_block(b)
                .map_err(|e| invalid(format!("manifest block {b} unreadable: {e:?}")))
        };
        // The header sits in block 0, which every device has.
        let mut image = read(0)?;
        if magic == HIST_MAGIC && image[0].to_bits() == HIST_MAGIC_V1 {
            return Err(invalid(
                "manifest layout AIMSHST1 ([energy…, installed] per slot) is not this build's \
                 AIMSHST2 ([energy…, partial, installed]); there is no migration, delete the \
                 directory"
                    .to_string(),
            ));
        }
        if image[0].to_bits() != magic {
            return Err(invalid(format!(
                "not a {what} manifest (magic {:#x})",
                image[0].to_bits()
            )));
        }
        if image[1] as usize != cfg.segment_len {
            return Err(differs("segment_len", image[1] as usize, cfg.segment_len));
        }
        if image[2] as usize != cfg.block_size {
            return Err(differs("block_size", image[2] as usize, cfg.block_size));
        }
        let blocks = cfg.manifest_blocks(stride);
        let device_blocks = blocks + cfg.max_segments * cfg.blocks_per_segment();
        if device.num_blocks() != device_blocks {
            return Err(invalid(format!(
                "{} blocks on disk, max_segments {} needs {device_blocks}: the store was created \
                 with a different max_segments",
                device.num_blocks(),
                cfg.max_segments
            )));
        }
        for b in 1..blocks {
            image.extend_from_slice(&read(b)?);
        }
        Ok(Manifest { image, block_size: cfg.block_size, stride, dirty: vec![false; blocks] })
    }

    fn set(&mut self, idx: usize, v: f64) {
        if self.image[idx].to_bits() != v.to_bits() {
            self.image[idx] = v;
            self.dirty[idx / self.block_size] = true;
        }
    }

    fn slot(&self, seg: usize) -> usize {
        HEADER + self.stride * seg
    }

    pub(crate) fn set_total_len(&mut self, n: usize) {
        self.set(3, n as f64);
    }

    /// Hot encoding: per-slot (state, logical length) pairs.
    pub(crate) fn slot_state(&self, seg: usize) -> f64 {
        self.image[self.slot(seg)]
    }

    pub(crate) fn slot_len(&self, seg: usize) -> usize {
        self.image[self.slot(seg) + 1] as usize
    }

    pub(crate) fn set_slot(&mut self, seg: usize, state: f64, len: usize) {
        let at = self.slot(seg);
        self.set(at, state);
        self.set(at + 1, len as f64);
    }

    /// Hist encoding: the per-block energies, the full-cover partial,
    /// then the installed flag. The flag comes last because a flush writes
    /// blocks in ascending order and the WAL replays a prefix: when a slot
    /// straddles two manifest blocks, the block carrying the flag is the
    /// later one, so a recovered flag always finds its whole catalog and
    /// its partial beside it. The partial sits before the flag for the
    /// same reason the catalog does — a flag recovered without it would
    /// answer a covered segment with whatever the slot held before.
    pub(crate) fn installed(&self, seg: usize) -> bool {
        self.image[self.slot(seg) + self.stride - 1] == 1.0
    }

    /// The energy catalog of an installed slot, ascending block order.
    pub(crate) fn energies(&self, seg: usize) -> &[f64] {
        let at = self.slot(seg);
        &self.image[at..at + self.stride - 2]
    }

    /// The full-cover partial of an installed slot.
    pub(crate) fn partial(&self, seg: usize) -> f64 {
        self.image[self.slot(seg) + self.stride - 2]
    }

    /// Claims the slot for the historical tier: catalog, partial and flag
    /// are staged together so one flush carries all three.
    pub(crate) fn set_installed(&mut self, seg: usize, energies: &[f64], partial: f64) {
        assert_eq!(energies.len(), self.stride - 2, "one energy per coefficient block");
        let at = self.slot(seg);
        for (i, &e) in energies.iter().enumerate() {
            self.set(at + i, e);
        }
        self.set(at + self.stride - 2, partial);
        self.set(at + self.stride - 1, 1.0);
    }

    /// Writes the dirty manifest blocks through the device (and its WAL).
    pub(crate) fn flush<D: BlockDevice>(&mut self, device: &mut D) {
        for b in 0..self.dirty.len() {
            if self.dirty[b] {
                device.write_block(b, &self.image[b * self.block_size..(b + 1) * self.block_size]);
                self.dirty[b] = false;
            }
        }
    }
}
