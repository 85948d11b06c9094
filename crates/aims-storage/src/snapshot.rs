//! Binary snapshots of wavelet block stores.
//!
//! The paper's prototype stored wavelet blocks "as BLOBs (using Teradata's
//! BYTE data type)" with a plan to move to raw disk blocks (§4). This
//! module is that persistence path for the reproduction: a versioned
//! binary image of a [`WaveletStore`] — allocation descriptor plus raw
//! block payloads — that round-trips through any byte sink.

use crate::cache::SharedBlockCache;
use crate::device::BlockDevice;
use crate::store::{AllocKind, WaveletStore};

/// Snapshot format magic ("AIMS" in ASCII).
const MAGIC: u32 = 0x41494D53;
/// Current format version.
const VERSION: u16 = 1;

/// Errors when decoding a snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than its headers claim.
    Truncated,
    /// Magic number mismatch — not a snapshot.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// Unknown allocation tag.
    BadAllocTag(u8),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot is truncated"),
            SnapshotError::BadMagic => write!(f, "not an AIMS snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadAllocTag(t) => write!(f, "unknown allocation tag {t}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Minimal big-endian reader over a byte slice (replaces the external
/// `bytes` crate, which the offline build cannot fetch).
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn encode_alloc(kind: AllocKind, out: &mut Vec<u8>) {
    match kind {
        AllocKind::Sequential => {
            out.push(0);
            out.extend_from_slice(&0u64.to_be_bytes());
        }
        AllocKind::Random(seed) => {
            out.push(1);
            out.extend_from_slice(&seed.to_be_bytes());
        }
        AllocKind::TreeTiling => {
            out.push(2);
            out.extend_from_slice(&0u64.to_be_bytes());
        }
    }
}

fn decode_alloc(buf: &mut Reader<'_>) -> Result<AllocKind, SnapshotError> {
    if buf.remaining() < 9 {
        return Err(SnapshotError::Truncated);
    }
    let tag = buf.get_u8()?;
    let seed = buf.get_u64()?;
    match tag {
        0 => Ok(AllocKind::Sequential),
        1 => Ok(AllocKind::Random(seed)),
        2 => Ok(AllocKind::TreeTiling),
        t => Err(SnapshotError::BadAllocTag(t)),
    }
}

/// Serializes a store into a self-describing binary image.
///
/// Layout: magic(u32) version(u16) alloc(tag u8 + seed u64)
/// block_size(u32) n(u64), then the reconstructed signal as `n` f64s.
/// (Persisting the signal rather than raw blocks keeps the format
/// independent of slot-assignment details; loading re-runs the same
/// deterministic transform + placement.)
pub fn snapshot<D: BlockDevice>(store: &WaveletStore<D>, kind: AllocKind) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + store.len() * 8);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&VERSION.to_be_bytes());
    encode_alloc(kind, &mut out);
    out.extend_from_slice(&(store.block_size() as u32).to_be_bytes());
    out.extend_from_slice(&(store.len() as u64).to_be_bytes());
    let pool = SharedBlockCache::new(16);
    for v in store.reconstruct_all(&pool) {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out
}

/// Restores a store from a snapshot produced by [`snapshot`].
pub fn restore(image: &[u8]) -> Result<(WaveletStore, AllocKind), SnapshotError> {
    let mut buf = Reader { buf: image };
    if buf.remaining() < 6 {
        return Err(SnapshotError::Truncated);
    }
    if buf.get_u32()? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = buf.get_u16()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let kind = decode_alloc(&mut buf)?;
    if buf.remaining() < 12 {
        return Err(SnapshotError::Truncated);
    }
    let block_size = buf.get_u32()? as usize;
    let n = buf.get_u64()? as usize;
    if buf.remaining() < n * 8 {
        return Err(SnapshotError::Truncated);
    }
    let signal: Vec<f64> = (0..n).map(|_| buf.get_f64()).collect::<Result<_, _>>()?;
    Ok((WaveletStore::from_signal(&signal, block_size, kind), kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> WaveletStore {
        let signal: Vec<f64> = (0..256).map(|i| ((i * 31 + 7) % 53) as f64 - 26.0).collect();
        WaveletStore::from_signal(&signal, 16, AllocKind::TreeTiling)
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let original = store();
        let image = snapshot(&original, AllocKind::TreeTiling);
        let (restored, kind) = restore(&image).unwrap();
        assert_eq!(kind, AllocKind::TreeTiling);
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.block_size(), original.block_size());
        let p1 = SharedBlockCache::new(8);
        let p2 = SharedBlockCache::new(8);
        for t in (0..256).step_by(17) {
            assert!(
                (original.point_value(t, &p1) - restored.point_value(t, &p2)).abs() < 1e-12,
                "t={t}"
            );
        }
        assert!((original.range_sum(10, 200, &p1) - restored.range_sum(10, 200, &p2)).abs() < 1e-9);
    }

    #[test]
    fn alloc_kinds_roundtrip() {
        for kind in [AllocKind::Sequential, AllocKind::Random(42), AllocKind::TreeTiling] {
            let signal = vec![1.0; 64];
            let s = WaveletStore::from_signal(&signal, 8, kind);
            let (restored, k) = restore(&snapshot(&s, kind)).unwrap();
            assert_eq!(k, kind);
            assert_eq!(restored.len(), 64);
        }
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let image = snapshot(&store(), AllocKind::TreeTiling);
        assert_eq!(restore(&[]).unwrap_err(), SnapshotError::Truncated);
        assert_eq!(restore(&image[..10]).unwrap_err(), SnapshotError::Truncated);

        let mut bad_magic = image.to_vec();
        bad_magic[0] = 0xFF;
        assert_eq!(restore(&bad_magic).unwrap_err(), SnapshotError::BadMagic);

        let mut bad_version = image.to_vec();
        bad_version[5] = 99;
        assert_eq!(restore(&bad_version).unwrap_err(), SnapshotError::BadVersion(99));

        let mut bad_alloc = image.to_vec();
        bad_alloc[6] = 7;
        assert_eq!(restore(&bad_alloc).unwrap_err(), SnapshotError::BadAllocTag(7));
    }

    #[test]
    fn snapshot_size_is_header_plus_payload() {
        let image = snapshot(&store(), AllocKind::TreeTiling);
        assert_eq!(image.len(), 4 + 2 + 9 + 4 + 8 + 256 * 8);
    }
}
