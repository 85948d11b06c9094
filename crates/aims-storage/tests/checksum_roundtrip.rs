//! Property-based round-trip tests of the checksummed block device.
//!
//! The contract under test: any f64 payload — including NaN bit patterns,
//! ±0.0, subnormals and infinities — round-trips bit-exactly through a
//! write/read pair, and any injected corruption (a flipped payload bit, a
//! torn write, a silent patch behind the checksum's back) is *detected*
//! by the verified read path — never silently returned.

use proptest::prelude::*;

use aims_storage::device::{block_digest, BlockDevice, MemDevice, ReadErrorKind};
use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};

/// Arbitrary f64s by bit pattern: covers NaNs (all payloads), ±0.0,
/// subnormals and infinities — everything a checksum must distinguish.
fn any_f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn payload(block_size: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any_f64_bits(), block_size)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Write/read round-trips are bit-exact for arbitrary payloads.
    #[test]
    fn roundtrip_is_bit_exact(
        b_exp in 0u32..=6,
        data in prop::collection::vec(any_f64_bits(), 1..=64),
    ) {
        let block_size = (1usize << b_exp).min(data.len());
        let mut device = MemDevice::new(block_size, 1);
        let payload = &data[..block_size];
        device.write_block(0, payload);
        let got = device.read_block(0).expect("clean read must verify");
        let want: Vec<u64> = payload.iter().map(|v| v.to_bits()).collect();
        let have: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(want, have);
    }

    /// Rewriting a block updates the checksum: the latest payload always
    /// verifies, whatever was there before.
    #[test]
    fn rewrite_reverifies(
        first in payload(8),
        second in payload(8),
    ) {
        let mut device = MemDevice::new(8, 1);
        device.write_block(0, &first);
        device.write_block(0, &second);
        let got = device.read_block(0).expect("rewritten block must verify");
        let want: Vec<u64> = second.iter().map(|v| v.to_bits()).collect();
        let have: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(want, have);
    }

    /// A single flipped bit anywhere in the payload is always detected.
    #[test]
    fn single_bit_flip_is_always_detected(
        data in payload(8),
        item in 0usize..8,
        bit in 0u32..64,
    ) {
        let mut device = MemDevice::new(8, 1);
        device.write_block(0, &data);
        device.flip_bit(0, item, bit);
        let err = device.read_block(0).expect_err("flipped bit must not verify");
        prop_assert_eq!(err.kind, ReadErrorKind::Corrupt);
        prop_assert_eq!(err.block, 0);
    }

    /// Patching the payload behind the checksum's back (a simulated torn
    /// write) is detected unless the patch is identical to the stored
    /// payload.
    #[test]
    fn silent_patch_is_detected_when_it_changes_bits(
        data in payload(8),
        patch in payload(8),
    ) {
        let mut device = MemDevice::new(8, 1);
        device.write_block(0, &data);
        device.patch_raw(0, &patch);
        let identical = data.iter().zip(&patch).all(|(a, b)| a.to_bits() == b.to_bits());
        match device.read_block(0) {
            Ok(_) => prop_assert!(identical, "corrupt payload returned silently"),
            Err(e) => {
                prop_assert!(!identical, "identical patch must still verify");
                prop_assert_eq!(e.kind, ReadErrorKind::Corrupt);
            }
        }
    }

    /// A FaultyDevice flipping a bit on every read never returns a
    /// payload: the checksum catches each attempt.
    #[test]
    fn injected_flips_never_return_silently(
        data in payload(8),
        seed in any::<u64>(),
    ) {
        let mut device =
            FaultyDevice::with_plan(8, 1, FaultPlan::uniform(seed, FaultKind::BitFlip, 1.0));
        device.write_block(0, &data);
        for _ in 0..8 {
            let err = device.read_block(0).expect_err("bit flip must be detected");
            prop_assert_eq!(err.kind, ReadErrorKind::Corrupt);
        }
    }

    /// A zero-fault FaultyDevice round-trips bit-exactly, like the plain
    /// device.
    #[test]
    fn zero_fault_wrapper_roundtrips(
        data in payload(8),
        seed in any::<u64>(),
    ) {
        let mut device = FaultyDevice::with_plan(8, 1, FaultPlan::none(seed));
        device.write_block(0, &data);
        let got = device.read_block(0).expect("zero-fault read must verify");
        let want: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let have: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(want, have);
    }

    /// The checksum distinguishes payloads that differ only in bit
    /// pattern, not numeric value (−0.0 vs 0.0, distinct NaNs).
    #[test]
    fn checksum_is_bit_pattern_sensitive(
        data in payload(4),
        item in 0usize..4,
        bit in 0u32..64,
    ) {
        let mut other = data.clone();
        other[item] = f64::from_bits(other[item].to_bits() ^ (1u64 << bit));
        prop_assert_ne!(block_digest(&data), block_digest(&other));
    }
}
