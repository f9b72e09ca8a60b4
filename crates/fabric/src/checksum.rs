//! The workspace's two 32-bit checksums: one for bytes in flight, one for
//! bytes at rest.
//!
//! - [`wire`] guards every frame that crosses a socket: the service
//!   protocol's `[crc][payload]` bodies and the runtime's packet
//!   encodings. It hashes little-endian `u32` words in eight
//!   independent FNV-1a lanes, so its speed is set by multiply
//!   throughput, not by one dependent multiply per byte.
//! - [`disk`] is byte-serial FNV-1a, kept bit for bit because the
//!   factor store's WAL and snapshot files and the runtime's checkpoint
//!   files are sealed with it: a newer build must still load them.
//!
//! Both use the 32-bit FNV offset basis and prime. Neither is a MAC;
//! they detect corruption, not tampering.

const OFFSET: u32 = 0x811c_9dc5;
const PRIME: u32 = 0x0100_0193;

/// Independent lanes in [`wire`]: one 32-byte block feeds one word to
/// each lane.
const LANES: usize = 8;

/// Word-parallel FNV-1a for wire frames.
///
/// Word `i` of the input (little-endian `u32`, 4-byte aligned from the
/// start of `bytes`) feeds lane `i % LANES` with the FNV-1a step
/// `h = (h ^ w) * PRIME`. The 0–3 bytes after the last whole word feed
/// lane 0 one byte at a time, with the same step. Lane `k` starts from
/// the offset basis xor `k * 0x9e37_79b9`, so words swapped between
/// lanes do not cancel in the fold, and the result is the xor of all
/// lanes.
///
/// **Detection guarantee.** Any change confined to one aligned 4-byte
/// word, or to one byte of the tail, changes the result; in particular
/// every single-bit flip and every single-byte change is caught. The
/// change alters exactly one step input `w` of exactly one lane. For a
/// fixed state `h`, `w -> (h ^ w) * PRIME` is a bijection (xor is, and
/// `PRIME` is odd so multiplication mod 2^32 is), so that lane's state
/// differs right after the step. Every later step of the lane, with its
/// input unchanged, is a bijection of the state `h`, so the difference
/// survives to the lane's final value. The other lanes are untouched,
/// and xor-ing a changed value with unchanged ones yields a changed
/// result.
pub fn wire(bytes: &[u8]) -> u32 {
    let word = |w: &[u8]| u32::from_le_bytes(w.try_into().unwrap());
    let mut lanes: [u32; LANES] =
        std::array::from_fn(|k| OFFSET ^ (k as u32).wrapping_mul(0x9e37_79b9));
    let mut blocks = bytes.chunks_exact(4 * LANES);
    for block in &mut blocks {
        for (h, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *h = step(*h, word(w));
        }
    }
    let mut words = blocks.remainder().chunks_exact(4);
    for (h, w) in lanes.iter_mut().zip(&mut words) {
        *h = step(*h, word(w));
    }
    for &b in words.remainder() {
        lanes[0] = step(lanes[0], u32::from(b));
    }
    lanes.iter().fold(0, |acc, &h| acc ^ h)
}

/// Byte-serial FNV-1a for on-disk formats (WAL records, store
/// snapshots, runtime checkpoints). Its output is part of those file
/// formats: changing it makes existing files unloadable.
pub fn disk(bytes: &[u8]) -> u32 {
    bytes.iter().fold(OFFSET, |h, &b| step(h, u32::from(b)))
}

/// One FNV-1a step.
fn step(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes `0, 1, 2, ...` (wrapping), a deterministic test input.
    fn ramp(n: usize) -> Vec<u8> {
        (0..n).map(|i| i as u8).collect()
    }

    #[test]
    fn every_change_within_one_byte_changes_the_wire_checksum() {
        // Lengths 0..=100 cover every lane, partial final blocks and every
        // tail length. Each byte is xor-ed with every nonzero delta, which
        // includes every single-bit flip.
        for n in 0..=100 {
            let mut buf = ramp(n);
            let base = wire(&buf);
            for i in 0..n {
                for delta in 1..=255u8 {
                    buf[i] ^= delta;
                    assert_ne!(wire(&buf), base, "len {n}: byte {i} xor {delta:#04x}");
                    buf[i] ^= delta;
                }
            }
        }
    }

    #[test]
    fn disk_checksum_known_answers() {
        // Reference FNV-1a 32-bit values: a drift here means existing
        // WAL, snapshot and checkpoint files no longer load.
        assert_eq!(disk(b""), 0x811c_9dc5);
        assert_eq!(disk(b"a"), 0xe40c_292c);
        assert_eq!(disk(b"foobar"), 0xbf9c_f968);
        assert_eq!(disk(&ramp(100)), 0xde23_9011);
    }

    #[test]
    fn wire_checksum_known_answers() {
        // Pinned so a change to the wire format is a deliberate act: peers
        // of different builds must agree on these.
        assert_eq!(wire(b""), 0xf1ff_efc0);
        assert_eq!(wire(b"a"), 0x94ef_5b29);
        assert_eq!(wire(b"foobar"), 0x8a1e_72eb);
        assert_eq!(wire(&ramp(100)), 0x7752_5dfa);
        assert_eq!(wire(&ramp(1 << 20)), 0x228f_efc0);
    }

    #[test]
    fn wire_is_word_fnv_per_lane() {
        // Independent model: a 1-word input touches only lane 0, so it is
        // plain FNV-1a of the word over lane 0's seed, xor the other seeds.
        let seeds: Vec<u32> = (0..LANES as u32)
            .map(|k| OFFSET ^ k.wrapping_mul(0x9e37_79b9))
            .collect();
        let rest = seeds[1..].iter().fold(0, |a, &s| a ^ s);
        let w = 0x0403_0201u32;
        assert_eq!(
            wire(&[1, 2, 3, 4]),
            ((seeds[0] ^ w).wrapping_mul(PRIME)) ^ rest
        );
        // Tail bytes feed lane 0 byte by byte.
        let one = (seeds[0] ^ 7).wrapping_mul(PRIME);
        assert_eq!(wire(&[7]), one ^ rest);
    }
}
