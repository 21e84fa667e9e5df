//! The format's two checksum functions: version 1's byte-serial FNV-1a, kept
//! for reading version 1 files, and the word-parallel [`Checksum`] every
//! section of a file written since sits under. Both are hand-rolled so the
//! workspace stays dependency-free; they exist to catch torn writes and bit
//! rot, not adversaries.

/// FNV-1a 64-bit hash — version 1's checksum, a dependent multiply per
/// *byte*. Kept for reading version 1 files only.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Bytes one [`Checksum`] step consumes: one little-endian word per lane.
const STRIPE_BYTES: usize = 32;
const LANE_SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];
const LANE_PRIME: u64 = 0x9e37_79b1_85eb_ca87;
const FOLD_PRIME: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// The format's checksum since version 2 (DESIGN.md §15 defines it exactly).
/// Four lanes each take every fourth little-endian `u64` word of the input:
/// `lane = rotl((lane ^ word) * LANE_PRIME, 29)`, so a 32-byte stripe costs
/// one multiply's latency where FNV-1a pays one per byte. A last partial
/// stripe goes in zero-padded; the length and the lanes then fold into one
/// word. Every step is a bijection of the lane for a fixed word and of the
/// word for a fixed lane: two inputs of one length that differ inside a
/// single word never share a checksum.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; 4],
    /// A stripe some `update` began and none has completed; zero past
    /// `len % STRIPE_BYTES`.
    pending: [u8; STRIPE_BYTES],
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            pending: [0; STRIPE_BYTES],
            len: 0,
        }
    }
}

fn absorb(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        let word = u64::from_le_bytes(<[u8; 8]>::try_from(word).unwrap_or_default());
        *lane = (*lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(29);
    }
}

impl Checksum {
    /// The checksum of `bytes` taken in one piece.
    #[must_use]
    pub fn of(bytes: &[u8]) -> u64 {
        let mut sum = Checksum::default();
        sum.update(bytes);
        sum.finish()
    }

    /// Feed the next bytes of the input; how it is cut into calls does not
    /// change the result, so a writer can hash what it streams.
    pub fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let filled = (self.len % STRIPE_BYTES as u64) as usize;
            let (head, rest) = bytes.split_at(bytes.len().min(STRIPE_BYTES - filled));
            if head.len() == STRIPE_BYTES {
                absorb(&mut self.lanes, head);
            } else {
                for (slot, byte) in self.pending.iter_mut().skip(filled).zip(head) {
                    *slot = *byte;
                }
                if filled + head.len() == STRIPE_BYTES {
                    absorb(&mut self.lanes, &self.pending);
                    self.pending = [0; STRIPE_BYTES];
                }
            }
            self.len += head.len() as u64;
            bytes = rest;
        }
    }

    /// The checksum of everything fed so far: a last partial stripe goes in
    /// zero-padded, then the length and the four lanes fold into one word.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.len % STRIPE_BYTES as u64 != 0 {
            absorb(&mut lanes, &self.pending);
        }
        let folded = lanes.iter().fold(self.len, |hash, lane| {
            (hash.rotate_left(27) ^ lane).wrapping_mul(FOLD_PRIME)
        });
        folded ^ (folded >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checksum is a function of the bytes, not of how a writer cut them
    /// into `update` calls; zero padding does not hide a length; and a flip
    /// of any one bit — the last partial stripe's included — changes it.
    #[test]
    fn checksum_is_incremental_length_aware_and_catches_every_bit() {
        let bytes: Vec<u8> = (0..211u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 95, 211] {
            let whole = Checksum::of(&bytes[..len]);
            for cut in 0..=len {
                let mut sum = Checksum::default();
                sum.update(&bytes[..cut]);
                sum.update(&[]);
                sum.update(&bytes[cut..len]);
                assert_eq!(sum.finish(), whole, "len {len} cut at {cut}");
            }
            let mut by_byte = Checksum::default();
            bytes[..len].iter().for_each(|b| by_byte.update(&[*b]));
            assert_eq!(by_byte.finish(), whole, "len {len} fed a byte at a time");
            for bit in 0..len * 8 {
                let mut bad = bytes[..len].to_vec();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(Checksum::of(&bad), whole, "len {len} bit {bit}");
            }
        }
        let zeros = [0u8; 96];
        let sums: Vec<u64> = (0..=96).map(|len| Checksum::of(&zeros[..len])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(!sums[i + 1..].contains(a), "zeros of length {i} collide");
        }
    }
}
