//! FNV-1a, 64-bit: the one hash behind every replay digest, sampling
//! decision and hot-path id hasher in the workspace.
//!
//! Two folds share the prime: [`fold`] mixes bytes one at a time (the
//! standard FNV-1a), [`fold_word`] mixes a whole `u64` in one step (the
//! cheaper variant the interned-label tables use for small dense ids).
//! Both update a running state in place, so a digest is
//! `let mut h = OFFSET;` followed by any sequence of folds.

/// FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into `h`, one byte per round.
#[inline]
pub fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(PRIME);
    }
}

/// Fold a whole word into `h` in one round.
#[inline]
pub fn fold_word(h: &mut u64, v: u64) {
    *h = (*h ^ v).wrapping_mul(PRIME);
}

/// FNV-1a of `bytes` from the offset basis.
#[inline]
pub fn hash(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    fold(&mut h, bytes);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_fnv1a_64_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_fold_matches_the_intern_table_hash() {
        // The interned-label shard and flow-cache hash, as first written.
        fn intern_fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100000001b3)
        }
        for (h, v) in [(OFFSET, 0), (OFFSET, 1), (0, 7), (u64::MAX, 1 << 40), (12345, u64::MAX)] {
            let mut folded = h;
            fold_word(&mut folded, v);
            assert_eq!(folded, intern_fnv(h, v), "h={h:#x} v={v:#x}");
        }
    }
}
