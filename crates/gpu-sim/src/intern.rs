//! Intern tables behind the compact trace and profiler logs: each distinct
//! value is stored once, in first-seen order, and a record holds its index.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Debug;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiply-rotate hasher with a fixed state: the `FxHash` step per word,
/// then a fold of the well-mixed high bits into the low ones, which pick
/// the bucket (a byte count's low bits are all zero). The intern tables
/// are lookup-only and never iterated, so nothing recorded or exported can
/// depend on the hash.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MulRotHasher(u64);

impl MulRotHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for MulRotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(x.into());
    }

    fn write_u16(&mut self, x: u16) {
        self.add(x.into());
    }

    fn write_u32(&mut self, x: u32) {
        self.add(x.into());
    }

    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        let h = self.0 ^ (self.0 >> 32);
        h.wrapping_mul(Self::K) ^ (h >> 29)
    }
}

/// [`MulRotHasher`] for `HashMap`s.
pub(crate) type FastHash = BuildHasherDefault<MulRotHasher>;

/// Distinct `T`s in first-seen order, each found again in one lookup. Ids
/// are `I`; running out of them panics rather than wrapping.
#[derive(Debug)]
pub(crate) struct Interner<T, I> {
    items: Vec<T>,
    ids: HashMap<T, I, FastHash>,
}

impl<T, I> Default for Interner<T, I> {
    fn default() -> Self {
        Interner {
            items: Vec::new(),
            ids: HashMap::default(),
        }
    }
}

impl<T: Copy + Eq + Hash, I: Copy + TryFrom<usize>> Interner<T, I>
where
    I::Error: Debug,
{
    /// The id of `value`, assigning the next one on first sight.
    pub(crate) fn id(&mut self, value: T) -> I {
        match self.ids.entry(value) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = I::try_from(self.items.len()).expect("intern table ran out of ids");
                self.items.push(value);
                *e.insert(id)
            }
        }
    }

    /// Every distinct value, indexed by id.
    pub(crate) fn items(&self) -> &[T] {
        &self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_first_sight_and_repeat() {
        let mut t: Interner<&'static str, u16> = Interner::default();
        assert_eq!([t.id("a"), t.id("b"), t.id("a")], [0, 1, 0]);
        assert_eq!(t.items(), ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "ran out of ids")]
    fn id_overflow_panics() {
        let mut t: Interner<u32, u8> = Interner::default();
        for v in 0..=256 {
            t.id(v);
        }
    }

    #[test]
    fn low_bit_patterns_spread_over_buckets() {
        // Multiples of 256 (device byte counts) must not share their low
        // hash bits, which index the table.
        let low = |x: u64| {
            let mut h = MulRotHasher::default();
            h.write_u64(x);
            h.finish() & 0xff
        };
        let distinct: std::collections::BTreeSet<u64> = (0..256).map(|i| low(i << 8)).collect();
        assert!(distinct.len() > 128, "{}", distinct.len());
    }
}
