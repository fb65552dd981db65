//! The id indexes of a workflow table: an id to the row that holds it, by
//! row number alone.
//!
//! A [`RowIndex`] is one open-addressing table of 8-byte buckets, each a
//! row number and 32 bits of its id's hash. It holds no id: the row has
//! one, so a probe that meets its hash asks the caller whether that row's
//! id is the one looked for, and a hit hands out nothing but the row
//! number. The hash is the caller's, under a randomly keyed hasher: ids come
//! from the network.
//!
//! Linear probing over a power-of-two table filled to at most 7/8; rows are
//! never removed, so no bucket is ever a tombstone.

/// A row number and the hash of its id. Empty while `row` is [`EMPTY`].
#[derive(Clone, Copy, Debug)]
struct Bucket {
    hash: u32,
    row: u32,
}

/// The row number no table holds: the mark of an empty bucket.
pub(crate) const EMPTY: u32 = u32::MAX;

const VACANT: Bucket = Bucket {
    hash: 0,
    row: EMPTY,
};

/// An index from ids to the rows that hold them; see the [module
/// docs](self).
#[derive(Debug, Default)]
pub(crate) struct RowIndex {
    /// A power of two of them, or none before the first insert.
    buckets: Box<[Bucket]>,
    len: usize,
}

impl RowIndex {
    /// The row listed under `hash` whose id `is` accepts. `is` is asked
    /// only about rows listed under the same 32 bits.
    pub(crate) fn find(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut at = hash as usize & mask;
        loop {
            let bucket = self.buckets[at];
            if bucket.row == EMPTY {
                return None;
            }
            if bucket.hash == hash && is(bucket.row) {
                return Some(bucket.row);
            }
            at = (at + 1) & mask;
        }
    }

    /// Lists `row` under `hash`. The caller has just looked for the row's
    /// id and found none.
    pub(crate) fn insert(&mut self, hash: u32, row: u32) {
        debug_assert_ne!(row, EMPTY, "a row number of its own");
        if (self.len + 1) * 8 > self.buckets.len() * 7 {
            let size = (2 * self.buckets.len()).max(8);
            let old = std::mem::replace(&mut self.buckets, vec![VACANT; size].into_boxed_slice());
            for bucket in old.iter().filter(|b| b.row != EMPTY) {
                place(&mut self.buckets, *bucket);
            }
        }
        place(&mut self.buckets, Bucket { hash, row });
        self.len += 1;
    }
}

/// Puts `bucket` in the first empty bucket from its hash on.
fn place(buckets: &mut [Bucket], bucket: Bucket) {
    let mask = buckets.len() - 1;
    let mut at = bucket.hash as usize & mask;
    while buckets[at].row != EMPTY {
        at = (at + 1) & mask;
    }
    buckets[at] = bucket;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prov_model::Id;
    use std::collections::HashMap;
    use std::hash::BuildHasher;

    #[derive(Clone, Debug)]
    enum Op {
        /// Stores a row of this id, unless one is stored.
        Insert(u64),
        /// Looks this id up.
        Probe(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..400).prop_map(Op::Insert),
            (0u64..500).prop_map(Op::Probe),
        ]
    }

    proptest! {
        /// The index answers as a `HashMap<Id, u32>` does, through growth
        /// from empty and under hashes that collide in all 32 bits: `bits`
        /// keeps that many of the real hash, so at 0 every id shares one.
        #[test]
        fn prop_the_index_answers_as_a_map_of_ids(
            ops in proptest::collection::vec(arb_op(), 1..600),
            bits in prop_oneof![Just(0u32), Just(2), Just(32)],
        ) {
            let hasher = std::collections::hash_map::RandomState::new();
            let hash = |id: &Id| {
                let full = hasher.hash_one(id) as u32;
                full.checked_shr(32 - bits).unwrap_or(0)
            };
            let mut index = RowIndex::default();
            let mut rows: Vec<Id> = Vec::new();
            let mut model: HashMap<Id, u32> = HashMap::new();
            for op in ops {
                let (Op::Insert(n) | Op::Probe(n)) = op;
                let id = match n % 2 {
                    0 => Id::Num(n),
                    _ => Id::from(format!("d{n}")),
                };
                let found = index.find(hash(&id), |row| rows[row as usize] == id);
                prop_assert_eq!(found, model.get(&id).copied());
                if let (Op::Insert(_), None) = (op, found) {
                    let row = rows.len() as u32;
                    index.insert(hash(&id), row);
                    model.insert(id.clone(), row);
                    rows.push(id);
                }
                prop_assert_eq!(index.len, model.len());
                prop_assert!(index.len * 8 <= index.buckets.len() * 7);
            }
            for (id, &row) in &model {
                prop_assert_eq!(index.find(hash(id), |r| rows[r as usize] == *id), Some(row));
            }
        }
    }

    #[test]
    fn a_bucket_is_eight_bytes_and_an_empty_index_holds_none() {
        assert_eq!(std::mem::size_of::<Bucket>(), 8);
        let index = RowIndex::default();
        assert_eq!(index.find(7, |_| true), None);
        assert!(index.buckets.is_empty());
    }
}
