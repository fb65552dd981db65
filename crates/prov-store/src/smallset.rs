//! Insertion-ordered sets that live inside the row while they are small.
//!
//! Task rows dedup their `dependencies`/`inputs`/`outputs` and data rows
//! their derivation and `used_by` edges on every ingest. Nearly every such
//! set holds at most two members (a row derives from one or two others, a
//! task uses one input), and a few hold thousands (a dataset used by every
//! task). [`SmallSet`] is laid out for both: up to two members sit inline
//! in the set itself — 24 bytes for an index set, no allocation, and a
//! traversal reads the edges out of the row it already has — while a third
//! member moves everything behind one `Box` holding a `Vec`, and past
//! eight members a `HashSet` beside it, so a plain `Vec::contains` never
//! makes ingest quadratic for hub nodes. A spilled set holds each member
//! twice; for [`Id`](prov_model::Id)s that is two references to one
//! allocation, not two copies.

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Deref;

/// Linear-scan length above which a hash index is built.
const SPILL: usize = 8;

/// An insertion-ordered set over `T`.
#[derive(Clone, Debug)]
pub struct SmallSet<T>(Repr<T>);

#[derive(Clone, Debug, Default)]
enum Repr<T> {
    #[default]
    Empty,
    One([T; 1]),
    Two([T; 2]),
    Many(Box<Many<T>>),
}

/// Three members or more.
#[derive(Clone, Debug)]
struct Many<T> {
    items: Vec<T>,
    /// Membership index, built once `items` outgrows [`SPILL`].
    index: Option<HashSet<T>>,
}

impl<T> Default for SmallSet<T> {
    fn default() -> Self {
        SmallSet(Repr::Empty)
    }
}

impl<T: Eq + Hash + Clone> SmallSet<T> {
    /// Empty set.
    pub fn new() -> Self {
        SmallSet::default()
    }

    /// Membership test: hash probe once spilled, linear scan while small.
    pub fn contains(&self, value: &T) -> bool {
        if let Repr::Many(many) = &self.0 {
            if let Some(index) = &many.index {
                return index.contains(value);
            }
        }
        self.deref().contains(value)
    }

    /// Inserts an owned value; returns `true` if it was new.
    pub fn insert(&mut self, value: T) -> bool {
        if self.contains(&value) {
            return false;
        }
        self.0 = match std::mem::take(&mut self.0) {
            Repr::Empty => Repr::One([value]),
            Repr::One([a]) => Repr::Two([a, value]),
            Repr::Two([a, b]) => Repr::Many(Box::new(Many {
                items: vec![a, b, value],
                index: None,
            })),
            Repr::Many(mut many) => {
                if let Some(index) = &mut many.index {
                    index.insert(value.clone());
                }
                many.items.push(value);
                if many.index.is_none() && many.items.len() > SPILL {
                    many.index = Some(many.items.iter().cloned().collect());
                }
                Repr::Many(many)
            }
        };
        true
    }

    /// Inserts by reference, cloning only when the value is new — a
    /// membership *hit* performs zero clones.
    pub fn insert_cloned(&mut self, value: &T) -> bool {
        if self.contains(value) {
            return false;
        }
        self.insert(value.clone())
    }
}

impl<T> Deref for SmallSet<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(items) => items,
            Repr::Two(items) => items,
            Repr::Many(many) => &many.items,
        }
    }
}

impl<T: PartialEq> PartialEq for SmallSet<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: PartialEq> PartialEq<Vec<T>> for SmallSet<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: PartialEq, const N: usize> PartialEq<[T; N]> for SmallSet<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        **self == *other
    }
}

impl<'a, T> IntoIterator for &'a SmallSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for SmallSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = SmallSet::new();
        for v in iter {
            set.insert(v);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use prov_model::Id;
    use std::fmt::Debug;
    use std::sync::Arc;

    fn spilled<T>(set: &SmallSet<T>) -> bool {
        matches!(&set.0, Repr::Many(many) if many.index.is_some())
    }

    #[test]
    fn preserves_insertion_order_and_dedups() {
        let mut s = SmallSet::new();
        assert!(s.insert(3));
        assert!(s.insert(1));
        assert!(!s.insert(3));
        assert_eq!(&*s, &[3, 1]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn spills_to_hash_index_and_stays_correct() {
        let mut s = SmallSet::new();
        for i in 0..100usize {
            assert!(s.insert(i));
            assert!(!s.insert(i));
        }
        assert!(spilled(&s), "large set must spill");
        assert_eq!(s.len(), 100);
        for i in 0..100usize {
            assert!(s.contains(&i));
        }
        assert!(!s.contains(&100));
        // Order survived the spill.
        assert!(s.iter().copied().eq(0..100));
    }

    #[test]
    fn insert_cloned_only_clones_new_values() {
        let mut s: SmallSet<String> = SmallSet::new();
        let v = "x".to_owned();
        assert!(s.insert_cloned(&v));
        assert!(!s.insert_cloned(&v));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equality_with_vec_and_array() {
        let s: SmallSet<u32> = [5, 7].into_iter().collect();
        assert_eq!(s, vec![5, 7]);
        assert_eq!(s, [5, 7]);
        let t: SmallSet<u32> = [7, 5].into_iter().collect();
        assert_ne!(s, t);
    }

    /// Small enough that re-inserts are common, large enough to pass
    /// [`SPILL`].
    const DOMAIN: usize = 12;

    /// A random walk over the set's surface: which operation, and which
    /// value of the domain it takes.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize)>> {
        proptest::collection::vec((0u8..6, 0usize..DOMAIN), 0..64)
    }

    /// Drives `ops` over a set and over a `Vec` + `HashSet` reference,
    /// comparing after every step, so every length from empty to past the
    /// spill is compared on the way up.
    fn run_against_model<T: Eq + Hash + Clone + Debug>(
        domain: &[T],
        ops: &[(u8, usize)],
    ) -> SmallSet<T> {
        let mut set = SmallSet::new();
        let (mut order, mut members) = (Vec::new(), HashSet::new());
        for &(op, pick) in ops {
            let value = &domain[pick];
            match op {
                0..=3 => {
                    let inserted = match op {
                        3 => set.insert_cloned(value),
                        _ => set.insert(value.clone()),
                    };
                    assert_eq!(inserted, members.insert(value.clone()));
                    if inserted {
                        order.push(value.clone());
                    }
                }
                4 => assert_eq!(set.contains(value), members.contains(value)),
                _ => {
                    let copy = set.clone();
                    assert_eq!(copy, set);
                    assert_eq!(spilled(&copy), spilled(&set));
                    // A clone is a set of its own.
                    set = copy;
                }
            }
            assert_eq!(&*set, order.as_slice());
            assert_eq!(set, order);
            assert_eq!(spilled(&set), order.len() > SPILL);
            for value in domain {
                assert_eq!(set.contains(value), members.contains(value));
            }
        }
        set
    }

    proptest! {
        #[test]
        fn prop_index_set_matches_vec_and_hashset_model(ops in arb_ops()) {
            let domain: Vec<usize> = (100..100 + DOMAIN).collect();
            run_against_model(&domain, &ops);
        }

        #[test]
        fn prop_id_set_matches_model_and_shares_allocations(ops in arb_ops()) {
            // Every other id is a string: one allocation each, referenced
            // once by `domain`.
            let domain: Vec<Id> = (0..DOMAIN)
                .map(|i| match i % 2 {
                    0 => Id::from(format!("id-{i}")),
                    _ => Id::Num(i as u64),
                })
                .collect();
            let set = run_against_model(&domain, &ops);
            // One more reference per place the set holds the member,
            // never a copy of the text.
            let held = if spilled(&set) { 2 } else { 1 };
            for id in &domain {
                if let Id::Str(text) = id {
                    let expected = 1 + if set.contains(id) { held } else { 0 };
                    prop_assert_eq!(Arc::strong_count(text), expected);
                }
            }
        }
    }
}
