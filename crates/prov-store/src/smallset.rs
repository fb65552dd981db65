//! Insertion-ordered sets that live inside the row while they are small.
//!
//! Task rows dedup their `dependencies`/`inputs`/`outputs` and data rows
//! their derivations on every ingest, and a data row's graph edges sit in
//! sets of these once one outgrows the row
//! ([`DataRow`](crate::store::DataRow)). Nearly every such set holds at
//! most two members (a row derives from one or two others, a task uses one
//! input), and a few hold thousands (a dataset used by every task).
//! [`SmallSet`] is laid out for both: up to two members sit inline in the
//! set itself — 16 bytes for a set of row numbers, no allocation, and a
//! traversal reads the edges out of the row it already has — while a third
//! member moves everything behind one `Box` holding a `Vec`, so a plain
//! `Vec::contains` never makes ingest quadratic for hub nodes past eight
//! members:
//!
//! * while the members ascend — row numbers arrive in ascending order, so
//!   a task's outputs nearly always do — a binary search of the `Vec`
//!   answers membership, and the set holds each member once;
//! * the first insert that breaks the order builds a `HashSet` beside the
//!   `Vec`, which holds each member a second time; for
//!   [`Id`](prov_model::Id)s that is two references to one allocation, not
//!   two copies.

use std::collections::HashSet;
use std::hash::Hash;
use std::ops::Deref;

/// Linear-scan length above which membership is a binary search of
/// ascending members, or a hash probe of an index once they do not ascend.
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
    /// Membership index, built once `items` outgrows [`SPILL`] out of
    /// ascending order. Past [`SPILL`] with none, `items` ascend.
    index: Option<HashSet<T>>,
}

impl<T> Default for SmallSet<T> {
    fn default() -> Self {
        SmallSet(Repr::Empty)
    }
}

impl<T: Ord + Hash + Clone> SmallSet<T> {
    /// Empty set.
    pub fn new() -> Self {
        SmallSet::default()
    }

    /// Membership test: a linear scan while small, then a binary search
    /// while the members ascend and a hash probe once they do not.
    pub fn contains(&self, value: &T) -> bool {
        match &self.0 {
            Repr::Many(many) => match &many.index {
                Some(index) => index.contains(value),
                None if many.items.len() > SPILL => many.items.binary_search(value).is_ok(),
                None => many.items.contains(value),
            },
            _ => self.deref().contains(value),
        }
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
                let items = &many.items;
                match &mut many.index {
                    Some(index) => {
                        index.insert(value.clone());
                    }
                    // Past `SPILL` the members ascend or are indexed: a
                    // value that breaks the order builds the index.
                    None if items.len() >= SPILL => {
                        let ascends = |items: &[T]| items.windows(2).all(|w| w[0] < w[1]);
                        let follows = items.last().is_some_and(|last| *last < value);
                        if !(follows && (items.len() > SPILL || ascends(items))) {
                            let members = items.iter().cloned().chain([value.clone()]);
                            many.index = Some(members.collect());
                        }
                    }
                    None => {}
                }
                many.items.push(value);
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

impl<T: Ord + Hash + Clone> FromIterator<T> for SmallSet<T> {
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

    fn indexed<T>(set: &SmallSet<T>) -> bool {
        matches!(&set.0, Repr::Many(many) if many.index.is_some())
    }

    fn ascending<T: Ord>(items: &[T]) -> bool {
        items.windows(2).all(|w| w[0] < w[1])
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
        // Descending: no binary search can answer for these.
        let mut s = SmallSet::new();
        for i in (0..100usize).rev() {
            assert!(s.insert(i));
            assert!(!s.insert(i));
        }
        assert!(indexed(&s), "large set must spill");
        assert_eq!(s.len(), 100);
        for i in 0..100usize {
            assert!(s.contains(&i));
        }
        assert!(!s.contains(&100));
        // Order survived the spill.
        assert!(s.iter().copied().eq((0..100).rev()));
    }

    #[test]
    fn an_ascending_set_keeps_no_index_until_an_insert_breaks_the_order() {
        let mut s: SmallSet<u32> = (0..64).map(|i| 2 * i).collect();
        assert!(!indexed(&s), "ascending members need no index");
        assert!(s.contains(&126) && !s.contains(&63) && !s.contains(&128));
        assert!(!s.insert(40));
        assert!(s.insert(200));
        assert!(!indexed(&s));
        assert!(s.insert(3));
        assert!(indexed(&s), "an insert out of order builds the index");
        assert!(s.contains(&3) && s.contains(&200) && !s.contains(&5));
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
    fn run_against_model<T: Ord + Hash + Clone + Debug>(
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
                    assert_eq!(indexed(&copy), indexed(&set));
                    // A clone is a set of its own.
                    set = copy;
                }
            }
            assert_eq!(&*set, order.as_slice());
            assert_eq!(set, order);
            assert_eq!(indexed(&set), order.len() > SPILL && !ascending(&order));
            for value in domain {
                assert_eq!(set.contains(value), members.contains(value));
            }
        }
        set
    }

    /// Runs of ascending inserts two apart, each followed by one value from
    /// `0..64` — a duplicate, a value out of order or one that keeps the
    /// order — so the order breaks before, at and after [`SPILL`].
    fn arb_runs() -> impl Strategy<Value = Vec<(usize, u32)>> {
        proptest::collection::vec((0..2 * SPILL + 2, 0u32..64), 1..5)
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
            let held = if indexed(&set) { 2 } else { 1 };
            for id in &domain {
                if let Id::Str(text) = id {
                    let expected = 1 + if set.contains(id) { held } else { 0 };
                    prop_assert_eq!(Arc::strong_count(text), expected);
                }
            }
        }

        /// An ascending set past [`SPILL`] holds no index, and order, dedup
        /// and membership match a `Vec` whichever side of [`SPILL`] an
        /// insert breaks the order on.
        #[test]
        fn prop_ascending_runs_keep_no_index_until_an_insert_breaks_them(runs in arb_runs()) {
            let mut set = SmallSet::new();
            let mut order: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for (run, odd) in runs {
                let values = (next..).step_by(2).take(run).chain([odd]);
                for value in values {
                    let inserted = set.insert(value);
                    prop_assert_eq!(inserted, !order.contains(&value));
                    if inserted {
                        order.push(value);
                    }
                    prop_assert_eq!(&*set, order.as_slice());
                    prop_assert_eq!(indexed(&set), order.len() > SPILL && !ascending(&order));
                    for probe in 0..order.iter().max().map_or(0, |m| m + 2) {
                        prop_assert_eq!(set.contains(&probe), order.contains(&probe));
                    }
                }
                next = order.iter().max().map_or(0, |m| m + 1);
            }
        }
    }
}
