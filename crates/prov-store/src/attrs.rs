//! A row's attributes, packed: the shape said once, a cell at eight bytes.
//!
//! PR 21 taught the wire that a group of records has one shape; this module
//! is the same lever in the store. A row's attribute list is split in two:
//!
//! * a [`Layout`] — the names and value tags of the list, in order, plus
//!   for each slot the typed column it feeds. It belongs to one workflow's
//!   table and is shared, by `Arc`, by every row of that table with that
//!   shape, whichever message brought the row;
//! * the row's own cells — one `u64` per slot. `Null`, `Bool`, `Int` and
//!   `Float` are their bits, read back under the layout's tag, so an `Int`
//!   keeps all 64 bits and a `Float` its sign of zero and its NaN payload.
//!   `Str`, `List` and `Bytes` do not fit: their cell is an index into a
//!   side `Vec` of the [`AttrValue`]s themselves, which a row of numbers —
//!   what the paper's workloads carry — does not have and does not
//!   allocate.
//!
//! So a cell costs the row 8 bytes where a `(Arc<str>, AttrValue)` pair
//! cost 48, and [`Attrs`] is 32 bytes inline. The cells are one boxed
//! slice, except a lone cell: it sits in the row, where the box's pointer
//! and length would, so a row of one number — every lineage DAG row and
//! every task output the workloads carry — allocates nothing for its cells
//! and does not pay a 32-byte malloc chunk to hold 8 bytes. A merge that
//! takes a row past one cell moves it to the box.
//!
//! # Interning
//!
//! [`Layouts`] is a workflow's table of them, keyed by content: names by
//! their bytes, tags. A lookup first tries the few layouts used
//! last — names compared by address, then by bytes — which is where the
//! rows of a group, and the inputs and outputs of alternating task records,
//! are found without hashing anything; a miss there hashes the shape once
//! and compares it with the layouts of that hash in full. The match is
//! exact on purpose. A table that defined a new layout on every fast-path
//! miss would grow with the rows whenever a few shapes alternate, and put
//! back per row what a layout exists to say once; one that trusted the hash
//! would sooner or later label one row's cells with another row's names.
//! The number of layouts a workflow holds is the number of distinct `(names,
//! tags)` its rows have had.
//!
//! The column a slot feeds is resolved when the layout is defined and never
//! again — a column's kind is fixed by the first typed value under its name
//! — so ingesting a row of a known shape probes no string: it finds the
//! layout, copies the payloads, and appends its row number to the layout's
//! rows. That list is how a column reaches its rows: a column names the
//! layouts that feed it, each with its slot, and a layout lists its rows
//! once, not once per cell. A row that a merge moves to a bigger layout is
//! listed there too, in row order, and stays in the list it left, where a
//! scan passes it over.
//!
//! Everything here handles whatever a decoded datagram held, any tag mix
//! and any repetition of names, and is under the `no_panic` lint.

use crate::schema::AttrType;
use prov_model::AttrValue;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

/// Which [`AttrValue`] variant a slot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Tag {
    Null,
    Bool,
    Int,
    Float,
    Str,
    List,
    Bytes,
}

impl Tag {
    fn of(value: &AttrValue) -> Tag {
        match value {
            AttrValue::Null => Tag::Null,
            AttrValue::Bool(_) => Tag::Bool,
            AttrValue::Int(_) => Tag::Int,
            AttrValue::Float(_) => Tag::Float,
            AttrValue::Str(_) => Tag::Str,
            AttrValue::List(_) => Tag::List,
            AttrValue::Bytes(_) => Tag::Bytes,
        }
    }

    /// The kind of column a slot of this tag can feed; agrees with
    /// [`AttrType::of`] on every value.
    fn kind(self) -> AttrType {
        match self {
            Tag::Bool | Tag::Int | Tag::Float => AttrType::Numeric,
            Tag::Str => AttrType::Text,
            Tag::Null | Tag::List | Tag::Bytes => AttrType::Other,
        }
    }

    /// Whether the value lives in the side `Vec` rather than in its cell.
    fn is_wide(self) -> bool {
        matches!(self, Tag::Str | Tag::List | Tag::Bytes)
    }

    /// A cell read as a number: the one reading that column scans and
    /// [`Filter::Attr`](crate::query::Filter) share. `Some` exactly for
    /// the tags whose [`Tag::kind`] is numeric.
    fn numeric(self, bits: u64) -> Option<f64> {
        match self {
            Tag::Bool => Some(if bits == 0 { 0.0 } else { 1.0 }),
            Tag::Int => Some(bits.cast_signed() as f64),
            Tag::Float => Some(f64::from_bits(bits)),
            Tag::Null | Tag::Str | Tag::List | Tag::Bytes => None,
        }
    }
}

#[derive(Debug)]
struct Slot {
    name: Arc<str>,
    tag: Tag,
    /// The typed column this slot's cells are listed in. `None` for a tag
    /// no column takes, for a kind other than the one the workflow's column
    /// of that name began with, and for a name an earlier slot of the
    /// layout carries, whatever that slot's tag — the first value per name
    /// wins.
    column: Option<u32>,
}

impl Slot {
    /// By address where the record's name is the layout's own allocation,
    /// by bytes where it is another message's.
    fn is_named(&self, name: &Arc<str>) -> bool {
        Arc::ptr_eq(&self.name, name) || self.name == *name
    }
}

/// The shape of an attribute list within one workflow: names and value
/// tags in order. Rows of equal shape share one, see the [module
/// docs](self).
#[derive(Debug)]
pub struct Layout {
    slots: Box<[Slot]>,
    /// How many slots keep their value in the side `Vec`.
    wide: usize,
    /// Its position among the layouts of its table: where [`Layouts`]
    /// lists its rows, and what a column names it by.
    number: u32,
    /// Whether a slot feeds a column. Only then are its rows listed.
    feeds: bool,
}

impl Layout {
    /// Its position among the layouts of its workflow's table.
    pub(crate) fn number(&self) -> u32 {
        self.number
    }

    /// The columns its slots feed, each as `(slot, column)`.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let slots = (0u32..).zip(self.slots.iter());
        slots.filter_map(|(at, slot)| Some((at, slot.column?)))
    }

    fn has_shape<'a>(&self, len: usize, shape: impl Iterator<Item = (&'a Arc<str>, Tag)>) -> bool {
        self.slots.len() == len
            && self
                .slots
                .iter()
                .zip(shape)
                .all(|(slot, (name, tag))| slot.tag == tag && slot.is_named(name))
    }

    /// Whether the `len` `names` are this layout's first names, in order.
    fn starts_with<'a>(&self, len: usize, names: impl Iterator<Item = &'a Arc<str>>) -> bool {
        len <= self.slots.len()
            && self
                .slots
                .iter()
                .zip(names)
                .all(|(slot, name)| slot.is_named(name))
    }
}

/// A row's cells: one inside the row, or any other number behind one box.
/// The box's pointer is never null, so the lone cell costs no tag and
/// [`Cells`] is the 16 bytes the box alone would be.
#[derive(Clone)]
enum Cells {
    One(u64),
    Boxed(Box<[u64]>),
}

impl Cells {
    fn as_slice(&self) -> &[u64] {
        match self {
            Cells::One(cell) => std::slice::from_ref(cell),
            Cells::Boxed(cells) => cells,
        }
    }

    /// `held` followed by `new`, `len` cells in all. A lone cell stays in
    /// the row; anything else is one allocation, made here: collecting in
    /// place would keep a sixth of the list's own buffer and leave the rest
    /// as a hole behind every row.
    fn extended(held: &[u64], len: usize, mut new: impl Iterator<Item = u64>) -> Cells {
        if let ([], 1) = (held, len) {
            if let Some(cell) = new.next() {
                return Cells::One(cell);
            }
        }
        let mut cells = Vec::with_capacity(len);
        cells.extend_from_slice(held);
        cells.extend(new);
        Cells::Boxed(cells.into_boxed_slice())
    }
}

/// The attributes of a data row. Reads as the `Vec<(Arc<str>, AttrValue)>`
/// the record brought — same cells, same order, repeated names included —
/// through [`Attrs::iter`], [`Attrs::get`], [`Attrs::to_vec`] and `==`.
#[derive(Clone)]
pub struct Attrs {
    layout: Arc<Layout>,
    /// One payload per slot of `layout`.
    cells: Cells,
    /// The `Str` / `List` / `Bytes` values, in slot order. Boxed so that a
    /// row pays 8 bytes for not having any.
    #[allow(clippy::box_collection)]
    wide: Option<Box<Vec<AttrValue>>>,
}

impl Attrs {
    /// Appends `values` as the cells of the slots of `self.layout` the row
    /// has no cell for yet.
    fn fill(&mut self, values: impl Iterator<Item = AttrValue>) {
        let (layout, wide) = (&self.layout, &mut self.wide);
        let new = values.map(|value| match value {
            AttrValue::Null => 0,
            AttrValue::Bool(b) => u64::from(b),
            AttrValue::Int(i) => i.cast_unsigned(),
            AttrValue::Float(f) => f.to_bits(),
            value @ (AttrValue::Str(_) | AttrValue::List(_) | AttrValue::Bytes(_)) => {
                let side = wide.get_or_insert_with(|| Box::new(Vec::with_capacity(layout.wide)));
                side.push(value);
                side.len() as u64 - 1
            }
        });
        self.cells = Cells::extended(self.cells.as_slice(), layout.slots.len(), new);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.as_slice().len()
    }

    /// Whether the row has no attributes.
    pub fn is_empty(&self) -> bool {
        self.cells.as_slice().is_empty()
    }

    /// The layout the row shares with every row of its workflow and shape.
    pub fn layout(&self) -> &Arc<Layout> {
        &self.layout
    }

    fn value(&self, tag: Tag, bits: u64) -> AttrValue {
        match tag {
            Tag::Null => AttrValue::Null,
            Tag::Bool => AttrValue::Bool(bits != 0),
            Tag::Int => AttrValue::Int(bits.cast_signed()),
            Tag::Float => AttrValue::Float(f64::from_bits(bits)),
            Tag::Str | Tag::List | Tag::Bytes => {
                let side = self.wide.as_ref().and_then(|side| side.get(bits as usize));
                side.cloned().unwrap_or(AttrValue::Null)
            }
        }
    }

    /// The cells in order, as `(name, value)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Arc<str>, AttrValue)> + '_ {
        let cells = self.layout.slots.iter().zip(self.cells.as_slice());
        cells.map(|(slot, &bits)| (&slot.name, self.value(slot.tag, bits)))
    }

    fn first(&self, name: &str) -> Option<(Tag, u64)> {
        let mut cells = self.layout.slots.iter().zip(self.cells.as_slice());
        let (slot, &bits) = cells.find(|(slot, _)| &*slot.name == name)?;
        Some((slot.tag, bits))
    }

    /// The first value under `name`.
    pub fn get(&self, name: &str) -> Option<AttrValue> {
        let (tag, bits) = self.first(name)?;
        Some(self.value(tag, bits))
    }

    /// The first value under `name` read as a number: a `Float` as it is,
    /// an `Int` converted, a `Bool` as 0 or 1, nothing else.
    pub(crate) fn numeric(&self, name: &str) -> Option<f64> {
        let (tag, bits) = self.first(name)?;
        tag.numeric(bits)
    }

    /// The cell in slot `slot` read as a number, as [`Attrs::numeric`]
    /// reads it: what a column scan reads through the slot the column names.
    pub(crate) fn numeric_at(&self, slot: u32) -> Option<f64> {
        let slot = slot as usize;
        let bits = *self.cells.as_slice().get(slot)?;
        self.layout.slots.get(slot)?.tag.numeric(bits)
    }

    /// The cells as the owned list a [`DataRecord`](prov_model::DataRecord)
    /// carries.
    pub fn to_vec(&self) -> Vec<(Arc<str>, AttrValue)> {
        self.iter()
            .map(|(name, value)| (Arc::clone(name), value))
            .collect()
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Cell by cell, as `Vec<(Arc<str>, AttrValue)>` compares: a NaN differs
/// from itself and the two zeros are equal.
impl PartialEq for Attrs {
    fn eq(&self, other: &Attrs) -> bool {
        self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<(Arc<str>, AttrValue)>> for Attrs {
    fn eq(&self, other: &Vec<(Arc<str>, AttrValue)>) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|((name, value), (n, v))| name == n && value == *v)
    }
}

/// How many layouts the fast path remembers: the input and output shapes
/// of two devices whose groups alternate in one table.
const RECENT: usize = 4;

/// The layouts of a workflow, interned by content; see the [module
/// docs](self).
#[derive(Debug, Default)]
pub(crate) struct Layouts {
    /// The layouts used last, newest first.
    recent: Vec<Arc<Layout>>,
    /// Every layout, under the hash of its names and tags by the
    /// map's own randomly keyed hasher: names come from the network.
    by_shape: HashMap<u64, Vec<Arc<Layout>>>,
    /// The rows of each layout, by its number, ascending: 4 bytes a row of
    /// a layout that feeds a column, none for one that does not.
    rows: Vec<Vec<u32>>,
}

impl Layouts {
    /// Number of layouts held.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The rows listed for layout `number`, ascending. A row a merge moved
    /// on is still among them.
    pub(crate) fn rows(&self, number: u32) -> &[u32] {
        self.rows.get(number as usize).map_or(&[], Vec::as_slice)
    }

    /// Lists `row` with the layout `attrs` has, if that layout feeds a
    /// column: at the end for a new row, in its place for one a merge
    /// moved there.
    pub(crate) fn list(&mut self, row: u32, attrs: &Attrs) {
        let layout = &attrs.layout;
        if !layout.feeds {
            return;
        }
        let Some(rows) = self.rows.get_mut(layout.number as usize) else {
            return;
        };
        match rows.last() {
            Some(&last) if last >= row => {
                if let Err(at) = rows.binary_search(&row) {
                    rows.insert(at, row);
                }
            }
            _ => rows.push(row),
        }
    }

    /// Packs a new row's attributes. `resolve` is asked, once per slot of
    /// a layout seen for the first time, for the workflow's copy of a name
    /// and the column of that name a slot of the given kind feeds.
    pub(crate) fn pack(
        &mut self,
        attributes: Vec<(Arc<str>, AttrValue)>,
        resolve: impl FnMut(&Arc<str>, AttrType) -> (Arc<str>, Option<u32>),
    ) -> Attrs {
        let shape = attributes.iter().map(|(name, v)| (name, Tag::of(v)));
        let mut attrs = Attrs {
            layout: self.intern(attributes.len(), shape, resolve),
            cells: Cells::Boxed(Box::default()),
            wide: None,
        };
        attrs.fill(attributes.into_iter().map(|(_, value)| value));
        attrs
    }

    /// Merges what a re-seen row was reported with this time: cells whose
    /// name the row does not have yet are appended, in order, and the row
    /// moves to the layout extended by them; the first value per name
    /// stays. Returns the slot of the first new cell, `attrs.len()` when
    /// nothing was new.
    pub(crate) fn merge(
        &mut self,
        attrs: &mut Attrs,
        incoming: Vec<(Arc<str>, AttrValue)>,
        resolve: impl FnMut(&Arc<str>, AttrType) -> (Arc<str>, Option<u32>),
    ) -> usize {
        let held = attrs.len();
        // A re-reported item nearly always has the shape it had, often the
        // very names: a positional comparison proves every name known in
        // O(A) where the scan below is O(A^2).
        let names = incoming.iter().map(|(name, _)| name);
        if attrs.layout.starts_with(incoming.len(), names) {
            return held;
        }
        let mut new: Vec<(Arc<str>, AttrValue)> = Vec::new();
        for (name, value) in incoming {
            let known = attrs.layout.slots.iter().any(|s| s.name == name)
                || new.iter().any(|(n, _)| *n == name);
            if !known {
                new.push((name, value));
            }
        }
        if new.is_empty() {
            return held;
        }
        let from = Arc::clone(&attrs.layout);
        let shape = from
            .slots
            .iter()
            .map(|slot| (&slot.name, slot.tag))
            .chain(new.iter().map(|(name, v)| (name, Tag::of(v))));
        attrs.layout = self.intern(held + new.len(), shape, resolve);
        attrs.fill(new.into_iter().map(|(_, value)| value));
        held
    }

    /// The layout of `shape` (`len` cells): the one the workflow holds, or
    /// a new one.
    fn intern<'a>(
        &mut self,
        len: usize,
        shape: impl Iterator<Item = (&'a Arc<str>, Tag)> + Clone,
        mut resolve: impl FnMut(&Arc<str>, AttrType) -> (Arc<str>, Option<u32>),
    ) -> Arc<Layout> {
        let is_it = |layout: &Arc<Layout>| layout.has_shape(len, shape.clone());
        if let Some(at) = self.recent.iter().position(is_it) {
            self.recent[..=at].rotate_right(1);
            return Arc::clone(&self.recent[0]);
        }
        let mut hasher = self.by_shape.hasher().build_hasher();
        for (name, tag) in shape.clone() {
            name.hash(&mut hasher);
            tag.hash(&mut hasher);
        }
        let same_hash = self.by_shape.entry(hasher.finish()).or_default();
        let layout = match same_hash.iter().find(|layout| is_it(layout)) {
            Some(layout) => Arc::clone(layout),
            None => {
                let mut named = HashSet::new();
                let slots: Box<[Slot]> = shape
                    .map(|(name, tag)| {
                        // Only the first slot of a name is typed: a name
                        // the list repeats neither feeds nor defines a
                        // column from its later slots.
                        let kind = match named.insert(&**name) {
                            true => tag.kind(),
                            false => AttrType::Other,
                        };
                        let (name, column) = resolve(name, kind);
                        Slot { name, tag, column }
                    })
                    .collect();
                let layout = Arc::new(Layout {
                    wide: slots.iter().filter(|slot| slot.tag.is_wide()).count(),
                    number: self.rows.len() as u32,
                    feeds: slots.iter().any(|slot| slot.column.is_some()),
                    slots,
                });
                self.rows.push(Vec::new());
                same_hash.push(Arc::clone(&layout));
                layout
            }
        };
        self.recent.truncate(RECENT - 1);
        self.recent.insert(0, Arc::clone(&layout));
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type List = Vec<(Arc<str>, AttrValue)>;

    /// A column table as `Store` keeps one, counting how often it is asked.
    #[derive(Default)]
    struct Resolver {
        columns: HashMap<Arc<str>, (u32, AttrType)>,
        asked: usize,
    }

    impl Resolver {
        fn resolve(&mut self, name: &Arc<str>, kind: AttrType) -> (Arc<str>, Option<u32>) {
            self.asked += 1;
            if let Some((held, &(column, first))) = self.columns.get_key_value(name) {
                return (Arc::clone(held), (first == kind).then_some(column));
            }
            if kind == AttrType::Other {
                return (Arc::clone(name), None);
            }
            let column = self.columns.len() as u32;
            self.columns.insert(Arc::clone(name), (column, kind));
            (Arc::clone(name), Some(column))
        }
    }

    /// Values as `==` cannot compare them: a float by its bits, lists
    /// cell by cell.
    fn same(a: &AttrValue, b: &AttrValue) -> bool {
        match (a, b) {
            (AttrValue::Float(a), AttrValue::Float(b)) => a.to_bits() == b.to_bits(),
            (AttrValue::List(a), AttrValue::List(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))
            }
            _ => a == b,
        }
    }

    fn numeric_model(value: &AttrValue) -> Option<f64> {
        match value {
            AttrValue::Bool(b) => Some(f64::from(u8::from(*b))),
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// `attrs` read every way it can be, against the list it stands for.
    fn assert_reads_as(attrs: &Attrs, model: &List) {
        assert_eq!(attrs.len(), model.len());
        assert_eq!(attrs.is_empty(), model.is_empty());
        assert_eq!(attrs.iter().len(), model.len());
        for ((name, value), (n, v)) in attrs.iter().zip(model) {
            assert_eq!(name, n);
            assert!(same(&value, v), "{name}: {value:?} for {v:?}");
        }
        for ((name, value), (n, v)) in attrs.to_vec().iter().zip(model) {
            assert_eq!(name, n);
            assert!(same(value, v), "{name}: {value:?} for {v:?}");
        }
        for name in NAMES.into_iter().chain([NEW]) {
            let first = model.iter().find(|(n, _)| &**n == name).map(|(_, v)| v);
            let got = attrs.get(name);
            assert_eq!(got.is_some(), first.is_some());
            assert!(got.iter().zip(first).all(|(a, b)| same(a, b)), "{name}");
            let number = attrs.numeric(name).map(f64::to_bits);
            assert_eq!(number, first.and_then(numeric_model).map(f64::to_bits));
        }
        // `==` is the list's own: a NaN anywhere makes it differ from itself.
        let copy = model.clone();
        assert_eq!(*attrs == *model, copy == *model);
        assert_eq!(*attrs == attrs.clone(), copy == *model);
        let mut longer = model.clone();
        longer.push((Arc::from("z"), AttrValue::Null));
        assert!(*attrs != longer);
        if let Some((_, shorter)) = model.split_last() {
            assert!(*attrs != shorter.to_vec());
        }
        // Numbers cost the row its cells and nothing beside them, and a lone
        // cell is inside the row.
        let wide = model.iter().filter(|(_, v)| Tag::of(v).is_wide()).count();
        assert_eq!(attrs.wide.as_ref().map_or(0, |w| w.len()), wide);
        let inline = matches!(attrs.cells, Cells::One(_));
        assert_eq!(inline, model.len() == 1);
    }

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    /// A name no list of [`arb_cells`] has.
    const NEW: &str = "f";

    fn arb_value() -> impl Strategy<Value = AttrValue> {
        let leaf = prop_oneof![
            Just(AttrValue::Null),
            any::<bool>().prop_map(AttrValue::Bool),
            any::<i64>().prop_map(AttrValue::Int),
            prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(-1)].prop_map(AttrValue::Int),
            any::<f64>().prop_map(AttrValue::Float),
            // Both zeros, and NaNs told apart only by sign and payload.
            prop_oneof![
                Just(0u64),
                Just(1 << 63),
                Just(0x7ff8_0000_0000_0001),
                Just(0xfff0_0000_dead_beef)
            ]
            .prop_map(|bits| AttrValue::Float(f64::from_bits(bits))),
            "[a-z]{0,8}".prop_map(AttrValue::from),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(AttrValue::Bytes),
        ];
        leaf.prop_recursive(2, 8, 4, |inner| {
            proptest::collection::vec(inner, 0..4).prop_map(AttrValue::List)
        })
    }

    /// Attribute lists with names drawn from [`NAMES`] so that they repeat,
    /// within a list and between two: empty, one cell, two, a few, a
    /// hundred.
    fn arb_cells() -> impl Strategy<Value = List> {
        // A name is an allocation of its cell's own, as decoded records of
        // different messages bring them.
        let cell = (0..NAMES.len(), arb_value())
            .prop_map(|(n, v)| (Arc::from(NAMES[n]), v))
            .boxed();
        prop_oneof![
            proptest::collection::vec(cell.clone(), 0..3),
            proptest::collection::vec(cell.clone(), 0..8),
            proptest::collection::vec(cell, 100..101),
        ]
    }

    proptest! {
        #[test]
        fn prop_packed_rows_read_as_the_lists_they_were(
            first in arb_cells(),
            second in arb_cells(),
            merge in 0u8..3,
        ) {
            // What the row is reported with again: any list; its own names,
            // backwards and with other values, which adds nothing; or a list
            // with a name it lacks, which takes a lone cell to two or more.
            let second = match merge {
                0 => second,
                1 => first.iter().rev().map(|(n, _)| (Arc::clone(n), AttrValue::Null)).collect(),
                _ => second.into_iter().chain([(Arc::from(NEW), AttrValue::Int(7))]).collect(),
            };
            let mut layouts = Layouts::default();
            let mut columns = Resolver::default();
            let mut model = first.clone();
            let mut attrs = layouts.pack(first, |n, k| columns.resolve(n, k));
            assert_reads_as(&attrs, &model);

            // A re-seen row: names it lacks are appended, first value each.
            let held = model.len();
            for (name, value) in &second {
                if !model.iter().any(|(n, _)| n == name) {
                    model.push((Arc::clone(name), value.clone()));
                }
            }
            let before = attrs.clone();
            let first_new = layouts.merge(&mut attrs, second, |n, k| columns.resolve(n, k));
            prop_assert_eq!(first_new, held);
            assert_reads_as(&attrs, &model);
            assert_reads_as(&before, &model[..held].to_vec());

            let copy = attrs.clone();
            drop(attrs);
            assert_reads_as(&copy, &model);

            // A fresh row of the merged shape has the merged row's layout,
            // and no column is fed twice by one row.
            let fresh = layouts.pack(model.clone(), |n, k| columns.resolve(n, k));
            prop_assert!(Arc::ptr_eq(fresh.layout(), copy.layout()));
            let mut fed: Vec<u32> = fresh.layout().columns().map(|(_, column)| column).collect();
            fed.sort_unstable();
            prop_assert!(fed.windows(2).all(|w| w[0] != w[1]));
        }
    }

    fn numbers(names: &[&str]) -> List {
        let cell = |(i, name): (usize, &&str)| (Arc::from(*name), AttrValue::Float(i as f64));
        names.iter().enumerate().map(cell).collect()
    }

    #[test]
    fn a_known_shape_is_found_without_asking_for_a_name() {
        let mut layouts = Layouts::default();
        let mut columns = Resolver::default();
        let first = layouts.pack(numbers(&["x", "y"]), |n, k| columns.resolve(n, k));
        assert_eq!(columns.asked, 2);
        // More shapes than the fast path remembers, then the first again.
        for other in ["p", "q", "r", "s", "t"] {
            layouts.pack(numbers(&[other]), |n, k| columns.resolve(n, k));
        }
        assert_eq!(columns.asked, 7);
        let again = layouts.pack(numbers(&["x", "y"]), |n, k| columns.resolve(n, k));
        assert_eq!(columns.asked, 7);
        assert!(Arc::ptr_eq(first.layout(), again.layout()));
        assert_eq!(layouts.len(), 6);
        // Same names, another tag: another layout.
        let ints = vec![
            (Arc::from("x"), AttrValue::Int(0)),
            (Arc::from("y"), AttrValue::Int(1)),
        ];
        let typed = layouts.pack(ints, |n, k| columns.resolve(n, k));
        assert!(!Arc::ptr_eq(first.layout(), typed.layout()));
        assert_eq!(layouts.len(), 7);
    }

    #[test]
    fn a_row_is_thirty_two_bytes_and_a_row_of_numbers_one_allocation() {
        assert_eq!(std::mem::size_of::<Attrs>(), 32);
        let mut layouts = Layouts::default();
        let row = layouts.pack(numbers(&["x", "y", "z"]), |n, _| (Arc::clone(n), None));
        assert!(row.wide.is_none());
        assert!(matches!(&row.cells, Cells::Boxed(cells) if cells.len() == 3));
        // A lone number is no allocation at all.
        let row = layouts.pack(numbers(&["x"]), |n, _| (Arc::clone(n), None));
        assert!(row.wide.is_none());
        assert!(matches!(row.cells, Cells::One(bits) if bits == 0f64.to_bits()));
    }

    #[test]
    fn slots_are_typed_as_values_are() {
        let values = [
            AttrValue::Null,
            AttrValue::Bool(true),
            AttrValue::Int(1),
            AttrValue::Float(1.0),
            AttrValue::from("s"),
            AttrValue::List(Vec::new()),
            AttrValue::Bytes(Vec::new()),
        ];
        for value in &values {
            let tag = Tag::of(value);
            assert_eq!(tag.kind(), AttrType::of(value), "{value:?}");
            assert_eq!(u8::from(tag.is_wide()), u8::from(value.tag() >= 4));
            let numeric = tag.kind() == AttrType::Numeric;
            assert_eq!(tag.numeric(1).is_some(), numeric, "{value:?}");
        }
    }
}
