//! The QoS 1/2 delivery machine, written once and run at both ends.
//!
//! Whoever *sends* a QoS 1/2 PUBLISH — the client toward the broker, the
//! broker toward a subscriber — tracks it in a [`SendWindow`] until the
//! handshake completes; whoever *receives* QoS 2 PUBLISHes — the broker
//! from a publisher, the client from the broker — dedups them with a
//! [`Receiver`]. [`Client`](crate::client::Client) and a broker session
//! each own one of both and keep only what is specific to their end
//! (events and dead letters; sinks, pools and stats). Neither half hashes
//! anything — a window keeps its slots in a deque in allocation order, a
//! receiver a bitmap of the id space — so once warm, what they hold grows
//! with nothing a hash seed picks.
//!
//! The sender's whole policy is the table in [`step`]:
//!
//! ```text
//! awaiting \ ack | PUBACK    PUBREC      PUBCOMP
//! ---------------+--------------------------------
//! Puback (QoS 1) | done      ignored     ignored
//! Pubrec (QoS 2) | ignored   -> Pubcomp  ignored
//! Pubcomp (QoS 2)| ignored   re-armed    done
//! ```
//!
//! Replies are not part of it: a PUBREC is always answered with a PUBREL
//! and a PUBREL with a PUBCOMP, slot or no slot, so a peer whose ack was
//! lost can always finish its half of the handshake.

use crate::broker::wire::{put_bytes, Reader};
use crate::client::Nanos;
use crate::packet::QoS;
use std::collections::VecDeque;

/// How many completed inbound QoS 2 ids a [`Receiver`] remembers. 64 ids
/// at 2 bytes each is negligible per session, yet far wider than any
/// realistic retransmission/delay window; `prop_window_outlives_delay_not_wrap`
/// checks it against sequential id allocation.
pub(crate) const COMPLETED_QOS2_WINDOW: usize = 64;

/// An acknowledgement: as a packet, the one that arrived for an in-flight
/// message; as a slot's phase, the one the message is waiting for. What a
/// slot awaits is private to this module, so only [`step`] moves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ack {
    Puback,
    Pubrec,
    Pubcomp,
}

enum Step {
    /// Keep the slot, now awaiting this; the retry timer starts over.
    Await(Ack),
    /// The handshake is complete; free the slot.
    Done,
    /// Not what this phase accepts (stale, duplicated or hostile).
    Ignored,
}

/// The transition table. Every pair is spelled out so that a new phase or
/// ack cannot compile without a decision for each cell.
const fn step(awaiting: Ack, got: Ack) -> Step {
    use Ack::{Puback, Pubcomp, Pubrec};
    match (awaiting, got) {
        (Puback, Puback) => Step::Done,
        (Puback, Pubrec) => Step::Ignored,
        (Puback, Pubcomp) => Step::Ignored,
        (Pubrec, Puback) => Step::Ignored,
        (Pubrec, Pubrec) => Step::Await(Pubcomp),
        (Pubrec, Pubcomp) => Step::Ignored,
        (Pubcomp, Puback) => Step::Ignored,
        // A repeated PUBREC is answered with another PUBREL by the caller,
        // so the PUBREL timer starts over rather than firing right behind it.
        (Pubcomp, Pubrec) => Step::Await(Pubcomp),
        (Pubcomp, Pubcomp) => Step::Done,
    }
}

impl Ack {
    /// What a message just published at `qos` awaits. Callers track QoS 1
    /// and 2 only; QoS 0 has no handshake.
    fn first(qos: QoS) -> Ack {
        match qos {
            QoS::AtLeastOnce => Ack::Puback,
            QoS::AtMostOnce | QoS::ExactlyOnce => Ack::Pubrec,
        }
    }

    /// A slot's phase in a snapshot: the message's QoS byte, then the
    /// byte for what it awaits.
    const fn to_bytes(self) -> [u8; 2] {
        match self {
            Ack::Puback => [1, 0],
            Ack::Pubrec => [2, 1],
            Ack::Pubcomp => [2, 2],
        }
    }

    fn from_bytes(bytes: [u8; 2]) -> Result<Ack, &'static str> {
        match bytes {
            [1, 0] => Ok(Ack::Puback),
            [2, 1] => Ok(Ack::Pubrec),
            [2, 2] => Ok(Ack::Pubcomp),
            _ => Err("invalid outbound QoS/phase bytes"),
        }
    }
}

/// One unacknowledged outbound message; `T` is how the owning end names
/// its topic.
#[derive(Clone, Debug)]
pub(crate) struct Slot<T> {
    id: u16,
    pub(crate) topic: T,
    pub(crate) payload: Vec<u8>,
    awaiting: Ack,
    last_sent: Nanos,
    retries: u32,
}

impl<T> Slot<T> {
    /// How to send this message again: `Some(qos)` is the PUBLISH with DUP
    /// at that QoS, because nothing yet proves the peer holds it; `None`
    /// is the PUBREL, because its PUBREC arrived.
    pub(crate) fn republish_qos(&self) -> Option<QoS> {
        match self.awaiting {
            Ack::Puback => Some(QoS::AtLeastOnce),
            Ack::Pubrec => Some(QoS::ExactlyOnce),
            Ack::Pubcomp => None,
        }
    }
}

/// What [`SendWindow::due`] found for one message whose `Tretry` ran out.
pub(crate) enum Due<'a, T> {
    /// Retry budget left: send it again (see [`Slot::republish_qos`]).
    Resend(&'a Slot<T>),
    /// `Nretry` exhausted: the slot is gone, this is what it held.
    Expired(Slot<T>),
}

/// The sender half: unacknowledged QoS 1/2 publishes and the message-id
/// allocator they share.
///
/// The slots sit in a deque in the order their ids were allocated. Ids are
/// handed out sequentially, so that is also the order of each id's
/// distance from the allocator, across the `u16` wrap: a lookup is a
/// binary search on that distance, a publish goes on the back, and acks,
/// which mostly come in publish order, take from the front. Nothing is
/// hashed and no publish counter is stored or persisted; once the deque
/// has held a full window it never grows again. A message the allocator
/// laps — one outlived by 65535 later allocations, which `Tretry ×
/// Nretry` bounds in practice — moves to the back as it is passed, as if
/// published again, so the order of distances always holds.
#[derive(Clone, Debug)]
pub(crate) struct SendWindow<T> {
    next_id: u16,
    slots: VecDeque<Slot<T>>,
}

impl<T> SendWindow<T> {
    pub(crate) fn new() -> Self {
        SendWindow {
            next_id: 1,
            slots: VecDeque::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The allocator position, for the snapshot.
    pub(crate) fn next_id(&self) -> u16 {
        self.next_id
    }

    // lint: zero-alloc-begin

    /// Where the slot of `id` is, or where it would go: the deque is
    /// ordered by how far forward of the allocator an id lies, `id -
    /// next_id` wrapping, which is least for the oldest.
    fn search(&self, id: u16) -> Result<usize, usize> {
        let next_id = self.next_id;
        let distance = |id: u16| id.wrapping_sub(next_id);
        self.slots
            .binary_search_by_key(&distance(id), |slot| distance(slot.id))
    }

    /// Hands out the next free message id: sequential, wrapping past 65535
    /// to 1, skipping ids still in flight and any the caller says are
    /// `taken` by transactions of its own that share the id space.
    pub(crate) fn alloc_msg_id(&mut self, taken: impl Fn(u16) -> bool) -> u16 {
        loop {
            let id = self.next_id;
            self.next_id = match id.wrapping_add(1) {
                0 => 1,
                next => next,
            };
            // A live id at the allocator is the oldest, at the front;
            // passing it makes it the farthest behind, so it goes last.
            if self.slots.front().is_some_and(|slot| slot.id == id) {
                self.slots.rotate_left(1);
            } else if id != 0 && !taken(id) {
                return id;
            }
        }
    }

    /// Starts tracking a QoS 1/2 message just sent under `id`; one already
    /// tracked under it is replaced.
    pub(crate) fn start(&mut self, id: u16, qos: QoS, topic: T, payload: Vec<u8>, now: Nanos) {
        let slot = Slot {
            id,
            topic,
            payload,
            awaiting: Ack::first(qos),
            last_sent: now,
            retries: 0,
        };
        // Just allocated, `id` is the newest: the back.
        match self.search(id) {
            Ok(at) => self.slots[at] = slot,
            Err(at) => self.slots.insert(at, slot),
        }
    }

    /// Applies an acknowledgement through [`step`]. Returns the message's
    /// payload buffer when this ack completed its handshake.
    pub(crate) fn on_ack(&mut self, id: u16, ack: Ack, now: Nanos) -> Option<Vec<u8>> {
        let at = self.search(id).ok()?;
        let slot = self.slots.get_mut(at)?;
        match step(slot.awaiting, ack) {
            Step::Await(next) => {
                slot.awaiting = next;
                slot.last_sent = now;
                slot.retries = 0;
                None
            }
            Step::Done => self.slots.remove(at).map(|slot| slot.payload),
            Step::Ignored => None,
        }
    }

    /// Stops tracking a message the peer refused, whatever its phase, and
    /// returns what it held.
    pub(crate) fn abandon(&mut self, id: u16) -> Option<Slot<T>> {
        let at = self.search(id).ok()?;
        self.slots.remove(at)
    }

    /// Gives one message a fresh retry budget counted from `now`, for a
    /// caller about to send it again on a resumed session.
    pub(crate) fn rearm(&mut self, id: u16, now: Nanos) -> Option<&mut Slot<T>> {
        let at = self.search(id).ok()?;
        let slot = self.slots.get_mut(at)?;
        slot.last_sent = now;
        slot.retries = 0;
        Some(slot)
    }

    /// Rebases every send time to zero: for an owner whose clock
    /// restarted, or — with `fresh_budget`, which also forgets the retries
    /// spent — for a peer that came back at a new address and should see
    /// everything again on the next [`SendWindow::due`] pass.
    pub(crate) fn reset_clock(&mut self, fresh_budget: bool) {
        for slot in self.slots.iter_mut() {
            slot.last_sent = 0;
            if fresh_budget {
                slot.retries = 0;
            }
        }
    }

    /// When the next [`SendWindow::due`] pass will find something: the
    /// oldest send time plus `retry_ns`. `None` with nothing in flight.
    pub(crate) fn next_due(&self, retry_ns: u64) -> Option<Nanos> {
        let oldest = self.slots.iter().map(|slot| slot.last_sent).min()?;
        Some(oldest.saturating_add(retry_ns))
    }

    /// The retransmit-or-expire pass: every message unacknowledged for
    /// `retry_ns` is either re-sent (retry counted, timer restarted) or,
    /// after `max_retries` re-sends, removed. `each` sees them oldest
    /// publish first, as the deque holds them.
    pub(crate) fn due(
        &mut self,
        now: Nanos,
        retry_ns: u64,
        max_retries: u32,
        mut each: impl FnMut(u16, Due<'_, T>),
    ) {
        let mut at = 0;
        while let Some(slot) = self.slots.get_mut(at) {
            let id = slot.id;
            if now.saturating_sub(slot.last_sent) < retry_ns {
                at += 1;
            } else if slot.retries >= max_retries {
                if let Some(slot) = self.slots.remove(at) {
                    each(id, Due::Expired(slot));
                }
            } else {
                slot.retries += 1;
                slot.last_sent = now;
                each(id, Due::Resend(slot));
                at += 1;
            }
        }
    }

    // lint: zero-alloc-end

    /// Ids of the messages matching `filter`, oldest publish first, for an
    /// owner that goes on to change the window (a resumed session's
    /// remaps and refusals).
    pub(crate) fn ids_in_order(&self, filter: impl Fn(&Slot<T>) -> bool) -> Vec<u16> {
        let slots = self.slots.iter().filter(|slot| filter(slot));
        slots.map(|slot| slot.id).collect()
    }

    #[cfg(test)]
    pub(crate) fn set_next_id(&mut self, id: u16) {
        self.next_id = id;
        let slots = self.slots.make_contiguous();
        slots.sort_unstable_by_key(|slot| slot.id.wrapping_sub(id));
    }
}

/// Snapshot codec for a broker session's window (topics are topic ids).
/// The allocator position travels separately: the session layout stores
/// it ahead of the buffered messages.
impl SendWindow<u16> {
    /// The slots by ascending id: the ids at or past the allocator are the
    /// front of the deque, the ones before it the back.
    pub(crate) fn encode_slots(&self, out: &mut Vec<u8>) {
        let wrap = self.slots.partition_point(|slot| slot.id >= self.next_id);
        out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
        for slot in self.slots.range(wrap..).chain(self.slots.range(..wrap)) {
            out.extend_from_slice(&slot.id.to_le_bytes());
            out.extend_from_slice(&slot.topic.to_le_bytes());
            out.extend_from_slice(&slot.awaiting.to_bytes());
            out.extend_from_slice(&slot.last_sent.to_le_bytes());
            out.extend_from_slice(&slot.retries.to_le_bytes());
            put_bytes(out, &slot.payload);
        }
    }

    pub(crate) fn decode_slots(next_id: u16, r: &mut Reader<'_>) -> Result<Self, &'static str> {
        let mut slots = Vec::new();
        for _ in 0..r.u32()? {
            // Fields read in stream order.
            slots.push(Slot {
                id: r.u16()?,
                topic: r.u16()?,
                awaiting: Ack::from_bytes([r.u8()?, r.u8()?])?,
                last_sent: r.u64()?,
                retries: r.u32()?,
                payload: r.bytes()?,
            });
        }
        slots.sort_unstable_by_key(|slot| slot.id.wrapping_sub(next_id));
        if slots.iter().any(|slot| slot.id == 0) {
            return Err("message id 0 in flight");
        }
        if slots.windows(2).any(|pair| pair[0].id == pair[1].id) {
            return Err("message id in flight twice");
        }
        Ok(SendWindow {
            next_id,
            slots: slots.into(),
        })
    }
}

/// A set of message ids: a bit for each of the `u16` space, 8 KiB made at
/// the first insert and never grown, so what it costs does not depend on
/// which ids come and go, or on any hash seed.
#[derive(Clone, Debug, Default)]
struct IdSet {
    words: Option<Box<[u64; IdSet::WORDS]>>,
}

impl IdSet {
    const WORDS: usize = (u16::MAX as usize + 1) / 64;

    fn at(id: u16) -> (usize, u64) {
        (usize::from(id / 64), 1 << (id % 64))
    }

    fn contains(&self, id: u16) -> bool {
        let (word, bit) = IdSet::at(id);
        self.words.as_ref().is_some_and(|w| w[word] & bit != 0)
    }

    /// Adds `id`; `true` if it was not there.
    fn insert(&mut self, id: u16) -> bool {
        let (word, bit) = IdSet::at(id);
        // Once a session: at its first QoS 2 receipt.
        let words = self
            .words
            .get_or_insert_with(|| Box::new([0; IdSet::WORDS]));
        let new = words[word] & bit == 0;
        words[word] |= bit;
        new
    }

    /// Takes `id` out; `true` if it was there.
    fn remove(&mut self, id: u16) -> bool {
        let (word, bit) = IdSet::at(id);
        let Some(words) = self.words.as_mut() else {
            return false;
        };
        let held = words[word] & bit != 0;
        words[word] &= !bit;
        held
    }

    /// The ids, ascending.
    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        let words = self.words.iter().flat_map(|w| w.iter().enumerate());
        words
            .filter(|(_, &word)| word != 0)
            .flat_map(|(at, &word)| {
                let bits = (0..64).filter(move |bit| word & (1 << bit) != 0);
                bits.map(move |bit| (at * 64 + bit) as u16)
            })
    }

    fn len(&self) -> usize {
        let words = self.words.iter().flat_map(|w| w.iter());
        words.map(|word| word.count_ones() as usize).sum()
    }
}

/// The QoS 2 receiver half: exactly-once delivery of inbound PUBLISHes.
/// Its state is bounded by the id space — a bit per id awaiting its PUBREL
/// and a window of the last [`COMPLETED_QOS2_WINDOW`] completed — so once
/// made it never grows, however many handshakes are open at once.
#[derive(Clone, Debug, Default)]
pub(crate) struct Receiver {
    /// Ids delivered and PUBRECed, awaiting their PUBREL.
    pending: IdSet,
    /// Recently released ids, newest last, at most
    /// [`COMPLETED_QOS2_WINDOW`]. Forgetting an id at its PUBREL is not
    /// enough on a datagram transport: a delayed copy of the PUBLISH can
    /// arrive after the handshake completed and would be delivered as a
    /// new message.
    completed: VecDeque<u16>,
}

impl Receiver {
    // lint: zero-alloc-begin

    /// Whether a PUBLISH with this id is a duplicate: mid-handshake, or a
    /// late copy of a recently completed one.
    pub(crate) fn seen(&self, id: u16) -> bool {
        self.pending.contains(id) || self.completed.contains(&id)
    }

    /// Records an inbound QoS 2 PUBLISH; `true` means deliver it, `false`
    /// means it is a duplicate. Either way the caller answers PUBREC.
    pub(crate) fn first_receipt(&mut self, id: u16) -> bool {
        !self.seen(id) && self.pending.insert(id)
    }

    /// PUBREL: the sender will not repeat this PUBLISH on purpose, so the
    /// id moves to the bounded completed window (evicting the oldest).
    /// The caller answers PUBCOMP whether or not the id was pending.
    pub(crate) fn release(&mut self, id: u16) {
        if self.pending.remove(id) {
            if self.completed.len() >= COMPLETED_QOS2_WINDOW {
                self.completed.pop_front();
            }
            self.completed.push_back(id);
        }
    }

    // lint: zero-alloc-end

    /// A new connection epoch: the completed window only guards against
    /// datagrams delayed *within* one epoch, and a peer restarted from
    /// scratch legitimately reuses ids for new messages. Handshakes still
    /// pending are kept, so DUP retransmissions of resumed exchanges
    /// still dedup.
    pub(crate) fn new_epoch(&mut self) {
        self.completed.clear();
    }

    /// The pending ids, ascending.
    pub(crate) fn encode_pending(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for id in self.pending.iter() {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }

    pub(crate) fn decode_pending(r: &mut Reader<'_>) -> Result<Self, &'static str> {
        let mut receiver = Receiver::default();
        for _ in 0..r.u32()? {
            receiver.pending.insert(r.u16()?);
        }
        Ok(receiver)
    }

    /// The completed window in FIFO order, so eviction order survives a
    /// restart.
    pub(crate) fn encode_completed(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.completed.len() as u32).to_le_bytes());
        for id in &self.completed {
            out.extend_from_slice(&id.to_le_bytes());
        }
    }

    pub(crate) fn decode_completed(&mut self, r: &mut Reader<'_>) -> Result<(), &'static str> {
        for _ in 0..r.u32()? {
            self.completed.push_back(r.u16()?);
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::packet::{Packet, TopicRef};
    use proptest::prelude::*;
    use std::collections::HashMap;

    const ACKS: [Ack; 3] = [Ack::Puback, Ack::Pubrec, Ack::Pubcomp];

    #[test]
    fn an_id_set_spans_the_id_space_and_lists_it_in_order() {
        let mut set = IdSet::default();
        assert!(!set.remove(7) && set.words.is_none());
        for id in [u16::MAX, 64, 0, 63] {
            assert!(set.insert(id));
        }
        assert!(!set.insert(64));
        assert!(set.contains(u16::MAX) && !set.contains(65));
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, u16::MAX]);
        assert!(set.remove(63) && !set.remove(63));
        assert_eq!(set.len(), 3);
    }

    /// The slot tracked under `id`.
    fn slot<T>(w: &SendWindow<T>, id: u16) -> &Slot<T> {
        let at = w.search(id).expect("id in flight");
        &w.slots[at]
    }

    /// What the window should hold for one id, in the model of
    /// `prop_window_answers_as_a_map`: the order is a publish counter.
    #[derive(Clone, Debug, PartialEq)]
    struct Modelled {
        seq: u64,
        awaiting: Ack,
        last_sent: Nanos,
        retries: u32,
        payload: Vec<u8>,
    }

    /// A map of ids plus a publish counter: the send window as it is
    /// specified, with nothing ordered by id. `movable` lists the live ids
    /// a schedule may ack or refuse, in no particular order.
    #[derive(Default)]
    struct Model {
        map: HashMap<u16, Modelled>,
        movable: Vec<u16>,
        next_id: u16,
        published: u64,
    }

    impl Model {
        /// The allocator as specified: sequential, 0 skipped, live and
        /// taken ids skipped; a live id passed over counts as published
        /// again.
        fn alloc(&mut self, taken: &[u16]) -> u16 {
            loop {
                let id = self.next_id;
                self.next_id = id.wrapping_add(1).max(1);
                if let Some(lapped) = self.map.get_mut(&id) {
                    lapped.seq = self.published;
                    self.published += 1;
                } else if id != 0 && !taken.contains(&id) {
                    return id;
                }
            }
        }

        fn remove(&mut self, id: u16) -> Option<Modelled> {
            if let Some(at) = self.movable.iter().position(|&m| m == id) {
                self.movable.swap_remove(at);
            }
            self.map.remove(&id)
        }

        /// The live ids, oldest publish first.
        fn in_order(&self) -> Vec<u16> {
            let mut ids: Vec<(u64, u16)> = self.map.iter().map(|(&id, m)| (m.seq, id)).collect();
            ids.sort_unstable();
            ids.into_iter().map(|(_, id)| id).collect()
        }
    }

    /// splitmix64: the schedule's own generator, so one seed replays it.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A window holding message 7 in `phase`, one retry already spent at
    /// t = 10 so a restarted timer is distinguishable from an ignored ack.
    fn window_in(phase: Ack) -> SendWindow<()> {
        let mut w = SendWindow::new();
        let qos = if phase == Ack::Puback {
            QoS::AtLeastOnce
        } else {
            QoS::ExactlyOnce
        };
        w.start(7, qos, (), vec![9], 0);
        if phase == Ack::Pubcomp {
            assert_eq!(w.on_ack(7, Ack::Pubrec, 0), None);
        }
        w.due(10, 10, 5, |_, due| assert!(matches!(due, Due::Resend(_))));
        let slot = slot(&w, 7);
        assert_eq!(
            (slot.awaiting, slot.last_sent, slot.retries),
            (phase, 10, 1)
        );
        w
    }

    #[test]
    fn every_phase_ack_pair_follows_the_table() {
        for awaiting in ACKS {
            for ack in ACKS {
                // The phase the slot is left in; `None` once it completed.
                let left_in = match (awaiting, ack) {
                    (Ack::Puback, Ack::Puback) | (Ack::Pubcomp, Ack::Pubcomp) => None,
                    (Ack::Pubrec | Ack::Pubcomp, Ack::Pubrec) => Some(Ack::Pubcomp),
                    _ => Some(awaiting),
                };
                let timer_restarts = ack == Ack::Pubrec && awaiting != Ack::Puback;
                let mut w = window_in(awaiting);
                let done = w.on_ack(7, ack, 20);
                let case = format!("{ack:?} while awaiting {awaiting:?}");
                assert_eq!(done, left_in.is_none().then(|| vec![9]), "{case}");
                match left_in {
                    None => assert_eq!(w.len(), 0, "{case}"),
                    Some(phase) => {
                        let slot = slot(&w, 7);
                        let timer = if timer_restarts { (20, 0) } else { (10, 1) };
                        assert_eq!(slot.awaiting, phase, "{case}");
                        assert_eq!((slot.last_sent, slot.retries), timer, "{case}");
                    }
                }
            }
        }
        // An ack for an id that is not in flight touches nothing.
        let mut w = window_in(Ack::Pubrec);
        assert_eq!(w.on_ack(8, Ack::Pubcomp, 20), None);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn phase_bytes_roundtrip_and_reject_mismatches() {
        for phase in ACKS {
            assert_eq!(Ack::from_bytes(phase.to_bytes()), Ok(phase));
        }
        // A QoS 1 message cannot await a PUBREC or PUBCOMP, nor a QoS 2
        // message a PUBACK; QoS 0 is never tracked.
        for bytes in [[1, 1], [1, 2], [2, 0], [0, 0], [3, 0], [2, 3]] {
            assert!(Ack::from_bytes(bytes).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn due_yields_publish_order_across_the_id_wrap() {
        let mut w = SendWindow::new();
        w.set_next_id(65534);
        let ids: Vec<u16> = (0..4)
            .map(|_| {
                let id = w.alloc_msg_id(|_| false);
                w.start(id, QoS::AtLeastOnce, (), Vec::new(), 0);
                id
            })
            .collect();
        assert_eq!(ids, [65534, 65535, 1, 2]);
        let mut resent = Vec::new();
        w.due(10, 10, 1, |id, due| {
            assert!(matches!(due, Due::Resend(_)));
            resent.push(id);
        });
        assert_eq!(resent, ids);
        // Not yet due again; then the budget of one retry is spent.
        w.due(15, 10, 1, |id, _| panic!("{id} is not due"));
        let mut expired = Vec::new();
        w.due(20, 10, 1, |id, due| {
            assert!(matches!(due, Due::Expired(_)));
            expired.push(id);
        });
        assert_eq!(expired, ids);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn allocator_skips_live_and_taken_ids() {
        let mut w = SendWindow::new();
        w.start(2, QoS::AtLeastOnce, (), Vec::new(), 0);
        assert_eq!(w.alloc_msg_id(|_| false), 1);
        assert_eq!(w.alloc_msg_id(|id| id == 3), 4);
        w.set_next_id(65535);
        assert_eq!(w.alloc_msg_id(|_| false), 65535);
        assert_eq!(w.alloc_msg_id(|_| false), 1, "0 is not a message id");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Why 64 remembered ids are enough and not too many: a sender
        /// allocates sequentially with at most `max_inflight` messages
        /// outstanding, so (a) a copy of a PUBLISH that arrives fewer
        /// than a window of completions after its own is still suppressed,
        /// and (b) by the time an id comes round again — a full wrap
        /// later — it has long left the window, so the new message is
        /// delivered. Runs past a full wrap, completing outstanding
        /// messages in arbitrary order.
        #[test]
        fn prop_window_outlives_delay_not_wrap(
            first_id in 1u16..=u16::MAX,
            max_inflight in 1usize..=64,
            delay in 0usize..COMPLETED_QOS2_WINDOW,
            picks in proptest::collection::vec(any::<usize>(), 32),
        ) {
            let mut sender = SendWindow::new();
            sender.set_next_id(first_id);
            let mut receiver = Receiver::default();
            let mut outstanding: Vec<u16> = Vec::new();
            let mut completed: VecDeque<u16> = VecDeque::new();
            for step in 0..usize::from(u16::MAX) + 2 * COMPLETED_QOS2_WINDOW {
                let id = sender.alloc_msg_id(|_| false);
                sender.start(id, QoS::ExactlyOnce, (), Vec::new(), 0);
                prop_assert!(receiver.first_receipt(id), "new message {} suppressed", id);
                outstanding.push(id);
                if outstanding.len() < max_inflight {
                    continue;
                }
                let done = outstanding.swap_remove(picks[step % picks.len()] % outstanding.len());
                prop_assert!(sender.on_ack(done, Ack::Pubrec, 0).is_none());
                receiver.release(done);
                prop_assert!(sender.on_ack(done, Ack::Pubcomp, 0).is_some());
                completed.push_back(done);
                if completed.len() > delay {
                    let late = completed[completed.len() - 1 - delay];
                    prop_assert!(!receiver.first_receipt(late), "late copy of {} delivered", late);
                    completed.pop_front();
                }
            }
        }

        /// The window against a `HashMap<u16, _>` and a publish counter,
        /// from empty through a full lap of the `u16` ids: random
        /// schedules of allocation (for publishes and for control
        /// transactions that hold ids of their own), acks in every phase,
        /// stale and hostile acks, refusals, re-arms, timer passes and
        /// clock resets. The first `sticky` publishes are only ever
        /// re-armed, so the allocator laps them. Every slot matches the
        /// model; `due` and `ids_in_order` go oldest publish first; no id
        /// is handed out while it is live or taken.
        #[test]
        fn prop_window_answers_as_a_map(
            seed in any::<u64>(),
            cap in 1usize..=64,
            sticky in 0usize..=3,
            retry_ns in 16u64..=256,
            max_retries in 0u32..=4,
        ) {
            let mut rng = seed;
            let mut w: SendWindow<u16> = SendWindow::new();
            let mut model = Model { next_id: 1, ..Model::default() };
            let mut taken: Vec<u16> = Vec::new();
            let mut sticky_ids: Vec<u16> = Vec::new();
            let mut allocated = 0usize;
            let mut now: Nanos = 0;
            while allocated < usize::from(u16::MAX) + 2 * cap {
                now += 1;
                let r = next(&mut rng);
                // A live id other than a sticky one, or a stale or hostile id.
                let target = match model.movable.len() {
                    n if n > 0 && r >> 60 != 0 => model.movable[(r >> 8) as usize % n],
                    _ => Some((r >> 8) as u16)
                        .filter(|id| !sticky_ids.contains(id))
                        .unwrap_or(0),
                };
                match r % 8 {
                    0..=3 if model.map.len() < cap + sticky => {
                        let id = w.alloc_msg_id(|id| taken.contains(&id));
                        prop_assert_eq!(id, model.alloc(&taken));
                        prop_assert!(id != 0 && !taken.contains(&id) && !model.map.contains_key(&id));
                        let qos = if r & 16 == 0 { QoS::AtLeastOnce } else { QoS::ExactlyOnce };
                        let payload = model.published.to_le_bytes().to_vec();
                        w.start(id, qos, id ^ 0x5555, payload.clone(), now);
                        model.map.insert(id, Modelled {
                            seq: model.published,
                            awaiting: Ack::first(qos),
                            last_sent: now,
                            retries: 0,
                            payload,
                        });
                        model.published += 1;
                        allocated += 1;
                        if sticky_ids.len() < sticky {
                            sticky_ids.push(id);
                        } else {
                            model.movable.push(id);
                        }
                    }
                    0..=4 => {
                        let ack = ACKS[(r >> 32) as usize % 3];
                        let done = match model.map.get_mut(&target).map(|m| step(m.awaiting, ack)) {
                            Some(Step::Await(phase)) => {
                                let m = model.map.get_mut(&target).unwrap();
                                (m.awaiting, m.last_sent, m.retries) = (phase, now, 0);
                                None
                            }
                            Some(Step::Done) => model.remove(target).map(|m| m.payload),
                            Some(Step::Ignored) | None => None,
                        };
                        prop_assert_eq!(w.on_ack(target, ack, now), done);
                    }
                    5 if r & 32 == 0 => {
                        let refused = model.remove(target).map(|m| m.payload);
                        prop_assert_eq!(w.abandon(target).map(|slot| slot.payload), refused);
                    }
                    5 => {
                        let rearmed = w.rearm(target, now).map(|slot| slot.id);
                        let modelled = model.map.get_mut(&target).map(|m| {
                            (m.last_sent, m.retries) = (now, 0);
                            target
                        });
                        prop_assert_eq!(rearmed, modelled);
                    }
                    6 => {
                        for &id in &sticky_ids {
                            w.rearm(id, now);
                            if let Some(m) = model.map.get_mut(&id) {
                                (m.last_sent, m.retries) = (now, 0);
                            }
                        }
                        let mut seen = Vec::new();
                        w.due(now, retry_ns, max_retries, |id, due| seen.push(match due {
                            Due::Resend(slot) => (id, slot.republish_qos(), true),
                            Due::Expired(slot) => (id, slot.republish_qos(), false),
                        }));
                        let mut expected = Vec::new();
                        for id in model.in_order() {
                            let m = model.map.get_mut(&id).unwrap();
                            if now - m.last_sent < retry_ns {
                                continue;
                            }
                            let qos = match m.awaiting {
                                Ack::Puback => Some(QoS::AtLeastOnce),
                                Ack::Pubrec => Some(QoS::ExactlyOnce),
                                Ack::Pubcomp => None,
                            };
                            let resent = m.retries < max_retries;
                            if resent {
                                (m.last_sent, m.retries) = (now, m.retries + 1);
                            } else {
                                model.remove(id);
                            }
                            expected.push((id, qos, resent));
                        }
                        prop_assert_eq!(seen, expected);
                    }
                    7 if r & 32 == 0 && taken.len() < 4 => {
                        let id = w.alloc_msg_id(|id| taken.contains(&id));
                        prop_assert_eq!(id, model.alloc(&taken));
                        prop_assert!(id != 0 && !taken.contains(&id) && !model.map.contains_key(&id));
                        taken.push(id);
                        allocated += 1;
                    }
                    7 if r & 32 == 0 => {
                        taken.swap_remove((r >> 8) as usize % taken.len());
                    }
                    _ if r & 0x3f00 == 0 => {
                        // The owner's clock restarted.
                        let fresh_budget = r & 64 == 0;
                        w.reset_clock(fresh_budget);
                        for m in model.map.values_mut() {
                            m.last_sent = 0;
                            if fresh_budget {
                                m.retries = 0;
                            }
                        }
                        now = 1;
                    }
                    _ => {}
                }
                prop_assert_eq!(w.len(), model.map.len());
                if r.is_multiple_of(64) {
                    let ids = model.in_order();
                    prop_assert_eq!(w.ids_in_order(|_| true), ids.clone());
                    for (slot, id) in w.slots.iter().zip(&ids) {
                        let m = &model.map[id];
                        prop_assert_eq!(
                            (slot.id, slot.topic, slot.awaiting, slot.last_sent, slot.retries, &slot.payload),
                            (*id, id ^ 0x5555, m.awaiting, m.last_sent, m.retries, &m.payload)
                        );
                    }
                }
            }
            // Every sticky slot was outlived by a full lap and is still found.
            for id in sticky_ids {
                prop_assert_eq!(slot(&w, id).id, id);
            }
        }
    }

    /// The late-duplicate scenario, run against both receiving ends
    /// (`client::tests::late_duplicate_after_pubrel_is_still_suppressed`,
    /// `broker::tests::late_duplicate_publish_after_pubrel_is_suppressed`).
    /// `feed` hands the end one packet from the QoS 2 sender and returns
    /// how many messages it delivered onward plus its replies to the
    /// sender; `after_late_duplicate` is the end's own checkpoint.
    pub(crate) fn late_duplicate_scenario<E>(
        end: &mut E,
        topic_id: u16,
        feed: impl Fn(&mut E, Packet) -> (usize, Vec<Packet>),
        after_late_duplicate: impl FnOnce(&mut E),
    ) {
        let publish = |msg_id: u16, payload: u8| Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(topic_id),
            msg_id,
            payload: vec![payload],
        };
        let (delivered, _) = feed(end, publish(77, 5));
        assert_eq!(delivered, 1);
        let (_, replies) = feed(end, Packet::PubRel { msg_id: 77 });
        assert_eq!(replies, vec![Packet::PubComp { msg_id: 77 }]);

        // A delayed copy of the PUBLISH arrives after the handshake
        // completed (reordering link): it is not delivered again, but the
        // PUBREC still goes out so the sender's handshake can re-finish.
        let (delivered, replies) = feed(end, publish(77, 5));
        assert_eq!(delivered, 0, "late duplicate delivered twice");
        assert_eq!(replies, vec![Packet::PubRec { msg_id: 77 }]);
        after_late_duplicate(end);

        // The window is bounded: after enough *other* completed
        // handshakes, the oldest id ages out and can be legitimately
        // reused for a brand-new message.
        for id in 100..100 + COMPLETED_QOS2_WINDOW as u16 {
            feed(end, publish(id, 1));
            feed(end, Packet::PubRel { msg_id: id });
        }
        let (delivered, _) = feed(end, publish(77, 6));
        assert_eq!(delivered, 1, "evicted id blocked a new message");
    }
}
