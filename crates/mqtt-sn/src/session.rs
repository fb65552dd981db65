//! A device's end of the MQTT-SN link with no socket and no clock: the
//! sans-io [`Client`], its [`DeviceHold`] on the way out, the replies a read
//! makes it owe, and the events they surface.
//!
//! Every method that can send takes `now` and a [`ToGateway`] sink; every
//! datagram read is handed in with [`Session::hear`], and what it made the
//! client answer leaves at [`Session::poll`], once the read is over — the
//! gateway answers a `[PUBREL, PUBLISH]` datagram with a `[PUBCOMP, PUBREC]`
//! one, and a hold it lets go with the acknowledgements of several. The
//! blocking [`UdpClient`](crate::net::UdpClient) is this plus a socket and a
//! clock, and so is any driver that wants the device end on a thread of its
//! own or on virtual time.

use crate::client::{Client, ClientConfig, ClientEvent, Nanos, Output};
use crate::hold::{DeviceHold, ToGateway};
use crate::packet::{frames, Packet, QoS, TopicRef};
use crate::Error;
use std::collections::VecDeque;

/// The device's session: see the module documentation.
pub struct Session {
    /// The client. What it can tell needs no driving; a call of its whose
    /// outputs are sent goes through [`Session::dispatch`] — its connect,
    /// register, subscribe and disconnect. A publish goes through
    /// [`Session::publish`], which tells the hold whether it asks, and a
    /// reconnect through [`Session::reconnect`], which resets the hold.
    pub client: Client,
    /// The hold between the client and the sink: whether the gateway owes
    /// a reply ([`DeviceHold::reply_expected`]), when to drain the socket
    /// ([`DeviceHold::drain_due`]), and, before a read that waits, the ask
    /// for what the gateway holds ([`DeviceHold::ask`]) and the release of
    /// the held PUBRELs ([`DeviceHold::release`]).
    pub hold: DeviceHold,
    /// The events the client surfaced, oldest first, for the caller to
    /// take.
    pub events: VecDeque<ClientEvent>,
    /// What the client answered to the messages of a read, sent once the
    /// read is over (see [`Session::poll`]).
    replies: Vec<Output>,
}

impl Session {
    /// A disconnected session of a client configured with `config`.
    pub fn new(config: ClientConfig) -> Session {
        Session {
            hold: DeviceHold::new(&config),
            client: Client::new(config),
            events: VecDeque::new(),
            replies: Vec::new(),
        }
    }

    /// Sends each packet through the hold (see [`DeviceHold::send`]) and
    /// queues each event.
    pub fn dispatch<E>(
        &mut self,
        outputs: impl IntoIterator<Item = Output>,
        now: Nanos,
        send: ToGateway<E>,
    ) -> Result<(), E> {
        for o in outputs {
            match o {
                Output::Send(p) => {
                    self.hold.send(&p, now, send)?;
                    // The packet's payload buffer is done (the state machine
                    // keeps its own copy for QoS 1/2 retransmission) — feed
                    // it back to the pool so QoS 0 publishes recycle too.
                    if let Packet::Publish { payload, .. } = p {
                        self.client.reclaim_payload(payload);
                    }
                }
                Output::Event(e) => self.events.push_back(e),
            }
        }
        Ok(())
    }

    /// Starts a reconnection on a new link (see [`Client::reconnect`]):
    /// what the old one held, and any answer to what it carried, go with
    /// it. Resumption is over once the
    /// client is connected and [`Client::resume_complete`].
    pub fn reconnect<E>(&mut self, now: Nanos, send: ToGateway<E>) -> Result<(), E> {
        self.hold.reset();
        self.replies.clear();
        let outputs = self.client.reconnect(now);
        self.dispatch(outputs, now, send)
    }

    /// Publishes, asking for the answer at once if the caller `blocks` on
    /// it or the window is half full (see `DeviceHold::ask_next`): the
    /// message id, and whether the send went through. A refusal of the
    /// client's (not connected, a full window) is the outer error.
    pub fn publish<E>(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        qos: QoS,
        blocks: bool,
        now: Nanos,
        send: ToGateway<E>,
    ) -> Result<(u16, Result<(), E>), Error> {
        let (msg_id, outputs) = self
            .client
            .publish(TopicRef::Id(topic_id), payload, qos, now)?;
        self.hold.ask_next(&self.client, blocks);
        Ok((msg_id, self.dispatch(outputs, now, send)))
    }

    /// Feeds the messages of one datagram read at `now` to the client, one
    /// at a time, and keeps what it answers until [`Session::poll`].
    /// Malformed messages are dropped.
    pub fn hear(&mut self, datagram: &[u8], now: Nanos) {
        for message in frames(datagram) {
            // Borrowed decode: inbound PUBLISH payloads are copied once into
            // a pooled buffer, not a fresh Vec.
            if let Ok(mut outputs) = self.client.on_datagram(message, now) {
                self.replies.append(&mut outputs);
            }
        }
    }

    /// What the client answered to the messages of the last read leaves,
    /// and its events are queued; then the timers run at `now`: a
    /// retransmission or keep-alive PINGREQ that falls due carries the held
    /// PUBRELs like any datagram; what is still held past its release time
    /// then leaves alone, and half a `Tretry` after the oldest PUBLISH the
    /// gateway may still hold an answer to, the device asks for it.
    pub fn poll<E>(&mut self, now: Nanos, send: ToGateway<E>) -> Result<(), E> {
        let mut replies = std::mem::take(&mut self.replies);
        let answered = self.dispatch(replies.drain(..), now, send);
        self.replies = replies;
        self.hold.answered(&self.client);
        answered?;
        let outputs = self.client.on_tick(now);
        self.dispatch(outputs, now, send)?;
        self.hold.tick(now, send)
    }

    /// The earliest time at which [`Session::poll`] or
    /// [`DeviceHold::drain_due`] has something to do: a timer of the client
    /// ([`Client::next_deadline`]), the release of a held PUBREL, the read
    /// deadline or the ask for what the gateway may hold. `None` when
    /// nothing is scheduled.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let timers = [self.client.next_deadline(), self.hold.next_deadline()];
        timers.into_iter().flatten().min()
    }
}
