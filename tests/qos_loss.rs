//! Exactly-once delivery under packet loss.
//!
//! Drives the sans-io MQTT-SN client and broker state machines through a
//! lossy virtual channel (seeded Bernoulli loss on every datagram, both
//! directions) and asserts the QoS invariants the paper relies on:
//! QoS 2 delivers **exactly once** despite drops and retransmissions;
//! QoS 1 delivers at least once.

use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
use provlight::mqtt_sn::client::{Client, ClientConfig, ClientEvent, Output};
use provlight::mqtt_sn::packet::{Packet, QoS, TopicRef};
use provlight::net_sim::loss::LossModel;
use std::collections::VecDeque;
use std::time::Duration;

/// A virtual lossy network between one client and the broker.
struct LossyWorld {
    client: Client,
    broker: Broker<u8>,
    loss: LossModel,
    /// Packets in flight (direction, packet): direction true = to broker.
    queue: VecDeque<(bool, Packet)>,
    now: u64,
    delivered: Vec<Vec<u8>>,
    done: Vec<u16>,
    failed: Vec<u16>,
    registered: Option<u16>,
    subscribed: bool,
}

const CLIENT_ADDR: u8 = 1;
const TICK: u64 = 50_000_000; // 50 ms virtual step

/// Hands the client's `datagram` to the broker and returns what the
/// broker sends back, decoded.
fn feed(broker: &mut Broker<u8>, now: u64, datagram: &[u8]) -> Vec<(u8, Packet)> {
    let mut out = BrokerOutputs::new();
    broker
        .on_datagram_into(now, CLIENT_ADDR, datagram, &mut out)
        .expect("self-encoded packet");
    out.packets()
}

impl LossyWorld {
    fn new(loss_probability: f64, seed: u64) -> Self {
        let mut config = ClientConfig::new("edge-device");
        config.retry_timeout = Duration::from_millis(200);
        config.max_retries = 50;
        LossyWorld {
            client: Client::new(config),
            broker: Broker::new(BrokerConfig {
                gw_id: 1,
                retry_timeout: Duration::from_millis(200),
                max_retries: 50,
                ..BrokerConfig::default()
            }),
            loss: LossModel::new(loss_probability, seed),
            queue: VecDeque::new(),
            now: 0,
            delivered: Vec::new(),
            done: Vec::new(),
            failed: Vec::new(),
            registered: None,
            subscribed: false,
        }
    }

    fn dispatch_client(&mut self, outputs: Vec<Output>) {
        for o in outputs {
            match o {
                Output::Send(p) => self.queue.push_back((true, p)),
                Output::Event(ClientEvent::Message { payload, .. }) => self.delivered.push(payload),
                Output::Event(ClientEvent::PublishDone { msg_id }) => self.done.push(msg_id),
                Output::Event(ClientEvent::PublishFailed { msg_id, .. }) => {
                    self.failed.push(msg_id)
                }
                Output::Event(ClientEvent::Registered { topic_id, .. }) => {
                    self.registered = Some(topic_id)
                }
                Output::Event(ClientEvent::Subscribed { .. }) => self.subscribed = true,
                Output::Event(_) => {}
            }
        }
    }

    /// Runs the world until the queues drain and nothing is in flight, or
    /// a step budget is exhausted.
    fn settle(&mut self, max_steps: usize) {
        for _ in 0..max_steps {
            // Wire: move packets, dropping per the loss model.
            while let Some((to_broker, packet)) = self.queue.pop_front() {
                // Both ends take bytes, as off a socket.
                let wire = packet.encode();
                if self.loss.should_drop() {
                    continue;
                }
                if to_broker {
                    for (_, p) in feed(&mut self.broker, self.now, &wire) {
                        self.queue.push_back((false, p));
                    }
                } else {
                    let outs = self.client.on_datagram(&wire, self.now);
                    self.dispatch_client(outs.expect("self-encoded packet"));
                }
            }
            // Time passes; retransmission timers fire.
            self.now += TICK;
            let outs = self.client.on_tick(self.now);
            self.dispatch_client(outs);
            let mut out = BrokerOutputs::new();
            self.broker.on_tick_into(self.now, &mut out);
            for (_, p) in out.packets() {
                self.queue.push_back((false, p));
            }
            if self.queue.is_empty()
                && self.client.inflight_len() == 0
                && self.done.len() + self.failed.len() > 0
            {
                // Give one extra settling round for broker-side state.
                continue;
            }
        }
    }

    /// Connects, subscribes and registers — retrying control packets the
    /// way an application would, since MQTT-SN clients do not retransmit
    /// CONNECT/SUBSCRIBE/REGISTER (only QoS 1/2 data flows do).
    fn connect_and_subscribe(&mut self) -> u16 {
        for _ in 0..50 {
            if self.client.state() == provlight::mqtt_sn::ClientState::Connected {
                break;
            }
            let outs = self.client.connect(self.now);
            self.dispatch_client(outs);
            self.settle(10);
        }
        assert_eq!(
            self.client.state(),
            provlight::mqtt_sn::ClientState::Connected,
            "client must connect despite loss"
        );
        // Subscribe to our own topic so deliveries come back to us.
        for _ in 0..50 {
            if self.subscribed {
                break;
            }
            let (_, outs) = self
                .client
                .subscribe("loop/topic", QoS::ExactlyOnce, self.now)
                .unwrap();
            self.dispatch_client(outs);
            self.settle(10);
        }
        assert!(self.subscribed, "subscription must eventually succeed");
        // Register the publishing topic.
        for _ in 0..50 {
            if self.registered.is_some() {
                break;
            }
            let (_, outs) = self.client.register("loop/topic", self.now).unwrap();
            self.dispatch_client(outs);
            self.settle(10);
        }
        self.registered
            .expect("registration must eventually succeed")
    }
}

#[test]
fn qos2_is_exactly_once_under_30pct_loss() {
    for seed in 0..5 {
        let mut world = LossyWorld::new(0.30, seed);
        let topic = world.connect_and_subscribe();
        let n = 12u8;
        for i in 0..n {
            // Respect the in-flight window under heavy retransmission.
            while !world.client.can_publish() {
                world.settle(10);
            }
            let (_, outs) = world
                .client
                .publish(TopicRef::Id(topic), vec![i], QoS::ExactlyOnce, world.now)
                .unwrap();
            world.dispatch_client(outs);
            world.settle(5);
        }
        world.settle(500);

        assert!(world.failed.is_empty(), "seed {seed}: retries exhausted");
        assert_eq!(
            world.done.len(),
            n as usize,
            "seed {seed}: all must complete"
        );
        // Exactly once: every payload delivered, none duplicated.
        let mut payloads: Vec<u8> = world.delivered.iter().map(|p| p[0]).collect();
        payloads.sort_unstable();
        assert_eq!(
            payloads,
            (0..n).collect::<Vec<u8>>(),
            "seed {seed}: delivery set wrong: {payloads:?}"
        );
    }
}

#[test]
fn qos1_delivers_at_least_once_under_loss() {
    let mut world = LossyWorld::new(0.25, 99);
    let topic = world.connect_and_subscribe();
    let n = 10u8;
    for i in 0..n {
        while !world.client.can_publish() {
            world.settle(10);
        }
        let (_, outs) = world
            .client
            .publish(TopicRef::Id(topic), vec![i], QoS::AtLeastOnce, world.now)
            .unwrap();
        world.dispatch_client(outs);
        world.settle(5);
    }
    world.settle(500);

    assert!(world.failed.is_empty());
    // At-least-once: every payload present (duplicates allowed).
    let mut seen: Vec<u8> = world.delivered.iter().map(|p| p[0]).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen, (0..n).collect::<Vec<u8>>());
}

/// Broker restart with *fresh* state (no persistence): the client's
/// session resumption must re-subscribe, re-register — remapping the topic
/// id the new broker assigns — and redeliver everything that was in flight
/// during the outage, exactly once for QoS 2.
#[test]
fn broker_restart_fresh_state_resumes_and_redelivers() {
    let mut world = LossyWorld::new(0.0, 7);
    let topic = world.connect_and_subscribe();

    // Healthy phase: 3 QoS 2 publishes complete.
    for i in 0..3u8 {
        let (_, outs) = world
            .client
            .publish(TopicRef::Id(topic), vec![i], QoS::ExactlyOnce, world.now)
            .unwrap();
        world.dispatch_client(outs);
        world.settle(5);
    }
    world.settle(50);
    assert_eq!(world.delivered.len(), 3);
    assert_eq!(world.client.inflight_len(), 0);

    // Outage: every datagram is lost while the client keeps publishing.
    world.loss = LossModel::new(1.0, 1);
    for i in 3..6u8 {
        let (_, outs) = world
            .client
            .publish(TopicRef::Id(topic), vec![i], QoS::ExactlyOnce, world.now)
            .unwrap();
        world.dispatch_client(outs);
        world.settle(3);
    }
    assert_eq!(world.client.inflight_len(), 3);

    // The broker is replaced by a fresh instance whose registry hands out
    // different topic ids (a pre-seeded registration shifts the id space).
    world.broker = Broker::new(BrokerConfig {
        gw_id: 1,
        retry_timeout: Duration::from_millis(200),
        max_retries: 50,
        ..BrokerConfig::default()
    });
    world
        .broker
        .registry_mut()
        .register("occupies/the/old/slot");
    world.queue.clear();

    // Network restored; the client reconnects and resumes its session.
    world.loss = LossModel::new(0.0, 2);
    let old_topic_id = topic;
    let outs = world.client.reconnect(world.now);
    world.dispatch_client(outs);
    world.settle(100);

    assert!(world.client.resume_complete(), "resumption must finish");
    let new_topic_id = world
        .client
        .topic_id("loop/topic")
        .expect("registration resumed");
    assert_ne!(
        new_topic_id, old_topic_id,
        "test must exercise the id-remap path"
    );
    world.settle(200);

    assert!(world.failed.is_empty(), "no publish may exhaust retries");
    assert_eq!(world.client.inflight_len(), 0, "in-flight must complete");
    // Exactly once end to end: all six payloads, no duplicates.
    let mut payloads: Vec<u8> = world.delivered.iter().map(|p| p[0]).collect();
    payloads.sort_unstable();
    assert_eq!(payloads, (0..6).collect::<Vec<u8>>());
}

/// Restart mid-QoS 2 handshake with *persisted* broker state: the broker
/// received and forwarded the PUBLISH but its PUBREC never reached the
/// client. On resume the client's DUP retransmission must be suppressed by
/// the persisted dedup state — exactly-once survives the restart.
#[test]
fn broker_restart_during_qos2_handshake_stays_exactly_once() {
    let mut world = LossyWorld::new(0.0, 11);
    let topic = world.connect_and_subscribe();
    let (_, outs) = world
        .client
        .publish(TopicRef::Id(topic), vec![42], QoS::ExactlyOnce, world.now)
        .unwrap();
    world.dispatch_client(outs);
    // Deliver the PUBLISH to the broker but lose everything it answers:
    // the broker forwarded and remembers the msg id; the client never saw
    // its PUBREC.
    while let Some((to_broker, packet)) = world.queue.pop_front() {
        if to_broker {
            let _lost = feed(&mut world.broker, world.now, &packet.encode());
        }
    }
    assert_eq!(world.client.inflight_len(), 1);
    assert_eq!(world.delivered.len(), 0);
    assert_eq!(world.broker.stats().publishes_in, 1);

    // Restart with persisted state (Clone = the RSMB persistence model).
    let persisted = world.broker.clone();
    world.broker = persisted;

    let outs = world.client.reconnect(world.now);
    world.dispatch_client(outs);
    world.settle(300);

    assert!(world.client.resume_complete());
    assert_eq!(world.client.inflight_len(), 0, "handshake must complete");
    // The DUP retransmission was suppressed by the persisted dedup state;
    // the subscriber still received the forward exactly once (via the
    // broker's own outbound retransmission).
    assert_eq!(world.delivered.len(), 1, "QoS 2 duplicate leaked");
    assert_eq!(world.broker.stats().duplicates_suppressed, 1);
    assert_eq!(world.broker.stats().publishes_out, 1);
}

#[test]
fn lossless_channel_never_retransmits() {
    let mut world = LossyWorld::new(0.0, 0);
    let topic = world.connect_and_subscribe();
    for i in 0..5u8 {
        let (_, outs) = world
            .client
            .publish(TopicRef::Id(topic), vec![i], QoS::ExactlyOnce, world.now)
            .unwrap();
        world.dispatch_client(outs);
        world.settle(3);
    }
    world.settle(100);
    assert_eq!(world.delivered.len(), 5);
    assert_eq!(world.broker.stats().retransmissions, 0);
    assert_eq!(world.broker.stats().duplicates_suppressed, 0);
}
