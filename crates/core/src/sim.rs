//! Virtual-time ProvLight capture driver.
//!
//! Models the client pipeline on a simulated device: per-record
//! serialization + compression CPU, per-message publish CPU, an
//! asynchronous background transmitter with a bounded send buffer, and the
//! QoS 2 four-way handshake over the uplink/downlink pair. The workflow
//! thread blocks **only** on CPU costs, a full send buffer, or an
//! exhausted in-flight window — this asymmetry versus the synchronous HTTP
//! baselines is the paper's central mechanism.
//!
//! Wire bytes are computed from the *real* codecs (`prov_codec::Envelope` /
//! JSON) plus the real MQTT-SN header size, so network accounting is
//! honest, not estimated.

use crate::config::{CaptureConfig, GroupPolicy};
use crate::grouping::Grouper;
use edge_sim::calib;
use edge_sim::jitter::Jitter;
use mqtt_sn::packet::QoS;
use net_sim::time::SimTime;
use prov_codec::frame::Envelope;
use prov_codec::json::{records_to_json, JsonStyle};
use prov_model::Record;
use provlight_workload::driver::{CaptureDriver, SimCtx};
use provlight_workload::schedule::record_value_count;
use std::collections::VecDeque;
use std::time::Duration;

/// Simulation configuration for the ProvLight client.
/// (`Clone`-only since [`CaptureConfig`] grew an owned spill path.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvLightSimConfig {
    /// Capture pipeline options (grouping, in-flight window).
    pub capture: CaptureConfig,
    /// Publish QoS. The paper's, and a real device's only one, is QoS 2
    /// (exactly once); QoS 0 and QoS 1 are the ablation's rows.
    pub qos: QoS,
    /// Model the compact binary representation. `false` models JSON
    /// instead — the ablation for the paper's "simplified data model"
    /// claim (§VII-A: the model accounts for ≈1.7 pp capture-time and
    /// ≈1.4 pp CPU reduction). A real device always sends binary.
    pub binary: bool,
    /// Model payload compression (paper Table VI client-side feature;
    /// §VII-A measures the cost at ≈1 ms / 100 attributes). A real device
    /// always compresses when that shrinks the payload.
    pub compression: bool,
    /// Broker-side per-packet service time (reference scale; scaled by the
    /// cloud profile).
    pub broker_service: Duration,
    /// Client send-buffer capacity in bytes; publishing blocks when full.
    pub send_buffer: usize,
}

impl Default for ProvLightSimConfig {
    fn default() -> Self {
        ProvLightSimConfig {
            capture: CaptureConfig::default(),
            qos: QoS::ExactlyOnce,
            binary: true,
            compression: true,
            broker_service: calib::BROKER_PACKET_CPU,
            send_buffer: calib::PROVLIGHT_SEND_BUFFER,
        }
    }
}

/// MQTT-SN PUBLISH fixed header bytes (length + type + flags + topic id +
/// msg id).
const PUBLISH_HEADER: usize = 7;
/// PUBREC/PUBREL/PUBCOMP/PUBACK packet size.
const ACK_PACKET: usize = 4;
/// Cloud-side processing speed factor applied to broker service time.
const CLOUD_SPEED: f64 = 30.0;

#[derive(Clone, Copy, Debug)]
struct PendingSend {
    /// When the message's last byte leaves the device.
    serialized: SimTime,
    /// Buffered bytes attributed to this message.
    bytes: usize,
}

/// The simulated ProvLight client.
#[derive(Debug)]
pub struct SimProvLight {
    cfg: ProvLightSimConfig,
    grouper: Grouper,
    jitter: Jitter,
    /// Messages handed to the transmitter, not yet fully on the wire.
    pending: VecDeque<PendingSend>,
    /// QoS 1/2 messages whose handshake has not completed (completion
    /// time at the client).
    inflight: VecDeque<SimTime>,
    /// Total messages published.
    pub messages_sent: u64,
    /// Total records captured.
    pub records_captured: u64,
}

impl SimProvLight {
    /// Creates a driver.
    pub fn new(cfg: ProvLightSimConfig) -> Self {
        SimProvLight {
            grouper: Grouper::new(cfg.capture.group),
            cfg,
            jitter: Jitter::none(),
            pending: VecDeque::new(),
            inflight: VecDeque::new(),
            messages_sent: 0,
            records_captured: 0,
        }
    }

    /// Paper-default configuration.
    pub fn paper_default() -> Self {
        Self::new(ProvLightSimConfig::default())
    }

    /// With a specific grouping count (the Table VIII axis).
    pub fn with_grouping(group_count: usize) -> Self {
        let mut cfg = ProvLightSimConfig::default();
        cfg.capture.group = GroupPolicy::from_group_count(group_count);
        Self::new(cfg)
    }

    /// Applies repetition jitter to the client CPU costs (experiment
    /// harness).
    pub fn set_jitter(&mut self, jitter: Jitter) {
        self.jitter = jitter;
    }

    fn release_completed(&mut self, now: SimTime, ctx: &mut SimCtx<'_>) {
        while let Some(front) = self.pending.front() {
            if front.serialized <= now {
                ctx.meter.memory.free(front.bytes as u64);
                self.pending.pop_front();
            } else {
                break;
            }
        }
        while let Some(&front) = self.inflight.front() {
            if front <= now {
                self.inflight.pop_front();
            } else {
                break;
            }
        }
    }

    fn buffered_bytes(&self) -> usize {
        self.pending.iter().map(|p| p.bytes).sum()
    }

    /// Publishes one message batch; returns the workflow-thread resume
    /// time.
    fn send_message(
        &mut self,
        mut now: SimTime,
        batch: &[Record],
        ctx: &mut SimCtx<'_>,
    ) -> SimTime {
        // All the knobs this path reads are scalar; copy them out so the
        // borrow does not pin `self` (CaptureConfig itself is no longer
        // `Copy`).
        let (send_buffer, binary, compression) =
            (self.cfg.send_buffer, self.cfg.binary, self.cfg.compression);
        let (max_inflight, qos) = (self.cfg.capture.max_inflight, self.cfg.qos);

        // Per-message publish CPU on the workflow thread.
        let publish_cpu = ctx
            .meter
            .profile
            .scale(self.jitter.apply(calib::PROVLIGHT_PUBLISH_CPU));
        ctx.meter.cpu.charge_capture(publish_cpu);
        now += publish_cpu;

        // Real payload bytes from the real codec.
        let payload = if binary {
            Envelope::encoded_len(batch, compression)
        } else {
            records_to_json(batch, JsonStyle::Compact).len()
        };
        let msg_bytes = payload + PUBLISH_HEADER;

        self.release_completed(now, ctx);

        // Bounded send buffer: block the workflow until space frees.
        while self.buffered_bytes() + msg_bytes > send_buffer && !self.pending.is_empty() {
            let Some(front) = self.pending.front().copied() else {
                break;
            };
            now = now.max(front.serialized);
            self.release_completed(now, ctx);
        }

        // In-flight window: block until the oldest handshake completes.
        while self.inflight.len() >= max_inflight {
            let Some(front) = self.inflight.pop_front() else {
                break;
            };
            now = now.max(front);
        }

        // Hand to the background transmitter (link FIFO models the queue).
        let tx = ctx.uplink.transmit(now, msg_bytes);
        ctx.meter.memory.alloc(msg_bytes as u64);
        self.pending.push_back(PendingSend {
            serialized: tx.serialized,
            bytes: msg_bytes,
        });
        self.messages_sent += 1;

        // QoS handshakes run in background virtual time.
        let broker_proc =
            Duration::from_secs_f64(self.cfg.broker_service.as_secs_f64() / CLOUD_SPEED);
        match qos {
            QoS::AtMostOnce => {}
            QoS::AtLeastOnce => {
                let ack = ctx
                    .downlink
                    .transmit(tx.arrival + broker_proc, ACK_PACKET + 1);
                let profile = ctx.meter.profile;
                ctx.meter
                    .cpu
                    .charge_capture_ref(&profile, calib::PROVLIGHT_QOS2_BG_CPU);
                self.inflight.push_back(ack.arrival);
            }
            QoS::ExactlyOnce => {
                // PUBREC (downlink) -> PUBREL (uplink) -> PUBCOMP (downlink).
                let pubrec = ctx.downlink.transmit(tx.arrival + broker_proc, ACK_PACKET);
                let pubrel = ctx.uplink.transmit(pubrec.arrival, ACK_PACKET);
                let pubcomp = ctx
                    .downlink
                    .transmit(pubrel.arrival + broker_proc, ACK_PACKET);
                let profile = ctx.meter.profile;
                ctx.meter
                    .cpu
                    .charge_capture_ref(&profile, calib::PROVLIGHT_QOS2_BG_CPU);
                self.inflight.push_back(pubcomp.arrival);
            }
        }
        now
    }
}

impl CaptureDriver for SimProvLight {
    fn name(&self) -> &'static str {
        "provlight"
    }

    fn on_emit(&mut self, mut now: SimTime, record: &Record, ctx: &mut SimCtx<'_>) -> SimTime {
        self.records_captured += 1;
        let attrs = record_value_count(record);

        // Per-record serialization (+ compression) CPU; JSON ablation uses
        // the heavier baseline serializer cost.
        let ref_cost = if self.cfg.binary {
            calib::provlight_record_cpu(attrs, self.cfg.compression)
        } else {
            calib::provlake_record_cpu(attrs) + calib::PROVLIGHT_SERIALIZE_BASE
        };
        let cost = ctx.meter.profile.scale(self.jitter.apply(ref_cost));
        ctx.meter.cpu.charge_capture(cost);
        now += cost;

        match self.grouper.push(record.clone()) {
            crate::grouping::Emit::Nothing => {}
            crate::grouping::Emit::Passthrough(r) => {
                now = self.send_message(now, std::slice::from_ref(&r), ctx);
            }
            crate::grouping::Emit::Group(batch) => {
                now = self.send_message(now, &batch, ctx);
                self.grouper.recycle(batch);
            }
        }
        self.release_completed(now, ctx);
        now
    }

    fn on_finish(&mut self, mut now: SimTime, ctx: &mut SimCtx<'_>) -> SimTime {
        if let Some(batch) = self.grouper.flush() {
            now = self.send_message(now, &batch, ctx);
        }
        self.release_completed(now, ctx);
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_sim::device::DeviceProfile;
    use net_sim::link::LinkSpec;
    use provlight_workload::runner::run_schedule;
    use provlight_workload::schedule::generate;
    use provlight_workload::spec::WorkloadSpec;

    fn run(
        driver: &mut SimProvLight,
        attrs: usize,
        dur: f64,
        uplink: LinkSpec,
    ) -> (provlight_workload::runner::RunOutcome, Duration) {
        let spec = WorkloadSpec::table1(attrs, dur);
        let schedule = generate(&spec, 1, 42);
        let baseline = schedule.compute_total();
        let outcome = run_schedule(
            &schedule,
            driver,
            DeviceProfile::a8_m3(),
            uplink,
            LinkSpec::gigabit_23ms(),
            calib::PROVLIGHT_FOOTPRINT,
        );
        (outcome, baseline)
    }

    #[test]
    fn edge_overhead_is_low_matching_table_vii() {
        // Paper Table VII: <2 % for 0.5 s tasks, <0.5 % at 3.5 s+.
        let mut d = SimProvLight::paper_default();
        let (o, base) = run(&mut d, 100, 0.5, LinkSpec::gigabit_23ms());
        let pct = o.overhead_pct(base);
        assert!((1.0..2.5).contains(&pct), "0.5s overhead {pct}");

        let mut d = SimProvLight::paper_default();
        let (o, base) = run(&mut d, 100, 5.0, LinkSpec::gigabit_23ms());
        let pct = o.overhead_pct(base);
        assert!(pct < 0.5, "5s overhead {pct}");
    }

    #[test]
    fn low_bandwidth_stays_low_matching_table_viii() {
        // The async transmitter + buffer absorbs the 25 Kbit backlog.
        let mut d = SimProvLight::paper_default();
        let (o, base) = run(&mut d, 100, 0.5, LinkSpec::kbit25_23ms());
        let pct = o.overhead_pct(base);
        assert!(pct < 3.0, "25 Kbit overhead {pct}");
    }

    #[test]
    fn grouping_reduces_overhead_modestly() {
        let mut ungrouped = SimProvLight::paper_default();
        let (o0, base) = run(&mut ungrouped, 100, 0.5, LinkSpec::gigabit_23ms());
        let mut grouped = SimProvLight::with_grouping(50);
        let (o50, _) = run(&mut grouped, 100, 0.5, LinkSpec::gigabit_23ms());
        let p0 = o0.overhead_pct(base);
        let p50 = o50.overhead_pct(base);
        assert!(p50 < p0, "grouped {p50} !< ungrouped {p0}");
        assert!(p0 - p50 < 1.0, "gain should be modest: {p0} -> {p50}");
        assert!(grouped.messages_sent < ungrouped.messages_sent / 10);
    }

    #[test]
    fn qos2_handshake_bytes_are_accounted() {
        let mut d = SimProvLight::paper_default();
        let (o, _) = run(&mut d, 10, 0.5, LinkSpec::gigabit_23ms());
        // 202 messages: uplink carries publishes + PUBRELs, downlink
        // PUBRECs + PUBCOMPs.
        assert!(o.uplink.packets >= 2 * d.messages_sent);
        assert!(o.downlink.packets >= 2 * d.messages_sent);
    }

    #[test]
    fn qos0_skips_handshake_traffic() {
        let mut d = SimProvLight::new(ProvLightSimConfig {
            qos: QoS::AtMostOnce,
            ..ProvLightSimConfig::default()
        });
        let (o, _) = run(&mut d, 10, 0.5, LinkSpec::gigabit_23ms());
        assert_eq!(o.downlink.packets, 0);
        assert_eq!(o.uplink.packets, d.messages_sent);
    }

    #[test]
    fn tiny_send_buffer_causes_blocking_on_slow_links() {
        let cfg = ProvLightSimConfig {
            send_buffer: 2048,
            ..ProvLightSimConfig::default()
        };
        let mut d = SimProvLight::new(cfg);
        let (o_small, base) = run(&mut d, 100, 0.5, LinkSpec::kbit25_23ms());
        let mut big = SimProvLight::paper_default();
        let (o_big, _) = run(&mut big, 100, 0.5, LinkSpec::kbit25_23ms());
        assert!(
            o_small.overhead_pct(base) > o_big.overhead_pct(base) + 5.0,
            "small buffer {} vs big buffer {}",
            o_small.overhead_pct(base),
            o_big.overhead_pct(base)
        );
    }

    #[test]
    fn json_ablation_costs_more_cpu_and_bytes() {
        let mut json = SimProvLight::new(ProvLightSimConfig {
            binary: false,
            ..ProvLightSimConfig::default()
        });
        let (oj, base) = run(&mut json, 100, 0.5, LinkSpec::gigabit_23ms());
        let mut bin = SimProvLight::paper_default();
        let (ob, _) = run(&mut bin, 100, 0.5, LinkSpec::gigabit_23ms());
        assert!(oj.overhead_pct(base) > ob.overhead_pct(base));
        assert!(oj.uplink.wire_bytes > ob.uplink.wire_bytes);
        assert!(oj.report.capture_cpu_pct > ob.report.capture_cpu_pct);
    }

    #[test]
    fn cloud_profile_shrinks_overhead_matching_table_x() {
        let spec = WorkloadSpec::table1(100, 0.5);
        let schedule = generate(&spec, 1, 42);
        let base = schedule.compute_total();
        let mut d = SimProvLight::paper_default();
        let outcome = run_schedule(
            &schedule,
            &mut d,
            DeviceProfile::cloud_server(),
            LinkSpec::gigabit_23ms(),
            LinkSpec::gigabit_23ms(),
            calib::PROVLIGHT_FOOTPRINT,
        );
        let pct = outcome.overhead_pct(base);
        assert!(pct < 0.4, "cloud overhead {pct}"); // paper: 0.24 %
    }

    #[test]
    fn memory_peak_reflects_backlog() {
        let mut d = SimProvLight::paper_default();
        let (o25, _) = run(&mut d, 100, 0.5, LinkSpec::kbit25_23ms());
        let mut d = SimProvLight::paper_default();
        let (o1g, _) = run(&mut d, 100, 0.5, LinkSpec::gigabit_23ms());
        assert!(o25.report.mem_peak_bytes > o1g.report.mem_peak_bytes);
    }
}
