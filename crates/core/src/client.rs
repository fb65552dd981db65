//! The real-mode ProvLight client: capture API + grouping + async
//! MQTT-SN transmitter, wired together.

use crate::api::{CaptureError, CaptureSession, RecordSink};
use crate::config::CaptureConfig;
use crate::grouping::{Emit, Grouper};
use crate::transmitter::{Transmitter, TransmitterStats};
use mqtt_sn::net::NetError;
use parking_lot::Mutex;
use prov_model::Record;
use std::net::SocketAddr;
use std::sync::Arc;

/// A ProvLight capture client, connected or connecting.
///
/// ```no_run
/// use provlight_core::{CaptureConfig, ProvLightClient};
///
/// let client = ProvLightClient::connect(
///     "127.0.0.1:1883".parse().unwrap(),
///     "device-1",
///     "provlight/wf1/device-1",
///     CaptureConfig::default(),
/// ).unwrap();
/// let session = client.session();
/// let wf = session.workflow(1u64);
/// wf.begin().unwrap();
/// // ... instrument tasks (Listing 1) ...
/// wf.end().unwrap();
/// client.shutdown();
/// ```
pub struct ProvLightClient {
    sink: Arc<TransmitterSink>,
}

struct TransmitterSink {
    grouper: Mutex<Grouper>,
    transmitter: Transmitter,
}

impl RecordSink for TransmitterSink {
    fn transport_stats(&self) -> TransmitterStats {
        self.transmitter.stats()
    }

    fn submit(&self, record: Record) -> Result<(), CaptureError> {
        // Bind the emit first: matching on `self.grouper.lock().push(..)`
        // directly would keep the guard alive across the arms, and the
        // Group arm locks the grouper again to recycle.
        let emit = self.grouper.lock().push(record);
        match emit {
            Emit::Nothing => Ok(()),
            Emit::Passthrough(r) => self.transmitter.publish_record(r),
            Emit::Group(batch) => {
                let result = self.transmitter.publish(batch);
                // Refill the grouper from the transmitter's drained-buffer
                // pool so steady-state grouping allocates nothing.
                if let Some(spare) = self.transmitter.take_spare_batch() {
                    self.grouper.lock().recycle(spare);
                }
                result
            }
        }
    }

    fn flush(&self) -> Result<(), CaptureError> {
        let remainder = self.grouper.lock().flush();
        if let Some(batch) = remainder {
            self.transmitter.publish(batch)?;
        }
        self.transmitter.flush()
    }
}

impl ProvLightClient {
    /// Prepares the capture pipeline and starts connecting to the MQTT-SN
    /// broker at `broker`, returning once the device can capture: it sends
    /// the CONNECT and spawns the one transmitter thread, which finishes
    /// the handshake, but waits on no answer (see [`Transmitter::start`]).
    /// Records captured before the link is up wait in the disconnection
    /// backlog and replay in capture order.
    ///
    /// Fails only on a local error: a socket that cannot be bound, a spill
    /// directory that cannot be opened, a thread that cannot be spawned. A
    /// gateway that is absent or
    /// refuses the device is a link that is down, exactly as after an
    /// outage: records buffer and replay, the device keeps dialing with
    /// its back-off, and [`ProvLightClient::flush`] reports what stays
    /// buffered. The first connection is not counted in
    /// [`TransmitterStats::reconnects`].
    ///
    /// `topic` is this device's publish topic (the Fig. 5 deployment uses
    /// one topic per device: `provlight/<workflow>/<device>`).
    pub fn connect(
        broker: SocketAddr,
        client_id: &str,
        topic: &str,
        config: CaptureConfig,
    ) -> Result<ProvLightClient, NetError> {
        let group = config.group;
        let transmitter =
            Transmitter::start(broker, client_id.to_owned(), topic.to_owned(), config)?;
        Ok(ProvLightClient {
            sink: Arc::new(TransmitterSink {
                grouper: Mutex::with_rank(parking_lot::rank::GROUPER, Grouper::new(group)),
                transmitter,
            }),
        })
    }

    /// A capture session for instrumentation (Listing 1 API).
    pub fn session(&self) -> CaptureSession {
        CaptureSession::new(self.sink.clone())
    }

    /// Blocks until all captured data is published and acknowledged.
    pub fn flush(&self) -> Result<(), CaptureError> {
        self.sink.flush()
    }

    /// Capture-side transport statistics — the mirror of
    /// [`ProvenanceManager::server_stats`](crate::server::ProvenanceManager::server_stats):
    /// reconnections, disconnection-buffer occupancy and high-water mark,
    /// records dropped, publish failures.
    pub fn stats(&self) -> TransmitterStats {
        self.sink.transmitter.stats()
    }

    /// Flushes and stops the transmitter.
    pub fn shutdown(self) {
        let _ = self.sink.flush();
        // Transmitter shut down in Drop.
    }
}
