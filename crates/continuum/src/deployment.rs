//! The Provenance Manager (paper §V-A) and config-driven deployments.
//!
//! In the paper, enabling `provenance: ProvenanceManager` in the E2Clab
//! configuration starts a DfAnalyzer container plus a ProvLight container
//! on the cloud layer. Here, [`ProvenanceManager::start`] launches the
//! real-mode equivalents in-process: the MQTT-SN broker, the provenance
//! data translator, and the DfAnalyzer-style store — everything a fleet of
//! [`ProvLightClient`](provlight_core::client::ProvLightClient)s needs.

use crate::config::ExperimentConfig;
use parking_lot::Mutex;
use prov_store::sharded::{shared_sharded, SharedShardedStore};
use provlight_core::server::{ProvLightServer, ServerStats};
use provlight_core::translator::DfAnalyzerTranslator;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running provenance stack (broker + translator + sharded store).
pub struct ProvenanceManager {
    server: ProvLightServer,
    store: SharedShardedStore,
}

impl ProvenanceManager {
    /// Starts the stack on the given bind address (port 0 picks a free
    /// port). The translator subscribes to `provlight/#`, covering every
    /// device topic.
    pub fn start(bind: &str) -> Result<ProvenanceManager, mqtt_sn::net::NetError> {
        let store = shared_sharded();
        let translator = Arc::new(Mutex::with_rank(
            parking_lot::rank::TRANSLATOR,
            DfAnalyzerTranslator::new(store.clone()),
        ));
        let server = ProvLightServer::start(bind, "provlight/#", translator)?;
        Ok(ProvenanceManager { server, store })
    }

    /// Broker address for device clients.
    pub fn broker_addr(&self) -> SocketAddr {
        self.server.broker_addr()
    }

    /// The queryable provenance store (DfAnalyzer role), sharded by
    /// workflow: aggregate counters via `store().stats()`, per-workflow
    /// queries via `store().read(&workflow_id)`.
    pub fn store(&self) -> &SharedShardedStore {
        &self.store
    }

    /// Ingestion-side observability: decode errors and per-translator
    /// message counts.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats()
    }

    /// Broker routing statistics.
    pub fn broker_stats(&self) -> mqtt_sn::broker::BrokerStats {
        self.server.broker_stats()
    }

    /// MQTT-SN sessions on the broker: one per connected device.
    pub fn broker_sessions(&self) -> usize {
        self.server.broker_sessions()
    }

    /// Stops the broker, then the translator once it has ingested
    /// everything the broker acknowledged.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Summary of a deployment derived from an experiment configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeploymentPlan {
    /// Edge client devices to launch.
    pub edge_devices: usize,
    /// Cloud servers to launch.
    pub cloud_servers: usize,
    /// Whether the Provenance Manager is enabled.
    pub provenance: bool,
}

impl DeploymentPlan {
    /// Derives a plan from a parsed Listing 2 configuration.
    pub fn from_config(config: &ExperimentConfig) -> DeploymentPlan {
        let edge_devices = config
            .layer("edge")
            .map(|l| l.services.iter().map(|s| s.quantity).sum())
            .unwrap_or(0);
        let cloud_servers = config
            .layer("cloud")
            .map(|l| l.services.iter().map(|s| s.quantity).sum())
            .unwrap_or(0);
        DeploymentPlan {
            edge_devices,
            cloud_servers,
            provenance: config.provenance_enabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{listing2, parse};

    #[test]
    fn plan_from_listing2() {
        let config = parse(listing2()).unwrap();
        let plan = DeploymentPlan::from_config(&config);
        assert_eq!(
            plan,
            DeploymentPlan {
                edge_devices: 64,
                cloud_servers: 1,
                provenance: true,
            }
        );
    }

    #[test]
    fn manager_serves_real_capture() {
        use provlight_core::client::ProvLightClient;
        use provlight_core::config::CaptureConfig;

        let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
        let client = ProvLightClient::connect(
            manager.broker_addr(),
            "dev-a",
            "provlight/wf7/dev-a",
            CaptureConfig::default(),
        )
        .unwrap();
        let session = client.session();
        let wf = session.workflow(7u64);
        wf.begin().unwrap();
        wf.end().unwrap();
        client.flush().unwrap();

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while manager.store().stats().records < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "records never arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let stats = manager.server_stats();
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.messages_total >= 1);
        client.shutdown();
        manager.shutdown();
    }
}
