//! The Provenance Manager (paper §V-A) and config-driven deployments.
//!
//! [`ProvenanceManager`] is the real-mode server stack — broker,
//! translator and store — defined in `provlight_core::server`; this module
//! re-exports it beside the plan that maps a parsed Listing 2
//! configuration onto a deployment.

use crate::config::ExperimentConfig;
pub use provlight_core::server::ProvenanceManager;

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
