//! Server configuration.

use crate::admin::SchedulerControl;
use crate::authz::AuthzCallout;
use crate::dsi::Dsi;
use crate::introspect::SessionIndex;
use crate::tunables::{ReloadError, TunableSlot, Tunables};
use crate::usage::UsageReporter;
use ig_obs::json::Value;
use ig_pki::time::Clock;
use ig_pki::{Credential, TrustStore};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;

/// Everything a GridFTP server instance needs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Endpoint name (hostname); also what the GCMU online-CA marker is
    /// matched against.
    pub name: String,
    /// Host credential presented on the control channel.
    pub credential: Credential,
    /// Trust roots for validating clients (and data-channel peers).
    pub trust: TrustStore,
    /// Identity → local account mapping.
    pub authz: Arc<dyn AuthzCallout>,
    /// Storage backend.
    pub dsi: Arc<dyn Dsi>,
    /// Clock (fixed in tests, system in examples).
    pub clock: Clock,
    /// Whether this server understands the paper's `DCSC` command.
    /// `false` models the "legacy GridFTP server that knows nothing
    /// about DCSC" of §IV-B.
    pub dcsc_enabled: bool,
    /// Number of stripes (data movers). 1 = conventional server; >1
    /// enables `SPAS`/`SPOR` striped transfers (Fig 2's striped layout).
    pub stripes: usize,
    /// Per-stripe bandwidth limit in bytes/second (models one NIC per
    /// data mover node; `None` = unthrottled).
    pub stripe_rate: Option<f64>,
    /// MODE E block size in bytes.
    pub block_size: usize,
    /// Usage reporting sink (Fig 1).
    pub usage: Arc<UsageReporter>,
    /// 220 banner text.
    pub banner: String,
    /// IP data-channel listeners bind to.
    pub data_ip: Ipv4Addr,
    /// RSA key size for delegation handshakes (small in tests).
    pub key_bits: usize,
    /// How long a data transfer may sit with no progress before the
    /// server abandons it (both directions).
    pub stall_timeout: std::time::Duration,
    /// Idle deadline on the control channel: a client that goes silent
    /// this long gets a typed timeout instead of a parked session thread.
    /// `None` = wait forever (legacy behaviour).
    pub control_idle_timeout: Option<std::time::Duration>,
    /// Optional chaos hook wrapped around every data stream the server
    /// opens or accepts (the chaos matrix's server-side fault site).
    pub data_chaos: Option<std::sync::Arc<ig_xio::ChaosHook>>,
    /// Observability hub: session/transfer spans, command RTT metrics,
    /// and the registry `SITE STATS` serves. Defaults to
    /// [`ig_obs::Obs::global`]; tests pass a private hub per server.
    pub obs: Arc<ig_obs::Obs>,
    /// Path for the local admin-plane unix socket (`None` = no admin
    /// surface).
    pub admin_socket: Option<PathBuf>,
    /// UID the admin socket trusts (`None` = this process's euid). The
    /// `SO_PEERCRED` check runs before any byte of a connection is read.
    pub admin_uid: Option<u32>,
    /// Hot-swap slot for the reloadable tunables (see
    /// [`crate::tunables`]). Shared by every clone of this config, so
    /// an admin reload reaches every session.
    pub tunables: Arc<TunableSlot>,
    /// Live-session registry behind the admin `sessions` command.
    pub sessions: Arc<SessionIndex>,
    /// Optional hook into a fair-share scheduler so the admin plane can
    /// adjust per-tenant weights and rate caps (`limits set`).
    pub scheduler: Option<Arc<dyn SchedulerControl>>,
}

impl ServerConfig {
    /// A config with sensible defaults for a single-node server.
    pub fn new(
        name: &str,
        credential: Credential,
        trust: TrustStore,
        authz: Arc<dyn AuthzCallout>,
        dsi: Arc<dyn Dsi>,
    ) -> Self {
        ServerConfig {
            name: name.to_string(),
            credential,
            trust,
            authz,
            dsi,
            clock: Clock::System,
            dcsc_enabled: true,
            stripes: 1,
            stripe_rate: None,
            block_size: 64 * 1024,
            usage: UsageReporter::new(),
            banner: format!("{name} GridFTP Server (ig-server) ready."),
            data_ip: Ipv4Addr::LOCALHOST,
            key_bits: 512,
            stall_timeout: std::time::Duration::from_secs(30),
            control_idle_timeout: None,
            data_chaos: None,
            obs: ig_obs::Obs::global(),
            admin_socket: None,
            admin_uid: None,
            tunables: TunableSlot::new(),
            sessions: SessionIndex::new(),
            scheduler: None,
        }
    }

    /// The live tunable snapshot, seeded from the builder-set fields on
    /// first read. Sessions call this at each use site so an admin
    /// reload takes effect without restarting anything.
    pub fn live(&self) -> Arc<Tunables> {
        self.tunables.get_or_seed(|| self.tunable_seed())
    }

    /// Validate and apply an admin reload batch (all-or-nothing; see
    /// [`crate::tunables::TunableSlot::reload`]). The one non-tunable
    /// knob handled here is `data_chaos_armed`, which arms/disarms the
    /// installed chaos hook — validated with the rest of the batch so a
    /// rejected batch toggles nothing.
    pub fn reload(
        &self,
        updates: &[(String, Value)],
    ) -> Result<Arc<Tunables>, ReloadError> {
        let mut chaos_arm = None;
        let mut tun = Vec::new();
        for (field, value) in updates {
            if field == "data_chaos_armed" {
                let hook = self.data_chaos.as_ref().ok_or_else(|| {
                    ReloadError::InvalidValue {
                        field: field.clone(),
                        reason: "no chaos hook installed".to_string(),
                    }
                })?;
                match value {
                    Value::Bool(b) => chaos_arm = Some((Arc::clone(hook), *b)),
                    _ => {
                        return Err(ReloadError::InvalidValue {
                            field: field.clone(),
                            reason: "expected bool".to_string(),
                        })
                    }
                }
            } else {
                tun.push((field.clone(), value.clone()));
            }
        }
        let out = self.tunables.reload(|| self.tunable_seed(), &tun)?;
        if let Some((hook, arm)) = chaos_arm {
            if arm {
                hook.arm();
            } else {
                hook.disarm();
            }
        }
        Ok(out)
    }

    fn tunable_seed(&self) -> Tunables {
        Tunables {
            stall_timeout: self.stall_timeout,
            control_idle_timeout: self.control_idle_timeout,
            block_size: self.block_size,
            stripe_rate: self.stripe_rate,
        }
    }

    /// Builder: fixed clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Builder: disable DCSC (legacy server, §IV-B).
    pub fn legacy(mut self) -> Self {
        self.dcsc_enabled = false;
        self
    }

    /// Builder: striped deployment.
    pub fn with_stripes(mut self, stripes: usize, per_stripe_rate: Option<f64>) -> Self {
        assert!(stripes >= 1, "need at least one stripe");
        self.stripes = stripes;
        self.stripe_rate = per_stripe_rate;
        self
    }

    /// Builder: block size.
    pub fn with_block_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "block size must be positive");
        self.block_size = bytes;
        self
    }

    /// Builder: data-transfer stall deadline.
    pub fn with_stall_timeout(mut self, t: std::time::Duration) -> Self {
        self.stall_timeout = t;
        self
    }

    /// Builder: control-channel idle deadline.
    pub fn with_control_idle_timeout(mut self, t: std::time::Duration) -> Self {
        self.control_idle_timeout = Some(t);
        self
    }

    /// Builder: wrap server-side data streams in a chaos hook.
    pub fn with_data_chaos(mut self, hook: std::sync::Arc<ig_xio::ChaosHook>) -> Self {
        self.data_chaos = Some(hook);
        self
    }

    /// Builder: a private observability hub (tests isolate metrics and
    /// traces per server instance this way).
    pub fn with_obs(mut self, obs: Arc<ig_obs::Obs>) -> Self {
        self.obs = obs;
        self
    }

    /// Builder: expose the local admin plane on a unix socket at `path`.
    pub fn with_admin_socket(mut self, path: impl Into<PathBuf>) -> Self {
        self.admin_socket = Some(path.into());
        self
    }

    /// Builder: UID the admin socket trusts instead of this process's
    /// euid (tests use a mismatched UID to drive the rejection path).
    pub fn with_admin_uid(mut self, uid: u32) -> Self {
        self.admin_uid = Some(uid);
        self
    }

    /// Builder: hand the admin plane a scheduler to adjust.
    pub fn with_scheduler(mut self, sched: Arc<dyn SchedulerControl>) -> Self {
        self.scheduler = Some(sched);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::GcmuAuthz;
    use crate::dsi::memory::MemDsi;
    use ig_gsi::context::test_support::ca_and_credential;

    #[test]
    fn builders() {
        let mut rng = ig_crypto::rng::seeded(1);
        let (ca, cred) = ca_and_credential(&mut rng, "/O=CA", "/CN=host");
        let mut trust = TrustStore::new();
        trust.add_root(ca.root_cert().clone());
        let cfg = ServerConfig::new(
            "ep.example.org",
            cred,
            trust,
            Arc::new(GcmuAuthz::new("ep.example.org")),
            Arc::new(MemDsi::new()),
        )
        .legacy()
        .with_stripes(4, Some(1e6))
        .with_block_size(1024)
        .with_clock(Clock::Fixed(42));
        assert!(!cfg.dcsc_enabled);
        assert_eq!(cfg.stripes, 4);
        assert_eq!(cfg.block_size, 1024);
        assert_eq!(cfg.clock.now(), 42);
        assert!(cfg.banner.contains("ep.example.org"));
    }
}
