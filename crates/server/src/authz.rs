//! Authorization callouts: validated identity → local account.
//!
//! §IIC: "an authorization callout is invoked to verify authorization and
//! determine the local user id for which the request should be executed.
//! This callout is linked dynamically." Two callouts matter to the paper:
//!
//! * [`GridmapAuthz`] — the conventional gridmap file, "a frequent
//!   source of errors and complaints" (§IV-C);
//! * [`GcmuAuthz`] — GCMU's replacement: "picks up the local user id
//!   from the certificate subject if the certificate is signed by the
//!   local MyProxy Online CA", so "there is no need to maintain an
//!   explicit DN to username mapping".

use crate::error::{Result, ServerError};
use ig_obs::sync::RwLock;
use ig_pki::validate::ValidatedIdentity;
use ig_pki::Gridmap;

/// A pluggable identity → local-account mapping.
pub trait AuthzCallout: Send + Sync {
    /// Map a validated identity to a local username, or refuse.
    fn authorize(&self, identity: &ValidatedIdentity) -> Result<String>;

    /// Human-readable name for diagnostics and the E8 ledger.
    fn name(&self) -> &'static str;
}

/// Classic gridmap-file authorization.
pub struct GridmapAuthz {
    gridmap: RwLock<Gridmap>,
}

impl GridmapAuthz {
    /// Wrap a gridmap.
    pub fn new(gridmap: Gridmap) -> Self {
        GridmapAuthz { gridmap: RwLock::new(gridmap) }
    }

    /// Admin adds a mapping (conventional step (h) — counted by E8).
    pub fn add_mapping(&self, dn: &ig_pki::DistinguishedName, user: &str) {
        self.gridmap.write().add(dn, user);
    }

    /// Current entry count (per-user admin burden metric).
    pub fn entries(&self) -> usize {
        self.gridmap.read().len()
    }
}

impl AuthzCallout for GridmapAuthz {
    fn authorize(&self, identity: &ValidatedIdentity) -> Result<String> {
        self.gridmap
            .read()
            .lookup(&identity.identity)
            .map(str::to_string)
            .map_err(|e| ServerError::AuthzFailed(e.to_string()))
    }

    fn name(&self) -> &'static str {
        "gridmap"
    }
}

/// GCMU's callout: trust the DN minted by the local online CA.
pub struct GcmuAuthz {
    /// This endpoint's hostname; only certificates minted by *this*
    /// endpoint's online CA are mapped (§IV: "this certificate will be
    /// used to authenticate with this site only").
    endpoint: String,
}

impl GcmuAuthz {
    /// Callout for the given endpoint hostname.
    pub fn new(endpoint: &str) -> Self {
        GcmuAuthz { endpoint: endpoint.to_string() }
    }
}

impl AuthzCallout for GcmuAuthz {
    fn authorize(&self, identity: &ValidatedIdentity) -> Result<String> {
        match identity.online_ca_endpoint.as_deref() {
            Some(ep) if ep == self.endpoint => {
                identity.identity.common_name().map(str::to_string).ok_or_else(|| {
                    ServerError::AuthzFailed(format!(
                        "online-CA certificate {} has no CN",
                        identity.identity
                    ))
                })
            }
            Some(other) => Err(ServerError::AuthzFailed(format!(
                "certificate was minted by online CA of {other}, not {}",
                self.endpoint
            ))),
            None => Err(ServerError::AuthzFailed(
                "certificate was not issued by the local online CA".into(),
            )),
        }
    }

    fn name(&self) -> &'static str {
        "gcmu-dn"
    }
}

/// Try callouts in order; first success wins (GCMU deployments keep a
/// gridmap fallback for legacy certificates).
pub struct ChainAuthz {
    callouts: Vec<Box<dyn AuthzCallout>>,
}

impl ChainAuthz {
    /// Build from an ordered list.
    pub fn new(callouts: Vec<Box<dyn AuthzCallout>>) -> Self {
        ChainAuthz { callouts }
    }
}

impl AuthzCallout for ChainAuthz {
    fn authorize(&self, identity: &ValidatedIdentity) -> Result<String> {
        let mut last = None;
        for c in &self.callouts {
            match c.authorize(identity) {
                Ok(user) => return Ok(user),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| ServerError::AuthzFailed("no callouts configured".into())))
    }

    fn name(&self) -> &'static str {
        "chain"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_pki::DistinguishedName;

    fn identity(dn: &str, endpoint: Option<&str>) -> ValidatedIdentity {
        let d = DistinguishedName::parse(dn).unwrap();
        ValidatedIdentity {
            subject: d.clone(),
            identity: d,
            anchor: DistinguishedName::parse("/O=CA").unwrap(),
            online_ca_endpoint: endpoint.map(str::to_string),
            not_after: u64::MAX,
        }
    }

    #[test]
    fn gridmap_maps_known_rejects_unknown() {
        let mut g = Gridmap::new();
        g.add(&DistinguishedName::parse("/O=Grid/CN=Alice Smith").unwrap(), "asmith");
        let authz = GridmapAuthz::new(g);
        assert_eq!(
            authz.authorize(&identity("/O=Grid/CN=Alice Smith", None)).unwrap(),
            "asmith"
        );
        // The paper's stale-gridmap failure.
        let err = authz.authorize(&identity("/O=Grid/CN=New User", None)).unwrap_err();
        assert!(matches!(err, ServerError::AuthzFailed(_)));
        assert_eq!(authz.entries(), 1);
        authz.add_mapping(&DistinguishedName::parse("/O=Grid/CN=New User").unwrap(), "newu");
        assert_eq!(authz.entries(), 2);
        assert_eq!(authz.name(), "gridmap");
    }

    #[test]
    fn gcmu_parses_cn_from_local_online_ca() {
        let authz = GcmuAuthz::new("cluster.example.org");
        // No gridmap entry needed — the DN carries the username.
        assert_eq!(
            authz
                .authorize(&identity(
                    "/O=GCMU/OU=cluster.example.org/CN=alice",
                    Some("cluster.example.org")
                ))
                .unwrap(),
            "alice"
        );
    }

    #[test]
    fn gcmu_rejects_foreign_and_offline_certs() {
        let authz = GcmuAuthz::new("cluster.example.org");
        // Cert from another endpoint's online CA.
        assert!(authz
            .authorize(&identity("/O=GCMU/OU=other/CN=alice", Some("other.example.org")))
            .is_err());
        // Conventional CA cert without the marker.
        assert!(authz.authorize(&identity("/O=Grid/CN=alice", None)).is_err());
        assert_eq!(authz.name(), "gcmu-dn");
    }

    #[test]
    fn chain_falls_back() {
        let mut g = Gridmap::new();
        g.add(&DistinguishedName::parse("/O=Legacy/CN=Old User").unwrap(), "olduser");
        let chain = ChainAuthz::new(vec![
            Box::new(GcmuAuthz::new("ep.example.org")),
            Box::new(GridmapAuthz::new(g)),
        ]);
        // GCMU path.
        assert_eq!(
            chain
                .authorize(&identity("/O=GCMU/OU=ep/CN=bob", Some("ep.example.org")))
                .unwrap(),
            "bob"
        );
        // Legacy gridmap path.
        assert_eq!(
            chain.authorize(&identity("/O=Legacy/CN=Old User", None)).unwrap(),
            "olduser"
        );
        // Neither.
        assert!(chain.authorize(&identity("/O=Nowhere/CN=x", None)).is_err());
    }

    #[test]
    fn empty_chain_rejects() {
        let chain = ChainAuthz::new(vec![]);
        assert!(chain.authorize(&identity("/CN=x", None)).is_err());
    }
}
