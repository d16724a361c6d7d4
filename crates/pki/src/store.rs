//! Trust roots and their signing policies — the "trusted certificates
//! directory" of conventional GridFTP installation step (g).
//!
//! A [`TrustStore`] is what each endpoint consults during DCAU. The DCSC
//! command (§V-A) works by building a *temporary* store: "a combination of
//! the server's default CA certificates and signing policies [and] all
//! self-signed certificates given in (1) and (3)" — see
//! [`TrustStore::with_extra_roots`].

use crate::cert::Certificate;
use crate::dn::DistinguishedName;
use crate::policy::SigningPolicy;
use std::collections::BTreeMap;

/// A set of trusted root certificates plus per-CA signing policies.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct TrustStore {
    roots: Vec<Certificate>,
    policies: BTreeMap<String, SigningPolicy>,
}

impl TrustStore {
    /// Empty store (trusts nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a trust root with no signing policy (i.e. allow-all, matching
    /// GSI behaviour when no `.signing_policy` file exists).
    pub fn add_root(&mut self, root: Certificate) {
        self.roots.push(root);
    }

    /// Add a trust root with an explicit signing policy.
    pub fn add_root_with_policy(&mut self, root: Certificate, policy: SigningPolicy) {
        self.policies.insert(root.subject().to_string(), policy);
        self.roots.push(root);
    }

    /// All roots.
    pub fn roots(&self) -> &[Certificate] {
        &self.roots
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when no roots are installed.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Find a root whose *subject* matches `issuer` (how chain building
    /// locates the anchor for a presented certificate).
    pub fn find_issuer(&self, issuer: &DistinguishedName) -> Option<&Certificate> {
        self.roots.iter().find(|r| r.subject() == issuer)
    }

    /// True if `cert` itself (exact match) is an installed trust anchor.
    pub fn contains(&self, cert: &Certificate) -> bool {
        self.roots.iter().any(|r| r == cert)
    }

    /// The signing policy for a CA DN (allow-all when none is on file —
    /// and per §V-A, DCSC-supplied CAs never get policy files, so they
    /// land on the allow-all default unless the server already had one).
    pub fn policy_for(&self, ca: &DistinguishedName) -> SigningPolicy {
        self.policies
            .get(&ca.to_string())
            .cloned()
            .unwrap_or_else(SigningPolicy::allow_all)
    }

    /// Build the DCSC validation store: this store's roots and policies
    /// plus the self-signed certificates from a DCSC blob as additional
    /// anchors. Existing policies still apply ("the server will still use
    /// and enforce them"); the extra roots get no new policies.
    pub fn with_extra_roots<'a, I: IntoIterator<Item = &'a Certificate>>(
        &self,
        extras: I,
    ) -> TrustStore {
        let mut out = self.clone();
        for cert in extras {
            if cert.is_self_signed() && !out.contains(cert) {
                out.roots.push(cert.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use ig_crypto::rng::seeded;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn ca(seed: u64, name: &str) -> CertificateAuthority {
        CertificateAuthority::create(&mut seeded(seed), dn(name), 512, 0, 1_000_000).unwrap()
    }

    #[test]
    fn add_and_find() {
        let a = ca(1, "/O=CA-A");
        let b = ca(2, "/O=CA-B");
        let mut store = TrustStore::new();
        assert!(store.is_empty());
        store.add_root(a.root_cert().clone());
        assert_eq!(store.len(), 1);
        assert!(store.find_issuer(&dn("/O=CA-A")).is_some());
        assert!(store.find_issuer(&dn("/O=CA-B")).is_none());
        assert!(store.contains(a.root_cert()));
        assert!(!store.contains(b.root_cert()));
    }

    #[test]
    fn default_policy_is_allow_all() {
        let a = ca(3, "/O=CA-A");
        let mut store = TrustStore::new();
        store.add_root(a.root_cert().clone());
        assert!(store.policy_for(&dn("/O=CA-A")).permits(&dn("/CN=anyone")));
    }

    #[test]
    fn explicit_policy_is_enforced() {
        let a = ca(4, "/O=CA-A");
        let mut store = TrustStore::new();
        store.add_root_with_policy(a.root_cert().clone(), SigningPolicy::new(["/O=Site/*"]));
        let p = store.policy_for(&dn("/O=CA-A"));
        assert!(p.permits(&dn("/O=Site/CN=x")));
        assert!(!p.permits(&dn("/O=Evil/CN=x")));
    }

    #[test]
    fn with_extra_roots_adds_only_self_signed() {
        let a = ca(5, "/O=CA-A");
        let mut b = ca(6, "/O=CA-B");
        let store = {
            let mut s = TrustStore::new();
            s.add_root(a.root_cert().clone());
            s
        };
        // A non-self-signed cert must NOT become a trust anchor.
        let k = ig_crypto::RsaKeyPair::generate(&mut seeded(7), 512).unwrap();
        let leaf = b
            .issue(dn("/CN=leaf"), &k.public, crate::cert::Validity::starting_at(0, 10), vec![])
            .unwrap();
        let merged = store.with_extra_roots([b.root_cert(), &leaf]);
        assert_eq!(merged.len(), 2);
        assert!(merged.contains(b.root_cert()));
        assert!(!merged.contains(&leaf));
        // Original store unchanged.
        assert_eq!(store.len(), 1);
        // Duplicates are not added twice.
        let merged2 = merged.with_extra_roots([b.root_cert()]);
        assert_eq!(merged2.len(), 2);
    }
}
