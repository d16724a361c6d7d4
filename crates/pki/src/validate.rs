//! Certificate chain validation — the heart of DCAU.
//!
//! Given a presented chain (leaf first) and a [`TrustStore`], this module
//! either produces a [`ValidatedIdentity`] or the precise failure the
//! paper's scenarios require:
//!
//! * Fig 4's cross-CA failure → [`PkiError::UntrustedIssuer`];
//! * expired short-lived GCMU certificates → [`PkiError::Expired`];
//! * a proxy signed by the wrong key or with the wrong name →
//!   [`PkiError::ProxyViolation`];
//! * a subject outside the CA's signing policy →
//!   [`PkiError::PolicyViolation`].

use crate::cert::Certificate;
use crate::dn::DistinguishedName;
use crate::error::{PkiError, Result};
use crate::store::TrustStore;

/// The outcome of a successful validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidatedIdentity {
    /// Subject of the presented leaf (may include proxy components).
    pub subject: DistinguishedName,
    /// Base identity: subject of the first non-proxy certificate.
    pub identity: DistinguishedName,
    /// DN of the trust anchor that anchored the chain.
    pub anchor: DistinguishedName,
    /// If the end-entity certificate was issued by an online CA, the GCMU
    /// endpoint that issued it (drives the GCMU authz callout).
    pub online_ca_endpoint: Option<String>,
    /// The first instant at which the validated path stops validating:
    /// the earliest `not_after` over the presented chain and its anchor.
    /// Whoever keeps something this validation vouched for (a cached data
    /// channel) must stop using it then.
    pub not_after: u64,
}

/// The earliest `not_after` among `certs` (`u64::MAX` for none).
pub fn earliest_not_after<'a>(certs: impl IntoIterator<Item = &'a Certificate>) -> u64 {
    certs.into_iter().map(|c| c.tbs.validity.not_after).min().unwrap_or(u64::MAX)
}

/// Validate `chain` (leaf first) against `store` at instant `now`.
///
/// Rules implemented:
/// 1. Every certificate must be inside its validity window.
/// 2. Proxy certificates (those carrying `ProxyCertInfo`) must be signed
///    by the key of the *next* certificate in the chain, must extend its
///    subject by exactly one component, and must respect `path_len`
///    limits of the certificates above them.
/// 3. Above the proxies, each certificate must be signed by the next
///    chain certificate (which must be a CA) or by a trust root whose
///    subject matches its issuer.
/// 4. A self-signed leaf that is itself an installed anchor validates
///    directly (the DCSC "random, self-signed certificate" mode, §V).
/// 5. The anchoring root's signing policy must permit every subject it
///    (transitively) signed in this chain.
pub fn validate_chain(
    chain: &[Certificate],
    store: &TrustStore,
    now: u64,
) -> Result<ValidatedIdentity> {
    if chain.is_empty() {
        return Err(PkiError::BrokenChain("empty chain".into()));
    }
    let leaf = &chain[0];
    leaf.check_validity(now)?;

    // Case: self-signed leaf installed as an anchor (DCSC self-signed mode).
    if leaf.is_self_signed() {
        if store.contains(leaf) {
            leaf.verify_signature(&leaf.public_key()?)?;
            return Ok(ValidatedIdentity {
                subject: leaf.subject().clone(),
                identity: leaf.subject().clone(),
                anchor: leaf.subject().clone(),
                online_ca_endpoint: leaf.online_ca_endpoint().map(str::to_string),
                not_after: leaf.tbs.validity.not_after,
            });
        }
        return Err(PkiError::UntrustedIssuer(format!(
            "self-signed certificate {} is not an installed anchor",
            leaf.subject()
        )));
    }

    // Phase 1: walk proxy certificates at the bottom of the chain.
    let mut idx = 0usize;
    let mut proxies_below = 0u32;
    while chain[idx].proxy_info().is_some() {
        let proxy = &chain[idx];
        let signer = chain.get(idx + 1).ok_or_else(|| {
            PkiError::BrokenChain(format!(
                "proxy {} has no issuer certificate in chain",
                proxy.subject()
            ))
        })?;
        signer.check_validity(now)?;
        if !proxy.subject().extends(signer.subject(), 1) {
            return Err(PkiError::ProxyViolation(format!(
                "proxy subject {} does not extend issuer subject {}",
                proxy.subject(),
                signer.subject()
            )));
        }
        if proxy.issuer() != signer.subject() {
            return Err(PkiError::ProxyViolation(format!(
                "proxy issuer field {} does not match signer subject {}",
                proxy.issuer(),
                signer.subject()
            )));
        }
        proxy
            .verify_signature(&signer.public_key()?)
            .map_err(|_| PkiError::ProxyViolation(format!(
                "proxy {} not signed by {}",
                proxy.subject(),
                signer.subject()
            )))?;
        // Depth limit of the signer (if the signer is itself a proxy).
        if let Some(Some(limit)) = signer.proxy_info() {
            if proxies_below + 1 > limit {
                return Err(PkiError::ProxyViolation(format!(
                    "delegation depth {} exceeds signer limit {}",
                    proxies_below + 1,
                    limit
                )));
            }
        }
        proxies_below += 1;
        idx += 1;
    }

    // chain[idx] is now the end-entity certificate.
    let eec = &chain[idx];
    eec.check_validity(now)?;
    if eec.is_ca() && idx == 0 {
        // A bare CA certificate presented as an identity is unusual but
        // legal (host credentials at small sites); fall through.
    }

    // Phase 2: walk CA certificates up to a trust anchor.
    let mut signed_subjects: Vec<DistinguishedName> = vec![eec.subject().clone()];
    let mut current = idx;
    let anchor;
    let mut intermediates = 0u32;
    loop {
        let cert = &chain[current];
        if let Some(root) = store.find_issuer(cert.issuer()) {
            root.check_validity(now)?;
            cert.verify_signature(&root.public_key()?)?;
            anchor = root;
            break;
        }
        match chain.get(current + 1) {
            Some(next) => {
                next.check_validity(now)?;
                if !next.is_ca() {
                    return Err(PkiError::NotACa(next.subject().to_string()));
                }
                if next.subject() != cert.issuer() {
                    return Err(PkiError::BrokenChain(format!(
                        "chain order: {} issued by {}, but next certificate is {}",
                        cert.subject(),
                        cert.issuer(),
                        next.subject()
                    )));
                }
                if let Some(limit) = next.ca_path_len() {
                    if intermediates > limit {
                        return Err(PkiError::BrokenChain(format!(
                            "CA path length {intermediates} exceeds limit {limit} of {}",
                            next.subject()
                        )));
                    }
                }
                cert.verify_signature(&next.public_key()?)?;
                if next.is_self_signed() {
                    // Chain reached an untrusted self-signed root.
                    return Err(PkiError::UntrustedIssuer(format!(
                        "chain terminates at {} which is not a trust anchor",
                        next.subject()
                    )));
                }
                signed_subjects.push(next.subject().clone());
                intermediates += 1;
                current += 1;
            }
            None => {
                return Err(PkiError::UntrustedIssuer(format!(
                    "no trust anchor for issuer {}",
                    cert.issuer()
                )))
            }
        }
    }

    // Phase 3: signing-policy enforcement for the anchoring CA. Real GSI
    // applies the anchor's policy to subjects it directly signs; we apply
    // it to every CA-signed subject in the validated path.
    let policy = store.policy_for(anchor.subject());
    for subject in &signed_subjects {
        if !policy.permits(subject) {
            return Err(PkiError::PolicyViolation {
                ca: anchor.subject().to_string(),
                subject: subject.to_string(),
            });
        }
    }

    Ok(ValidatedIdentity {
        subject: leaf.subject().clone(),
        identity: eec.subject().clone(),
        anchor: anchor.subject().clone(),
        online_ca_endpoint: eec.online_ca_endpoint().map(str::to_string),
        not_after: earliest_not_after(chain[..=current].iter().chain([anchor])),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::cert::Validity;
    use crate::credential::Credential;
    use crate::policy::SigningPolicy;
    use crate::proxy;
    use ig_crypto::rng::seeded;
    use ig_crypto::RsaKeyPair;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct Fixture {
        #[allow(dead_code)] // anchors the CA's lifetime alongside the store
        ca: CertificateAuthority,
        store: TrustStore,
        cred: Credential,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = seeded(seed);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=CA-A"), 512, 0, 1_000_000).unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cert = ca
            .issue(dn("/O=Grid/CN=alice"), &keys.public, Validity::starting_at(0, 10_000), vec![])
            .unwrap();
        let mut store = TrustStore::new();
        store.add_root(ca.root_cert().clone());
        let cred = Credential::new(vec![cert], keys.private).unwrap();
        Fixture { ca, store, cred }
    }

    #[test]
    fn simple_chain_validates() {
        let f = fixture(1);
        let id = validate_chain(f.cred.chain(), &f.store, 100).unwrap();
        assert_eq!(id.subject.to_string(), "/O=Grid/CN=alice");
        assert_eq!(id.identity, id.subject);
        assert_eq!(id.anchor.to_string(), "/O=CA-A");
        assert!(id.online_ca_endpoint.is_none());
    }

    #[test]
    fn not_after_is_the_earliest_on_the_validated_path() {
        // fixture: CA to 1,000,000, alice to 10,000.
        let f = fixture(1);
        assert_eq!(validate_chain(f.cred.chain(), &f.store, 100).unwrap().not_after, 10_000);
        // A proxy shorter than its issuer shortens the path; a proxy
        // issued to outlive it does not lengthen it.
        let mut rng = seeded(70);
        for (lifetime, expect) in [(50, 150), (1_000_000, 10_000)] {
            let options = proxy::ProxyOptions { lifetime, path_len: None };
            let cred = proxy::delegate(&mut rng, &f.cred, 512, 100, options).unwrap();
            let id = validate_chain(cred.chain(), &f.store, 120).unwrap();
            assert_eq!(id.not_after, expect, "lifetime {lifetime}");
            // Valid strictly before it, refused from it on.
            assert!(validate_chain(cred.chain(), &f.store, expect - 1).is_ok());
            assert!(matches!(
                validate_chain(cred.chain(), &f.store, expect),
                Err(PkiError::Expired { .. })
            ));
        }
        assert_eq!(earliest_not_after([]), u64::MAX);
    }

    #[test]
    fn untrusted_issuer_rejected() {
        // The Fig 4 scenario: endpoint B does not trust CA-A.
        let f = fixture(2);
        let empty = TrustStore::new();
        let err = validate_chain(f.cred.chain(), &empty, 100).unwrap_err();
        assert!(matches!(err, PkiError::UntrustedIssuer(_)));
    }

    #[test]
    fn expired_leaf_rejected() {
        let f = fixture(3);
        let err = validate_chain(f.cred.chain(), &f.store, 20_000).unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
    }

    #[test]
    fn not_yet_valid_rejected() {
        let mut rng = seeded(4);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=CA"), 512, 0, 1_000_000).unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cert = ca
            .issue(dn("/CN=future"), &keys.public, Validity::starting_at(5000, 100), vec![])
            .unwrap();
        let mut store = TrustStore::new();
        store.add_root(ca.root_cert().clone());
        let err = validate_chain(&[cert], &store, 100).unwrap_err();
        assert!(matches!(err, PkiError::NotYetValid { .. }));
    }

    #[test]
    fn proxy_chain_validates() {
        let f = fixture(5);
        let mut rng = seeded(6);
        let delegated = proxy::delegate(&mut rng, &f.cred, 512, 10, Default::default()).unwrap();
        let id = validate_chain(delegated.chain(), &f.store, 100).unwrap();
        assert_eq!(id.identity.to_string(), "/O=Grid/CN=alice");
        assert!(id.subject.extends(&id.identity, 1));
    }

    #[test]
    fn double_delegation_validates() {
        let f = fixture(7);
        let mut rng = seeded(8);
        let d1 = proxy::delegate(&mut rng, &f.cred, 512, 10, Default::default()).unwrap();
        let d2 = proxy::delegate(&mut rng, &d1, 512, 20, Default::default()).unwrap();
        let id = validate_chain(d2.chain(), &f.store, 100).unwrap();
        assert_eq!(id.identity.to_string(), "/O=Grid/CN=alice");
        assert!(id.subject.extends(&id.identity, 2));
    }

    #[test]
    fn forged_proxy_rejected() {
        let f = fixture(9);
        let mut rng = seeded(10);
        let delegated = proxy::delegate(&mut rng, &f.cred, 512, 10, Default::default()).unwrap();
        // Tamper: replace proxy signature with garbage.
        let mut chain = delegated.chain().to_vec();
        chain[0].signature[0] ^= 0xff;
        let err = validate_chain(&chain, &f.store, 100).unwrap_err();
        assert!(matches!(err, PkiError::ProxyViolation(_)));
    }

    #[test]
    fn proxy_with_wrong_name_rejected() {
        let f = fixture(11);
        let mut rng = seeded(12);
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        // Handcraft a "proxy" whose subject does not extend the issuer's.
        let tbs = crate::cert::TbsCertificate {
            version: 3,
            serial: 99,
            issuer: f.cred.leaf().subject().clone(),
            subject: dn("/O=Grid/CN=mallory/CN=1"),
            validity: Validity::starting_at(0, 1000),
            public_key: keys.public.encode(),
            extensions: vec![crate::cert::Extension::ProxyCertInfo { path_len: None }],
        };
        let bad = Certificate::sign(tbs, f.cred.key()).unwrap();
        let chain = vec![bad, f.cred.leaf().clone()];
        let err = validate_chain(&chain, &f.store, 100).unwrap_err();
        assert!(matches!(err, PkiError::ProxyViolation(_)));
    }

    #[test]
    fn depth_limited_delegation_rejected_at_validation() {
        let f = fixture(13);
        let mut rng = seeded(14);
        // Delegate with path_len 0 then handcraft a deeper proxy, bypassing
        // the issuance-time check to confirm validation also rejects it.
        let limited = proxy::delegate(
            &mut rng,
            &f.cred,
            512,
            10,
            proxy::ProxyOptions { lifetime: 3600, path_len: Some(0) },
        )
        .unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let tbs = crate::cert::TbsCertificate {
            version: 3,
            serial: 7,
            issuer: limited.leaf().subject().clone(),
            subject: limited.leaf().subject().with("CN", "7"),
            validity: Validity::starting_at(0, 1000),
            public_key: keys.public.encode(),
            extensions: vec![crate::cert::Extension::ProxyCertInfo { path_len: None }],
        };
        let deep = Certificate::sign(tbs, limited.key()).unwrap();
        let mut chain = vec![deep];
        chain.extend(limited.chain().iter().cloned());
        let err = validate_chain(&chain, &f.store, 100).unwrap_err();
        assert!(matches!(err, PkiError::ProxyViolation(_)));
    }

    #[test]
    fn intermediate_ca_chain_validates() {
        let mut rng = seeded(15);
        let mut root =
            CertificateAuthority::create(&mut rng, dn("/O=Root"), 512, 0, 1_000_000).unwrap();
        let sub_keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let sub_cert = root
            .issue_ca(dn("/O=Root/OU=Sub"), &sub_keys.public, Validity::starting_at(0, 1_000_000), None)
            .unwrap();
        // The intermediate signs a leaf.
        let leaf_keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let tbs = crate::cert::TbsCertificate {
            version: 3,
            serial: 1,
            issuer: dn("/O=Root/OU=Sub"),
            subject: dn("/CN=leaf"),
            validity: Validity::starting_at(0, 1000),
            public_key: leaf_keys.public.encode(),
            extensions: vec![crate::cert::Extension::BasicConstraints { ca: false, path_len: None }],
        };
        let leaf = Certificate::sign(tbs, &sub_keys.private).unwrap();
        let mut store = TrustStore::new();
        store.add_root(root.root_cert().clone());
        let id = validate_chain(&[leaf, sub_cert], &store, 100).unwrap();
        assert_eq!(id.anchor.to_string(), "/O=Root");
        assert_eq!(id.identity.to_string(), "/CN=leaf");
    }

    #[test]
    fn leaf_signed_by_non_ca_rejected() {
        let mut rng = seeded(16);
        let mut root =
            CertificateAuthority::create(&mut rng, dn("/O=Root"), 512, 0, 1_000_000).unwrap();
        // "Intermediate" without the CA bit.
        let mid_keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let mid = root
            .issue(dn("/O=Root/CN=not-a-ca"), &mid_keys.public, Validity::starting_at(0, 1000), vec![])
            .unwrap();
        let leaf_keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let tbs = crate::cert::TbsCertificate {
            version: 3,
            serial: 1,
            issuer: dn("/O=Root/CN=not-a-ca"),
            subject: dn("/CN=leaf"),
            validity: Validity::starting_at(0, 1000),
            public_key: leaf_keys.public.encode(),
            extensions: vec![],
        };
        let leaf = Certificate::sign(tbs, &mid_keys.private).unwrap();
        let mut store = TrustStore::new();
        store.add_root(root.root_cert().clone());
        let err = validate_chain(&[leaf, mid], &store, 100).unwrap_err();
        assert!(matches!(err, PkiError::NotACa(_)));
    }

    #[test]
    fn signing_policy_enforced() {
        let mut rng = seeded(17);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=CA"), 512, 0, 1_000_000).unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let ok_cert = ca
            .issue(dn("/O=Site/CN=good"), &keys.public, Validity::starting_at(0, 1000), vec![])
            .unwrap();
        let bad_cert = ca
            .issue(dn("/O=Elsewhere/CN=bad"), &keys.public, Validity::starting_at(0, 1000), vec![])
            .unwrap();
        let mut store = TrustStore::new();
        store.add_root_with_policy(ca.root_cert().clone(), SigningPolicy::new(["/O=Site/*"]));
        validate_chain(&[ok_cert], &store, 100).unwrap();
        let err = validate_chain(&[bad_cert], &store, 100).unwrap_err();
        assert!(matches!(err, PkiError::PolicyViolation { .. }));
    }

    #[test]
    fn self_signed_anchor_leaf_validates() {
        // DCSC "random, self-signed certificate" mode (§V): both sides
        // install the same self-signed cert as an anchor.
        let mut rng = seeded(18);
        let ca = CertificateAuthority::create(&mut rng, dn("/CN=random-ctx"), 512, 0, 1000)
            .unwrap();
        let cert = ca.root_cert().clone();
        let mut store = TrustStore::new();
        store.add_root(cert.clone());
        let id = validate_chain(&[cert.clone()], &store, 100).unwrap();
        assert_eq!(id.subject.to_string(), "/CN=random-ctx");
        // Without installation it fails.
        let err = validate_chain(&[cert], &TrustStore::new(), 100).unwrap_err();
        assert!(matches!(err, PkiError::UntrustedIssuer(_)));
    }

    #[test]
    fn gcmu_marker_propagates() {
        let mut rng = seeded(19);
        let mut ca =
            CertificateAuthority::create(&mut rng, dn("/O=GCMU CA"), 512, 0, 1_000_000).unwrap();
        let keys = RsaKeyPair::generate(&mut rng, 512).unwrap();
        let cert = ca
            .issue_short_lived(&dn("/O=GCMU"), "alice", "cluster.example.org", &keys.public, 0, 3600)
            .unwrap();
        let mut store = TrustStore::new();
        store.add_root(ca.root_cert().clone());
        let id = validate_chain(&[cert], &store, 100).unwrap();
        assert_eq!(id.online_ca_endpoint.as_deref(), Some("cluster.example.org"));
        assert_eq!(id.identity.common_name(), Some("alice"));
    }

    #[test]
    fn empty_chain_rejected() {
        let err = validate_chain(&[], &TrustStore::new(), 0).unwrap_err();
        assert!(matches!(err, PkiError::BrokenChain(_)));
    }
}
