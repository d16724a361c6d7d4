//! Certificates: the to-be-signed body, extensions, and the signed wrapper.
//!
//! The TBS body is canonical JSON (field order fixed by struct
//! declaration) signed with RSA/SHA-256. PEM framing uses the standard
//! `CERTIFICATE` label so DCSC blobs look exactly like the paper's
//! "X.509 certificate in PEM format".

use crate::dn::DistinguishedName;
use crate::error::{PkiError, Result};
use ig_crypto::encode::{hex_encode, pem_encode};
use ig_crypto::{RsaPrivateKey, RsaPublicKey, Sha256};
use ig_obs::json::{from_slice, to_vec};

/// Validity window in UNIX seconds, inclusive start, exclusive end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// First instant at which the certificate is valid.
    pub not_before: u64,
    /// First instant at which the certificate is no longer valid.
    pub not_after: u64,
}

ig_obs::json_codec!(struct Validity { not_before, not_after });

impl Validity {
    /// A window starting at `start` and lasting `secs` seconds.
    pub fn starting_at(start: u64, secs: u64) -> Self {
        Validity { not_before: start, not_after: start.saturating_add(secs) }
    }

    /// Is `t` inside the window?
    pub fn contains(&self, t: u64) -> bool {
        t >= self.not_before && t < self.not_after
    }

    /// Remaining lifetime at instant `t` (0 if expired).
    pub fn remaining(&self, t: u64) -> u64 {
        self.not_after.saturating_sub(t.max(self.not_before))
    }
}

/// Certificate extensions — the subset GSI actually uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// X.509 basic constraints: may this certificate sign others?
    BasicConstraints {
        /// True for CA certificates.
        ca: bool,
        /// Maximum number of CA certificates below this one.
        path_len: Option<u32>,
    },
    /// RFC 3820 proxy certificate info.
    ProxyCertInfo {
        /// Maximum further delegations (None = unlimited).
        path_len: Option<u32>,
    },
    /// Marker set by an online CA so relying parties can recognize
    /// "issued by the local MyProxy Online CA" (GCMU authz rule, §IV-C).
    OnlineCaIssued {
        /// Hostname of the issuing GCMU endpoint.
        endpoint: String,
    },
    /// Free-form extension for forward compatibility.
    Custom {
        /// Extension identifier.
        oid: String,
        /// Extension payload.
        value: String,
    },
}

ig_obs::json_codec!(enum Extension {
    BasicConstraints { ca, path_len },
    ProxyCertInfo { path_len },
    OnlineCaIssued { endpoint },
    Custom { oid, value },
});

/// The signed portion of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Structure version (always 3, matching X.509 v3).
    pub version: u32,
    /// Issuer-scoped serial number.
    pub serial: u64,
    /// Name of the signer.
    pub issuer: DistinguishedName,
    /// Name of the holder.
    pub subject: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Holder's RSA public key (ig-crypto encoding).
    pub public_key: Vec<u8>,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

ig_obs::json_codec!(struct TbsCertificate {
    version, serial, issuer, subject, validity, public_key, extensions
});

impl TbsCertificate {
    /// The exact bytes that get signed.
    pub fn signing_bytes(&self) -> Vec<u8> {
        to_vec(self)
    }

    /// Decode the embedded public key.
    pub fn key(&self) -> Result<RsaPublicKey> {
        Ok(RsaPublicKey::decode(&self.public_key)?)
    }
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Signed body.
    pub tbs: TbsCertificate,
    /// RSA/SHA-256 signature over [`TbsCertificate::signing_bytes`].
    pub signature: Vec<u8>,
}

ig_obs::json_codec!(struct Certificate { tbs, signature });

impl Certificate {
    /// Sign a TBS body with the issuer's key.
    pub fn sign(tbs: TbsCertificate, issuer_key: &RsaPrivateKey) -> Result<Self> {
        let signature = issuer_key.sign(&tbs.signing_bytes())?;
        Ok(Certificate { tbs, signature })
    }

    /// Verify this certificate's signature under `issuer_key`.
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> Result<()> {
        issuer_key
            .verify(&self.tbs.signing_bytes(), &self.signature)
            .map_err(|_| {
                PkiError::BadSignature(format!("subject {}", self.tbs.subject))
            })
    }

    /// Subject DN.
    pub fn subject(&self) -> &DistinguishedName {
        &self.tbs.subject
    }

    /// Issuer DN.
    pub fn issuer(&self) -> &DistinguishedName {
        &self.tbs.issuer
    }

    /// Holder's public key.
    pub fn public_key(&self) -> Result<RsaPublicKey> {
        self.tbs.key()
    }

    /// Is this a self-signed certificate (issuer == subject)?
    pub fn is_self_signed(&self) -> bool {
        self.tbs.issuer == self.tbs.subject
    }

    /// Does basic-constraints mark this as a CA?
    pub fn is_ca(&self) -> bool {
        self.tbs.extensions.iter().any(|e| matches!(e, Extension::BasicConstraints { ca: true, .. }))
    }

    /// CA path-length limit, if constrained.
    pub fn ca_path_len(&self) -> Option<u32> {
        self.tbs.extensions.iter().find_map(|e| match e {
            Extension::BasicConstraints { ca: true, path_len } => *path_len,
            _ => None,
        })
    }

    /// Proxy-certificate info if this is a proxy cert.
    pub fn proxy_info(&self) -> Option<Option<u32>> {
        self.tbs.extensions.iter().find_map(|e| match e {
            Extension::ProxyCertInfo { path_len } => Some(*path_len),
            _ => None,
        })
    }

    /// True if issued by an online CA (GCMU marker extension).
    pub fn online_ca_endpoint(&self) -> Option<&str> {
        self.tbs.extensions.iter().find_map(|e| match e {
            Extension::OnlineCaIssued { endpoint } => Some(endpoint.as_str()),
            _ => None,
        })
    }

    /// Check the validity window at instant `now`.
    pub fn check_validity(&self, now: u64) -> Result<()> {
        if now < self.tbs.validity.not_before {
            return Err(PkiError::NotYetValid {
                subject: self.tbs.subject.to_string(),
                not_before: self.tbs.validity.not_before,
                now,
            });
        }
        if now >= self.tbs.validity.not_after {
            return Err(PkiError::Expired {
                subject: self.tbs.subject.to_string(),
                not_after: self.tbs.validity.not_after,
                now,
            });
        }
        Ok(())
    }

    /// SHA-256 fingerprint (first 8 bytes, hex) used in logs and as a
    /// stable identity for trust-root lookups.
    pub fn fingerprint(&self) -> String {
        hex_encode(&Sha256::digest(&to_vec(self))[..8])
    }

    /// Serialize to a PEM `CERTIFICATE` block.
    pub fn to_pem(&self) -> String {
        pem_encode("CERTIFICATE", &to_vec(self))
    }

    /// Parse one certificate from PEM bytes.
    pub fn from_pem(pem: &str) -> Result<Self> {
        let body = ig_crypto::encode::pem_decode_one(pem, "CERTIFICATE")
            .map_err(|e| PkiError::Decode(e.to_string()))?;
        Self::from_bytes(&body)
    }

    /// Parse from raw (decoded) body bytes.
    pub fn from_bytes(body: &[u8]) -> Result<Self> {
        from_slice(body).map_err(|e| PkiError::Decode(format!("bad certificate: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_crypto::RsaKeyPair;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn make_cert(seed: u64, issuer: &str, subject: &str, exts: Vec<Extension>) -> (Certificate, RsaKeyPair, RsaKeyPair) {
        let issuer_kp = RsaKeyPair::generate(&mut seeded(seed), 512).unwrap();
        let subject_kp = RsaKeyPair::generate(&mut seeded(seed + 1), 512).unwrap();
        let tbs = TbsCertificate {
            version: 3,
            serial: 1,
            issuer: dn(issuer),
            subject: dn(subject),
            validity: Validity::starting_at(1000, 3600),
            public_key: subject_kp.public.encode(),
            extensions: exts,
        };
        let cert = Certificate::sign(tbs, &issuer_kp.private).unwrap();
        (cert, issuer_kp, subject_kp)
    }

    #[test]
    fn sign_and_verify() {
        let (cert, issuer, subject) = make_cert(100, "/O=TestCA", "/O=Grid/CN=alice", vec![]);
        cert.verify_signature(&issuer.public).unwrap();
        assert!(cert.verify_signature(&subject.public).is_err());
        assert_eq!(cert.public_key().unwrap(), subject.public);
        assert_eq!(cert.subject().common_name(), Some("alice"));
        assert!(!cert.is_self_signed());
    }

    #[test]
    fn tamper_detection() {
        let (mut cert, issuer, _) = make_cert(102, "/O=TestCA", "/CN=bob", vec![]);
        cert.tbs.subject = dn("/CN=mallory");
        assert!(cert.verify_signature(&issuer.public).is_err());
    }

    #[test]
    fn validity_windows() {
        let (cert, _, _) = make_cert(104, "/O=CA", "/CN=x", vec![]);
        assert!(cert.check_validity(999).is_err());
        cert.check_validity(1000).unwrap();
        cert.check_validity(4599).unwrap();
        let err = cert.check_validity(4600).unwrap_err();
        assert!(matches!(err, PkiError::Expired { .. }));
        let err = cert.check_validity(0).unwrap_err();
        assert!(matches!(err, PkiError::NotYetValid { .. }));
    }

    #[test]
    fn validity_helpers() {
        let v = Validity::starting_at(100, 50);
        assert!(v.contains(100));
        assert!(v.contains(149));
        assert!(!v.contains(150));
        assert_eq!(v.remaining(100), 50);
        assert_eq!(v.remaining(140), 10);
        assert_eq!(v.remaining(200), 0);
        assert_eq!(v.remaining(0), 50);
    }

    #[test]
    fn extension_accessors() {
        let (ca_cert, _, _) = make_cert(
            106,
            "/O=Root",
            "/O=Root",
            vec![Extension::BasicConstraints { ca: true, path_len: Some(2) }],
        );
        assert!(ca_cert.is_ca());
        assert_eq!(ca_cert.ca_path_len(), Some(2));
        assert!(ca_cert.proxy_info().is_none());

        let (proxy, _, _) = make_cert(
            108,
            "/CN=alice",
            "/CN=alice/CN=proxy",
            vec![Extension::ProxyCertInfo { path_len: Some(0) }],
        );
        assert!(!proxy.is_ca());
        assert_eq!(proxy.proxy_info(), Some(Some(0)));

        let (gcmu, _, _) = make_cert(
            110,
            "/O=GCMU CA",
            "/O=GCMU/CN=alice",
            vec![Extension::OnlineCaIssued { endpoint: "cluster.example.org".into() }],
        );
        assert_eq!(gcmu.online_ca_endpoint(), Some("cluster.example.org"));
    }

    #[test]
    fn pem_roundtrip() {
        let (cert, _, _) = make_cert(112, "/O=CA", "/CN=pem-test", vec![]);
        let pem = cert.to_pem();
        assert!(pem.contains("BEGIN CERTIFICATE"));
        let back = Certificate::from_pem(&pem).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn from_pem_rejects_garbage() {
        assert!(Certificate::from_pem("not pem").is_err());
        let fake = pem_encode("CERTIFICATE", b"{\"not\": \"a cert\"}");
        assert!(Certificate::from_pem(&fake).is_err());
    }

    #[test]
    fn fingerprints_distinct() {
        let (a, _, _) = make_cert(114, "/O=CA", "/CN=a", vec![]);
        let (b, _, _) = make_cert(116, "/O=CA", "/CN=b", vec![]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn signing_bytes_are_stable() {
        let (cert, _, _) = make_cert(118, "/O=CA", "/CN=stable", vec![]);
        assert_eq!(cert.tbs.signing_bytes(), cert.tbs.signing_bytes());
    }
}
