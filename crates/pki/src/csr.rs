//! Certificate signing requests.
//!
//! The paper is explicit that in the MyProxy Online CA flow the client
//! "generates the subscriber's private key locally ... and issues a signed
//! certificate request to the CA" (§IV-A). A CSR here is the requested
//! subject plus the public key, self-signed to prove key possession.

use crate::dn::DistinguishedName;
use crate::error::{PkiError, Result};
use ig_crypto::encode::pem_encode;
use ig_crypto::{RsaPrivateKey, RsaPublicKey};
use ig_obs::json::{from_slice, to_vec};

/// The signed body of a CSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrBody {
    /// Subject the requester wants (the CA may override it — the GCMU
    /// online CA always rewrites it to embed the authenticated username).
    pub subject: DistinguishedName,
    /// Requester's public key (ig-crypto encoding).
    pub public_key: Vec<u8>,
}

ig_obs::json_codec!(struct CsrBody { subject, public_key });

/// A certificate signing request, self-signed for proof of possession.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateSigningRequest {
    /// Request body.
    pub body: CsrBody,
    /// Signature over the body by the key in the body.
    pub signature: Vec<u8>,
}

ig_obs::json_codec!(struct CertificateSigningRequest { body, signature });

impl CertificateSigningRequest {
    /// Create a CSR for `subject` with the requester's key pair.
    pub fn create(subject: DistinguishedName, key: &RsaPrivateKey) -> Result<Self> {
        let body = CsrBody { subject, public_key: key.public().encode() };
        let signature = key.sign(&to_vec(&body))?;
        Ok(CertificateSigningRequest { body, signature })
    }

    /// Verify the proof-of-possession signature and return the public key.
    pub fn verify(&self) -> Result<RsaPublicKey> {
        let key = RsaPublicKey::decode(&self.body.public_key)?;
        key.verify(&to_vec(&self.body), &self.signature)
            .map_err(|_| PkiError::BadSignature("CSR proof-of-possession".into()))?;
        Ok(key)
    }

    /// PEM form (`CERTIFICATE REQUEST` label, as OpenSSL uses).
    pub fn to_pem(&self) -> String {
        pem_encode("CERTIFICATE REQUEST", &to_vec(self))
    }

    /// Parse from PEM.
    pub fn from_pem(pem: &str) -> Result<Self> {
        let body = ig_crypto::encode::pem_decode_one(pem, "CERTIFICATE REQUEST")
            .map_err(|e| PkiError::Decode(e.to_string()))?;
        from_slice(&body).map_err(|e| PkiError::Decode(format!("bad CSR: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_crypto::RsaKeyPair;

    #[test]
    fn create_verify_roundtrip() {
        let kp = RsaKeyPair::generate(&mut seeded(1), 512).unwrap();
        let subject = DistinguishedName::parse("/O=GCMU/CN=alice").unwrap();
        let csr = CertificateSigningRequest::create(subject.clone(), &kp.private).unwrap();
        let key = csr.verify().unwrap();
        assert_eq!(key, kp.public);
        assert_eq!(csr.body.subject, subject);
    }

    #[test]
    fn verify_rejects_key_substitution() {
        // Attacker swaps in their own public key but cannot re-sign.
        let kp = RsaKeyPair::generate(&mut seeded(2), 512).unwrap();
        let attacker = RsaKeyPair::generate(&mut seeded(3), 512).unwrap();
        let subject = DistinguishedName::parse("/CN=victim").unwrap();
        let mut csr = CertificateSigningRequest::create(subject, &kp.private).unwrap();
        csr.body.public_key = attacker.public.encode();
        assert!(csr.verify().is_err());
    }

    #[test]
    fn verify_rejects_subject_tamper() {
        let kp = RsaKeyPair::generate(&mut seeded(4), 512).unwrap();
        let mut csr = CertificateSigningRequest::create(
            DistinguishedName::parse("/CN=alice").unwrap(),
            &kp.private,
        )
        .unwrap();
        csr.body.subject = DistinguishedName::parse("/CN=root").unwrap();
        assert!(csr.verify().is_err());
    }

    #[test]
    fn pem_roundtrip() {
        let kp = RsaKeyPair::generate(&mut seeded(5), 512).unwrap();
        let csr = CertificateSigningRequest::create(
            DistinguishedName::parse("/CN=pem").unwrap(),
            &kp.private,
        )
        .unwrap();
        let pem = csr.to_pem();
        assert!(pem.contains("BEGIN CERTIFICATE REQUEST"));
        assert_eq!(CertificateSigningRequest::from_pem(&pem).unwrap(), csr);
    }
}
