//! The logon wire protocol: JSON over a `Private`-sealed GSI channel.
//!
//! The channel is server-authenticated only — the client typically has no
//! certificate yet (that is the whole point); it authenticates with the
//! username/password inside the sealed request.

use crate::error::{MyProxyError, Result};
use ig_pki::{Certificate, CertificateSigningRequest};
use ig_obs::json::{from_slice, to_vec, Json};

/// Client → server.
#[derive(Debug)]
pub struct LogonRequest {
    /// Site username.
    pub username: String,
    /// Site password (or OTP token).
    pub password: String,
    /// Requested credential lifetime in seconds.
    pub lifetime: u64,
    /// CSR for the locally generated key (§IV-A).
    pub csr: CertificateSigningRequest,
}

ig_obs::json_codec!(struct LogonRequest { username, password, lifetime, csr });

/// Server → client.
#[derive(Debug)]
pub enum LogonResponse {
    /// Credential issued.
    Ok {
        /// The short-lived certificate.
        certificate: Certificate,
        /// Trust roots (the CA's root cert) so the client needs no
        /// manual trusted-certificates setup.
        trust_roots: Vec<Certificate>,
        /// Signing-policy file body for the root.
        signing_policy: String,
    },
    /// Refused (bad password, bad CSR...).
    Err {
        /// Human-readable reason.
        message: String,
    },
}

ig_obs::json_codec!(enum LogonResponse {
    Ok { certificate, trust_roots, signing_policy },
    Err { message },
});

/// Encode a protocol message.
pub fn encode<T: Json>(msg: &T) -> Vec<u8> {
    to_vec(msg)
}

/// Decode a protocol message.
pub fn decode<T: Json>(data: &[u8]) -> Result<T> {
    from_slice(data).map_err(|e| MyProxyError::Decode(format!("bad message: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ig_crypto::rng::seeded;
    use ig_pki::DistinguishedName;

    #[test]
    fn request_roundtrip() {
        let kp = ig_crypto::RsaKeyPair::generate(&mut seeded(1), 512).unwrap();
        let csr = CertificateSigningRequest::create(
            DistinguishedName::from_pairs([("CN", "x")]),
            &kp.private,
        )
        .unwrap();
        let req = LogonRequest {
            username: "alice".into(),
            password: "pw".into(),
            lifetime: 3600,
            csr,
        };
        let back: LogonRequest = decode(&encode(&req)).unwrap();
        assert_eq!(back.username, "alice");
        assert_eq!(back.lifetime, 3600);
        back.csr.verify().unwrap();
    }

    #[test]
    fn error_response_roundtrip() {
        let resp = LogonResponse::Err { message: "nope".into() };
        let back: LogonResponse = decode(&encode(&resp)).unwrap();
        match back {
            LogonResponse::Err { message } => assert_eq!(message, "nope"),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode::<LogonRequest>(b"junk").is_err());
    }
}
