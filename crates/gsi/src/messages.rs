//! Handshake wire messages.
//!
//! Tokens are JSON — transparent, deterministic, and (crucially for the
//! control channel) they base64 cleanly into `ADAT` arguments. Binary
//! fields ride as hex strings.

use crate::error::{GsiError, Result};
use ig_obs::json::{from_slice, to_vec};
use ig_pki::Certificate;

/// One handshake token.
#[derive(Debug, Clone, PartialEq)]
pub enum HandshakeMsg {
    /// Token 1, initiator → acceptor.
    Hello {
        /// 32 bytes of initiator randomness.
        random: Vec<u8>,
        /// Whether the initiator intends to authenticate itself.
        mutual: bool,
    },
    /// Token 2, acceptor → initiator.
    ServerHello {
        /// 32 bytes of acceptor randomness.
        random: Vec<u8>,
        /// Acceptor's certificate chain, leaf first.
        chain: Vec<Certificate>,
    },
    /// Token 3, initiator → acceptor.
    ClientAuth {
        /// Initiator's chain (empty when anonymous).
        chain: Vec<Certificate>,
        /// Pre-master secret encrypted under the acceptor leaf key.
        encrypted_premaster: Vec<u8>,
        /// Proof of possession: signature over the bound transcript
        /// (absent when anonymous).
        signature: Option<Vec<u8>>,
    },
    /// Token 4, acceptor → initiator.
    ServerFinished {
        /// HMAC over the transcript with the s2c MAC key.
        mac: Vec<u8>,
    },
    /// Token 5, initiator → acceptor.
    ClientFinished {
        /// HMAC over the transcript with the c2s MAC key.
        mac: Vec<u8>,
    },
}

ig_obs::json_codec!(enum HandshakeMsg {
    Hello { random, mutual },
    ServerHello { random, chain },
    ClientAuth { chain, encrypted_premaster, signature },
    ServerFinished { mac },
    ClientFinished { mac },
});

impl HandshakeMsg {
    /// Short name for error messages.
    pub fn name(&self) -> &'static str {
        match self {
            HandshakeMsg::Hello { .. } => "Hello",
            HandshakeMsg::ServerHello { .. } => "ServerHello",
            HandshakeMsg::ClientAuth { .. } => "ClientAuth",
            HandshakeMsg::ServerFinished { .. } => "ServerFinished",
            HandshakeMsg::ClientFinished { .. } => "ClientFinished",
        }
    }

    /// Serialize to token bytes.
    pub fn encode(&self) -> Vec<u8> {
        to_vec(self)
    }

    /// Parse token bytes.
    pub fn decode(token: &[u8]) -> Result<Self> {
        from_slice(token).map_err(|e| GsiError::Decode(format!("bad handshake token: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_hello() {
        let m = HandshakeMsg::Hello { random: vec![1, 2, 3], mutual: true };
        let back = HandshakeMsg::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.name(), "Hello");
    }

    #[test]
    fn roundtrip_client_auth_with_and_without_signature() {
        for sig in [None, Some(vec![9u8; 64])] {
            let m = HandshakeMsg::ClientAuth {
                chain: vec![],
                encrypted_premaster: vec![5; 64],
                signature: sig.clone(),
            };
            let back = HandshakeMsg::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(HandshakeMsg::decode(b"not json").is_err());
        assert!(HandshakeMsg::decode(b"{\"Unknown\":{}}").is_err());
    }

    #[test]
    fn tokens_are_ascii_safe_json() {
        let m = HandshakeMsg::ServerFinished { mac: (0..=255u8).map(|b| b ^ 3).take(32).collect() };
        let tok = m.encode();
        assert!(tok.iter().all(|&b| (0x20..0x7f).contains(&b)));
    }
}
