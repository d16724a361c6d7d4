//! Client error taxonomy.

use ig_protocol::Reply;
use std::fmt;

/// Errors from client operations.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with an error reply.
    ServerError(Reply),
    /// The server answered something structurally unexpected.
    UnexpectedReply { expected: &'static str, got: Reply },
    /// Security failure (handshake, protection, delegation).
    Gsi(ig_gsi::GsiError),
    /// Protocol parse failure.
    Protocol(ig_protocol::ProtocolError),
    /// PKI failure.
    Pki(ig_pki::PkiError),
    /// Data-plane failure.
    Data(String),
    /// An idle/read deadline expired (partitioned or stalled peer).
    Timeout(String),
    /// Fewer bytes arrived than the transfer promised.
    Truncated(String),
    /// Data arrived but failed structural checks (bad framing, bad
    /// block).
    Corrupt(String),
    /// End-to-end verification (checksum) rejected the received bytes.
    Integrity(String),
    /// Transport failure.
    Io(std::io::Error),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::ServerError(r) => write!(f, "server error: {r}"),
            ClientError::UnexpectedReply { expected, got } => {
                write!(f, "expected {expected}, got: {got}")
            }
            ClientError::Gsi(e) => write!(f, "security: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Pki(e) => write!(f, "pki: {e}"),
            ClientError::Data(m) => write!(f, "data channel: {m}"),
            ClientError::Timeout(m) => write!(f, "timeout: {m}"),
            ClientError::Truncated(m) => write!(f, "truncated: {m}"),
            ClientError::Corrupt(m) => write!(f, "corrupt: {m}"),
            ClientError::Integrity(m) => write!(f, "integrity: {m}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Gsi(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Pki(e) => Some(e),
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl ClientError {
    /// The server reply that caused this error, if any.
    pub fn reply(&self) -> Option<&Reply> {
        match self {
            ClientError::ServerError(r) => Some(r),
            ClientError::UnexpectedReply { got, .. } => Some(got),
            _ => None,
        }
    }
}

impl From<ig_gsi::GsiError> for ClientError {
    fn from(e: ig_gsi::GsiError) -> Self {
        ClientError::Gsi(e)
    }
}

impl From<ig_protocol::ProtocolError> for ClientError {
    fn from(e: ig_protocol::ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<ig_pki::PkiError> for ClientError {
    fn from(e: ig_pki::PkiError) -> Self {
        ClientError::Pki(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ig_server::ServerError> for ClientError {
    fn from(e: ig_server::ServerError) -> Self {
        // Preserve the failure kind across the crate boundary so callers
        // (and the chaos matrix) can assert *which* failure happened.
        match e {
            ig_server::ServerError::Timeout(m) => ClientError::Timeout(m),
            ig_server::ServerError::Truncated(m) => ClientError::Truncated(m),
            ig_server::ServerError::Corrupt(m) => ClientError::Corrupt(m),
            ig_server::ServerError::Data(m) => ClientError::Data(m),
            other => ClientError::Data(other.to_string()),
        }
    }
}

/// Classify a transport error: read deadlines become [`ClientError::Timeout`],
/// everything else stays an I/O error.
pub(crate) fn io_to_client(e: std::io::Error, what: &str) -> ClientError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            ClientError::Timeout(format!("{what}: {e}"))
        }
        _ => ClientError::Io(e),
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_reply_accessor() {
        let e = ClientError::ServerError(Reply::new(550, "No such file."));
        assert!(e.to_string().contains("550"));
        assert_eq!(e.reply().unwrap().code, 550);
        let e = ClientError::Data("boom".into());
        assert!(e.reply().is_none());
    }
}
