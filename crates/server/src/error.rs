//! Server error taxonomy.

use std::fmt;

/// Errors raised inside the server stack. Most become FTP error replies
/// at the session boundary rather than tearing the session down.
#[derive(Debug)]
pub enum ServerError {
    /// Storage-layer failure (missing file, permissions...).
    Storage(String),
    /// Access denied by the user context or authorization callout.
    AccessDenied(String),
    /// Authentication failed.
    AuthFailed(String),
    /// Authorization (identity → local user) failed.
    AuthzFailed(String),
    /// Data-channel establishment or transfer failure.
    Data(String),
    /// An idle/read deadline expired (partitioned or stalled peer).
    Timeout(String),
    /// The transfer ended before all expected data arrived.
    Truncated(String),
    /// Data arrived but failed structural or integrity checks.
    Corrupt(String),
    /// Protocol violation by the peer.
    Protocol(ig_protocol::ProtocolError),
    /// Security-layer failure.
    Gsi(ig_gsi::GsiError),
    /// PKI failure.
    Pki(ig_pki::PkiError),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The OS refused to spawn a worker thread (resource exhaustion).
    /// Previously these sites panicked or silently discarded the
    /// failure; now they surface here and in the
    /// `server.spawn_failures` counter.
    Spawn(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Storage(m) => write!(f, "storage: {m}"),
            ServerError::AccessDenied(m) => write!(f, "access denied: {m}"),
            ServerError::AuthFailed(m) => write!(f, "authentication failed: {m}"),
            ServerError::AuthzFailed(m) => write!(f, "authorization failed: {m}"),
            ServerError::Data(m) => write!(f, "data channel: {m}"),
            ServerError::Timeout(m) => write!(f, "timeout: {m}"),
            ServerError::Truncated(m) => write!(f, "truncated: {m}"),
            ServerError::Corrupt(m) => write!(f, "corrupt: {m}"),
            ServerError::Protocol(e) => write!(f, "protocol: {e}"),
            ServerError::Gsi(e) => write!(f, "security: {e}"),
            ServerError::Pki(e) => write!(f, "pki: {e}"),
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Spawn(m) => write!(f, "thread spawn: {m}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Protocol(e) => Some(e),
            ServerError::Gsi(e) => Some(e),
            ServerError::Pki(e) => Some(e),
            ServerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ig_protocol::ProtocolError> for ServerError {
    fn from(e: ig_protocol::ProtocolError) -> Self {
        ServerError::Protocol(e)
    }
}

impl From<ig_gsi::GsiError> for ServerError {
    fn from(e: ig_gsi::GsiError) -> Self {
        ServerError::Gsi(e)
    }
}

impl From<ig_pki::PkiError> for ServerError {
    fn from(e: ig_pki::PkiError) -> Self {
        ServerError::Pki(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, ServerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        use std::error::Error;
        assert!(ServerError::Storage("no file".into()).to_string().contains("no file"));
        let e = ServerError::from(ig_pki::PkiError::UntrustedIssuer("x".into()));
        assert!(e.source().is_some());
        let e = ServerError::from(std::io::Error::new(std::io::ErrorKind::Other, "boom"));
        assert!(e.to_string().contains("boom"));
    }
}
