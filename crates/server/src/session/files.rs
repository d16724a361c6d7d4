//! What the verbs that look at or change the store share; the short ones
//! are rows of `Session::step` itself.

use super::Authed;
use crate::config::ServerConfig;
use crate::dsi::Dsi;
use crate::error::{Result, ServerError};
use ig_protocol::Reply;

/// The 550 that carries the store's error.
pub(super) fn gone(e: ServerError) -> Reply {
    Reply::action_failed(&e.to_string())
}

impl Authed {
    pub(super) fn resolve_path(&self, path: &str) -> String {
        if path.starts_with('/') {
            path.to_string()
        } else if self.cwd == "/" {
            format!("/{path}")
        } else {
            format!("{}/{path}", self.cwd)
        }
    }

    pub(super) fn mlst(&self, config: &ServerConfig, path: Option<&str>) -> Reply {
        let p = self.resolve_path(path.unwrap_or("."));
        let fact = match config.dsi.size(&self.user, &p) {
            Ok(s) => format!(" type=file;size={s}; {p}"),
            Err(_) if config.dsi.list(&self.user, &p).is_ok() => format!(" type=dir;size=0; {p}"),
            Err(_) => return Reply::action_failed("No such path."),
        };
        Reply::multiline(250, vec!["Listing:".into(), fact, "End".into()])
    }

    /// SHA-256 over a byte range of a file, streamed in 256 KiB reads. A
    /// range that runs past the end of the file ends with it.
    pub(super) fn checksum(
        &self,
        dsi: &dyn Dsi,
        path: &str,
        offset: u64,
        length: Option<u64>,
    ) -> Result<String> {
        let (user, path) = (&self.user, self.resolve_path(path));
        let size = dsi.size(user, &path)?;
        let start = offset.min(size);
        let end = match length {
            Some(l) => start.saturating_add(l).min(size),
            None => size,
        };
        let mut hasher = ig_crypto::Sha256::new();
        let mut pos = start;
        while pos < end {
            let want = (256 * 1024).min((end - pos) as usize);
            let chunk = dsi.read(user, &path, pos, want)?;
            if chunk.is_empty() {
                break;
            }
            pos += chunk.len() as u64;
            hasher.update(&chunk);
        }
        Ok(ig_crypto::encode::hex_encode(&hasher.finalize()))
    }
}
