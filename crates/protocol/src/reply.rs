//! FTP replies with RFC 959 single-line and multiline framing.

use crate::error::{ProtocolError, Result};
use std::fmt;

/// A server reply: a 3-digit code and one or more text lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Three-digit reply code.
    pub code: u16,
    /// Text lines (at least one).
    pub lines: Vec<String>,
}

impl Reply {
    /// Single-line reply.
    pub fn new(code: u16, text: impl Into<String>) -> Self {
        Reply { code, lines: vec![text.into()] }
    }

    /// Multiline reply.
    pub fn multiline(code: u16, lines: Vec<String>) -> Self {
        assert!(!lines.is_empty(), "reply needs at least one line");
        Reply { code, lines }
    }

    /// First text line.
    pub fn text(&self) -> &str {
        &self.lines[0]
    }

    /// 1xx — positive preliminary (e.g. `150 Opening data connection`).
    pub fn is_preliminary(&self) -> bool {
        (100..200).contains(&self.code)
    }

    /// 2xx — positive completion.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.code)
    }

    /// 3xx — positive intermediate (e.g. `331 Password required`, `335
    /// ADAT=...`).
    pub fn is_intermediate(&self) -> bool {
        (300..400).contains(&self.code)
    }

    /// 4xx — transient negative.
    pub fn is_transient_error(&self) -> bool {
        (400..500).contains(&self.code)
    }

    /// 5xx — permanent negative.
    pub fn is_permanent_error(&self) -> bool {
        (500..600).contains(&self.code)
    }

    /// Any error class (6yz protected-reply envelopes are not errors).
    pub fn is_error(&self) -> bool {
        (400..600).contains(&self.code)
    }

    /// Render with CRLF line endings, using the RFC 959 dash form for
    /// multiline replies.
    pub fn to_wire(&self) -> String {
        let mut out = String::new();
        if self.lines.len() == 1 {
            out.push_str(&format!("{} {}\r\n", self.code, self.lines[0]));
        } else {
            for (i, line) in self.lines.iter().enumerate() {
                if i + 1 == self.lines.len() {
                    out.push_str(&format!("{} {}\r\n", self.code, line));
                } else {
                    out.push_str(&format!("{}-{}\r\n", self.code, line));
                }
            }
        }
        out
    }

    /// Parse a full reply (possibly multiline) from wire text.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines_out = Vec::new();
        let mut code: Option<u16> = None;
        for raw in text.lines() {
            let line = raw.trim_end_matches('\r');
            if line.len() < 4 || !line.is_char_boundary(3) || !line.is_char_boundary(4) {
                return Err(ProtocolError::BadReply(format!("short reply line {line:?}")));
            }
            let this_code: u16 = line[..3]
                .parse()
                .map_err(|_| ProtocolError::BadReply(format!("bad code in {line:?}")))?;
            // 6yz are RFC 2228 protected-reply envelopes.
            if !(100..700).contains(&this_code) {
                return Err(ProtocolError::BadReply(format!("code {this_code} out of range")));
            }
            match code {
                None => code = Some(this_code),
                Some(c) if c == this_code => {}
                Some(c) => {
                    return Err(ProtocolError::BadReply(format!(
                        "mixed codes {c} and {this_code} in one reply"
                    )))
                }
            }
            let sep = line.as_bytes()[3];
            lines_out.push(line[4..].to_string());
            if sep == b' ' {
                return Ok(Reply { code: code.expect("set above"), lines: lines_out });
            }
            if sep != b'-' {
                return Err(ProtocolError::BadReply(format!(
                    "bad separator {:?} in {line:?}",
                    sep as char
                )));
            }
        }
        Err(ProtocolError::BadReply("unterminated multiline reply".into()))
    }

    // --- Common replies used across the stack ----------------------------

    /// `220 <banner>`
    pub fn service_ready(banner: &str) -> Self {
        Reply::new(220, banner)
    }

    /// `221 Goodbye`
    pub fn goodbye() -> Self {
        Reply::new(221, "Goodbye.")
    }

    /// `200 Command okay`
    pub fn ok(msg: &str) -> Self {
        Reply::new(200, msg)
    }

    /// `226 Transfer complete`
    pub fn transfer_complete() -> Self {
        Reply::new(226, "Transfer complete.")
    }

    /// `150 Opening data connection`
    pub fn opening_data() -> Self {
        Reply::new(150, "Opening data connection.")
    }

    /// `150 Opening data connection (<bytes> bytes).` — the opening reply
    /// of a transfer this end sends, announcing how many payload bytes it
    /// is about to put on the data channel, in the form stock servers use.
    pub fn sending_data(bytes: u64) -> Self {
        Reply::new(150, format!("Opening data connection ({bytes} bytes)."))
    }

    /// The figure of a `… (<n> bytes)` opening reply, ours or a stock
    /// server's. The last such group of the last line counts (an echoed
    /// file name before it may hold parentheses of its own); `None` when
    /// there is none, or `<n>` is anything but the digits of a `u64`.
    pub fn announced_bytes(&self) -> Option<u64> {
        let line = self.lines.last()?;
        let end = line.rfind(" bytes)")?;
        let digits = &line[line[..end].rfind('(')? + 1..end];
        // `u64::from_str` would let a leading `+` through.
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// `500 Syntax error`
    pub fn syntax_error(msg: &str) -> Self {
        Reply::new(500, msg)
    }

    /// `530 Not logged in`
    pub fn not_logged_in(msg: &str) -> Self {
        Reply::new(530, msg)
    }

    /// `550 Requested action not taken`
    pub fn action_failed(msg: &str) -> Self {
        Reply::new(550, msg)
    }

    /// `335 ADAT=<token>` — security handshake continuation.
    pub fn adat_continue(token_b64: &str) -> Self {
        Reply::new(335, format!("ADAT={token_b64}"))
    }

    /// `235 ADAT=<token>` — security handshake complete (with final token).
    pub fn adat_done(token_b64: Option<&str>) -> Self {
        match token_b64 {
            Some(t) => Reply::new(235, format!("ADAT={t}")),
            None => Reply::new(235, "Security data exchange complete."),
        }
    }

    /// Extract an `ADAT=<b64>` payload from a 235/335 reply.
    pub fn adat_payload(&self) -> Option<&str> {
        self.text().strip_prefix("ADAT=")
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.lines.join(" / "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert!(Reply::new(150, "x").is_preliminary());
        assert!(Reply::new(226, "x").is_success());
        assert!(Reply::new(331, "x").is_intermediate());
        assert!(Reply::new(426, "x").is_transient_error());
        assert!(Reply::new(550, "x").is_permanent_error());
        assert!(Reply::new(550, "x").is_error());
        assert!(!Reply::new(226, "x").is_error());
    }

    #[test]
    fn single_line_wire_roundtrip() {
        let r = Reply::new(220, "GridFTP Server ready.");
        assert_eq!(r.to_wire(), "220 GridFTP Server ready.\r\n");
        assert_eq!(Reply::parse(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn multiline_wire_roundtrip() {
        let r = Reply::multiline(
            211,
            vec!["Features:".into(), " PARALLEL".into(), " DCSC".into(), "End".into()],
        );
        let wire = r.to_wire();
        assert!(wire.starts_with("211-Features:\r\n"));
        assert!(wire.ends_with("211 End\r\n"));
        assert_eq!(Reply::parse(&wire).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Reply::parse("22").is_err());
        assert!(Reply::parse("abc hello\r\n").is_err());
        assert!(Reply::parse("099 too small\r\n").is_err());
        assert!(Reply::parse("700 too big\r\n").is_err());
        // RFC 2228 protected replies parse and are not errors.
        let enc = Reply::parse("633 c2VhbGVk\r\n").unwrap();
        assert_eq!(enc.code, 633);
        assert!(!enc.is_error());
        assert!(Reply::parse("211-open\r\n212 close\r\n").is_err()); // mixed codes
        assert!(Reply::parse("211-never ends\r\n").is_err());
        assert!(Reply::parse("211Xsep\r\n").is_err());
    }

    #[test]
    fn empty_text_line_ok() {
        let r = Reply::new(200, "");
        assert_eq!(Reply::parse(&r.to_wire()).unwrap(), r);
    }

    #[test]
    fn adat_helpers() {
        let r = Reply::adat_continue("dG9r");
        assert_eq!(r.code, 335);
        assert_eq!(r.adat_payload(), Some("dG9r"));
        let done = Reply::adat_done(Some("ZmluYWw="));
        assert_eq!(done.code, 235);
        assert_eq!(done.adat_payload(), Some("ZmluYWw="));
        assert_eq!(Reply::adat_done(None).adat_payload(), None);
    }

    #[test]
    fn announced_bytes_reads_the_last_figure_or_nothing() {
        assert_eq!(Reply::sending_data(4096).announced_bytes(), Some(4096));
        assert_eq!(Reply::sending_data(0).announced_bytes(), Some(0));
        assert_eq!(Reply::sending_data(u64::MAX).announced_bytes(), Some(u64::MAX));
        assert_eq!(Reply::opening_data().announced_bytes(), None);
        let stock = |text: &str| Reply::new(150, text).announced_bytes();
        assert_eq!(stock("Opening BINARY mode data connection for f (12 bytes)."), Some(12));
        // A file name with a group of its own: the server's figure is last.
        assert_eq!(stock("Opening connection for a(99 bytes).bin (7 bytes)"), Some(7));
        assert_eq!(stock("Opening connection (7 bytes) for (x)"), Some(7));
        for hostile in [
            "(-1 bytes)",
            "(+1 bytes)",
            "( bytes)",
            "(1 2 bytes)",
            "(18446744073709551616 bytes)",
            "(0x10 bytes)",
            "12 bytes)",
            "(12 bytes",
            "(12bytes)",
            "",
        ] {
            assert_eq!(stock(hostile), None, "{hostile:?}");
        }
        let multiline = Reply::multiline(150, vec!["(1 bytes)".into(), "go (2 bytes)".into()]);
        assert_eq!(multiline.announced_bytes(), Some(2));
    }

    #[test]
    fn common_constructors() {
        assert_eq!(Reply::transfer_complete().code, 226);
        assert_eq!(Reply::opening_data().code, 150);
        assert_eq!(Reply::syntax_error("x").code, 500);
        assert_eq!(Reply::not_logged_in("x").code, 530);
        assert_eq!(Reply::action_failed("x").code, 550);
        assert_eq!(Reply::goodbye().code, 221);
        assert_eq!(Reply::service_ready("hi").code, 220);
        assert_eq!(Reply::ok("fine").code, 200);
    }
}
