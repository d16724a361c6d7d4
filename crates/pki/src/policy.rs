//! CA signing policies.
//!
//! Globus ships `*.signing_policy` files restricting which subject DNs a
//! trust root may sign. §V-A of the paper depends on their semantics for
//! DCSC: "Servers do not require signing policy files for any CA
//! certificates in (3). If signing policies do exist ... the server will
//! still use and enforce them." [`SigningPolicy`] reproduces the
//! `cond_subjects` glob behaviour.

use crate::dn::DistinguishedName;

/// A signing policy: a set of DN glob patterns a CA is allowed to sign.
///
/// Patterns use `*` as "any suffix" when trailing (the dominant usage in
/// real signing-policy files, e.g. `/O=Grid/OU=site/*`) and also match
/// embedded `*` segments literally-per-component.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SigningPolicy {
    patterns: Vec<String>,
}

impl SigningPolicy {
    /// A policy allowing any subject (the default when no signing-policy
    /// file exists for a CA).
    pub fn allow_all() -> Self {
        SigningPolicy { patterns: vec!["*".to_string()] }
    }

    /// A policy with explicit patterns.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(patterns: I) -> Self {
        SigningPolicy { patterns: patterns.into_iter().map(Into::into).collect() }
    }

    /// Parse the classic signing-policy file format:
    ///
    /// ```text
    /// access_id_CA  X509  '/O=Example CA'
    /// pos_rights    globus CA:sign
    /// cond_subjects globus '"/O=Example/*" "/O=Other/CN=x"'
    /// ```
    ///
    /// Only `cond_subjects` lines contribute patterns; comments (`#`) and
    /// unknown lines are ignored, matching the real parser's tolerance.
    pub fn parse_file(text: &str) -> Self {
        let mut patterns = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("cond_subjects") {
                // Syntax: cond_subjects globus '"/O=A/*" "/O=B/CN=x"'.
                // Strip the outer single quotes if present, then take each
                // double-quoted item; a bare unquoted word is one pattern.
                if !rest.contains('\'') && !rest.contains('"') {
                    // Fully unquoted: `cond_subjects globus /O=X/*`.
                    patterns.extend(rest.split_whitespace().skip(1).map(String::from));
                    continue;
                }
                let rest = rest.trim_start_matches(|c: char| c != '\'' && c != '"');
                let inner = rest
                    .strip_prefix('\'')
                    .and_then(|r| r.strip_suffix('\''))
                    .unwrap_or(rest);
                if inner.contains('"') {
                    let mut in_quote = false;
                    let mut cur = String::new();
                    for c in inner.chars() {
                        match (in_quote, c) {
                            (false, '"') => in_quote = true,
                            (true, '"') => {
                                patterns.push(std::mem::take(&mut cur));
                                in_quote = false;
                            }
                            (true, c) => cur.push(c),
                            (false, _) => {}
                        }
                    }
                } else {
                    patterns.extend(inner.split_whitespace().map(String::from));
                }
            }
        }
        SigningPolicy { patterns }
    }

    /// Render as a signing-policy file body.
    pub fn to_file(&self, ca_name: &str) -> String {
        let quoted: Vec<String> = self.patterns.iter().map(|p| format!("\"{p}\"")).collect();
        format!(
            "access_id_CA  X509  '{ca_name}'\npos_rights    globus CA:sign\ncond_subjects globus '{}'\n",
            quoted.join(" ")
        )
    }

    /// Does this policy permit the CA to have signed `subject`?
    pub fn permits(&self, subject: &DistinguishedName) -> bool {
        let s = subject.to_string();
        self.patterns.iter().any(|p| glob_match(p, &s))
    }

    /// The raw patterns.
    pub fn patterns(&self) -> &[String] {
        &self.patterns
    }
}

/// Minimal glob: `*` matches any (possibly empty) run of characters.
fn glob_match(pattern: &str, text: &str) -> bool {
    // Dynamic-programming match over bytes; patterns are short.
    let p: Vec<u8> = pattern.bytes().collect();
    let t: Vec<u8> = text.bytes().collect();
    let mut dp = vec![vec![false; t.len() + 1]; p.len() + 1];
    dp[0][0] = true;
    for i in 1..=p.len() {
        if p[i - 1] == b'*' {
            dp[i][0] = dp[i - 1][0];
        }
    }
    for i in 1..=p.len() {
        for j in 1..=t.len() {
            dp[i][j] = if p[i - 1] == b'*' {
                dp[i - 1][j] || dp[i][j - 1]
            } else {
                dp[i - 1][j - 1] && p[i - 1] == t[j - 1]
            };
        }
    }
    dp[p.len()][t.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    #[test]
    fn allow_all_permits_everything() {
        let p = SigningPolicy::allow_all();
        assert!(p.permits(&dn("/O=Anything/CN=x")));
        assert!(p.permits(&dn("/CN=")));
    }

    #[test]
    fn prefix_glob() {
        let p = SigningPolicy::new(["/O=Grid/OU=Argonne/*"]);
        assert!(p.permits(&dn("/O=Grid/OU=Argonne/CN=alice")));
        assert!(p.permits(&dn("/O=Grid/OU=Argonne/CN=alice/CN=proxy")));
        assert!(!p.permits(&dn("/O=Grid/OU=Oak Ridge/CN=bob")));
        assert!(!p.permits(&dn("/O=Other/CN=x")));
    }

    #[test]
    fn exact_pattern() {
        let p = SigningPolicy::new(["/O=Site/CN=host1"]);
        assert!(p.permits(&dn("/O=Site/CN=host1")));
        assert!(!p.permits(&dn("/O=Site/CN=host12")));
    }

    #[test]
    fn multiple_patterns() {
        let p = SigningPolicy::new(["/O=A/*", "/O=B/CN=only"]);
        assert!(p.permits(&dn("/O=A/CN=any")));
        assert!(p.permits(&dn("/O=B/CN=only")));
        assert!(!p.permits(&dn("/O=B/CN=other")));
    }

    #[test]
    fn empty_policy_denies() {
        let p = SigningPolicy::default();
        assert!(!p.permits(&dn("/CN=x")));
    }

    #[test]
    fn file_roundtrip() {
        let p = SigningPolicy::new(["/O=Example/*", "/O=Other/CN=x"]);
        let file = p.to_file("/O=Example CA");
        let parsed = SigningPolicy::parse_file(&file);
        assert_eq!(parsed, p);
    }

    #[test]
    fn parse_ignores_comments_and_junk() {
        let text = "# comment\naccess_id_CA X509 '/O=CA'\nsomething unknown\ncond_subjects globus '\"/O=X/*\"'\n";
        let p = SigningPolicy::parse_file(text);
        assert_eq!(p.patterns(), &["/O=X/*".to_string()]);
    }

    #[test]
    fn glob_edge_cases() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*b", "ab"));
        assert!(glob_match("a*b", "aXXb"));
        assert!(!glob_match("a*b", "aXXc"));
        assert!(glob_match("*x*", "box"));
        assert!(!glob_match("", "x"));
        assert!(glob_match("", ""));
    }
}
