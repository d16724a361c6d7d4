//! Distinguished names in the OpenSSL one-line format GridFTP admins know:
//! `/O=Grid/OU=Argonne/CN=John Doe`.
//!
//! GCMU's whole trick (§IV-C) is that the MyProxy Online CA "embeds the
//! local username in the distinguished name", and the authorization
//! callout later parses it back out — so DN handling must be exact and
//! round-trippable, including escaping of `/` inside values.

use crate::error::{PkiError, Result};
use std::fmt;

/// One relative distinguished name component, e.g. `CN=alice`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rdn {
    /// Attribute type: `C`, `O`, `OU`, `CN`, ...
    pub attr: String,
    /// Attribute value.
    pub value: String,
}

ig_obs::json_codec!(struct Rdn { attr, value });

/// An ordered distinguished name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct DistinguishedName {
    rdns: Vec<Rdn>,
}

ig_obs::json_codec!(struct DistinguishedName { rdns });

impl DistinguishedName {
    /// Empty DN (used transiently while building).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(attr, value)` pairs.
    pub fn from_pairs<I, A, V>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<String>,
        V: Into<String>,
    {
        DistinguishedName {
            rdns: pairs
                .into_iter()
                .map(|(a, v)| Rdn { attr: a.into(), value: v.into() })
                .collect(),
        }
    }

    /// Parse `/O=Grid/OU=site/CN=user`. A `\/` escapes a slash inside a
    /// value; `\\` escapes a backslash.
    pub fn parse(s: &str) -> Result<Self> {
        if !s.starts_with('/') {
            return Err(PkiError::Decode(format!("DN must start with '/': {s:?}")));
        }
        let mut rdns = Vec::new();
        let mut chars = s.chars().peekable();
        chars.next(); // consume leading '/'
        let mut component = String::new();
        let mut components = Vec::new();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some(esc @ ('/' | '\\')) => component.push(esc),
                    Some(other) => {
                        return Err(PkiError::Decode(format!("bad escape \\{other} in DN")))
                    }
                    None => return Err(PkiError::Decode("trailing backslash in DN".into())),
                },
                '/' => {
                    components.push(std::mem::take(&mut component));
                }
                c => component.push(c),
            }
        }
        components.push(component);
        for comp in components {
            let (attr, value) = comp
                .split_once('=')
                .ok_or_else(|| PkiError::Decode(format!("DN component {comp:?} missing '='")))?;
            if attr.is_empty() {
                return Err(PkiError::Decode(format!("empty attribute in DN component {comp:?}")));
            }
            rdns.push(Rdn { attr: attr.to_string(), value: value.to_string() });
        }
        if rdns.is_empty() {
            return Err(PkiError::Decode("empty DN".into()));
        }
        Ok(DistinguishedName { rdns })
    }

    /// Append a component, returning a new DN (proxy certificates extend
    /// their issuer's subject this way, per RFC 3820).
    pub fn with(&self, attr: &str, value: &str) -> Self {
        let mut rdns = self.rdns.clone();
        rdns.push(Rdn { attr: attr.into(), value: value.into() });
        DistinguishedName { rdns }
    }

    /// Components in order.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.rdns.len()
    }

    /// True when the DN has no components (only possible via `new`).
    pub fn is_empty(&self) -> bool {
        self.rdns.is_empty()
    }

    /// Last `CN` value — GCMU's authorization callout "picks up the local
    /// user id from the certificate subject" through this accessor.
    pub fn common_name(&self) -> Option<&str> {
        self.rdns
            .iter()
            .rev()
            .find(|r| r.attr == "CN")
            .map(|r| r.value.as_str())
    }

    /// First value for an attribute.
    pub fn get(&self, attr: &str) -> Option<&str> {
        self.rdns.iter().find(|r| r.attr == attr).map(|r| r.value.as_str())
    }

    /// True if `self` extends `base` by exactly `extra` components — the
    /// RFC 3820 proxy naming rule (`issuer DN + /CN=proxy`).
    pub fn extends(&self, base: &DistinguishedName, extra: usize) -> bool {
        self.rdns.len() == base.rdns.len() + extra && self.rdns.starts_with(&base.rdns)
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rdn in &self.rdns {
            let escaped: String = rdn
                .value
                .chars()
                .flat_map(|c| match c {
                    '/' => vec!['\\', '/'],
                    '\\' => vec!['\\', '\\'],
                    c => vec![c],
                })
                .collect();
            write!(f, "/{}={}", rdn.attr, escaped)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let dn = DistinguishedName::parse("/O=Grid/OU=Argonne/CN=John Doe").unwrap();
        assert_eq!(dn.len(), 3);
        assert_eq!(dn.get("O"), Some("Grid"));
        assert_eq!(dn.common_name(), Some("John Doe"));
        assert_eq!(dn.to_string(), "/O=Grid/OU=Argonne/CN=John Doe");
    }

    #[test]
    fn escaped_slash_in_value() {
        let dn = DistinguishedName::from_pairs([("CN", "a/b")]);
        let s = dn.to_string();
        assert_eq!(s, "/CN=a\\/b");
        assert_eq!(DistinguishedName::parse(&s).unwrap(), dn);
        let dn2 = DistinguishedName::from_pairs([("CN", "a\\b")]);
        assert_eq!(DistinguishedName::parse(&dn2.to_string()).unwrap(), dn2);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(DistinguishedName::parse("O=Grid").is_err()); // no leading /
        assert!(DistinguishedName::parse("/OGrid").is_err()); // no '='
        assert!(DistinguishedName::parse("/=v").is_err()); // empty attr
        assert!(DistinguishedName::parse("/CN=x\\").is_err()); // trailing escape
        assert!(DistinguishedName::parse("/CN=x\\n").is_err()); // bad escape
    }

    #[test]
    fn empty_value_is_allowed() {
        // OpenSSL allows empty values; keep that behaviour.
        let dn = DistinguishedName::parse("/CN=").unwrap();
        assert_eq!(dn.common_name(), Some(""));
    }

    #[test]
    fn common_name_takes_last_cn() {
        // A proxy DN has two CNs; the *user* CN is the first, the proxy
        // marker is the last. common_name returns the last — callers that
        // want the base identity strip proxy components first.
        let dn = DistinguishedName::parse("/O=GCMU/CN=alice/CN=proxy").unwrap();
        assert_eq!(dn.common_name(), Some("proxy"));
    }

    #[test]
    fn with_and_extends() {
        let base = DistinguishedName::parse("/O=GCMU/CN=alice").unwrap();
        let proxy = base.with("CN", "proxy");
        assert!(proxy.extends(&base, 1));
        assert!(!proxy.extends(&base, 2));
        assert!(!base.extends(&proxy, 1));
        let unrelated = DistinguishedName::parse("/O=GCMU/CN=bob/CN=proxy").unwrap();
        assert!(!unrelated.extends(&base, 1));
    }

    #[test]
    fn username_with_special_chars_survives() {
        // The GCMU DN embedding must round-trip any local username.
        for user in ["alice", "j.doe", "user-01", "weird/name", "back\\slash"] {
            let dn = DistinguishedName::from_pairs([("O", "GCMU"), ("CN", user)]);
            let parsed = DistinguishedName::parse(&dn.to_string()).unwrap();
            assert_eq!(parsed.common_name(), Some(user));
        }
    }

    #[test]
    fn ordering_is_stable_for_map_keys() {
        let a = DistinguishedName::parse("/CN=a").unwrap();
        let b = DistinguishedName::parse("/CN=b").unwrap();
        assert!(a < b);
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(a.clone(), 1);
        assert_eq!(m.get(&a), Some(&1));
    }
}
