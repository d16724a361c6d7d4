//! Hostile JSON documents and the token vectors recorded from the last
//! build of this tree on the registry codec (PR 16). Shared, via `#[path]`, by the
//! decoder tests of every crate whose tokens travel through
//! `ig_obs::json`: each must answer these with its own typed `Decode`
//! error and reproduce the vectors byte for byte. Std-only.
#![allow(dead_code)]

/// Recorded JSON tokens, `(name, bytes)`.
pub const TOKENS: &[(&str, &[u8])] = &[
    ("hs1_hello", include_bytes!("../vectors/hs1_hello.json")),
    ("hs2_server_hello", include_bytes!("../vectors/hs2_server_hello.json")),
    ("hs3_client_auth", include_bytes!("../vectors/hs3_client_auth.json")),
    ("hs3_client_auth_anon", include_bytes!("../vectors/hs3_client_auth_anon.json")),
    ("hs4_server_finished", include_bytes!("../vectors/hs4_server_finished.json")),
    ("hs5_client_finished", include_bytes!("../vectors/hs5_client_finished.json")),
    ("deleg_request", include_bytes!("../vectors/deleg_request.json")),
    ("deleg_grant", include_bytes!("../vectors/deleg_grant.json")),
    ("logon_request", include_bytes!("../vectors/logon_request.json")),
    ("logon_ok", include_bytes!("../vectors/logon_ok.json")),
    ("logon_err", include_bytes!("../vectors/logon_err.json")),
];

/// Proxy, end-entity (serial and `not_after` above 2^53, every extension
/// variant, escapes and non-ASCII in strings) and root, leaf first.
pub const CHAIN_PEM: &str = include_str!("../vectors/chain.pem");
/// A CSR for the end-entity key.
pub const CSR_PEM: &str = include_str!("../vectors/csr.pem");

/// The recorded token called `name`.
pub fn token(name: &str) -> &'static [u8] {
    TOKENS.iter().find(|(n, _)| *n == name).expect("a recorded token").1
}

/// `unit` repeated up to `len` bytes.
pub fn repeated(unit: &str, len: usize) -> Vec<u8> {
    unit.bytes().cycle().take(len).collect()
}

/// Documents no decoder may accept, `(why, bytes)`: the first two abort
/// a parser that recurses without a cap, the rest are malformed or the
/// wrong shape for every token type in the tree.
pub fn documents() -> Vec<(&'static str, Vec<u8>)> {
    let hello = token("hs2_server_hello");
    vec![
        ("1 MiB of [", repeated("[", 1 << 20)),
        ("1 MiB of {\"a\":", repeated("{\"a\":", 1 << 20)),
        ("empty", Vec::new()),
        ("truncated token", hello[..hello.len() / 2].to_vec()),
        ("trailing bytes", [hello, b"{}"].concat()),
        ("not utf-8", b"{\"Hello\":{\"random\":\"\xff\xfe\",\"mutual\":true}}".to_vec()),
        ("lone high surrogate", b"{\"Err\":{\"message\":\"\\ud83d\"}}".to_vec()),
        ("lone low surrogate", b"{\"Err\":{\"message\":\"\\ude00\"}}".to_vec()),
        ("bad \\u escape", b"{\"Err\":{\"message\":\"\\u12g4\"}}".to_vec()),
        ("unknown escape", b"{\"Err\":{\"message\":\"\\q\"}}".to_vec()),
        ("raw control character", b"{\"Err\":{\"message\":\"a\nb\"}}".to_vec()),
        ("unknown variant", b"{\"Nope\":{}}".to_vec()),
        ("two variants", b"{\"Hello\":{},\"Err\":{}}".to_vec()),
        ("a scalar", b"7".to_vec()),
        ("an array", b"[]".to_vec()),
        ("an empty object", b"{}".to_vec()),
        ("odd hex", b"{\"Hello\":{\"random\":\"abc\",\"mutual\":true}}".to_vec()),
        ("non-hex digits", b"{\"ServerFinished\":{\"mac\":\"zz\"}}".to_vec()),
        ("wrong field type", b"{\"Hello\":{\"random\":\"00\",\"mutual\":1}}".to_vec()),
        ("number out of range", b"{\"Hello\":{\"random\":\"00\",\"mutual\":1e999}}".to_vec()),
    ]
}
