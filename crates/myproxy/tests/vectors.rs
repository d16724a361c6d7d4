//! Logon messages recorded from the last build of this tree on the
//! registry codec (PR 16) must decode and re-encode byte for byte;
//! hostile ones must be `MyProxyError::Decode`.

#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;

use ig_myproxy::protocol::{decode, encode, LogonRequest, LogonResponse};
use ig_myproxy::MyProxyError;

#[test]
fn recorded_logon_messages_reencode_byte_for_byte() {
    let request: LogonRequest = decode(hostile::token("logon_request")).unwrap();
    assert_eq!(encode(&request), hostile::token("logon_request"));
    assert_eq!((request.username.as_str(), request.password.as_str()), ("alice", "p\"w\\"));
    assert_eq!(request.lifetime, 43200);
    request.csr.verify().unwrap();
    for name in ["logon_ok", "logon_err"] {
        let response: LogonResponse = decode(hostile::token(name)).unwrap();
        assert_eq!(encode(&response), hostile::token(name), "{name}");
        match (name, response) {
            ("logon_ok", LogonResponse::Ok { certificate, trust_roots, signing_policy }) => {
                certificate.verify_signature(&trust_roots[0].public_key().unwrap()).unwrap();
                assert!(signing_policy.ends_with("'\"/O=Grid/*\"'\n"));
            }
            ("logon_err", LogonResponse::Err { message }) => {
                assert_eq!(message, "authentication failed")
            }
            (_, other) => panic!("{name}: {other:?}"),
        }
    }
}

#[test]
fn hostile_messages_are_decode_errors() {
    for (why, bytes) in hostile::documents() {
        let request = decode::<LogonRequest>(&bytes);
        assert!(matches!(request, Err(MyProxyError::Decode(_))), "request, {why}: {request:?}");
        let response = decode::<LogonResponse>(&bytes);
        assert!(matches!(response, Err(MyProxyError::Decode(_))), "response, {why}: {response:?}");
    }
}
