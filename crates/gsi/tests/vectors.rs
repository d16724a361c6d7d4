//! Handshake and delegation tokens recorded from the last build of this
//! tree on the registry codec (PR 16) must decode and re-encode byte for
//! byte, and hostile tokens must be `GsiError::Decode` at every entry point.

#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;

use ig_crypto::rng::seeded;
use ig_gsi::context::test_support::ca_and_credential;
use ig_gsi::delegation::{self, DelegationGrant, DelegationRequest};
use ig_gsi::messages::HandshakeMsg;
use ig_gsi::GsiError;
use ig_obs::json::{from_slice, to_vec};
use ig_pki::proxy::ProxyOptions;

#[test]
fn recorded_handshake_tokens_reencode_byte_for_byte() {
    let names = ["Hello", "ServerHello", "ClientAuth", "ClientAuth", "ServerFinished", "ClientFinished"];
    let tokens = hostile::TOKENS.iter().filter(|(name, _)| name.starts_with("hs"));
    for ((name, bytes), variant) in tokens.zip(names) {
        let msg = HandshakeMsg::decode(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(msg.name(), variant, "{name}");
        assert_eq!(msg.encode(), *bytes, "{name}");
        assert_eq!(HandshakeMsg::decode(&msg.encode()).unwrap(), msg, "{name}");
    }
    match HandshakeMsg::decode(hostile::token("hs3_client_auth_anon")).unwrap() {
        HandshakeMsg::ClientAuth { chain, signature, .. } => {
            assert!(chain.is_empty() && signature.is_none())
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn recorded_delegation_messages_reencode_and_still_verify() {
    let request = hostile::token("deleg_request");
    let parsed: DelegationRequest = from_slice(request).unwrap();
    assert_eq!(to_vec(&parsed), request);
    parsed.csr.verify().unwrap();
    let grant = hostile::token("deleg_grant");
    let parsed: DelegationGrant = from_slice(grant).unwrap();
    assert_eq!(to_vec(&parsed), grant);
    parsed.chain[0].verify_signature(&parsed.chain[1].public_key().unwrap()).unwrap();
    // The recorded request is grantable by a credential minted today.
    let mut rng = seeded(5);
    let (_, cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
    delegation::grant(&mut rng, &cred, request, 100, ProxyOptions::default()).unwrap();
}

#[test]
fn hostile_tokens_are_decode_errors() {
    let mut rng = seeded(6);
    let (_, cred) = ca_and_credential(&mut rng, "/O=CA", "/O=Grid/CN=alice");
    for (why, bytes) in hostile::documents() {
        let msg = HandshakeMsg::decode(&bytes);
        assert!(matches!(msg, Err(GsiError::Decode(_))), "handshake, {why}: {msg:?}");
        let granted = delegation::grant(&mut rng, &cred, &bytes, 0, ProxyOptions::default());
        assert!(matches!(granted, Err(GsiError::Decode(_))), "grant, {why}");
        let (_, pending) = delegation::offer(&mut rng, 512).unwrap();
        let done = delegation::complete(pending, &bytes);
        assert!(matches!(done, Err(GsiError::Decode(_))), "complete, {why}");
    }
}
