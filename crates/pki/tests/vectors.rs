//! Certificates and CSRs signed by the last build of this tree on the
//! registry codec (PR 16) must decode, verify and re-encode byte for byte
//! under the in-tree one — TBS and CSR bodies are re-encoded to check
//! their signatures — and hostile bodies must be `PkiError::Decode`.

#[path = "../../obs/tests/hostile/mod.rs"]
mod hostile;

use ig_crypto::encode::{pem_decode_all, pem_encode};
use ig_crypto::CryptoError;
use ig_pki::cert::Extension;
use ig_pki::{validate_chain, Certificate, CertificateSigningRequest, PkiError, TrustStore};

fn recorded_chain() -> Vec<Certificate> {
    pem_decode_all(hostile::CHAIN_PEM)
        .unwrap()
        .iter()
        .map(|block| Certificate::from_bytes(&block.data).unwrap())
        .collect()
}

#[test]
fn recorded_chain_reencodes_and_verifies() {
    let chain = recorded_chain();
    let pem: String = chain.iter().map(Certificate::to_pem).collect();
    assert_eq!(pem, hostile::CHAIN_PEM);
    let [proxy, user, root] = &chain[..] else { panic!("three certificates") };
    // Signatures made over the parent encoder's bytes.
    proxy.verify_signature(&user.public_key().unwrap()).unwrap();
    user.verify_signature(&root.public_key().unwrap()).unwrap();
    root.verify_signature(&root.public_key().unwrap()).unwrap();
    let mut trust = TrustStore::new();
    trust.add_root(root.clone());
    let id = validate_chain(&chain[..2], &trust, 2000).unwrap();
    assert_eq!(&id.identity, user.subject());
    // Integers above 2^53 and every string escape survived.
    assert_eq!(user.tbs.validity.not_after, 9_007_199_254_740_993);
    assert_eq!(proxy.proxy_info(), Some(Some(2)));
    assert!(user.tbs.extensions.contains(&Extension::Custom {
        oid: "1.2.3\\4".into(),
        value: "tab\there\nline \u{1} \u{1F600}".into(),
    }));
}

#[test]
fn recorded_csr_reencodes_and_verifies() {
    let csr = CertificateSigningRequest::from_pem(hostile::CSR_PEM).unwrap();
    assert_eq!(csr.to_pem(), hostile::CSR_PEM);
    csr.verify().unwrap();
}

#[test]
fn hostile_bodies_are_decode_errors() {
    for (why, body) in hostile::documents() {
        let cert = Certificate::from_pem(&pem_encode("CERTIFICATE", &body));
        assert!(matches!(cert, Err(PkiError::Decode(_))), "certificate, {why}: {cert:?}");
        let csr = CertificateSigningRequest::from_pem(&pem_encode("CERTIFICATE REQUEST", &body));
        assert!(matches!(csr, Err(PkiError::Decode(_))), "CSR, {why}: {csr:?}");
    }
    // A well-formed certificate with one field of the wrong type.
    let chain = pem_decode_all(hostile::CHAIN_PEM).unwrap();
    let text = String::from_utf8(chain[0].data.clone()).unwrap();
    for (from, to) in [("\"version\":3", "\"version\":\"3\""), ("\"serial\":", "\"serial\":-"),
        ("\"public_key\":\"", "\"public_key\":\"0"), ("\"ProxyCertInfo\"", "\"ProxyCertInfo2\"")]
    {
        assert!(text.contains(from));
        let cert = Certificate::from_bytes(text.replacen(from, to, 1).as_bytes());
        assert!(matches!(cert, Err(PkiError::Decode(_))), "{to}: {cert:?}");
    }
    // A root whose modulus is even. The key is opaque bytes to the body's
    // decoder, so the body decodes; asking for the key, or validating a
    // chain under that root, is a typed error and never reaches arithmetic.
    let [_, user, root] = &recorded_chain()[..] else { panic!("three certificates") };
    let mut even = root.clone();
    let n_len = u32::from_be_bytes(even.tbs.public_key[..4].try_into().unwrap()) as usize;
    even.tbs.public_key[4 + n_len - 1] &= 0xfe;
    let even = Certificate::from_pem(&even.to_pem()).unwrap();
    let invalid_key = |e: &PkiError| matches!(e, PkiError::Crypto(CryptoError::InvalidKey(_)));
    assert!(even.public_key().is_err_and(|e| invalid_key(&e)));
    let mut trust = TrustStore::new();
    trust.add_root(even);
    let verdict = validate_chain(std::slice::from_ref(user), &trust, 2000);
    assert!(verdict.as_ref().is_err_and(invalid_key), "{verdict:?}");
}
