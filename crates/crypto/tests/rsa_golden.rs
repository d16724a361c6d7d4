//! Same seed, same key. Recorded at the arithmetic of PR 23 (division-based
//! `modpow`, private operations by the full-width `d`) and committed before
//! PR 24 changed it: a seed must keep yielding the key, the signature and
//! the ciphertext it yielded then, byte for byte, because recorded chains,
//! `igbench`'s fixed `SETUP_SEED` and E15's digest all hang off that.
//!
//! Two checks per seed and size. The frozen `reference` module runs beside
//! the live crate over the same generator, which holds under any `rand`;
//! and `GOLDEN` pins digests of what came out, which holds for the
//! generator it was recorded under (the offline stand-in, the one `igbench`
//! measures with) and is skipped, saying so, under any other stream.
//! Std-only and seeded, so the offline mirror runs it.

mod reference;

use ig_crypto::encode::hex_encode;
use ig_crypto::rng::seeded;
use ig_crypto::{RsaKeyPair, RsaPrivateKey, RsaPublicKey, Sha256};
use rand::Rng;

/// `0x1957_0A04` is `igbench`'s `SETUP_SEED`.
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 0x1957_0A04];
const BITS: [usize; 3] = [512, 768, 1024];
const MESSAGE: &[u8] = b"GridFTP control channel transcript";
const SECRET: &[u8] = b"pre-master-secret-32-bytes......";

/// First draw of `seeded(1)` under the generator `GOLDEN` was recorded with.
const RECORDED_STREAM: u64 = 0xcfc5_d07f_6f03_c29b;

/// seed bits fingerprint sha256(private.encode()) sha256(signature) sha256(ciphertext)
const GOLDEN: &str = "\
1 512 45cf196dfb817c78 ccffdfe720593944d90b5423539dba2fc2a664d7988f56e0a0c8285c32e02056 9755dfe5150543db785d02d207ab9dbda6f36f86aa4b90bb3f810eb9ae8828e7 f93b491c65550080ae75d70003da4c2e3850387463b4dc6866641587496ab7e6\n\
1 768 71d2a1ac365a4d17 955615cf1f252a0100ec42ed6a56370b6076264f9b3579e1becab182b5332fba e18b564f1b8fd1594faeac95e33ea33fd91aa6be9d4232413c996775e2d794a4 b90ba4e57b67a212d97b7db541b74ddaf5bb1582b1298e9fd0163fc73690b09b\n\
1 1024 6b8dc420a4031416 d3dbc946f83ce4afeb257dae77ddc3572cfa3cf172f32de5df688132b185e0a6 f774b4dcfabf3869c443359abedda7262546de5852e15214f412e1b5a27f3218 00060ef75b17564bae3c0b2442836caad821ba45e62904e3b62b0a8b889fa607\n\
2 512 9fb76fcc0bbc33d5 57a7a9a564805a19039a19176a5835ec63e205d33c38aa6a41a5c336fb7bd8e1 e92ce72cab5488734c25e7af78a09ac67ec284cce3419cb34b3b24ab74b32091 d9e116bc11695a9a5fff08b7cb2934c27919518dc506d4f55daaf385384d7c56\n\
2 768 f68e24d990dbfc44 f69ea038ecee8691e2c794e6cbbc1eb0e50fa087d8422980a7cfa65621c4628e c27d6cc8862c07be26010c97c90c6b0ecd3692c2da50dd7f1a347dfc22e90a30 90e3640ede2a8453c572667b2eda3b64176c00a325091f9853e18596bdfc9883\n\
2 1024 c3a9f31487d12fd4 fa260dea1a341f51fcff5a057b84d78d12dcef0aa1306078fb9bc7b4bc6d4c6f 06b7f725c962d0bfa142b8ec4307daec37a6eee749f5e775dabe999e8c0e6314 e0f4252b3a15545cd77af0f3112a00f09735cb6d2ed74d91128cfa99c6746bdb\n\
3 512 207a0529e39aab00 7778e285fa5fe97fda539ca38a50d1700046c765a9d1929a5a63d40c7a316282 511db1d6fc306058287e8f329fbf6fd1a1fba65158050b50b0f468997427e48c dd6e80b4835cb0c8f76a9b3a4d903c779c5d5ea7b248d0faceb8784c7d323759\n\
3 768 83daf0e32f442a23 2fffc7417a1b9cd8d2219e59ba93a4ce1fe6edf4260cd2294c55a3b579f532db d6e005a5000ab7b96c3aee7d7219596458a743bfbb3b9b53aa74707e93fbca2c f3ac82fae6bee1ec3fbbe442346f2fa420cb84627fb05b12bf0c9f5d67f3bfe2\n\
3 1024 087163d5820c8f71 ffc356ef31271dc00a91695af1d3b60dbf2f46472ca228b9830ad14af9aa1792 0f9517480d5a71806013c37d082fa315d0ca5d658c1b5eaa5bdbb9146d98092a 52a3e2bf682c45d144c1a55da412f9eeb0dfc8886ad4cfe4d784e80e51a00bd8\n\
4 512 c6d4ca6a43f5bd19 835f1c26401934cf9cfeda6c9aed2068d2f41ed2b6d96cbe0ea886a1d7fe7fb7 6e8ecd70ec15e35ac6eb4665f35aeba7b432d75a93dbd9b55b14f85b086dc67c d2f7305680c03c3d800e0580769f9d2c39e36f6c35abf02176e4bb58682cac89\n\
4 768 4968e924a036fec3 f9fc9446d2983631e3aea3f3f35522feb38919b77023de5b4d744b6dd37d836d 136f40bf1255af7e90bc21f0af34cbb3e5cf3f96a9df39d508c85037f1d8f484 1e5669974dd6a7a0370c6966e7336f823f5b2368b6999d6e79f206e8c01bc930\n\
4 1024 333bc93d2dc3e04f 8d6766fd9bf4619a3b40953c311a3a1eadc80ec728e5555397c0811e43658a43 7403a0c37f4a8d7a6151a5c6489ec4a90f56e3df2ab49a5246bcf5766d3e14a8 caa123e68c27f37f172c9c3dbe5040373932225049b051bd0a6aa084244b9494\n\
5 512 91eb8a9b25134c4d f78816999307fd28dc1d20fbf0b1226c8e140cd8fcd56ce83bdf7ee66b5721cd 095c207dac51e5cbc31913276840b45c74830983d388db2fb61f4dd25d80227c 4ec1fb59a167ba0b3af94494554a60251d76fe332cfacd4a247a11eb2df9d81b\n\
5 768 e3cad76dbf98e636 e3e15e243751c2c6bc404a977a3cd7121d0758fbd73192be6c11579fb639abc0 08725430225ba8d7bec21fbdfbd5c71abd6d9227ec4162c4a5577a5249a6bdbf 4226f24c72e7a7d823a297e2a76bce029a0b4854604981c8c836fe3d3a322c47\n\
5 1024 bb19e8e6c2ebd197 2c7b6f329b9a33101c0bd16770ed39ff6db95e8d91dbabf53a78850597d8fddc 31649e1aced0cfbbc9d937d3d90cacf1cf6597415bbdd47e7cb89b6e0d82ae21 810a97bc42228c2a7959ba935cabf8094d05fc0995f7d08bb704a1f449764694\n\
6 512 66eaec4dd564c316 fa7b91fb37ec132be39a2fb2d2258c4189c3fda68898a964cb6133bb86d512e0 bb15801dfc6a874b5176afa552202ae16c0e6985ce80b817254a2bce32bbfe2d 4ec123dc937bf59c0a3bec92bd569779edc31bdc47096861acb1abb9bb71c9cb\n\
6 768 bcda7d14f67c69fa bc4aaa0aebca19522e48989d9444eacffa6f534765d89b768233e2558c09c30e d02d45bd5ac7b23add272575f00a572e57ebcfcc4210b38a8d043ab01a94a66e e391b50f51df403c61c341d4c16feebe76b2193b184560500010fbf31562d6e8\n\
6 1024 ebe030f75924a81a c6dd19d9d10cf24c1cc4bee1418ce111586546883c0dd5c767b57e89f5a0e28d a9a0c9008045197578fbf6e14df2ef1da76a7349e9900fb02bea273073e02da2 4bbc76e2eaee640f4bca38084f6490dd55321b9ffa1bd5876c0a47dacce7f3d7\n\
7 512 039a775a15ed8087 97f474d792bc7cea0491e1242f56aaf90989e0de3913d6d5e9e8f4b9ad8787f2 906a956e28b95fbc7429d15fb5ced911c7eb8e48939a1fa74859cb5e7f7b06a3 6c3244b08eb9aae6316ddfb69205f12901edf09d88012baa30b73e4ecb896ee8\n\
7 768 db9f422a4a0aec26 adf100fe3a71d17ef3189f1ea912564c6ce70777ebc7077e24d77ead3dd615e8 bcc822005bd33f3285ab739609ab21a6a1b40e5cc516b7cabb33154f3bc55578 28e6c73f67144e04329bf4a9e10975dbc62c9cd5d3f915e0e1438187ecce482f\n\
7 1024 30c51c4bbd7797e0 0b4be3989d89216e774d891c02356b0376d8c3c6929c97e8ffce0c7059be192d 6f8bfb3accec5d2443b79572a6a6eacee45d926c3467a2c6fe97e9bd41b5e738 807225c2804869e83f77a3cbab96e03b308c950787c6c06ad8f03b8307dfdd14\n\
425134596 512 30eb63ef5c4b629f 261d5f061b0c359d4f8fcb6df0a5970ef7eb47b3719c57b69042273c99c2284b 8e1a295c1bef0bb99bbd93947446f45e25178a9616b1a925fe0fb281d40764d3 561b7d4007210d7443c8fe7f89ef2aa74a690541148b7e5b5fb5b2c2c83e4a96\n\
425134596 768 81416b21fd067721 bc1b668b194729bf11c8963e87f4eea5a3590cc9a25811d2ebde16cae31ee335 81285a633e3017fe5d32a276148d70b2f9a928eed6ab06922774f3ea8d175655 b6613899f84e420da3ef699de4094eb48f84c8bd2736fddc8355f5cc539f0266\n\
425134596 1024 2a42396395bc1b44 4a50577e523a4691706f93eaed2bf94ef2d252016dc0f7633dc3082ccc24ae8f bad4765aca4619e67d8abd422ded84e819ae492f6c553dfd4ea005b7ad90c1f3 2a41b3b994ebe80dfa1c0e3b13d522aaee06c4d95665cffda422be47ceca7ef8\n\
";

fn sha(data: &[u8]) -> String {
    hex_encode(&Sha256::digest(data))
}

#[test]
fn every_seed_yields_the_key_signature_and_plaintext_it_yielded_at_pr_23() {
    let mut table = String::new();
    for (seed, bits) in SEEDS.iter().flat_map(|&s| BITS.map(|b| (s, b))) {
        let kp = RsaKeyPair::generate(&mut seeded(seed), bits).unwrap();
        let sig = kp.private.sign(MESSAGE).unwrap();
        // The ciphertext's padding comes from a stream of its own.
        let ct = kp.public.encrypt(&mut seeded(seed ^ 0xC1F3), SECRET).unwrap();

        // The frozen arithmetic, over the same draws.
        let frozen = reference::generate(&mut seeded(seed), bits);
        assert_eq!(kp.private.encode(), frozen.encode(), "private key, seed {seed} bits {bits}");
        assert_eq!(kp.public.encode(), frozen.encode_public(), "public key, seed {seed} bits {bits}");
        assert_eq!(sig, frozen.sign(MESSAGE), "signature, seed {seed} bits {bits}");
        kp.public.verify(MESSAGE, &sig).unwrap();
        assert_eq!(kp.private.decrypt(&ct).unwrap(), SECRET, "seed {seed} bits {bits}");
        let block = frozen.decrypt_block(&ct);
        assert_eq!(&block[block.len() - SECRET.len()..], SECRET, "seed {seed} bits {bits}");

        // The encodings round-trip to the same bytes and the same answers.
        let private = RsaPrivateKey::decode(&kp.private.encode()).unwrap();
        assert_eq!(private.encode(), kp.private.encode());
        assert_eq!(private.sign(MESSAGE).unwrap(), sig);
        assert_eq!(private.decrypt(&ct).unwrap(), SECRET);
        let public = RsaPublicKey::decode(&kp.public.encode()).unwrap();
        assert_eq!(public.encode(), kp.public.encode());

        table.push_str(&format!(
            "{seed} {bits} {} {} {} {}\n",
            kp.public.fingerprint(),
            sha(&kp.private.encode()),
            sha(&sig),
            sha(&ct),
        ));
    }
    let stream: u64 = seeded(1).gen();
    if stream != RECORDED_STREAM {
        eprintln!(
            "rsa_golden: seeded(1) opens with {stream:#x}, GOLDEN was recorded under \
             {RECORDED_STREAM:#x}; its digests do not apply to this generator. The frozen \
             reference above is the check that ran."
        );
        return;
    }
    assert_eq!(table, GOLDEN, "recorded digests moved; this run's table:\n{table}");
}
