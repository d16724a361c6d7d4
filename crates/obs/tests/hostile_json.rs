//! The hostile-input battery for the one JSON parser: inputs a peer
//! chooses must come back as a typed error in bounded stack and linear
//! time, and the recorded tokens must survive `parse ∘ write` unchanged.

mod hostile;

use ig_obs::json::{from_slice, parse, parse_slice, to_string, to_vec, Error, Value, MAX_DEPTH};
use std::time::{Duration, Instant};

#[test]
fn a_megabyte_of_brackets_is_a_typed_error_on_a_default_stack() {
    // A spawned thread has std's default 2 MiB stack, whatever RUST_MIN_STACK
    // gives the test harness; an uncapped recursive parser overflows it.
    std::thread::spawn(|| {
        for unit in ["[", "{\"a\":"] {
            let err = parse_slice(&hostile::repeated(unit, 1 << 20)).unwrap_err();
            assert!(matches!(err, Error::Depth { .. }), "{unit}: {err}");
        }
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&nested(MAX_DEPTH + 1)), Err(Error::Depth { offset: MAX_DEPTH }));
    })
    .join()
    .expect("the parser must not overflow the stack");
}

#[test]
fn strings_parse_in_linear_time() {
    // Sixteen times the input may cost sixteen times the time, not 256:
    // compare best-of-five timings and leave a 4x margin for noise.
    fn best(doc: &str) -> Duration {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(parse(doc), Ok(Value::Str(_))));
                t0.elapsed()
            })
            .min()
            .expect("five runs")
    }
    for unit in ["a", "\u{e9}", "\\n"] {
        let doc = |len: usize| format!("\"{}\"", unit.repeat(len / unit.len()));
        let (small, large) = (best(&doc(64 << 10)), best(&doc(1 << 20)));
        assert!(
            large < small * 64 + Duration::from_millis(1),
            "{unit:?}: 64 KiB took {small:?}, 1 MiB took {large:?}"
        );
    }
}

#[test]
fn integers_beyond_2_pow_53_round_trip_exactly() {
    for (text, value) in [
        ("18446744073709551615", Value::U64(u64::MAX)),
        ("9007199254740993", Value::U64(9_007_199_254_740_993)),
        ("-9223372036854775808", Value::I64(i64::MIN)),
    ] {
        assert_eq!(parse(text), Ok(value.clone()));
        assert_eq!(to_string(&value), text);
    }
    // Too big for either integer type: a float, as the registry codec read it.
    assert_eq!(parse("18446744073709551616"), Ok(Value::F64(18446744073709551616.0)));
}

#[test]
fn every_prefix_of_a_real_token_is_an_error() {
    let token = hostile::token("hs2_server_hello");
    for cut in 0..token.len() {
        assert!(parse_slice(&token[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }
    assert!(parse_slice(token).is_ok());
}

#[test]
fn parse_then_write_is_the_identity_on_the_recorded_tokens() {
    for (name, bytes) in hostile::TOKENS {
        let value = parse_slice(bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(to_string(&value).as_bytes(), *bytes, "{name}");
    }
}

#[test]
fn escapes_and_surrogates_are_typed_errors() {
    for bad in ["\"\\ud83d\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\"", "\"\\ude00\"", "\"\\u12g4\"",
        "\"\\u+123\"", "\"\\u12\"", "\"\\q\"", "\"\\"]
    {
        assert_eq!(parse(bad), Err(Error::Syntax { offset: 1, expected: "a valid escape" }), "{bad}");
    }
    assert_eq!(parse("\"\\ud83d\\ude00\\u00e9\\/\""), Ok(Value::Str("\u{1F600}\u{e9}/".into())));
}

#[test]
fn parses_admin_shapes() {
    let v = parse(
        "{\"cmd\":\"reload\",\"set\":{\"block_size\":4096,\
         \"stripe_rate\":null,\"data_chaos_armed\":true}}",
    )
    .unwrap();
    assert_eq!(v.get("cmd").and_then(Value::as_str), Some("reload"));
    let set = v.get("set").unwrap();
    assert_eq!(set.get("block_size").and_then(Value::as_u64), Some(4096));
    assert_eq!(set.get("stripe_rate"), Some(&Value::Null));
    assert_eq!(set.get("data_chaos_armed").and_then(Value::as_bool), Some(true));
}

#[test]
fn roundtrips_escapes() {
    let v = parse("{\"s\":\"a\\\"b\\\\c\\nd\\u00e9\\ud83d\\ude00\"}").unwrap();
    assert_eq!(v.get("s").and_then(Value::as_str), Some("a\"b\\c\nd\u{e9}\u{1F600}"));
}

#[test]
fn rejects_garbage() {
    assert!(parse("{").is_err());
    assert!(parse("{\"a\":}").is_err());
    assert!(parse("{\"a\" 1}").is_err());
    assert!(parse("[1,2,]").is_err());
    assert!(parse("123 456").is_err());
    assert!(parse("\"a\nb\"").is_err(), "raw control characters rejected");
    assert!(parse("1e999").is_err(), "non-finite numbers rejected");
}

#[test]
fn nested_arrays_and_numbers() {
    let Value::Arr(items) = parse("[0, -1.5, [true, null], {\"k\":[]}, -7]").unwrap() else {
        panic!("expected an array")
    };
    assert_eq!(items.len(), 5);
    assert_eq!(items[0], Value::U64(0));
    assert_eq!(items[1].as_f64(), Some(-1.5));
    assert_eq!(items[4], Value::I64(-7));
}

#[derive(Debug, PartialEq)]
struct Plain {
    id: u32,
    blob: Vec<u8>,
    note: Option<String>,
}
ig_obs::json_codec!(struct Plain { id, blob, note });

#[derive(Debug, PartialEq)]
enum Tagged {
    One { items: Vec<Plain> },
    Two { flag: bool, n: u64 },
}
ig_obs::json_codec!(enum Tagged { One { items }, Two { flag, n } });

#[test]
fn typed_layer_follows_the_encoding_rules() {
    let v = Tagged::One { items: vec![Plain { id: 7, blob: vec![0, 0xab, 0xff], note: None }] };
    let bytes = to_vec(&v);
    assert_eq!(bytes, b"{\"One\":{\"items\":[{\"id\":7,\"blob\":\"00abff\",\"note\":null}]}}");
    assert_eq!(from_slice::<Tagged>(&bytes).unwrap(), v);
    // Field order is free on input, unknown fields are ignored, an
    // absent Option is None.
    let p: Plain = from_slice(b"{\"x\":[],\"blob\":\"\",\"id\":1}").unwrap();
    assert_eq!(p, Plain { id: 1, blob: vec![], note: None });
}

#[test]
fn typed_layer_rejects_wrong_shapes() {
    for bad in [
        &b"{\"Three\":{}}"[..],                    // unknown variant
        b"{\"Two\":{\"flag\":true}}",              // missing field
        b"{\"Two\":{\"flag\":1,\"n\":1}}",         // wrong type
        b"{\"Two\":{\"flag\":true,\"n\":-1}}",     // negative for unsigned
        b"{\"Two\":{\"flag\":true,\"n\":1.0}}",    // float for integer
        b"{\"One\":{\"items\":[{\"id\":4294967296,\"blob\":\"\"}]}}", // out of range
        b"{\"One\":{\"items\":[{\"id\":1,\"blob\":\"abc\"}]}}", // odd hex
        b"{\"One\":{\"items\":[{\"id\":1,\"blob\":\"zz\"}]}}", // bad hex
        b"\"Two\"",
        b"{\"One\":{},\"Two\":{}}",
    ] {
        assert!(matches!(from_slice::<Tagged>(bad), Err(Error::Shape(_))), "{:?}", bad);
    }
    assert_eq!(
        from_slice::<Tagged>(b"\xff").unwrap_err(),
        Error::Syntax { offset: 0, expected: "utf-8" }
    );
}
