//! Stand-in for `serde_derive`, written against `proc_macro` alone.
//!
//! Supported input, which is every shape the ig-* crates derive on: a struct
//! with named fields, or an enum whose variants are units or have named fields
//! (externally tagged, as the published derive does by default), without
//! generics. The only attribute read is `#[serde(with = "path")]` on a field.
//! Anything else is a compile error here, never silently different output.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    /// The identifier as written (may be raw, `r#type`).
    ident: String,
    with: Option<String>,
}

impl Field {
    fn key(&self) -> &str {
        self.ident.strip_prefix("r#").unwrap_or(&self.ident)
    }
}

struct Variant {
    name: String,
    /// `None` for a unit variant.
    fields: Option<Vec<Field>>,
}

enum Shape {
    Struct(Vec<Field>),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    shape: Shape,
}

/// The `with = ".."` path inside one `#[serde(..)]` attribute body, if any.
fn serde_with(attr: &TokenStream) -> Option<String> {
    let mut tokens = attr.clone().into_iter();
    match tokens.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return None,
    }
    let Some(TokenTree::Group(args)) = tokens.next() else {
        return None;
    };
    let args: Vec<TokenTree> = args.stream().into_iter().collect();
    match args.as_slice() {
        [TokenTree::Ident(k), TokenTree::Punct(eq), TokenTree::Literal(path)]
            if k.to_string() == "with" && eq.as_char() == '=' =>
        {
            Some(path.to_string().trim_matches('"').to_string())
        }
        _ => panic!("serde stand-in: only #[serde(with = \"..\")] is supported"),
    }
}

/// Named fields from the body of a struct or a struct variant: attributes,
/// visibility, `name: Type`, separated by commas outside `<..>`.
fn parse_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        let mut with = None;
        while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.next() {
                with = serde_with(&g.stream()).or(with);
            }
        }
        let Some(tree) = tokens.next() else {
            return fields;
        };
        let mut ident = match tree {
            TokenTree::Ident(i) => i.to_string(),
            other => panic!("serde stand-in: expected a field name, found `{other}`"),
        };
        if ident == "pub" {
            if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                tokens.next();
            }
            ident = match tokens.next() {
                Some(TokenTree::Ident(i)) => i.to_string(),
                other => panic!("serde stand-in: expected a field name, found {other:?}"),
            };
        }
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde stand-in: tuple fields are not supported (at `{ident}`)"),
        }
        let mut depth = 0i32;
        for tree in tokens.by_ref() {
            if let TokenTree::Punct(p) = &tree {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => break,
                    _ => {}
                }
            }
        }
        fields.push(Field { ident, with });
    }
}

fn parse_variants(body: TokenStream) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens = body.into_iter().peekable();
    loop {
        while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            tokens.next();
            tokens.next();
        }
        let Some(tree) = tokens.next() else {
            return variants;
        };
        let TokenTree::Ident(name) = tree else {
            panic!("serde stand-in: expected a variant name, found `{tree}`");
        };
        let name = name.to_string();
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_fields(g.stream());
                tokens.next();
                Some(fields)
            }
            Some(TokenTree::Group(_)) => {
                panic!("serde stand-in: tuple variant `{name}` is not supported")
            }
            _ => None,
        };
        match tokens.next() {
            None => {}
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(other) => {
                panic!("serde stand-in: unexpected `{other}` after variant `{name}` (discriminants are not supported)")
            }
        }
        variants.push(Variant { name, fields });
    }
}

fn parse(input: TokenStream) -> Input {
    let mut tokens = input.into_iter();
    let is_enum = loop {
        match tokens.next() {
            Some(TokenTree::Ident(i)) if i.to_string() == "struct" => break false,
            Some(TokenTree::Ident(i)) if i.to_string() == "enum" => break true,
            Some(_) => {}
            None => panic!("serde stand-in: expected a struct or an enum"),
        }
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    let body = match tokens.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!("serde stand-in: `{name}` must have named fields and no generics"),
    };
    let shape = if is_enum {
        Shape::Enum(parse_variants(body))
    } else {
        Shape::Struct(parse_fields(body))
    };
    Input { name, shape }
}

fn bindings(fields: &[Field]) -> String {
    fields.iter().map(|f| format!("{}, ", f.ident)).collect()
}

/// `vec![(key, value), ..]` from fields already bound by reference to their names.
fn ser_entries(fields: &[Field]) -> String {
    let mut out = String::from("::std::vec![");
    for f in fields {
        let value = match &f.with {
            Some(path) => format!(
                "::serde::__private::lift_ser::<__S>({path}::serialize({}, ::serde::ValueSerializer))?",
                f.ident
            ),
            None => format!("::serde::__private::ser_field::<__S, _>({})?", f.ident),
        };
        out += &format!("(::std::string::String::from(\"{}\"), {value}), ", f.key());
    }
    out + "]"
}

/// `a: .., b: ..,` reading each field out of `__f`.
fn de_inits(fields: &[Field]) -> String {
    let mut out = String::new();
    for f in fields {
        let value = match &f.with {
            Some(path) => format!(
                "::serde::__private::lift_de::<__D, _>({path}::deserialize(__f.take(\"{}\")))?",
                f.key()
            ),
            None => format!("__f.field::<__D, _>(\"{}\")?", f.key()),
        };
        out += &format!("{}: {value}, ", f.ident);
    }
    out
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse(input);
    let body = match &shape {
        Shape::Struct(fields) => format!(
            "let {name} {{ {} }} = self; __s.serialize_value(::serde::Value::Map({}))",
            bindings(fields),
            ser_entries(fields)
        ),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                arms += &match &v.fields {
                    None => format!("{name}::{vname} => __s.serialize_str(\"{vname}\"), "),
                    Some(fields) => format!(
                        "{name}::{vname} {{ {} }} => __s.serialize_value(::serde::Value::Map(::std::vec![\
                         (::std::string::String::from(\"{vname}\"), ::serde::Value::Map({}))])), ",
                        bindings(fields),
                        ser_entries(fields)
                    ),
                };
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
           fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
             -> ::std::result::Result<__S::Ok, __S::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse(input);
    let body = match &shape {
        Shape::Struct(fields) => format!(
            "let mut __f = ::serde::__private::fields(__d, \"{name}\")?; \
             ::std::result::Result::Ok({name} {{ {} }})",
            de_inits(fields)
        ),
        Shape::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                arms += &match &v.fields {
                    None => format!("\"{vname}\" => ::std::result::Result::Ok({name}::{vname}), "),
                    Some(fields) => format!(
                        "\"{vname}\" => {{ \
                           let mut __f = ::serde::__private::lift_de::<__D, _>(\
                             ::serde::__private::fields(__content, \"{name}::{vname}\"))?; \
                           ::std::result::Result::Ok({name}::{vname} {{ {} }}) }} ",
                        de_inits(fields)
                    ),
                };
            }
            format!(
                "let (__name, __content) = ::serde::__private::variant(__d, \"{name}\")?; \
                 match __name.as_str() {{ {arms} \
                   __other => ::std::result::Result::Err(\
                     ::serde::__private::unknown_variant(\"{name}\", __other)), }}"
            )
        }
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
           #[allow(unused_variables)] \
           fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
             -> ::std::result::Result<Self, __D::Error> {{ {body} }} }}"
    )
    .parse()
    .expect("serde stand-in: generated Deserialize impl must parse")
}
