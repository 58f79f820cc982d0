//! Derive macros for the vendored `serde` shim.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the item
//! shapes used in this workspace — named-field structs, tuple structs and
//! enums (unit, newtype, tuple and struct variants) — without depending on
//! `syn`/`quote` (the build environment is offline). The only recognized
//! field attributes are `#[serde(skip)]` and `#[serde(default)]`; anything
//! else is a compile error so that silent divergence from upstream serde
//! semantics cannot creep in.
//!
//! The generated impls write straight into the shim's JSON `Writer` and read
//! straight from its pull parser, `Reader`; no value tree is built.
//! Serialized forms mirror upstream serde's JSON conventions: structs become
//! objects with their fields in declaration order, newtype structs are
//! transparent, unit enum variants become strings, and data-carrying
//! variants become externally tagged single-field objects.  Deserializing a
//! struct accepts its fields in any order, ignores unknown (and skipped)
//! keys, keeps the first of a repeated key, fills absent `default` fields
//! with `Default::default()`, and otherwise fails with
//! ``missing field `name` of `Type` `` for the first absent field in
//! declaration order.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed field of a struct or struct variant.
struct Field {
    name: String,
    skip: bool,
    default: bool,
}

/// One parsed enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

/// The parsed derive input.
struct Input {
    name: String,
    kind: InputKind,
}

enum InputKind {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Attribute flags recognized on fields.
#[derive(Default)]
struct AttrFlags {
    skip: bool,
    default: bool,
}

/// Consumes leading attributes (`#[...]`) from `tokens[*pos]`, returning the
/// accumulated `#[serde(...)]` flags.
fn take_attrs(tokens: &[TokenTree], pos: &mut usize) -> AttrFlags {
    let mut flags = AttrFlags::default();
    while *pos + 1 < tokens.len() {
        let is_hash = matches!(&tokens[*pos], TokenTree::Punct(p) if p.as_char() == '#');
        if !is_hash {
            break;
        }
        let TokenTree::Group(group) = &tokens[*pos + 1] else {
            break;
        };
        if group.delimiter() != Delimiter::Bracket {
            break;
        }
        let inner: Vec<TokenTree> = group.stream().into_iter().collect();
        if let Some(TokenTree::Ident(head)) = inner.first() {
            if head.to_string() == "serde" {
                let Some(TokenTree::Group(args)) = inner.get(1) else {
                    panic!("malformed #[serde] attribute");
                };
                for arg in args.stream() {
                    match arg {
                        TokenTree::Ident(flag) => match flag.to_string().as_str() {
                            "skip" => flags.skip = true,
                            "default" => flags.default = true,
                            other => panic!(
                                "unsupported #[serde({other})] attribute (the vendored serde \
                                 shim only understands `skip` and `default`)"
                            ),
                        },
                        TokenTree::Punct(p) if p.as_char() == ',' => {}
                        other => panic!("unsupported #[serde] argument: {other}"),
                    }
                }
            }
        }
        *pos += 2;
    }
    flags
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, ...) if present.
fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(&tokens[*pos], TokenTree::Ident(i) if i.to_string() == "pub") {
        *pos += 1;
        if *pos < tokens.len() {
            if let TokenTree::Group(g) = &tokens[*pos] {
                if g.delimiter() == Delimiter::Parenthesis {
                    *pos += 1;
                }
            }
        }
    }
}

/// Splits a token list on top-level commas. Angle brackets are plain
/// punctuation in token streams, so generic arguments (`HashMap<K, V>`) are
/// tracked by `<`/`>` depth; `->` never appears in the field types of this
/// workspace.
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let mut angle_depth = 0usize;
    for tt in tokens {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth = angle_depth.saturating_sub(1),
                _ => {}
            }
        }
        if angle_depth == 0 && matches!(&tt, TokenTree::Punct(p) if p.as_char() == ',') {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        } else {
            current.push(tt);
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// Parses the fields of a named-field body `{ ... }`.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    split_commas(body.into_iter().collect())
        .into_iter()
        .map(|chunk| {
            let mut pos = 0;
            let flags = take_attrs(&chunk, &mut pos);
            skip_visibility(&chunk, &mut pos);
            let TokenTree::Ident(name) = &chunk[pos] else {
                panic!("expected field name, found {:?}", chunk[pos].to_string());
            };
            Field {
                name: name.to_string(),
                skip: flags.skip,
                default: flags.default,
            }
        })
        .collect()
}

/// Counts the fields of a tuple body `( ... )`; `#[serde]` attributes on
/// tuple fields are not supported.
fn parse_tuple_arity(body: TokenStream) -> usize {
    split_commas(body.into_iter().collect()).len()
}

fn parse_input(input: TokenStream) -> Input {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;
    let _ = take_attrs(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    pos += 1;
    let TokenTree::Ident(name) = &tokens[pos] else {
        panic!("expected type name");
    };
    let name = name.to_string();
    pos += 1;

    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("the vendored serde shim cannot derive for generic type `{name}`");
    }

    match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                kind: InputKind::NamedStruct(parse_named_fields(g.stream())),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Input {
                name,
                kind: InputKind::TupleStruct(parse_tuple_arity(g.stream())),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Input {
                name,
                kind: InputKind::UnitStruct,
            },
            other => panic!("unsupported struct body: {other:?}"),
        },
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(pos) else {
                panic!("expected enum body");
            };
            let variants = split_commas(g.stream().into_iter().collect())
                .into_iter()
                .map(|chunk| {
                    let mut vpos = 0;
                    let _ = take_attrs(&chunk, &mut vpos);
                    let TokenTree::Ident(vname) = &chunk[vpos] else {
                        panic!("expected variant name");
                    };
                    let kind = match chunk.get(vpos + 1) {
                        None => VariantKind::Unit,
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            VariantKind::Tuple(parse_tuple_arity(g.stream()))
                        }
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                            VariantKind::Struct(parse_named_fields(g.stream()))
                        }
                        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                            // Discriminant (`Variant = 3`): treat as unit.
                            VariantKind::Unit
                        }
                        other => panic!("unsupported variant body: {other:?}"),
                    };
                    Variant {
                        name: vname.to_string(),
                        kind,
                    }
                })
                .collect();
            Input {
                name,
                kind: InputKind::Enum(variants),
            }
        }
        other => panic!("cannot derive serde impls for `{other}` items"),
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

const SER: &str = "::serde::Serialize::serialize";
const DE: &str = "::serde::Deserialize::deserialize";

/// Writes the non-skipped `fields` as an object; `access` maps a field name
/// to an expression of reference type.
fn gen_write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut code = String::from("__w.begin_object();\n");
    for f in fields.iter().filter(|f| !f.skip) {
        code.push_str(&format!(
            "__w.key(\"{n}\");\n{SER}({a}, __w);\n",
            n = f.name,
            a = access(&f.name)
        ));
    }
    code.push_str("__w.end_object();\n");
    code
}

/// Writes a one-member object `{"tag": <payload>}`.
fn gen_tagged(tag: &str, payload: &str) -> String {
    format!("__w.begin_object();\n__w.key(\"{tag}\");\n{payload}__w.end_object();\n")
}

/// Writes `items` (expressions of reference type) as an array.
fn gen_write_array(items: &[String]) -> String {
    let mut code = String::from("__w.begin_array();\n");
    for item in items {
        code.push_str(&format!("__w.element();\n{SER}({item}, __w);\n"));
    }
    code.push_str("__w.end_array();\n");
    code
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        InputKind::NamedStruct(fields) => gen_write_object(fields, |n| format!("&self.{n}")),
        InputKind::TupleStruct(1) => format!("{SER}(&self.0, __w);"),
        InputKind::TupleStruct(n) => {
            gen_write_array(&(0..*n).map(|i| format!("&self.{i}")).collect::<Vec<_>>())
        }
        InputKind::UnitStruct => "__w.null();".to_string(),
        InputKind::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.kind {
                        VariantKind::Unit => format!("{name}::{vn} => __w.string(\"{vn}\"),"),
                        VariantKind::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__x{i}")).collect();
                            let payload = if *n == 1 {
                                format!("{SER}(__x0, __w);\n")
                            } else {
                                gen_write_array(&binds)
                            };
                            format!(
                                "{name}::{vn}({binds}) => {{\n{tagged}}}",
                                binds = binds.join(", "),
                                tagged = gen_tagged(vn, &payload)
                            )
                        }
                        VariantKind::Struct(fields) => {
                            let binds: Vec<&str> = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| f.name.as_str())
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} .. }} => {{\n{tagged}}}",
                                binds = binds.iter().map(|b| format!("{b}, ")).collect::<String>(),
                                tagged = gen_tagged(vn, &gen_write_object(fields, str::to_string))
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{\n{}\n}}", arms.join("\n"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
            fn serialize(&self, __w: &mut ::serde::Writer) {{\n{body}\n}}\n\
         }}"
    )
}

/// An expression reading an object into `ctor { fields }`: members in any
/// order, the first of a repeated key wins, unknown and skipped keys are
/// ignored, `default` fields may be absent, and the first absent required
/// field (in declaration order) is the error.
fn gen_read_object(fields: &[Field], ctor: &str, type_name: &str) -> String {
    let mut code = format!(
        "if __r.peek() != ::core::option::Option::Some(b'{{') {{\n\
             return ::core::result::Result::Err(::serde::Error::custom(\"expected object for `{ctor}`\"));\n\
         }}\n"
    );
    let read: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    for f in &read {
        code.push_str(&format!(
            "let mut __f_{n} = ::core::option::Option::None;\n",
            n = f.name
        ));
    }
    code.push_str("__r.begin_object()?;\nwhile let ::core::option::Option::Some(__key) = __r.next_key()? {\nmatch &*__key {\n");
    for f in &read {
        code.push_str(&format!(
            "\"{n}\" if __f_{n}.is_none() => __f_{n} = ::core::option::Option::Some({DE}(__r)?),\n",
            n = f.name
        ));
    }
    code.push_str("_ => __r.skip_value()?,\n}\n}\n");
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            if f.skip {
                format!("{n}: ::core::default::Default::default(),")
            } else if f.default {
                format!("{n}: __f_{n}.unwrap_or_default(),")
            } else {
                format!(
                    "{n}: match __f_{n} {{\n\
                         ::core::option::Option::Some(__v) => __v,\n\
                         ::core::option::Option::None => return ::core::result::Result::Err(\
                             ::serde::Error::custom(\"missing field `{n}` of `{type_name}`\")),\n\
                     }},"
                )
            }
        })
        .collect();
    format!("{{\n{code}{ctor} {{\n{}\n}}\n}}", inits.join("\n"))
}

/// An expression reading a `len`-element array into `ctor(..)`.
fn gen_read_array(len: usize, ctor: &str) -> String {
    let items: Vec<String> = (0..len)
        .map(|_| format!("{{ __r.expect_element(\"{ctor}\")?; {DE}(__r)? }}"))
        .collect();
    format!(
        "{{\n__r.begin_array()?;\n\
         let __value = {ctor}({items});\n\
         __r.expect_end_array(\"{ctor}\")?;\n\
         __value\n}}",
        items = items.join(", ")
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let ok = |value: String| format!("::core::result::Result::Ok({value})");
    let body = match &input.kind {
        InputKind::NamedStruct(fields) => ok(gen_read_object(fields, name, name)),
        InputKind::TupleStruct(1) => ok(format!("{name}({DE}(__r)?)")),
        InputKind::TupleStruct(n) => ok(gen_read_array(*n, name)),
        InputKind::UnitStruct => format!("__r.skip_value()?;\n{}", ok(name.clone())),
        InputKind::Enum(variants) => {
            // A unit variant is a string; any other is a one-member object
            // `{"Variant": payload}`.
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let vn = &v.name;
                let ctor = format!("{name}::{vn}");
                let read = match &v.kind {
                    VariantKind::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => return {},\n", ok(ctor)));
                        continue;
                    }
                    VariantKind::Tuple(1) => format!("{ctor}({DE}(__r)?)"),
                    VariantKind::Tuple(n) => gen_read_array(*n, &ctor),
                    VariantKind::Struct(fields) => gen_read_object(fields, &ctor, name),
                };
                tagged_arms.push_str(&format!("\"{vn}\" => {read},\n"));
            }
            let unknown = format!(
                "::core::result::Result::Err(::serde::Error::custom(\"unknown variant of `{name}`\"))"
            );
            let mut code = String::from("match __r.peek() {\n");
            if !unit_arms.is_empty() {
                code.push_str(&format!(
                    "::core::option::Option::Some(b'\"') => match &*__r.string()? {{\n\
                         {unit_arms}_ => {{}}\n\
                     }},\n"
                ));
            }
            if !tagged_arms.is_empty() {
                code.push_str(&format!(
                    "::core::option::Option::Some(b'{{') => {{\n\
                         __r.begin_object()?;\n\
                         if let ::core::option::Option::Some(__tag) = __r.next_key()? {{\n\
                             let __value = match &*__tag {{\n\
                                 {tagged_arms}_ => return {unknown},\n\
                             }};\n\
                             if __r.next_key()?.is_none() {{\n\
                                 return {ok_value};\n\
                             }}\n\
                         }}\n\
                     }}\n",
                    ok_value = ok("__value".into())
                ));
            }
            code.push_str(&format!("_ => {{}}\n}}\n{unknown}"));
            code
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
            fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::core::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
