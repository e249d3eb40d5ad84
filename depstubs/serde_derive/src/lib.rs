//! Offline stand-in for `serde_derive`.
//!
//! Generates impls of the stand-in `serde::Serialize` /
//! `serde::Deserialize` traits, which route through the JSON-shaped
//! `serde::__private::Value` tree. The serde stand-in's crate docs list
//! the supported shapes and `#[serde(...)]` attributes:
//!
//! * structs with named fields → JSON objects keyed by field name
//!   (container `default`, `deny_unknown_fields`, `expecting`; field
//!   `rename`, `default = "path"`, `with = "module"`);
//! * enums of unit variants → JSON strings (`rename_all = "lowercase"`);
//! * enums with named-field variants and a container `tag` → internally
//!   tagged JSON objects.
//!
//! Anything else (tuple structs, generics, untagged data variants,
//! unknown attributes) produces a `compile_error!` naming the
//! limitation, so an unsupported shape fails loudly at build time
//! rather than misbehaving at run time.

#![deny(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What a derive input parsed into.
struct Item {
    name: String,
    /// The name container errors use (`expecting`, else the type name).
    expecting: String,
    /// Container `default`: missing or `null` keys take the field of
    /// `Default::default()`.
    default: bool,
    deny_unknown_fields: bool,
    body: Body,
}

enum Body {
    Struct(Vec<Field>),
    Enum {
        /// Container `tag`: variants become objects holding their name
        /// under this key.
        tag: Option<String>,
        variants: Vec<Variant>,
    },
}

/// A named field and its `#[serde(...)]` attributes.
struct Field {
    ident: String,
    key: String,
    with: Option<String>,
    default: Option<String>,
}

/// An enum variant: `fields` is `None` for a unit variant.
struct Variant {
    ident: String,
    key: String,
    fields: Option<Vec<Field>>,
}

/// `(name, value)` pairs of `#[serde(name = "value", flag)]`.
type Attrs = Vec<(String, Option<String>)>;

const VALUE: &str = "::serde::__private::Value";
const ERROR: &str = "::serde::__private::Error";
const RESULT: &str = "::std::result::Result";
const STRING: &str = "::std::string::String";

/// Derives the stand-in `serde::Serialize` (see crate docs).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    emit(parse_item(input).map(|item| {
        let name = &item.name;
        let body = match &item.body {
            Body::Struct(fields) => object(fields, "&self.", None),
            Body::Enum { tag, variants } => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        let (ident, key) = (&v.ident, &v.key);
                        let Some(tag) = tag else {
                            return format!(
                                "{name}::{ident} => {RESULT}::Ok({VALUE}::String({STRING}::from(\"{key}\"))),"
                            );
                        };
                        let fields = v.fields.as_deref().unwrap_or_default();
                        let binds: String = fields.iter().map(|f| format!("{},", f.ident)).collect();
                        let obj = object(fields, "", Some((tag, key)));
                        format!("{name}::{ident} {{ {binds} }} => {{ {obj} }}")
                    })
                    .collect();
                format!("match self {{ {arms} }}")
            }
        };
        format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> {RESULT}<{VALUE}, {ERROR}> {{ {body} }}\n\
             }}"
        )
    }))
}

/// Derives the stand-in `serde::Deserialize` (see crate docs).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    emit(parse_item(input).map(|item| {
        let (name, what) = (&item.name, &item.expecting);
        let not_object = format!(
            "let __o = __v.as_object().ok_or_else(|| \
             {ERROR}::located(\"{what} must be a JSON object\"))?;"
        );
        let body = match &item.body {
            Body::Struct(fields) => {
                let mut out = not_object;
                if item.deny_unknown_fields {
                    let known: Vec<String> =
                        fields.iter().map(|f| format!("\"{}\"", f.key)).collect();
                    out += &format!(
                        "for __k in __o.keys() {{ match __k.as_str() {{ {} => {{}} \
                         _ => return {RESULT}::Err({ERROR}::located(\
                         ::std::format!(\"unknown {what} key '{{__k}}'\"))), }} }}",
                        known.join(" | ")
                    );
                }
                if item.default {
                    out += &format!("let __d: {name} = ::std::default::Default::default();");
                }
                let inits = field_inits(fields, item.default);
                out + &format!("{RESULT}::Ok({name} {{ {inits} }})")
            }
            Body::Enum { tag, variants } => {
                let arms: String = variants
                    .iter()
                    .map(|v| {
                        let inits = field_inits(v.fields.as_deref().unwrap_or_default(), false);
                        format!(
                            "\"{}\" => {RESULT}::Ok({name}::{} {{ {inits} }}),",
                            v.key, v.ident
                        )
                    })
                    .collect();
                // A unit-only enum is a string; a tagged one an object
                // holding the variant name under the tag.
                let (prefix, read, missing, label) = match tag {
                    None => (
                        String::new(),
                        "__v.as_str()".to_string(),
                        "must be a string",
                        "variant",
                    ),
                    Some(tag) => (
                        not_object,
                        format!("__o.get(\"{tag}\").and_then(|__t| __t.as_str())"),
                        "needs a string tag",
                        tag.as_str(),
                    ),
                };
                format!(
                    "{prefix} match {read} {{\n\
                         ::std::option::Option::Some(__s) => match __s {{ {arms}\n\
                             _ => {RESULT}::Err({ERROR}::located(::std::format!(\
                                 \"unknown {what} {label} '{{__s}}'\"))),\n\
                         }},\n\
                         ::std::option::Option::None => {RESULT}::Err(\
                             {ERROR}::located(\"{what} {missing}\")),\n\
                     }}"
                )
            }
        };
        format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(__v: &{VALUE}) -> {RESULT}<Self, {ERROR}> {{ {body} }}\n\
             }}"
        )
    }))
}

/// A function body building a JSON object from `fields`, each read as
/// `{access}{field}`, with an optional `(tag key, variant name)` entry.
fn object(fields: &[Field], access: &str, tag: Option<(&String, &String)>) -> String {
    let mut out = String::from("let mut __m = ::std::collections::BTreeMap::new();");
    if let Some((tag, name)) = tag {
        out += &format!(
            "__m.insert({STRING}::from(\"{tag}\"), {VALUE}::String({STRING}::from(\"{name}\")));"
        );
    }
    for f in fields {
        let ser = match &f.with {
            Some(module) => format!("{module}::serialize"),
            None => "::serde::Serialize::serialize".to_string(),
        };
        let (ident, key) = (&f.ident, &f.key);
        out += &format!(
            "__m.insert({STRING}::from(\"{key}\"), \
             ::serde::__private::at(\"{key}\", {ser}({access}{ident}))?);"
        );
    }
    out + &format!("{RESULT}::Ok({VALUE}::Object(__m))")
}

/// Struct-literal field initializers reading from the object `__o`;
/// `container_default` reads defaults from the local `__d`.
fn field_inits(fields: &[Field], container_default: bool) -> String {
    fields
        .iter()
        .map(|f| {
            let (ident, key) = (&f.ident, &f.key);
            let de = match &f.with {
                Some(module) => format!("{module}::deserialize"),
                None => "::serde::Deserialize::deserialize".to_string(),
            };
            let read = |v: &str| format!("::serde::__private::at(\"{key}\", {de}({v}))?");
            let absent = match &f.default {
                Some(path) => format!("{path}()"),
                None if container_default => format!("__d.{ident}"),
                None => read(&format!("&{VALUE}::Null")),
            };
            format!(
                "{ident}: match ::serde::__private::present(__o, \"{key}\") {{\n\
                     ::std::option::Option::Some(__x) => {},\n\
                     ::std::option::Option::None => {absent},\n\
                 }},",
                read("__x")
            )
        })
        .collect()
}

/// Parses generated code, or turns a parse error into `compile_error!`.
fn emit(code: Result<String, String>) -> TokenStream {
    let code = code.unwrap_or_else(|msg| {
        format!(
            "compile_error!(\"serde stand-in derive: {}\");",
            msg.replace('"', "'")
        )
    });
    code.parse().expect("generated code parses")
}

/// Parses a derive input into an [`Item`], rejecting unsupported shapes.
fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = attrs_and_vis(&tokens, &mut i)?;
    let kind = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    i += 1;
    let name = match &tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return Err("expected a type name".into()),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("generic type `{name}` is not supported"));
    }
    let body = loop {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                return Err(format!("tuple struct `{name}` is not supported"));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => {
                return Err(format!("unit struct `{name}` is not supported"));
            }
            Some(_) => i += 1, // `where` clauses etc. (not expected, but harmless)
            None => return Err(format!("no body found for `{name}`")),
        }
    };
    let (mut expecting, mut default, mut deny_unknown_fields) = (name.clone(), false, false);
    let (mut tag, mut lowercase) = (None, false);
    for (attr, value) in attrs {
        match (kind.as_str(), attr.as_str(), value) {
            (_, "expecting", Some(v)) => expecting = v,
            ("struct", "default", None) => default = true,
            ("struct", "deny_unknown_fields", None) => deny_unknown_fields = true,
            ("enum", "tag", Some(v)) => tag = Some(v),
            ("enum", "rename_all", Some(v)) if v == "lowercase" => lowercase = true,
            (kind, attr, _) => return Err(format!("unsupported {kind} attribute `{attr}`")),
        }
    }
    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_fields(body)?),
        "enum" => {
            let mut variants = parse_variants(body)?;
            if let Some(v) = variants.iter().find(|v| v.fields.is_some()) {
                if tag.is_none() {
                    return Err(format!(
                        "variant `{}` carries data; add #[serde(tag = ...)]",
                        v.ident
                    ));
                }
            }
            if lowercase {
                variants
                    .iter_mut()
                    .for_each(|v| v.key = v.key.to_lowercase());
            }
            Body::Enum { tag, variants }
        }
        other => return Err(format!("expected `struct` or `enum`, found `{other}`")),
    };
    Ok(Item {
        name,
        expecting,
        default,
        deny_unknown_fields,
        body,
    })
}

/// Advances past outer attributes (`#[...]`, doc comments) and a
/// `pub`/`pub(...)` visibility prefix, collecting `#[serde(...)]`
/// entries.
fn attrs_and_vis(tokens: &[TokenTree], i: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Vec::new();
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 1; // the `[...]` group
                if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    if let [TokenTree::Ident(id), TokenTree::Group(args)] = inner.as_slice() {
                        if id.to_string() == "serde" {
                            attrs.extend(parse_serde_args(args.stream())?);
                        }
                    }
                    *i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1; // optional `(crate)` / `(super)` restriction
                if matches!(
                    tokens.get(*i),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                ) {
                    *i += 1;
                }
            }
            _ => return Ok(attrs),
        }
    }
}

/// The comma-separated `name` / `name = "value"` list inside
/// `#[serde(...)]`.
fn parse_serde_args(args: TokenStream) -> Result<Attrs, String> {
    let tokens: Vec<TokenTree> = args.into_iter().collect();
    let mut out = Vec::new();
    for entry in tokens.split(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ',')) {
        match entry {
            [] => {}
            [TokenTree::Ident(name)] => out.push((name.to_string(), None)),
            [TokenTree::Ident(name), TokenTree::Punct(eq), TokenTree::Literal(lit)]
                if eq.as_char() == '=' =>
            {
                let lit = lit.to_string();
                let value = lit
                    .strip_prefix('"')
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| format!("`{name}` takes a string literal"))?;
                out.push((name.to_string(), Some(value.to_string())));
            }
            _ => return Err("malformed #[serde(...)] attribute".into()),
        }
    }
    Ok(out)
}

/// The fields of a named-field body.
///
/// Types are skipped rather than parsed — the generated code never
/// needs them (trait dispatch recovers them) — by scanning to the next
/// top-level `,`, tracking `<`/`>` nesting so commas inside generics
/// don't split a field. Exotic types containing a bare `->` or `>>`
/// punctuation outside a group would confuse the scan; none occur in
/// this workspace.
fn parse_fields(body: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let attrs = attrs_and_vis(&tokens, &mut i)?;
        let ident = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(t) => return Err(format!("expected a field name, found `{t}`")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => return Err(format!("expected `:` after field `{ident}`")),
        }
        let mut angle = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the `,` (or end)
        let mut field = Field {
            key: ident.clone(),
            ident,
            with: None,
            default: None,
        };
        for (attr, value) in attrs {
            match (attr.as_str(), value) {
                ("rename", Some(v)) => field.key = v,
                ("with", Some(v)) => field.with = Some(v),
                ("default", Some(v)) => field.default = Some(v),
                (attr, _) => return Err(format!("unsupported field attribute `{attr}`")),
            }
        }
        fields.push(field);
    }
    Ok(fields)
}

/// The variants of an enum body: unit or named-field.
fn parse_variants(body: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !attrs_and_vis(&tokens, &mut i)?.is_empty() {
            return Err("variant attributes are not supported".into());
        }
        let ident = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            Some(t) => return Err(format!("expected a variant name, found `{t}`")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Some(parse_fields(g.stream())?)
            }
            Some(TokenTree::Group(_)) => {
                return Err(format!("tuple variant `{ident}` is not supported"));
            }
            _ => None,
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => i += 1,
            None => {}
            Some(t) => return Err(format!("unexpected `{t}` after variant `{ident}`")),
        }
        variants.push(Variant {
            key: ident.clone(),
            ident,
            fields,
        });
    }
    Ok(variants)
}
