//! A minimal, dependency-free JSON value type with a writer and parser.
//!
//! The workspace is hermetic by policy (no registry crates), so the replay
//! artifact format and the JSONL trace export carry their own JSON
//! implementation. The subset is exactly what those formats need:
//!
//! * integers are kept exact as `i128` (seeds and call ids are `u64`;
//!   routing them through `f64` would silently lose precision);
//! * objects preserve insertion order, so rendering is deterministic and
//!   artifacts are byte-stable across record/replay cycles;
//! * the writer emits the same `{"k": v, "k2": v2}` spacing the JSONL
//!   trace export has always used, keeping existing snapshots valid;
//! * nesting is capped at [`MAX_DEPTH`], so a hostile document fails
//!   with an error instead of overflowing the parser's stack.
//!
//! On top of the value type sits the one codec every persisted format
//! uses: the [`Codec`] trait for scalars and containers, and the
//! [`json_codec!`](crate::json_codec) macro, which declares a record's or
//! an enum's field-to-key mapping once and generates both directions.

use std::fmt;
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// Deepest array/object nesting [`Json::parse`] accepts. Recorded
/// artifacts nest about half a dozen levels (more only around a record
/// value a debugger wrote, two levels per nested record); the cap exists
/// so a hostile document is an error, not a stack overflow.
pub const MAX_DEPTH: usize = 256;

/// A parsed or to-be-rendered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, kept exact (covers the full `u64` and `i64` ranges).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved and rendered verbatim.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs (a readability helper for
    /// hand-assembled artifacts).
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer in `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Renders this value into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                // `{:?}` prints the shortest representation that parses
                // back to the same f64, so floats round-trip exactly.
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    ///
    /// # Errors
    ///
    /// A human-readable description with a byte offset.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// Escapes `s` into `out` per JSON string rules: quotes, backslashes, the
/// named control escapes, and `\u00XX` for the remaining control bytes.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Description of the problem.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?;
                out.push_str(chunk);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(chunk, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Why a JSON value failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The value has the wrong JSON type or does not fit the target type.
    /// The enclosing field turns this into a message naming its key.
    Invalid,
    /// A complete description naming the type and key at fault.
    Message(String),
}

impl DecodeError {
    /// The error as text; `what` names the value when it was itself
    /// invalid.
    pub fn describe(self, what: &str) -> String {
        match self {
            DecodeError::Invalid => format!("{what}: invalid value"),
            DecodeError::Message(m) => m,
        }
    }
}

/// A type with one JSON form. Implemented here for the scalars and
/// containers the persisted formats use, and by
/// [`json_codec!`](crate::json_codec) for every record and enum built
/// from them.
pub trait Codec: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;

    /// The inverse of [`encode`](Codec::encode).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Invalid`] for a wrong JSON type or an out-of-range
    /// number; a message from a nested record's decoder.
    fn decode(v: &Json) -> Result<Self, DecodeError>;
}

/// One [`Codec`] impl per scalar: how to build its JSON, and how to read
/// it back (`None` when the value has the wrong type or range).
macro_rules! scalar_codecs {
    ($( $t:ty : |$x:ident| $encode:expr, |$v:ident| $decode:expr; )*) => {$(
        impl Codec for $t {
            fn encode(&self) -> Json {
                let $x = self;
                $encode
            }
            fn decode($v: &Json) -> Result<Self, DecodeError> {
                $decode.ok_or(DecodeError::Invalid)
            }
        }
    )*};
}

fn int<T: TryFrom<i128>>(v: &Json) -> Option<T> {
    match v {
        Json::Int(i) => T::try_from(*i).ok(),
        _ => None,
    }
}

scalar_codecs! {
    u16: |n| Json::Int(i128::from(*n)), |v| int(v);
    u32: |n| Json::Int(i128::from(*n)), |v| int(v);
    u64: |n| Json::Int(i128::from(*n)), |v| int(v);
    usize: |n| Json::Int(*n as i128), |v| int(v);
    i64: |n| Json::Int(i128::from(*n)), |v| int(v);
    bool: |b| Json::Bool(*b), |v| v.as_bool();
    f64: |f| Json::Float(*f), |v| v.as_f64();
    String: |s| Json::Str(s.clone()), |v| v.as_str().map(str::to_string);
    Arc<str>: |s| Json::Str(s.to_string()), |v| v.as_str().map(Arc::from);
    // Durations and instants travel as whole microseconds.
    SimDuration: |d| d.as_micros().encode(), |v| int(v).map(SimDuration::from_micros);
    SimTime: |t| t.as_micros().encode(), |v| int(v).map(SimTime::from_micros);
    // Free-form JSON passes through unchanged.
    Json: |j| j.clone(), |v| Some(v.clone());
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Codec::encode)
    }
    fn decode(v: &Json) -> Result<Self, DecodeError> {
        match v {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Json {
        Json::Array(self.iter().map(Codec::encode).collect())
    }
    fn decode(v: &Json) -> Result<Self, DecodeError> {
        let items = v.as_array().ok_or(DecodeError::Invalid)?;
        items.iter().map(T::decode).collect()
    }
}

/// A codec for a field whose type cannot implement [`Codec`]: a type from
/// a crate this one cannot see, or a tuple whose JSON form needs key
/// names. A [`json_codec!`](crate::json_codec) field names one with
/// `with`.
pub trait Adapter<T> {
    /// `v` as JSON.
    fn encode(&self, v: &T) -> Json;

    /// The inverse of [`encode`](Adapter::encode).
    ///
    /// # Errors
    ///
    /// As [`Codec::decode`].
    fn decode(&self, v: &Json) -> Result<T, DecodeError>;
}

/// `(a, b)` pairs as an array of two-key objects: `Pairs("node",
/// "source")` renders `[{"node": a, "source": b}, …]`.
#[derive(Debug, Clone, Copy)]
pub struct Pairs(pub &'static str, pub &'static str);

impl<A: Codec, B: Codec> Adapter<Vec<(A, B)>> for Pairs {
    fn encode(&self, pairs: &Vec<(A, B)>) -> Json {
        let pair = |(a, b): &(A, B)| {
            Json::Object(vec![
                (self.0.to_string(), a.encode()),
                (self.1.to_string(), b.encode()),
            ])
        };
        Json::Array(pairs.iter().map(pair).collect())
    }

    fn decode(&self, v: &Json) -> Result<Vec<(A, B)>, DecodeError> {
        let pair = |p: &Json| {
            Ok((
                decode_field(p, &["pair"], self.0, A::decode, None)?,
                decode_field(p, &["pair"], self.1, B::decode, None)?,
            ))
        };
        v.as_array()
            .ok_or(DecodeError::Invalid)?
            .iter()
            .map(pair)
            .collect()
    }
}

/// Decodes member `key` of `obj`: the field accessor behind
/// [`json_codec!`](crate::json_codec). `what` names the type (and, for an
/// enum, the variant) in errors. An absent key takes `default` when the
/// field declares one; otherwise it decodes like `null`, which only
/// `Option` and [`Json`] accept.
///
/// # Errors
///
/// "`what`: missing `key`", "`what`: out-of-range `key`", or a nested
/// decoder's own message.
pub fn decode_field<T>(
    obj: &Json,
    what: &[&str],
    key: &str,
    decode: impl Fn(&Json) -> Result<T, DecodeError>,
    default: Option<T>,
) -> Result<T, DecodeError> {
    let fail =
        |problem: &str| DecodeError::Message(format!("{}: {problem} `{key}`", what.join(" ")));
    match obj.get(key) {
        Some(v) => decode(v).map_err(|e| match e {
            DecodeError::Invalid => fail("out-of-range"),
            nested => nested,
        }),
        None => match default {
            Some(d) => Ok(d),
            None => decode(&Json::Null).map_err(|_| fail("missing")),
        },
    }
}

/// An enum whose variants each carry a tag and a field object; what
/// [`json_codec!`](crate::json_codec) generates for `enum` declarations.
pub trait Variants: Sized {
    /// The variant's tag.
    fn tag(&self) -> &'static str;

    /// The variant's fields as object members, in declaration order.
    fn fields(&self) -> Vec<(String, Json)>;

    /// Rebuilds the variant named `tag` from its field object.
    ///
    /// # Errors
    ///
    /// Unknown tags and the errors of [`decode_field`].
    fn from_fields(tag: &str, v: &Json) -> Result<Self, DecodeError>;
}

/// Renders a self-describing document: the `format` tag and `version`
/// first, then the members of `body`, then a newline.
pub fn render_document(format: &str, version: u32, body: Json) -> String {
    let mut members = vec![
        ("format".to_string(), Json::Str(format.to_string())),
        ("version".to_string(), version.encode()),
    ];
    if let Json::Object(body) = body {
        members.extend(body);
    }
    let mut out = String::new();
    Json::Object(members).write(&mut out);
    out.push('\n');
    out
}

/// Parses a document written by [`render_document`] and checks its
/// header; `noun` names the format in the version error.
///
/// # Errors
///
/// Malformed JSON, a foreign format tag, or another version.
pub fn parse_document(text: &str, format: &str, version: u32, noun: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let tag = doc.get("format").and_then(Json::as_str).unwrap_or("");
    if tag != format {
        return Err(format!("not a {format} artifact (format tag `{tag}`)"));
    }
    let found = doc.get("version").and_then(Json::as_u64).unwrap_or(0);
    if found != u64::from(version) {
        return Err(format!(
            "unsupported {noun} version {found} (expected {version})"
        ));
    }
    Ok(doc)
}

/// Declares the JSON form of a type once and generates both directions.
///
/// Three shapes are accepted:
///
/// * `struct Type as "label" { field: "key", … }` — a record, one object
///   member per field. A field kept for back-compat declares the value
///   it takes when its key is absent with `= default`; any other absent
///   key decodes like `null` (so `Option` fields read as `None`) or
///   fails. Generates [`Codec`] plus inherent `to_json`/`from_json`.
/// * `enum Type as "label", tag "key" { Variant = "tag" { field: "key",
///   … }, Tuple = "tag" (binding: "key"), Unit = "tag", … }` — a tagged
///   enum: the tag goes under `key`, then the variant's fields.
///   Generates [`Variants`], [`Codec`], and `to_json`/`from_json`.
///   Without `, tag "key"` only [`Variants`] is generated, for formats
///   that carry the tag elsewhere.
/// * `enum Type as "label", strings { Variant = "name", … }` — a
///   fieldless enum encoded as a bare string. Generates [`Codec`] plus
///   inherent `name`/`parse`.
///
/// A field whose type has no [`Codec`] of its own names an [`Adapter`]
/// with `with Adapter` (record fields also take `with Adapter(args…)`).
/// Decode errors read "`label`: missing `key`" or "`label`:
/// out-of-range `key`" (with the variant tag after the label for enums).
///
/// # Examples
///
/// ```
/// use pilgrim_sim::json::Json;
/// use pilgrim_sim::SimDuration;
///
/// #[derive(Debug)]
/// struct Knobs {
///     slice: SimDuration,
///     label: Option<String>,
///     retries: u32,
/// }
///
/// pilgrim_sim::json_codec! {
///     struct Knobs as "knobs" {
///         slice: "slice_us",
///         label: "label",
///         // Absent in documents written before retries existed.
///         retries: "retries" = 3,
///     }
/// }
///
/// let k = Knobs { slice: SimDuration::from_micros(10), label: None, retries: 5 };
/// assert_eq!(k.to_json().to_string(), r#"{"slice_us": 10, "label": null, "retries": 5}"#);
/// let old = Json::parse(r#"{"slice_us": 10}"#).unwrap();
/// assert_eq!(Knobs::from_json(&old).unwrap().retries, 3);
/// let bad = Json::parse(r#"{"slice_us": -1}"#).unwrap();
/// assert_eq!(Knobs::from_json(&bad).unwrap_err(), "knobs: out-of-range `slice_us`");
/// ```
#[macro_export]
macro_rules! json_codec {
    (
        struct $ty:ty as $what:literal {
            $( $field:ident : $key:literal
               $( with $adapter:ident $( ( $($arg:expr),* ) )? )?
               $( = $default:expr )? ),+ $(,)?
        }
    ) => {
        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Object(vec![$(
                    (
                        $key.to_string(),
                        $crate::json_codec!(@encode &self.$field
                            $(, $adapter $( ( $($arg),* ) )? )?),
                    ),
                )+])
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::DecodeError> {
                Ok(Self {$(
                    $field: $crate::json::decode_field(
                        v,
                        &[$what],
                        $key,
                        $crate::json_codec!(@decode $( $adapter $( ( $($arg),* ) )? )?),
                        $crate::json_codec!(@default $($default)?),
                    )?,
                )+})
            }
        }
        $crate::json_codec!(@methods $ty, $what);
    };

    (
        enum $ty:ident as $what:literal, strings { $( $variant:ident = $name:literal ),+ $(,)? }
    ) => {
        impl $ty {
            /// Stable wire name.
            pub fn name(&self) -> &'static str {
                match self {
                    $( $ty::$variant => $name, )+
                }
            }

            /// The inverse of [`name`](Self::name).
            pub fn parse(name: &str) -> Option<Self> {
                match name {
                    $( $name => Some($ty::$variant), )+
                    _ => None,
                }
            }
        }

        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.name().to_string())
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::DecodeError> {
                v.as_str().and_then(Self::parse).ok_or($crate::json::DecodeError::Invalid)
            }
        }
    };

    (
        enum $ty:ident as $what:literal, tag $tag_key:literal { $($variants:tt)* }
    ) => {
        $crate::json_codec!(enum $ty as $what { $($variants)* });

        impl $crate::json::Codec for $ty {
            fn encode(&self) -> $crate::json::Json {
                let tag = $crate::json::Variants::tag(self);
                let mut members = vec![($tag_key.to_string(), $crate::json::Json::Str(tag.to_string()))];
                members.extend($crate::json::Variants::fields(self));
                $crate::json::Json::Object(members)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, $crate::json::DecodeError> {
                let tag = v.get($tag_key).and_then($crate::json::Json::as_str).ok_or_else(|| {
                    $crate::json::DecodeError::Message(format!("{}: missing `{}`", $what, $tag_key))
                })?;
                <Self as $crate::json::Variants>::from_fields(tag, v)
            }
        }
        $crate::json_codec!(@methods $ty, $what);
    };

    (
        enum $ty:ident as $what:literal {
            $( $variant:ident = $tag:literal
               $( ( $bind:ident : $bind_key:literal $( with $bind_adapter:ident )? ) )?
               $( { $( $field:ident : $key:literal $( with $adapter:ident )? ),* $(,)? } )?
            ),+ $(,)?
        }
    ) => {
        impl $crate::json::Variants for $ty {
            fn tag(&self) -> &'static str {
                match self {
                    $( $ty::$variant { .. } => $tag, )+
                }
            }

            fn fields(&self) -> Vec<(String, $crate::json::Json)> {
                match self {$(
                    $ty::$variant $( ($bind) )? $( { $($field),* } )? => vec![
                        $( (
                            $bind_key.to_string(),
                            $crate::json_codec!(@encode $bind $(, $bind_adapter)?),
                        ), )?
                        $( $( (
                            $key.to_string(),
                            $crate::json_codec!(@encode $field $(, $adapter)?),
                        ), )* )?
                    ],
                )+}
            }

            fn from_fields(
                tag: &str,
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::DecodeError> {
                Ok(match tag {
                    $( $tag => $ty::$variant
                        $( ( $crate::json::decode_field(
                            v,
                            &[$what, $tag],
                            $bind_key,
                            $crate::json_codec!(@decode $($bind_adapter)?),
                            None,
                        )? ) )?
                        $( { $(
                            $field: $crate::json::decode_field(
                                v,
                                &[$what, $tag],
                                $key,
                                $crate::json_codec!(@decode $($adapter)?),
                                None,
                            )?,
                        )* } )?,
                    )+
                    other => {
                        return Err($crate::json::DecodeError::Message(format!(
                            "{}: unknown variant `{}`",
                            $what, other
                        )))
                    }
                })
            }
        }
    };

    (@encode $value:expr) => {
        $crate::json::Codec::encode($value)
    };
    (@encode $value:expr, $adapter:expr) => {
        $crate::json::Adapter::encode(&$adapter, $value)
    };
    (@decode) => {
        $crate::json::Codec::decode
    };
    (@decode $adapter:expr) => {
        |v: &$crate::json::Json| $crate::json::Adapter::decode(&$adapter, v)
    };
    (@default) => {
        None
    };
    (@default $default:expr) => {
        Some($default)
    };
    (@methods $ty:ty, $what:literal) => {
        impl $ty {
            #[doc = concat!("The ", $what, " as JSON.")]
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::Codec::encode(self)
            }

            #[doc = concat!("Decodes the ", $what, " that [`to_json`](Self::to_json) renders.")]
            ///
            /// # Errors
            ///
            /// Missing or mistyped fields.
            pub fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                <Self as $crate::json::Codec>::decode(v).map_err(|e| e.describe($what))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("rendered JSON parses back")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(u64::MAX as i128),
            Json::Int(i64::MIN as i128),
            Json::Float(0.25),
            Json::Float(3.308e-3),
            Json::Str("hello".into()),
            Json::Str("tricky \"quoted\" \\ line\nbreak\ttab \u{1} nul-ish".into()),
        ] {
            assert_eq!(round_trip(&v), v, "{v}");
        }
    }

    #[test]
    fn u64_values_stay_exact() {
        let v = Json::Int(18_446_744_073_709_551_615_i128);
        assert_eq!(v.to_string(), "18446744073709551615");
        assert_eq!(round_trip(&v).as_u64(), Some(u64::MAX));
    }

    #[test]
    fn containers_round_trip_preserving_order() {
        let v = Json::obj(vec![
            ("z", Json::Int(1)),
            ("a", Json::Array(vec![Json::Null, Json::Bool(true)])),
            ("nested", Json::obj(vec![("k", Json::Str("v".into()))])),
        ]);
        assert_eq!(round_trip(&v), v);
        assert_eq!(
            v.to_string(),
            "{\"z\": 1, \"a\": [null, true], \"nested\": {\"k\": \"v\"}}"
        );
    }

    #[test]
    fn lookup_helpers() {
        let v = Json::obj(vec![
            ("n", Json::Int(7)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(true)),
            ("f", Json::Float(1.5)),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("n").and_then(Json::as_i64), Some(7));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\u0041\n\t\"\\\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\"\\\u{e9}\u{1F600}"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\": 1,}",
            "\"\\u12\"",
            "\"\\ud800x\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" {\n \"a\" : [ 1 , 2 ] ,\t\"b\": null }\n").unwrap();
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }
}
