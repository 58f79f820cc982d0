//! Minimal, dependency-free stand-in for `serde` (plus its derive macros).
//!
//! The build environment of this workspace has no access to crates.io, so
//! this shim provides the slice of serde that the pipeline uses: the
//! [`Serialize`] / [`Deserialize`] traits, `#[derive(Serialize, Deserialize)]`
//! (re-exported from the companion `serde_derive` proc-macro crate, with
//! support for the `#[serde(skip)]` and `#[serde(default)]` attributes), and
//! impls for the std types that appear in the data model.
//!
//! Unlike upstream serde there is no `Serializer`/`Deserializer`
//! abstraction: JSON is the only format.  [`Serialize`] writes straight into
//! a JSON [`Writer`] (compact, or pretty from a given start depth) and
//! [`Deserialize`] reads straight from [`Reader`], a pull parser over the
//! input bytes, so no intermediate tree is built in either direction.
//! [`Value`] is a plain JSON value type that serializes and parses itself
//! like any other.  The companion `serde_json` shim holds the entry points
//! (`to_string`, `from_str`, ...).  Round-trips are lossless for every type
//! in this workspace: integers are read and written exactly, so `u64` seeds
//! survive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

use read::Number;
pub use read::Reader;
pub use write::Writer;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (wide enough to hold `u64` and `i64` exactly).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Error produced by deserialization (and re-used by the `serde_json` shim).
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serde error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can be written as JSON.
pub trait Serialize {
    /// Writes `self` as one JSON value.
    fn serialize(&self, w: &mut Writer);
}

/// Types that can be read from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value as `Self`.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl Serialize for Value {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Value::Null => w.null(),
            Value::Bool(b) => w.boolean(*b),
            Value::Int(i) => w.int(*i),
            Value::Float(f) => w.float(*f),
            Value::Str(s) => w.string(s),
            Value::Array(items) => items.serialize(w),
            Value::Object(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    w.key(key);
                    value.serialize(w);
                }
                w.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match r.peek() {
            Some(b'n') if r.null() => Value::Null,
            Some(b't' | b'f') => Value::Bool(r.boolean()?),
            Some(b'-' | b'0'..=b'9') => match r.number()? {
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            },
            Some(b'"') => Value::Str(r.string()?.into_owned()),
            Some(b'[') => Value::Array(Vec::deserialize(r)?),
            Some(b'{') => {
                r.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    fields.push((key.into_owned(), Value::deserialize(r)?));
                }
                Value::Object(fields)
            }
            _ => return Err(r.error("a JSON value")),
        })
    }
}

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.boolean(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.boolean()
    }
}

macro_rules! impl_int {
    ($write:ident as $wide:ty: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.$write(*self as $wide)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let out_of_range = || Error::custom(concat!("integer out of range for ", stringify!($t)));
                match r.number()? {
                    Number::Int(i) => <$t>::try_from(i).map_err(|_| out_of_range()),
                    // An integral float converts only when it is exactly an
                    // integer in range: never saturate, never truncate.
                    Number::Float(f) if f.fract() == 0.0 && f.abs() < 2f64.powi(127) => {
                        <$t>::try_from(f as i128).map_err(|_| out_of_range())
                    }
                    Number::Float(_) => Err(Error::custom(concat!("expected integer for ", stringify!($t)))),
                }
            }
        }
    )*};
}

impl_int!(uint as u64: u8, u16, u32, u64, usize);
impl_int!(int as i128: i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut Writer) {
                w.float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                // Non-finite floats serialize as JSON null.
                if r.null() {
                    return Ok(<$t>::NAN);
                }
                Ok(match r.number()? {
                    Number::Float(f) => f as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.string(self)
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.string(self)
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.string().map(|s| s.into_owned())
    }
}

impl Serialize for char {
    fn serialize(&self, w: &mut Writer) {
        w.string(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            None => w.null(),
            Some(x) => x.serialize(w),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.null() {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

/// Writes the items of a sequence as a JSON array.
fn write_seq(w: &mut Writer, items: impl IntoIterator<Item = impl Serialize>) {
    w.begin_array();
    for item in items {
        w.element();
        item.serialize(w);
    }
    w.end_array();
}

/// Reads a JSON array into any collection.
fn read_seq<T: Deserialize, C: Default + Extend<T>>(r: &mut Reader<'_>) -> Result<C, Error> {
    let mut out = C::default();
    r.begin_array()?;
    while r.next_element()? {
        out.extend(Some(T::deserialize(r)?));
    }
    Ok(out)
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let items = Vec::<T>::deserialize(r)?;
        <[T; N]>::try_from(items).map_err(|_| Error::custom("wrong array length"))
    }
}

macro_rules! impl_seq {
    ($($t:ident<T $(: $bound:ident $(+ $more:ident)*)? $(, $s:ident: $sbound:ident)?>),*) => {$(
        impl<T: Serialize $(+ $bound $(+ $more)*)? $(, $s: $sbound)?> Serialize for $t<T $(, $s)?> {
            fn serialize(&self, w: &mut Writer) {
                write_seq(w, self)
            }
        }
        impl<T: Deserialize $(+ $bound $(+ $more)*)? $(, $s: $sbound + Default)?> Deserialize for $t<T $(, $s)?> {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                read_seq(r)
            }
        }
    )*};
}

impl_seq!(Vec<T>, VecDeque<T>, BTreeSet<T: Ord>, HashSet<T: Eq + Hash, S: BuildHasher>);

// Maps serialize as arrays of `[key, value]` pairs: keys in this workspace
// are not always strings, and the representation only needs to round-trip
// through this shim.
impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self)
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq::<(K, V), _>(r)
    }
}

impl<K: Serialize + Eq + Hash, V: Serialize, S: BuildHasher> Serialize for HashMap<K, V, S> {
    fn serialize(&self, w: &mut Writer) {
        write_seq(w, self)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        read_seq::<(K, V), _>(r)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, w: &mut Writer) {
                w.begin_array();
                $(
                    w.element();
                    self.$idx.serialize(w);
                )+
                w.end_array();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.begin_array()?;
                let value = ($({
                    r.expect_element("tuple")?;
                    $name::deserialize(r)?
                },)+);
                r.expect_end_array("tuple")?;
                Ok(value)
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

impl Serialize for () {
    fn serialize(&self, w: &mut Writer) {
        w.null()
    }
}

impl Deserialize for () {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.skip_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compact<T: Serialize + ?Sized>(value: &T) -> String {
        let mut w = Writer::compact();
        value.serialize(&mut w);
        w.into_string()
    }

    fn parse<T: Deserialize>(json: &str) -> Result<T, Error> {
        let mut r = Reader::new(json.as_bytes());
        let value = T::deserialize(&mut r)?;
        r.end().map(|()| value)
    }

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
        parse(&compact(value)).unwrap()
    }

    #[test]
    fn primitive_round_trips() {
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&i64::MIN), i64::MIN);
        assert_eq!(round_trip(&-7i64), -7);
        assert_eq!(round_trip(&"hi".to_string()), "hi");
        assert_eq!(round_trip(&vec![1u32, 2, 3]), vec![1, 2, 3]);
        assert_eq!(round_trip(&None::<u32>), None);
        assert_eq!(round_trip(&'é'), 'é');
    }

    #[test]
    fn map_round_trip_with_non_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_string());
        m.insert(7, "seven".to_string());
        assert_eq!(compact(&m), r#"[[3,"three"],[7,"seven"]]"#);
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn integral_floats_convert_only_exactly_and_in_range() {
        assert_eq!(parse::<u8>("255.0").unwrap(), 255);
        assert_eq!(parse::<i32>("-3.0").unwrap(), -3);
        assert_eq!(parse::<u64>("1e3").unwrap(), 1000);
        assert!(parse::<u8>("300.0").is_err());
        assert!(parse::<u8>("256").is_err());
        assert!(parse::<u32>("-1.0").is_err());
        assert!(parse::<u32>("-1").is_err());
        assert!(parse::<u32>("1.5").is_err());
        assert!(parse::<u64>("1e300").is_err());
        assert!(parse::<u64>("18446744073709551616.0").is_err());
        assert!(parse::<i64>("-1e19").is_err());
    }

    #[test]
    fn tuples_must_have_their_exact_length() {
        assert_eq!(parse::<(u8, bool)>("[1, true]").unwrap(), (1, true));
        assert!(parse::<(u8, bool)>("[1]").is_err());
        assert!(parse::<(u8, bool)>("[1, true, 2]").is_err());
    }

    #[test]
    fn value_parses_itself_and_unknown_shapes_are_rejected() {
        let v: Value = parse(r#" {"a": [1, -2.5, null, true], "b": {}} "#).unwrap();
        assert_eq!(
            v,
            Value::Object(vec![
                (
                    "a".into(),
                    Value::Array(vec![
                        Value::Int(1),
                        Value::Float(-2.5),
                        Value::Null,
                        Value::Bool(true)
                    ])
                ),
                ("b".into(), Value::Object(Vec::new())),
            ])
        );
        assert_eq!(compact(&v), r#"{"a":[1,-2.5,null,true],"b":{}}"#);
        assert!(parse::<Value>("nul").is_err());
        assert!(parse::<Value>("[1,]").is_err());
        assert!(parse::<Value>(r#"{"a":1,}"#).is_err());
        assert!(parse::<Value>("[1 2]").is_err());
    }
}
