//! Minimal offline stand-in for `serde_json`: the entry points over the
//! vendored serde shim's JSON [`Writer`] and pull parser ([`Reader`]).
//!
//! Supports the functions used in this workspace: [`to_string`],
//! [`to_string_pretty`], [`to_vec`], [`to_vec_pretty`], [`from_str`] and
//! [`from_slice`].  Values are written and parsed directly, without an
//! intermediate tree; [`Value`] is just one more type that serializes and
//! parses itself.  Output is valid JSON; integers round-trip exactly
//! (including `u64`), floats use Rust's shortest round-trippable formatting,
//! and non-finite floats serialize as `null` (deserializing back to `NaN`).
//! Pretty output indents by two spaces; [`Writer::pretty_at`] starts it at
//! a given depth, so a fragment can be spliced into an enclosing document.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde::{Error, Reader, Value, Writer};

fn write<T: serde::Serialize + ?Sized>(mut w: Writer, value: &T) -> Result<String, Error> {
    value.serialize(&mut w);
    Ok(w.into_string())
}

/// Serializes `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    write(Writer::compact(), value)
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    write(Writer::pretty(), value)
}

/// Serializes `value` as pretty-printed JSON bytes.
pub fn to_vec_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string_pretty(value).map(String::into_bytes)
}

/// Serializes `value` as compact JSON bytes.
pub fn to_vec<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Parses a value of type `T` from a JSON string.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    from_slice(s.as_bytes())
}

/// Parses a value of type `T` from JSON bytes.
pub fn from_slice<T: serde::Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let mut reader = Reader::new(bytes);
    let value = T::deserialize(&mut reader)?;
    reader.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(
            from_str::<u64>(&to_string(&u64::MAX).unwrap()).unwrap(),
            u64::MAX
        );
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
        assert_eq!(from_str::<f64>("1.5e3").unwrap(), 1500.0);
        assert_eq!(to_string(&"a\"b\n\u{1}").unwrap(), r#""a\"b\n\u0001""#);
        assert_eq!(
            from_str::<String>(r#""a\"b\n\u0001""#).unwrap(),
            "a\"b\n\u{1}"
        );
        assert_eq!(from_str::<String>(r#""é😀""#).unwrap(), "é😀");
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "😀");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, "one".to_string()), (2, "two".to_string())];
        let json = to_string_pretty(&v).unwrap();
        assert_eq!(
            json,
            "[\n  [\n    1,\n    \"one\"\n  ],\n  [\n    2,\n    \"two\"\n  ]\n]"
        );
        let back: Vec<(u32, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
        assert_eq!(to_string_pretty(&Vec::<u8>::new()).unwrap(), "[]");
    }

    #[test]
    fn pretty_at_lays_out_a_nested_fragment() {
        let mut w = Writer::pretty_at(String::from("["), 1);
        serde::Serialize::serialize(&vec![1u8], &mut w);
        assert_eq!(w.into_string(), "[[\n    1\n  ]");
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_str::<Vec<u32>>("[1, 2").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_slice::<String>(b"\"\xff\"").is_err());
    }

    #[test]
    fn a_high_surrogate_needs_a_low_one() {
        for bad in [
            r#""\ud800\u0041""#,
            r#""\ud800A""#,
            r#""\ud800""#,
            r#""\ud800x""#,
            r#""\ud800\ud800""#,
            r#""\udc00""#,
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad} must be rejected");
            assert!(from_str::<String>(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn integers_never_saturate() {
        assert!(from_str::<u8>("300.0").is_err());
        assert!(from_str::<u32>("-1.0").is_err());
        assert!(from_str::<u32>("2.5").is_err());
        assert_eq!(from_str::<u32>("7.0").unwrap(), 7);
    }
}
