//! The JSON pull parser [`Deserialize`](crate::Deserialize) impls read from.

use crate::Error;
use std::borrow::Cow;

/// A parsed JSON number: integers stay exact (wide enough for `u64` and
/// `i64`), anything with a fraction or exponent is a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Number {
    /// An integer literal.
    Int(i128),
    /// A float literal (or an integer too wide for `i128`).
    Float(f64),
}

/// A pull parser over JSON bytes.  Each call skips leading whitespace and
/// consumes one token or value; nothing is buffered.
///
/// Containers mirror [`Writer`](crate::Writer): `begin_array`, then
/// `next_element` until it returns `false` (it consumes the `,` or `]`),
/// likewise `begin_object` and `next_key`.  As in the writer, one `first`
/// flag is enough state: it tells whether the innermost open container has
/// yielded an item, and closing a container clears it, which is the state
/// of the enclosing container that just yielded that container.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    first: bool,
}

impl<'a> Reader<'a> {
    /// A parser positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            first: true,
        }
    }

    /// Checks that only whitespace follows the parsed value.
    pub fn end(mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(Error::custom("trailing characters after JSON value")),
        }
    }

    /// The next non-whitespace byte, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    /// An error naming what was expected and the byte offset reached.
    pub(crate) fn error(&mut self, expected: &str) -> Error {
        match self.peek() {
            None => Error::custom(format!("expected {expected}, found end of JSON input")),
            Some(b) => Error::custom(format!(
                "expected {expected} at byte {}, found `{}`",
                self.pos,
                char::from(b)
            )),
        }
    }

    fn eat(&mut self, byte: u8, expected: &str) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(expected))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        self.peek();
        let found = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if found {
            self.pos += literal.len();
        }
        found
    }

    /// Consumes a `null` if one comes next.
    pub(crate) fn null(&mut self) -> bool {
        self.eat_literal("null")
    }

    /// Parses `true` or `false`.
    pub(crate) fn boolean(&mut self) -> Result<bool, Error> {
        if self.eat_literal("true") {
            Ok(true)
        } else if self.eat_literal("false") {
            Ok(false)
        } else {
            Err(self.error("bool"))
        }
    }

    /// Parses a number.
    pub(crate) fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error("number"));
        }
        let start = self.pos;
        let negative = self.bytes[start] == b'-';
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        let mut magnitude: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let int_end = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        // Up to 19 digits cannot overflow the accumulator.
        if self.pos == int_end && (1..=19).contains(&(int_end - digits)) {
            let m = i128::from(magnitude);
            return Ok(Number::Int(if negative { -m } else { m }));
        }
        // Floats, and integers too wide for the fast path: the scanned text
        // is ASCII, so it is valid UTF-8.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let parsed = if self.pos == int_end {
            text.parse::<i128>()
                .map(Number::Int)
                .or_else(|_| text.parse::<f64>().map(Number::Float))
                .ok()
        } else {
            text.parse::<f64>().map(Number::Float).ok()
        };
        parsed.ok_or_else(|| Error::custom(format!("invalid number `{text}`")))
    }

    /// Parses a string, borrowing it from the input when it has no escapes.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.eat(b'"', "string")?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[run..self.pos])
                .map_err(|e| Error::custom(format!("invalid UTF-8 in string: {e}")))?;
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::custom("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(text),
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(text);
            let c = self.escape()?;
            s.push(c);
        }
    }

    /// Decodes the escape after a `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(&esc) = self.bytes.get(self.pos) else {
            return Err(Error::custom("unterminated escape"));
        };
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xD800..=0xDBFF => {
                        let lo = if self.bytes[self.pos..].starts_with(b"\\u") {
                            self.pos += 2;
                            self.hex4()?
                        } else {
                            0
                        };
                        if !(0xDC00..=0xDFFF).contains(&lo) {
                            return Err(Error::custom(format!(
                                "high surrogate \\u{hi:04X} is not followed by a low surrogate"
                            )));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    }
                    0xDC00..=0xDFFF => {
                        return Err(Error::custom(format!("lone low surrogate \\u{hi:04X}")))
                    }
                    _ => hi,
                };
                char::from_u32(code).ok_or_else(|| Error::custom("invalid \\u escape"))?
            }
            other => {
                return Err(Error::custom(format!(
                    "invalid escape `\\{}`",
                    char::from(other)
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let code = std::str::from_utf8(hex)
            .ok()
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| Error::custom("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consumes the `[` of an array.
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.eat(b'[', "array")?;
        self.first = true;
        Ok(())
    }

    /// Moves to the next array item: `true` when one follows, `false` once
    /// the closing `]` is consumed.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b']') => {
                self.pos += 1;
                self.first = false;
                Ok(false)
            }
            _ if self.first => {
                self.first = false;
                Ok(true)
            }
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.error("`,` or `]` in array")),
        }
    }

    /// Like [`next_element`](Self::next_element) for an array of fixed
    /// length: fails unless an item follows.
    pub fn expect_element(&mut self, what: &str) -> Result<(), Error> {
        if self.next_element()? {
            Ok(())
        } else {
            Err(Error::custom(format!("wrong arity for `{what}`")))
        }
    }

    /// Closes an array of fixed length: fails unless the `]` follows.
    pub fn expect_end_array(&mut self, what: &str) -> Result<(), Error> {
        if self.next_element()? {
            Err(Error::custom(format!("wrong arity for `{what}`")))
        } else {
            Ok(())
        }
    }

    /// Consumes the `{` of an object.
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.eat(b'{', "object")?;
        self.first = true;
        Ok(())
    }

    /// Moves to the next object member and consumes its key and colon:
    /// `None` once the closing `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.first = false;
                return Ok(None);
            }
            _ if self.first => self.first = false,
            Some(b',') => self.pos += 1,
            _ => return Err(self.error("`,` or `}` in object")),
        }
        let key = self.string()?;
        self.eat(b':', "`:`")?;
        Ok(Some(key))
    }

    /// Parses and discards one value of any type.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        <crate::Value as crate::Deserialize>::deserialize(self).map(drop)
    }
}
