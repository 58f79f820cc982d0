//! The JSON writer [`Serialize`](crate::Serialize) impls write into.

use std::fmt::Write as _;

/// A newline followed by the indentation of pretty output, sliced to the
/// depth at hand.
const NEWLINE_INDENT: &str = "\n                                                                ";

/// The two-digit decimal pairs `00` to `99`.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// A JSON writer into a `String` buffer, compact or pretty (two-space
/// indent, `"key": value`, empty containers as `[]`/`{}`).
///
/// Containers are written as a flat sequence of calls: `begin_array`, then
/// `element` before each item, then `end_array` (likewise `begin_object`,
/// `key`, `end_object`).  One `first` flag is enough to place the commas:
/// every container's end leaves it `false`, which is exactly the state of
/// the enclosing container that just received that container as an item.
#[derive(Debug)]
pub struct Writer {
    out: String,
    pretty: bool,
    depth: usize,
    first: bool,
}

impl Writer {
    /// A compact writer (no whitespace).
    pub fn compact() -> Writer {
        Writer {
            out: String::new(),
            pretty: false,
            depth: 0,
            first: true,
        }
    }

    /// A pretty writer for a top-level value.
    pub fn pretty() -> Writer {
        Writer::pretty_at(String::new(), 0)
    }

    /// A pretty writer appending to `out`, laid out as if the value written
    /// were an item `depth` containers deep: its inner lines are indented
    /// by `2 * (depth + 1)` spaces and its closing bracket by `2 * depth`.
    pub fn pretty_at(out: String, depth: usize) -> Writer {
        Writer {
            out,
            pretty: true,
            depth,
            first: true,
        }
    }

    /// The written JSON.
    pub fn into_string(self) -> String {
        self.out
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn boolean(&mut self, v: bool) {
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, v: u64) {
        if v >= 100 {
            self.uint(v / 100);
        }
        let pair = 2 * (v % 100) as usize;
        let skip = usize::from(v < 10);
        self.out.push_str(&DIGIT_PAIRS[pair + skip..pair + 2]);
    }

    /// Writes a signed integer.
    pub(crate) fn int(&mut self, v: i128) {
        let _ = write!(self.out, "{v}");
    }

    /// Writes a float in Rust's shortest round-trippable form, with a
    /// fractional part forced so it re-parses as a float; non-finite values
    /// are written as `null`.
    pub(crate) fn float(&mut self, v: f64) {
        if !v.is_finite() {
            return self.null();
        }
        let start = self.out.len();
        let _ = write!(self.out, "{v}");
        if !self.out[start..].contains(['.', 'e', 'E']) {
            self.out.push_str(".0");
        }
    }

    /// Writes a string, escaping `"`, `\` and control characters.
    pub fn string(&mut self, s: &str) {
        self.out.push('"');
        let mut run = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Every byte matched above is ASCII, so `i` is a char boundary.
            self.out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(escape);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.open('[');
    }

    /// Starts the next array item.
    pub fn element(&mut self) {
        self.separate();
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.close(']');
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.open('{');
    }

    /// Starts the next object member: writes its key and the colon.
    pub fn key(&mut self, key: &str) {
        self.separate();
        self.string(key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.close('}');
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
        self.first = true;
    }

    fn separate(&mut self) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.newline();
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.first {
            self.newline();
        }
        self.out.push(bracket);
        self.first = false;
    }

    fn newline(&mut self) {
        if self.pretty {
            let width = 2 * self.depth;
            let sliced = width.min(NEWLINE_INDENT.len() - 1);
            self.out.push_str(&NEWLINE_INDENT[..1 + sliced]);
            for _ in sliced..width {
                self.out.push(' ');
            }
        }
    }
}
