//! The one JSON writer.
//!
//! Every JSON file the binaries write (run reports, fleet outcome
//! lines, lint findings, figure data) goes through [`Writer`]: one place
//! that escapes strings, places commas and renders floats. The build is
//! offline and has no JSON crate; the documents are small and flat, so
//! a left-to-right writer is enough. Arrays hold objects and every
//! scalar is an object field, which is all those documents need.

use std::fmt::Write as _;

/// Appends `text` to `out` as a JSON string literal, quotes included.
pub fn push_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON document under construction, written left to right.
pub struct Writer {
    out: String,
    /// Closers of the objects and arrays still open, innermost last.
    closers: Vec<char>,
    /// Whether the next key or element follows a sibling.
    comma: bool,
}

/// Starts a document whose root is an object.
pub fn object() -> Writer {
    let mut w = Writer::empty();
    w.object();
    w
}

/// Starts a document whose root is an array.
pub fn array() -> Writer {
    let mut w = Writer::empty();
    w.array();
    w
}

impl Writer {
    /// Opens an object: an array element, or a field's value after
    /// [`Writer::key`].
    pub fn object(&mut self) -> &mut Writer {
        self.open('{', '}')
    }

    /// Opens an array, as [`Writer::object`] does.
    pub fn array(&mut self) -> &mut Writer {
        self.open('[', ']')
    }

    /// Closes the innermost open object or array.
    pub fn end(&mut self) -> &mut Writer {
        if let Some(closer) = self.closers.pop() {
            self.out.push(closer);
        }
        self.comma = true;
        self
    }

    /// Names the next value in the open object.
    pub fn key(&mut self, name: &str) -> &mut Writer {
        if self.comma {
            self.out.push(',');
        }
        push_escaped(&mut self.out, name);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// An integer field.
    pub fn uint(&mut self, name: &str, value: u64) -> &mut Writer {
        self.field(name, |out| {
            let _ = write!(out, "{value}");
        })
    }

    /// A `true`/`false` field.
    pub fn boolean(&mut self, name: &str, value: bool) -> &mut Writer {
        self.field(name, |out| {
            out.push_str(if value { "true" } else { "false" })
        })
    }

    /// A string field, escaped.
    pub fn string(&mut self, name: &str, value: &str) -> &mut Writer {
        self.field(name, |out| push_escaped(out, value))
    }

    /// A float field at four decimals; `null` when not finite.
    pub fn float(&mut self, name: &str, value: f64) -> &mut Writer {
        self.field(name, |out| {
            if value.is_finite() {
                let _ = write!(out, "{value:.4}");
            } else {
                out.push_str("null");
            }
        })
    }

    /// Closes everything still open and returns the text.
    pub fn finish(mut self) -> String {
        self.out.extend(self.closers.iter().rev());
        self.out
    }

    fn empty() -> Writer {
        Writer {
            out: String::new(),
            closers: Vec::new(),
            comma: false,
        }
    }

    fn open(&mut self, opener: char, closer: char) -> &mut Writer {
        if self.comma {
            self.out.push(',');
        }
        self.out.push(opener);
        self.closers.push(closer);
        self.comma = false;
        self
    }

    fn field(&mut self, name: &str, value: impl FnOnce(&mut String)) -> &mut Writer {
        self.key(name);
        value(&mut self.out);
        self.comma = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(text: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, text);
        out
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(escaped("a\"b"), "\"a\\\"b\"");
        assert_eq!(escaped("a\\b"), "\"a\\\\b\"");
        assert_eq!(escaped("a\nb\tc\r"), "\"a\\nb\\tc\\r\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("é"), "\"é\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut w = object();
        w.float("nan", f64::NAN)
            .float("inf", f64::INFINITY)
            .float("x", 0.5);
        assert_eq!(w.finish(), "{\"nan\":null,\"inf\":null,\"x\":0.5000}");
    }

    #[test]
    fn commas_separate_siblings_at_every_depth() {
        let mut w = object();
        w.uint("n", 1).key("rows").array();
        for i in 0..2 {
            w.object().uint("i", i).boolean("ok", i == 0).end();
        }
        w.end().key("empty").array().end().string("s", "x");
        assert_eq!(
            w.finish(),
            "{\"n\":1,\"rows\":[{\"i\":0,\"ok\":true},{\"i\":1,\"ok\":false}],\
             \"empty\":[],\"s\":\"x\"}"
        );
        let mut rows = array();
        rows.object().end().object().uint("k", 2);
        assert_eq!(rows.finish(), "[{},{\"k\":2}]");
    }
}
