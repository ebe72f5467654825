//! The one flag reader every binary shares.
//!
//! `superpin`, `spin-serve`, `spin-replay`, `spinlint` and `reproduce`
//! walk their arguments with an [`Args`] cursor and read each flag's
//! value through one typed reader, so a missing value, a malformed
//! value, a value out of range and an unknown flag are rejected the same
//! way everywhere. Every rejection is an [`ArgError`]; each binary prints
//! it behind its own `<bin>: ` prefix and exits 2.

use std::fmt;
use std::str::FromStr;

use superpin_fault::FailPlan;

/// A rejected command line.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgError {
    /// A flag was given without its required value.
    MissingValue(&'static str),
    /// A flag's value failed to parse as the expected shape.
    InvalidValue {
        /// The flag.
        flag: &'static str,
        /// The text it was given.
        value: String,
        /// What would have parsed.
        expected: &'static str,
    },
    /// An unrecognized flag, or a positional argument with no place.
    UnknownFlag(String),
    /// A value out of its range, or flags that contradict each other;
    /// the message names the rule.
    Rule(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "`{flag}` requires a value"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "`{flag}` got `{value}`; expected {expected}"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::Rule(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ArgError {}

/// A cursor over a command line. Iterating yields the next flag or
/// positional argument; the readers consume the value after a flag.
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
}

impl<'a> Args<'a> {
    /// A cursor at the first argument (the program name already dropped).
    pub fn new(args: &'a [String]) -> Args<'a> {
        Args { rest: args.iter() }
    }

    /// The text after `flag`, as given.
    ///
    /// # Errors
    ///
    /// [`ArgError::MissingValue`] at the end of the line.
    pub fn text(&mut self, flag: &'static str) -> Result<&'a str, ArgError> {
        self.next().ok_or(ArgError::MissingValue(flag))
    }

    /// The value after `flag`, read by `parse`; `expected` says what
    /// `parse` accepts.
    ///
    /// # Errors
    ///
    /// A missing value, or [`ArgError::InvalidValue`] when `parse`
    /// returns `None`.
    pub fn parse_with<T>(
        &mut self,
        flag: &'static str,
        expected: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ArgError> {
        let text = self.text(flag)?;
        parse(text).ok_or_else(|| ArgError::InvalidValue {
            flag,
            value: text.to_owned(),
            expected,
        })
    }

    /// The value after `flag`, read with its [`FromStr`].
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`].
    pub fn value<T: FromStr>(
        &mut self,
        flag: &'static str,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        self.parse_with(flag, expected, |text| text.parse().ok())
    }

    /// A two-way switch: `on` and `off` list its accepted spellings.
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`].
    pub fn switch(
        &mut self,
        flag: &'static str,
        on: &[&str],
        off: &[&str],
        expected: &'static str,
    ) -> Result<bool, ArgError> {
        self.parse_with(flag, expected, |text| {
            match (on.contains(&text), off.contains(&text)) {
                (true, _) => Some(true),
                (_, true) => Some(false),
                _ => None,
            }
        })
    }

    /// A byte count in the [`parse_bytes`] grammar.
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`].
    pub fn bytes(&mut self, flag: &'static str) -> Result<u64, ArgError> {
        let expected = "a byte count with optional k/m/g suffix (e.g. 64m)";
        self.parse_with(flag, expected, parse_bytes)
    }

    /// A probability: a number in [0, 1] (NaN is not one).
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`], or [`ArgError::Rule`] out of range.
    pub fn probability(&mut self, flag: &'static str) -> Result<f64, ArgError> {
        let p: f64 = self.value(flag, "a probability in [0, 1]")?;
        if !(0.0..=1.0).contains(&p) {
            return Err(ArgError::Rule(format!(
                "`{flag}` is a probability and must be within [0, 1] (got {p})"
            )));
        }
        Ok(p)
    }

    /// A count no smaller than `min`; `why` follows the rule in the
    /// rejection message.
    ///
    /// # Errors
    ///
    /// As [`Args::parse_with`], or [`ArgError::Rule`] below `min`.
    pub fn at_least(
        &mut self,
        flag: &'static str,
        expected: &'static str,
        min: usize,
        why: &str,
    ) -> Result<usize, ArgError> {
        let n: usize = self.value(flag, expected)?;
        if n < min {
            return Err(ArgError::Rule(format!(
                "`{flag}` must be at least {min}{why}"
            )));
        }
        Ok(n)
    }

    /// `--threads`: a host thread count, at least 1.
    ///
    /// # Errors
    ///
    /// As [`Args::at_least`].
    pub fn threads(&mut self) -> Result<usize, ArgError> {
        self.at_least("--threads", "a thread count", 1, " (1 = serial execution)")
    }
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }
}

/// Parses a byte count with an optional binary `k`/`m`/`g` suffix
/// (case-insensitive): `64m` → 64 MiB. `None` when malformed or when
/// the count overflows a `u64`.
pub fn parse_bytes(text: &str) -> Option<u64> {
    let lower = text.trim().to_ascii_lowercase();
    let (digits, shift) = match lower.as_bytes().last() {
        Some(b'k') => (&lower[..lower.len() - 1], 10),
        Some(b'm') => (&lower[..lower.len() - 1], 20),
        Some(b'g') => (&lower[..lower.len() - 1], 30),
        _ => (lower.as_str(), 0),
    };
    digits.parse::<u64>().ok()?.checked_mul(1 << shift)
}

/// The chaos plan `--chaos-seed` and `--chaos-rate` describe. Either
/// flag arms it: a rate without a seed takes seed 1, and a seed without
/// a rate takes rate 0.01.
pub fn chaos_plan(seed: Option<u64>, rate: Option<f64>) -> Option<FailPlan> {
    (seed.is_some() || rate.is_some())
        .then(|| FailPlan::new(seed.unwrap_or(1), rate.unwrap_or(0.01)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(text: &[&str]) -> Vec<String> {
        text.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn bytes_take_binary_suffixes_and_reject_overflow() {
        assert_eq!(parse_bytes("4096"), Some(4096));
        assert_eq!(parse_bytes("8k"), Some(8 << 10));
        assert_eq!(parse_bytes("64M"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes(" 1m "), Some(1 << 20));
        assert_eq!(parse_bytes("banana"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
        assert_eq!(parse_bytes("99999999999g"), None);
    }

    #[test]
    fn readers_type_their_rejections() {
        let args = line(&["4", "x", "0", "nan", "1.5", "1", "sideways", "64m"]);
        let mut args = Args::new(&args);
        assert_eq!(args.value::<usize>("--n", "a count"), Ok(4));
        assert_eq!(
            args.value::<usize>("--n", "a count"),
            Err(ArgError::InvalidValue {
                flag: "--n",
                value: "x".to_owned(),
                expected: "a count",
            })
        );
        let zero = args.at_least("--threads", "a thread count", 1, " (1 = serial)");
        assert_eq!(
            zero.unwrap_err().to_string(),
            "`--threads` must be at least 1 (1 = serial)"
        );
        for _ in 0..2 {
            let err = args.probability("--chaos-rate").unwrap_err();
            assert!(matches!(err, ArgError::Rule(_)), "{err}");
            assert!(err
                .to_string()
                .starts_with("`--chaos-rate` is a probability"));
        }
        assert_eq!(args.switch("-sp", &["1"], &["0"], "0|1"), Ok(true));
        assert_eq!(
            args.switch("-sp", &["1"], &["0"], "0|1"),
            Err(ArgError::InvalidValue {
                flag: "-sp",
                value: "sideways".to_owned(),
                expected: "0|1",
            })
        );
        assert_eq!(args.bytes("--mem-budget"), Ok(64 << 20));
        assert_eq!(args.text("--tag"), Err(ArgError::MissingValue("--tag")));
        assert_eq!(args.next(), None);
    }

    #[test]
    fn either_chaos_flag_arms_the_plan() {
        assert_eq!(chaos_plan(None, None), None);
        assert_eq!(chaos_plan(Some(3), None), Some(FailPlan::new(3, 0.01)));
        assert_eq!(chaos_plan(None, Some(0.5)), Some(FailPlan::new(1, 0.5)));
        assert_eq!(chaos_plan(Some(2), Some(0.2)), Some(FailPlan::new(2, 0.2)));
    }

    #[test]
    fn messages_read_as_before() {
        assert_eq!(
            ArgError::MissingValue("--threads").to_string(),
            "`--threads` requires a value"
        );
        assert_eq!(
            ArgError::UnknownFlag("--frobnicate".to_owned()).to_string(),
            "unknown flag `--frobnicate`"
        );
    }
}
