//! Minimal typed flag parser — `--key value` pairs after a subcommand,
//! with defaults and validation. Hand-rolled to keep the workspace
//! dependency-light.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: the subcommand plus its `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    command: String,
    flags: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Errors from command-line parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand was given.
    MissingCommand,
    /// A flag was given without a value, or a bare value appeared.
    Malformed(String),
    /// A required flag is absent.
    MissingFlag(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// What was supplied.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Flags were supplied that the subcommand does not understand.
    UnknownFlags(Vec<String>),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand (try `cps help`)"),
            ArgsError::Malformed(what) => write!(f, "malformed argument {what:?}"),
            ArgsError::MissingFlag(flag) => write!(f, "missing required flag --{flag}"),
            ArgsError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag} {value:?}: expected {expected}"),
            ArgsError::UnknownFlags(flags) => {
                write!(f, "unknown flags: {}", flags.join(", "))
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses `argv[1..]`: the first token is the subcommand, the rest
    /// must be `--key value` pairs.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingCommand`] / [`ArgsError::Malformed`].
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgsError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into);
        let command = it.next().ok_or(ArgsError::MissingCommand)?;
        let mut flags = BTreeMap::new();
        while let Some(token) = it.next() {
            let key = token
                .strip_prefix("--")
                .ok_or_else(|| ArgsError::Malformed(token.clone()))?
                .to_string();
            let value = it
                .next()
                .ok_or_else(|| ArgsError::Malformed(token.clone()))?;
            flags.insert(key, value);
        }
        Ok(Args {
            command,
            flags,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// The subcommand name.
    pub fn command(&self) -> &str {
        &self.command
    }

    fn raw(&self, flag: &str) -> Option<&str> {
        let v = self.flags.get(flag).map(String::as_str);
        if v.is_some() {
            self.consumed.borrow_mut().push(flag.to_string());
        }
        v
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// [`ArgsError::MissingFlag`].
    pub fn require(&self, flag: &str) -> Result<String, ArgsError> {
        self.raw(flag)
            .map(str::to_string)
            .ok_or_else(|| ArgsError::MissingFlag(flag.to_string()))
    }

    /// An optional string flag with a default.
    pub fn string_or(&self, flag: &str, default: &str) -> String {
        self.raw(flag).unwrap_or(default).to_string()
    }

    /// An optional `f64` flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`].
    pub fn f64_or(&self, flag: &str, default: f64) -> Result<f64, ArgsError> {
        match self.raw(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: "a number",
            }),
        }
    }

    /// An optional `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`].
    pub fn usize_or(&self, flag: &str, default: usize) -> Result<usize, ArgsError> {
        match self.raw(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// An optional `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`].
    pub fn u64_or(&self, flag: &str, default: u64) -> Result<u64, ArgsError> {
        match self.raw(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// An optional boolean flag with a default; accepts
    /// `on`/`off`/`true`/`false`/`1`/`0`.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`].
    pub fn bool_or(&self, flag: &str, default: bool) -> Result<bool, ArgsError> {
        match self.raw(flag) {
            None => Ok(default),
            Some("on") | Some("true") | Some("1") => Ok(true),
            Some("off") | Some("false") | Some("0") => Ok(false),
            Some(v) => Err(ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: "on|off",
            }),
        }
    }

    /// An optional `u32` flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgsError::BadValue`].
    pub fn u32_or(&self, flag: &str, default: u32) -> Result<u32, ArgsError> {
        match self.raw(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: flag.to_string(),
                value: v.to_string(),
                expected: "a non-negative integer",
            }),
        }
    }

    /// Verifies every supplied flag was consumed by one of the typed
    /// getters — catches typos like `--ndoes`.
    ///
    /// # Errors
    ///
    /// [`ArgsError::UnknownFlags`].
    pub fn finish(&self) -> Result<(), ArgsError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .flags
            .keys()
            .filter(|k| !consumed.contains(k))
            .map(|k| format!("--{k}"))
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgsError::UnknownFlags(unknown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(tokens.iter().copied())
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["plan", "--k", "80", "--rc", "10.5"]).unwrap();
        assert_eq!(a.command(), "plan");
        assert_eq!(a.usize_or("k", 0).unwrap(), 80);
        assert_eq!(a.f64_or("rc", 0.0).unwrap(), 10.5);
        a.finish().unwrap();
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let a = parse(&["plan"]).unwrap();
        assert_eq!(a.usize_or("k", 42).unwrap(), 42);
        assert_eq!(a.f64_or("rc", 1.5).unwrap(), 1.5);
        assert_eq!(a.string_or("out", "x.csv"), "x.csv");
        assert_eq!(a.u32_or("hour", 10).unwrap(), 10);
        assert_eq!(a.u64_or("seed", 7).unwrap(), 7);
        assert!(!a.bool_or("resume", false).unwrap());
    }

    #[test]
    fn booleans_accept_switch_spellings() {
        let a = parse(&["simulate", "--resume", "on"]).unwrap();
        assert!(a.bool_or("resume", false).unwrap());
        let b = parse(&["simulate", "--resume", "0"]).unwrap();
        assert!(!b.bool_or("resume", true).unwrap());
        let c = parse(&["simulate", "--resume", "maybe"]).unwrap();
        assert!(matches!(
            c.bool_or("resume", false).unwrap_err(),
            ArgsError::BadValue { .. }
        ));
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            Args::parse(Vec::<String>::new()).unwrap_err(),
            ArgsError::MissingCommand
        );
        assert!(matches!(
            parse(&["plan", "k", "80"]).unwrap_err(),
            ArgsError::Malformed(_)
        ));
        assert!(matches!(
            parse(&["plan", "--k"]).unwrap_err(),
            ArgsError::Malformed(_)
        ));
    }

    #[test]
    fn typed_errors_and_requirements() {
        let a = parse(&["plan", "--k", "eighty"]).unwrap();
        assert!(matches!(
            a.usize_or("k", 0).unwrap_err(),
            ArgsError::BadValue { .. }
        ));
        let b = parse(&["plan"]).unwrap();
        assert_eq!(
            b.require("trace").unwrap_err(),
            ArgsError::MissingFlag("trace".to_string())
        );
    }

    #[test]
    fn unknown_flags_are_reported() {
        let a = parse(&["plan", "--ndoes", "5"]).unwrap();
        let _ = a.usize_or("nodes", 1);
        let err = a.finish().unwrap_err();
        assert!(matches!(err, ArgsError::UnknownFlags(ref f) if f == &vec!["--ndoes".to_string()]));
    }

    #[test]
    fn display_messages_are_actionable() {
        assert!(ArgsError::MissingFlag("k".into())
            .to_string()
            .contains("--k"));
        let e = ArgsError::BadValue {
            flag: "rc".into(),
            value: "x".into(),
            expected: "a number",
        };
        assert!(e.to_string().contains("expected a number"));
    }

    /// Tokens a command line is made of, plus a few malformed ones
    /// (`|`-separated, so the empty token is one of them).
    const TOKENS: &str = "plan|simulate|--k|--threads|--resume|--|-||80|-1|on|1e309|--é|∞";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn parser_never_panics_on_arbitrary_token_lists(
            picks in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
            bytes in prop::collection::vec(0u8..=255, 0..24),
        ) {
            let vocabulary: Vec<&str> = TOKENS.split('|').collect();
            let mut tokens: Vec<String> = picks
                .iter()
                .map(|i| vocabulary[i.index(vocabulary.len())].to_string())
                .collect();
            tokens.push(String::from_utf8_lossy(&bytes).into_owned());
            for argv in [&tokens[..tokens.len() - 1], &tokens[..]] {
                match Args::parse(argv.iter().cloned()) {
                    Ok(args) => {
                        prop_assert_eq!(args.command(), argv[0].as_str());
                        // The typed getters reject, never panic.
                        let _ = args.usize_or("k", 0);
                        let _ = args.f64_or("threads", 0.0);
                        let _ = args.bool_or("resume", false);
                        let _ = args.finish();
                    }
                    Err(err) => prop_assert!(
                        matches!(err, ArgsError::MissingCommand | ArgsError::Malformed(_)),
                        "{argv:?}: {err:?}"
                    ),
                }
            }
        }
    }
}
