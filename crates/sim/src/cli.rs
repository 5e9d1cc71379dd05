//! The workspace's one command-line parser.
//!
//! `grape6`, `grape6-serve`, `grape6-conformance` and the bench binaries
//! read their flags through [`Flags`]: `--key value` pairs and bare
//! switches from a fixed set. Anything a binary would not read — an unknown
//! flag, a stray argument, a flag given twice, a valued flag followed by
//! nothing or by another `--` token, a value that does not parse — is a
//! usage error, never a default: a typo in `large_n_smoke --n` must not
//! start the 1.8M-body run. This module words the message; the binary's
//! [`Fail`] prints it and chooses the exit status.

use std::str::FromStr;

/// What a binary does with a usage error: print the message with its own
/// prefix and exit with its own status.
pub type Fail = fn(&str) -> !;

/// A command line checked against a fixed set of valued flags and switches.
pub struct Flags {
    /// Each flag given, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
    fail: Fail,
}

impl Flags {
    /// Read the process's command line, whose flags must all be among
    /// `valued` and `switches`. Call it first in `main`, so that a bad
    /// command line does no work.
    pub fn from_env(valued: &[&str], switches: &[&str], fail: Fail) -> Self {
        Self::from_args(std::env::args().skip(1), "", valued, switches, fail)
            .unwrap_or_else(|msg| fail(&msg))
    }

    /// Read `<subcommand> [flags]` from the process's command line: the
    /// first argument names a row of `commands` (name, valued flags,
    /// switches, what the binary runs for it) and the rest must be that
    /// row's flags.
    pub fn subcommand_from_env<T: Copy>(
        commands: &[(&str, &[&str], &[&str], T)],
        fail: Fail,
    ) -> (T, Self) {
        let mut args = std::env::args().skip(1);
        let name = args.next().unwrap_or_default();
        let Some(&(_, valued, switches, run)) = commands.iter().find(|c| c.0 == name) else {
            fail("missing or unknown subcommand");
        };
        let flags = Self::from_args(args, &format!(" for {name}"), valued, switches, fail);
        (run, flags.unwrap_or_else(|msg| fail(&msg)))
    }

    /// The flags of `args`, or the first token that breaks the rules;
    /// `context` ends an unknown-token message (` for run`).
    fn from_args(
        args: impl IntoIterator<Item = String>,
        context: &str,
        valued: &[&str],
        switches: &[&str],
        fail: Fail,
    ) -> Result<Self, String> {
        let mut args = args.into_iter();
        let mut flags = Self { given: Vec::new(), fail };
        while let Some(key) = args.next() {
            let value = if valued.contains(&key.as_str()) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => Some(value),
                    _ => return Err(format!("{key} needs a value")),
                }
            } else if switches.contains(&key.as_str()) {
                None
            } else {
                let what = if key.starts_with("--") { "unknown flag" } else { "stray argument" };
                return Err(format!("{what} '{key}'{context}"));
            };
            if flags.has(&key) {
                return Err(format!("{key} given twice"));
            }
            flags.given.push((key, value));
        }
        Ok(flags)
    }

    /// The value of `key`, or `None` when the flag is absent; a value that
    /// does not parse as a `T` is a usage error naming the flag and the text.
    pub fn get<T: FromStr>(&self, key: &str) -> Option<T> {
        let text = self.given.iter().find(|(k, _)| k == key)?.1.as_deref()?;
        let invalid = || (self.fail)(&format!("invalid value '{text}' for {key}"));
        Some(text.parse().unwrap_or_else(|_| invalid()))
    }

    /// The value of `key`, or `default` when the flag is absent.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> T {
        self.get(key).unwrap_or(default)
    }

    /// Whether `key` was given.
    pub fn has(&self, key: &str) -> bool {
        self.given.iter().any(|(k, _)| k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fail(msg: &str) -> ! {
        panic!("{msg}")
    }

    fn flags(tokens: &[&str], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        Flags::from_args(tokens.iter().map(|t| t.to_string()), "", valued, switches, fail)
    }

    #[test]
    fn get_or_reads_a_flag_or_returns_the_default() {
        let flags =
            flags(&["--steps", "3", "--quiet", "--n", "2k"], &["--n", "--steps"], &["--quiet"])
                .unwrap();
        assert_eq!(flags.get_or("--t", 2.5f64), 2.5);
        assert_eq!(flags.get_or("--steps", 7u64), 3);
        assert_eq!(flags.get_or("--n", String::new()), "2k");
        assert!(flags.has("--quiet") && flags.has("--n") && !flags.has("--t"));
        assert_eq!(flags.get::<String>("--quiet"), None, "a switch has no value");
    }

    #[test]
    fn from_args_rejects_what_no_lookup_reads() {
        let (valued, switches) = (["--n", "--steps"], ["--broken", "-h"]);
        let err = |tokens: &[&str]| flags(tokens, &valued, &switches).err();
        assert_eq!(err(&[]), None);
        assert_eq!(err(&["--n", "8", "--broken", "--steps", "2", "-h"]), None);
        assert_eq!(err(&["--N", "8"]), Some("unknown flag '--N'".into()));
        assert_eq!(err(&["8"]), Some("stray argument '8'".into()));
        assert_eq!(err(&["--n", "8", "2"]), Some("stray argument '2'".into()));
        assert_eq!(err(&["--n", "--steps", "2"]), Some("--n needs a value".into()));
        assert_eq!(err(&["--n", "--broken"]), Some("--n needs a value".into()));
        assert_eq!(err(&["--steps"]), Some("--steps needs a value".into()));
        assert_eq!(err(&["--n", "3", "--n", "5"]), Some("--n given twice".into()));
        assert_eq!(err(&["--broken", "--broken"]), Some("--broken given twice".into()));
        assert_eq!(err(&["--broken", "1"]), Some("stray argument '1'".into()));
        assert_eq!(flags(&["--n", "8"], &[], &[]).err(), Some("unknown flag '--n'".into()));
        // A subcommand's unknown token names the subcommand.
        let run = |tokens: &[&str]| {
            let args = tokens.iter().map(|t| t.to_string());
            Flags::from_args(args, " for run", &["--engine"], &[], fail).err()
        };
        assert_eq!(run(&["--engin", "grape6"]), Some("unknown flag '--engin' for run".into()));
        assert_eq!(run(&["--engine", "grape6", "x"]), Some("stray argument 'x' for run".into()));
        assert_eq!(run(&["--engine"]), Some("--engine needs a value".into()));
    }
}
