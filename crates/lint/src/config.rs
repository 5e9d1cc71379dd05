//! `lint.toml` parsing: a hand-rolled parser for the TOML subset the
//! configuration actually uses (no external deps, offline like the shims).
//!
//! Supported grammar: `[section.sub]` headers, `key = ["a", "b"]` (arrays
//! of strings, which may span lines), and `#` comments. That is the whole
//! surface `lint.toml` needs; anything else — including a section for a rule
//! this linter does not have — is a hard configuration error, never a silent
//! skip. Every rule is deny: a finding fails the run unless path scoping or
//! an inline waiver removes it.

use crate::rules::RULES;
use std::collections::BTreeMap;

/// Per-rule configuration.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Path prefixes (relative, `/`-separated) the rule applies to; empty
    /// means every scanned file.
    pub paths: Vec<String>,
    /// Exact relative file paths whose functions seed P001's reachability
    /// walk (the protocol entry points). Ignored by every other rule.
    pub entry_paths: Vec<String>,
}

/// The whole `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories (or files) scanned, relative to the workspace root.
    pub include: Vec<String>,
    /// Path prefixes never scanned (fixture corpora, generated code).
    pub exclude: Vec<String>,
    /// Per-rule settings, keyed by rule id (`U001`, …). Rules absent from
    /// the file run with [`RuleConfig::default`] (everywhere).
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Config {
    /// Parse `lint.toml` text.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        for (section, key, value) in parse_toml(text)? {
            match (section.as_str(), key.as_str()) {
                ("lint", "include") => cfg.include = value,
                ("lint", "exclude") => cfg.exclude = value,
                ("lint", other) => return Err(format!("unknown [lint] key {other:?}")),
                (sec, k) => {
                    let rule_id = sec
                        .strip_prefix("rules.")
                        .ok_or_else(|| format!("unknown section [{sec}]"))?;
                    if !RULES.iter().any(|r| r.id == rule_id) {
                        return Err(format!("unknown rule [rules.{rule_id}]"));
                    }
                    let rule = cfg.rules.entry(rule_id.to_string()).or_default();
                    match k {
                        "paths" => rule.paths = value,
                        "entry_paths" => rule.entry_paths = value,
                        other => return Err(format!("unknown key {other:?} in [rules.{rule_id}]")),
                    }
                }
            }
        }
        Ok(cfg)
    }

    /// The effective configuration for `rule_id` (default: everywhere).
    pub fn rule(&self, rule_id: &str) -> RuleConfig {
        self.rules.get(rule_id).cloned().unwrap_or_default()
    }

    /// True when `rel_path` is inside the rule's scope: matched by `paths`,
    /// or `paths` is empty.
    pub fn rule_applies(&self, rule_id: &str, rel_path: &str) -> bool {
        let rc = self.rule(rule_id);
        rc.paths.is_empty()
            || rc.paths.iter().any(|p| p == "." || rel_path == p.as_str() || is_under(rel_path, p))
    }

    /// True when `rel_path` falls under an `exclude` prefix.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| rel_path == p.as_str() || is_under(rel_path, p))
    }
}

/// Component-wise prefix test: `crates/core/x.rs` is under `crates/core`,
/// `crates/core2/x.rs` is not.
fn is_under(rel_path: &str, prefix: &str) -> bool {
    rel_path.strip_prefix(prefix).is_some_and(|rest| rest.starts_with('/'))
}

/// Flatten the file into `(section, key, value)` triples.
fn parse_toml(text: &str) -> Result<Vec<(String, String, Vec<String>)>, String> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((k, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let lineno = k + 1;
        if let Some(name) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            section = name.trim().to_string();
            continue;
        }
        let (key, mut value) = line
            .split_once('=')
            .map(|(a, b)| (a.trim().to_string(), b.trim().to_string()))
            .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`"))?;
        // Arrays may span lines: accumulate until the bracket closes.
        if value.starts_with('[') {
            while !bracket_closed(&value) {
                let (_, cont) = lines
                    .next()
                    .ok_or_else(|| format!("lint.toml:{lineno}: unterminated array"))?;
                value.push(' ');
                value.push_str(strip_comment(cont).trim());
            }
        }
        let parsed = parse_value(&value)
            .map_err(|e| format!("lint.toml:{lineno}: {e} (value: {value:?})"))?;
        out.push((section.clone(), key, parsed));
    }
    Ok(out)
}

/// Strip a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_closed(accum: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0i32;
    for c in accum.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

/// An array of strings — the only value shape `lint.toml` has.
fn parse_value(v: &str) -> Result<Vec<String>, String> {
    let inner = v
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or("expected an array of strings")?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        let s = part
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .ok_or("arrays may only hold strings")?;
        if s.contains('"') {
            return Err("string with embedded quote".into());
        }
        items.push(s.to_string());
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# top comment
[lint]
include = ["crates", "src"] # trailing comment
exclude = [
    "crates/lint/tests/fixtures",
]

[rules.U001]
paths = ["crates/core"]

[rules.P001]
paths = ["crates"]
entry_paths = ["crates/serve/src/protocol.rs"]
"#;

    #[test]
    fn parses_sections_and_arrays() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.include, vec!["crates", "src"]);
        assert_eq!(cfg.exclude, vec!["crates/lint/tests/fixtures"]);
        assert_eq!(cfg.rule("U001").paths, vec!["crates/core"]);
        assert_eq!(cfg.rule("P001").entry_paths, vec!["crates/serve/src/protocol.rs"]);
        // Unconfigured rules default to everywhere.
        assert!(cfg.rule("H001").paths.is_empty());
    }

    #[test]
    fn rule_scoping_and_exclusion() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert!(cfg.rule_applies("U001", "crates/core/src/force.rs"));
        assert!(!cfg.rule_applies("U001", "crates/sim/src/lib.rs"));
        assert!(cfg.rule_applies("P001", "crates/sim/src/lib.rs"));
        assert!(!cfg.rule_applies("P001", "src/main.rs"));
        assert!(cfg.rule_applies("H001", "anything/at/all.rs"));
        assert!(cfg.is_excluded("crates/lint/tests/fixtures/u001.rs"));
        assert!(!cfg.is_excluded("crates/lint/tests/fixtures.rs"));
    }

    #[test]
    fn prefix_match_is_component_wise() {
        let mut cfg = Config::default();
        cfg.rules.insert(
            "U001".into(),
            RuleConfig { paths: vec!["crates/core".into()], ..Default::default() },
        );
        assert!(!cfg.rule_applies("U001", "crates/core2/src/lib.rs"));
    }

    #[test]
    fn errors_are_loud() {
        assert!(Config::parse("[lint]\ninclude = 5\n").is_err());
        assert!(Config::parse("[lint]\ninclude = \"crates\"\n").is_err());
        assert!(Config::parse("[lint]\nbogus = [\"x\"]\n").is_err());
        assert!(Config::parse("[typo]\nx = [\"y\"]\n").is_err());
        assert!(Config::parse("[rules.U001]\nbogus = [\"x\"]\n").is_err());
        // Every rule is deny: there is no level to set.
        assert!(Config::parse("[rules.U001]\nlevel = \"deny\"\n").is_err());
        // A section for a rule this linter does not have is a stale config.
        assert!(Config::parse("[rules.D001]\npaths = [\"crates\"]\n").is_err());
    }
}
