//! `grape6-lint`: unsafe-audit, hot-path and concurrency static analysis for
//! the grape6 workspace — the rules clippy cannot express.
//!
//! The workspace's central contract — bit-identical trajectories for any
//! `RAYON_NUM_THREADS`, any fault plan, and across checkpoint/restart — is
//! enforced dynamically by the tier-1 tests. Its type-level source bans
//! (`HashMap`/`HashSet`, `SystemTime`/`Instant::now`,
//! `available_parallelism`/`thread::current`) are `clippy.toml`'s
//! `disallowed-types` / `disallowed-methods`. This crate checks what needs
//! comments, crate structure or a call graph: a `// SAFETY:` comment on
//! every `unsafe` (U001), `#![forbid(unsafe_code)]` in every unsafe-free
//! crate (U002), no heap allocation in `// grape6-lint: hot` kernels (H001),
//! a consistent lock order (C001), no guard held across a blocking call
//! (C002), and no panic reachable from a protocol entry point (P001). Every
//! rule is deny.
//!
//! Everything is hand-rolled (lexer, TOML-subset config parser, file walk)
//! so the tool builds offline with zero external dependencies, like the
//! `shims/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod rules_v2;

use callgraph::CallGraph;
use config::Config;
use lexer::TokKind;
use rules::SourceFile;
use rules_v2::Unit;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// One reportable diagnostic, after path scoping.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// `/`-separated path relative to the linted root.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule id (`U001`, …).
    pub rule: String,
    /// Human-readable description.
    pub message: String,
    /// True when an inline waiver (`allow(RULE)` / `infallible(reason)`)
    /// suppressed the finding: excluded from text output and the exit code,
    /// retained in the `--json` report as an audit trail.
    pub waived: bool,
}

impl Diagnostic {
    fn new(path: &str, line: u32, rule: &str, message: String, waived: bool) -> Self {
        Self { path: path.to_string(), line, rule: rule.to_string(), message, waived }
    }

    /// `path:line: deny [rule] message` — stable, test-assertable format.
    pub fn render(&self) -> String {
        format!("{}:{}: deny [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Lint the tree under `root` according to `cfg`, returning only the
/// *active* (non-waived) diagnostics — the set that drives text output and
/// the exit code.
///
/// Diagnostics come back sorted by `(path, line, rule)` so output is
/// deterministic regardless of filesystem iteration order.
pub fn run_lint(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    Ok(run_lint_full(root, cfg)?.into_iter().filter(|d| !d.waived).collect())
}

/// Like [`run_lint`], but waived findings are retained (with
/// [`Diagnostic::waived`] set) so `--json` can report the waiver audit
/// trail alongside the active findings.
pub fn run_lint_full(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let files = discover(root, cfg)?;
    let mut out = Vec::new();
    let mut sources: BTreeMap<&str, SourceFile> = BTreeMap::new();
    for rel in &files.rust_sources {
        let text = read(root, rel)?;
        sources.insert(rel, SourceFile::new(&text));
    }
    // Pass 1: per-file token rules.
    for (rel, sf) in &sources {
        for f in sf.scan() {
            if cfg.rule_applies(f.rule, rel) {
                let waived = sf.is_waived(f.rule, f.line);
                out.push(Diagnostic::new(rel, f.line, f.rule, f.message, waived));
            }
        }
    }
    scan_u002(root, cfg, &files, &sources, &mut out)?;
    // Pass 2: the interprocedural rules need every file parsed up front —
    // the call graph crosses file and crate boundaries.
    let units: Vec<Unit> = sources
        .into_iter()
        .map(|(rel, sf)| {
            let mut items = parse::parse_fns(&sf.tokens, &sf.lines);
            // Integration-test sources (a `tests/` path component) are test
            // code wholesale: they may panic and lock freely, and nothing in
            // production reaches them — keep them out of the call graph.
            if rel.split('/').any(|c| c == "tests") {
                for item in &mut items {
                    item.is_test = true;
                }
            }
            Unit { rel: rel.to_string(), sf, items }
        })
        .collect();
    let parsed: Vec<(String, Vec<parse::FnItem>)> =
        units.iter().map(|u| (u.rel.clone(), u.items.clone())).collect();
    let graph = CallGraph::build(&parsed);
    for (rel, f) in rules_v2::scan(&units, &graph, cfg) {
        if !cfg.rule_applies(f.rule, &rel) {
            continue;
        }
        let sf = units.iter().find(|u| u.rel == rel).map(|u| &u.sf);
        let waived = sf.is_some_and(|sf| {
            sf.is_waived(f.rule, f.line) || (f.rule == "P001" && sf.is_infallible(f.line))
        });
        out.push(Diagnostic::new(&rel, f.line, f.rule, f.message, waived));
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(out)
}

/// Render diagnostics as the stable machine-readable JSON report
/// (`--json`): schema version, one object per diagnostic (waived ones
/// included, flagged by `waiver_status`), and a summary block.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"diagnostics\": [\n");
    for (i, d) in diagnostics.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"level\": \"deny\", \"message\": \
             {}, \"waiver_status\": {}}}{}\n",
            json_str(&d.rule),
            json_str(&d.path),
            d.line,
            json_str(&d.message),
            json_str(if d.waived { "waived" } else { "active" }),
            if i + 1 < diagnostics.len() { "," } else { "" },
        ));
    }
    let active = diagnostics.iter().filter(|d| !d.waived).count();
    let waived = diagnostics.len() - active;
    // Every rule is deny, so `denied` (kept for schema v1) equals `active`.
    s.push_str(&format!(
        "  ],\n  \"summary\": {{\"active\": {active}, \"waived\": {waived}, \"denied\": \
         {active}}}\n}}\n"
    ));
    s
}

fn json_str(raw: &str) -> String {
    let mut s = String::with_capacity(raw.len() + 2);
    s.push('"');
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

/// U002: every crate (a `Cargo.toml` with a `[package]` section) whose `src/`
/// tree contains no `unsafe` token must declare `#![forbid(unsafe_code)]` in
/// each crate root (`src/lib.rs`, `src/main.rs`) it has.
fn scan_u002(
    root: &Path,
    cfg: &Config,
    files: &Discovered,
    sources: &BTreeMap<&str, SourceFile>,
    out: &mut Vec<Diagnostic>,
) -> Result<(), String> {
    for manifest in &files.manifests {
        let manifest_text = read(root, manifest)?;
        if !manifest_text.contains("[package]") {
            continue; // virtual workspace manifest
        }
        let crate_dir = match manifest.rfind('/') {
            Some(k) => &manifest[..k],
            None => "",
        };
        let src_prefix =
            if crate_dir.is_empty() { "src/".to_string() } else { format!("{crate_dir}/src/") };
        let src_files: Vec<&str> = files
            .rust_sources
            .iter()
            .map(String::as_str)
            .filter(|r| r.starts_with(&src_prefix))
            .collect();
        if src_files.is_empty() {
            continue; // src tree outside the include scope: nothing to audit
        }
        let has_unsafe = src_files.iter().any(|r| match sources.get(r) {
            Some(sf) => sf.tokens.iter().any(|t| t.kind == TokKind::Ident && t.text == "unsafe"),
            None => false,
        });
        if has_unsafe {
            continue;
        }
        let name = package_name(&manifest_text).unwrap_or_else(|| crate_dir.to_string());
        for root_file in ["lib.rs", "main.rs"] {
            let rel = format!("{src_prefix}{root_file}");
            let Some(sf) = sources.get(rel.as_str()) else {
                continue;
            };
            if !cfg.rule_applies("U002", &rel) || sf.is_waived("U002", 1) {
                continue;
            }
            let has_forbid = sf.lines.iter().any(|l| l.trim().starts_with("#![forbid(unsafe_code"));
            if !has_forbid {
                out.push(Diagnostic::new(
                    &rel,
                    1,
                    "U002",
                    format!(
                        "crate `{name}` contains no unsafe code; declare \
                         #![forbid(unsafe_code)] in this crate root so it stays that way"
                    ),
                    false,
                ));
            }
        }
    }
    Ok(())
}

/// `name = "…"` from a manifest's `[package]` section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_package = section.trim_end_matches(']').trim() == "package";
            continue;
        }
        if in_package {
            if let Some(v) = line.strip_prefix("name") {
                let v = v.trim_start();
                if let Some(v) = v.strip_prefix('=') {
                    return Some(v.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Files found under the configured include roots, as sorted relative paths.
struct Discovered {
    rust_sources: Vec<String>,
    manifests: Vec<String>,
}

fn discover(root: &Path, cfg: &Config) -> Result<Discovered, String> {
    let mut found = Discovered { rust_sources: Vec::new(), manifests: Vec::new() };
    // The root manifest is always considered (it hosts the root package).
    if root.join("Cargo.toml").is_file() {
        found.manifests.push("Cargo.toml".to_string());
    }
    let includes: Vec<String> =
        if cfg.include.is_empty() { vec![".".to_string()] } else { cfg.include.clone() };
    for inc in &includes {
        let path = if inc == "." { root.to_path_buf() } else { root.join(inc) };
        if path.is_dir() {
            walk(&path, root, cfg, &mut found)?;
        } else if path.is_file() {
            classify(inc.clone(), cfg, &mut found);
        } else {
            return Err(format!("include path {inc:?} does not exist under {}", root.display()));
        }
    }
    found.rust_sources.sort();
    found.rust_sources.dedup();
    found.manifests.sort();
    found.manifests.dedup();
    Ok(found)
}

fn walk(dir: &Path, root: &Path, cfg: &Config, found: &mut Discovered) -> Result<(), String> {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .map_err(|e| format!("reading directory {}: {e}", dir.display()))?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reading directory {}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .map_err(|_| format!("path {} escapes the lint root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        if cfg.is_excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, cfg, found)?;
        } else {
            classify(rel, cfg, found);
        }
    }
    Ok(())
}

fn classify(rel: String, cfg: &Config, found: &mut Discovered) {
    if cfg.is_excluded(&rel) {
        return;
    }
    if rel.ends_with(".rs") {
        found.rust_sources.push(rel);
    } else if rel == "Cargo.toml" || rel.ends_with("/Cargo.toml") {
        found.manifests.push(rel);
    }
}

fn read(root: &Path, rel: &str) -> Result<String, String> {
    let path = root.join(rel);
    fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_is_parsed_from_package_section() {
        let m = "[workspace]\nmembers = [\"x\"]\n\n[package]\nname = \"grape6\"\nversion = \
                 \"0.1.0\"\n";
        assert_eq!(package_name(m), Some("grape6".to_string()));
        assert_eq!(package_name("[workspace]\nname = \"nope\"\n"), None);
    }

    #[test]
    fn render_format_is_stable() {
        let d = Diagnostic {
            path: "crates/core/src/force.rs".into(),
            line: 12,
            rule: "U001".into(),
            message: "msg".into(),
            waived: false,
        };
        assert_eq!(d.render(), "crates/core/src/force.rs:12: deny [U001] msg");
    }

    #[test]
    fn json_report_escapes_and_summarizes() {
        let diags = vec![
            Diagnostic {
                path: "a.rs".into(),
                line: 3,
                rule: "P001".into(),
                message: "`.unwrap()` with \"quotes\"".into(),
                waived: false,
            },
            Diagnostic {
                path: "a.rs".into(),
                line: 9,
                rule: "C002".into(),
                message: "held".into(),
                waived: true,
            },
        ];
        let json = render_json(&diags);
        assert!(json.contains("\"version\": 1"), "{json}");
        assert!(json.contains("\\\"quotes\\\""), "{json}");
        assert!(json.contains("\"waiver_status\": \"waived\""), "{json}");
        assert!(
            json.contains("\"summary\": {\"active\": 1, \"waived\": 1, \"denied\": 1}"),
            "{json}"
        );
    }
}
