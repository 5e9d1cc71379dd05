//! The rule engine: token-tree scans for the unsafe-audit (U) and hot-path
//! hygiene (H) rule families.
//!
//! Every rule matches **lexed tokens**, never raw text, so identifiers in
//! strings or comments can never fire a diagnostic. Inline waivers
//! (`// grape6-lint: allow(RULE)`) suppress findings on the waiver's own
//! line and the line below it; `// grape6-lint: hot` marks the next `fn` as
//! a hot kernel for H001.

use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeMap;

/// Static description of one rule (for `--list-rules` and the README table).
pub struct RuleInfo {
    /// Rule id (`U001`, …).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every rule this linter knows, in reporting order.
pub const RULES: [RuleInfo; 6] = [
    RuleInfo {
        id: "U001",
        summary: "unsafe block/impl/fn without a `// SAFETY:` comment on the preceding lines",
    },
    RuleInfo {
        id: "U002",
        summary: "crate with no unsafe code must declare #![forbid(unsafe_code)] in its root",
    },
    RuleInfo {
        id: "H001",
        summary: "heap allocation (Vec::new, vec![, to_vec, Box::new, collect::<Vec) inside a \
                  `// grape6-lint: hot` function",
    },
    RuleInfo {
        id: "C001",
        summary: "inconsistent lock acquisition order: two Mutex/RwLock guards taken in opposite \
                  orders somewhere in scope (directly or through the call graph) can deadlock",
    },
    RuleInfo {
        id: "C002",
        summary: "Mutex/RwLock guard held across a blocking call (sleep, socket/file I/O, \
                  join; Condvar::wait is exempt) — stalls every other thread on that lock",
    },
    RuleInfo {
        id: "P001",
        summary: "unwrap/expect/panic!/indexing reachable from a protocol entry point; refactor \
                  to an Error response or waive with `// grape6-lint: infallible(reason)`",
    },
];

/// The allocation patterns H001 bans in hot bodies (`(label, token pattern)`).
const ALLOC_PATTERNS: &[(&str, &[(TokKind, &str)])] = &[
    ("Vec::new", &[(TokKind::Ident, "Vec"), (TokKind::Punct, "::"), (TokKind::Ident, "new")]),
    ("vec![", &[(TokKind::Ident, "vec"), (TokKind::Punct, "!")]),
    ("to_vec", &[(TokKind::Ident, "to_vec")]),
    ("Box::new", &[(TokKind::Ident, "Box"), (TokKind::Punct, "::"), (TokKind::Ident, "new")]),
    (
        "collect::<Vec>",
        &[
            (TokKind::Ident, "collect"),
            (TokKind::Punct, "::"),
            (TokKind::Punct, "<"),
            (TokKind::Ident, "Vec"),
        ],
    ),
];

/// One raw finding, before scoping/waiver filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A lexed source file ready for rule scans.
pub struct SourceFile {
    /// Raw lines (for comment walk-ups and attribute checks).
    pub lines: Vec<String>,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices of non-comment tokens in `tokens` (what sequence matchers
    /// run over).
    code: Vec<usize>,
    /// `rule id -> waived lines`, from inline `grape6-lint: allow(...)`.
    waivers: BTreeMap<String, Vec<u32>>,
    /// Lines covered by a `grape6-lint: infallible(reason)` directive (the
    /// directive's own line and the next) — the P001-specific waiver.
    infallible: Vec<u32>,
    /// Token-index ranges of `grape6-lint: hot` function bodies.
    hot_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and preprocess one file.
    pub fn new(text: &str) -> Self {
        let tokens = lex(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<usize> =
            (0..tokens.len()).filter(|&i| tokens[i].kind != TokKind::Comment).collect();
        let mut waivers: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut infallible = Vec::new();
        for t in tokens.iter().filter(|t| t.kind == TokKind::Comment) {
            for rule in parse_waiver(&t.text) {
                waivers.entry(rule).or_default().extend([t.line, t.line + 1]);
            }
            if parse_infallible(&t.text) {
                infallible.extend([t.line, t.line + 1]);
            }
        }
        let hot_regions = find_hot_regions(&tokens);
        Self { lines, tokens, code, waivers, infallible, hot_regions }
    }

    /// True when `rule` is waived on `line` by an inline comment.
    pub fn is_waived(&self, rule: &str, line: u32) -> bool {
        self.waivers.get(rule).is_some_and(|ls| ls.contains(&line))
    }

    /// True when `line` is covered by an `infallible(reason)` directive
    /// (P001's waiver — the reason is mandatory, an empty one is inert).
    pub fn is_infallible(&self, line: u32) -> bool {
        self.infallible.contains(&line)
    }

    /// Token (by code index), or None past the end.
    fn code_tok(&self, pos: usize) -> Option<&Token> {
        self.code.get(pos).map(|&i| &self.tokens[i])
    }

    /// Does the code-token window starting at `pos` match `pat`?
    fn matches(&self, pos: usize, pat: &[(TokKind, &str)]) -> bool {
        pat.iter().enumerate().all(|(k, (kind, text))| {
            self.code_tok(pos + k).is_some_and(|t| t.kind == *kind && t.text == *text)
        })
    }

    /// Run every token-level rule (U001, H001) over this file. U002 is
    /// crate-level and lives in the runner.
    pub fn scan(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        self.scan_u001(&mut out);
        self.scan_h001(&mut out);
        out.sort_by_key(|f| (f.line, f.rule));
        out
    }

    fn scan_u001(&self, out: &mut Vec<Finding>) {
        for pos in 0..self.code.len() {
            let t = self.code_tok(pos).expect("pos in range");
            if t.kind == TokKind::Ident && t.text == "unsafe" && !self.has_safety_comment(t.line) {
                out.push(Finding {
                    rule: "U001",
                    line: t.line,
                    message: "`unsafe` without a `// SAFETY:` comment on the preceding lines \
                              stating the invariant that makes it sound"
                        .into(),
                });
            }
        }
    }

    /// A `SAFETY:` (or doc `# Safety`) comment counts when it is on the
    /// `unsafe` token's own line or in the contiguous comment/attribute
    /// block immediately above it.
    fn has_safety_comment(&self, line: u32) -> bool {
        let idx = (line as usize).saturating_sub(1);
        if self.lines.get(idx).is_some_and(|l| l.contains("SAFETY:")) {
            return true;
        }
        let mut k = idx;
        while k > 0 {
            k -= 1;
            let t = self.lines[k].trim();
            if t.starts_with("//") {
                if t.contains("SAFETY:") || t.contains("# Safety") {
                    return true;
                }
            } else if !(t.starts_with("#[") || t.starts_with("#![")) {
                break;
            }
        }
        false
    }

    fn scan_h001(&self, out: &mut Vec<Finding>) {
        for &(lo, hi) in &self.hot_regions {
            for pos in 0..self.code.len() {
                let raw = self.code[pos];
                if raw < lo || raw > hi {
                    continue;
                }
                for (what, pat) in ALLOC_PATTERNS {
                    if self.matches(pos, pat) {
                        let t = self.code_tok(pos).expect("pos in range");
                        out.push(Finding {
                            rule: "H001",
                            line: t.line,
                            message: format!(
                                "`{what}` heap-allocates inside a `grape6-lint: hot` function; \
                                 reuse a persistent scratch buffer instead"
                            ),
                        });
                        break; // one finding per token position
                    }
                }
            }
        }
    }
}

/// The directive payload of a plain `// grape6-lint: …` comment.
///
/// Doc comments (`///`, `//!`) never carry directives, so prose that merely
/// *mentions* the waiver or hot syntax cannot activate it.
fn directive(comment: &str) -> Option<&str> {
    let rest = comment.strip_prefix("//")?;
    if rest.starts_with('/') || rest.starts_with('!') {
        return None;
    }
    rest.trim_start().strip_prefix("grape6-lint:").map(str::trim_start)
}

/// Extract rule ids from a `// grape6-lint: allow(R1, R2)` comment, if any.
fn parse_waiver(comment: &str) -> Vec<String> {
    let Some(args) =
        directive(comment).and_then(|d| d.strip_prefix("allow(")).and_then(|r| r.split(')').next())
    else {
        return Vec::new();
    };
    args.split(',').map(|r| r.trim().to_string()).filter(|r| !r.is_empty()).collect()
}

/// True for a `// grape6-lint: infallible(reason)` directive with a
/// **non-empty** reason. The reason is the point: the directive is an
/// argued claim that the panic-capable operation cannot fire, not a mute
/// button, so `infallible()` does not waive anything.
fn parse_infallible(comment: &str) -> bool {
    directive(comment)
        .and_then(|d| d.strip_prefix("infallible("))
        .and_then(|r| r.rsplit(')').next_back())
        .is_some_and(|reason| !reason.trim().is_empty())
}

/// Token-index span (inclusive) of each `// grape6-lint: hot` function body:
/// from the annotation, the next `fn`'s first `{` through its matching `}`.
fn find_hot_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Comment || !directive(&t.text).is_some_and(|d| d.starts_with("hot")) {
            continue;
        }
        let Some(fn_idx) = tokens[i..]
            .iter()
            .position(|t| t.kind == TokKind::Ident && t.text == "fn")
            .map(|k| i + k)
        else {
            continue;
        };
        let Some(open) = tokens[fn_idx..]
            .iter()
            .position(|t| t.kind == TokKind::Punct && t.text == "{")
            .map(|k| fn_idx + k)
        else {
            continue;
        };
        let mut depth = 0usize;
        for (k, t) in tokens.iter().enumerate().skip(open) {
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        regions.push((open, k));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<(&'static str, u32)> {
        SourceFile::new(src).scan().into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn u001_requires_safety_comment() {
        let bad = "fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n";
        assert_eq!(findings(bad), vec![("U001", 2)]);
        let good = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes.\n    unsafe { *p \
                    = 0 };\n}\n";
        assert_eq!(findings(good), vec![]);
        let trailing = "unsafe { go() }; // SAFETY: singleton init.\n";
        assert_eq!(findings(trailing), vec![]);
    }

    #[test]
    fn u001_accepts_doc_safety_section_through_attributes() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// `i < len`.\n#[inline]\nunsafe fn \
                   get(i: usize) {}\n";
        assert_eq!(findings(src), vec![]);
    }

    #[test]
    fn u001_comment_block_must_be_contiguous() {
        let src = "// SAFETY: stale, detached comment.\nfn f() {}\nunsafe fn g() {}\n";
        assert_eq!(findings(src), vec![("U001", 3)]);
    }

    #[test]
    fn h001_only_inside_hot_functions() {
        let src = "fn cold() -> Vec<u32> {\n    vec![1, 2]\n}\n\n// grape6-lint: hot\nfn \
                   hot(xs: &[u32]) -> Vec<u32> {\n    let a = Vec::new();\n    let b = \
                   xs.to_vec();\n    let c: Vec<u32> = xs.iter().copied().collect::<Vec<u32>>();\n \
                   let d = Box::new(1);\n    a\n}\n";
        let got = findings(src);
        assert!(got.contains(&("H001", 7)), "Vec::new: {got:?}");
        assert!(got.contains(&("H001", 8)), "to_vec: {got:?}");
        assert!(got.contains(&("H001", 9)), "collect::<Vec>: {got:?}");
        assert!(got.contains(&("H001", 10)), "Box::new: {got:?}");
        assert!(!got.iter().any(|&(_, l)| l <= 3), "cold fn must not fire: {got:?}");
    }

    #[test]
    fn h001_hot_region_ends_at_matching_brace() {
        let src =
            "// grape6-lint: hot\nfn hot() {\n    if true {\n        work();\n    }\n}\n\nfn \
                   after() {\n    let v = vec![0u8; 4];\n}\n";
        assert_eq!(findings(src), vec![]);
    }

    #[test]
    fn waivers_suppress_same_and_next_line() {
        let src = "// grape6-lint: allow(U001)\nunsafe fn a() {}\nunsafe fn b() {}\n";
        let f = SourceFile::new(src);
        assert!(f.is_waived("U001", 2));
        assert!(!f.is_waived("U001", 3));
        assert!(!f.is_waived("H001", 2));
    }

    #[test]
    fn waiver_parses_multiple_rules() {
        assert_eq!(parse_waiver("// grape6-lint: allow(U001, H001)"), vec!["U001", "H001"]);
        assert_eq!(parse_waiver("// grape6-lint: hot"), Vec::<String>::new());
        assert_eq!(parse_waiver("// plain comment"), Vec::<String>::new());
    }

    #[test]
    fn doc_comments_never_carry_directives() {
        assert_eq!(
            parse_waiver("/// use `// grape6-lint: allow(U001)` to waive"),
            Vec::<String>::new()
        );
        assert_eq!(parse_waiver("//! `// grape6-lint: allow(U001)`"), Vec::<String>::new());
        let src = "/// Mark kernels with `// grape6-lint: hot`.\nfn doc_mentions_hot() {\n    let \
                   v = Vec::new();\n}\n";
        assert_eq!(findings(src), vec![]);
    }
}
