//! A brace-tree item parser on top of the lexer: recovers `fn` items (name,
//! impl self-type, module nesting, body token span, return type) and the
//! call sites inside each body.
//!
//! This is deliberately *recovery*, not parsing: it tracks just enough
//! structure (`mod`/`impl`/`fn` + brace matching) for the interprocedural
//! rules (C001/C002/P001) to build a call graph, and over-approximates
//! everywhere the grammar gets subtle (turbofish calls are missed, closures
//! are attributed to the enclosing `fn`). `#[cfg(test)]` modules and
//! `#[test]` functions are recovered but marked, so analyses can skip them.

use crate::lexer::{TokKind, Token};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (the identifier directly before the `(`).
    pub name: String,
    /// Leading `::` path segments (`crate::job::encode` → `["crate", "job"]`).
    pub path: Vec<String>,
    /// True for `.name(...)` method-call syntax.
    pub method: bool,
    /// True when the call has no arguments (`name()`); the lock analysis
    /// only treats empty calls as possible guard constructors.
    pub empty_args: bool,
    /// Raw token index of the callee identifier.
    pub tok: usize,
}

/// Visibility of a recovered `fn` item, as written at the definition.
///
/// Trait-impl methods carry no `pub` keyword, so they recover as
/// `Private` even though the trait may expose them; cross-crate callers
/// that only dispatch through traits therefore lose those edges. That is
/// the precision the interprocedural rules want: a name-collision method
/// call (`.get(…)`, `.expect(…)`) must not resolve into another crate's
/// private helper and drag its lock/blocking sets along.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vis {
    /// No visibility keyword: private to the defining module.
    Private,
    /// `pub(crate)` / `pub(super)` / `pub(in …)`: crate-local at most.
    PubCrate,
    /// Plain `pub`: callable from other crates.
    Pub,
}

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Visibility keyword at the definition site.
    pub vis: Vis,
    /// `impl` self type the item lives in (`impl Trait for T` → `T`), if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Raw token indices of the body `{` and its matching `}`; `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Return type source text (`MutexGuard < ' _ , Inner >` → joined words),
    /// empty for `()`.
    pub ret: String,
    /// Inside a `#[cfg(test)]` module, or annotated `#[test]`.
    pub is_test: bool,
    /// Call sites in the body, excluding spans of nested `fn` items.
    pub calls: Vec<CallSite>,
}

/// Recover every `fn` item in a lexed file. `lines` is the raw source split
/// into lines (for the attribute walk-ups that detect `#[cfg(test)]` and
/// `#[test]`).
pub fn parse_fns(tokens: &[Token], lines: &[String]) -> Vec<FnItem> {
    let mut items = Vec::new();
    let mut p = Parser { toks: tokens, lines };
    p.items(0, tokens.len(), None, false, &mut items);
    // A nested fn's body must not contribute calls to its parent.
    let spans: Vec<(usize, usize)> = items.iter().filter_map(|f| f.body).collect();
    for item in &mut items {
        let Some((lo, hi)) = item.body else { continue };
        let nested: Vec<(usize, usize)> =
            spans.iter().copied().filter(|&(a, b)| a > lo && b < hi).collect();
        item.calls = extract_calls(tokens, lo, hi, &nested);
    }
    items
}

struct Parser<'a> {
    toks: &'a [Token],
    lines: &'a [String],
}

impl Parser<'_> {
    /// Next non-comment token index at or after `i`, below `end`.
    fn code(&self, mut i: usize, end: usize) -> Option<usize> {
        while i < end {
            if self.toks[i].kind != TokKind::Comment {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    fn is(&self, i: usize, kind: TokKind, text: &str) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == kind && t.text == text)
    }

    /// Matching `}` for the `{` at `open` (token index), or the end.
    fn close_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0usize;
        for k in open..end {
            let t = &self.toks[k];
            if t.kind != TokKind::Punct {
                continue;
            }
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        end.saturating_sub(1)
    }

    /// True when the contiguous attribute/comment block above `line`
    /// (1-based) contains `needle` (`cfg(test` / `#[test]`).
    fn attr_above_contains(&self, line: u32, needle: &str) -> bool {
        let mut k = (line as usize).saturating_sub(1);
        while k > 0 {
            k -= 1;
            let t = self.lines[k].trim();
            if t.starts_with("#[") || t.starts_with("//") || t.starts_with("#!") {
                if t.contains(needle) {
                    return true;
                }
            } else if !t.is_empty() {
                break;
            }
        }
        false
    }

    /// Scan `[start, end)` for items, recursing into `mod`/`impl`/`fn` bodies.
    fn items(
        &mut self,
        start: usize,
        end: usize,
        self_ty: Option<&str>,
        in_test: bool,
        out: &mut Vec<FnItem>,
    ) {
        let mut i = start;
        while let Some(k) = self.code(i, end) {
            let t = &self.toks[k];
            i = k + 1;
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                "mod" => {
                    let Some(n) = self.code(i, end) else { break };
                    if self.toks[n].kind != TokKind::Ident {
                        continue;
                    }
                    let Some(b) = self.code(n + 1, end) else { break };
                    if !self.is(b, TokKind::Punct, "{") {
                        continue; // out-of-line `mod x;`
                    }
                    let close = self.close_brace(b, end);
                    let test = in_test || self.attr_above_contains(t.line, "cfg(test");
                    self.items(b + 1, close, None, test, out);
                    i = close + 1;
                }
                "impl" => {
                    let Some(b) = self.body_open(i, end) else { break };
                    let ty = self.impl_self_ty(i, b);
                    let close = self.close_brace(b, end);
                    self.items(b + 1, close, ty.as_deref(), in_test, out);
                    i = close + 1;
                }
                "fn" => {
                    let Some(n) = self.code(i, end) else { break };
                    if self.toks[n].kind != TokKind::Ident {
                        continue; // `fn()` pointer type
                    }
                    let name = self.toks[n].text.clone();
                    let is_test = in_test || self.attr_above_contains(t.line, "#[test]");
                    let vis = self.fn_vis(k);
                    let (body, ret) = self.fn_body_and_ret(n + 1, end);
                    out.push(FnItem {
                        name,
                        vis,
                        self_ty: self_ty.map(str::to_string),
                        line: t.line,
                        body,
                        ret,
                        is_test,
                        calls: Vec::new(),
                    });
                    if let Some((lo, hi)) = body {
                        // Nested fns (and impls in fn bodies) become items too.
                        self.items(lo + 1, hi, None, is_test, out);
                        i = hi + 1;
                    }
                }
                _ => {}
            }
        }
    }

    /// Visibility of the `fn` whose keyword sits at token `fn_tok`: walk
    /// back over the qualifier tokens (`const unsafe extern "C" async`)
    /// looking for `pub`, stopping at any token that ends the previous item
    /// or an attribute (`;`, `{`, `}`, `]`).
    fn fn_vis(&self, fn_tok: usize) -> Vis {
        let mut k = fn_tok;
        let mut steps = 0;
        while k > 0 && steps < 8 {
            k -= 1;
            let t = &self.toks[k];
            if t.kind == TokKind::Comment {
                continue;
            }
            steps += 1;
            if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}" | "]") {
                break;
            }
            if t.kind == TokKind::Ident && t.text == "pub" {
                let restricted = self
                    .code(k + 1, self.toks.len())
                    .is_some_and(|n| self.is(n, TokKind::Punct, "("));
                return if restricted { Vis::PubCrate } else { Vis::Pub };
            }
        }
        Vis::Private
    }

    /// First body `{` at angle-bracket depth 0 (skips `impl<T: Default>`).
    fn body_open(&self, start: usize, end: usize) -> Option<usize> {
        let mut angle = 0i32;
        let mut k = start;
        while let Some(c) = self.code(k, end) {
            let t = &self.toks[c];
            k = c + 1;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => return Some(c),
                    _ => {}
                }
            }
        }
        None
    }

    /// Self type of an `impl` header in `[start, body_open)`: the last
    /// identifier at angle depth 0, taken after `for` when present
    /// (`impl fmt::Display for Latch` → `Latch`, `impl<T> Ring<T>` → `Ring`).
    fn impl_self_ty(&self, start: usize, body_open: usize) -> Option<String> {
        let mut angle = 0i32;
        let mut last: Option<String> = None;
        let mut k = start;
        while let Some(c) = self.code(k, body_open) {
            let t = &self.toks[c];
            k = c + 1;
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle -= 1,
                (TokKind::Ident, "for") if angle == 0 => last = None,
                (TokKind::Ident, "where") if angle == 0 => break,
                (TokKind::Ident, w) if angle == 0 => last = Some(w.to_string()),
                _ => {}
            }
        }
        last
    }

    /// From just past the fn name: find the body `{` (or `;` for a bodyless
    /// decl) and capture the `-> …` return-type text. `;` only terminates at
    /// square-bracket depth 0 (array types like `[u8; 4]` contain one).
    fn fn_body_and_ret(&self, start: usize, end: usize) -> (Option<(usize, usize)>, String) {
        let mut sq = 0i32;
        let mut ret = String::new();
        let mut in_ret = false;
        let mut k = start;
        while let Some(c) = self.code(k, end) {
            let t = &self.toks[c];
            k = c + 1;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "[" => sq += 1,
                    "]" => sq -= 1,
                    ";" if sq == 0 => return (None, ret),
                    "{" => return (Some((c, self.close_brace(c, end))), ret),
                    "-" if self.is(c + 1, TokKind::Punct, ">") => {
                        in_ret = true;
                        k = c + 2;
                        continue;
                    }
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident && t.text == "where" {
                in_ret = false;
            } else if in_ret {
                if !ret.is_empty() {
                    ret.push(' ');
                }
                ret.push_str(&t.text);
            }
        }
        (None, ret)
    }
}

/// Call sites in `(lo, hi)` exclusive, skipping `nested` body spans.
fn extract_calls(toks: &[Token], lo: usize, hi: usize, nested: &[(usize, usize)]) -> Vec<CallSite> {
    // Keywords that can directly precede a `(` without being calls.
    const NOT_CALLS: &[&str] = &[
        "if", "while", "for", "match", "loop", "return", "fn", "move", "in", "as", "let", "else",
        "mut", "ref", "box", "break", "await",
    ];
    let code: Vec<usize> = (lo + 1..hi).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let in_nested = |i: usize| nested.iter().any(|&(a, b)| i >= a && i <= b);
    let mut out = Vec::new();
    for w in 0..code.len().saturating_sub(1) {
        let i = code[w];
        if in_nested(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || NOT_CALLS.contains(&t.text.as_str())
            || toks[code[w + 1]].kind != TokKind::Punct
            || toks[code[w + 1]].text != "("
        {
            continue;
        }
        // `fn name(` is a declaration, not a call.
        if w > 0 && toks[code[w - 1]].kind == TokKind::Ident && toks[code[w - 1]].text == "fn" {
            continue;
        }
        let method =
            w > 0 && toks[code[w - 1]].kind == TokKind::Punct && toks[code[w - 1]].text == ".";
        let mut path = Vec::new();
        if !method {
            // Walk `seg :: seg :: name(` backwards.
            let mut b = w;
            while b >= 2
                && toks[code[b - 1]].kind == TokKind::Punct
                && toks[code[b - 1]].text == "::"
                && toks[code[b - 2]].kind == TokKind::Ident
            {
                path.insert(0, toks[code[b - 2]].text.clone());
                b -= 2;
            }
        }
        let empty_args =
            code.get(w + 2).is_some_and(|&i| toks[i].kind == TokKind::Punct && toks[i].text == ")");
        out.push(CallSite { name: t.text.clone(), path, method, empty_args, tok: i });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_fns(&lex(src), &src.lines().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn recovers_free_and_impl_fns_with_self_ty() {
        let src = "fn free() {}\n\
                   impl Latch {\n    fn complete(&self) {}\n}\n\
                   impl fmt::Display for Latch {\n    fn fmt(&self) {}\n}\n\
                   impl<T: Default> Ring<T> {\n    fn push(&mut self) {}\n}\n";
        let items = parse(src);
        let names: Vec<(&str, Option<&str>)> =
            items.iter().map(|f| (f.name.as_str(), f.self_ty.as_deref())).collect();
        assert_eq!(
            names,
            vec![
                ("free", None),
                ("complete", Some("Latch")),
                ("fmt", Some("Latch")),
                ("push", Some("Ring")),
            ]
        );
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_marked() {
        let src = "fn real() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn check() { real(); }\n    fn \
                   helper() {}\n}\n\
                   #[test]\nfn top_level_test() {}\n";
        let items = parse(src);
        let flags: Vec<(&str, bool)> = items.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![("real", false), ("check", true), ("helper", true), ("top_level_test", true)]
        );
    }

    #[test]
    fn calls_paths_and_methods_are_extracted() {
        let src = "fn f(x: &T) {\n    helper(1);\n    crate::job::encode(x);\n    \
                   x.method_call(2);\n    Latch::new();\n    if cond(x) {}\n    vec![1];\n    \
                   let t: fn() -> u32 = g;\n}\n";
        let items = parse(src);
        let calls: Vec<(String, Vec<String>, bool)> =
            items[0].calls.iter().map(|c| (c.name.clone(), c.path.clone(), c.method)).collect();
        assert_eq!(
            calls,
            vec![
                ("helper".into(), vec![], false),
                ("encode".into(), vec!["crate".into(), "job".into()], false),
                ("method_call".into(), vec![], true),
                ("new".into(), vec!["Latch".into()], false),
                ("cond".into(), vec![], false),
            ]
        );
    }

    #[test]
    fn nested_fn_bodies_do_not_leak_calls_to_the_parent() {
        let src = "fn outer() {\n    fn inner() { deep(); }\n    shallow();\n}\n";
        let items = parse(src);
        let outer = items.iter().find(|f| f.name == "outer").unwrap();
        let inner = items.iter().find(|f| f.name == "inner").unwrap();
        assert_eq!(outer.calls.iter().map(|c| &c.name).collect::<Vec<_>>(), vec!["shallow"]);
        assert_eq!(inner.calls.iter().map(|c| &c.name).collect::<Vec<_>>(), vec!["deep"]);
    }

    #[test]
    fn visibility_is_recovered_per_item() {
        let src = "pub fn exported() {}\n\
                   pub(crate) fn crate_only() {}\n\
                   fn hidden() {}\n\
                   #[inline]\npub fn attributed() {}\n\
                   impl T {\n    pub const unsafe fn qualified() {}\n    fn private_method(&self) \
                   {}\n}\n";
        let items = parse(src);
        let vis: Vec<(&str, Vis)> = items.iter().map(|f| (f.name.as_str(), f.vis)).collect();
        assert_eq!(
            vis,
            vec![
                ("exported", Vis::Pub),
                ("crate_only", Vis::PubCrate),
                ("hidden", Vis::Private),
                ("attributed", Vis::Pub),
                ("qualified", Vis::Pub),
                ("private_method", Vis::Private),
            ]
        );
    }

    #[test]
    fn return_types_and_bodyless_decls_are_captured() {
        let src = "trait T {\n    fn decl(&self) -> u32;\n}\n\
                   fn locked(&self) -> MutexGuard<'_, Inner> { self.inner.lock().unwrap() }\n\
                   fn arr(x: [u8; 4]) -> [u8; 4] { x }\n";
        let items = parse(src);
        let decl = items.iter().find(|f| f.name == "decl").unwrap();
        assert!(decl.body.is_none());
        assert_eq!(decl.ret, "u32");
        let locked = items.iter().find(|f| f.name == "locked").unwrap();
        assert!(locked.body.is_some());
        assert!(locked.ret.contains("MutexGuard"), "{:?}", locked.ret);
        let arr = items.iter().find(|f| f.name == "arr").unwrap();
        assert!(arr.body.is_some(), "array-type `;` must not end the signature");
    }
}
