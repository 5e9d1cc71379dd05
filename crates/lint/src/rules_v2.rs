//! The interprocedural rule family: lock-order (C001), guard-across-blocking
//! (C002) and panic-path (P001), all built on the `parse` item recovery and
//! the `callgraph` resolution.
//!
//! The guard model is a deliberate heuristic, not a borrow checker:
//! a `let g = x.lock()…;` guard lives until `drop(g)` or its enclosing
//! block closes; an unbound `x.lock()` temporary lives to the end of its
//! statement; a call to a workspace function *returning* a guard type
//! (`-> MutexGuard<…>`) acquires that function's locks at the call site, so
//! a `fn locked(&self) -> MutexGuard<'_, Inner>` helper does not blind the
//! analysis. `Condvar::wait` atomically releases and reacquires, so it is
//! neither a blocking call nor a new acquisition.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::parse::FnItem;
use crate::rules::{Finding, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// One file ready for interprocedural analysis.
pub struct Unit {
    /// `/`-separated path relative to the lint root.
    pub rel: String,
    /// Lexed/preprocessed source.
    pub sf: SourceFile,
    /// Recovered `fn` items.
    pub items: Vec<FnItem>,
}

/// Method/function names treated as blocking for C002. `Condvar::wait` and
/// `wait_timeout` are deliberately absent: they release the guard while
/// parked. `join` covers thread joins (and will occasionally hit
/// `Path::join` / `slice::join` — waive those with `allow(C002)`).
const BLOCKING: &[&str] = &[
    "sleep",
    "join",
    "accept",
    "connect",
    "recv",
    "recv_timeout",
    "read_line",
    "read_to_string",
    "read_until",
    "read_exact",
    "write_all",
    "flush",
];

/// Panic-capable method names for P001.
const PANICKY_CALLS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// Panic-capable macro names for P001.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Return-type fragments that mark a function as returning a lock guard.
const GUARD_RETURNS: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// Method names the guard walker models directly (acquisition keyed on the
/// receiver, or the Condvar-wait exemption). Excluded from call-graph
/// lock/blocking propagation — see the sync-edges construction in [`scan`].
const SYNC_PRIMITIVES: &[&str] =
    &["lock", "try_lock", "read", "write", "try_read", "try_write", "wait", "wait_timeout"];

/// Run all three interprocedural rules. Returns raw `(file, finding)` pairs;
/// the caller applies path scoping and waivers (except C001's pair
/// evidence, which is scope-filtered here — an acquisition order only
/// *conflicts* with sites inside the rule's own scope).
pub fn scan(units: &[Unit], graph: &CallGraph, cfg: &Config) -> Vec<(String, Finding)> {
    let sf_by_file: BTreeMap<&str, &SourceFile> =
        units.iter().map(|u| (u.rel.as_str(), &u.sf)).collect();
    let n = graph.nodes.len();

    // Per-node direct facts, then their transitive closures.
    let mut direct_locks = vec![BTreeSet::new(); n];
    let mut direct_blocking = vec![BTreeSet::new(); n];
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(sf) = sf_by_file.get(node.file.as_str()) else { continue };
        let Some((lo, hi)) = node.item.body else { continue };
        direct_locks[i] = span_lock_ids(sf, lo, hi, node.item.self_ty.as_deref());
        direct_blocking[i] = span_blocking_calls(sf, lo, hi);
    }
    // Lock/blocking propagation runs over the *synchronous* subgraph: a
    // call site inside a `spawn(...)` argument executes on another thread,
    // so its callees' locks and blocking calls never happen under this
    // function's guards. (P001 keeps the full edge set — a panic inside a
    // worker closure is still reachable from whoever spawned it.)
    let mut sync_edges: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (i, node) in graph.nodes.iter().enumerate() {
        let spans = match (sf_by_file.get(node.file.as_str()), node.item.body) {
            (Some(sf), Some((lo, hi))) => {
                let toks = &sf.tokens;
                let code: Vec<usize> =
                    (lo + 1..hi).filter(|&k| toks[k].kind != TokKind::Comment).collect();
                spawn_arg_spans(toks, &code)
            }
            _ => Vec::new(),
        };
        let mut adj: BTreeSet<usize> = BTreeSet::new();
        for (c, site) in node.item.calls.iter().enumerate() {
            if spans.iter().any(|&(a, b)| site.tok >= a && site.tok <= b) {
                continue;
            }
            // Sync-primitive method calls (`.lock()`, `cv.wait(g)`, ...) are
            // modeled directly by the guard walker, keyed on the *receiver*.
            // Letting them also resolve through the call graph would leak a
            // shim's internal lock ids (`parking_lot::Mutex::lock` locks its
            // own `Mutex.0`) or bind to an unrelated same-name workspace fn.
            if site.method && SYNC_PRIMITIVES.contains(&site.name.as_str()) {
                continue;
            }
            adj.extend(graph.resolved[i][c].iter().copied());
        }
        sync_edges.push(adj.into_iter().collect());
    }
    let locks = graph.transitive_sets_over(&sync_edges, &direct_locks);
    let blocking = graph.transitive_sets_over(&sync_edges, &direct_blocking);

    let mut out: Vec<(String, Finding)> = Vec::new();
    let mut pairs: Vec<PairSite> = Vec::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let Some(sf) = sf_by_file.get(node.file.as_str()) else { continue };
        walk_guards(i, node, sf, graph, cfg, &locks, &blocking, &mut pairs, &mut out);
    }
    resolve_lock_order(&pairs, &mut out);
    scan_p001(units, graph, cfg, &sf_by_file, &mut out);

    // One finding per (file, rule, line): overlapping candidates collapse.
    let mut seen = BTreeSet::new();
    out.retain(|(file, f)| seen.insert((file.clone(), f.rule, f.line)));
    out.sort_by(|a, b| (&a.0, a.1.line, a.1.rule).cmp(&(&b.0, b.1.line, b.1.rule)));
    out
}

/// One observed ordered acquisition: `second` taken while `first` was held.
struct PairSite {
    first: String,
    second: String,
    file: String,
    line: u32,
    via: Option<String>,
}

/// A guard tracked through a function body.
struct Guard {
    lock: String,
    binding: Option<String>,
    depth: i32,
}

/// Walk one body, tracking live guards; record C001 pair evidence and C002
/// findings.
#[allow(clippy::too_many_arguments)]
fn walk_guards(
    idx: usize,
    node: &crate::callgraph::FnNode,
    sf: &SourceFile,
    graph: &CallGraph,
    cfg: &Config,
    locks: &[BTreeSet<String>],
    blocking: &[BTreeSet<String>],
    pairs: &mut Vec<PairSite>,
    out: &mut Vec<(String, Finding)>,
) {
    let Some((lo, hi)) = node.item.body else { return };
    let toks = &sf.tokens;
    let code: Vec<usize> = (lo + 1..hi).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let spawned = spawn_arg_spans(toks, &code);
    let call_at: BTreeMap<usize, usize> =
        node.item.calls.iter().enumerate().map(|(c, site)| (site.tok, c)).collect();
    let in_c001_scope = cfg.rule_applies("C001", &node.file);
    let self_ty = node.item.self_ty.as_deref();

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut stmt_start = 0usize;
    let mut w = 0usize;
    while w < code.len() {
        if spawned.iter().any(|&(a, b)| code[w] >= a && code[w] <= b) {
            w += 1; // closure runs on another thread: not this lock context
            continue;
        }
        let t = &toks[code[w]];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    stmt_start = w + 1;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    stmt_start = w + 1;
                }
                ";" => {
                    guards.retain(|g| g.binding.is_some());
                    stmt_start = w + 1;
                }
                "." if is_lock_acquisition(toks, &code, w) => {
                    let id = receiver_id(toks, &code, w, self_ty);
                    if is_std_io_handle(&id) {
                        w += 4; // stdio locks are self-reentrant buffers
                        continue;
                    }
                    let binding = stmt_binding(toks, &code, stmt_start, w);
                    record_pairs(
                        &guards,
                        std::slice::from_ref(&id),
                        node,
                        t.line,
                        None,
                        in_c001_scope,
                        pairs,
                    );
                    guards.push(Guard { lock: id, binding, depth });
                    w += 4; // past `. lock ( )`
                    continue;
                }
                _ => {}
            }
            w += 1;
            continue;
        }
        if let Some(&c) = call_at.get(&code[w]) {
            let site = &node.item.calls[c];
            // `drop(g)` releases a tracked guard.
            if site.name == "drop" && !site.method {
                if let Some(b) = arg_ident(toks, &code, w) {
                    guards.retain(|g| g.binding.as_deref() != Some(b));
                }
                w += 1;
                continue;
            }
            // `Condvar::wait` releases the guard while parked: neither a
            // blocking call nor a new acquisition. Name-level exemption —
            // the analysis cannot type the receiver.
            if matches!(site.name.as_str(), "wait" | "wait_timeout") {
                w += 1;
                continue;
            }
            // Direct blocking call under a held guard.
            if BLOCKING.contains(&site.name.as_str()) {
                if let Some(g) = guards.first() {
                    out.push((
                        node.file.clone(),
                        Finding {
                            rule: "C002",
                            line: t.line,
                            message: format!(
                                "`{}()` blocks while the guard on `{}` is held; every thread \
                                 contending for that lock stalls behind this call — release the \
                                 guard first",
                                site.name, g.lock
                            ),
                        },
                    ));
                }
            }
            let cands = &graph.resolved[idx][c];
            // Calls into workspace functions: transitive blocking + locks.
            for &callee in cands {
                if let Some(op) = blocking[callee].iter().next() {
                    if let Some(g) = guards.first() {
                        out.push((
                            node.file.clone(),
                            Finding {
                                rule: "C002",
                                line: t.line,
                                message: format!(
                                    "`{}()` reaches blocking `{}` (via the call graph) while \
                                     the guard on `{}` is held — release the guard before the \
                                     call",
                                    site.name, op, g.lock
                                ),
                            },
                        ));
                    }
                }
                let callee_locks: Vec<String> = locks[callee].iter().cloned().collect();
                record_pairs(
                    &guards,
                    &callee_locks,
                    node,
                    t.line,
                    Some(&site.name),
                    in_c001_scope,
                    pairs,
                );
            }
            // A call returning a guard type acquires its locks here. The
            // empty-parens gate keeps collision-prone method names
            // (`.write(data)`, `.read(buf)`) from registering: guard
            // constructors in this workspace take only the receiver.
            if site.empty_args && cands.iter().any(|&m| returns_guard(&graph.nodes[m].item.ret)) {
                let binding = stmt_binding(toks, &code, stmt_start, w);
                let mut acquired: BTreeSet<String> = BTreeSet::new();
                for &m in cands {
                    if returns_guard(&graph.nodes[m].item.ret) {
                        acquired.extend(locks[m].iter().cloned());
                    }
                }
                for lock in acquired {
                    guards.push(Guard { lock, binding: binding.clone(), depth });
                }
            }
        }
        w += 1;
    }
}

fn returns_guard(ret: &str) -> bool {
    GUARD_RETURNS.iter().any(|g| ret.contains(g))
}

/// Record `(held, new)` ordered pairs for every live guard × new lock.
fn record_pairs(
    guards: &[Guard],
    new_locks: &[String],
    node: &crate::callgraph::FnNode,
    line: u32,
    via: Option<&str>,
    in_scope: bool,
    pairs: &mut Vec<PairSite>,
) {
    if !in_scope {
        return;
    }
    for g in guards {
        for nl in new_locks {
            // Identity-less receivers cannot participate in ordering.
            if g.lock == "<unknown>" || nl == "<unknown>" {
                continue;
            }
            if &g.lock != nl {
                pairs.push(PairSite {
                    first: g.lock.clone(),
                    second: nl.clone(),
                    file: node.file.clone(),
                    line,
                    via: via.map(str::to_string),
                });
            }
        }
    }
}

/// Emit C001 findings for every pair observed in both orders.
fn resolve_lock_order(pairs: &[PairSite], out: &mut Vec<(String, Finding)>) {
    for p in pairs {
        let Some(opposite) = pairs.iter().find(|q| q.first == p.second && q.second == p.first)
        else {
            continue;
        };
        let how = match &p.via {
            Some(callee) => format!("acquires `{}` (via `{}()`)", p.second, callee),
            None => format!("acquires `{}`", p.second),
        };
        out.push((
            p.file.clone(),
            Finding {
                rule: "C001",
                line: p.line,
                message: format!(
                    "{how} while holding `{}`, but {}:{} acquires them in the opposite order — \
                     inconsistent lock order can deadlock",
                    p.first, opposite.file, opposite.line
                ),
            },
        ));
    }
}

/// P001: panic-capable operations in functions reachable from the
/// configured protocol entry-point files.
fn scan_p001(
    units: &[Unit],
    graph: &CallGraph,
    cfg: &Config,
    sf_by_file: &BTreeMap<&str, &SourceFile>,
    out: &mut Vec<(String, Finding)>,
) {
    let entry_paths = cfg.rule("P001").entry_paths;
    if entry_paths.is_empty() || units.is_empty() {
        return;
    }
    let seeds: Vec<usize> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| entry_paths.iter().any(|p| p == &n.file))
        .map(|(i, _)| i)
        .collect();
    for i in graph.reachable(&seeds) {
        let node = &graph.nodes[i];
        let Some(sf) = sf_by_file.get(node.file.as_str()) else { continue };
        let Some((lo, hi)) = node.item.body else { continue };
        scan_panics(sf, lo, hi, &node.file, out);
    }
}

/// Identifiers that legitimately precede a `[` that is *not* indexing
/// (`&mut [u8]`, `for x in [..]`, `return [0; 4]`, …).
const NONINDEX_PRECEDERS: &[&str] =
    &["let", "mut", "ref", "in", "return", "break", "move", "box", "else", "dyn"];

fn scan_panics(
    sf: &SourceFile,
    lo: usize,
    hi: usize,
    file: &str,
    out: &mut Vec<(String, Finding)>,
) {
    let toks = &sf.tokens;
    let code: Vec<usize> = (lo + 1..hi).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let mut push = |line: u32, what: String| {
        out.push((
            file.to_string(),
            Finding {
                rule: "P001",
                line,
                message: format!(
                    "{what} is reachable from a protocol entry point; a multi-tenant server \
                     must not die on one request — return a protocol `Error` or waive with \
                     `// grape6-lint: infallible(reason)`"
                ),
            },
        ));
    };
    for w in 0..code.len() {
        let t = &toks[code[w]];
        let next = code.get(w + 1).map(|&i| &toks[i]);
        match t.kind {
            TokKind::Ident
                if PANICKY_CALLS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "(") =>
            {
                push(t.line, format!("`.{}()`", t.text));
            }
            TokKind::Ident
                if PANICKY_MACROS.contains(&t.text.as_str())
                    && next.is_some_and(|n| n.kind == TokKind::Punct && n.text == "!") =>
            {
                push(t.line, format!("`{}!`", t.text));
            }
            TokKind::Punct if t.text == "[" && w > 0 => {
                let p = &toks[code[w - 1]];
                let indexing = match p.kind {
                    TokKind::Ident => !NONINDEX_PRECEDERS.contains(&p.text.as_str()),
                    TokKind::Punct => p.text == ")" || p.text == "]",
                    _ => false,
                };
                if indexing {
                    push(t.line, "indexing (`[...]` can panic out of bounds)".to_string());
                }
            }
            _ => {}
        }
    }
}

/// `. lock ( )`, `. read ( )`, `. write ( )` at window `w` (the `.`).
/// The empty-parens requirement keeps `io::Read::read(buf)` and
/// `io::Write::write(data)` from registering as RwLock acquisitions.
fn is_lock_acquisition(toks: &[Token], code: &[usize], w: usize) -> bool {
    let at = |k: usize| code.get(w + k).map(|&i| &toks[i]);
    at(1).is_some_and(|t| {
        t.kind == TokKind::Ident && matches!(t.text.as_str(), "lock" | "read" | "write")
    }) && at(2).is_some_and(|t| t.kind == TokKind::Punct && t.text == "(")
        && at(3).is_some_and(|t| t.kind == TokKind::Punct && t.text == ")")
}

/// Identity of the lock receiver before the `.` at window `w`:
/// `self.inner.lock()` in `impl JobService` → `JobService.inner`,
/// `WORKERS.lock()` → `WORKERS`, `workers().lock()` → `workers()`.
fn receiver_id(toks: &[Token], code: &[usize], w: usize, self_ty: Option<&str>) -> String {
    if w == 0 {
        return "<unknown>".into();
    }
    let prev = &toks[code[w - 1]];
    if prev.kind == TokKind::Punct && prev.text == ")" {
        // `helper().lock()`: back-match to the ident before the parens.
        let mut depth = 0i32;
        let mut k = w - 1;
        loop {
            let t = &toks[code[k]];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    ")" => depth += 1,
                    "(" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if k == 0 {
                return "<unknown>".into();
            }
            k -= 1;
        }
        if k > 0 && toks[code[k - 1]].kind == TokKind::Ident {
            return format!("{}()", toks[code[k - 1]].text);
        }
        return "<unknown>".into();
    }
    // Tuple fields (`self.0.lock()`) are Literal tokens; accept them as
    // path segments alongside identifiers.
    let is_seg = |t: &Token| t.kind == TokKind::Ident || t.kind == TokKind::Literal;
    if !is_seg(prev) {
        return "<unknown>".into();
    }
    // Collect the dotted segment chain right-to-left.
    let mut segs = vec![prev.text.clone()];
    let mut k = w - 1;
    while k >= 2
        && toks[code[k - 1]].kind == TokKind::Punct
        && toks[code[k - 1]].text == "."
        && is_seg(&toks[code[k - 2]])
    {
        segs.insert(0, toks[code[k - 2]].text.clone());
        k -= 2;
    }
    if segs[0] == "self" {
        if let Some(ty) = self_ty {
            segs[0] = ty.to_string();
        }
    }
    segs.join(".")
}

/// The name the statement starting at `stmt_start` binds its value to, if
/// the acquisition at `w` belongs to one: `let [mut] name = …` or a plain
/// reassignment `name = …` (how a loop re-locks, `inner = self.locked()`).
fn stmt_binding(toks: &[Token], code: &[usize], stmt_start: usize, w: usize) -> Option<String> {
    let first = &toks[*code.get(stmt_start)?];
    if first.kind == TokKind::Ident && first.text == "let" {
        let mut k = stmt_start + 1;
        let t = &toks[*code.get(k)?];
        let name = if t.kind == TokKind::Ident && t.text == "mut" {
            k += 1;
            &toks[*code.get(k)?]
        } else {
            t
        };
        return (name.kind == TokKind::Ident && k < w).then(|| name.text.clone());
    }
    // Reassignment: bare ident followed by a single `=`. The lexer splits
    // `==` and `=>` into char puncts, so exclude a trailing `=`/`>`.
    if first.kind == TokKind::Ident && stmt_start + 1 < w {
        let eq = &toks[*code.get(stmt_start + 1)?];
        let after = code.get(stmt_start + 2).map(|&i| &toks[i]);
        if eq.kind == TokKind::Punct
            && eq.text == "="
            && after
                .is_some_and(|t| !(t.kind == TokKind::Punct && (t.text == "=" || t.text == ">")))
        {
            return Some(first.text.clone());
        }
    }
    None
}

/// `stdin` / `stdout` / `stderr` receivers (with or without a call suffix):
/// std's stdio locks are per-handle buffers designed to be written and
/// flushed *through* the held guard, not cross-thread lock hazards.
fn is_std_io_handle(id: &str) -> bool {
    let last = id.rsplit('.').next().unwrap_or(id);
    matches!(last.trim_end_matches("()"), "stdin" | "stdout" | "stderr")
}

/// Single-identifier argument of the call whose name is at window `w`
/// (`drop(g)` → `g`).
fn arg_ident<'a>(toks: &'a [Token], code: &[usize], w: usize) -> Option<&'a str> {
    let open = &toks[*code.get(w + 1)?];
    let arg = &toks[*code.get(w + 2)?];
    let close = &toks[*code.get(w + 3)?];
    (open.text == "(" && arg.kind == TokKind::Ident && close.text == ")")
        .then_some(arg.text.as_str())
}

/// Every lock id acquired in the raw-token span `[lo, hi]`.
fn span_lock_ids(sf: &SourceFile, lo: usize, hi: usize, self_ty: Option<&str>) -> BTreeSet<String> {
    let toks = &sf.tokens;
    let code: Vec<usize> = (lo + 1..hi).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let spawned = spawn_arg_spans(toks, &code);
    let mut out = BTreeSet::new();
    for w in 0..code.len() {
        if spawned.iter().any(|&(a, b)| code[w] >= a && code[w] <= b) {
            continue;
        }
        if toks[code[w]].kind == TokKind::Punct
            && toks[code[w]].text == "."
            && is_lock_acquisition(toks, &code, w)
        {
            let id = receiver_id(toks, &code, w, self_ty);
            if id != "<unknown>" && !is_std_io_handle(&id) {
                out.insert(id);
            }
        }
    }
    out
}

/// Every blocking call name invoked directly in the span (guard-held or not;
/// liveness is judged at the *call sites* of this function).
fn span_blocking_calls(sf: &SourceFile, lo: usize, hi: usize) -> BTreeSet<String> {
    let toks = &sf.tokens;
    let code: Vec<usize> = (lo + 1..hi).filter(|&i| toks[i].kind != TokKind::Comment).collect();
    let spawned = spawn_arg_spans(toks, &code);
    let mut out = BTreeSet::new();
    for w in 0..code.len().saturating_sub(1) {
        if spawned.iter().any(|&(a, b)| code[w] >= a && code[w] <= b) {
            continue;
        }
        let t = &toks[code[w]];
        let n = &toks[code[w + 1]];
        if t.kind == TokKind::Ident
            && BLOCKING.contains(&t.text.as_str())
            && n.kind == TokKind::Punct
            && n.text == "("
        {
            out.insert(t.text.clone());
        }
    }
    out
}

/// Raw-token spans of `spawn(...)` argument lists. Work inside a spawned
/// closure runs on another thread: its acquisitions and blocking calls do
/// not execute under the spawning function's guards.
fn spawn_arg_spans(toks: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for w in 0..code.len().saturating_sub(1) {
        let t = &toks[code[w]];
        let n = &toks[code[w + 1]];
        if !(t.kind == TokKind::Ident
            && t.text == "spawn"
            && n.kind == TokKind::Punct
            && n.text == "(")
        {
            continue;
        }
        let mut depth = 0i32;
        for k in w + 1..code.len() {
            let p = &toks[code[k]];
            if p.kind != TokKind::Punct {
                continue;
            }
            match p.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((code[w + 1], code[k]));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}
