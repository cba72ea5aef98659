//! Guard: every `pub fn` of a library crate has a caller outside it.
//!
//! A `pub fn` in `crates/*/src` (outside `src/bin`) whose name appears
//! nowhere outside its own crate's library source is API surface nothing
//! uses: make it `pub(crate)`, and let `dead_code` say whether anything
//! calls it at all. "Outside" is the other crates' `src/`, every `tests/`,
//! `examples/`, the facade's `src/`, `crates/bench/src/bin` and
//! `benchmark/src`. Names are matched as identifiers after comments are
//! dropped (code in a doc comment's fenced example is kept: a doctest is a
//! caller), so the scan is an upper bound: it may pass a function whose name
//! merely coincides with another identifier, but it never flags one that has
//! a caller.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Functions kept `pub` without an outside caller, each with its reason.
const ALLOWED: &[(&str, &str)] = &[(
    "history",
    "ScalingManager::history: the decision log stays public until a structured decision trace replaces it",
)];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `src` without its comments and char literals, line for line, keeping the
/// fenced code blocks of doc comments (doctests call functions). String
/// contents stay: a name in a string still counts, which keeps the scan an
/// upper bound.
fn code(src: &str) -> String {
    let mut lines = String::with_capacity(src.len());
    let mut in_fence = false;
    for line in src.lines() {
        let trimmed = line.trim_start();
        match trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        {
            Some(doc) if doc.trim_start().starts_with("```") => in_fence = !in_fence,
            Some(doc) if in_fence => lines.push_str(doc),
            Some(_) => {}
            None => lines.push_str(line),
        }
        lines.push('\n');
    }
    let b = lines.as_bytes();
    let mut out = String::with_capacity(lines.len());
    let (mut i, mut from) = (0, 0);
    while i < b.len() {
        let skip_to = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => lines[i..].find('\n').map_or(b.len(), |j| i + j),
            b'/' if b.get(i + 1) == Some(&b'*') => {
                lines[i..].find("*/").map_or(b.len(), |j| i + j + 2)
            }
            b'"' => {
                // Skip to the closing quote so that `//` inside a string is
                // not taken for a comment; the contents are kept.
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                continue;
            }
            b'\'' => {
                // A char literal; a lifetime has no closing quote.
                let body = lines[i + 1..].chars().next().map_or(0, char::len_utf8);
                let end = if b.get(i + 1) == Some(&b'\\') {
                    lines[i + 2..].find('\'').map(|j| i + 2 + j + 1)
                } else {
                    (b.get(i + 1 + body) == Some(&b'\'')).then_some(i + 2 + body)
                };
                match end {
                    Some(end) => end,
                    None => {
                        i += 1;
                        continue;
                    }
                }
            }
            _ => {
                i += 1;
                continue;
            }
        };
        out.push_str(&lines[from..i]);
        out.push(' ');
        // Keep the line count, so that line numbers stay those of `src`.
        out.extend(lines[i..skip_to].matches('\n').map(|_| '\n'));
        i = skip_to;
        from = i;
    }
    out.push_str(&lines[from.min(b.len())..]);
    out
}

/// The (ASCII) identifiers of `code`.
fn identifiers(code: &str) -> impl Iterator<Item = &[u8]> {
    code.as_bytes()
        .split(|b| !(b.is_ascii_alphanumeric() || *b == b'_'))
        .filter(|w| !w.is_empty())
}

/// The name declared by a `pub fn` line, if `line` is one.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[test]
fn every_pub_fn_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    crates.sort();
    assert!(
        crates.len() >= 7,
        "found only {} library crates",
        crates.len()
    );

    let mut shared = Vec::new();
    for dir in ["tests", "examples", "src", "benchmark/src"] {
        rust_files(&root.join(dir), &mut shared);
    }
    // This file names functions without calling them.
    shared.retain(|p| *p != root.join(file!()));
    let mut library = Vec::new();
    for krate in &crates {
        rust_files(&krate.join("tests"), &mut shared);
        let mut src = Vec::new();
        rust_files(&krate.join("src"), &mut src);
        let (bins, lib): (Vec<_>, Vec<_>) = src
            .into_iter()
            .partition(|p| p.starts_with(krate.join("src/bin")));
        shared.extend(bins);
        library.push(lib);
    }

    let code_of = |p: &PathBuf| code(&fs::read_to_string(p).expect("readable source"));
    let library: Vec<Vec<(String, PathBuf)>> = library
        .into_iter()
        .map(|files| files.into_iter().map(|p| (code_of(&p), p)).collect())
        .collect();
    let mut declared = BTreeSet::new();
    for (code, _) in library.iter().flatten() {
        declared.extend(code.lines().filter_map(pub_fn_name).map(str::as_bytes));
    }
    // Which declared names each crate's library, and everything outside
    // every library, mentions.
    let mentions = |code: &str, into: &mut BTreeSet<String>| {
        for w in identifiers(code) {
            if declared.contains(w) {
                into.insert(String::from_utf8_lossy(w).into_owned());
            }
        }
    };
    let mut shared_words = BTreeSet::new();
    for p in &shared {
        mentions(&code_of(p), &mut shared_words);
    }
    let lib_words: Vec<BTreeSet<String>> = library
        .iter()
        .map(|files| {
            let mut words = BTreeSet::new();
            for (code, _) in files {
                mentions(code, &mut words);
            }
            words
        })
        .collect();

    let mut offenders = Vec::new();
    let mut allowed_hits = BTreeSet::new();
    for (k, files) in library.iter().enumerate() {
        let outside = |name: &str| {
            shared_words.contains(name)
                || lib_words
                    .iter()
                    .enumerate()
                    .any(|(j, w)| j != k && w.contains(name))
        };
        for (code, p) in files {
            for (n, line) in code.lines().enumerate() {
                let Some(name) = pub_fn_name(line) else {
                    continue;
                };
                if outside(name) {
                    continue;
                }
                if let Some(&(allowed, _)) = ALLOWED.iter().find(|&&(a, _)| a == name) {
                    allowed_hits.insert(allowed);
                    continue;
                }
                let file = p.strip_prefix(root).unwrap_or(p);
                offenders.push(format!("{}:{}: pub fn {name}", file.display(), n + 1));
            }
        }
    }
    let stale: Vec<_> = ALLOWED
        .iter()
        .filter(|(a, _)| !allowed_hits.contains(a))
        .map(|(a, _)| *a)
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries no longer needed: {stale:?}"
    );
    assert!(
        offenders.is_empty(),
        "{} pub fn with no caller outside their crate (make them pub(crate)):\n{}",
        offenders.len(),
        offenders.join("\n")
    );
}
