//! `wbsn-verify` — a workspace static-analysis pass that machine-checks
//! the repo's load-bearing invariants.
//!
//! The workspace's correctness story rests on a handful of invariants
//! that ordinary tests only probe at runtime and only on the paths they
//! exercise: zero steady-state allocations and no per-iteration clock
//! reads in the `SoA` kernels' hot loops, bit-identical objectives
//! across every evaluation route, a typed (not
//! panicking) failure surface in the serve layer, one-lock-at-a-time
//! discipline around the sharded memo, and a single definition of the
//! MAC error-resolution sequence. This crate checks those invariants
//! *statically*, over the whole workspace source tree, on every test
//! run and CI build.
//!
//! It is deliberately dependency-free — the build environment has no
//! registry access, so the analyzer lexes Rust itself
//! ([`tokenizer`]) and recovers just enough shape ([`shape`]) for the
//! lint passes ([`lints`]). Everything undecidable is *in scope*: the
//! tool over-reports, and a human silences a false positive with a
//! reasoned inline annotation that the tool itself keeps honest
//! (malformed directives and unused allows are violations too).
//!
//! # Annotation grammar
//!
//! ```text
//! // verify: allow(<lint>, reason = "<why this site is acceptable>")
//! // verify: hot-path-begin(<region-name>)
//! // verify: hot-path-end(<region-name>)
//! ```
//!
//! An `allow` suppresses one lint on the same line or on the line
//! directly below the comment. Hot-path markers declare the regions the
//! `hot-path-alloc` and `clock-discipline` lints scan; they cannot
//! nest and must balance.

pub mod lints;
pub mod shape;
pub mod tokenizer;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lints::FileCtx;
use tokenizer::Directive;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Lint name (`hot-path-alloc`, `panic-surface`, …).
    pub lint: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// Builds a violation.
    #[must_use]
    pub fn new(lint: &str, file: &str, line: u32, message: String) -> Self {
        Self { file: file.to_string(), line, lint: lint.to_string(), message }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Runs every lint over one file's source text and applies the inline
/// annotation discipline. Returns the surviving violations, sorted.
#[must_use]
pub fn check_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let lexed = tokenizer::tokenize(source);
    let test_marks = shape::mark_test_tokens(&lexed.toks);
    let fns = shape::functions(&lexed.toks, &test_marks);
    let (regions, mut raw) = shape::hot_regions(rel_path, &lexed.directives);
    let ctx = FileCtx {
        rel_path,
        toks: &lexed.toks,
        test_marks: &test_marks,
        fns: &fns,
        regions: &regions,
    };
    raw.extend(lints::hot_alloc::check(&ctx));
    raw.extend(lints::clock_discipline::check(&ctx));
    raw.extend(lints::float_det::check(&ctx));
    raw.extend(lints::panic_surface::check(&ctx));
    raw.extend(lints::exhaustive_match::check(&ctx));
    raw.extend(lints::lock_discipline::check(&ctx));
    raw.extend(lints::single_def::check(&ctx));

    // Apply `allow` suppressions: an allow covers its own line and the
    // line directly below, for its named lint only. Every allow must
    // suppress something — an allow that matches nothing is stale and
    // is itself reported, so annotations cannot outlive their sites.
    let allows: Vec<(&str, &str, u32)> = lexed
        .directives
        .iter()
        .filter_map(|d| match d {
            Directive::Allow { lint, reason, line } => {
                Some((lint.as_str(), reason.as_str(), *line))
            }
            _ => None,
        })
        .collect();
    let mut allow_used = vec![false; allows.len()];
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let suppressed = allows.iter().enumerate().any(|(k, (lint, _, line))| {
            let hit = *lint == v.lint && (v.line == *line || v.line == *line + 1);
            if hit {
                allow_used[k] = true;
            }
            hit
        });
        if !suppressed {
            out.push(v);
        }
    }
    for (k, (lint, _, line)) in allows.iter().enumerate() {
        if !allow_used[k] {
            out.push(Violation::new(
                "unused-allow",
                rel_path,
                *line,
                format!(
                    "allow({lint}) suppresses nothing — the site it covered is gone; \
                     remove the stale annotation"
                ),
            ));
        }
    }
    for d in &lexed.directives {
        if let Directive::Malformed { message, line } = d {
            out.push(Violation::new("malformed-directive", rel_path, *line, message.clone()));
        }
    }
    out.sort();
    out
}

/// Walks every `.rs` source under `<root>/crates` — `src/`, `tests/`,
/// `benches/`, `examples/`, bins alike — and checks each file. Skips
/// `target/` build output and this crate's own `fixtures/` corpus
/// (which exists to violate the lints on purpose).
///
/// # Errors
///
/// Propagates I/O failures, and fails if the walk never saw the `SoA`
/// kernel module — a scan that misses the most invariant-dense file in
/// the workspace is scanning the wrong tree, and must not report a
/// hollow "clean".
pub fn run_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut saw_kernel = false;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if rel == lints::single_def::BATCH_FILE {
            saw_kernel = true;
        }
        let source = fs::read_to_string(path)?;
        out.extend(check_source(&rel, &source));
    }
    if !saw_kernel {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "workspace walk never visited {} — wrong root directory?",
                lints::single_def::BATCH_FILE
            ),
        ));
    }
    Ok(out)
}

/// Recursively collects `.rs` files, skipping `target` and `fixtures`
/// directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = "// verify: hot-path-begin(h)\nlet v = Vec::new(); // verify: allow(hot-path-alloc, reason = \"test\")\n// verify: hot-path-end(h)\n";
        assert!(check_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allow_on_line_above_suppresses() {
        let src = "// verify: hot-path-begin(h)\n// verify: allow(hot-path-alloc, reason = \"test\")\nlet v = Vec::new();\n// verify: hot-path-end(h)\n";
        assert!(check_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unused_allow_is_a_violation() {
        let src = "// verify: allow(hot-path-alloc, reason = \"stale\")\nlet x = 1;\n";
        let vs = check_source("crates/x/src/lib.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].lint, "unused-allow");
    }

    #[test]
    fn malformed_directive_is_a_violation() {
        let vs = check_source("crates/x/src/lib.rs", "// verify: allow(hot-path-alloc)\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].lint, "malformed-directive");
    }

    #[test]
    fn allow_of_wrong_lint_does_not_suppress() {
        let src = "// verify: hot-path-begin(h)\n// verify: allow(panic-surface, reason = \"wrong lint\")\nlet v = Vec::new();\n// verify: hot-path-end(h)\n";
        let vs = check_source("crates/x/src/lib.rs", src);
        let lints: Vec<&str> = vs.iter().map(|v| v.lint.as_str()).collect();
        assert!(lints.contains(&"hot-path-alloc"));
        assert!(lints.contains(&"unused-allow"));
    }
}
