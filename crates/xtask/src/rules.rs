//! The lint rules enforced by `gssl-xtask check`.
//!
//! Every rule works on the blanked per-line view produced by
//! [`crate::scanner`], skipping `#[cfg(test)]` regions. A violation can be
//! suppressed by an inline `// lint: allow(<rule>)` marker on the offending
//! line, but only when the file/rule pair is also registered in the
//! workspace allowlist (see [`crate::allowlist`]) — unregistered markers
//! and stale registrations are themselves violations.

use crate::scanner::SourceFile;

/// The rules the checker knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Crate roots must carry `#![forbid(unsafe_code)]` and
    /// `#![deny(missing_docs)]`.
    RootAttrs,
    /// Every `pub` item must have a doc comment.
    MissingDoc,
    /// No `unwrap()`/`expect(`/`panic!`-family calls in library code.
    NoPanic,
    /// No bare `==`/`!=` against float literals; use the named helpers
    /// (`is_exactly_zero`/`is_exactly_one`) for exact sentinels.
    FloatEq,
    /// `pub enum ...Error` must be `#[non_exhaustive]` with documented
    /// variants.
    ErrorEnum,
    /// No `#[deprecated]` items: a superseded API is deleted and its
    /// migration recorded in the changelog, not carried as a shim.
    NoDeprecated,
    /// An inline `lint: allow(...)` marker has no allowlist registration.
    AllowUnlisted,
    /// An allowlist registration matches no inline marker.
    AllowStale,
}

impl Rule {
    /// Stable key used in allowlist entries and inline markers.
    #[must_use]
    pub fn key(self) -> &'static str {
        match self {
            Rule::RootAttrs => "root_attrs",
            Rule::MissingDoc => "missing_doc",
            Rule::NoPanic => "no_panic",
            Rule::FloatEq => "float_eq",
            Rule::ErrorEnum => "error_enum",
            Rule::NoDeprecated => "no_deprecated",
            Rule::AllowUnlisted => "allow_unlisted",
            Rule::AllowStale => "allow_stale",
        }
    }

    /// Parses an allowlist/marker key back into a rule.
    #[must_use]
    pub fn from_key(key: &str) -> Option<Rule> {
        match key {
            "root_attrs" => Some(Rule::RootAttrs),
            "missing_doc" => Some(Rule::MissingDoc),
            "no_panic" => Some(Rule::NoPanic),
            "float_eq" => Some(Rule::FloatEq),
            "error_enum" => Some(Rule::ErrorEnum),
            "no_deprecated" => Some(Rule::NoDeprecated),
            "allow_unlisted" => Some(Rule::AllowUnlisted),
            "allow_stale" => Some(Rule::AllowStale),
            _ => None,
        }
    }
}

/// One reported problem.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for file-level problems).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.key(),
            self.message
        )
    }
}

/// An inline `lint: allow(rule)` marker found while scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineAllow {
    /// Workspace-relative path of the file carrying the marker.
    pub file: String,
    /// 1-based line of the marker.
    pub line: usize,
    /// The rule being allowed.
    pub rule: Rule,
}

/// Extracts the rule allowed by a line comment, if any.
///
/// Recognized form: `lint: allow(<rule_key>)` anywhere in the comment.
#[must_use]
pub fn parse_inline_allow(comment: &str) -> Option<Rule> {
    let idx = comment.find("lint: allow(")?;
    let rest = &comment[idx + "lint: allow(".len()..];
    let close = rest.find(')')?;
    Rule::from_key(rest[..close].trim())
}

/// Per-file rule context passed to the checks.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Analyzed source.
    pub source: &'a SourceFile,
}

/// Result of running line rules over a file: violations that were not
/// suppressed, plus every inline-allow marker encountered.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations surviving inline suppression.
    pub violations: Vec<Violation>,
    /// All inline markers (used for allowlist reconciliation).
    pub allows: Vec<InlineAllow>,
}

/// Tokens whose presence in library code is a panic path.
const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Checks a crate-root `lib.rs` for the required inner attributes.
#[must_use]
pub fn check_root_attrs(ctx: &FileContext<'_>) -> Vec<Violation> {
    let mut missing = Vec::new();
    for required in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        let found = ctx.source.lines.iter().any(|l| l.code.trim() == required);
        if !found {
            missing.push(Violation {
                rule: Rule::RootAttrs,
                file: ctx.path.to_owned(),
                line: 1,
                message: format!("crate root is missing `{required}`"),
            });
        }
    }
    missing
}

/// Scans for panic-path tokens in non-test code.
pub fn check_no_panic(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if ctx.source.test_mask[i] {
            continue;
        }
        for token in PANIC_TOKENS {
            if line.code.contains(token) {
                report(
                    ctx,
                    out,
                    i,
                    Rule::NoPanic,
                    format!("`{token}` in library code; return an Error instead"),
                );
                break;
            }
        }
    }
}

/// Scans for `#[deprecated]` attributes (any form) in non-test code.
pub fn check_no_deprecated(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if ctx.source.test_mask[i] {
            continue;
        }
        if line.code.contains("#[deprecated") {
            report(
                ctx,
                out,
                i,
                Rule::NoDeprecated,
                "`#[deprecated]` shim; delete the item and record its replacement in \
                 CHANGELOG.md"
                    .to_owned(),
            );
        }
    }
}

/// Scans for bare `==`/`!=` comparisons against float literals.
pub fn check_float_eq(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if ctx.source.test_mask[i] {
            continue;
        }
        if has_float_comparison(&line.code) {
            report(
                ctx,
                out,
                i,
                Rule::FloatEq,
                "bare float `==`/`!=`; use is_exactly_zero/is_exactly_one or an \
                 epsilon comparison"
                    .to_owned(),
            );
        }
    }
}

/// Whether `code` contains `==` or `!=` with a float literal on either side.
fn has_float_comparison(code: &str) -> bool {
    let bytes = code.as_bytes();
    for idx in 0..bytes.len().saturating_sub(1) {
        let op = &bytes[idx..idx + 2];
        let is_eq = op == b"==";
        let is_ne = op == b"!=";
        if !is_eq && !is_ne {
            continue;
        }
        // Exclude `<=`, `>=`, `===`-like runs and `a != =` oddities.
        if idx > 0 && matches!(bytes[idx - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if bytes.get(idx + 2) == Some(&b'=') {
            continue;
        }
        let left = token_before(code, idx);
        let right = token_after(code, idx + 2);
        if is_float_literal(left) || is_float_literal(right) {
            return true;
        }
    }
    false
}

/// The identifier/literal token ending at byte `end` (exclusive).
fn token_before(code: &str, end: usize) -> &str {
    let bytes = code.as_bytes();
    let mut stop = end;
    while stop > 0 && bytes[stop - 1] == b' ' {
        stop -= 1;
    }
    let mut start = stop;
    while start > 0 && is_token_byte(bytes[start - 1]) {
        start -= 1;
    }
    &code[start..stop]
}

/// The identifier/literal token starting at byte `start`.
fn token_after(code: &str, start: usize) -> &str {
    let bytes = code.as_bytes();
    let mut begin = start;
    while begin < bytes.len() && bytes[begin] == b' ' {
        begin += 1;
    }
    // A leading unary minus is part of a literal.
    if begin < bytes.len() && bytes[begin] == b'-' {
        begin += 1;
    }
    let mut stop = begin;
    while stop < bytes.len() && is_token_byte(bytes[stop]) {
        stop += 1;
    }
    &code[begin..stop]
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// A decimal float literal: digits, a dot, optionally more digits or an
/// `f32`/`f64` suffix (e.g. `0.0`, `1.`, `2.5f64`).
fn is_float_literal(token: &str) -> bool {
    let t = token.trim_end_matches("f64").trim_end_matches("f32");
    let Some(dot) = t.find('.') else {
        return false;
    };
    let (mantissa, frac) = t.split_at(dot);
    !mantissa.is_empty()
        && mantissa.bytes().all(|b| b.is_ascii_digit())
        && frac[1..]
            .bytes()
            .all(|b| b.is_ascii_digit() || b == b'e' || b == b'E' || b == b'-' || b == b'+')
}

/// Checks that every `pub` item carries a doc comment.
pub fn check_missing_docs(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    const ITEM_KEYWORDS: [&str; 9] = [
        "fn", "struct", "enum", "trait", "mod", "type", "const", "static", "union",
    ];
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if ctx.source.test_mask[i] {
            continue;
        }
        let trimmed = line.code.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub ") else {
            continue;
        };
        let keyword_first = rest.split_whitespace().next().unwrap_or("");
        // `pub async fn` / `pub(crate)` handling: the latter never matches
        // because the prefix requires a space after `pub`.
        let item_word = if keyword_first == "async" {
            rest.split_whitespace().nth(1).unwrap_or("")
        } else {
            keyword_first
        };
        if !ITEM_KEYWORDS.contains(&item_word) {
            continue;
        }
        if !has_doc_above(ctx.source, i) {
            report(
                ctx,
                out,
                i,
                Rule::MissingDoc,
                format!("public {item_word} has no doc comment"),
            );
        }
    }
}

/// Walks upward over attribute lines; true when a doc comment is found
/// directly above the item.
fn has_doc_above(source: &SourceFile, item_line: usize) -> bool {
    let mut i = item_line;
    while i > 0 {
        i -= 1;
        let line = &source.lines[i];
        let trimmed = line.code.trim();
        if trimmed.starts_with("#[") || trimmed.starts_with("#![") {
            continue; // attribute between doc and item
        }
        // rustfmt splits long attributes across lines; a closing `)]` is
        // the tail of one. Hop to the `#[` opener and keep walking.
        if trimmed.ends_with(")]") || trimmed == "]" {
            let mut j = i;
            let mut opener = None;
            while j > 0 {
                j -= 1;
                let above = source.lines[j].code.trim();
                if above.starts_with("#[") || above.starts_with("#![") {
                    opener = Some(j);
                    break;
                }
                if above.is_empty() || source.lines[j].is_doc {
                    break;
                }
            }
            if let Some(j) = opener {
                i = j + 1; // the loop's decrement lands on the opener
                continue;
            }
        }
        return line.is_doc;
    }
    false
}

/// Checks `pub enum …Error` declarations: `#[non_exhaustive]` plus a doc
/// comment on every variant.
pub fn check_error_enum(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if ctx.source.test_mask[i] {
            continue;
        }
        let trimmed = line.code.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub enum ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if !name.ends_with("Error") && name != "Error" {
            continue;
        }
        if !has_attr_above(ctx.source, i, "#[non_exhaustive]") {
            report(
                ctx,
                out,
                i,
                Rule::ErrorEnum,
                format!("error enum `{name}` is not #[non_exhaustive]"),
            );
        }
        check_variant_docs(ctx, out, i, &name);
    }
}

/// Walks upward over contiguous attribute/doc lines looking for `attr`.
fn has_attr_above(source: &SourceFile, item_line: usize, attr: &str) -> bool {
    let mut i = item_line;
    while i > 0 {
        i -= 1;
        let line = &source.lines[i];
        let trimmed = line.code.trim();
        if trimmed == attr {
            return true;
        }
        if trimmed.starts_with("#[") || line.is_doc {
            continue;
        }
        return false;
    }
    false
}

/// Requires a doc comment on every variant of the enum starting at
/// `enum_line` (variants are code lines at brace depth 1 starting with an
/// uppercase identifier).
fn check_variant_docs(ctx: &FileContext<'_>, out: &mut FileOutcome, enum_line: usize, name: &str) {
    let mut depth = 0usize;
    let mut started = false;
    let mut pending_doc = false;
    for i in enum_line..ctx.source.lines.len() {
        let line = &ctx.source.lines[i];
        let trimmed = line.code.trim();
        if started && depth == 1 {
            if line.is_doc {
                pending_doc = true;
            } else if trimmed.starts_with("#[") {
                // attributes between doc and variant keep the pending doc
            } else if trimmed
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            {
                if !pending_doc {
                    report(
                        ctx,
                        out,
                        i,
                        Rule::ErrorEnum,
                        format!("undocumented variant of error enum `{name}`"),
                    );
                }
                pending_doc = false;
            } else if !trimmed.is_empty() {
                pending_doc = false;
            }
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if started && depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }
}

/// Records a violation unless the line carries a matching inline allow;
/// inline allows are recorded either way for allowlist reconciliation.
fn report(
    ctx: &FileContext<'_>,
    out: &mut FileOutcome,
    line_idx: usize,
    rule: Rule,
    message: String,
) {
    let line = &ctx.source.lines[line_idx];
    if parse_inline_allow(&line.comment) == Some(rule) {
        out.allows.push(InlineAllow {
            file: ctx.path.to_owned(),
            line: line_idx + 1,
            rule,
        });
        return;
    }
    out.violations.push(Violation {
        rule,
        file: ctx.path.to_owned(),
        line: line_idx + 1,
        message,
    });
}

/// Collects inline allows that suppressed nothing (markers on clean lines
/// still count as present for reconciliation purposes).
pub fn collect_inline_allows(ctx: &FileContext<'_>, out: &mut FileOutcome) {
    for (i, line) in ctx.source.lines.iter().enumerate() {
        if let Some(rule) = parse_inline_allow(&line.comment) {
            let already = out
                .allows
                .iter()
                .any(|a| a.file == ctx.path && a.line == i + 1 && a.rule == rule);
            if !already {
                out.allows.push(InlineAllow {
                    file: ctx.path.to_owned(),
                    line: i + 1,
                    rule,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::analyze;

    fn run_all(path: &str, src: &str) -> FileOutcome {
        let source = analyze(src);
        let ctx = FileContext {
            path,
            source: &source,
        };
        let mut out = FileOutcome::default();
        check_no_panic(&ctx, &mut out);
        check_float_eq(&ctx, &mut out);
        check_missing_docs(&ctx, &mut out);
        check_error_enum(&ctx, &mut out);
        check_no_deprecated(&ctx, &mut out);
        collect_inline_allows(&ctx, &mut out);
        out
    }

    #[test]
    fn flags_unwrap_outside_tests() {
        let out = run_all("x.rs", "fn f() { y.unwrap(); }");
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, Rule::NoPanic);
    }

    #[test]
    fn ignores_unwrap_in_tests_and_docs() {
        let src =
            "/// y.unwrap()\nfn f() {}\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}";
        let out = run_all("x.rs", src);
        assert!(out.violations.iter().all(|v| v.rule != Rule::NoPanic));
    }

    #[test]
    fn unwrap_or_is_not_a_panic() {
        let out = run_all("x.rs", "fn f() { y.unwrap_or(0); z.unwrap_or_else(|| 1); }");
        assert!(out.violations.iter().all(|v| v.rule != Rule::NoPanic));
    }

    #[test]
    fn flags_float_equality() {
        let out = run_all("x.rs", "fn f(x: f64) -> bool { x == 0.0 }");
        assert_eq!(
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::FloatEq)
                .count(),
            1
        );
    }

    #[test]
    fn integer_equality_is_fine() {
        let out = run_all("x.rs", "fn f(x: usize) -> bool { x == 0 && x != 3 }");
        assert!(out.violations.iter().all(|v| v.rule != Rule::FloatEq));
    }

    #[test]
    fn comparison_operators_are_fine() {
        let out = run_all("x.rs", "fn f(x: f64) -> bool { x <= 0.0 || x >= 1.0 }");
        assert!(out.violations.iter().all(|v| v.rule != Rule::FloatEq));
    }

    #[test]
    fn inline_allow_suppresses_and_is_recorded() {
        let out = run_all(
            "x.rs",
            "fn f(x: f64) -> bool { x == 0.0 } // lint: allow(float_eq)",
        );
        assert!(out.violations.is_empty());
        assert_eq!(out.allows.len(), 1);
        assert_eq!(out.allows[0].rule, Rule::FloatEq);
    }

    #[test]
    fn missing_doc_on_pub_fn() {
        let out = run_all("x.rs", "pub fn naked() {}");
        assert_eq!(
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::MissingDoc)
                .count(),
            1
        );
        let out = run_all("x.rs", "/// documented\npub fn clothed() {}");
        assert!(out.violations.iter().all(|v| v.rule != Rule::MissingDoc));
    }

    #[test]
    fn doc_through_attributes() {
        let out = run_all("x.rs", "/// doc\n#[derive(Debug)]\npub struct S;");
        assert!(out.violations.iter().all(|v| v.rule != Rule::MissingDoc));
    }

    #[test]
    fn doc_through_multiline_attribute() {
        let src = "/// doc\n#[deprecated(\n    since = \"0.5.0\",\n    \
                   note = \"use the other one\"\n)]\n#[derive(Debug)]\npub struct S;";
        let out = run_all("x.rs", src);
        assert!(out.violations.iter().all(|v| v.rule != Rule::MissingDoc));
        let undocumented = "#[deprecated(\n    since = \"0.5.0\",\n    \
                            note = \"use the other one\"\n)]\npub struct S;";
        let out = run_all("x.rs", undocumented);
        assert_eq!(
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::MissingDoc)
                .count(),
            1
        );
    }

    #[test]
    fn flags_deprecated_attributes_outside_tests() {
        let count = |out: &FileOutcome| {
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::NoDeprecated)
                .count()
        };
        let src = "/// doc\n#[deprecated(\n    since = \"0.5.0\",\n    \
                   note = \"use the other one\"\n)]\npub struct S;\n\
                   /// doc\n#[deprecated]\npub fn f() {}\n\
                   /// doc\n#[deprecated = \"gone\"]\npub type T = S;";
        let out = run_all("x.rs", src);
        assert_eq!(count(&out), 3);
        assert_eq!(
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::NoDeprecated)
                .map(|v| v.line)
                .collect::<Vec<_>>(),
            vec![2, 8, 11]
        );
        // Mentions in docs, strings and test modules are not attributes.
        let benign = "/// `#[deprecated]` is banned\nfn f() { let _ = \"#[deprecated]\"; }\n\
                      #[cfg(test)]\nmod tests {\n    #[deprecated]\n    fn old() {}\n}";
        assert_eq!(count(&run_all("x.rs", benign)), 0);
    }

    #[test]
    fn error_enum_needs_non_exhaustive_and_variant_docs() {
        let bad = "/// doc\npub enum Error {\n    Broken,\n}";
        let out = run_all("x.rs", bad);
        assert_eq!(
            out.violations
                .iter()
                .filter(|v| v.rule == Rule::ErrorEnum)
                .count(),
            2
        );

        let good =
            "/// doc\n#[non_exhaustive]\npub enum Error {\n    /// documented\n    Broken,\n}";
        let out = run_all("x.rs", good);
        assert!(out.violations.iter().all(|v| v.rule != Rule::ErrorEnum));
    }

    #[test]
    fn non_error_enums_are_ignored() {
        let out = run_all("x.rs", "/// doc\npub enum Kernel {\n    Gaussian,\n}");
        assert!(out.violations.iter().all(|v| v.rule != Rule::ErrorEnum));
    }

    #[test]
    fn root_attrs_detected() {
        let source = analyze("#![forbid(unsafe_code)]\n#![deny(missing_docs)]\n");
        let ctx = FileContext {
            path: "lib.rs",
            source: &source,
        };
        assert!(check_root_attrs(&ctx).is_empty());
        let source = analyze("#![warn(missing_docs)]\n");
        let ctx = FileContext {
            path: "lib.rs",
            source: &source,
        };
        assert_eq!(check_root_attrs(&ctx).len(), 2);
    }
}
