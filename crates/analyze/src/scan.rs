//! Source-file model for the analyzer.
//!
//! Parses a Rust source file just deeply enough for reliable token-level
//! rules: comments and string literals are blanked out (so a forbidden
//! token inside an error message never counts), the remaining text is
//! tokenized (see [`crate::token`]), `#[cfg(test)]` regions are marked
//! from the token stream (test code is exempt from most rules), and
//! `// analyze::allow(<rule>)` escape-hatch markers are collected.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use crate::token::{matching_close, tokenize, Token};
use crate::{Error, Result};

/// One scanned line of source.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The raw text, untouched.
    pub raw: String,
    /// The text with comments and string/char literals blanked to spaces.
    /// Pattern rules match against this.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Rule ids (`"R1"`…) allowed on this line via the escape hatch.
    pub allowed: BTreeSet<String>,
}

/// One `// analyze::allow(…)` escape-hatch marker.
#[derive(Debug, Clone)]
pub struct AllowMarker {
    /// 1-based line the marker sits on (it covers this line and the next).
    pub line: usize,
    /// The rule ids the marker grants, uppercased.
    pub ids: Vec<String>,
}

/// A scanned source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub rel_path: PathBuf,
    /// The scanned lines, in order.
    pub lines: Vec<Line>,
    /// The token stream of the stripped source (comments/strings blanked
    /// before lexing, so their contents never produce tokens).
    pub tokens: Vec<Token>,
    /// Every allow marker in the file, in line order.
    pub markers: Vec<AllowMarker>,
    /// `(marker line, rule id)` pairs consumed by a rule during analysis
    /// — a marker that suppressed at least one would-be finding. R16
    /// flags the rest as stale. Interior mutability because recording
    /// happens inside the `&self` exemption queries every rule calls.
    used_allows: RefCell<BTreeSet<(usize, String)>>,
}

impl SourceFile {
    /// Loads and scans one file. `root` is the workspace root used to
    /// relativise the path in findings.
    pub fn load(root: &Path, path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path).map_err(|source| Error::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let rel_path = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        Ok(Self::from_source(rel_path, &text))
    }

    /// Scans source text (exposed for unit tests).
    pub fn from_source(rel_path: PathBuf, text: &str) -> Self {
        let (stripped, comments) = split_code_and_comments(text);
        let raw_lines: Vec<&str> = text.lines().collect();
        let code_lines: Vec<&str> = stripped.lines().collect();
        let comment_lines: Vec<&str> = comments.lines().collect();
        let tokens = tokenize(&stripped);

        let in_test_flags = test_region_lines(&tokens, raw_lines.len());

        // Allow markers: a marker covers its own line and the next.
        let mut allows: Vec<BTreeSet<String>> = vec![BTreeSet::new(); raw_lines.len()];
        let mut markers = Vec::new();
        for (i, comment) in comment_lines.iter().enumerate() {
            if let Some(ids) = parse_allow_marker(comment) {
                for id in &ids {
                    allows[i].insert(id.clone());
                }
                if i + 1 < raw_lines.len() {
                    for id in &ids {
                        allows[i + 1].insert(id.clone());
                    }
                }
                markers.push(AllowMarker { line: i + 1, ids });
            }
        }

        let lines = raw_lines
            .iter()
            .enumerate()
            .map(|(i, raw)| Line {
                number: i + 1,
                raw: (*raw).to_string(),
                code: code_lines.get(i).copied().unwrap_or("").to_string(),
                in_test: in_test_flags.get(i).copied().unwrap_or(false),
                allowed: std::mem::take(&mut allows[i]),
            })
            .collect();
        SourceFile {
            rel_path,
            lines,
            tokens,
            markers,
            used_allows: RefCell::new(BTreeSet::new()),
        }
    }

    /// Whether `line` (1-based) sits inside a `#[cfg(test)]` region.
    pub fn line_in_test(&self, line: usize) -> bool {
        self.lines
            .get(line.saturating_sub(1))
            .is_some_and(|l| l.in_test)
    }

    /// Whether `rule_id` is allowed on `line` (1-based) via the escape
    /// hatch. A positive answer marks the granting marker(s) as *used*,
    /// which is what keeps them off R16's stale list.
    pub fn line_allowed(&self, line: usize, rule_id: &str) -> bool {
        let hit = self
            .lines
            .get(line.saturating_sub(1))
            .is_some_and(|l| l.allowed.contains(rule_id));
        if hit {
            let mut used = self.used_allows.borrow_mut();
            for m in &self.markers {
                if (m.line == line || m.line + 1 == line) && m.ids.iter().any(|i| i == rule_id) {
                    used.insert((m.line, rule_id.to_string()));
                }
            }
        }
        hit
    }

    /// Whether any marker in the file grants `rule_id` (file-scope rules
    /// like R5 use this). Like [`Self::line_allowed`], a positive answer
    /// marks the granting marker(s) as used.
    pub fn any_line_allows(&self, rule_id: &str) -> bool {
        let mut hit = false;
        let mut used = self.used_allows.borrow_mut();
        for m in &self.markers {
            if m.ids.iter().any(|i| i == rule_id) {
                used.insert((m.line, rule_id.to_string()));
                hit = true;
            }
        }
        hit
    }

    /// Whether the marker at `marker_line` was consumed for `rule_id`
    /// during analysis (R16's staleness query).
    pub fn allow_used(&self, marker_line: usize, rule_id: &str) -> bool {
        self.used_allows
            .borrow()
            .contains(&(marker_line, rule_id.to_string()))
    }

    /// A token's line is exempt from a rule when it is test code or the
    /// rule is explicitly allowed there.
    pub fn token_exempt(&self, token: &Token, rule_id: &str) -> bool {
        self.line_in_test(token.line) || self.line_allowed(token.line, rule_id)
    }

    /// The raw text of a 1-based line, trimmed, for finding excerpts.
    pub fn excerpt_at(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| crate::rules::excerpt(&l.raw))
            .unwrap_or_default()
    }
}

/// Computes, from the token stream, which lines fall inside a
/// `#[cfg(test)]` region: the attribute itself, any stacked attributes,
/// and the annotated item through its closing brace (or terminating
/// semicolon for body-less items). Token-based matching handles the cases
/// a line scanner silently misses: the attribute and the item's opening
/// brace on one line (`#[cfg(test)] mod t { … }`), stacked attributes,
/// and brace counts confused by braces in (already-blanked) strings.
///
/// `#[cfg(...)]` groups mentioning `not` (e.g. `#[cfg(not(test))]`) are
/// *not* test regions: that code is live in production builds and must
/// stay checked.
fn test_region_lines(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut flags = vec![false; line_count];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let Some(close) = matching_close(tokens, i + 1, "[", "]") else {
            break;
        };
        let group = &tokens[i + 2..close];
        let is_cfg_test = group.iter().any(|t| t.is_ident("cfg"))
            && group.iter().any(|t| t.is_ident("test"))
            && !group.iter().any(|t| t.is_ident("not"));
        if !is_cfg_test {
            i = close + 1;
            continue;
        }

        let start_line = tokens[i].line;
        // Skip stacked attributes on the same item.
        let mut j = close + 1;
        while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
            match matching_close(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item extends to its matching close brace, or to the first
        // semicolon for body-less items (`mod tests;`, `use …;`).
        let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
        let mut k = j;
        while k < tokens.len() {
            if tokens[k].is_punct(";") {
                end_line = tokens[k].line;
                break;
            }
            if tokens[k].is_punct("{") {
                match matching_close(tokens, k, "{", "}") {
                    Some(c) => {
                        end_line = tokens[c].line;
                        k = c;
                    }
                    None => {
                        // Unbalanced (mid-edit source): mark to EOF.
                        end_line = line_count;
                    }
                }
                break;
            }
            k += 1;
        }
        for line in start_line..=end_line.min(line_count) {
            flags[line - 1] = true;
        }
        i = k.max(j) + 1;
    }
    flags
}

/// Extracts rule ids from an `analyze::allow(R1, R4)` marker, if present.
///
/// Two guards keep prose from becoming policy: doc-comment lines (`///`,
/// `//!`) never carry markers — rustdoc that *mentions* the escape hatch
/// must not silently grant it — and every id must be rule-shaped (`R`
/// plus digits), so source that merely contains the marker string (the
/// analyzer's own parser, say) doesn't register garbage grants.
pub(crate) fn parse_allow_marker(line: &str) -> Option<Vec<String>> {
    let lead = line.trim_start();
    if lead.starts_with("///") || lead.starts_with("//!") {
        return None;
    }
    let idx = line.find("analyze::allow(")?;
    let rest = &line[idx + "analyze::allow(".len()..];
    let close = rest.find(')')?;
    let ids = rest[..close]
        .split(',')
        .map(|s| s.trim().to_ascii_uppercase())
        .filter(|s| is_rule_shaped(s))
        .collect::<Vec<_>>();
    if ids.is_empty() {
        None
    } else {
        Some(ids)
    }
}

/// `R` followed by one or more digits — the only id shape markers accept.
pub(crate) fn is_rule_shaped(id: &str) -> bool {
    let mut chars = id.chars();
    chars.next() == Some('R') && {
        let rest: Vec<char> = chars.collect();
        !rest.is_empty() && rest.iter().all(|c| c.is_ascii_digit())
    }
}

/// Splits source text into a *code* stream and a *comments* stream, both
/// position-preserving (same line structure, same column offsets).
///
/// In the code stream, comments and string/char-literal contents become
/// spaces, so tokenization and line-based rules can never fire inside
/// them. In the comments stream only comment text survives (including
/// its `//`, `//!`, `///`, `/*` introducers) — everything else becomes
/// spaces — so `analyze::allow` markers are parsed from *comments only*:
/// a string literal that merely mentions the marker (the analyzer's own
/// finding messages, say) must not register a grant.
fn split_code_and_comments(text: &str) -> (String, String) {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
    }

    let mut out = String::with_capacity(text.len());
    let mut com = String::with_capacity(text.len());
    let chars: Vec<char> = text.chars().collect();
    let mut state = State::Code;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                    out.push(' ');
                    com.push('/');
                    com.push('/');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    com.push('/');
                    com.push('*');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    out.push(' ');
                    com.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"…" or r#"…"#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            out.push(' ');
                            com.push(' ');
                        }
                        i = j + 1;
                        state = State::RawStr(hashes);
                        continue;
                    }
                    out.push(c);
                    com.push(' ');
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes with ' a
                    // character or escape later; a lifetime never does.
                    let close_at = if next == Some('\\') {
                        // Escaped char. The escape payload starts at i+2, so
                        // the close search must begin at i+3 — starting at
                        // i+2 made `'\''` blank the wrong span (the escaped
                        // quote matched first, leaving a stray tick that
                        // tokenized as a bogus lifetime).
                        match chars.get(i + 2) {
                            // '\u{…}': up to six hex digits, then `}` then
                            // the closing quote. A fixed 8-char window cut
                            // long escapes like '\u{1F600}' short, leaking
                            // the literal's braces into stripped code.
                            Some('u') if chars.get(i + 3) == Some(&'{') => (i + 4
                                ..chars.len().min(i + 12))
                                .find(|&j| chars[j] == '}')
                                .filter(|&j| chars.get(j + 1) == Some(&'\''))
                                .map(|j| j + 1),
                            // '\n', '\'', '\\', '\x7f', …
                            Some(_) => (i + 3..chars.len().min(i + 9)).find(|&j| chars[j] == '\''),
                            None => None,
                        }
                    } else if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                        Some(i + 2)
                    } else {
                        None
                    };
                    if let Some(end) = close_at {
                        for _ in i..=end {
                            out.push(' ');
                            com.push(' ');
                        }
                        i = end + 1;
                        continue;
                    }
                    out.push(c); // lifetime tick
                    com.push(' ');
                }
                '\n' => {
                    out.push('\n');
                    com.push('\n');
                }
                _ => {
                    out.push(c);
                    com.push(' ');
                }
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                    com.push('\n');
                } else {
                    out.push(' ');
                    com.push(c);
                }
            }
            State::BlockComment(nesting) => {
                if c == '\n' {
                    out.push('\n');
                    com.push('\n');
                } else if c == '*' && next == Some('/') {
                    out.push(' ');
                    out.push(' ');
                    com.push('*');
                    com.push('/');
                    i += 2;
                    state = if nesting == 1 {
                        State::Code
                    } else {
                        State::BlockComment(nesting - 1)
                    };
                    continue;
                } else if c == '/' && next == Some('*') {
                    out.push(' ');
                    out.push(' ');
                    com.push('/');
                    com.push('*');
                    i += 2;
                    state = State::BlockComment(nesting + 1);
                    continue;
                } else {
                    out.push(' ');
                    com.push(c);
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    com.push(' ');
                    if next.is_some() {
                        let nl = if next == Some('\n') { '\n' } else { ' ' };
                        out.push(nl);
                        com.push(nl);
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    out.push(' ');
                    com.push(' ');
                    state = State::Code;
                }
                '\n' => {
                    out.push('\n');
                    com.push('\n');
                }
                _ => {
                    out.push(' ');
                    com.push(' ');
                }
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    let all_hashes = (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'));
                    if all_hashes {
                        for _ in 0..=hashes {
                            out.push(' ');
                            com.push(' ');
                        }
                        i += hashes + 1;
                        state = State::Code;
                        continue;
                    }
                    out.push(' ');
                    com.push(' ');
                } else if c == '\n' {
                    out.push('\n');
                    com.push('\n');
                } else {
                    out.push(' ');
                    com.push(' ');
                }
            }
        }
        i += 1;
    }
    (out, com)
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
pub fn rust_files(dir: &Path) -> Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    collect_rust_files(dir, &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    let entries = std::fs::read_dir(dir).map_err(|source| Error::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| Error::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn scan(text: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from("x.rs"), text)
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let f = scan("let a = \"thread_rng\"; // thread_rng\nlet b = 1;\n");
        assert!(!f.lines[0].code.contains("thread_rng"));
        assert!(f.lines[0].raw.contains("thread_rng"));
        assert!(f.lines[1].code.contains("let b"));
        assert!(!f.tokens.iter().any(|t| t.text == "thread_rng"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = scan("a /* x\ny */ b\n");
        assert!(f.lines[0].code.starts_with('a'));
        assert!(!f.lines[1].code.contains('y'));
        assert!(f.lines[1].code.contains('b'));
    }

    #[test]
    fn nested_block_comments_fully_blanked() {
        // A nested `/* /* */ */` must not resurface code after the inner
        // close: everything through the *outer* close is comment.
        let f = scan("a /* x /* y */ println!(\"z\") */ b\n");
        assert!(!f.lines[0].code.contains("println"));
        assert!(f.lines[0].code.contains('b'));
        // Multi-line nesting.
        let g = scan("/* outer\n/* inner */\nstill_comment\n*/ live();\n");
        assert!(!g.lines[2].code.contains("still_comment"));
        assert!(g.lines[3].code.contains("live"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = scan("let s = r#\"println!(\"hi\")\"#; call();\n");
        assert!(!f.lines[0].code.contains("println"));
        assert!(f.lines[0].code.contains("call()"));
    }

    #[test]
    fn multi_hash_raw_strings_are_blanked() {
        // `r##"…"##` may contain a `"#` without closing; only `"##` closes.
        let f = scan("let s = r##\"a \"# b println!()\"##; live();\n");
        assert!(!f.lines[0].code.contains("println"));
        assert!(f.lines[0].code.contains("live()"));
    }

    #[test]
    fn multiline_raw_string_preserves_line_numbers() {
        let f = scan("let s = r#\"first\nthread_rng()\nlast\"#;\nafter();\n");
        assert_eq!(f.lines.len(), 4);
        assert!(!f.lines[1].code.contains("thread_rng"));
        assert!(f.lines[3].code.contains("after"));
        let after = f.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 4);
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        let f = scan("let a = b\"dbg!\"; let c = br#\"eprintln!\"#; live();\n");
        assert!(!f.lines[0].code.contains("dbg"));
        assert!(!f.lines[0].code.contains("eprintln"));
        assert!(f.lines[0].code.contains("live()"));
    }

    #[test]
    fn raw_identifiers_survive_stripping() {
        let f = scan("let r#match = 1; use_it(r#match);\n");
        assert!(f.lines[0].code.contains("match"));
    }

    #[test]
    fn char_literals_blanked_lifetimes_kept() {
        let f = scan("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'y'; }\n");
        assert!(f.lines[0].code.contains("<'a>"));
        assert!(!f.lines[0].code.contains('y'));
        // The quote char literal must not open a string state.
        assert!(f.lines[0].code.contains("let d"));
    }

    #[test]
    fn escaped_quote_char_literal_leaves_no_stray_tick() {
        // `'\''` used to blank the wrong span (the escaped quote matched
        // the close search), leaving a stray `'` that tokenized as a
        // bogus lifetime and shifted every later token.
        let f = scan("let q = '\\''; let d = '\\\\'; fn g<'a>(x: &'a str) {}\n");
        use crate::token::TokenKind;
        let lifetimes: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a"], "tokens: {:?}", f.tokens);
        assert!(f.lines[0].code.contains("let d"));
    }

    #[test]
    fn long_unicode_char_literal_is_fully_blanked() {
        // A fixed 8-char close window cut '\u{1F600}' short and leaked
        // the literal's braces into stripped code, corrupting brace
        // balance for every body-range consumer.
        let f = scan("let e = '\\u{1F600}'; fn live() { x(); }\n");
        assert!(!f.lines[0].code.contains('{') || f.lines[0].code.contains("live() { x(); }"));
        assert_eq!(
            f.lines[0].code.matches('{').count(),
            f.lines[0].code.matches('}').count()
        );
        assert!(f.lines[0].code.contains("fn live"));
        let toks: Vec<&str> = f.tokens.iter().map(|t| t.text.as_str()).collect();
        assert!(!toks.contains(&"1F600"), "literal leaked: {toks:?}");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let text =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x(); }\n}\nfn after() {}\n";
        let f = scan(text);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test, "code after the test module is live");
    }

    #[test]
    fn cfg_test_inline_mod_on_one_line() {
        // The attribute, the mod and its body on a single line — a silent
        // false-negative source for the old line scanner (the pending
        // attribute was only applied from the *next* line on).
        let text = "#[cfg(test)] mod tests { fn t() { thread_rng(); } }\nfn live() {}\n";
        let f = scan(text);
        assert!(f.lines[0].in_test, "inline test mod must be marked");
        assert!(!f.lines[1].in_test);
        // Attribute and opening brace on one line, body below.
        let g = scan("#[cfg(test)] mod tests {\n    fn t() {}\n}\nfn live() {}\n");
        assert!(g.lines[0].in_test);
        assert!(g.lines[1].in_test);
        assert!(g.lines[2].in_test);
        assert!(!g.lines[3].in_test);
    }

    #[test]
    fn cfg_test_with_stacked_attributes() {
        let text = "#[cfg(test)]\n#[allow(clippy::float_cmp)]\nmod tests {\n    fn t() {}\n}\nfn live() {}\n";
        let f = scan(text);
        for i in 0..5 {
            assert!(f.lines[i].in_test, "line {} must be test", i + 1);
        }
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let f = scan("#[cfg(not(test))]\nfn live() { x(); }\n");
        assert!(!f.lines[1].in_test, "cfg(not(test)) code is live");
    }

    #[test]
    fn cfg_test_bodyless_item() {
        let f = scan("#[cfg(test)]\nmod tests;\nfn live() {}\n");
        assert!(f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn braces_in_strings_do_not_confuse_test_regions() {
        // A stray `}` inside a string used to be invisible to the line
        // scanner too (strings are blanked), but `{` counts from *raw*
        // text would end the region early. Token-based matching is immune.
        let text = "#[cfg(test)]\nmod tests {\n    fn t() { let s = \"}}}\"; }\n}\nfn live() {}\n";
        let f = scan(text);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn nested_braces_inside_test_module() {
        let text = "#[cfg(test)]\nmod tests {\n    fn t() { if x { y(); } }\n}\nfn live() {}\n";
        let f = scan(text);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn allow_marker_covers_line_and_next() {
        let text = "// analyze::allow(R1)\nuse x::thread_rng;\nuse y::z;\n";
        let f = scan(text);
        assert!(f.lines[0].allowed.contains("R1"));
        assert!(f.lines[1].allowed.contains("R1"));
        assert!(f.lines[2].allowed.is_empty());
    }

    #[test]
    fn allow_marker_multiple_rules() {
        let f = scan("let x = 1; // analyze::allow(R2, r4)\n");
        assert!(f.lines[0].allowed.contains("R2"));
        assert!(f.lines[0].allowed.contains("R4"));
        assert_eq!(f.markers.len(), 1);
        assert_eq!(f.markers[0].line, 1);
    }

    #[test]
    fn doc_comment_mentions_are_not_markers() {
        // Rustdoc that *describes* the escape hatch must not grant it.
        let f = scan(
            "/// write `// analyze::allow(R8)` here\nuse x::thread_rng;\n//! analyze::allow(R1)\n",
        );
        assert!(f.markers.is_empty());
        assert!(f.lines[1].allowed.is_empty());
    }

    #[test]
    fn malformed_ids_do_not_register() {
        // Code that merely contains the marker string (the analyzer's own
        // parser) must not register garbage grants.
        let f =
            scan("let idx = line.find(\"analyze::allow(\")?;\n// analyze::allow(banana, R2x)\n");
        assert!(f.markers.is_empty());
    }

    #[test]
    fn line_allowed_records_marker_usage() {
        let f = scan("// analyze::allow(R4)\nuse x;\nuse y;\n");
        assert!(!f.allow_used(1, "R4"));
        assert!(f.line_allowed(2, "R4"));
        assert!(f.allow_used(1, "R4"));
        assert!(!f.allow_used(1, "R1"));
        assert!(!f.line_allowed(3, "R4"));
    }

    #[test]
    fn any_line_allows_records_usage() {
        let f = scan("fn f() {}\n// analyze::allow(R5)\nfn g() {}\n");
        assert!(f.any_line_allows("R5"));
        assert!(f.allow_used(2, "R5"));
        assert!(!f.any_line_allows("R9"));
    }

    #[test]
    fn marker_inside_string_literal_is_not_a_grant() {
        // The analyzer's own finding messages mention the escape hatch in
        // string literals; those must never register markers.
        let f = scan("fn msg() -> &'static str {\n    \"carry analyze::allow(R15)\"\n}\n");
        assert!(f.markers.is_empty(), "{:?}", f.markers);
        let g = scan("fn ok() {}\n// real grant: analyze::allow(R15)\nfn idx() {}\n");
        assert_eq!(g.markers.len(), 1);
        assert_eq!(g.markers[0].line, 2);
    }
}
