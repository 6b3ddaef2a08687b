//! A lightweight Rust tokenizer for the analyzer.
//!
//! Tokenizes *stripped* source text (comments and string/char literals
//! already blanked to spaces by [`crate::scan`]), so string contents can
//! never produce tokens. The token model is deliberately small — idents,
//! lifetimes, numeric literals and (joined) punctuation — which is enough
//! for every token-aware rule (R3–R8, R12, R14) and for `--fix`'s
//! token-based rewrites, without pulling in syn/rustc internals (this workspace builds
//! hermetically, so the analyzer must stay dependency-free).

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `power_w`, `f64`, …).
    Ident,
    /// Lifetime tick + name (`'a`). Char literals are blanked before
    /// tokenizing, so a surviving tick is always a lifetime.
    Lifetime,
    /// Integer literal (`42`, `0x9e37`, `1_000`).
    Int,
    /// Float literal (`1.5`, `3e-6`, `1.0f64`).
    Float,
    /// Punctuation, with the common multi-character operators joined
    /// (`::`, `->`, `==`, `<=`, `..=`, …).
    Punct,
}

/// One lexed token with its location.
#[derive(Debug, Clone)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// The token text, exactly as in the (stripped) source.
    pub text: String,
    /// 1-based line number.
    pub line: usize,
    /// 0-based *character* column of the token start within its line.
    /// Character (not byte) columns survive the strip pass, which blanks
    /// multi-byte characters to single spaces.
    pub col: usize,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }
}

/// Multi-character operators, longest first so maximal munch works.
const JOINED_PUNCT: &[&str] = &[
    "..=", "...", "<<=", ">>=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Tokenizes stripped source text. Never fails: unexpected characters
/// become single-character [`TokenKind::Punct`] tokens.
pub fn tokenize(stripped: &str) -> Vec<Token> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut col = 0usize;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            col = 0;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            col += 1;
            i += 1;
            continue;
        }

        let start_col = col;
        if c == '_' || c.is_alphabetic() {
            let mut j = i;
            while j < chars.len() && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                j += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
                col: start_col,
            });
            col += j - i;
            i = j;
            continue;
        }
        if c == '\'' {
            // Char literals were blanked; a surviving tick starts a
            // lifetime (possibly bare, as in `&'_`).
            let mut j = i + 1;
            while j < chars.len() && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                j += 1;
            }
            tokens.push(Token {
                kind: TokenKind::Lifetime,
                text: chars[i..j].iter().collect(),
                line,
                col: start_col,
            });
            col += j - i;
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let (token, len) = lex_number(&chars[i..], line, start_col);
            col += len;
            i += len;
            tokens.push(token);
            continue;
        }

        // Punctuation: try the joined operators, longest first.
        let mut matched = None;
        for op in JOINED_PUNCT {
            let op_chars: Vec<char> = op.chars().collect();
            if chars[i..].starts_with(&op_chars) {
                matched = Some(op.len());
                break;
            }
        }
        let len = matched.unwrap_or(1);
        tokens.push(Token {
            kind: TokenKind::Punct,
            text: chars[i..i + len].iter().collect(),
            line,
            col: start_col,
        });
        col += len;
        i += len;
    }
    split_generic_closers(tokens)
}

/// Splits `>>` (and `>>=`) tokens that close nested generics into
/// individual `>` tokens, so downstream consumers see `Vec<Vec<f64>>` as
/// two closing angles rather than one shift operator — and
/// `Vec<Vec<u8>>= v` as two closes plus a plain `=`, keeping the
/// assignment visible to def-use tracking. Only `>>`s inside a
/// *validated* generic region are split: a `<` preceded by an identifier,
/// `::` or another `>` whose angle depth balances before a `;`/`{`/`}`
/// statement boundary. Shift expressions never validate (`x >> 2` has no
/// pending open, and `a << b >> c` hits the statement end unbalanced), so
/// they keep their joined form.
fn split_generic_closers(tokens: Vec<Token>) -> Vec<Token> {
    let mut split = vec![false; tokens.len()];
    for i in 0..tokens.len() {
        if !tokens[i].is_punct("<") {
            continue;
        }
        let opens_generic = i > 0
            && (tokens[i - 1].kind == TokenKind::Ident
                || tokens[i - 1].is_punct("::")
                || tokens[i - 1].is_punct(">"));
        if !opens_generic {
            continue;
        }
        let mut depth = 1i32;
        let mut j = i + 1;
        let mut close = None;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct("<<") {
                depth += 2;
            } else if t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(">>") || t.is_punct(">>=") {
                depth -= 2;
            } else if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                break; // statement boundary: not a generics group
            }
            if depth <= 0 {
                close = Some(j);
                break;
            }
            j += 1;
        }
        let Some(close) = close else { continue };
        for (k, flag) in split.iter_mut().enumerate().take(close + 1).skip(i) {
            if tokens[k].is_punct(">>") || tokens[k].is_punct(">>=") {
                *flag = true;
            }
        }
    }
    if !split.iter().any(|&s| s) {
        return tokens;
    }
    let mut out = Vec::with_capacity(tokens.len() + 4);
    for (k, t) in tokens.into_iter().enumerate() {
        if !split[k] {
            out.push(t);
            continue;
        }
        let tail_eq = t.text == ">>=";
        for (off, text) in [(0usize, ">"), (1, ">")] {
            out.push(Token {
                kind: TokenKind::Punct,
                text: text.to_string(),
                line: t.line,
                col: t.col + off,
            });
        }
        if tail_eq {
            out.push(Token {
                kind: TokenKind::Punct,
                text: "=".to_string(),
                line: t.line,
                col: t.col + 2,
            });
        }
    }
    out
}

/// Lexes one numeric literal starting at `chars[0]` (an ASCII digit).
/// Returns the token and the number of characters consumed.
fn lex_number(chars: &[char], line: usize, col: usize) -> (Token, usize) {
    let hex =
        chars[0] == '0' && matches!(chars.get(1), Some('x') | Some('X') | Some('b') | Some('o'));
    // Skip past the base prefix so its letter isn't mistaken for a suffix.
    let mut j = if hex { 2 } else { 1 };
    let mut saw_dot = false;
    let mut saw_exp = false;
    while j < chars.len() {
        let c = chars[j];
        if c == '_' || c.is_ascii_digit() || (hex && c.is_ascii_hexdigit()) {
            j += 1;
            continue;
        }
        if !hex && (c == 'e' || c == 'E') && !saw_exp {
            // Exponent only if followed by a digit or a signed digit;
            // otherwise `e` starts a suffix/ident (`1e` is not a float,
            // and `2.0e` would be malformed anyway).
            match (chars.get(j + 1), chars.get(j + 2)) {
                (Some(d), _) if d.is_ascii_digit() => {
                    saw_exp = true;
                    j += 2;
                    continue;
                }
                (Some('+') | Some('-'), Some(d)) if d.is_ascii_digit() => {
                    saw_exp = true;
                    j += 3;
                    continue;
                }
                _ => break,
            }
        }
        if !hex && c == '.' && !saw_dot && !saw_exp {
            // A dot only continues the number when followed by a digit or
            // by a non-ident boundary (`1.` is a float; `1.max(2)` is an
            // integer then a method call; `0..n` is a range).
            match chars.get(j + 1) {
                Some(d) if d.is_ascii_digit() => {
                    saw_dot = true;
                    j += 2;
                    continue;
                }
                Some('.') => break, // range `..`
                Some(c2) if *c2 == '_' || c2.is_alphabetic() => break, // method call
                _ => {
                    saw_dot = true;
                    j += 1;
                    continue;
                }
            }
        }
        // Type suffix: f32/f64/u8/…/usize glued onto the literal.
        if c == 'f' || c == 'u' || c == 'i' {
            let mut k = j;
            while k < chars.len() && (chars[k] == '_' || chars[k].is_alphanumeric()) {
                k += 1;
            }
            let suffix: String = chars[j..k].iter().collect();
            if matches!(
                suffix.as_str(),
                "f32"
                    | "f64"
                    | "u8"
                    | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "usize"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
                    | "isize"
            ) {
                if suffix.starts_with('f') {
                    saw_dot = true; // float by suffix
                }
                j = k;
            }
            break;
        }
        break;
    }
    let text: String = chars[..j].iter().collect();
    let kind = if !hex && (saw_dot || saw_exp) {
        TokenKind::Float
    } else {
        TokenKind::Int
    };
    (
        Token {
            kind,
            text,
            line,
            col,
        },
        j,
    )
}

/// Finds the index of the matching close token for the open token at
/// `open_idx` (`tokens[open_idx]` must be `open`). Returns `None` when the
/// stream ends unbalanced.
pub fn matching_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
// Tests assert exact values that are constructed to be exactly
// representable; strict float equality is intended.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_keywords() {
        let ts = kinds("fn power_w(x: f64) -> f64");
        assert_eq!(ts[0], (TokenKind::Ident, "fn".into()));
        assert_eq!(ts[1], (TokenKind::Ident, "power_w".into()));
        assert!(ts.iter().any(|t| t.1 == "->" && t.0 == TokenKind::Punct));
    }

    #[test]
    fn joined_operators() {
        let ts = kinds("a == b != c <= d >= e :: f -> g => h .. i ..= j");
        let puncts: Vec<&str> = ts
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, s)| s.as_str())
            .collect();
        assert_eq!(
            puncts,
            ["==", "!=", "<=", ">=", "::", "->", "=>", "..", "..="]
        );
    }

    #[test]
    fn numbers_classified() {
        assert_eq!(kinds("42")[0].0, TokenKind::Int);
        assert_eq!(kinds("1_000")[0].0, TokenKind::Int);
        assert_eq!(kinds("0x9e37")[0], (TokenKind::Int, "0x9e37".into()));
        assert_eq!(kinds("1.5")[0].0, TokenKind::Float);
        assert_eq!(kinds("3e-6")[0].0, TokenKind::Float);
        assert_eq!(kinds("1.0f64")[0], (TokenKind::Float, "1.0f64".into()));
        assert_eq!(kinds("2f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("7u64")[0], (TokenKind::Int, "7u64".into()));
    }

    #[test]
    fn method_on_int_is_not_a_float() {
        let ts = kinds("1.max(2)");
        assert_eq!(ts[0], (TokenKind::Int, "1".into()));
        assert_eq!(ts[1], (TokenKind::Punct, ".".into()));
        assert_eq!(ts[2], (TokenKind::Ident, "max".into()));
    }

    #[test]
    fn range_is_not_a_float() {
        let ts = kinds("0..n");
        assert_eq!(ts[0], (TokenKind::Int, "0".into()));
        assert_eq!(ts[1], (TokenKind::Punct, "..".into()));
    }

    #[test]
    fn trailing_dot_float() {
        let ts = kinds("1. + 2");
        assert_eq!(ts[0], (TokenKind::Float, "1.".into()));
    }

    #[test]
    fn lifetimes() {
        let ts = kinds("fn f<'a>(x: &'a str)");
        assert!(ts
            .iter()
            .any(|(k, s)| *k == TokenKind::Lifetime && s == "'a"));
    }

    #[test]
    fn lines_and_columns() {
        let ts = tokenize("ab cd\n  ef\n");
        assert_eq!((ts[0].line, ts[0].col), (1, 0));
        assert_eq!((ts[1].line, ts[1].col), (1, 3));
        assert_eq!((ts[2].line, ts[2].col), (2, 2));
    }

    #[test]
    fn nested_generic_close_is_split_into_two_angles() {
        // `Vec<Vec<f64>>` must close with two `>` tokens, not one `>>`
        // shift: angle-depth consumers (skip_angles, the CFG builder)
        // otherwise see an unbalanced group.
        let ts = kinds("let x: Vec<Vec<f64>> = make();");
        let closes = ts
            .iter()
            .filter(|(k, s)| *k == TokenKind::Punct && s == ">")
            .count();
        assert_eq!(closes, 2, "tokens: {ts:?}");
        assert!(!ts.iter().any(|(_, s)| s == ">>"));
    }

    #[test]
    fn nested_generic_close_glued_to_eq_keeps_the_assignment() {
        // Without the split, `Vec<Vec<u8>>=v` lexes a `>>=` that swallows
        // the `=`, hiding the assignment from def-use tracking.
        let ts = kinds("let x: Vec<Vec<u8>>=v;");
        assert!(ts.iter().any(|(k, s)| *k == TokenKind::Punct && s == "="));
        assert!(!ts.iter().any(|(_, s)| s == ">>=" || s == ">>"));
    }

    #[test]
    fn shift_operators_stay_joined() {
        let ts = kinds("let y = x >> 2; let z = a << b;");
        assert!(ts.iter().any(|(_, s)| s == ">>"));
        assert!(ts.iter().any(|(_, s)| s == "<<"));
        // A comparison chain is not a generic region either.
        let cmp = kinds("if a < b { c >> 1 } else { d }");
        assert!(cmp.iter().any(|(_, s)| s == ">>"));
    }

    #[test]
    fn qualified_path_double_close_is_split() {
        let ts = kinds("let n = <T as Iterator<Item = u8>>::next(it);");
        assert!(!ts.iter().any(|(_, s)| s == ">>"));
    }

    #[test]
    fn matching_close_finds_balanced_brace() {
        let ts = tokenize("fn f() { if x { y(); } }");
        let open = ts.iter().position(|t| t.is_punct("{")).unwrap();
        let close = matching_close(&ts, open, "{", "}").unwrap();
        assert_eq!(close, ts.len() - 1);
        assert!(matching_close(&tokenize("{ {"), 0, "{", "}").is_none());
    }
}
