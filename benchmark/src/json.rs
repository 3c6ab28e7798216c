//! A serde-free JSON writer, in the workspace's hand-emitted style. The
//! reading side is `mpcheck::json::parse`, which the repo already has.

use std::fmt::Write as _;

/// A JSON value under construction. Objects keep insertion order, so the
/// emitted files read in the order the code states them.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, written with every digit `f64` needs to round-trip.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// The value indented two spaces per level, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                assert!(x.is_finite(), "JSON has no encoding for {x}");
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, ['[', ']'], indent, depth, items, |out, item| {
                item.write(out, indent, depth + 1);
            }),
            Json::Obj(pairs) => write_seq(out, ['{', '}'], indent, depth, pairs, |out, (k, v)| {
                write_str(out, k);
                out.push_str(": ");
                v.write(out, indent, depth + 1);
            }),
        }
    }
}

/// Writes a bracketed, comma-separated sequence: on one line, or one item
/// per line at `indent` spaces per level.
fn write_seq<T>(
    out: &mut String,
    brackets: [char; 2],
    indent: Option<usize>,
    depth: usize,
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    let newline = |out: &mut String, depth: usize| {
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * depth));
        }
    };
    out.push(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(if indent.is_none() { ", " } else { "," });
        }
        newline(out, depth + 1);
        write_item(out, item);
    }
    if !items.is_empty() {
        newline(out, depth);
    }
    out.push(brackets[1]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcheck::json::{parse, Value};

    fn sample() -> Json {
        Json::obj([
            (
                "name",
                Json::str("quote \" slash \\ tab \t newline \n bell \u{7} é"),
            ),
            ("exact", Json::Num(9_007_199_254_740_991.0)),
            ("tiny", Json::Num(1.2034e-7)),
            ("third", Json::Num(1.0 / 3.0)),
            ("neg", Json::Num(-0.5)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            (
                "nested",
                Json::obj([("k", Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]))]),
            ),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        for text in [sample().render(), sample().pretty()] {
            let v = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(
                v.get("name").and_then(Value::as_str),
                Some("quote \" slash \\ tab \t newline \n bell \u{7} é")
            );
            assert_eq!(v.get("exact").and_then(Value::as_u64), Some((1 << 53) - 1));
            assert_eq!(v.get("tiny"), Some(&Value::Num(1.2034e-7)));
            assert_eq!(v.get("third"), Some(&Value::Num(1.0 / 3.0)));
            assert_eq!(v.get("neg"), Some(&Value::Num(-0.5)));
            assert_eq!(
                v.get("flags"),
                Some(&Value::Arr(vec![
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Null
                ]))
            );
            assert_eq!(v.get("empty_arr").and_then(Value::as_arr), Some(&[][..]));
            assert_eq!(
                v.get("nested").and_then(|n| n.get("k")),
                Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)]))
            );
        }
    }

    #[test]
    fn one_line_form_has_no_newline() {
        assert!(!sample().render().contains('\n'));
        assert!(sample().pretty().ends_with("}\n"));
    }

    #[test]
    #[should_panic(expected = "no encoding")]
    fn non_finite_numbers_are_refused() {
        Json::Num(f64::NAN).render();
    }
}
