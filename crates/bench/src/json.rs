//! A minimal JSON value parser for the bench artifacts.
//!
//! The bench binaries hand-roll their JSON output (the workspace has no
//! serde), so the regression gate hand-rolls the matching reader. It
//! covers exactly the grammar those artifacts use — objects, arrays,
//! strings, numbers (including negatives and decimals), booleans,
//! null — and nothing exotic.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number; bench artifacts stay well within `f64` precision.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; `None` on any syntax error or
    /// trailing garbage.
    pub fn parse(text: &str) -> Option<Json> {
        let mut c = Cursor {
            b: text.as_bytes(),
            i: 0,
        };
        c.skip_ws();
        let v = c.value()?;
        c.skip_ws();
        (c.i == c.b.len()).then_some(v)
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str_(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool_(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        (self.peek() == Some(c)).then(|| self.i += 1)
    }

    fn lit(&mut self, word: &str) -> Option<()> {
        let end = self.i + word.len();
        if self.b.get(self.i..end) == Some(word.as_bytes()) {
            self.i = end;
            Some(())
        } else {
            None
        }
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true").map(|_| Json::Bool(true)),
            b'f' => self.lit("false").map(|_| Json::Bool(false)),
            b'n' => self.lit("null").map(|_| Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Some(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Some(Json::Obj(members));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.b.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                // Multi-byte UTF-8 sequences pass through untouched.
                _ => {
                    let start = self.i;
                    while self.peek().is_some_and(|c| c != b'"' && c != b'\\') {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.b[start..self.i]).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
            .map(Json::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shapes_bench_artifacts_use() {
        let j = Json::parse(
            r#"{"bench": "x15", "smoke": true, "qps": 123.5, "neg": -4,
                "rows": [{"shards": 1}, {"shards": 2}], "nothing": null}"#,
        )
        .expect("parse");
        assert_eq!(j.get("bench").and_then(Json::str_), Some("x15"));
        assert_eq!(j.get("smoke").and_then(Json::bool_), Some(true));
        assert_eq!(j.get("qps").and_then(Json::num), Some(123.5));
        assert_eq!(j.get("neg").and_then(Json::num), Some(-4.0));
        let rows = j.get("rows").and_then(Json::arr).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("shards").and_then(Json::num), Some(2.0));
        assert_eq!(j.get("nothing"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn real_artifacts_parse() {
        for text in [
            include_str!("../../../BENCH_hotpath.json"),
            include_str!("../../../BENCH_prune.json"),
        ] {
            let j = Json::parse(text).expect("checked-in artifact parses");
            assert!(j.get("bench").and_then(Json::str_).is_some());
        }
    }

    #[test]
    fn rejects_garbage_and_trailing_text() {
        assert_eq!(Json::parse("{\"a\": }"), None);
        assert_eq!(Json::parse("{} trailing"), None);
        assert_eq!(Json::parse("{\"a\": 1,}"), None);
        assert_eq!(Json::parse(""), None);
    }

    #[test]
    fn string_escapes_resolve() {
        let j = Json::parse(r#""a\tbA\\\"""#).expect("parse");
        assert_eq!(j.str_(), Some("a\tbA\\\""));
    }
}
