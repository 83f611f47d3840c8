//! The workspace's one JSON reader: a strict RFC 8259 grammar with two
//! walks over the same productions.
//!
//! * [`Json::parse`] builds a [`Json`] tree (`BENCHMARK.json`, the
//!   benchmark's result lines, the profile golden's per-key diff).
//! * [`validate_json`] checks well-formedness and builds nothing. It runs
//!   over Chrome traces of hundreds of megabytes (`repro trace`, the
//!   benchmark's traced pass), where a tree would cost several times the
//!   document in heap — so it is the `BUILD = false` instantiation of the
//!   productions, not "parse and drop".
//!
//! Because both are one production set they accept exactly the same
//! documents. Input may be foreign bytes (a hand-edited `BENCHMARK.json`),
//! so nesting is capped at `MAX_DEPTH` and reported as an `Err` instead of
//! recursing until the stack overflows. Numbers follow the RFC: no leading
//! zeros, digits required after `.` and after the exponent marker.

/// Deepest array/object nesting the reader follows.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// String (escapes decoded).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (nothing but whitespace may follow). Arrays
    /// and objects nested deeper than 128 are an `Err`, like any other
    /// malformed input.
    pub fn parse(src: &str) -> Result<Json, String> {
        Reader::<true>::document(src).map(|v| v.expect("a document is one value"))
    }

    /// Object field lookup (None on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Check that `s` is one well-formed JSON document — exactly the documents
/// [`Json::parse`] accepts — without allocating a tree.
pub fn validate_json(s: &str) -> Result<(), String> {
    Reader::<false>::document(s).map(drop)
}

/// The grammar. With `BUILD` every production leaves the value it read on
/// top of `built` (an array or object replaces its members there); without
/// it `built` is never touched, so nothing is allocated.
struct Reader<'a, const BUILD: bool> {
    src: &'a str,
    i: usize,
    depth: usize,
    built: Vec<Json>,
}

impl<const BUILD: bool> Reader<'_, BUILD> {
    /// Read one document; the value it built, if `BUILD`.
    fn document(src: &str) -> Result<Option<Json>, String> {
        let mut r = Reader::<BUILD> {
            src,
            i: 0,
            depth: 0,
            built: Vec::new(),
        };
        r.ws();
        r.value()?;
        r.ws();
        if r.i != src.len() {
            return Err(format!("json: trailing garbage at byte {}", r.i));
        }
        Ok(r.built.pop())
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("json: expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn push(&mut self, v: Json) {
        if BUILD {
            self.built.push(v);
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("json: unexpected input at byte {}", self.i)),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<(), String>) -> Result<(), String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "json: nesting deeper than {MAX_DEPTH} at byte {}",
                self.i
            ));
        }
        self.depth += 1;
        let res = f(self);
        self.depth -= 1;
        res
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<(), String> {
        if self.src.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            self.push(v);
            Ok(())
        } else {
            Err(format!("json: bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        let base = self.built.len();
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
        } else {
            loop {
                self.ws();
                self.string()?;
                self.ws();
                self.expect(b':')?;
                self.ws();
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        break;
                    }
                    _ => return Err(format!("json: expected ',' or '}}' at byte {}", self.i)),
                }
            }
        }
        if BUILD {
            // Keys and values alternate above `base`.
            let mut fields = Vec::with_capacity((self.built.len() - base) / 2);
            let mut members = self.built.drain(base..);
            while let (Some(Json::Str(k)), Some(v)) = (members.next(), members.next()) {
                fields.push((k, v));
            }
            drop(members);
            self.built.push(Json::Obj(fields));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<(), String> {
        let base = self.built.len();
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
        } else {
            loop {
                self.ws();
                self.value()?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        break;
                    }
                    _ => return Err(format!("json: expected ',' or ']' at byte {}", self.i)),
                }
            }
        }
        if BUILD {
            let items = self.built.drain(base..).collect();
            self.built.push(Json::Arr(items));
        }
        Ok(())
    }

    /// A string token, escapes decoded. `"` and `\` are ASCII, so every
    /// index a run is cut at is a `char` boundary of `src`.
    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run of plain bytes up to the next one that ends it.
            let rest = &self.src.as_bytes()[self.i..];
            let Some(n) = rest
                .iter()
                .position(|&c| matches!(c, b'"' | b'\\') || c < 0x20)
            else {
                return Err("json: unterminated string".to_string());
            };
            if BUILD {
                out.push_str(&self.src[self.i..self.i + n]);
            }
            self.i += n + 1;
            match rest[n] {
                b'"' => break,
                b'\\' => {
                    let decoded = self.escape()?;
                    if BUILD {
                        out.push(decoded);
                    }
                }
                _ => return Err(format!("json: raw control byte at {}", self.i - 1)),
            }
        }
        self.push(Json::Str(out));
        Ok(())
    }

    /// The character after a backslash. A `\u` escape that is not a scalar
    /// value on its own (half a surrogate pair) decodes to U+FFFD.
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut cp = 0;
                for _ in 0..4 {
                    self.i += 1;
                    let digit = self.peek().and_then(|h| (h as char).to_digit(16));
                    let Some(d) = digit else {
                        return Err(format!("json: bad \\u escape at byte {}", self.i));
                    };
                    cp = cp * 16 + d;
                }
                char::from_u32(cp).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("json: bad escape at byte {}", self.i)),
        };
        self.i += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        if int_digits == 0 || (leading_zero && int_digits > 1) {
            return Err(format!("json: bad integer part at byte {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(format!("json: empty fraction at byte {}", self.i));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(format!("json: empty exponent at byte {}", self.i));
            }
        }
        if BUILD {
            let text = &self.src[start..self.i];
            let v = text
                .parse()
                .map_err(|_| format!("json: bad number `{text}` at byte {start}"))?;
            self.push(Json::Num(v));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both entry points on one document; they must agree.
    fn accepts(doc: &str) -> bool {
        let built = Json::parse(doc).is_ok();
        assert_eq!(
            validate_json(doc).is_ok(),
            built,
            "validate_json and Json::parse disagree on {doc:.40}"
        );
        built
    }

    #[test]
    fn both_walks_accept_and_reject_the_same_documents() {
        let deep = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        let accept = [
            "{\"a\":[1,2.5,-3,1e-4,true,null,\"s\\n\"]}".to_string(),
            "  [ ]  ".to_string(),
            "{ }".to_string(),
            "0".to_string(),
            "-0.5E+3".to_string(),
            "10".to_string(),
            "\"\\u00e9\\/\\b\\f\\r\\t\\\\\\\"ü\"".to_string(),
            deep("[", "]", MAX_DEPTH),
            deep("{\"a\":", "}", MAX_DEPTH),
        ];
        let reject = [
            "".to_string(),
            "{\"a\":1,}".to_string(),
            "[1 2]".to_string(),
            "{\"a\" 1}".to_string(),
            "{a:1}".to_string(),
            "\"unterminated".to_string(),
            "\"raw\ncontrol\"".to_string(),
            "\"\\x\"".to_string(),
            "\"\\u12g4\"".to_string(),
            "\"\\u+123\"".to_string(),
            "{}extra".to_string(),
            "tru".to_string(),
            "-".to_string(),
            ".5".to_string(),
            "1.".to_string(),
            "1e".to_string(),
            "1e+".to_string(),
            "01".to_string(),
            "-01".to_string(),
            "01x".to_string(),
            "{\"a\":01}".to_string(),
            deep("[", "]", MAX_DEPTH + 1),
            deep("{\"a\":", "}", MAX_DEPTH + 1),
            "[".repeat(100_000),
            "{\"a\":".repeat(100_000),
        ];
        // On a thread whose stack size is fixed here, so the 100 000-deep
        // rows test the depth cap and not the harness's `RUST_MIN_STACK`.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                for doc in &accept {
                    assert!(accepts(doc), "rejected {doc:?}");
                }
                for doc in &reject {
                    assert!(!accepts(doc), "accepted {doc:.40}");
                }
            })
            .expect("spawn")
            .join()
            .expect("reader thread");
    }

    #[test]
    fn parse_decodes_escapes_numbers_and_nesting() {
        let v = Json::parse("{\"a\\n\":[1,-2.5,3e2,true,null,\"x\\u0041é\\ud800\"]}").unwrap();
        assert_eq!(
            v.get("a\n"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2.5),
                Json::Num(300.0),
                Json::Bool(true),
                Json::Null,
                Json::Str("xAé\u{fffd}".to_string()),
            ]))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }
}
