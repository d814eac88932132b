//! A minimal JSON parser (no serde in the offline build environment):
//! perfbench's `--compare` reads its JSON result lines back with it.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (recursive descent; full value grammar).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: numbers as-is, booleans as 0/1.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            JsonValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            let ch = if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: a valid JSON document
                                // must pair it with a following \uDCxx low
                                // surrogate encoding one astral-plane char.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..=0xDFFF).contains(&low) {
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{fffd}')
                                    } else {
                                        return Err(format!(
                                            "unpaired surrogate \\u{code:04x} before byte {}",
                                            self.pos
                                        ));
                                    }
                                } else {
                                    return Err(format!(
                                        "unpaired surrogate \\u{code:04x} at byte {}",
                                        self.pos
                                    ));
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances
                    // by whole scalars, so it is on a char boundary.
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the `\u` itself
    /// already consumed).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .map(JsonValue::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonValue::parse("{}"), Ok(JsonValue::Obj(Vec::new())));
        assert_eq!(JsonValue::parse(" [ ] "), Ok(JsonValue::Arr(Vec::new())));
    }

    #[test]
    fn parser_round_trips_emitted_objects() {
        // One object as a JSON writer renders it: no whitespace, quoted
        // keys, a non-finite number as `null`.
        let rendered = r#"{"name":"a \"quoted\" label","count":42,"cost":1.5,"inf":null,"ok":true,"nested":[1,2.5]}"#;
        let v = JsonValue::parse(rendered).expect("parse");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\" label"));
        assert_eq!(v.get("count").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("cost").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("inf"), Some(&JsonValue::Null));
        assert_eq!(v.get("ok").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            v.get("nested"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5)
            ]))
        );
    }

    #[test]
    fn parser_handles_nesting_whitespace_and_escapes() {
        let text = r#"
            { "a" : [ { "b\n" : -1.25e2 }, null, false ],
              "metrics": [ {"file":"x","key":"k.0"} ] }
        "#;
        let obj = |fields: &[(&str, JsonValue)]| {
            JsonValue::Obj(
                fields
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
        };
        let want = obj(&[
            (
                "a",
                JsonValue::Arr(vec![
                    obj(&[("b\n", JsonValue::Num(-125.0))]),
                    JsonValue::Null,
                    JsonValue::Bool(false),
                ]),
            ),
            (
                "metrics",
                JsonValue::Arr(vec![obj(&[
                    ("file", JsonValue::Str("x".into())),
                    ("key", JsonValue::Str("k.0".into())),
                ])]),
            ),
        ]);
        assert_eq!(JsonValue::parse(text), Ok(want));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("{\"a\" 1}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
    }

    #[test]
    fn parser_decodes_unicode_escapes_and_surrogate_pairs() {
        let v = JsonValue::parse("\"\\u00e9\\ud83d\\ude00\\u0041\"").expect("parse escaped");
        assert_eq!(v.as_str(), Some("é😀A"));
        // Raw (unescaped) multibyte UTF-8 passes through untouched.
        let raw = JsonValue::parse("\"é😀\"").expect("parse raw");
        assert_eq!(raw.as_str(), Some("é😀"));
        // Lone surrogates are invalid JSON, not silently replaced.
        assert!(JsonValue::parse(r#""\ud83d""#).is_err());
        assert!(JsonValue::parse(r#""\ud83dx""#).is_err());
        assert!(JsonValue::parse(r#""\ud83dA""#).is_err());
    }
}
