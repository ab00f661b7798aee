//! A minimal JSON reader for the benchmark's own data files
//! (`BENCHMARK.json`, `perfbench/config.json`) and the server's metrics
//! dump. The vendored serde is an API stub, so parsing is hand-rolled.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`get`](Self::get) but an error naming the missing key.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    pub fn num(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    pub fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    pub fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("expected an array, got {other:?}")),
        }
    }

    pub fn fields(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(f) => Ok(f),
            other => Err(format!("expected an object, got {other:?}")),
        }
    }

    pub fn key_num(&self, key: &str) -> Result<f64, String> {
        self.req(key)?.num().map_err(|e| format!("`{key}`: {e}"))
    }

    pub fn key_str(&self, key: &str) -> Result<&str, String> {
        self.req(key)?.str().map_err(|e| format!("`{key}`: {e}"))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        let start = self.i + 1;
        let mut j = start;
        while j < self.s.len() && self.s[j] != b'"' {
            j += if self.s[j] == b'\\' { 2 } else { 1 };
        }
        let raw = std::str::from_utf8(self.s.get(start..j).ok_or("unterminated string")?)
            .map_err(|_| "non-UTF-8 string".to_string())?;
        self.i = j + 1;
        trustseq_core::obs::unescape_json(raw).ok_or_else(|| format!("bad escape in {raw:?}"))
    }
}

/// Formats a float with every digit it has (shortest round-trip form),
/// so repeated runs never print identical rounded values.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        let a = v.req("a").unwrap().arr().unwrap();
        assert_eq!(a[1].num().unwrap(), -25.0);
        assert_eq!(a[2].str().unwrap(), "x\"y");
        assert_eq!(v.req("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": 1,}").is_err());
    }
}
