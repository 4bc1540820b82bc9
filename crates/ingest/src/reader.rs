//! Streaming manifest reader: lowers JSON text straight into the crate's
//! borrowed [`RawManifest`] without materialising a `Value` tree.
//!
//! This is why `import_str` fits its bench budget (importing a manifest
//! must cost at most 2% of planning the same graph): for a zoo-sized
//! manifest, just allocating and dropping the intermediate tree costs more
//! than the entire budget. Here every unescaped string borrows from the
//! input and numbers parse in place, in a single pass over the text.
//!
//! A single pass must still honour the error precedence the `Value`
//! walker in `lib.rs` establishes (both frontends must agree on *which*
//! manifests are accepted, even though the wording of structural messages
//! may differ):
//!
//! 1. JSON malformation — including trailing junk, exactly like
//!    `serde_json::from_str` — outranks everything. These abort the scan
//!    immediately as [`IngestError::Json`].
//! 2. A `schema_version` mismatch outranks every node-level objection
//!    (`check_version`'s short-circuit: later versions may carry
//!    constructs this build cannot parse).
//! 3. Only then do mistyped fields surface as [`IngestError::Schema`].
//!
//! Rather than a separate version-skimming pre-pass, schema objections
//! found mid-scan are *deferred* ([`Scan::defer`] keeps the first) while
//! the scan keeps consuming, and only reported once the whole document —
//! and therefore the version gate — has been seen.
//!
//! The grammar accepted is byte-for-byte the one the vendored
//! `serde_json` parser accepts (same lenient number scan, same escape
//! set, same surrogate handling, same [`MAX_DEPTH`] nesting bound).

use std::borrow::Cow;

use crate::{check_version, shape_from_parts, AttrVal, Attrs, IngestError, RawManifest, RawNode};
use powerlens_dnn::TensorShape;

/// Nesting levels of arrays and objects a manifest may use, counted from
/// the document root as the vendored `serde_json` parser counts them. Real
/// manifests use about six.
const MAX_DEPTH: usize = 128;

fn schema(msg: impl Into<String>) -> IngestError {
    IngestError::Schema(msg.into())
}

/// Reads manifest text into the raw form `lower` consumes.
pub(crate) fn read_manifest(text: &str) -> Result<RawManifest<'_>, IngestError> {
    let mut s = Scan::new(text);
    s.skip_ws();
    if s.peek() != Some(b'{') {
        // Still a potentially valid JSON document; JSON errors outrank the
        // "must be an object" objection, so tokenize it fully first.
        let kind = s.skip_value()?;
        s.finish()?;
        return Err(schema(format!("manifest must be an object, got {kind}")));
    }
    s.pos += 1;

    // The first occurrence wins on duplicate keys, matching `Value` lookup.
    let mut version: Option<Result<f64, &'static str>> = None;
    let mut name: Option<Cow<'_, str>> = None;
    let mut input: Option<TensorShape> = None;
    let mut nodes: Option<Vec<RawNode<'_>>> = None;
    let mut skip_edges: Vec<(usize, usize)> = Vec::new();
    let mut edges_seen = false;

    s.in_object(|s| {
        let key = s.parse_string()?;
        s.skip_ws();
        s.expect(b':')?;
        s.skip_ws();
        match key.as_ref() {
            "schema_version" if version.is_none() => {
                version = Some(match s.peek() {
                    Some(b'-' | b'0'..=b'9') => Ok(s.parse_number()?),
                    _ => Err(s.skip_value()?),
                });
            }
            "name" if name.is_none() => {
                name = s.parse_typed_string(|| "manifest.name".into())?;
            }
            "input" if input.is_none() => {
                input = s.parse_shape(&|| "manifest.input".into())?;
            }
            "nodes" if nodes.is_none() => {
                nodes = s.parse_nodes()?;
            }
            "skip_edges" if !edges_seen => {
                edges_seen = true;
                skip_edges = s.parse_skip_edges()?;
            }
            _ => {
                s.skip_value()?;
            }
        }
        Ok(())
    })?;
    s.finish()?;

    // The whole document is well-formed JSON. Gate on the version before
    // reporting any deferred field objection.
    match version {
        None => return Err(schema("manifest is missing field `schema_version`")),
        Some(Err(kind)) => {
            return Err(schema(format!(
                "manifest.schema_version must be a number, got {kind}"
            )))
        }
        Some(Ok(n)) => check_version(n)?,
    }
    if let Some(e) = s.deferred.take() {
        return Err(e);
    }
    let name = name.ok_or_else(|| schema("manifest is missing field `name`"))?;
    let input = input.ok_or_else(|| schema("manifest is missing field `input`"))?;
    let nodes = nodes.ok_or_else(|| schema("manifest is missing field `nodes`"))?;
    Ok(RawManifest {
        name,
        input,
        nodes,
        skip_edges,
    })
}

struct Scan<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// First schema objection found mid-scan; reported only after the
    /// whole document parses and the version gate passes.
    deferred: Option<IngestError>,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Scan<'a> {
    fn new(text: &'a str) -> Self {
        Scan {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            deferred: None,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> IngestError {
        IngestError::Json(format!("{msg} at byte {}", self.pos))
    }

    fn defer(&mut self, e: IngestError) {
        self.deferred.get_or_insert(e);
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), IngestError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    /// Checks nothing follows the document, like `serde_json::from_str`.
    fn finish(&mut self) -> Result<(), IngestError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Enters the array or object whose opening bracket was just
    /// consumed, refusing to nest deeper than [`MAX_DEPTH`].
    fn open(&mut self) -> Result<(), IngestError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// Consumes the closing bracket of the innermost open container.
    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
    }

    /// Runs `each` once per key/value entry of the object whose `{` was
    /// just consumed. `each` must consume the key, the `:` and the value.
    fn in_object(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<(), IngestError>,
    ) -> Result<(), IngestError> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.close();
            return Ok(());
        }
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Runs `each` once per element of the array whose `[` was just
    /// consumed, passing the element index.
    fn in_array(
        &mut self,
        mut each: impl FnMut(&mut Self, usize) -> Result<(), IngestError>,
    ) -> Result<(), IngestError> {
        self.open()?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.close();
            return Ok(());
        }
        let mut i = 0;
        loop {
            self.skip_ws();
            each(self, i)?;
            i += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close();
                    return Ok(());
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Validates and consumes one JSON value of any shape, returning its
    /// kind (the same nouns `Value::kind` uses, for "got {kind}" messages).
    fn skip_value(&mut self) -> Result<&'static str, IngestError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok("null")
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok("bool")
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok("bool")
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            Some(b'"') => {
                self.parse_string()?;
                Ok("string")
            }
            Some(b'-' | b'0'..=b'9') => {
                self.parse_number()?;
                Ok("number")
            }
            Some(b'[') => {
                self.pos += 1;
                self.in_array(|s, _| s.skip_value().map(|_| ()))?;
                Ok("array")
            }
            Some(b'{') => {
                self.pos += 1;
                self.in_object(|s| {
                    s.parse_string()?;
                    s.skip_ws();
                    s.expect(b':')?;
                    s.skip_value().map(|_| ())
                })?;
                Ok("object")
            }
            Some(other) => Err(self.err(&format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses a number with the vendored parser's grammar: an exact-i64
    /// integer fast path, then a lenient scan handed to `str::parse`.
    fn parse_number(&mut self) -> Result<f64, IngestError> {
        let start = self.pos;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.pos += 1;
        }
        let mut int: i64 = 0;
        let int_start = self.pos;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            if self.pos - int_start >= 18 {
                break;
            }
            int = int * 10 + i64::from(b - b'0');
            self.pos += 1;
        }
        if self.pos > int_start
            && !matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            )
        {
            return Ok(if neg { -(int as f64) } else { int as f64 });
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map_err(|_| self.err(&format!("invalid number `{text}`")))
    }

    /// Parses a string, borrowing from the input when it has no escapes
    /// (every string a well-behaved exporter writes) and unescaping into
    /// an owned buffer otherwise.
    fn parse_string(&mut self) -> Result<Cow<'a, str>, IngestError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast scan to the first escape or the closing quote. Both are
        // ASCII bytes, which never appear inside a multi-byte UTF-8
        // sequence, so a byte scan over `&str` content is exact.
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    let s = &self.text[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => {
                    let mut out = String::from(&self.text[start..self.pos]);
                    self.unescape_rest(&mut out)?;
                    return Ok(Cow::Owned(out));
                }
                _ => self.pos += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    /// Slow path: the cursor sits on a `\`; finish the string into `out`.
    fn unescape_rest(&mut self, out: &mut String) -> Result<(), IngestError> {
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                let combined =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, IngestError> {
        let hex = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    // -- typed field parsers -------------------------------------------------
    //
    // Each consumes exactly one complete JSON value. Type mismatches are
    // *deferred* (`Ok(None)`), never hard errors: the version gate decides
    // later whether they may be reported at all. The `what` closures build
    // the field's error context lazily so the happy path allocates nothing.

    /// A value that must be a string; anything else defers a schema error
    /// naming `what`, matching the `Value` walker's message.
    fn parse_typed_string(
        &mut self,
        what: impl FnOnce() -> String,
    ) -> Result<Option<Cow<'a, str>>, IngestError> {
        match self.peek() {
            Some(b'"') => self.parse_string().map(Some),
            _ => {
                let kind = self.skip_value()?;
                self.defer(schema(format!("{} must be a string, got {kind}", what())));
                Ok(None)
            }
        }
    }

    /// A value that must be a number.
    fn parse_typed_number(
        &mut self,
        what: impl FnOnce() -> String,
    ) -> Result<Option<f64>, IngestError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.parse_number().map(Some),
            _ => {
                let kind = self.skip_value()?;
                self.defer(schema(format!("{} must be a number, got {kind}", what())));
                Ok(None)
            }
        }
    }

    /// A number that must be a non-negative integer (the `as_usize`
    /// contract: no fractions, negatives or overflow).
    fn parse_typed_usize(
        &mut self,
        what: impl Fn() -> String,
    ) -> Result<Option<usize>, IngestError> {
        let Some(n) = self.parse_typed_number(&what)? else {
            return Ok(None);
        };
        if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > usize::MAX as f64 {
            self.defer(schema(format!(
                "{} must be a non-negative integer, got {n}",
                what()
            )));
            return Ok(None);
        }
        Ok(Some(n as usize))
    }

    /// `{ "kind": ..., "dims": [...] }`.
    fn parse_shape(
        &mut self,
        what: &dyn Fn() -> String,
    ) -> Result<Option<TensorShape>, IngestError> {
        if self.peek() != Some(b'{') {
            let kind = self.skip_value()?;
            self.defer(schema(format!("{} must be an object, got {kind}", what())));
            return Ok(None);
        }
        self.pos += 1;
        let mut kind: Option<Cow<'_, str>> = None;
        let mut dims: Option<Vec<usize>> = None;
        self.in_object(|s| {
            let key = s.parse_string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match key.as_ref() {
                "kind" if kind.is_none() => {
                    kind = s.parse_typed_string(|| format!("{}.kind", what()))?;
                }
                "dims" if dims.is_none() => {
                    if s.peek() != Some(b'[') {
                        let k = s.skip_value()?;
                        s.defer(schema(format!("{}.dims must be an array, got {k}", what())));
                        return Ok(());
                    }
                    s.pos += 1;
                    let mut ds = Vec::with_capacity(3);
                    s.in_array(|s, i| {
                        let Some(n) = s.parse_typed_usize(|| format!("{}.dims[{i}]", what()))?
                        else {
                            return Ok(());
                        };
                        if n == 0 {
                            s.defer(schema(format!(
                                "{}.dims[{i}] must be a positive integer",
                                what()
                            )));
                            return Ok(());
                        }
                        ds.push(n);
                        Ok(())
                    })?;
                    dims = Some(ds);
                }
                _ => {
                    s.skip_value()?;
                }
            }
            Ok(())
        })?;
        match (kind, dims) {
            (Some(kind), Some(dims)) => match shape_from_parts(&kind, &dims, &what()) {
                Ok(s) => Ok(Some(s)),
                Err(e) => {
                    self.defer(e);
                    Ok(None)
                }
            },
            (kind, _) => {
                // `kind` before `dims`, mirroring the walker's `require`
                // order. If the field was present but mistyped, its
                // objection is already deferred and this one is dropped
                // (first wins).
                let missing = if kind.is_none() { "kind" } else { "dims" };
                self.defer(schema(format!("{} is missing field `{missing}`", what())));
                Ok(None)
            }
        }
    }

    /// The manifest's `nodes` array.
    fn parse_nodes(&mut self) -> Result<Option<Vec<RawNode<'a>>>, IngestError> {
        if self.peek() != Some(b'[') {
            let kind = self.skip_value()?;
            self.defer(schema(format!(
                "manifest.nodes must be an array, got {kind}"
            )));
            return Ok(None);
        }
        self.pos += 1;
        let mut nodes = Vec::new();
        self.in_array(|s, i| {
            nodes.push(s.parse_node(i)?);
            Ok(())
        })?;
        Ok(Some(nodes))
    }

    fn parse_node(&mut self, i: usize) -> Result<RawNode<'a>, IngestError> {
        // A placeholder node keeps the scan and node numbering going after
        // a deferred objection; it is never lowered, because a deferred
        // error always aborts before `lower` runs.
        let placeholder = || RawNode {
            name: None,
            op: Cow::Borrowed(""),
            attrs: Vec::new(),
            sparsity: None,
            input: None,
        };
        if self.peek() != Some(b'{') {
            let kind = self.skip_value()?;
            self.defer(schema(format!("node {i} must be an object, got {kind}")));
            return Ok(placeholder());
        }
        self.pos += 1;
        let mut op: Option<Cow<'a, str>> = None;
        let mut name: Option<Cow<'a, str>> = None;
        let mut attrs: Attrs<'a> = Vec::new();
        let mut sparsity: Option<f64> = None;
        let mut input: Option<TensorShape> = None;
        // A literal `null` means "absent" for the optional node fields but
        // still claims the key, so a duplicate after it stays skipped —
        // first-occurrence-wins, like `Value` lookup.
        let (mut op_seen, mut name_seen, mut attrs_seen, mut sparsity_seen, mut input_seen) =
            (false, false, false, false, false);
        self.in_object(|s| {
            let key = s.parse_string()?;
            s.skip_ws();
            s.expect(b':')?;
            s.skip_ws();
            match key.as_ref() {
                "op" if !op_seen => {
                    op_seen = true;
                    op = s.parse_typed_string(|| format!("node {i}.op"))?;
                }
                "name" if !name_seen => {
                    name_seen = true;
                    if s.eat_literal("null") {
                        return Ok(());
                    }
                    name = s.parse_typed_string(|| format!("node {i}.name"))?;
                }
                "sparsity" if !sparsity_seen => {
                    sparsity_seen = true;
                    if s.eat_literal("null") {
                        return Ok(());
                    }
                    sparsity = s.parse_typed_number(|| format!("node {i}.sparsity"))?;
                }
                "input" if !input_seen => {
                    input_seen = true;
                    if s.eat_literal("null") {
                        return Ok(());
                    }
                    input = s.parse_shape(&|| format!("node {i}.input"))?;
                }
                "attrs" if !attrs_seen => {
                    attrs_seen = true;
                    if s.peek() != Some(b'{') {
                        let k = s.skip_value()?;
                        s.defer(schema(format!("node {i}.attrs must be an object, got {k}")));
                        return Ok(());
                    }
                    s.pos += 1;
                    s.in_object(|s| {
                        let k = s.parse_string()?;
                        s.skip_ws();
                        s.expect(b':')?;
                        s.skip_ws();
                        match s.peek() {
                            Some(b'-' | b'0'..=b'9') => {
                                let n = s.parse_number()?;
                                attrs.push((k, AttrVal::Num(n)));
                            }
                            Some(b'"') => {
                                let v = s.parse_string()?;
                                attrs.push((k, AttrVal::Str(v)));
                            }
                            // Arrays/objects/booleans/null are not
                            // attribute material — dropped, exactly as the
                            // Value walker drops them.
                            _ => {
                                s.skip_value()?;
                            }
                        }
                        Ok(())
                    })?;
                }
                _ => {
                    s.skip_value()?;
                }
            }
            Ok(())
        })?;
        let Some(op) = op else {
            if !op_seen {
                self.defer(schema(format!("node {i} is missing field `op`")));
            }
            return Ok(placeholder());
        };
        Ok(RawNode {
            name,
            op,
            attrs,
            sparsity,
            input,
        })
    }

    /// The manifest's `skip_edges` array of `[from, to]` pairs.
    fn parse_skip_edges(&mut self) -> Result<Vec<(usize, usize)>, IngestError> {
        if self.peek() != Some(b'[') {
            let kind = self.skip_value()?;
            self.defer(schema(format!(
                "manifest.skip_edges must be an array, got {kind}"
            )));
            return Ok(Vec::new());
        }
        self.pos += 1;
        let mut edges = Vec::new();
        self.in_array(|s, i| {
            if s.peek() != Some(b'[') {
                let kind = s.skip_value()?;
                s.defer(schema(format!(
                    "skip_edges[{i}] must be an array, got {kind}"
                )));
                return Ok(());
            }
            s.pos += 1;
            // Pair length outranks element typing, matching the walker:
            // collect loosely first, then convert.
            let mut elems: Vec<Result<f64, &'static str>> = Vec::with_capacity(2);
            s.in_array(|s, _| {
                elems.push(match s.peek() {
                    Some(b'-' | b'0'..=b'9') => Ok(s.parse_number()?),
                    _ => Err(s.skip_value()?),
                });
                Ok(())
            })?;
            if elems.len() != 2 {
                s.defer(schema(format!(
                    "skip_edges[{i}] must be a [from, to] pair, got {} elements",
                    elems.len()
                )));
                return Ok(());
            }
            let mut pair = [0usize; 2];
            for (j, e) in elems.iter().enumerate() {
                let n = match e {
                    Ok(n) => *n,
                    Err(kind) => {
                        s.defer(schema(format!(
                            "skip_edges[{i}][{j}] must be a number, got {kind}"
                        )));
                        return Ok(());
                    }
                };
                if !n.is_finite() || n.fract() != 0.0 || n < 0.0 || n > usize::MAX as f64 {
                    s.defer(schema(format!(
                        "skip_edges[{i}][{j}] must be a non-negative integer, got {n}"
                    )));
                    return Ok(());
                }
                pair[j] = n as usize;
            }
            edges.push((pair[0], pair[1]));
            Ok(())
        })?;
        Ok(edges)
    }
}
