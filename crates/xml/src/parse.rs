//! A small, dependency-free XML 1.0 subset parser.
//!
//! Supports elements, attributes, character data, the five predefined
//! entities, numeric character references, comments, processing
//! instructions and a `<!DOCTYPE …>` prolog (skipped). Not supported (out of
//! scope for the paper's data model): namespaces, CDATA nesting subtleties,
//! external entities.
//!
//! Parsed attributes become `@`-labeled leaf children placed *before* the
//! element children, matching the document model of Section 2.1 where
//! attribute nodes are ordinary leaves. Character data that is only
//! whitespace is dropped, so indentation does not pollute value equality.

use std::fmt;

use regtree_alphabet::Alphabet;

use crate::model::{Document, NodeId};

/// Error raised by [`parse_document`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Parses an XML string into a [`Document`] under the reserved `/` root.
///
/// The parser keeps its open elements on an explicit stack, not the call
/// stack, so nesting depth is bounded by memory only.
pub fn parse_document(alphabet: &Alphabet, src: &str) -> Result<Document, XmlError> {
    let mut doc = Document::new(alphabet.clone());
    let root = doc.root();
    let mut p = XmlParser {
        bytes: src.as_bytes(),
        src,
        pos: 0,
    };
    // Open elements with their tag names; an empty stack means the parser
    // is between top-level elements.
    let mut stack: Vec<(NodeId, &str)> = Vec::new();
    let mut top_count = 0usize;
    p.skip_misc();
    loop {
        let Some(&(elem, name)) = stack.last() else {
            if p.at_end() {
                break;
            }
            if !p.peek_is(b'<') {
                return Err(p.err("unexpected content outside the top-level element"));
            }
            match p.start_tag(&mut doc, root)? {
                Some(open) => stack.push(open),
                None => {
                    top_count += 1;
                    p.skip_misc();
                }
            }
            continue;
        };
        if p.starts_with("</") {
            p.pos += 2;
            let close = p.parse_name()?;
            if close != name {
                return Err(p.err(format!("mismatched close tag </{close}> for <{name}>")));
            }
            p.skip_ws();
            p.expect(b'>')?;
            stack.pop();
            if stack.is_empty() {
                top_count += 1;
                p.skip_misc();
            }
            continue;
        }
        if p.starts_with("<!--") {
            match p.src[p.pos..].find("-->") {
                Some(end) => p.pos += end + 3,
                None => return Err(p.err("unterminated comment")),
            }
            continue;
        }
        if p.starts_with("<![CDATA[") {
            p.pos += "<![CDATA[".len();
            match p.src[p.pos..].find("]]>") {
                Some(end) => {
                    doc.add_text(elem, &p.src[p.pos..p.pos + end]);
                    p.pos += end + 3;
                }
                None => return Err(p.err("unterminated CDATA section")),
            }
            continue;
        }
        if p.starts_with("<?") {
            match p.src[p.pos..].find("?>") {
                Some(end) => p.pos += end + 2,
                None => return Err(p.err("unterminated processing instruction")),
            }
            continue;
        }
        match p.peek() {
            Some(b'<') => {
                if let Some(open) = p.start_tag(&mut doc, elem)? {
                    stack.push(open);
                }
            }
            Some(_) => {
                let start = p.pos;
                while let Some(b) = p.peek() {
                    if b == b'<' {
                        break;
                    }
                    p.pos += 1;
                }
                let text = unescape(&p.src[start..p.pos]).map_err(|m| p.err(m))?;
                if !text.chars().all(char::is_whitespace) {
                    doc.add_text(elem, &text);
                }
            }
            None => return Err(p.err(format!("unterminated element <{name}>"))),
        }
    }
    if top_count == 0 {
        return Err(XmlError {
            position: src.len(),
            message: "no top-level element".into(),
        });
    }
    Ok(doc)
}

struct XmlParser<'a> {
    bytes: &'a [u8],
    src: &'a str,
    pos: usize,
}

impl<'a> XmlParser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_is(&self, b: u8) -> bool {
        self.peek() == Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .map(|b| b.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, PIs and DOCTYPE between top-level items.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                if let Some(end) = self.src[self.pos..].find("?>") {
                    self.pos += end + 2;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!--") {
                if let Some(end) = self.src[self.pos..].find("-->") {
                    self.pos += end + 3;
                    continue;
                }
                self.pos = self.bytes.len();
                return;
            }
            if self.starts_with("<!DOCTYPE") {
                // Skip to the matching '>', tolerating an internal subset.
                let mut depth = 0usize;
                while let Some(b) = self.peek() {
                    self.pos += 1;
                    match b {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                continue;
            }
            return;
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(&self.src[start..self.pos])
    }

    fn expect(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek_is(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Parses one start tag, attributes included, adding the element under
    /// `parent`. Returns the element and its tag name while it stays open,
    /// `None` when it was self-closing.
    fn start_tag(
        &mut self,
        doc: &mut Document,
        parent: NodeId,
    ) -> Result<Option<(NodeId, &'a str)>, XmlError> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let elem = doc.add_element(parent, doc.alphabet().intern(name));
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Some((elem, name)));
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(None);
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = self
                        .peek()
                        .filter(|&b| b == b'"' || b == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.at_end() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.src[start..self.pos];
                    self.pos += 1; // closing quote
                    let value = unescape(raw).map_err(|m| self.err(m))?;
                    let label = doc.alphabet().intern(&format!("@{attr_name}"));
                    doc.add_attribute(elem, label, &value);
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }
}

/// Decodes the predefined entities and numeric character references.
fn unescape(raw: &str) -> Result<String, String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let entity = &rest[1..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(
                    char::from_u32(code).ok_or_else(|| format!("invalid code point &{entity};"))?,
                );
            }
            _ => return Err(format!("unknown entity &{entity};")),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_elements_attributes_text() {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            r#"<session date="2009-06"><candidate IDN="78"><level>B</level></candidate></session>"#,
        )
        .unwrap();
        assert!(doc.check_well_formed().is_ok());
        let session = doc.children(doc.root())[0];
        assert_eq!(doc.label_name(session).as_ref(), "session");
        let kids = doc.children(session);
        assert_eq!(doc.label_name(kids[0]).as_ref(), "@date");
        assert_eq!(doc.value(kids[0]), Some("2009-06"));
        let cand = kids[1];
        let level = doc.children(cand)[1];
        let text = doc.children(level)[0];
        assert_eq!(doc.value(text), Some("B"));
    }

    #[test]
    fn self_closing_and_whitespace() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<r>\n  <leaf/>\n  <leaf/>\n</r>").unwrap();
        let r = doc.children(doc.root())[0];
        assert_eq!(doc.children(r).len(), 2);
    }

    #[test]
    fn entities_and_char_refs() {
        let a = Alphabet::new();
        let doc = parse_document(&a, r#"<t a="&lt;x&gt;">&amp;&#65;&#x42;</t>"#).unwrap();
        let t = doc.children(doc.root())[0];
        let kids = doc.children(t);
        assert_eq!(doc.value(kids[0]), Some("<x>"));
        assert_eq!(doc.value(kids[1]), Some("&AB"));
    }

    #[test]
    fn prolog_comments_doctype_skipped() {
        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            "<?xml version=\"1.0\"?><!DOCTYPE session [<!ELEMENT x (y)>]><!-- hi --><session><!-- inner --></session>",
        )
        .unwrap();
        let session = doc.children(doc.root())[0];
        assert_eq!(doc.label_name(session).as_ref(), "session");
        assert_eq!(doc.children(session).len(), 0);
    }

    #[test]
    fn cdata_sections() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<t><![CDATA[a <raw> & b]]></t>").unwrap();
        let t = doc.children(doc.root())[0];
        assert_eq!(doc.value(doc.children(t)[0]), Some("a <raw> & b"));
    }

    #[test]
    fn errors_are_reported() {
        let a = Alphabet::new();
        // (input, byte offset, message) — pinned from the recursive parser
        // this loop replaced.
        let cases = [
            ("", 0, "no top-level element"),
            ("<a><b></a></b>", 9, "mismatched close tag </a> for <b>"),
            ("<a attr=oops></a>", 8, "expected quoted attribute value"),
            ("<a>&unknown;</a>", 12, "unknown entity &unknown;"),
            ("<a>", 3, "unterminated element <a>"),
            (
                "stray text",
                0,
                "unexpected content outside the top-level element",
            ),
            ("<a></b>", 6, "mismatched close tag </b> for <a>"),
            ("<a", 2, "unterminated start tag"),
            ("<a x='1></a>", 12, "unterminated attribute value"),
            ("<a><!-- x</a>", 3, "unterminated comment"),
            ("<a><![CDATA[x</a>", 12, "unterminated CDATA section"),
            ("<a><?pi</a>", 3, "unterminated processing instruction"),
            (
                "<a/>junk",
                4,
                "unexpected content outside the top-level element",
            ),
            ("<a>&#xZZ;</a>", 9, "bad character reference &#xZZ;"),
            ("<a x=\"&bogus;\"/>", 14, "unknown entity &bogus;"),
            (
                "<a></a >x",
                8,
                "unexpected content outside the top-level element",
            ),
            ("<a><b/c></a>", 6, "expected '>'"),
            ("< a/>", 1, "expected a name"),
            ("<a>&#1114112;</a>", 13, "invalid code point &#1114112;"),
            ("<a x>", 4, "expected '='"),
        ];
        for (src, position, message) in cases {
            let err = parse_document(&a, src).unwrap_err();
            assert_eq!(
                (err.position, err.message.as_str()),
                (position, message),
                "{src:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_does_not_recurse() {
        let a = Alphabet::new();
        let depth = 100_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        // The default test thread has a 2 MiB stack.
        let doc = parse_document(&a, &src).unwrap();
        assert_eq!(doc.len(), depth + 1);
        let err = parse_document(&a, &src[..src.len() - 4]).unwrap_err();
        assert_eq!(err.message, "unterminated element <a>");
    }

    #[test]
    fn multiple_top_level_elements_allowed() {
        // Our model's reserved root can host several top elements (the paper's
        // documents hang everything under '/').
        let a = Alphabet::new();
        let doc = parse_document(&a, "<a/><b/>").unwrap();
        assert_eq!(doc.children(doc.root()).len(), 2);
    }
}
