//! XML serialization of the document model.
//!
//! Attribute-labeled leaf children render as XML attributes; text leaves as
//! character data; the reserved `/` root is implicit. Round-trips with
//! [`crate::parse`] up to whitespace normalization.

use std::fmt::Write as _;

use regtree_alphabet::LabelKind;

use crate::model::{Document, NodeId};

/// Serialization configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SerializeOptions {
    /// Pretty-print with two-space indentation.
    pub indent: bool,
}

/// Serializes the whole document (children of the reserved root).
pub fn to_xml(doc: &Document) -> String {
    to_xml_with(doc, SerializeOptions::default())
}

/// Serializes with explicit options.
pub fn to_xml_with(doc: &Document, options: SerializeOptions) -> String {
    let mut out = String::new();
    for &child in doc.children(doc.root()) {
        write_node(doc, child, &mut out, options, 0);
        if options.indent {
            out.push('\n');
        }
    }
    out
}

/// Serializes the subtree rooted at `n`.
#[cfg(test)]
pub(crate) fn subtree_to_xml(doc: &Document, n: NodeId) -> String {
    let mut out = String::new();
    write_node(doc, n, &mut out, SerializeOptions::default(), 0);
    out
}

/// Writes the subtree at `n` with an explicit work stack (no recursion, so
/// nesting depth is bounded by memory only).
fn write_node(
    doc: &Document,
    n: NodeId,
    out: &mut String,
    options: SerializeOptions,
    depth: usize,
) {
    enum Item {
        Node(NodeId, usize),
        Newline,
        Close(NodeId, usize),
    }
    let mut stack = vec![Item::Node(n, depth)];
    while let Some(item) = stack.pop() {
        let (n, depth) = match item {
            Item::Node(n, depth) => (n, depth),
            Item::Newline => {
                out.push('\n');
                continue;
            }
            Item::Close(n, depth) => {
                indent(out, options, depth);
                let _ = write!(out, "</{}>", doc.label_name(n));
                continue;
            }
        };
        match doc.kind(n) {
            LabelKind::Text => {
                indent(out, options, depth);
                out.push_str(&escape_text(doc.value(n).unwrap_or("")));
            }
            LabelKind::Attribute => {
                // A free-standing attribute leaf (detached from an element
                // context) renders as a pseudo-element for visibility.
                indent(out, options, depth);
                let name = doc.label_name(n);
                let _ = write!(
                    out,
                    "<attribute name=\"{}\" value=\"{}\"/>",
                    escape_attr(&name[1..]),
                    escape_attr(doc.value(n).unwrap_or(""))
                );
            }
            LabelKind::Element => {
                let name = doc.label_name(n);
                indent(out, options, depth);
                let _ = write!(out, "<{name}");
                let mut content: Vec<NodeId> = Vec::new();
                for &c in doc.children(n) {
                    if doc.kind(c) == LabelKind::Attribute {
                        let aname = doc.label_name(c);
                        let _ = write!(
                            out,
                            " {}=\"{}\"",
                            &aname[1..],
                            escape_attr(doc.value(c).unwrap_or(""))
                        );
                    } else {
                        content.push(c);
                    }
                }
                if content.is_empty() {
                    out.push_str("/>");
                } else if content.len() == 1 && doc.kind(content[0]) == LabelKind::Text {
                    out.push('>');
                    out.push_str(&escape_text(doc.value(content[0]).unwrap_or("")));
                    let _ = write!(out, "</{name}>");
                } else {
                    out.push('>');
                    if options.indent {
                        out.push('\n');
                    }
                    // Popped in reverse: each child, its newline, then the
                    // close tag.
                    stack.push(Item::Close(n, depth));
                    for &c in content.iter().rev() {
                        if options.indent {
                            stack.push(Item::Newline);
                        }
                        stack.push(Item::Node(c, depth + 1));
                    }
                }
            }
        }
    }
}

fn indent(out: &mut String, options: SerializeOptions, depth: usize) {
    if options.indent {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            other => out.push(other),
        }
    }
    out
}

fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;
    use crate::value_eq::value_eq;
    use regtree_alphabet::Alphabet;

    #[test]
    fn serialize_basic() {
        let a = Alphabet::new();
        let doc = parse_document(&a, r#"<s d="1"><c IDN="78"><level>B</level></c></s>"#).unwrap();
        let xml = to_xml(&doc);
        assert_eq!(xml, r#"<s d="1"><c IDN="78"><level>B</level></c></s>"#);
    }

    #[test]
    fn round_trip_preserves_value_equality() {
        let a = Alphabet::new();
        let src = r#"<session date="2009"><candidate IDN="78"><exam><discipline>math</discipline><mark>15</mark></exam></candidate></session>"#;
        let d1 = parse_document(&a, src).unwrap();
        let xml = to_xml(&d1);
        let d2 = parse_document(&a, &xml).unwrap();
        assert!(value_eq(&d1, d1.root(), &d2, d2.root()));
    }

    #[test]
    fn escaping_round_trip() {
        let a = Alphabet::new();
        let mut doc = crate::model::Document::new(a.clone());
        let root = doc.root();
        let e = doc.add_element(root, a.intern("e"));
        doc.add_attribute(e, a.intern("@q"), "a\"<&>b");
        doc.add_text(e, "x < y & z");
        let xml = to_xml(&doc);
        let back = parse_document(&a, &xml).unwrap();
        assert!(value_eq(&doc, doc.root(), &back, back.root()));
    }

    #[test]
    fn pretty_printing_indents() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<r><x><y/></x></r>").unwrap();
        let pretty = to_xml_with(&doc, SerializeOptions { indent: true });
        assert!(pretty.contains("\n  <x>"));
        assert!(pretty.contains("\n    <y/>"));
        // Reparsing the pretty output yields the same tree (whitespace text
        // dropped by default).
        let back = parse_document(&a, &pretty).unwrap();
        assert!(value_eq(&doc, doc.root(), &back, back.root()));
    }

    #[test]
    fn subtree_serialization() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<r><x>1</x><y>2</y></r>").unwrap();
        let r = doc.children(doc.root())[0];
        let y = doc.children(r)[1];
        assert_eq!(subtree_to_xml(&doc, y), "<y>2</y>");
    }

    #[test]
    fn empty_elements_self_close() {
        let a = Alphabet::new();
        let doc = parse_document(&a, "<r><empty></empty></r>").unwrap();
        assert_eq!(to_xml(&doc), "<r><empty/></r>");
    }

    #[test]
    fn output_bytes_are_pinned() {
        let a = Alphabet::new();
        let mut doc = parse_document(
            &a,
            r#"<r id="1"><x>t</x><y a="&quot;"><z/>mid<w>1</w><v><u q="2"/></v></y>tail</r><s/>"#,
        )
        .unwrap();
        let r = doc.children(doc.root())[0];
        // An attribute after element children still renders in the tag.
        doc.add_attribute(r, a.intern("@late"), "x");
        assert_eq!(
            to_xml(&doc),
            "<r id=\"1\" late=\"x\"><x>t</x><y a=\"&quot;\"><z/>mid<w>1</w><v><u q=\"2\"/>\
             </v></y>tail</r><s/>"
        );
        assert_eq!(
            to_xml_with(&doc, SerializeOptions { indent: true }),
            "<r id=\"1\" late=\"x\">\n  <x>t</x>\n  <y a=\"&quot;\">\n    <z/>\n    mid\n    \
             <w>1</w>\n    <v>\n      <u q=\"2\"/>\n    </v>\n  </y>\n  tail\n</r>\n<s/>\n"
        );
        let y = doc.children(r)[2];
        assert_eq!(
            subtree_to_xml(&doc, y),
            "<y a=\"&quot;\"><z/>mid<w>1</w><v><u q=\"2\"/></v></y>"
        );
        let id = doc.children(r)[0];
        assert_eq!(
            subtree_to_xml(&doc, id),
            "<attribute name=\"id\" value=\"1\"/>"
        );
    }

    #[test]
    fn deep_documents_serialize_without_recursion() {
        let a = Alphabet::new();
        let depth = 100_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let doc = parse_document(&a, &src).unwrap();
        // The innermost element self-closes.
        let expected = format!(
            "{}<a/>{}",
            "<a>".repeat(depth - 1),
            "</a>".repeat(depth - 1)
        );
        assert_eq!(to_xml(&doc), expected);
        // Indented output grows quadratically with depth; keep it small.
        let shallow =
            parse_document(&a, &src[3 * (depth - 1000)..src.len() - 4 * (depth - 1000)]).unwrap();
        let pretty = to_xml_with(&shallow, SerializeOptions { indent: true });
        assert_eq!(pretty.lines().count(), 2 * 1000 - 1);
    }
}
