//! Interned label alphabets shared by every `regtree` crate.
//!
//! The paper models XML documents as unranked ordered trees labeled over a
//! finite alphabet `Σ` partitioned into element labels `EL`, attribute labels
//! `A` and a single text label. Patterns, automata and documents all speak the
//! same alphabet, so labels are interned once into compact [`Symbol`]s and the
//! [`Alphabet`] is shared (cheaply clonable, thread-safe).
//!
//! Conventions (documented in `DESIGN.md`):
//! * the reserved root label is `"/"` ([`Alphabet::ROOT`]), interned first;
//! * the reserved text label is `"#text"` ([`Alphabet::TEXT`]);
//! * labels beginning with `'@'` are attribute labels;
//! * every other label is an element label.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// A compact handle to an interned label.
///
/// Symbols are only meaningful relative to the [`Alphabet`] that produced
/// them; mixing symbols across alphabets is a logic error (never UB).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The raw interner index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// The kind of node a label may sit on (the partition `Σ = EL ∪ A ∪ {text}`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LabelKind {
    /// An element label from `EL` (internal nodes; includes the root label).
    Element,
    /// An attribute label from `A` (leaf nodes carrying a value).
    Attribute,
    /// The text pseudo-label (leaf nodes carrying character data).
    Text,
}

#[derive(Default)]
struct Inner {
    names: Vec<Arc<str>>,
    kinds: Vec<LabelKind>,
    index: HashMap<Arc<str>, Symbol>,
}

impl Inner {
    fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.names.push(name.clone());
        self.kinds.push(classify(&name));
        self.index.insert(name, sym);
        sym
    }
}

fn classify(name: &str) -> LabelKind {
    if name == Alphabet::TEXT_NAME {
        LabelKind::Text
    } else if name.starts_with('@') {
        LabelKind::Attribute
    } else {
        LabelKind::Element
    }
}

/// A shared, thread-safe label interner.
///
/// Cloning an `Alphabet` is cheap (an `Arc` bump); all clones observe the same
/// interned labels, so documents, patterns and automata built from the same
/// alphabet agree on [`Symbol`] identity.
#[derive(Clone, Default)]
pub struct Alphabet {
    inner: Arc<RwLock<Inner>>,
}

impl Alphabet {
    /// The reserved name of the document root label.
    pub(crate) const ROOT_NAME: &'static str = "/";
    /// The reserved name of the text pseudo-label.
    pub const TEXT_NAME: &'static str = "#text";
    /// The symbol of the document root label (always interned first).
    pub const ROOT: Symbol = Symbol(0);
    /// The symbol of the text pseudo-label (always interned second).
    pub const TEXT: Symbol = Symbol(1);

    /// Creates an alphabet with the two reserved labels pre-interned.
    pub fn new() -> Self {
        let a = Alphabet {
            inner: Arc::new(RwLock::new(Inner::default())),
        };
        let root = a.intern(Self::ROOT_NAME);
        let text = a.intern(Self::TEXT_NAME);
        debug_assert_eq!(root, Self::ROOT);
        debug_assert_eq!(text, Self::TEXT);
        a
    }

    /// Creates an alphabet pre-populated with `labels` (after the reserved
    /// ones). Convenient for tests and generators.
    pub fn with_labels<I, S>(labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let a = Self::new();
        for l in labels {
            a.intern(l.as_ref());
        }
        a
    }

    /// Interns `name`, returning its symbol (idempotent).
    pub fn intern(&self, name: &str) -> Symbol {
        self.inner.write().intern(name)
    }

    /// Looks up an already-interned label without interning.
    #[cfg(test)]
    pub(crate) fn lookup(&self, name: &str) -> Option<Symbol> {
        self.inner.read().index.get(name).copied()
    }

    /// Resolves a symbol back to its label text.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this alphabet.
    pub fn name(&self, sym: Symbol) -> Arc<str> {
        self.inner.read().names[sym.index()].clone()
    }

    /// The node-kind partition class of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this alphabet.
    pub fn kind(&self, sym: Symbol) -> LabelKind {
        self.inner.read().kinds[sym.index()]
    }

    /// Acquires the interner read lock once for a batch of [`KindReader::kind`]
    /// lookups; hot loops probing many symbols should prefer this over
    /// repeated [`Alphabet::kind`] calls, which re-lock per symbol.
    pub fn kind_reader(&self) -> KindReader<'_> {
        KindReader {
            inner: self.inner.read(),
        }
    }

    /// Number of interned labels (including the two reserved ones).
    pub fn len(&self) -> usize {
        self.inner.read().names.len()
    }

    /// True when only the reserved labels are interned.
    pub fn is_empty(&self) -> bool {
        self.len() <= 2
    }

    /// Snapshot of all interned symbols, in interning order.
    pub fn symbols(&self) -> Vec<Symbol> {
        (0..self.len() as u32).map(Symbol).collect()
    }

    /// Snapshot of all symbols of a given kind.
    pub fn symbols_of_kind(&self, kind: LabelKind) -> Vec<Symbol> {
        let inner = self.inner.read();
        inner
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == kind)
            .map(|(i, _)| Symbol(i as u32))
            .collect()
    }

    /// Snapshot of `(name, symbol)` pairs, in interning order.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> Vec<(Arc<str>, Symbol)> {
        let inner = self.inner.read();
        inner
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), Symbol(i as u32)))
            .collect()
    }
}

/// A held read lock over the interner for batched kind lookups (see
/// [`Alphabet::kind_reader`]). Interning blocks while this is alive, so keep
/// the scope tight.
pub struct KindReader<'a> {
    inner: std::sync::RwLockReadGuard<'a, Inner>,
}

impl KindReader<'_> {
    /// Same as [`Alphabet::kind`], without re-locking per call.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this alphabet.
    pub fn kind(&self, sym: Symbol) -> LabelKind {
        self.inner.kinds[sym.index()]
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Alphabet")
            .field("len", &inner.names.len())
            .field("labels", &inner.names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_labels_are_fixed() {
        let a = Alphabet::new();
        assert_eq!(a.intern("/"), Alphabet::ROOT);
        assert_eq!(a.intern("#text"), Alphabet::TEXT);
        assert_eq!(a.name(Alphabet::ROOT).as_ref(), "/");
        assert_eq!(a.name(Alphabet::TEXT).as_ref(), "#text");
        assert_eq!(a.kind(Alphabet::ROOT), LabelKind::Element);
        assert_eq!(a.kind(Alphabet::TEXT), LabelKind::Text);
    }

    #[test]
    fn intern_is_idempotent() {
        let a = Alphabet::new();
        let s1 = a.intern("session");
        let s2 = a.intern("session");
        assert_eq!(s1, s2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn attribute_labels_classified_by_at_sign() {
        let a = Alphabet::new();
        let idn = a.intern("@IDN");
        let exam = a.intern("exam");
        assert_eq!(a.kind(idn), LabelKind::Attribute);
        assert_eq!(a.kind(exam), LabelKind::Element);
    }

    #[test]
    fn clones_share_interner() {
        let a = Alphabet::new();
        let b = a.clone();
        let s = b.intern("mark");
        assert_eq!(a.lookup("mark"), Some(s));
    }

    #[test]
    fn lookup_does_not_intern() {
        let a = Alphabet::new();
        assert_eq!(a.lookup("ghost"), None);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn symbols_of_kind_partitions() {
        let a = Alphabet::with_labels(["x", "@y", "z"]);
        let el = a.symbols_of_kind(LabelKind::Element);
        let at = a.symbols_of_kind(LabelKind::Attribute);
        let tx = a.symbols_of_kind(LabelKind::Text);
        assert_eq!(el.len() + at.len() + tx.len(), a.len());
        assert_eq!(tx, vec![Alphabet::TEXT]);
        assert!(el.contains(&Alphabet::ROOT));
        assert_eq!(at.len(), 1);
    }

    #[test]
    fn entries_in_interning_order() {
        let a = Alphabet::with_labels(["one", "two"]);
        let names: Vec<_> = a.entries().iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, vec!["/", "#text", "one", "two"]);
    }

    #[test]
    fn with_labels_convenience() {
        let a = Alphabet::with_labels(["a", "b", "a"]);
        assert_eq!(a.len(), 4);
        assert!(a.lookup("a").is_some());
        assert!(!a.is_empty());
        assert!(Alphabet::new().is_empty());
    }
}
