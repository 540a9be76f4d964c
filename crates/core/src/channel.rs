//! FIFO message channels between host and devices.
//!
//! The paper models each of the six per-device channels as a list with
//! `head`/`tail`/append operations (Figure 4). The coherence argument in
//! fact guarantees that each channel holds at most one message at a time
//! (the "channels are singleton lists" invariant conjunct, §6), but the
//! *model* does not build that in — it emerges from the rules. We likewise
//! expose an unbounded FIFO so that relaxed protocol variants can exhibit
//! longer queues, and check singleton-ness as an invariant.
//!
//! ## Inline storage
//!
//! Because reachable states keep channels singleton, the backing store is
//! a capacity-1 inline buffer that only spills to a heap `Vec` at two or
//! more messages. Cloning a `SystemState` — the dominant cost of
//! exploration, one clone per generated successor — therefore allocates
//! nothing for channels in the steady state. The representation is kept
//! canonical (`Empty`/`One` exactly for lengths 0/1), so derived equality
//! and hashing over the enum agree with sequence semantics.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Canonical inline-first storage: `Empty` ⟺ len 0, `One` ⟺ len 1,
/// `Spilled` ⟺ len ≥ 2. All mutators restore this invariant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Store<T> {
    Empty,
    One(T),
    Spilled(Vec<T>),
}

/// An ordered message channel with FIFO semantics.
///
/// `head` is the next message to be consumed; rules append at the tail
/// (`chan := chan @ [msg]` in the paper's notation).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Channel<T> {
    store: Store<T>,
}

/// `clone_from` keeps a spilled destination's heap buffer alive when the
/// source is also spilled, so scratch-state rule firing (`clone_from`
/// into a reused successor) allocates nothing even in relaxed
/// configurations that queue two or more messages.
impl<T: Clone> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel { store: self.store.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut self.store, &source.store) {
            (Store::Spilled(dst), Store::Spilled(src)) => dst.clone_from(src),
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl<T> Channel<T> {
    /// An empty channel.
    #[must_use]
    pub fn new() -> Self {
        Channel { store: Store::Empty }
    }

    /// The message at the head, if any (`head(chan)` in the paper).
    #[must_use]
    pub fn head(&self) -> Option<&T> {
        self.as_slice().first()
    }

    /// Remove and return the head (`chan := tail(chan)`).
    pub fn pop(&mut self) -> Option<T> {
        match std::mem::replace(&mut self.store, Store::Empty) {
            Store::Empty => None,
            Store::One(x) => Some(x),
            Store::Spilled(mut v) => {
                let head = v.remove(0);
                self.store = if v.len() == 1 {
                    Store::One(v.pop().expect("len checked"))
                } else {
                    Store::Spilled(v)
                };
                Some(head)
            }
        }
    }

    /// Append a message at the tail (`chan := chan @ [msg]`).
    pub fn push(&mut self, msg: T) {
        self.store = match std::mem::replace(&mut self.store, Store::Empty) {
            Store::Empty => Store::One(msg),
            Store::One(a) => Store::Spilled(vec![a, msg]),
            Store::Spilled(mut v) => {
                v.push(msg);
                Store::Spilled(v)
            }
        };
    }

    /// Is the channel empty (`chan = []`)?
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        matches!(self.store, Store::Empty)
    }

    /// Number of in-flight messages.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Empty => 0,
            Store::One(_) => 1,
            Store::Spilled(v) => v.len(),
        }
    }

    /// Iterate over in-flight messages, head first.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Empty the channel in place, restoring the canonical `Empty` form.
    /// This is the decode hook of [`crate::codec::StateCodec`]: channels
    /// are cleared and refilled message by message, staying inline (no
    /// allocation) for the singleton channels of every reachable state.
    /// (A spilled channel's heap buffer is dropped here — the ≥ 2-message
    /// refill path reuses it through the crate-internal `spill_mut`
    /// instead of going through `clear`.)
    pub fn clear(&mut self) {
        self.store = Store::Empty;
    }

    /// The spilled heap buffer, if the channel currently holds one — the
    /// codec's allocation-reusing refill hook for ≥ 2-message decodes
    /// (`Vec::clear` + `push` keeps the capacity a previous decode into
    /// the same scratch state grew).
    ///
    /// Crate-internal: a caller that empties the buffer without
    /// restoring ≥ 2 messages leaves the representation non-canonical,
    /// so this must stay behind an interface that refills it.
    pub(crate) fn spill_mut(&mut self) -> Option<&mut Vec<T>> {
        match &mut self.store {
            Store::Spilled(v) => Some(v),
            _ => None,
        }
    }

    /// View the channel contents as a slice, head first.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        match &self.store {
            Store::Empty => &[],
            Store::One(x) => std::slice::from_ref(x),
            Store::Spilled(v) => v,
        }
    }
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Channel::new()
    }
}

impl<T: PartialOrd> PartialOrd for Channel<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.as_slice().partial_cmp(other.as_slice())
    }
}

impl<T: Ord> Ord for Channel<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl<T> FromIterator<T> for Channel<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut c = Channel::new();
        for item in iter {
            c.push(item);
        }
        c
    }
}

impl<T> Extend<T> for Channel<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T> From<Vec<T>> for Channel<T> {
    fn from(mut items: Vec<T>) -> Self {
        let store = match items.len() {
            0 => Store::Empty,
            1 => Store::One(items.pop().expect("len checked")),
            _ => Store::Spilled(items),
        };
        Channel { store }
    }
}

impl<'a, T> IntoIterator for &'a Channel<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T> IntoIterator for Channel<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        match self.store {
            Store::Empty => Vec::new().into_iter(),
            Store::One(x) => vec![x].into_iter(),
            Store::Spilled(v) => v.into_iter(),
        }
    }
}

impl<T: fmt::Display> fmt::Display for Channel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, m) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "]")
    }
}

impl<T: Serialize> Serialize for Channel<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Channel<T> {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        match v {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(serde::DeError(format!("expected channel seq, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut c = Channel::new();
        c.push(1);
        c.push(2);
        c.push(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.head(), Some(&1));
        assert_eq!(c.pop(), Some(1));
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn head_does_not_consume() {
        let mut c: Channel<u32> = Channel::new();
        c.push(7);
        assert_eq!(c.head(), Some(&7));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn collect_and_iterate() {
        let c: Channel<u32> = (0..4).collect();
        let v: Vec<u32> = c.iter().copied().collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
        assert_eq!(c.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn display_matches_paper_list_notation() {
        let mut c = Channel::new();
        assert_eq!(c.to_string(), "[]");
        c.push(1);
        c.push(2);
        assert_eq!(c.to_string(), "[1, 2]");
    }

    #[test]
    fn from_vec_roundtrip() {
        let c = Channel::from(vec![9, 8]);
        let back: Vec<i32> = c.into_iter().collect();
        assert_eq!(back, vec![9, 8]);
    }

    #[test]
    fn representation_stays_canonical_under_mutation() {
        // Equality and hashing derive from the enum, so spill/unspill must
        // always restore the canonical shape for a given sequence.
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let h = |c: &Channel<u32>| hasher.hash_one(c);

        // Reach a singleton three ways: push; push-push-pop; from_vec.
        let mut a = Channel::new();
        a.push(5);
        let mut b = Channel::new();
        b.push(4);
        b.push(5);
        assert_eq!(b.pop(), Some(4));
        let c: Channel<u32> = Channel::from(vec![5]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&b), h(&c));

        // And the empty channel two ways.
        let mut d = b.clone();
        assert_eq!(d.pop(), Some(5));
        let e: Channel<u32> = Channel::new();
        assert_eq!(d, e);
        assert_eq!(h(&d), h(&e));
    }

    #[test]
    fn spilled_channel_drains_back_through_inline() {
        let mut c: Channel<u32> = (0..5).collect();
        for expect in 0..5 {
            assert_eq!(c.head(), Some(&expect));
            assert_eq!(c.pop(), Some(expect));
        }
        assert!(c.is_empty());
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn ordering_follows_sequence_semantics() {
        let a: Channel<u32> = vec![1, 2].into();
        let b: Channel<u32> = vec![1, 3].into();
        assert!(a < b);
        let empty: Channel<u32> = Channel::new();
        assert!(empty < a);
    }

    #[test]
    fn serde_roundtrip() {
        let c: Channel<u32> = vec![3, 1, 4].into();
        let back = Channel::<u32>::from_value(&c.to_value()).unwrap();
        assert_eq!(back, c);
    }
}
