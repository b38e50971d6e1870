//! The message boundaries one packet carries.
//!
//! Every TCP data segment and QUIC stream frame lists the application
//! messages whose final byte it carries, as `(end offset, tag)` pairs.
//! Most carry none or one: on the campaign and swarm workloads 77 % of
//! TCP data segments carry no marker and 18.5 % carry one, about 2 %
//! carry three to six, and a QUIC stream frame carries at most two.
//! [`Markers`] therefore holds up to two pairs inline and moves to the
//! heap only beyond that, so building a packet allocates nothing in the
//! common case.

use crate::conn_id::MsgTag;

/// Pairs held without a heap allocation.
const INLINE: usize = 2;

/// An empty inline slot.
const VACANT: (u64, MsgTag) = (0, MsgTag(0));

/// Message boundaries `(end offset, tag)` carried by one segment or
/// frame, in the order they were pushed (ascending end offset wherever
/// the transports build them).
///
/// # Example
///
/// ```
/// use h3cdn_transport::{Markers, MsgTag};
///
/// let mut m = Markers::new();
/// assert!(m.is_empty());
/// m.push(100, MsgTag(1));
/// m.push(250, MsgTag(2));
/// m.push(400, MsgTag(3));
/// assert_eq!(m.as_slice(), &[(100, MsgTag(1)), (250, MsgTag(2)), (400, MsgTag(3))]);
/// ```
#[derive(Clone)]
pub struct Markers(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` slots are in use; the rest are [`VACANT`].
    Inline {
        len: u8,
        slots: [(u64, MsgTag); INLINE],
    },
    /// More than [`INLINE`] pairs.
    Spilled(Vec<(u64, MsgTag)>),
}

impl Markers {
    /// No markers.
    pub const fn new() -> Self {
        Markers(Repr::Inline {
            len: 0,
            slots: [VACANT; INLINE],
        })
    }

    /// Appends one boundary.
    pub fn push(&mut self, end: u64, tag: MsgTag) {
        match &mut self.0 {
            Repr::Inline { len, slots } => {
                if let Some(slot) = slots.get_mut(usize::from(*len)) {
                    *slot = (end, tag);
                    *len += 1;
                } else {
                    // The one spill: a packet ending a third message.
                    // h3cdn-lint: allow(hot-path-alloc)
                    let mut spilled = slots.to_vec();
                    spilled.push((end, tag));
                    self.0 = Repr::Spilled(spilled);
                }
            }
            Repr::Spilled(items) => items.push((end, tag)),
        }
    }

    /// The boundaries in push order.
    pub fn as_slice(&self) -> &[(u64, MsgTag)] {
        match &self.0 {
            Repr::Inline { len, slots } => slots.get(..usize::from(*len)).unwrap_or_default(),
            Repr::Spilled(items) => items,
        }
    }

    /// Whether no message ends in this packet.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl Default for Markers {
    fn default() -> Self {
        Markers::new()
    }
}

impl std::fmt::Debug for Markers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FromIterator<(u64, MsgTag)> for Markers {
    fn from_iter<I: IntoIterator<Item = (u64, MsgTag)>>(iter: I) -> Self {
        let mut markers = Markers::new();
        for (end, tag) in iter {
            markers.push(end, tag);
        }
        markers
    }
}

impl<'a> IntoIterator for &'a Markers {
    type Item = &'a (u64, MsgTag);
    type IntoIter = std::slice::Iter<'a, (u64, MsgTag)>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn two_pairs_stay_inline_and_a_third_spills() {
        let mut m = Markers::new();
        m.push(10, MsgTag(1));
        m.push(20, MsgTag(2));
        assert!(matches!(m.0, Repr::Inline { len: 2, .. }));
        m.push(30, MsgTag(3));
        assert!(matches!(m.0, Repr::Spilled(_)));
        assert_eq!(
            format!("{m:?}"),
            "[(10, MsgTag(1)), (20, MsgTag(2)), (30, MsgTag(3))]"
        );
    }

    proptest! {
        #[test]
        fn agrees_with_a_vec(
            items in prop::collection::vec((0u64..u64::MAX, 0u64..1_000), 0..9),
        ) {
            let mut markers = Markers::new();
            let mut oracle: Vec<(u64, MsgTag)> = Vec::new();
            for (end, tag) in items {
                markers.push(end, MsgTag(tag));
                oracle.push((end, MsgTag(tag)));
                prop_assert_eq!(markers.as_slice(), oracle.as_slice());
                prop_assert_eq!(markers.is_empty(), oracle.is_empty());
                let copy = markers.clone();
                prop_assert_eq!(copy.as_slice(), oracle.as_slice());
                let collected: Markers = oracle.iter().copied().collect();
                prop_assert_eq!(collected.as_slice(), oracle.as_slice());
                prop_assert_eq!(
                    (&markers).into_iter().copied().collect::<Vec<_>>(),
                    oracle.clone()
                );
            }
        }
    }
}
