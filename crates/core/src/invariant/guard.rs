//! Conjunct guards and the bucketed table that evaluates only the
//! conjuncts a state can falsify.
//!
//! Nearly every conjunct is an implication whose antecedent names a
//! device cache state, an in-flight message, or a host state (paper §6).
//! A [`Guard`] records that antecedent as data: the conjunct can fail
//! only at one device whose cache state lies in a set and whose named
//! channels (or buffer) are non-empty, or only while the host state lies
//! in a set. [`GuardTable`] files conjunct ids by guard once, at
//! [`super::Invariant`] construction — the move
//! [`crate::rules::Shape::device_state_key`] made for rules — so checking
//! a state reads only the entries its N cache states, non-empty channels
//! and host state key.

use super::Conjunct;
use crate::cacheline::{DState, HState};
use crate::ids::{DeviceId, Topology};
use crate::msg::DBufferSlot;
use crate::state::{DeviceState, SystemState};
use std::fmt;
use std::ops::BitOr;

/// A set of device cache states.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DStates(u32);

impl DStates {
    /// Every device state.
    pub const ALL: DStates = DStates((1 << DState::ALL.len()) - 1);

    /// The set holding exactly `states`.
    #[must_use]
    pub(crate) const fn of(states: &[DState]) -> Self {
        let mut bits = 0;
        let mut k = 0;
        while k < states.len() {
            bits |= 1 << states[k] as u32;
            k += 1;
        }
        DStates(bits)
    }

    /// The states `f` accepts.
    #[must_use]
    pub(crate) fn matching(f: impl Fn(DState) -> bool) -> Self {
        let states = DState::ALL.into_iter().filter(|&st| f(st));
        DStates(states.fold(0, |bits, st| bits | 1 << st as u32))
    }

    /// Every state outside this set.
    #[must_use]
    pub(crate) const fn complement(self) -> Self {
        DStates(!self.0 & Self::ALL.0)
    }

    /// The states in either set.
    #[must_use]
    pub(crate) const fn union(self, other: DStates) -> Self {
        DStates(self.0 | other.0)
    }

    /// Is `st` in the set?
    #[must_use]
    #[inline]
    pub const fn contains(self, st: DState) -> bool {
        self.0 >> st as u32 & 1 == 1
    }

    /// The states in the set, in [`DState::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = DState> {
        DState::ALL.into_iter().filter(move |&st| self.contains(st))
    }
}

impl fmt::Debug for DStates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A set of host states.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct HStates(u16);

impl HStates {
    /// The set holding exactly `states`.
    #[must_use]
    pub(crate) const fn of(states: &[HState]) -> Self {
        let mut bits = 0;
        let mut k = 0;
        while k < states.len() {
            bits |= 1 << states[k] as u16;
            k += 1;
        }
        HStates(bits)
    }

    /// The states `f` accepts.
    #[must_use]
    pub(crate) fn matching(f: impl Fn(HState) -> bool) -> Self {
        let states = HState::ALL.into_iter().filter(|&st| f(st));
        HStates(states.fold(0, |bits, st| bits | 1 << st as u16))
    }

    /// Is `st` in the set?
    #[must_use]
    #[inline]
    pub const fn contains(self, st: HState) -> bool {
        self.0 >> st as u16 & 1 == 1
    }

    /// The states in the set, in [`HState::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = HState> {
        HState::ALL.into_iter().filter(move |&st| self.contains(st))
    }
}

impl fmt::Debug for HStates {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Which of a device's six channels and its buffer hold something.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Occupancy(u8);

impl Occupancy {
    /// Nothing required.
    pub const NONE: Occupancy = Occupancy(0);
    /// `D2HReq` non-empty.
    pub const D2H_REQ: Occupancy = Occupancy(1);
    /// `D2HRsp` non-empty.
    pub const D2H_RSP: Occupancy = Occupancy(1 << 1);
    /// `D2HData` non-empty.
    pub const D2H_DATA: Occupancy = Occupancy(1 << 2);
    /// `H2DReq` non-empty.
    pub const H2D_REQ: Occupancy = Occupancy(1 << 3);
    /// `H2DRsp` non-empty.
    pub const H2D_RSP: Occupancy = Occupancy(1 << 4);
    /// `H2DData` non-empty.
    pub const H2D_DATA: Occupancy = Occupancy(1 << 5);
    /// `DBuffer` holds a message.
    pub const BUFFER: Occupancy = Occupancy(1 << 6);

    /// What `dev` holds.
    #[must_use]
    #[inline]
    pub fn of(dev: &DeviceState) -> Self {
        Occupancy(
            u8::from(!dev.d2h_req.is_empty())
                | u8::from(!dev.d2h_rsp.is_empty()) << 1
                | u8::from(!dev.d2h_data.is_empty()) << 2
                | u8::from(!dev.h2d_req.is_empty()) << 3
                | u8::from(!dev.h2d_rsp.is_empty()) << 4
                | u8::from(!dev.h2d_data.is_empty()) << 5
                | u8::from(!matches!(dev.buffer, DBufferSlot::Empty)) << 6,
        )
    }

    /// Is everything `need` names occupied here?
    #[must_use]
    #[inline]
    pub const fn covers(self, need: Occupancy) -> bool {
        self.0 & need.0 == need.0
    }
}

impl BitOr for Occupancy {
    type Output = Occupancy;
    fn bitor(self, rhs: Occupancy) -> Occupancy {
        Occupancy(self.0 | rhs.0)
    }
}

/// Where a conjunct can fail. The contract: a conjunct may be false on
/// a state only if its guard [admits](Guard::admits) that state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Guard {
    /// No claim: evaluated on every state. What [`Conjunct::new`] gives.
    Always,
    /// Can fail only while device `dev`'s cache state is in `states` and
    /// everything `occupied` names is non-empty at that device.
    Device {
        /// The device the antecedent names.
        dev: DeviceId,
        /// Its cache states in which the conjunct can fail.
        states: DStates,
        /// Channels (and buffer) that must hold a message for it to fail.
        occupied: Occupancy,
    },
    /// Can fail only while the host state is in `states`.
    Host {
        /// The host states in which the conjunct can fail.
        states: HStates,
    },
}

impl Guard {
    /// A device guard.
    #[must_use]
    pub(crate) fn device(dev: DeviceId, states: DStates, occupied: Occupancy) -> Self {
        Guard::Device { dev, states, occupied }
    }

    /// A host guard.
    #[must_use]
    pub(crate) fn host(states: HStates) -> Self {
        Guard::Host { states }
    }

    /// Does `s` lie inside this guard (so the conjunct must be evaluated)?
    #[must_use]
    pub fn admits(&self, s: &SystemState) -> bool {
        match *self {
            Guard::Always => true,
            Guard::Device { dev, states, occupied } => {
                let d = s.dev(dev);
                states.contains(d.cache.state) && Occupancy::of(d).covers(occupied)
            }
            Guard::Host { states } => states.contains(s.host.state),
        }
    }

    /// Call `f` with every table bucket that files this guard. A device
    /// guard that needs a message is filed once, under the lowest channel
    /// (or buffer) bit it needs; any other device guard under each cache
    /// state it names; a host guard under each host state it names.
    fn for_each_bucket(self, mut f: impl FnMut(usize)) {
        let (first, mut bits) = match self {
            Guard::Device { dev, occupied, .. } if occupied != Occupancy::NONE => {
                (device_row(dev.index()) + STATES, 1 << occupied.0.trailing_zeros())
            }
            Guard::Device { dev, states, .. } => (device_row(dev.index()), states.0),
            Guard::Host { states } => (0, u32::from(states.0)),
            Guard::Always => (ALWAYS, 1),
        };
        while bits != 0 {
            f(first + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Cache-state buckets at the head of a device row.
const STATES: usize = DState::ALL.len();
/// Buckets per device row: one per cache state, then one per occupancy
/// bit (six channels and the buffer).
const D_ROW: usize = STATES + 7;
/// The unguarded bucket, after the host row's one bucket per host state.
const ALWAYS: usize = HState::ALL.len();

/// The first bucket of device `d`'s row; the rows follow the host row
/// and the unguarded bucket.
const fn device_row(d: usize) -> usize {
    ALWAYS + 1 + d * D_ROW
}

/// A table entry: `states << 32 | occupied << 24 | id`. The cache states
/// and occupancy are read only in channel buckets; a state bucket's
/// entries need nothing beyond the state that selected the bucket.
fn entry(id: usize, guard: Guard) -> u64 {
    assert!(id < 1 << 24, "conjunct id {id} does not fit a guard-table entry");
    let (states, occupied) = match guard {
        Guard::Device { states, occupied, .. } => (states.0, occupied.0),
        _ => (DStates::ALL.0, 0),
    };
    u64::from(states) << 32 | u64::from(occupied) << 24 | id as u64
}

fn entry_id(e: u64) -> usize {
    (e & 0xff_ffff) as usize
}

/// Conjunct ids filed by guard: one bucket per host state, one for
/// unguarded conjuncts, then a row per device. A device row has one
/// bucket per cache state, listing the conjuncts that can fail in that
/// state with no message required, and one per occupancy bit, listing
/// the conjuncts that need that channel (or the buffer) non-empty.
/// Buckets list entries in id order.
#[derive(Clone)]
pub(super) struct GuardTable {
    /// The `buckets + 1` bucket boundaries (offsets into the entries),
    /// then the entries (see [`entry`]), in one allocation.
    words: Box<[u64]>,
    buckets: usize,
    /// Device rows: one past the highest device any guard names.
    devices: usize,
}

impl GuardTable {
    /// File `conjuncts` (whose ids are their positions) in one counting
    /// pass: count each bucket's entries on the stack, size the single
    /// allocation, turn the counts into offsets, then place every entry.
    pub(super) fn build(conjuncts: &[Conjunct]) -> Self {
        // `next[b]` counts bucket b's entries, then becomes its next
        // free slot.
        let mut next = [0u32; device_row(Topology::MAX_DEVICES)];
        let (mut devices, mut entries) = (0, 0);
        for c in conjuncts {
            if let Guard::Device { dev, .. } = c.guard {
                devices = devices.max(dev.index() + 1);
            }
            c.guard.for_each_bucket(|b| {
                next[b] += 1;
                entries += 1;
            });
        }
        let buckets = device_row(devices);
        let mut words = vec![0u64; buckets + 1 + entries].into_boxed_slice();
        let mut start = 0;
        for (b, next) in next[..buckets].iter_mut().enumerate() {
            words[b] = u64::from(start);
            start += std::mem::replace(next, start);
        }
        words[buckets] = u64::from(start);
        for (id, c) in conjuncts.iter().enumerate() {
            let e = entry(id, c.guard);
            c.guard.for_each_bucket(|b| {
                words[buckets + 1 + next[b] as usize] = e;
                next[b] += 1;
            });
        }
        GuardTable { words, buckets, devices }
    }

    /// Entries across all buckets.
    #[cfg(test)]
    fn entries(&self) -> usize {
        self.words.len() - self.buckets - 1
    }

    #[inline]
    fn bucket(&self, b: usize) -> &[u64] {
        let base = self.buckets + 1;
        &self.words[base + self.words[b] as usize..base + self.words[b + 1] as usize]
    }

    /// Calls `f` with the id of every conjunct whose guard admits `s`,
    /// in bucket order, until `f` returns `false`; returns whether it
    /// never did.
    ///
    /// # Panics
    /// Panics if `s` has fewer devices than some guard names, as those
    /// conjuncts' predicates would.
    #[inline]
    pub(super) fn all_admitted(&self, s: &SystemState, mut f: impl FnMut(usize) -> bool) -> bool {
        let host = self.bucket(s.host.state as usize);
        if !host.iter().chain(self.bucket(ALWAYS)).all(|&e| f(entry_id(e))) {
            return false;
        }
        for d in 0..self.devices {
            let dev = &s.devs[d];
            let st = dev.cache.state;
            let row = device_row(d);
            if !self.bucket(row + st as usize).iter().all(|&e| f(entry_id(e))) {
                return false;
            }
            let held = Occupancy::of(dev);
            let mut bits = held.0;
            while bits != 0 {
                for &e in self.bucket(row + STATES + bits.trailing_zeros() as usize) {
                    if DStates((e >> 32) as u32).contains(st)
                        && held.covers(Occupancy((e >> 24) as u8))
                        && !f(entry_id(e))
                    {
                        return false;
                    }
                }
                bits &= bits - 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::Family;
    use crate::msg::{H2DReq, H2DReqType};
    use std::sync::Arc;

    fn conjunct(guard: Guard) -> Conjunct {
        Conjunct::new("c", Family::Swmr, "test", Arc::new(|_: &SystemState| true)).guarded(guard)
    }

    #[test]
    fn state_sets_round_trip() {
        let set = DStates::of(&[DState::I, DState::ISDI, DState::IIA]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![DState::I, DState::ISDI, DState::IIA]);
        assert_eq!(set.complement().iter().count(), DState::ALL.len() - 3);
        let stable = DStates::of(&[DState::I, DState::S, DState::M]);
        assert_eq!(DStates::matching(DState::is_stable), stable);
        let blocked = HStates::of(&[HState::IB, HState::SB, HState::MB]);
        assert_eq!(HStates::matching(HState::is_blocked_on_pull), blocked);
        assert_eq!(format!("{:?}", HStates::of(&[HState::S, HState::MB])), "{S, MB}");
    }

    #[test]
    fn occupancy_reads_channels_and_buffer() {
        let mut s = SystemState::initial(vec![], vec![]);
        let d = DeviceId::D2;
        assert_eq!(Occupancy::of(s.dev(d)), Occupancy::NONE);
        s.dev_mut(d).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        s.dev_mut(d).buffer = DBufferSlot::Req(H2DReq::new(H2DReqType::SnpData, 0));
        let held = Occupancy::of(s.dev(d));
        assert!(held.covers(Occupancy::H2D_REQ | Occupancy::BUFFER));
        assert!(!held.covers(Occupancy::H2D_REQ | Occupancy::H2D_DATA));
    }

    #[test]
    fn table_selects_exactly_the_admitting_guards() {
        let guards = [
            Guard::device(DeviceId::D1, DStates::of(&[DState::M]), Occupancy::NONE),
            Guard::device(DeviceId::D2, DStates::ALL, Occupancy::H2D_REQ),
            Guard::host(HStates::of(&[HState::I, HState::S])),
            Guard::Always,
            Guard::device(DeviceId::D2, DStates::of(&[DState::I, DState::S]), Occupancy::NONE),
            Guard::device(DeviceId::D2, DStates::of(&[DState::S]), Occupancy::H2D_REQ),
            Guard::device(DeviceId::D2, DStates::ALL, Occupancy::H2D_REQ | Occupancy::BUFFER),
        ];
        let cs: Vec<Conjunct> = guards.iter().map(|&g| conjunct(g)).collect();
        let table = GuardTable::build(&cs);
        assert_eq!(table.devices, 2);
        assert_eq!(table.entries(), 1 + 1 + 2 + 1 + 2 + 1 + 1);
        let mut s = SystemState::initial(vec![], vec![]);
        s.dev_mut(DeviceId::D1).cache.state = DState::M;
        s.dev_mut(DeviceId::D2).h2d_req.push(H2DReq::new(H2DReqType::SnpInv, 0));
        for host in HState::ALL {
            for dev2 in DState::ALL {
                s.host.state = host;
                s.dev_mut(DeviceId::D2).cache.state = dev2;
                let mut seen = Vec::new();
                table.all_admitted(&s, |id| {
                    seen.push(id);
                    true
                });
                seen.sort_unstable();
                let want: Vec<usize> =
                    (0..guards.len()).filter(|&id| guards[id].admits(&s)).collect();
                assert_eq!(seen, want, "host {host}, device 2 {dev2}");
            }
        }
        assert!(!table.all_admitted(&s, |id| id != 3), "a refusal stops the walk");
    }
}
