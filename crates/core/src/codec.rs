//! Compact byte encoding of system states — the canonical store behind
//! the model checker's packed state arena.
//!
//! Explicit-state exploration of N ≥ 3 topologies is memory-bound long
//! before it is time-bound (state spaces grow ~13× per added active
//! device), and a heap `SystemState` is a poor archival format: a
//! twenty-plus-component record of machine words, enum discriminants
//! stored one byte per 8-byte slot, inline channel buffers sized for the
//! *widest* message type, and per-state heap blocks for programs. The
//! [`StateCodec`] packs the same information into a handful of bytes:
//!
//! - cache states are **bit-packed** — a device's `DState` (17 values,
//!   5 bits), its buffer-slot tag (2 bits) and a *quiet* flag (1 bit:
//!   program and all six channels empty) share one byte; the host's
//!   `HState` shares its byte with nothing because its value byte
//!   follows anyway;
//! - a quiet device (the steady state of every idle peer in a wide
//!   topology, and of most devices in most reachable states) encodes as
//!   exactly that tag byte plus its residual cache value;
//! - integers (`Tid`, `Val`, lengths) are LEB128 **varints** — zigzagged
//!   where signed — so the small values the model actually mints cost
//!   one byte, not eight;
//! - channel contents are length-prefixed message sequences in a fixed
//!   canonical order.
//!
//! The encoding is **exact** (decode is a two-sided inverse on every
//! representable state) and **deterministic** (equal states produce
//! byte-equal encodings — the property that lets the checker's dedup
//! index compare packed bytes instead of decoded states; pinned by the
//! workspace's codec proptests). The shared per-run [`Topology`] lives in
//! the codec, not in each encoded state, so the device count is stored
//! once per exploration rather than once per state.
//!
//! [`StateArena`] is the companion store: one contiguous byte buffer plus
//! an offset table, append-only, decode-on-demand.

use crate::cacheline::{DCache, DState, HCache, HState};
use crate::channel::Channel;
use crate::ids::Topology;
use crate::instr::Instruction;
use crate::msg::{
    D2HReq, D2HReqType, D2HRsp, D2HRspType, DBufferSlot, DataMsg, H2DReq, H2DReqType, H2DRsp,
    H2DRspType,
};
use crate::state::{DeviceState, SystemState};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A malformed byte stream handed to [`StateCodec::decode`].
///
/// Arena-internal decodes never hit this (the arena only stores what the
/// codec produced); it exists so external callers feeding untrusted bytes
/// get a diagnosis instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "state decode error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Lets public entry points `?` the boxed errors of the internal parse
/// steps.
impl From<Box<CodecError>> for CodecError {
    fn from(e: Box<CodecError>) -> Self {
        *e
    }
}

/// What every internal parse step returns. The error is boxed because a
/// `Result<u64, CodecError>` is 24 bytes: it comes back through memory,
/// and every `?` in the parse tree moves it again. Boxed, the result of
/// reading a byte or a varint is two words and returns in registers; the
/// allocation happens only on the (cold) error path. Public functions
/// keep returning [`CodecError`] and unbox at the boundary.
type ParseResult<T> = Result<T, Box<CodecError>>;

// A wider error must fail the build, not silently double the cost of
// every read on the decode, canonicalization and delta paths.
const _: () = assert!(std::mem::size_of::<ParseResult<u64>>() <= 16);

// The checker's phase workers decode from one shared store at once.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<StateArena>();
};

/// Build a parse error. Kept out of line so the formatting code stays off
/// the hot path of every caller.
#[cold]
#[inline(never)]
fn parse_error(msg: fmt::Arguments<'_>) -> Box<CodecError> {
    Box::new(CodecError(fmt::format(msg)))
}

// ---------------------------------------------------------------------
// Varint primitives (LEB128; zigzag for signed values).
// ---------------------------------------------------------------------

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

#[inline]
fn put_signed(out: &mut Vec<u8>, v: i64) {
    // Zigzag: small magnitudes (either sign) stay one byte.
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A cursor over an encoded state.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    #[inline]
    fn byte(&mut self) -> ParseResult<u8> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(parse_error(format_args!("truncated at byte {}", self.pos)));
        };
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> ParseResult<u64> {
        // Nearly every varint the model mints fits one byte.
        match self.bytes.get(self.pos) {
            Some(&b) if b & 0x80 == 0 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.long_varint(),
        }
    }

    /// [`Self::varint`] past its one-byte case: multi-byte, truncated or
    /// overlong.
    fn long_varint(&mut self) -> ParseResult<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(parse_error(format_args!("varint overflows u64")));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn signed(&mut self) -> ParseResult<i64> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Refuse bytes left after a complete `what`.
    #[inline]
    fn finish(&self, what: &str) -> ParseResult<()> {
        if self.finished() {
            return Ok(());
        }
        Err(parse_error(format_args!(
            "{} trailing bytes after a complete {what}",
            self.remaining()
        )))
    }

    #[inline]
    fn take(&mut self, n: usize) -> ParseResult<&'a [u8]> {
        let Some(end) = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
        else {
            return Err(parse_error(format_args!(
                "truncated at byte {} (wanted {n})",
                self.pos
            )));
        };
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Length-prefixed wire framing over the codec's varint primitives —
/// the byte-level vocabulary shared by every consumer that persists
/// codec output (today: the model checker's checkpoint files).
///
/// The state encoding itself stays private to [`StateCodec`]; this module
/// only exposes the *container* primitives (LEB128 varints, raw slices),
/// so external framing formats stay byte-compatible with the arena's own
/// notion of a varint without re-implementing it.
pub mod wire {
    use super::{CodecError, Reader};

    /// Append `v` as a LEB128 varint.
    pub fn put_varint(out: &mut Vec<u8>, v: u64) {
        super::put_varint(out, v);
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        super::put_varint(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    /// A checked cursor over wire-framed bytes. Every read is
    /// bounds-checked and returns [`CodecError`] on truncation or
    /// malformed varints — untrusted input never panics.
    pub struct WireReader<'a> {
        inner: Reader<'a>,
    }

    impl<'a> WireReader<'a> {
        /// A cursor over `bytes`, positioned at the start.
        #[must_use]
        pub fn new(bytes: &'a [u8]) -> Self {
            WireReader { inner: Reader::new(bytes) }
        }

        /// Read one LEB128 varint.
        #[inline]
        pub fn varint(&mut self) -> Result<u64, CodecError> {
            Ok(self.inner.varint()?)
        }

        /// Read one raw byte.
        #[inline]
        pub fn byte(&mut self) -> Result<u8, CodecError> {
            Ok(self.inner.byte()?)
        }

        /// Read `n` raw bytes.
        #[inline]
        pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
            Ok(self.inner.take(n)?)
        }

        /// Read a length-prefixed byte slice (the inverse of
        /// [`put_bytes`]), refusing length prefixes that overrun the
        /// buffer before any allocation happens.
        pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
            let len = self.inner.varint()?;
            let len = usize::try_from(len)
                .map_err(|_| CodecError(format!("length prefix {len} overflows usize")))?;
            Ok(self.inner.take(len)?)
        }

        /// A varint validated as a collection length: it must be small
        /// enough that `min_item_bytes`-byte items could actually follow
        /// in the buffer — the guard that keeps a corrupted length prefix
        /// from driving a huge allocation.
        pub fn len_prefix(&mut self, min_item_bytes: usize) -> Result<usize, CodecError> {
            let len = self.inner.varint()?;
            let len = usize::try_from(len)
                .map_err(|_| CodecError(format!("length prefix {len} overflows usize")))?;
            if len.saturating_mul(min_item_bytes.max(1)) > self.inner.remaining() {
                return Err(CodecError(format!(
                    "length prefix {len} overruns the remaining {} bytes",
                    self.inner.remaining()
                )));
            }
            Ok(len)
        }

        /// Bytes left after the cursor.
        #[must_use]
        pub fn remaining(&self) -> usize {
            self.inner.remaining()
        }

        /// Has the cursor consumed the whole buffer?
        #[must_use]
        pub fn finished(&self) -> bool {
            self.inner.finished()
        }
    }
}

// ---------------------------------------------------------------------
// Enum <-> byte tables. The `ALL` arrays list variants in declaration
// order, so `variant as u8` indexes back into them.
// ---------------------------------------------------------------------

/// The variant of an `ALL` table that tag byte `b` names.
#[inline]
fn variant<T: Copy>(all: &[T], b: u8, what: &'static str) -> ParseResult<T> {
    all.get(b as usize)
        .copied()
        .ok_or_else(|| parse_error(format_args!("bad {what} tag {b}")))
}

#[inline]
fn dstate_from(b: u8) -> ParseResult<DState> {
    variant(&DState::ALL, b, "DState")
}

#[inline]
fn hstate_from(b: u8) -> ParseResult<HState> {
    variant(&HState::ALL, b, "HState")
}

// ---------------------------------------------------------------------
// Message encodings.
// ---------------------------------------------------------------------

fn put_d2h_req(out: &mut Vec<u8>, m: &D2HReq) {
    out.push(m.ty as u8);
    put_varint(out, m.tid);
}

fn get_d2h_req(r: &mut Reader<'_>) -> ParseResult<D2HReq> {
    let ty = variant(&D2HReqType::ALL, r.byte()?, "D2HReqType")?;
    Ok(D2HReq::new(ty, r.varint()?))
}

fn put_d2h_rsp(out: &mut Vec<u8>, m: &D2HRsp) {
    out.push(m.ty as u8);
    put_varint(out, m.tid);
}

fn get_d2h_rsp(r: &mut Reader<'_>) -> ParseResult<D2HRsp> {
    let ty = variant(&D2HRspType::ALL, r.byte()?, "D2HRspType")?;
    Ok(D2HRsp::new(ty, r.varint()?))
}

fn put_data(out: &mut Vec<u8>, m: &DataMsg) {
    out.push(u8::from(m.bogus));
    put_varint(out, m.tid);
    put_signed(out, m.val);
}

fn get_data(r: &mut Reader<'_>) -> ParseResult<DataMsg> {
    let bogus = bogus_flag(r.byte()?)?;
    let tid = r.varint()?;
    let val = r.signed()?;
    Ok(DataMsg { tid, val, bogus })
}

#[inline]
fn bogus_flag(b: u8) -> ParseResult<bool> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(parse_error(format_args!("bad bogus flag {other}"))),
    }
}

fn put_h2d_req(out: &mut Vec<u8>, m: &H2DReq) {
    out.push(m.ty as u8);
    put_varint(out, m.tid);
}

fn get_h2d_req(r: &mut Reader<'_>) -> ParseResult<H2DReq> {
    let ty = variant(&H2DReqType::ALL, r.byte()?, "H2DReqType")?;
    Ok(H2DReq::new(ty, r.varint()?))
}

/// H2D responses bit-pack opcode (2 bits) and granted `DState` (5 bits)
/// into one byte, then the tid varint.
fn put_h2d_rsp(out: &mut Vec<u8>, m: &H2DRsp) {
    out.push((m.ty as u8) | ((m.state as u8) << 2));
    put_varint(out, m.tid);
}

fn get_h2d_rsp(r: &mut Reader<'_>) -> ParseResult<H2DRsp> {
    let b = r.byte()?;
    let ty = variant(&H2DRspType::ALL, b & 0x03, "H2DRspType")?;
    let state = dstate_from(b >> 2)?;
    Ok(H2DRsp::new(ty, state, r.varint()?))
}

fn put_channel<T>(out: &mut Vec<u8>, chan: &Channel<T>, put: impl Fn(&mut Vec<u8>, &T)) {
    put_varint(out, chan.len() as u64);
    for m in chan {
        put(out, m);
    }
}

fn get_channel_into<T>(
    r: &mut Reader<'_>,
    chan: &mut Channel<T>,
    get: impl Fn(&mut Reader<'_>) -> ParseResult<T>,
) -> ParseResult<()> {
    let len = r.varint()?;
    // A ≥ 2-message decode into a channel that is already spilled reuses
    // the spill buffer (clear + push keeps capacity), so repeated decodes
    // into one scratch state allocate for channels only while the spill
    // high-water mark is still growing. If a message fails to decode the
    // buffer may transiently hold fewer than two messages (a
    // non-canonical representation); every error path discards or
    // re-decodes the whole state, and any subsequent successful decode
    // rewrites every channel, so the transient never escapes.
    if len >= 2 {
        if let Some(v) = chan.spill_mut() {
            v.clear();
            for _ in 0..len {
                v.push(get(r)?);
            }
            return Ok(());
        }
    }
    chan.clear();
    for _ in 0..len {
        chan.push(get(r)?);
    }
    Ok(())
}

/// Parse past one channel of messages.
fn skip_channel<T>(
    r: &mut Reader<'_>,
    get: impl Fn(&mut Reader<'_>) -> ParseResult<T>,
) -> ParseResult<()> {
    let len = r.varint()?;
    for _ in 0..len {
        get(r)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------

/// Buffer-slot tag bits of the per-device header byte.
const BUF_EMPTY: u8 = 0;
const BUF_RSP: u8 = 1;
const BUF_REQ: u8 = 2;
/// Header-byte layout: bits 0–4 `DState`, bits 5–6 buffer tag, bit 7 the
/// quiet flag.
const QUIET_BIT: u8 = 0x80;

/// The byte-packing codec for one exploration run: it carries the
/// [`Topology`] so the device count is stored once per run, not once per
/// state, and every encoded state of the run shares the same layout.
///
/// # Examples
///
/// ```
/// use cxl_core::codec::StateCodec;
/// use cxl_core::instr::programs;
/// use cxl_core::SystemState;
///
/// let s = SystemState::initial(programs::store(42), programs::load());
/// let codec = StateCodec::new(s.topology());
/// let bytes = codec.encode(&s);
/// assert_eq!(codec.decode(&bytes).unwrap(), s);
/// // Idle components compress away: the whole two-device initial state
/// // packs into well under the size of one heap `SystemState`.
/// assert!(bytes.len() < 32);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateCodec {
    topology: Topology,
}

impl StateCodec {
    /// A codec for states of `topology`.
    #[must_use]
    pub fn new(topology: Topology) -> Self {
        StateCodec { topology }
    }

    /// A codec matching `state`'s own topology.
    #[must_use]
    pub fn for_state(state: &SystemState) -> Self {
        StateCodec::new(state.topology())
    }

    /// The topology this codec encodes for.
    #[must_use]
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Append `state`'s encoding to `out` (the arena-append primitive —
    /// callers manage framing via the returned range implicit in
    /// `out.len()` before/after).
    ///
    /// # Panics
    /// Panics if `state`'s device count differs from the codec's
    /// topology.
    pub fn encode_into(&self, state: &SystemState, out: &mut Vec<u8>) {
        assert_eq!(
            state.device_count(),
            self.topology.device_count(),
            "codec for {} asked to encode a {}-device state",
            self.topology,
            state.device_count()
        );
        put_varint(out, state.counter);
        out.push(state.host.state as u8);
        put_signed(out, state.host.val);
        for d in state.device_ids() {
            encode_device(state.dev(d), out);
        }
    }

    /// Encode `state` into a fresh buffer.
    #[must_use]
    pub fn encode(&self, state: &SystemState) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + 8 * self.topology.device_count());
        self.encode_into(state, &mut out);
        out
    }

    /// Decode one state, writing into `out` and reusing its heap
    /// allocations (program queues, spilled channel buffers, the device
    /// spill vector). If `out` inhabits a different topology it is
    /// rebuilt first.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    #[inline]
    pub fn decode_into(&self, bytes: &[u8], out: &mut SystemState) -> Result<(), CodecError> {
        Ok(self.decode_state(bytes, out)?)
    }

    /// [`Self::decode_into`] with the internal error type — the arena's
    /// decode path.
    fn decode_state(&self, bytes: &[u8], out: &mut SystemState) -> ParseResult<()> {
        if out.device_count() != self.topology.device_count() {
            *out = self.blank();
        }
        let mut r = Reader::new(bytes);
        out.counter = r.varint()?;
        out.host = HCache::new(0, HState::I);
        out.host.state = hstate_from(r.byte()?)?;
        out.host.val = r.signed()?;
        for i in 0..self.topology.device_count() {
            decode_device(&mut r, &mut out.devs[i])?;
        }
        r.finish("state")
    }

    /// Decode one state into a fresh value.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    pub fn decode(&self, bytes: &[u8]) -> Result<SystemState, CodecError> {
        let mut out = self.blank();
        self.decode_into(bytes, &mut out)?;
        Ok(out)
    }

    /// An all-idle state of this codec's topology — the reusable decode
    /// target and the scratch seed for rule firing.
    #[must_use]
    pub fn blank(&self) -> SystemState {
        SystemState::initial_n(self.topology.device_count(), Vec::new())
    }

    /// Byte offsets of the per-device segments inside one encoded state:
    /// on success `bounds[0]` is the end of the global header (counter +
    /// host cache) and `bounds[i + 1]` the end of device `i`'s segment —
    /// so device `i` spans `bounds[i]..bounds[i + 1]`.
    ///
    /// Because the encoding lays devices out in index order after a fixed
    /// global header, a device permutation of the *state* acts on the
    /// *encoding* purely by rearranging these segments. That is the hook
    /// the symmetry-reduction engine canonicalises through: the
    /// orbit-representative encoding is computed by reordering segments
    /// at the byte level, never by decoding the state.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes (arena
    /// contents always parse).
    pub fn device_segment_bounds(
        &self,
        bytes: &[u8],
        bounds: &mut [usize; Topology::MAX_DEVICES + 1],
    ) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes);
        r.varint()?; // counter
        Ok(self.skip_segments(&mut r, bounds)?)
    }

    /// Parse a full encoding from its host-cache span to the end,
    /// recording the segment bounds as [`Self::device_segment_bounds`]
    /// reports them.
    fn skip_segments(
        &self,
        r: &mut Reader<'_>,
        bounds: &mut [usize; Topology::MAX_DEVICES + 1],
    ) -> ParseResult<()> {
        skip_host(r)?;
        bounds[0] = r.pos;
        for i in 0..self.topology.device_count() {
            skip_device(r)?;
            bounds[i + 1] = r.pos;
        }
        r.finish("state")
    }

    /// Rewrite every **`Val` slot** of one encoded state through `f`,
    /// appending the rewritten encoding to `out` (which is cleared first).
    /// Value slots are, in encoding order: the host cache value, then per
    /// device its cache value, the operand of every `Store` remaining in
    /// its program, and the value of every data message in its
    /// `D2HData`/`H2DData` channels. Mapping the operands too is what
    /// makes `f` act as a genuine value bijection on the *whole* state —
    /// the transition relation is equivariant under it (a mapped program
    /// stores the mapped value), which is the soundness hook of the
    /// data-symmetry engine. Everything that is not a value slot is
    /// copied byte for byte; value slots are re-encoded as zigzag varints,
    /// so the output length may differ from the input's.
    ///
    /// Because the encoding is deterministic, `map_vals` with the identity
    /// function reproduces the input exactly — the property the
    /// data-symmetry canonicalizer's "unchanged" fast path relies on.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    pub fn map_vals(
        &self,
        bytes: &[u8],
        out: &mut Vec<u8>,
        mut f: impl FnMut(crate::ids::Val) -> crate::ids::Val,
    ) -> Result<(), CodecError> {
        out.clear();
        let mut r = Reader::new(bytes);
        map_header(&mut r, out, &mut f)?;
        for _ in 0..self.topology.device_count() {
            map_device_vals(&mut r, out, &mut f)?;
        }
        Ok(r.finish("state")?)
    }

    /// Rewrite the `Val` slots of one **device segment** (a
    /// [`Self::device_segment_bounds`] span) through `f`, appending the
    /// rewritten segment to `out` — the per-segment sibling of
    /// [`Self::map_vals`]. The partition-refinement canonical labeller
    /// ranks a cell's candidate segments under a partial value map with
    /// this, assembling its candidate encoding segment by segment, so
    /// `out` is **appended to, not cleared**. Value slots are re-encoded
    /// as zigzag varints (the output span's length may differ from the
    /// input's); everything else is copied byte for byte, and `f` over
    /// the identity reproduces the segment exactly.
    ///
    /// An associated function rather than a method: a device segment's
    /// layout is topology-independent.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    pub fn map_device_segment_vals(
        seg: &[u8],
        out: &mut Vec<u8>,
        mut f: impl FnMut(crate::ids::Val) -> crate::ids::Val,
    ) -> Result<(), CodecError> {
        let mut r = Reader::new(seg);
        map_device_vals(&mut r, out, &mut f)?;
        Ok(r.finish("device segment")?)
    }

    /// Rewrite the `Val` slot of one **global header** span (the
    /// `..bounds[0]` prefix of [`Self::device_segment_bounds`]: counter,
    /// host state, host value) through `f`, appending to `out` — the
    /// header sibling of [`Self::map_device_segment_vals`].
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    pub fn map_header_vals(
        header: &[u8],
        out: &mut Vec<u8>,
        mut f: impl FnMut(crate::ids::Val) -> crate::ids::Val,
    ) -> Result<(), CodecError> {
        let mut r = Reader::new(header);
        map_header(&mut r, out, &mut f)?;
        Ok(r.finish("header")?)
    }

    /// Append the operand of every `Store` instruction remaining in any
    /// device's program of one encoded state to `out` — the state's
    /// mint inventory (the values its future can still introduce). The
    /// data-symmetry engine reads it off the initial state to decide
    /// whether any mintable value escapes the pinned set (i.e. whether
    /// the engine can ever act). Duplicates are appended as
    /// encountered; callers treat `out` as a set.
    ///
    /// # Errors
    /// Returns [`CodecError`] on malformed or trailing bytes.
    pub fn collect_program_vals(
        &self,
        bytes: &[u8],
        out: &mut Vec<crate::ids::Val>,
    ) -> Result<(), CodecError> {
        let mut r = Reader::new(bytes);
        r.varint()?; // counter
        skip_host(&mut r)?;
        for _ in 0..self.topology.device_count() {
            scan_device(&mut r, |v| out.push(v))?;
        }
        Ok(r.finish("state")?)
    }

    /// The 64-bit fingerprint of an *encoded* state: an
    /// [`crate::FxHasher`] run over the packed bytes. Because the
    /// encoding is deterministic, this is a well-defined state
    /// fingerprint — the one the packed-arena checker dedups on (byte
    /// equality replaces full state equality on collision).
    #[must_use]
    pub fn fingerprint(bytes: &[u8]) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fasthash::FxHasher::default();
        h.write(bytes);
        h.write_usize(bytes.len());
        h.finish()
    }

    /// Parse one full encoding's [`Spans`] — the parsing half of
    /// [`Self::encode_delta`] and [`Self::decode_delta`], and what a delta
    /// chain pays once, at its keyframe.
    fn delta_segments(&self, bytes: &[u8]) -> ParseResult<Spans> {
        let mut spans = Spans::default();
        let mut r = Reader::new(bytes);
        spans.counter = r.varint()?;
        spans.host = r.pos;
        self.skip_segments(&mut r, &mut spans.bounds)?;
        Ok(spans)
    }

    /// Append a **parent-delta encoding** of `child` against `parent`
    /// (both full encodings under this codec) to `out`.
    ///
    /// A BFS successor differs from its parent in the global counter and
    /// a handful of device segments, so the delta form stores only what
    /// changed: a varint segment bitmap (bit 0 the host-cache span, bit
    /// `i + 1` device `i`'s segment, per [`Self::device_segment_bounds`]),
    /// the zigzag-varint counter difference, then each changed segment as
    /// a length-prefixed raw byte range. Unchanged segments are never
    /// written — [`Self::decode_delta`] copies them from the parent, so
    /// the round trip `decode_delta(parent, encode_delta(parent, child))`
    /// reproduces `child` **byte for byte** (varints are canonical, and
    /// every emitted span is raw child bytes). The delta is *not*
    /// guaranteed smaller than `child`; callers compare lengths and fall
    /// back to the full encoding when it isn't.
    ///
    /// # Errors
    /// Returns [`CodecError`] when either input is malformed.
    pub fn encode_delta(
        &self,
        parent: &[u8],
        child: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let ps = self.delta_segments(parent)?;
        Ok(self.encode_delta_from(parent, &ps, child, out)?)
    }

    /// [`Self::encode_delta`] against a parent whose layout `ps` is
    /// already known: only `child` is parsed.
    fn encode_delta_from(
        &self,
        parent: &[u8],
        ps: &Spans,
        child: &[u8],
        out: &mut Vec<u8>,
    ) -> ParseResult<()> {
        let n = self.topology.device_count();
        let cs = self.delta_segments(child)?;
        let mut bitmap = 0u64;
        for j in 0..=n {
            if parent[ps.segment(j)] != child[cs.segment(j)] {
                bitmap |= 1 << j;
            }
        }
        put_varint(out, bitmap);
        put_signed(out, cs.counter.wrapping_sub(ps.counter) as i64);
        for j in (0..=n).filter(|j| bitmap & (1 << j) != 0) {
            let seg = &child[cs.segment(j)];
            put_varint(out, seg.len() as u64);
            out.extend_from_slice(seg);
        }
        Ok(())
    }

    /// Reconstruct the full child encoding from its parent's full
    /// encoding and a delta produced by [`Self::encode_delta`], appending
    /// it to `out`. Exact and deterministic: unchanged segments are
    /// copied from `parent`, changed ones from the delta, and the counter
    /// is re-encoded through the same canonical varint writer the full
    /// encoder uses — so the output is byte-identical to the original
    /// child encoding (the property the dedup index and fingerprints
    /// depend on).
    ///
    /// # Errors
    /// Returns [`CodecError`] when `parent` is malformed or `delta` is
    /// truncated, has trailing bytes, names segments beyond the topology,
    /// or carries a changed segment that does not parse as one.
    pub fn decode_delta(
        &self,
        parent: &[u8],
        delta: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CodecError> {
        let ps = self.delta_segments(parent)?;
        self.apply_delta(parent, &ps, delta, out)?;
        Ok(())
    }

    /// One link of a delta chain: rebuild the child of `parent` (laid out
    /// as `ps`) from `delta`, appending its full encoding to `out`, and
    /// return the child's layout, relative to where it starts in `out`.
    /// Unchanged segments are copied and their bounds shifted; only the
    /// segments the delta introduces are parsed, so a chain parses its
    /// keyframe once and every later byte once.
    fn apply_delta(
        &self,
        parent: &[u8],
        ps: &Spans,
        delta: &[u8],
        out: &mut Vec<u8>,
    ) -> ParseResult<Spans> {
        let n = self.topology.device_count();
        let start = out.len();
        let mut r = Reader::new(delta);
        let bitmap = r.varint()?;
        if n < 63 && bitmap >> (n + 1) != 0 {
            return Err(parse_error(format_args!(
                "delta bitmap {bitmap:#x} names segments beyond {n} devices"
            )));
        }
        let mut cs = Spans {
            counter: ps.counter.wrapping_add(r.signed()? as u64),
            ..Spans::default()
        };
        put_varint(out, cs.counter);
        cs.host = out.len() - start;
        for j in 0..=n {
            if bitmap & (1 << j) != 0 {
                let len = r.varint()? as usize;
                let seg = r.take(len)?;
                check_segment(j, seg)?;
                out.extend_from_slice(seg);
            } else {
                out.extend_from_slice(&parent[ps.segment(j)]);
            }
            cs.bounds[j] = out.len() - start;
        }
        r.finish("delta")?;
        Ok(cs)
    }
}

/// The delta-relevant layout of one full encoding: its counter value, the
/// start of its host-cache span, and its segment bounds (`bounds[0]` ends
/// the host-cache span; device `i` spans `bounds[i]..bounds[i + 1]`, as
/// [`StateCodec::device_segment_bounds`] reports them).
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    counter: u64,
    host: usize,
    bounds: [usize; Topology::MAX_DEVICES + 1],
}

impl Spans {
    /// Byte range of delta segment `j`: 0 the host-cache span, `i + 1`
    /// device `i`'s segment — the numbering of the delta bitmap.
    #[inline]
    fn segment(&self, j: usize) -> std::ops::Range<usize> {
        let start = if j == 0 {
            self.host
        } else {
            self.bounds[j - 1]
        };
        start..self.bounds[j]
    }
}

/// Check that `seg` is exactly one delta segment `j` (numbered as in
/// [`Spans::segment`]): how a delta's introduced bytes are validated
/// without reparsing the state around them.
fn check_segment(j: usize, seg: &[u8]) -> ParseResult<()> {
    fn parse(j: usize, r: &mut Reader<'_>) -> ParseResult<()> {
        if j == 0 {
            skip_host(r)?;
        } else {
            skip_device(r)?;
        }
        r.finish("segment")
    }
    parse(j, &mut Reader::new(seg))
        .map_err(|e| parse_error(format_args!("delta segment {j}: {}", e.0)))
}

/// Parse past the host-cache span: its state tag and value.
#[inline]
fn skip_host(r: &mut Reader<'_>) -> ParseResult<()> {
    hstate_from(r.byte()?)?;
    r.signed()?;
    Ok(())
}

fn encode_device(dev: &DeviceState, out: &mut Vec<u8>) {
    let quiet = dev.prog.is_empty() && dev.channels_quiet();
    let buf_tag = match dev.buffer {
        DBufferSlot::Empty => BUF_EMPTY,
        DBufferSlot::Rsp(_) => BUF_RSP,
        DBufferSlot::Req(_) => BUF_REQ,
    };
    let header = (dev.cache.state as u8) | (buf_tag << 5) | if quiet { QUIET_BIT } else { 0 };
    out.push(header);
    put_signed(out, dev.cache.val);
    match dev.buffer {
        DBufferSlot::Empty => {}
        DBufferSlot::Rsp(rsp) => put_h2d_rsp(out, &rsp),
        DBufferSlot::Req(req) => put_h2d_req(out, &req),
    }
    if quiet {
        return;
    }
    put_varint(out, dev.prog.len() as u64);
    for instr in dev.prog.iter() {
        match instr {
            Instruction::Load => out.push(0),
            Instruction::Store(v) => {
                out.push(1);
                put_signed(out, *v);
            }
            Instruction::Evict => out.push(2),
        }
    }
    put_channel(out, &dev.d2h_req, put_d2h_req);
    put_channel(out, &dev.d2h_rsp, put_d2h_rsp);
    put_channel(out, &dev.d2h_data, put_data);
    put_channel(out, &dev.h2d_req, put_h2d_req);
    put_channel(out, &dev.h2d_rsp, put_h2d_rsp);
    put_channel(out, &dev.h2d_data, put_data);
}

/// Advance the reader past one encoded device without materialising it —
/// the parsing half of [`StateCodec::device_segment_bounds`] and of the
/// delta paths.
#[inline]
fn skip_device(r: &mut Reader<'_>) -> ParseResult<()> {
    scan_device(r, |_| {})
}

/// Parse one encoded device, handing the operand of every `Store` left in
/// its program to `on_store` — [`skip_device`], and the per-device half
/// of [`StateCodec::collect_program_vals`]. Mirrors [`decode_device`]
/// field for field (the messages are `Copy`, so parsing and discarding
/// them allocates nothing).
fn scan_device(r: &mut Reader<'_>, mut on_store: impl FnMut(crate::ids::Val)) -> ParseResult<()> {
    let header = r.byte()?;
    let quiet = header & QUIET_BIT != 0;
    let buf_tag = (header >> 5) & 0x03;
    dstate_from(header & 0x1f)?;
    r.signed()?; // cache value
    match buf_tag {
        BUF_EMPTY => {}
        BUF_RSP => {
            get_h2d_rsp(r)?;
        }
        BUF_REQ => {
            get_h2d_req(r)?;
        }
        other => return Err(bad_buffer_tag(other)),
    }
    if quiet {
        return Ok(());
    }
    let prog_len = r.varint()?;
    for _ in 0..prog_len {
        match r.byte()? {
            0 | 2 => {}
            1 => on_store(r.signed()?),
            other => return Err(bad_instruction_tag(other)),
        }
    }
    skip_channel(r, get_d2h_req)?;
    skip_channel(r, get_d2h_rsp)?;
    skip_channel(r, get_data)?;
    skip_channel(r, get_h2d_req)?;
    skip_channel(r, get_h2d_rsp)?;
    skip_channel(r, get_data)?;
    Ok(())
}

fn bad_buffer_tag(tag: u8) -> Box<CodecError> {
    parse_error(format_args!("bad buffer tag {tag}"))
}

fn bad_instruction_tag(tag: u8) -> Box<CodecError> {
    parse_error(format_args!("bad instruction tag {tag}"))
}

/// Parse one syntactic element with `parse` and copy its raw bytes to
/// `out` verbatim — the copy primitive of [`StateCodec::map_vals`].
fn copy_span(
    r: &mut Reader<'_>,
    out: &mut Vec<u8>,
    parse: impl FnOnce(&mut Reader<'_>) -> ParseResult<()>,
) -> ParseResult<()> {
    let start = r.pos;
    parse(r)?;
    out.extend_from_slice(&r.bytes[start..r.pos]);
    Ok(())
}

/// The header half of [`StateCodec::map_vals`]: copy the counter and the
/// host state, rewriting the host value through `f`.
fn map_header(
    r: &mut Reader<'_>,
    out: &mut Vec<u8>,
    f: &mut impl FnMut(crate::ids::Val) -> crate::ids::Val,
) -> ParseResult<()> {
    copy_span(r, out, |r| r.varint().map(|_| ()))?; // counter
    let hs = r.byte()?;
    hstate_from(hs)?;
    out.push(hs);
    let hv = r.signed()?;
    put_signed(out, f(hv));
    Ok(())
}

/// The per-device half of [`StateCodec::map_vals`]: copy one encoded
/// device, rewriting its cache value and data-message values through `f`.
/// Mirrors [`scan_device`] field for field.
fn map_device_vals(
    r: &mut Reader<'_>,
    out: &mut Vec<u8>,
    f: &mut impl FnMut(crate::ids::Val) -> crate::ids::Val,
) -> ParseResult<()> {
    let header = r.byte()?;
    let quiet = header & QUIET_BIT != 0;
    let buf_tag = (header >> 5) & 0x03;
    dstate_from(header & 0x1f)?;
    out.push(header);
    let cv = r.signed()?;
    put_signed(out, f(cv));
    match buf_tag {
        BUF_EMPTY => {}
        // Buffered H2D responses/requests carry no `Val`: copy verbatim.
        BUF_RSP => copy_span(r, out, |r| get_h2d_rsp(r).map(|_| ()))?,
        BUF_REQ => copy_span(r, out, |r| get_h2d_req(r).map(|_| ()))?,
        other => return Err(bad_buffer_tag(other)),
    }
    if quiet {
        return Ok(());
    }
    let prog_len = {
        let start = r.pos;
        let len = r.varint()?;
        out.extend_from_slice(&r.bytes[start..r.pos]);
        len
    };
    for _ in 0..prog_len {
        let tag = r.byte()?;
        out.push(tag);
        match tag {
            0 | 2 => {}
            1 => {
                let v = r.signed()?;
                put_signed(out, f(v));
            }
            other => return Err(bad_instruction_tag(other)),
        }
    }
    copy_span(r, out, |r| skip_channel(r, get_d2h_req))?;
    copy_span(r, out, |r| skip_channel(r, get_d2h_rsp))?;
    map_one_data_channel(r, out, f)?; // d2h_data
    copy_span(r, out, |r| skip_channel(r, get_h2d_req))?;
    copy_span(r, out, |r| skip_channel(r, get_h2d_rsp))?;
    map_one_data_channel(r, out, f)?; // h2d_data
    Ok(())
}

/// Copy one data channel, rewriting each message's value through `f`.
fn map_one_data_channel(
    r: &mut Reader<'_>,
    out: &mut Vec<u8>,
    f: &mut impl FnMut(crate::ids::Val) -> crate::ids::Val,
) -> ParseResult<()> {
    let start = r.pos;
    let len = r.varint()?;
    out.extend_from_slice(&r.bytes[start..r.pos]);
    for _ in 0..len {
        copy_span(r, out, |r| {
            bogus_flag(r.byte()?)?;
            r.varint().map(|_| ()) // tid
        })?;
        let v = r.signed()?;
        put_signed(out, f(v));
    }
    Ok(())
}

fn decode_device(r: &mut Reader<'_>, dev: &mut DeviceState) -> ParseResult<()> {
    let header = r.byte()?;
    let quiet = header & QUIET_BIT != 0;
    let buf_tag = (header >> 5) & 0x03;
    dev.cache = DCache::new(0, dstate_from(header & 0x1f)?);
    dev.cache.val = r.signed()?;
    dev.buffer = match buf_tag {
        BUF_EMPTY => DBufferSlot::Empty,
        BUF_RSP => DBufferSlot::Rsp(get_h2d_rsp(r)?),
        BUF_REQ => DBufferSlot::Req(get_h2d_req(r)?),
        other => return Err(bad_buffer_tag(other)),
    };
    if quiet {
        dev.prog.clear();
        dev.d2h_req.clear();
        dev.d2h_rsp.clear();
        dev.d2h_data.clear();
        dev.h2d_req.clear();
        dev.h2d_rsp.clear();
        dev.h2d_data.clear();
        return Ok(());
    }
    let prog_len = r.varint()?;
    dev.prog.clear();
    for _ in 0..prog_len {
        let instr = match r.byte()? {
            0 => Instruction::Load,
            1 => Instruction::Store(r.signed()?),
            2 => Instruction::Evict,
            other => return Err(bad_instruction_tag(other)),
        };
        dev.prog.push_back(instr);
    }
    get_channel_into(r, &mut dev.d2h_req, get_d2h_req)?;
    get_channel_into(r, &mut dev.d2h_rsp, get_d2h_rsp)?;
    get_channel_into(r, &mut dev.d2h_data, get_data)?;
    get_channel_into(r, &mut dev.h2d_req, get_h2d_req)?;
    get_channel_into(r, &mut dev.h2d_rsp, get_h2d_rsp)?;
    get_channel_into(r, &mut dev.h2d_data, get_data)?;
    Ok(())
}

// ---------------------------------------------------------------------
// The packed arena.
// ---------------------------------------------------------------------

/// Base-slot sentinel: the entry is stored as a full encoding (a
/// keyframe), not a delta against another entry.
const NO_BASE: u32 = u32::MAX;

/// How many sealed cold extents a spilling arena keeps faulted-in at
/// once (most recently used first). Traces, quarantine dumps, and stale
/// dedup probes touch old ids rarely and with locality; expansion never
/// does — a handful of pinned extents absorbs the traffic.
const EXTENT_CACHE_CAP: usize = 4;

/// Magic prefix of a spill extent file.
const EXTENT_MAGIC: &[u8; 8] = b"CXLEXT01";

/// One sealed, immutable extent of a spilling arena: a prefix-contiguous
/// run of entries whose payload bytes now live in a checksummed file
/// instead of RAM.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Extent {
    start_entry: usize,
    end_entry: usize,
    /// Logical payload range the file covers (offsets are logical: they
    /// keep counting across spills).
    start_byte: usize,
    end_byte: usize,
    path: std::path::PathBuf,
}

/// The disk half of a spilling arena: where extents go and which ones
/// exist. `spilled_bytes`/`spilled_entries` mark the logical prefix no
/// longer resident — the resident buffer holds logical bytes
/// `spilled_bytes..`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SpillState {
    dir: std::path::PathBuf,
    tag: String,
    extents: Vec<Extent>,
    spilled_bytes: usize,
    spilled_entries: usize,
}

/// Reusable materialization buffers: the ping-pong pair and chain list
/// for delta replay, one buffer for cold delta bytes, and the
/// encode-side delta attempt buffer.
struct ArenaScratch {
    bufs: [Vec<u8>; 2],
    chain: Vec<u32>,
    cold: Vec<u8>,
    delta: Vec<u8>,
}

thread_local! {
    /// One [`ArenaScratch`] per thread, shared by every arena the thread
    /// reads, so several threads can materialize from one `&StateArena`.
    static SCRATCH: RefCell<ArenaScratch> = const {
        RefCell::new(ArenaScratch {
            bufs: [Vec::new(), Vec::new()],
            chain: Vec::new(),
            cold: Vec::new(),
            delta: Vec::new(),
        })
    };
}

/// A spilling arena's pinned-extent fault-in cache (MRU first) and its
/// fault count.
#[derive(Default)]
struct ExtentCache {
    slots: Vec<(usize, Vec<u8>)>,
    faults: u64,
}

/// The canonical state store of an exploration: encoded states laid
/// end-to-end in one contiguous byte buffer, with an offset table mapping
/// a discovery-order id to its byte range. Append-only; decode on demand.
///
/// Replacing the model checker's old `Vec<Arc<SystemState>>` arena, this
/// stores a reached state in tens of *bytes* instead of hundreds (plus
/// heap blocks and an `Arc` header) — the decomposition that lets N ≥ 3
/// sweeps be bounded by time rather than memory.
///
/// Two opt-in layers push the store further below RAM (both off by
/// default, leaving the plain arena byte-identical to its historical
/// behaviour):
///
/// - **Parent-delta encoding** ([`Self::enable_delta`]): entries may be
///   stored as [`StateCodec::encode_delta`] forms against an earlier
///   entry of the *same* arena, with full-encoding keyframes every K
///   ancestors bounding every decode chain. Materialization is exact —
///   [`Self::append_full_bytes`] reproduces the original full encoding
///   byte for byte — so fingerprint dedup, trace replay, checkpointing,
///   and byte-level canonicalization (which always runs on full bytes
///   *before* storage) are unaffected.
/// - **Cold-extent spill** ([`Self::enable_spill`]): a cold prefix of
///   entries can be sealed into an immutable, checksummed extent file
///   (write-then-rename, like the checkpoint writer) and dropped from
///   RAM; decodes of sealed ids fault the extent back in through a small
///   pinned-extent cache.
pub struct StateArena {
    codec: StateCodec,
    /// Resident payload: logical bytes `spilled()..`.
    bytes: Vec<u8>,
    /// Logical start offset of each state; state `i` spans
    /// `offsets[i]..offsets[i + 1]` (or `..byte_len()` for the last).
    offsets: Vec<usize>,
    /// Per-entry delta base slot (`NO_BASE` = full encoding). Allocated
    /// only in delta mode; always `offsets.len()` long there.
    bases: Vec<u32>,
    /// Keyframe interval K (0 = delta disabled): a delta chain never
    /// exceeds K entries before a full-encoding keyframe.
    keyframe_every: u32,
    /// Σ full-encoding lengths of every stored state — what the payload
    /// would occupy without delta compression (the delta-ratio
    /// denominator).
    full_payload_bytes: usize,
    /// Entries stored in delta form.
    delta_entries: usize,
    spill: Option<SpillState>,
    /// Reads lock it only when they touch a sealed entry, which pooled
    /// expansion and the property check never do.
    cache: Mutex<ExtentCache>,
}

/// Full-encoding reads of one [`StateArena`] that share one lock of its
/// fault-in cache ([`StateArena::reader`]). While a reader holds the
/// lock, any other read of a sealed entry of the same arena waits for the
/// reader to drop; on the reader's own thread it never returns.
pub struct ArenaReader<'a> {
    arena: &'a StateArena,
    cache: Option<MutexGuard<'a, ExtentCache>>,
}

impl ArenaReader<'_> {
    /// Run `f` on entry `id`'s full encoding — the bytes
    /// [`StateArena::append_full_bytes`] appends.
    ///
    /// # Panics
    /// Panics if `id` is out of range or a spilled extent is unreadable.
    pub fn with_full<R>(&mut self, id: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let arena = self.arena;
        if arena.is_full_entry(id) && arena.is_resident(id) {
            return f(arena.stored(id));
        }
        SCRATCH.with_borrow_mut(|scratch| {
            f(arena.materialize_entry(scratch, id, &mut self.cache).0)
        })
    }
}

impl Clone for StateArena {
    fn clone(&self) -> Self {
        StateArena {
            codec: self.codec,
            bytes: self.bytes.clone(),
            offsets: self.offsets.clone(),
            bases: self.bases.clone(),
            keyframe_every: self.keyframe_every,
            full_payload_bytes: self.full_payload_bytes,
            delta_entries: self.delta_entries,
            spill: self.spill.clone(),
            cache: Mutex::default(),
        }
    }
}

impl fmt::Debug for StateArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateArena")
            .field("codec", &self.codec)
            .field("bytes", &self.bytes)
            .field("offsets", &self.offsets)
            .field("bases", &self.bases)
            .field("keyframe_every", &self.keyframe_every)
            .field("spill", &self.spill)
            .finish_non_exhaustive()
    }
}

/// Equality is over stored content (codec, payload, offsets, delta
/// layout, spill layout) — the fault-in cache is excluded, so a faulted
/// arena still equals its untouched clone.
impl PartialEq for StateArena {
    fn eq(&self, other: &Self) -> bool {
        self.codec == other.codec
            && self.bytes == other.bytes
            && self.offsets == other.offsets
            && self.bases == other.bases
            && self.keyframe_every == other.keyframe_every
            && self.spill == other.spill
    }
}

impl Eq for StateArena {}

impl StateArena {
    /// An empty arena encoding with `codec`.
    #[must_use]
    pub fn new(codec: StateCodec) -> Self {
        StateArena {
            codec,
            bytes: Vec::new(),
            offsets: Vec::new(),
            bases: Vec::new(),
            keyframe_every: 0,
            full_payload_bytes: 0,
            delta_entries: 0,
            spill: None,
            cache: Mutex::default(),
        }
    }

    /// The codec states are packed with.
    #[must_use]
    pub fn codec(&self) -> &StateCodec {
        &self.codec
    }

    /// Number of stored states.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Is the arena empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total stored payload size in bytes — resident *plus* spilled,
    /// delta entries at their compressed size; excludes the offset and
    /// base tables.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.spilled() + self.bytes.len()
    }

    /// Logical payload bytes no longer resident (sealed into extents).
    fn spilled(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.spilled_bytes)
    }

    /// Approximate resident footprint: resident payload capacity, the
    /// offset and delta-base tables, extent bookkeeping, and the
    /// fault-in cache — the figure the memory-budget truncation check
    /// reads. Spilled payload does not count: it is exactly the part the
    /// budget no longer has to cover.
    #[must_use]
    pub fn approx_heap_bytes(&self) -> usize {
        let spill = self.spill.as_ref().map_or(0, |s| {
            s.extents.capacity() * std::mem::size_of::<Extent>()
        });
        let cache: usize = self.cache().slots.iter().map(|(_, p)| p.capacity()).sum();
        self.bytes.capacity()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.bases.capacity() * std::mem::size_of::<u32>()
            + spill
            + cache
    }

    /// An empty arena with room for `states` states totalling `bytes`
    /// packed bytes — bulk-copy paths (the sharded driver's final
    /// merge) size the allocation exactly instead of growing through
    /// doubling.
    #[must_use]
    pub fn with_capacity(codec: StateCodec, states: usize, bytes: usize) -> Self {
        let mut arena = StateArena::new(codec);
        arena.bytes = Vec::with_capacity(bytes);
        arena.offsets = Vec::with_capacity(states);
        arena
    }

    /// Arm parent-delta storage with a full-snapshot keyframe at least
    /// every `keyframe_every` chain entries (0 disables; new pushes then
    /// store full encodings). Entries already stored stay as they are —
    /// existing full entries simply become eligible keyframe bases —
    /// so a checkpoint-restored arena can arm delta mode and carry on.
    ///
    /// # Panics
    /// Panics when disabling while delta entries exist (they would
    /// become undecodable).
    pub fn enable_delta(&mut self, keyframe_every: u32) {
        if keyframe_every == self.keyframe_every {
            return;
        }
        assert!(
            keyframe_every > 0 || self.delta_entries == 0,
            "cannot disable delta storage: {} delta entries exist",
            self.delta_entries
        );
        self.keyframe_every = keyframe_every;
        if keyframe_every > 0 {
            self.bases = vec![NO_BASE; self.offsets.len()];
        } else {
            self.bases = Vec::new();
        }
    }

    /// The configured keyframe interval (0 = delta storage off).
    #[must_use]
    pub fn keyframe_interval(&self) -> u32 {
        self.keyframe_every
    }

    /// The smallest entry id touched when materializing `id`: `id`'s
    /// keyframe-chain root (bases strictly decrease along a chain, so
    /// the root is the minimum). Spill callers take the min of this
    /// over every live (still-decoded) entry as the seal boundary, so
    /// hot decodes never fault a sealed extent back in.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn decode_floor(&self, id: usize) -> usize {
        let mut cur = id;
        while !self.is_full_entry(cur) {
            cur = self.bases[cur] as usize;
        }
        cur
    }

    /// Arm cold-extent spilling: sealed extents go to `dir` (created if
    /// missing) as `{tag}-NNNNNN.cxlspill` files. Spilling itself
    /// happens through [`Self::spill_cold`].
    ///
    /// # Errors
    /// Propagates directory-creation failures.
    ///
    /// # Panics
    /// Panics if spilling is already armed.
    pub fn enable_spill(&mut self, dir: &std::path::Path, tag: &str) -> std::io::Result<()> {
        assert!(self.spill.is_none(), "spill already armed");
        std::fs::create_dir_all(dir)?;
        self.spill = Some(SpillState {
            dir: dir.to_path_buf(),
            tag: tag.to_string(),
            extents: Vec::new(),
            spilled_bytes: 0,
            spilled_entries: 0,
        });
        Ok(())
    }

    /// Is cold-extent spilling armed?
    #[must_use]
    pub fn spill_armed(&self) -> bool {
        self.spill.is_some()
    }

    /// Seal every not-yet-spilled entry below `upto_entry` into one
    /// immutable extent file (write-then-rename, checksummed) and drop
    /// its payload from RAM, returning the bytes freed. A no-op (Ok(0))
    /// when spilling is not armed or nothing new is below the mark.
    /// Callers pass the start of the current BFS frontier: everything
    /// before it has been fully expanded and is only ever touched again
    /// by traces, quarantine dumps, or stale dedup probes — all of which
    /// fault extents back in transparently.
    ///
    /// # Errors
    /// Propagates extent-file write failures (the caller degrades
    /// gracefully; the arena is unchanged on error).
    pub fn spill_cold(&mut self, upto_entry: usize) -> std::io::Result<usize> {
        let Some(spill) = &mut self.spill else { return Ok(0) };
        let upto = upto_entry.min(self.offsets.len());
        if upto <= spill.spilled_entries {
            return Ok(0);
        }
        let start_entry = spill.spilled_entries;
        let start_byte = spill.spilled_bytes;
        let end_byte = if upto == self.offsets.len() {
            start_byte + self.bytes.len()
        } else {
            self.offsets[upto]
        };
        let span = end_byte - start_byte;
        if span == 0 {
            return Ok(0);
        }
        let path = spill
            .dir
            .join(format!("{}-{:06}.cxlspill", spill.tag, spill.extents.len()));
        let extent = Extent { start_entry, end_entry: upto, start_byte, end_byte, path };
        write_extent(&extent, &self.bytes[..span])?;
        spill.extents.push(extent);
        spill.spilled_entries = upto;
        spill.spilled_bytes = end_byte;
        self.bytes.drain(..span);
        Ok(span)
    }

    /// Sealed extents written so far.
    #[must_use]
    pub fn spilled_extents(&self) -> u64 {
        self.spill.as_ref().map_or(0, |s| s.extents.len() as u64)
    }

    /// Extent fault-ins served so far (cache misses, not total cold
    /// accesses).
    #[must_use]
    pub fn faulted_extents(&self) -> u64 {
        self.cache().faults
    }

    /// Resident payload bytes (the spill watermark's input).
    #[must_use]
    pub fn resident_payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Entries stored in delta form.
    #[must_use]
    pub fn delta_entries(&self) -> usize {
        self.delta_entries
    }

    /// Σ full-encoding lengths of every stored state — the payload size
    /// a plain arena would hold. `byte_len() / full_payload_bytes()` is
    /// the store's delta compression ratio.
    #[must_use]
    pub fn full_payload_bytes(&self) -> usize {
        self.full_payload_bytes
    }

    /// Per-state bytes of the entry tables (offsets + delta bases) by
    /// length, not capacity — the overhead the store's `bytes_per_state`
    /// metric adds on top of the payload.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.bases.len() * std::mem::size_of::<u32>()
    }

    /// Encode and append a state (always stored full), returning its id.
    pub fn push_state(&mut self, state: &SystemState) -> usize {
        let id = self.offsets.len();
        self.offsets.push(self.byte_len());
        let before = self.bytes.len();
        self.codec.encode_into(state, &mut self.bytes);
        self.full_payload_bytes += self.bytes.len() - before;
        if self.keyframe_every > 0 {
            self.bases.push(NO_BASE);
        }
        id
    }

    /// Append an already-encoded state (the merge path: successors are
    /// encoded once into a scratch buffer, deduped by byte equality, and
    /// only survivors are copied in here). Always stored full.
    pub fn push_encoded(&mut self, encoded: &[u8]) -> usize {
        let id = self.offsets.len();
        self.offsets.push(self.byte_len());
        self.bytes.extend_from_slice(encoded);
        self.full_payload_bytes += encoded.len();
        if self.keyframe_every > 0 {
            self.bases.push(NO_BASE);
        }
        id
    }

    /// Append a full encoding, stored as a parent-delta against `base`
    /// when delta mode is armed, the chain stays under the keyframe
    /// interval, and the delta is actually smaller — otherwise stored
    /// full. `base` is typically the successor's BFS parent in this same
    /// arena (the sharded driver passes it only when the parent landed in
    /// the same shard segment). Returns the new id.
    ///
    /// # Panics
    /// Panics (debug) if `base` is not an existing entry.
    pub fn push_encoded_delta(&mut self, full: &[u8], base: Option<u32>) -> usize {
        let Some(b) = base.filter(|_| self.keyframe_every > 0).map(|b| b as usize) else {
            return self.push_encoded(full);
        };
        debug_assert!(b < self.offsets.len(), "delta base {b} out of range");
        // Chain length to the nearest keyframe: cap it at K so decode
        // never walks more than K links.
        let mut depth = 1usize;
        let mut cur = b;
        while self.bases[cur] != NO_BASE {
            depth += 1;
            cur = self.bases[cur] as usize;
        }
        if depth >= self.keyframe_every as usize {
            return self.push_encoded(full);
        }
        SCRATCH.with_borrow_mut(|scratch| {
            let mut delta = std::mem::take(&mut scratch.delta);
            delta.clear();
            let encoded_ok = {
                let (base_full, layout) = self.materialize_entry(scratch, b, &mut None);
                // A walked chain already knows its result's layout; a
                // resident keyframe is parsed here.
                layout
                    .map_or_else(|| self.codec.delta_segments(base_full), Ok)
                    .and_then(|ps| self.codec.encode_delta_from(base_full, &ps, full, &mut delta))
                    .is_ok()
            };
            let use_delta = encoded_ok && delta.len() < full.len();
            let id = self.offsets.len();
            self.offsets.push(self.byte_len());
            if use_delta {
                self.bytes.extend_from_slice(&delta);
                self.bases.push(b as u32);
                self.delta_entries += 1;
            } else {
                self.bytes.extend_from_slice(full);
                self.bases.push(NO_BASE);
            }
            self.full_payload_bytes += full.len();
            scratch.delta = delta;
            id
        })
    }

    /// Logical end offset of entry `id`.
    fn entry_end(&self, id: usize) -> usize {
        self.offsets.get(id + 1).copied().unwrap_or_else(|| self.byte_len())
    }

    /// Is entry `id` stored as a full encoding (not a delta)?
    #[inline]
    fn is_full_entry(&self, id: usize) -> bool {
        self.bases.is_empty() || self.bases[id] == NO_BASE
    }

    /// Is entry `id`'s payload resident in RAM?
    #[inline]
    fn is_resident(&self, id: usize) -> bool {
        self.offsets[id] >= self.spilled()
    }

    /// The first entry whose payload is resident — everything below it
    /// has been sealed into extents.
    #[inline]
    fn first_resident_entry(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.spilled_entries)
    }

    /// The resident stored bytes of entry `id` — its full encoding for a
    /// keyframe, its delta form for a delta entry.
    #[inline]
    fn stored(&self, id: usize) -> &[u8] {
        let base = self.spilled();
        &self.bytes[self.offsets[id] - base..self.entry_end(id) - base]
    }

    /// The packed full-encoding bytes of state `id` — valid only for
    /// resident, full-stored entries (always true in a plain arena;
    /// delta/spill callers use [`Self::append_full_bytes`] or
    /// [`Self::entry_matches`]).
    ///
    /// # Panics
    /// Panics if `id` is out of range, delta-stored, or spilled.
    #[must_use]
    #[inline]
    pub fn bytes_of(&self, id: usize) -> &[u8] {
        assert!(
            self.is_full_entry(id) && self.is_resident(id),
            "bytes_of on a delta/spilled entry {id} — use append_full_bytes"
        );
        self.stored(id)
    }

    /// The fault-in cache. An unreadable extent panics before the cache
    /// changes, so a lock that panic poisoned still guards a sound cache.
    fn cache(&self) -> MutexGuard<'_, ExtentCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy the stored bytes of entry `id` (delta or full) to `out`,
    /// faulting its extent in when spilled. The cache is locked at the
    /// first sealed entry and held in `cache` for the caller's later ones.
    fn copy_stored<'a>(
        &'a self,
        id: usize,
        out: &mut Vec<u8>,
        cache: &mut Option<MutexGuard<'a, ExtentCache>>,
    ) {
        if self.is_resident(id) {
            out.extend_from_slice(self.stored(id));
            return;
        }
        let ExtentCache { slots, faults } = &mut **cache.get_or_insert_with(|| self.cache());
        let spill = self.spill.as_ref().expect("non-resident entry without spill state");
        let e = spill
            .extents
            .partition_point(|ext| ext.end_entry <= id);
        let ext = &spill.extents[e];
        debug_assert!(ext.start_entry <= id && id < ext.end_entry);
        let slot = slots.iter().position(|(idx, _)| *idx == e);
        let payload: &Vec<u8> = match slot {
            Some(0) => &slots[0].1,
            Some(i) => {
                let hit = slots.remove(i);
                slots.insert(0, hit);
                &slots[0].1
            }
            None => {
                let payload = read_extent(ext).unwrap_or_else(|err| {
                    panic!("spill extent {} unreadable: {err}", ext.path.display())
                });
                *faults += 1;
                slots.insert(0, (e, payload));
                slots.truncate(EXTENT_CACHE_CAP);
                &slots[0].1
            }
        };
        let start = self.offsets[id] - ext.start_byte;
        let end = self.entry_end(id) - ext.start_byte;
        out.extend_from_slice(&payload[start..end]);
    }

    /// Materialize the full encoding of entry `id` into the scratch
    /// buffers, returning a slice of it and — when a delta chain was
    /// walked — its layout. Walks the chain to the nearest keyframe (≤ K
    /// links by construction), parses the keyframe once, and replays the
    /// deltas forward, carrying the segment bounds from link to link so
    /// each link parses only the segments it introduces; faults in
    /// spilled stored bytes along the way, through the fault-in cache
    /// held in `cache` (locked here at the first sealed entry if not yet).
    fn materialize_entry<'a: 's, 's>(
        &'a self,
        scratch: &'s mut ArenaScratch,
        id: usize,
        cache: &mut Option<MutexGuard<'a, ExtentCache>>,
    ) -> (&'s [u8], Option<Spans>) {
        if self.is_full_entry(id) && self.is_resident(id) {
            return (self.stored(id), None);
        }
        let ArenaScratch { bufs, chain, cold, .. } = scratch;
        chain.clear();
        let mut cur = id;
        while !self.is_full_entry(cur) {
            chain.push(cur as u32);
            cur = self.bases[cur] as usize;
        }
        let [a, b] = bufs;
        let (mut src, mut dst) = (a, b);
        src.clear();
        self.copy_stored(cur, src, cache);
        if chain.is_empty() {
            return (src, None);
        }
        let mut spans = self
            .codec
            .delta_segments(src)
            .expect("arena holds only codec output");
        for &e in chain.iter().rev() {
            let e = e as usize;
            let delta = if self.is_resident(e) {
                self.stored(e)
            } else {
                cold.clear();
                self.copy_stored(e, cold, cache);
                &cold[..]
            };
            dst.clear();
            spans = self
                .codec
                .apply_delta(src, &spans, delta, dst)
                .expect("arena holds only codec output");
            std::mem::swap(&mut src, &mut dst);
        }
        (src, Some(spans))
    }

    /// Run `f` on entry `id`'s full encoding: its stored bytes when it is
    /// a resident keyframe, else materialized in this thread's scratch.
    fn with_full<R>(&self, id: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.reader().with_full(id, f)
    }

    /// A reader for a run of full-encoding reads, such as a checkpoint's
    /// walk over every entry: it locks the fault-in cache at the first
    /// sealed entry it reads and holds the lock until it is dropped,
    /// where [`Self::append_full_bytes`] locks once per sealed entry.
    #[must_use]
    pub fn reader(&self) -> ArenaReader<'_> {
        ArenaReader { arena: self, cache: None }
    }

    /// Append the **full encoding** of state `id` to `out`, whatever its
    /// storage form — byte-identical to what was originally pushed. The
    /// delta/spill-safe replacement for [`Self::bytes_of`] on paths that
    /// may touch compressed or cold entries (checkpointing, quarantine
    /// records, shard merges).
    ///
    /// # Panics
    /// Panics if `id` is out of range or a spilled extent is unreadable.
    pub fn append_full_bytes(&self, id: usize, out: &mut Vec<u8>) {
        self.with_full(id, |full| out.extend_from_slice(full));
    }

    /// Does entry `id`'s full encoding equal `full`? The dedup probe for
    /// delta/spill arenas: byte equality against the materialized full
    /// encoding (fast-pathed to a direct slice compare on plain entries).
    ///
    /// Entries whose materialization would fault a **sealed extent**
    /// back in are *not* byte-verified: the caller's fingerprint index
    /// has already matched a 64-bit fingerprint, and re-reading a cold
    /// extent once per back-edge transition would turn dedup — the
    /// hottest loop in the search — into an I/O storm. This is classic
    /// hash compaction, applied only to the cold tier: resident entries
    /// keep exact comparison, so a run without spilling is byte-exact
    /// everywhere, and a spilled run accepts a ~2⁻⁶⁴ per-pair collision
    /// risk on its coldest states only.
    #[must_use]
    pub fn entry_matches(&self, id: usize, full: &[u8]) -> bool {
        if self.is_full_entry(id) {
            if self.is_resident(id) {
                return self.stored(id) == full;
            }
            return true;
        }
        if self.decode_floor(id) < self.first_resident_entry() {
            return true;
        }
        self.with_full(id, |bytes| bytes == full)
    }

    /// Append the full encoding of `other`'s entry `slot` to this arena
    /// (stored full) — the shard-merge primitive.
    pub fn push_full_from(&mut self, other: &StateArena, slot: usize) -> usize {
        other.with_full(slot, |full| self.push_encoded(full))
    }

    /// Decode state `id` into a fresh value.
    ///
    /// # Panics
    /// Panics if `id` is out of range (arena contents always decode).
    #[must_use]
    pub fn decode(&self, id: usize) -> SystemState {
        let mut out = self.codec.blank();
        self.decode_into(id, &mut out);
        out
    }

    /// Decode state `id` into `out`, reusing its allocations — the hot
    /// path for frontier expansion. Delta chains are replayed and cold
    /// extents faulted in transparently.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn decode_into(&self, id: usize, out: &mut SystemState) {
        self.with_full(id, |bytes| {
            self.codec.decode_state(bytes, out).expect("arena holds only codec output");
        });
    }

    /// Iterate over all states in discovery order, decoding each.
    pub fn iter_decoded(&self) -> impl Iterator<Item = SystemState> + '_ {
        (0..self.len()).map(|id| self.decode(id))
    }

    /// The resident packed payload. For a plain arena (no delta, no
    /// spill) this is every state's full encoding concatenated in
    /// discovery order — together with [`Self::offsets`] the arena's
    /// full serializable content. Compressed or spilling arenas
    /// serialize through [`Self::append_full_bytes`] instead.
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.bytes
    }

    /// The per-state logical start offsets into the payload stream.
    #[must_use]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Rebuild an arena from a serialized payload and offset table,
    /// validating structure (monotone offsets inside the payload) and
    /// content (every entry decodes under `codec`) — the deserialization
    /// path for checkpoint restore, where the bytes are untrusted.
    ///
    /// # Errors
    /// Returns [`CodecError`] when the offsets are inconsistent or any
    /// entry fails to decode.
    pub fn from_parts(
        codec: StateCodec,
        bytes: Vec<u8>,
        offsets: Vec<usize>,
    ) -> Result<Self, CodecError> {
        if let Some(&first) = offsets.first() {
            if first != 0 {
                return Err(CodecError(format!("first arena offset is {first}, not 0")));
            }
        } else if !bytes.is_empty() {
            return Err(CodecError("payload bytes without any offsets".into()));
        }
        for w in offsets.windows(2) {
            if w[0] >= w[1] {
                return Err(CodecError(format!(
                    "arena offsets not strictly increasing ({} then {})",
                    w[0], w[1]
                )));
            }
        }
        if offsets.last().is_some_and(|&last| last >= bytes.len()) {
            return Err(CodecError(format!(
                "last arena offset {} outside payload of {} bytes",
                offsets.last().copied().unwrap_or(0),
                bytes.len()
            )));
        }
        let full_payload_bytes = bytes.len();
        let mut arena = StateArena::new(codec);
        arena.bytes = bytes;
        arena.offsets = offsets;
        arena.full_payload_bytes = full_payload_bytes;
        let mut scratch = arena.codec.blank();
        for id in 0..arena.len() {
            arena
                .codec
                .decode_into(arena.bytes_of(id), &mut scratch)
                .map_err(|e| CodecError(format!("arena entry {id}: {e}")))?;
        }
        Ok(arena)
    }

    /// Release capacity slack in the payload and entry tables, and drop
    /// the fault-in cache — the model checker's degradation ladder calls
    /// this when the run approaches its memory budget (Vec doubling
    /// leaves up to ~2× slack, all of which [`Self::approx_heap_bytes`]
    /// counts).
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        self.bases.shrink_to_fit();
        if let Some(spill) = &mut self.spill {
            spill.extents.shrink_to_fit();
        }
        let cache = self.cache.get_mut().unwrap_or_else(PoisonError::into_inner);
        cache.slots = Vec::new();
    }

    /// Drop all states and release the backing allocations (the ladder's
    /// treatment of transient side stores). Keeps the delta/spill
    /// configuration but forgets written extents — only used on stores
    /// whose contents are disposable.
    pub fn clear_and_release(&mut self) {
        self.bytes = Vec::new();
        self.offsets = Vec::new();
        self.bases = Vec::new();
        self.full_payload_bytes = 0;
        self.delta_entries = 0;
        if let Some(spill) = &mut self.spill {
            spill.extents = Vec::new();
            spill.spilled_bytes = 0;
            spill.spilled_entries = 0;
        }
        self.cache = Mutex::default();
    }
}

/// Write `payload` as extent `ext` — `MAGIC`, the entry/byte range as
/// varints, the raw payload, then an `FxHasher` checksum of everything
/// preceding it, via a temp file renamed into place so a crash never
/// leaves a half-written extent under the final name.
fn write_extent(ext: &Extent, payload: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(EXTENT_MAGIC);
    put_varint(&mut out, ext.start_entry as u64);
    put_varint(&mut out, ext.end_entry as u64);
    put_varint(&mut out, ext.start_byte as u64);
    put_varint(&mut out, ext.end_byte as u64);
    out.extend_from_slice(payload);
    let mut hasher = crate::fasthash::FxHasher::default();
    std::hash::Hasher::write(&mut hasher, &out);
    let sum = std::hash::Hasher::finish(&hasher);
    out.extend_from_slice(&sum.to_le_bytes());
    let tmp = ext.path.with_extension("cxlspill.tmp");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, &ext.path)
}

/// Read extent `ext` back, verifying magic, checksum, and that the
/// header ranges match the in-memory bookkeeping. Returns the payload.
fn read_extent(ext: &Extent) -> std::io::Result<Vec<u8>> {
    let corrupt = |why: String| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, why)
    };
    let raw = std::fs::read(&ext.path)?;
    if raw.len() < EXTENT_MAGIC.len() + 8 {
        return Err(corrupt(format!("extent file too short ({} bytes)", raw.len())));
    }
    let (body, sum_bytes) = raw.split_at(raw.len() - 8);
    let mut hasher = crate::fasthash::FxHasher::default();
    std::hash::Hasher::write(&mut hasher, body);
    let expect = std::hash::Hasher::finish(&hasher);
    let got = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte split"));
    if expect != got {
        return Err(corrupt(format!("extent checksum mismatch ({got:#x} != {expect:#x})")));
    }
    if &body[..EXTENT_MAGIC.len()] != EXTENT_MAGIC {
        return Err(corrupt("bad extent magic".into()));
    }
    let mut r = Reader::new(&body[EXTENT_MAGIC.len()..]);
    let header = |r: &mut Reader<'_>| -> std::io::Result<usize> {
        r.varint()
            .map_err(|e| corrupt(format!("bad extent header: {e}")))
            .map(|v| v as usize)
    };
    let (start_entry, end_entry) = (header(&mut r)?, header(&mut r)?);
    let (start_byte, end_byte) = (header(&mut r)?, header(&mut r)?);
    if (start_entry, end_entry, start_byte, end_byte)
        != (ext.start_entry, ext.end_entry, ext.start_byte, ext.end_byte)
    {
        return Err(corrupt(format!(
            "extent header mismatch: file covers entries {start_entry}..{end_entry} \
             bytes {start_byte}..{end_byte}, expected entries {}..{} bytes {}..{}",
            ext.start_entry, ext.end_entry, ext.start_byte, ext.end_byte
        )));
    }
    let payload = r
        .take(r.remaining())
        .map_err(|e| corrupt(format!("bad extent payload: {e}")))?;
    if payload.len() != end_byte - start_byte {
        return Err(corrupt(format!(
            "extent payload is {} bytes, header claims {}",
            payload.len(),
            end_byte - start_byte
        )));
    }
    Ok(payload.to_vec())
}

/// An estimate of a heap `SystemState`'s resident bytes — the *baseline*
/// the packed arena is compared against in
/// `packed_states_beat_the_heap_baseline`, and the per-state price of
/// the checker's decoded-frontier ring: the inline struct size plus its
/// heap blocks (program queues, spilled channels, the device spill
/// vector).
#[must_use]
pub fn heap_state_bytes(state: &SystemState) -> usize {
    use std::mem::size_of;
    let mut total = size_of::<SystemState>();
    for d in state.device_ids() {
        let dev = state.dev(d);
        if !dev.prog.is_empty() {
            total += dev.prog.len() * size_of::<Instruction>();
        }
        // Spilled channels (len >= 2) hold their messages in a heap Vec.
        fn spill<T>(c: &Channel<T>) -> usize {
            if c.len() >= 2 {
                c.len() * std::mem::size_of::<T>()
            } else {
                0
            }
        }
        total += spill(&dev.d2h_req)
            + spill(&dev.d2h_rsp)
            + spill(&dev.d2h_data)
            + spill(&dev.h2d_req)
            + spill(&dev.h2d_rsp)
            + spill(&dev.h2d_data);
    }
    if state.device_count() > 2 {
        total += (state.device_count() - 2) * size_of::<DeviceState>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::ids::DeviceId;
    use crate::instr::programs;
    use crate::rules::Ruleset;

    fn codec2() -> StateCodec {
        StateCodec::new(Topology::pair())
    }

    #[test]
    fn roundtrip_initial_states() {
        let codec = codec2();
        for s in [
            SystemState::initial(Vec::new(), Vec::new()),
            SystemState::initial(programs::store(42), programs::load()),
            SystemState::initial(programs::stores(-3, 3), programs::evicts(2)),
        ] {
            let bytes = codec.encode(&s);
            assert_eq!(codec.decode(&bytes).unwrap(), s);
        }
    }

    #[test]
    fn roundtrip_through_a_whole_exploration() {
        // Every reachable state of the headline scenario round-trips and
        // encodes deterministically.
        let rules = Ruleset::new(ProtocolConfig::full());
        let codec = codec2();
        let mut frontier = vec![SystemState::initial(programs::store(42), programs::load())];
        for _ in 0..8 {
            let mut next = Vec::new();
            for st in &frontier {
                let bytes = codec.encode(st);
                let back = codec.decode(&bytes).unwrap();
                assert_eq!(&back, st);
                assert_eq!(codec.encode(&back), bytes, "re-encode must be byte-identical");
                for (_, succ) in rules.successors(st) {
                    next.push(succ);
                }
            }
            next.truncate(48);
            frontier = next;
        }
    }

    #[test]
    fn quiet_devices_encode_compactly() {
        let codec = StateCodec::new(Topology::new(4));
        let s = SystemState::initial_n(4, vec![]);
        let bytes = codec.encode(&s);
        // counter (1) + host (2) + 4 × (header + val) = 11 bytes.
        assert_eq!(bytes.len(), 11, "all-idle 4-device state: {bytes:?}");
        assert_eq!(codec.decode(&bytes).unwrap(), s);
    }

    #[test]
    fn spilled_channels_and_buffers_roundtrip() {
        let codec = codec2();
        let mut s = SystemState::initial(programs::load(), Vec::new());
        s.counter = 300; // multi-byte varint
        s.host.val = -7;
        let d = DeviceId::D1;
        s.dev_mut(d).d2h_rsp.push(D2HRsp::new(D2HRspType::RspIFwdM, 1));
        s.dev_mut(d).d2h_rsp.push(D2HRsp::new(D2HRspType::RspIHitI, 200));
        s.dev_mut(d).d2h_data.push(DataMsg::bogus(2, -1));
        s.dev_mut(d).h2d_rsp.push(H2DRsp::new(H2DRspType::GOWritePullDrop, DState::ISDI, 3));
        s.dev_mut(d).buffer = DBufferSlot::Req(H2DReq::new(H2DReqType::SnpData, 9));
        s.dev_mut(DeviceId::D2).buffer =
            DBufferSlot::Rsp(H2DRsp::new(H2DRspType::GO, DState::M, 4));
        let bytes = codec.encode(&s);
        assert_eq!(codec.decode(&bytes).unwrap(), s);
    }

    #[test]
    fn decode_into_reuses_and_rebuilds() {
        let codec = codec2();
        let a = SystemState::initial(programs::stores(0, 2), programs::load());
        let b = SystemState::initial(Vec::new(), programs::evict());
        let (ea, eb) = (codec.encode(&a), codec.encode(&b));
        // Reuse one target across decodes.
        let mut out = codec.blank();
        codec.decode_into(&ea, &mut out).unwrap();
        assert_eq!(out, a);
        codec.decode_into(&eb, &mut out).unwrap();
        assert_eq!(out, b);
        // A wrong-topology target is rebuilt.
        let mut wide = SystemState::initial_n(4, vec![]);
        codec.decode_into(&ea, &mut wide).unwrap();
        assert_eq!(wide, a);
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        let codec = codec2();
        let good = codec.encode(&SystemState::initial(programs::load(), Vec::new()));
        assert!(codec.decode(&good[..good.len() - 1]).is_err(), "truncation");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(codec.decode(&trailing).is_err(), "trailing bytes");
        assert!(codec.decode(&[0xff; 3]).is_err(), "garbage");
    }

    #[test]
    fn arena_appends_and_decodes() {
        let codec = codec2();
        let mut arena = StateArena::new(codec);
        let a = SystemState::initial(programs::store(1), programs::load());
        let b = SystemState::initial(Vec::new(), Vec::new());
        assert_eq!(arena.push_state(&a), 0);
        let eb = codec.encode(&b);
        assert_eq!(arena.push_encoded(&eb), 1);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.decode(0), a);
        assert_eq!(arena.decode(1), b);
        assert_eq!(arena.bytes_of(1), &eb[..]);
        assert_eq!(arena.byte_len(), arena.bytes_of(0).len() + eb.len());
        let all: Vec<_> = arena.iter_decoded().collect();
        assert_eq!(all, vec![a, b]);
    }

    #[test]
    fn device_segment_bounds_delimit_each_device() {
        // Segment bounds must partition the encoding: header, then one
        // contiguous range per device, with each range re-encodable from
        // the device alone (checked by splicing segments between two
        // states and decoding the hybrid).
        let codec = StateCodec::new(Topology::new(3));
        let mut a = SystemState::initial_n(3, vec![programs::store(5), programs::load()]);
        a.dev_mut(DeviceId::new(2)).d2h_rsp.push(D2HRsp::new(D2HRspType::RspIHitSE, 7));
        a.counter = 300;
        let ea = codec.encode(&a);
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec.device_segment_bounds(&ea, &mut bounds).unwrap();
        assert_eq!(bounds[3], ea.len(), "last segment must end the encoding");
        assert!(bounds[0] > 0 && bounds[0] <= bounds[1] && bounds[1] <= bounds[2]);

        // Swapping two device segments at the byte level decodes to the
        // state with those devices swapped.
        let mut spliced = Vec::new();
        spliced.extend_from_slice(&ea[..bounds[0]]);
        spliced.extend_from_slice(&ea[bounds[1]..bounds[2]]); // device 1 first
        spliced.extend_from_slice(&ea[bounds[0]..bounds[1]]); // then device 0
        spliced.extend_from_slice(&ea[bounds[2]..]);
        let mut swapped = a.clone();
        swapped.devs.swap(0, 1);
        assert_eq!(codec.decode(&spliced).unwrap(), swapped);

        // Malformed input is rejected, not mis-sliced.
        assert!(codec.device_segment_bounds(&ea[..ea.len() - 1], &mut bounds).is_err());
    }

    #[test]
    fn map_vals_rewrites_every_value_slot() {
        let codec = codec2();
        let mut s = SystemState::initial(programs::stores(5, 2), programs::load());
        s.host.val = 7;
        s.dev_mut(DeviceId::D1).cache.val = 5;
        s.dev_mut(DeviceId::D2).h2d_data.push(DataMsg::new(3, 7));
        s.dev_mut(DeviceId::D2).d2h_data.push(DataMsg::bogus(4, 5));
        let bytes = codec.encode(&s);

        // Identity mapping reproduces the encoding byte for byte.
        let mut out = Vec::new();
        codec.map_vals(&bytes, &mut out, |v| v).unwrap();
        assert_eq!(out, bytes);

        // A value shift lands on every slot — caches, data messages,
        // and the remaining Store operands (a bijection acts on the
        // whole state, programs included).
        codec.map_vals(&bytes, &mut out, |v| v + 100).unwrap();
        let mapped = codec.decode(&out).unwrap();
        assert_eq!(mapped.host.val, 107);
        assert_eq!(mapped.dev(DeviceId::D1).cache.val, 105);
        assert_eq!(mapped.dev(DeviceId::D2).cache.val, 99);
        assert_eq!(mapped.dev(DeviceId::D2).h2d_data.head().unwrap().val, 107);
        assert_eq!(mapped.dev(DeviceId::D2).d2h_data.head().unwrap().val, 105);
        assert!(mapped.dev(DeviceId::D2).d2h_data.head().unwrap().bogus);
        let ops: Vec<_> = mapped.dev(DeviceId::D1).prog.iter().copied().collect();
        assert_eq!(ops, vec![Instruction::Store(105), Instruction::Store(106)]);

        // Malformed input is rejected.
        assert!(codec.map_vals(&bytes[..bytes.len() - 1], &mut out, |v| v).is_err());
    }

    #[test]
    fn segmentwise_val_mapping_matches_whole_state_mapping() {
        let codec = codec2();
        let mut s = SystemState::initial(programs::stores(5, 2), programs::load());
        s.host.val = 7;
        s.dev_mut(DeviceId::D1).cache.val = 5;
        s.dev_mut(DeviceId::D2).h2d_data.push(DataMsg::new(3, 7));
        s.dev_mut(DeviceId::D2).d2h_data.push(DataMsg::bogus(4, 5));
        let bytes = codec.encode(&s);
        let mut bounds = [0usize; Topology::MAX_DEVICES + 1];
        codec.device_segment_bounds(&bytes, &mut bounds).unwrap();

        // Header + per-segment mapping, concatenated in encoding order,
        // reproduces map_vals over the whole state — the contract the
        // refine labeller's segment-by-segment assembly rests on.
        let shift = |v: crate::ids::Val| v + 100;
        let mut whole = Vec::new();
        codec.map_vals(&bytes, &mut whole, shift).unwrap();
        let mut pieces = Vec::new();
        StateCodec::map_header_vals(&bytes[..bounds[0]], &mut pieces, shift).unwrap();
        for i in 0..2 {
            StateCodec::map_device_segment_vals(
                &bytes[bounds[i]..bounds[i + 1]],
                &mut pieces,
                shift,
            )
            .unwrap();
        }
        assert_eq!(pieces, whole);

        // Identity round-trips each piece exactly, and appending (not
        // clearing) is the contract.
        let mut out = vec![0xAB];
        StateCodec::map_header_vals(&bytes[..bounds[0]], &mut out, |v| v).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(&out[1..], &bytes[..bounds[0]]);
        out.clear();
        StateCodec::map_device_segment_vals(&bytes[bounds[0]..bounds[1]], &mut out, |v| v)
            .unwrap();
        assert_eq!(out, &bytes[bounds[0]..bounds[1]]);

        // Truncated inputs are rejected rather than mis-parsed.
        assert!(StateCodec::map_header_vals(&bytes[..bounds[0] - 1], &mut out, |v| v).is_err());
        assert!(StateCodec::map_device_segment_vals(
            &bytes[bounds[0]..bounds[1] - 1],
            &mut out,
            |v| v
        )
        .is_err());
    }

    #[test]
    fn collect_program_vals_lists_remaining_store_operands() {
        let codec = StateCodec::new(Topology::new(3));
        let mut s = SystemState::initial_n(
            3,
            vec![programs::stores(5, 2), programs::load(), programs::store(-9)],
        );
        s.host.val = 42; // live values never show up in the pinned set
        let mut vals = Vec::new();
        codec.collect_program_vals(&codec.encode(&s), &mut vals).unwrap();
        assert_eq!(vals, vec![5, 6, -9]);

        // Retiring an instruction shrinks the pinned set.
        s.dev_mut(DeviceId::new(0)).prog.pop_front();
        vals.clear();
        codec.collect_program_vals(&codec.encode(&s), &mut vals).unwrap();
        assert_eq!(vals, vec![6, -9]);
    }

    #[test]
    fn fingerprints_follow_byte_equality() {
        let codec = codec2();
        let a = codec.encode(&SystemState::initial(programs::store(1), programs::load()));
        let b = codec.encode(&SystemState::initial(programs::store(1), programs::load()));
        let c = codec.encode(&SystemState::initial(programs::store(2), programs::load()));
        assert_eq!(StateCodec::fingerprint(&a), StateCodec::fingerprint(&b));
        assert_ne!(StateCodec::fingerprint(&a), StateCodec::fingerprint(&c));
    }

    #[test]
    fn packed_states_beat_the_heap_baseline() {
        let s = SystemState::initial(programs::stores(0, 3), programs::loads(3));
        let bytes = StateCodec::for_state(&s).encode(&s);
        let baseline = heap_state_bytes(&s);
        assert!(
            bytes.len() * 4 <= baseline,
            "expected >= 4x compression: {} packed vs {} heap",
            bytes.len(),
            baseline
        );
    }

    #[test]
    fn delta_against_self_is_tiny() {
        let codec = codec2();
        let s = codec.encode(&SystemState::initial(programs::store(7), programs::load()));
        let mut delta = Vec::new();
        codec.encode_delta(&s, &s, &mut delta).unwrap();
        // Empty bitmap + zero counter diff.
        assert_eq!(delta, vec![0, 0]);
        let mut back = Vec::new();
        codec.decode_delta(&s, &delta, &mut back).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn malformed_deltas_are_rejected() {
        let codec = codec2();
        let p = codec.encode(&SystemState::initial(programs::store(7), programs::load()));
        let c = codec.encode(&SystemState::initial(programs::store(8), programs::load()));
        let mut delta = Vec::new();
        codec.encode_delta(&p, &c, &mut delta).unwrap();
        let mut out = Vec::new();
        assert!(codec.decode_delta(&p, &delta[..delta.len() - 1], &mut out).is_err(), "truncated");
        let mut trailing = delta.clone();
        trailing.push(0);
        out.clear();
        assert!(codec.decode_delta(&p, &trailing, &mut out).is_err(), "trailing bytes");
        // A bitmap naming a segment past the device count.
        out.clear();
        assert!(codec.decode_delta(&p, &[0x40, 0], &mut out).is_err(), "bad bitmap");
    }
}
