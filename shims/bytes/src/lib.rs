//! Offline shim for `bytes`: a shared immutable byte buffer with a read
//! cursor (`Bytes`), a growable write buffer (`BytesMut`), and the
//! little-endian `Buf`/`BufMut` accessors the wire model uses.
//!
//! As upstream, `Bytes::from(Vec<u8>)` and [`BytesMut::freeze`] take the
//! vector's allocation over without copying a byte, and [`Bytes::slice`] /
//! [`Buf::copy_to_bytes`] return views that share it: a checkpoint encoded
//! into a `Vec` or read with `fs::read` is held once, never twice.

#![forbid(unsafe_code)]
use std::sync::Arc;

/// Cheaply clonable immutable byte buffer with an internal read cursor.
///
/// `len()`/`remaining()` report the unread suffix, matching upstream
/// semantics where reads consume the front of the buffer. Clones and views
/// share one allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    /// Read cursor: the unread bytes are `data[pos..end]`.
    pos: usize,
    /// End of this view within `data`.
    end: usize,
}

impl Bytes {
    /// A buffer over static data.
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Unread bytes left.
    pub fn len(&self) -> usize {
        self.end - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unread suffix as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..self.end]
    }

    /// Copy the unread suffix into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// A view of `range` of the unread suffix, sharing this allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} unread bytes",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            pos: self.pos + range.start,
            end: self.pos + range.end,
        }
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(self.len() >= n, "buffer underflow: need {n}, have {}", self.len());
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes the vector's allocation over: no byte is copied.
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: Arc::new(v), pos: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::from_static(v)
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} unread)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

macro_rules! get_le {
    ($($name:ident -> $ty:ty),+ $(,)?) => {
        $(
            /// Read a little-endian value, advancing the cursor.
            fn $name(&mut self) -> $ty;
        )+
    };
}

macro_rules! get_le_impl {
    ($($name:ident -> $ty:ty),+ $(,)?) => {
        $(
            fn $name(&mut self) -> $ty {
                const N: usize = std::mem::size_of::<$ty>();
                let mut b = [0u8; N];
                b.copy_from_slice(self.take(N));
                <$ty>::from_le_bytes(b)
            }
        )+
    };
}

/// Read access to a byte buffer (little-endian subset).
pub trait Buf {
    /// Unread bytes left.
    fn remaining(&self) -> usize;
    /// Whether any unread bytes are left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
    /// Skip `n` bytes.
    fn advance(&mut self, n: usize);
    /// Copy `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Split off the next `n` bytes as a [`Bytes`] (a shared view, as
    /// upstream), advancing the cursor.
    fn copy_to_bytes(&mut self, n: usize) -> Bytes;
    /// Read one byte.
    fn get_u8(&mut self) -> u8;
    get_le! {
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i32_le -> i32,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn advance(&mut self, n: usize) {
        let _ = self.take(n);
    }
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let n = dst.len();
        dst.copy_from_slice(self.take(n));
    }
    fn copy_to_bytes(&mut self, n: usize) -> Bytes {
        let start = self.pos;
        self.take(n);
        Bytes { data: Arc::clone(&self.data), pos: start, end: self.pos }
    }
    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }
    get_le_impl! {
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i32_le -> i32,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    }
}

/// Growable write buffer.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self { data: Vec::with_capacity(cap) }
    }

    /// Reserve room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freeze into an immutable [`Bytes`], moving the buffer (no copy).
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// The written bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

macro_rules! put_le {
    ($($name:ident($ty:ty)),+ $(,)?) => {
        $(
            /// Append a value in little-endian order.
            fn $name(&mut self, v: $ty);
        )+
    };
}

macro_rules! put_le_impl {
    ($($name:ident($ty:ty)),+ $(,)?) => {
        $(
            fn $name(&mut self, v: $ty) {
                self.data.extend_from_slice(&v.to_le_bytes());
            }
        )+
    };
}

/// Write access to a byte buffer (little-endian subset).
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    put_le! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
    put_le_impl! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

macro_rules! put_le_vec_impl {
    ($($name:ident($ty:ty)),+ $(,)?) => {
        $(
            fn $name(&mut self, v: $ty) {
                self.extend_from_slice(&v.to_le_bytes());
            }
        )+
    };
}

/// Plain `Vec<u8>` is a `BufMut` too, so encoders can stream into a reused
/// byte vector (e.g. the chunked checkpoint writer) without going through
/// `BytesMut`.
impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    put_le_vec_impl! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i32_le(i32),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"HDR!");
        w.put_u32_le(7);
        w.put_u64_le(u64::MAX - 3);
        w.put_i64_le(-12345);
        w.put_f32_le(1.5);
        w.put_f64_le(std::f64::consts::PI);
        let mut r = w.freeze();
        assert_eq!(r.len(), 4 + 4 + 8 + 8 + 4 + 8);
        let mut hdr = [0u8; 4];
        r.copy_to_slice(&mut hdr);
        assert_eq!(&hdr, b"HDR!");
        assert_eq!(r.get_u32_le(), 7);
        assert_eq!(r.get_u64_le(), u64::MAX - 3);
        assert_eq!(r.get_i64_le(), -12345);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), std::f64::consts::PI);
        assert!(r.is_empty());
    }

    #[test]
    fn clone_is_independent_cursor() {
        let mut a = Bytes::from(vec![1u8, 2, 3, 4]);
        let mut b = a.clone();
        assert_eq!(a.get_u8(), 1);
        assert_eq!(b.remaining(), 4);
        assert_eq!(b.get_u8(), 1);
        assert_eq!(a.remaining(), 3);
    }

    #[test]
    fn from_vec_and_freeze_keep_the_allocation_and_clones_share_it() {
        let v: Vec<u8> = (0..=255).collect();
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> moved, not copied");
        assert_eq!(b.clone().as_ptr(), ptr, "a clone shares the buffer");
        let mut w = BytesMut::with_capacity(8);
        w.put_u64_le(7);
        let ptr = w.as_ptr();
        assert_eq!(w.freeze().as_ptr(), ptr, "freeze moved, not copied");
    }

    #[test]
    fn views_read_the_same_content_as_copies() {
        let v: Vec<u8> = (0..64).map(|k| (k * 7 + 3) as u8).collect();
        let mut b = Bytes::from(v.clone());
        assert_eq!((b.len(), b.to_vec()), (64, v.clone()));
        assert_eq!(b.get_u32_le(), u32::from_le_bytes(v[0..4].try_into().unwrap()));
        // Views are relative to the unread suffix and share the allocation.
        let s = b.slice(2..10);
        assert_eq!((s.len(), s.to_vec()), (8, v[6..14].to_vec()));
        assert_eq!(s.as_ptr(), b.as_ptr().wrapping_add(2));
        let mut part = b.copy_to_bytes(12);
        assert_eq!(part.to_vec(), v[4..16].to_vec());
        assert_eq!((b.len(), b.as_slice()), (48, &v[16..]));
        // A view has its own cursor and its own end.
        assert_eq!(part.get_u64_le(), u64::from_le_bytes(v[4..12].try_into().unwrap()));
        assert_eq!(part.to_vec(), v[12..16].to_vec());
        assert_eq!(part.slice(1..3).to_vec(), v[13..15].to_vec());
        assert!(part.slice(4..4).is_empty());
        let mut rest = [0u8; 4];
        part.copy_to_slice(&mut rest);
        assert!(part.is_empty());
        assert_eq!(b.copy_to_bytes(0).len(), 0);
        assert_eq!(Bytes::from_static(b"abc").slice(1..3), Bytes::from(b"bc".to_vec()));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn copy_to_bytes_past_the_end_panics() {
        let mut b = Bytes::from(vec![1u8, 2, 3]);
        let _ = b.copy_to_bytes(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1u8, 2, 3]).slice(1..4);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from_static(b"ab");
        let _ = b.get_u32_le();
    }
}
