//! The one bounds-checked reader for bytes a resume trusts: the `G6CK`
//! checkpoint and `G6SN` snapshot containers (crate `grape6-sim`) and the
//! engines' opaque
//! [`checkpoint_state`](crate::engine::ForceEngine::checkpoint_state) blobs
//! are all read through a [`Fields`], never at an offset a decoder computed.

/// A cursor over untrusted bytes, read front to back as little-endian
/// fields. `section` names the part of the format being read, for errors;
/// [`Fields::section`] moves on to the next part.
#[derive(Debug)]
pub struct Fields<'a> {
    rest: &'a [u8],
    section: &'static str,
}

impl<'a> Fields<'a> {
    /// Read `bytes`, starting in `section`.
    pub fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Self { rest: bytes, section }
    }

    /// Name the part of the format the reads that follow belong to.
    pub fn section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn truncated(&self) -> String {
        format!("truncated {}", self.section)
    }

    /// The next `len` bytes. A length beyond the address space is truncated
    /// like any other, so a hostile `count · size` may saturate instead of
    /// wrapping.
    pub fn take(&mut self, len: u64) -> Result<&'a [u8], String> {
        match usize::try_from(len) {
            Ok(len) if len <= self.rest.len() => {
                let (head, rest) = self.rest.split_at(len);
                self.rest = rest;
                Ok(head)
            }
            _ => Err(self.truncated()),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, rest) = self.rest.split_first_chunk().ok_or_else(|| self.truncated())?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        self.array().map(u8::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next little-endian `f64`, bit for bit.
    pub fn f64(&mut self) -> Result<f64, String> {
        self.array().map(f64::from_le_bytes)
    }

    /// A `u32` length, then that many bytes.
    pub fn prefixed(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()?;
        self.take(len.into())
    }

    /// The end of the input: refuses any byte not read.
    pub fn finish(self) -> Result<(), String> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after {}", self.section)),
        }
    }
}

/// The little-endian words of one fixed-size record, for a record loop whose
/// body [`Fields::take`] has already bounds-checked as one slice (carved into
/// records with `as_chunks`, so no per-field check is left to make).
#[inline]
pub fn words<const N: usize>(record: &[[u8; 8]; N]) -> [u64; N] {
    record.map(u64::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_little_endian_fields_in_order_then_finishes() {
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&0xdead_beef_u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-0.0f64).to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"abcde");
        let mut f = Fields::new(&bytes, "test");
        assert_eq!(f.u8(), Ok(7));
        assert_eq!(f.u32(), Ok(0xdead_beef));
        assert_eq!(f.u64(), Ok(u64::MAX));
        assert_eq!(f.f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(f.prefixed(), Ok(&b"abc"[..]));
        assert_eq!(f.remaining(), 2);
        assert_eq!(f.take(2), Ok(&b"de"[..]));
        assert_eq!(f.finish(), Ok(()));
    }

    #[test]
    fn every_short_read_is_truncated_naming_the_section() {
        let bytes = [1u8, 2, 3];
        let mut f = Fields::new(&bytes, "header");
        assert_eq!(f.u32(), Err("truncated header".into()));
        f.section("body");
        assert_eq!(f.u64(), Err("truncated body".into()));
        assert_eq!(f.f64(), Err("truncated body".into()));
        assert_eq!(f.take(4), Err("truncated body".into()));
        assert_eq!(f.take(u64::MAX), Err("truncated body".into()));
        // A failed read consumes nothing.
        assert_eq!(f.remaining(), 3);
        assert_eq!(f.prefixed(), Err("truncated body".into()));
        assert_eq!(Fields::new(&[9, 0, 0, 0, 1], "blob").prefixed(), Err("truncated blob".into()));
        assert_eq!(Fields::new(&[], "tag").u8(), Err("truncated tag".into()));
    }

    #[test]
    fn finish_refuses_bytes_not_read() {
        let mut f = Fields::new(&[0; 10], "state");
        assert_eq!(f.u64(), Ok(0));
        assert_eq!(f.finish(), Err("2 trailing bytes after state".into()));
    }

    #[test]
    fn words_are_the_records_little_endian_u64s() {
        let record = [1u64.to_le_bytes(), (u64::MAX - 1).to_le_bytes()];
        assert_eq!(words(&record), [1, u64::MAX - 1]);
    }
}
