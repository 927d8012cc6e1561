//! Offline stand-in for `bytes`: the big-endian cursor reads the NetFlow
//! codec makes on `&[u8]` and the appends it makes on a growable buffer.
//! `Bytes` is an owned, immutable `Vec<u8>`; the cheap-clone sharing of the
//! real crate is not needed by any caller here.

use std::ops::Deref;

/// Read side: a cursor that consumes from the front.
pub trait Buf {
    /// Drops the next `cnt` bytes. Panics if fewer remain, like the real crate.
    fn advance(&mut self, cnt: usize);
    /// Copies the next `N` bytes out and advances past them. Panics if
    /// fewer remain.
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.split_at(N);
        *self = rest;
        head.try_into().expect("split_at yields exactly N bytes")
    }
}

/// Write side: append big-endian integers.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

/// Growable write buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Seals the buffer.
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.0.resize(self.0.len() + cnt, val);
    }
}

/// Immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}
