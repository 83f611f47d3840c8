//! Little-endian binary codecs for checkpoint payloads.
//!
//! All encoders append to a caller-owned `Vec<u8>` (take it from
//! `pipad_tensor::take_byte_buf` so steady-state checkpoint writes stay on
//! the buffer pool); all decoders read from a bounds-checked [`Reader`]
//! and return a typed [`CkptError`] — never panic — on truncated or
//! malformed input. Floats travel as raw IEEE-754 bits, so values (NaNs
//! included) round-trip bit-exactly.

use crate::format::CkptError;
use pipad_gpu_sim::{DeviceClock, FaultStats, OpCounters, SimNanos};
use pipad_tensor::Matrix;

// ---- primitive encoders --------------------------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f32` as its raw IEEE-754 bits.
pub fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw IEEE-754 bits.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `bool` as one byte (`0`/`1`).
pub fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(v as u8);
}

/// Append a length-prefixed (`u32`) UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---- bounds-checked reader -----------------------------------------------

/// Sequential reader over a section payload. Every accessor is
/// bounds-checked and returns [`CkptError::Truncated`] instead of
/// panicking when the payload runs out.
pub struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `b`.
    pub fn new(b: &'a [u8]) -> Self {
        Reader { b, i: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.i
    }

    /// Take `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated {
                at: self.i,
                needed: n,
            });
        }
        let out = &self.b[self.i..self.i + n];
        self.i += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.get_bytes(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.get_bytes(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.get_bytes(8)?.try_into().unwrap()))
    }

    /// Read a `u64` and convert to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.get_u64()?).map_err(|_| CkptError::Malformed("usize overflow"))
    }

    /// Read an `f32` from its raw bits.
    pub fn get_f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_le_bytes(self.get_bytes(4)?.try_into().unwrap()))
    }

    /// Read an `f64` from its raw bits.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(self.get_bytes(8)?.try_into().unwrap()))
    }

    /// Read a `bool` (rejecting anything but `0`/`1`).
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Malformed("bool byte out of range")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, CkptError> {
        let n = self.get_u32()? as usize;
        std::str::from_utf8(self.get_bytes(n)?).map_err(|_| CkptError::Malformed("invalid UTF-8"))
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::Malformed("trailing bytes in section"))
        }
    }
}

// ---- typed codecs ---------------------------------------------------------

/// Encode a counted list: the length (`u64`), then every item via `put`.
pub fn put_list<T>(buf: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u64(buf, items.len() as u64);
    for item in items {
        put(buf, item);
    }
}

/// Decode a [`put_list`] payload. The length comes from the file, so the
/// up-front reservation is capped by the bytes actually left to read.
pub fn get_list<T>(
    r: &mut Reader<'_>,
    mut get: impl FnMut(&mut Reader<'_>) -> Result<T, CkptError>,
) -> Result<Vec<T>, CkptError> {
    let n = r.get_usize()?;
    let mut items = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        items.push(get(r)?);
    }
    Ok(items)
}

/// Encode a dense matrix: `rows`, `cols` (`u64` each) then row-major raw
/// `f32` bits.
pub fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    buf.reserve(4 * m.len());
    for &v in m.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode a [`put_matrix`] payload. The element buffer comes from the
/// tensor buffer pool (`take_buf`), matching every other hot-path matrix
/// construction.
pub fn get_matrix(r: &mut Reader<'_>) -> Result<Matrix, CkptError> {
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or(CkptError::Malformed("matrix shape overflow"))?;
    let raw = r.get_bytes(4 * n)?;
    let mut data = pipad_tensor::take_buf(n);
    for chunk in raw.chunks_exact(4) {
        data.push(f32::from_le_bytes(chunk.try_into().unwrap()));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Encode the device's monotonic op counters.
pub fn put_op_counters(buf: &mut Vec<u8>, c: &OpCounters) {
    put_u64(buf, c.allocs);
    put_u64(buf, c.copy_ops);
    put_u64(buf, c.launches);
}

/// Decode a [`put_op_counters`] payload. `eager_launches` is not encoded
/// (no fault plan addresses it): it decodes as 0.
pub fn get_op_counters(r: &mut Reader<'_>) -> Result<OpCounters, CkptError> {
    Ok(OpCounters {
        allocs: r.get_u64()?,
        copy_ops: r.get_u64()?,
        launches: r.get_u64()?,
        eager_launches: 0,
    })
}

/// Encode fault-injection statistics.
pub fn put_fault_stats(buf: &mut Vec<u8>, s: &FaultStats) {
    put_u64(buf, s.oom_injected);
    put_u64(buf, s.transfer_injected);
    put_u64(buf, s.straggler_injected);
    put_u64(buf, s.poison_injected);
    put_u64(buf, s.crash_injected);
}

/// Decode a [`put_fault_stats`] payload.
pub fn get_fault_stats(r: &mut Reader<'_>) -> Result<FaultStats, CkptError> {
    Ok(FaultStats {
        oom_injected: r.get_u64()?,
        transfer_injected: r.get_u64()?,
        straggler_injected: r.get_u64()?,
        poison_injected: r.get_u64()?,
        crash_injected: r.get_u64()?,
    })
}

/// Encode the device clock (lane/stream cursors, op counters, host lane).
pub fn put_device_clock(buf: &mut Vec<u8>, c: &DeviceClock) {
    put_u64(buf, c.compute.as_nanos());
    put_u64(buf, c.h2d.as_nanos());
    put_u64(buf, c.d2h.as_nanos());
    put_u64(buf, c.streams.len() as u64);
    for s in &c.streams {
        put_u64(buf, s.as_nanos());
    }
    put_op_counters(buf, &c.counters);
    put_u64(buf, c.host.as_nanos());
}

/// Decode a [`put_device_clock`] payload.
pub fn get_device_clock(r: &mut Reader<'_>) -> Result<DeviceClock, CkptError> {
    let compute = SimNanos::from_nanos(r.get_u64()?);
    let h2d = SimNanos::from_nanos(r.get_u64()?);
    let d2h = SimNanos::from_nanos(r.get_u64()?);
    let n = r.get_usize()?;
    if n > r.remaining() / 8 {
        return Err(CkptError::Malformed("stream count exceeds payload"));
    }
    let mut streams = Vec::with_capacity(n);
    for _ in 0..n {
        streams.push(SimNanos::from_nanos(r.get_u64()?));
    }
    Ok(DeviceClock {
        compute,
        h2d,
        d2h,
        streams,
        counters: get_op_counters(r)?,
        host: SimNanos::from_nanos(r.get_u64()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, u64::MAX);
        put_f32(&mut buf, f32::NAN);
        put_f64(&mut buf, -0.0);
        put_bool(&mut buf, true);
        put_str(&mut buf, "tüner");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert!(r.get_f32().unwrap().is_nan());
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "tüner");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_fail_typed_not_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert!(matches!(r.get_u64(), Err(CkptError::Truncated { .. })));
        let mut r = Reader::new(&buf);
        r.get_u64().unwrap();
        assert!(matches!(r.get_str(), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn matrix_round_trips_bit_exactly() {
        let m = Matrix::from_vec(2, 3, vec![1.5, -0.0, f32::NAN, 3.25e-20, 7.0, f32::MIN]);
        let mut buf = Vec::new();
        put_matrix(&mut buf, &m);
        let mut r = Reader::new(&buf);
        let back = get_matrix(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!((back.rows(), back.cols()), (2, 3));
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn typed_state_round_trips() {
        let mut buf = Vec::new();
        let clock = DeviceClock {
            compute: SimNanos::from_nanos(10),
            h2d: SimNanos::from_nanos(20),
            d2h: SimNanos::from_nanos(30),
            streams: vec![SimNanos::from_nanos(40), SimNanos::from_nanos(50)],
            counters: OpCounters {
                allocs: 1,
                copy_ops: 2,
                launches: u64::MAX,
                eager_launches: 0,
            },
            host: SimNanos::from_nanos(60),
        };
        put_device_clock(&mut buf, &clock);
        let stats = FaultStats {
            oom_injected: 1,
            transfer_injected: 2,
            straggler_injected: 3,
            poison_injected: 4,
            crash_injected: 5,
        };
        put_fault_stats(&mut buf, &stats);
        let mut r = Reader::new(&buf);
        assert_eq!(get_device_clock(&mut r).unwrap(), clock);
        assert_eq!(get_fault_stats(&mut r).unwrap(), stats);
        r.finish().unwrap();
    }
}
