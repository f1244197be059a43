//! Fast trajectory output (§3.7).
//!
//! Large-scale runs spend up to 30% of wall time writing particle
//! positions. The paper's two fixes, both reimplemented here:
//!
//! 1. replace `fwrite`-per-field with `read`/`write` through a large
//!    (20 MB) user-space buffer — [`BufferedWriter`];
//! 2. replace the C library's `%f` formatting with a purpose-built
//!    float-to-ASCII routine that handles exactly the fixed-precision
//!    positive/negative decimals a trajectory needs and nothing else
//!    ("it saves so much time in dealing with special cases such as
//!    illegal input, other format requests") — [`format_f32_fixed`].
//!
//! The formatter trades the last ulp of round-trip exactness for speed
//! ("significantly reduced with little accuracy sacrifice"): values are
//! rounded to the requested decimal places, which is also what the `.3f`
//! trajectory format of GROMACS does.

use std::io::{self, Write};

/// Default buffer size: the paper's 20 MB.
pub const DEFAULT_BUF_BYTES: usize = 20 * 1024 * 1024;

/// A large-buffer writer that only hits the OS when the buffer fills.
#[derive(Debug)]
pub struct BufferedWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    cap: usize,
    /// Number of flushes issued (for tests and cost models).
    pub flushes: u64,
    /// Flush attempts that hit an injected I/O fault and were retried
    /// (zero unless a fault plan is active).
    pub io_retries: u64,
}

impl<W: Write> BufferedWriter<W> {
    /// Wrap `inner` with the paper's 20 MB buffer.
    pub fn new(inner: W) -> Self {
        Self::with_capacity(inner, DEFAULT_BUF_BYTES)
    }

    /// Wrap `inner` with a custom buffer size.
    pub fn with_capacity(inner: W, cap: usize) -> Self {
        assert!(cap > 0);
        Self {
            inner,
            buf: Vec::with_capacity(cap.min(1 << 20)),
            cap,
            flushes: 0,
            io_retries: 0,
        }
    }

    /// Append one fixed-precision float and a separator.
    fn write_f32(&mut self, v: f32, decimals: u32, sep: u8) -> io::Result<()> {
        let mut scratch = [0u8; 32];
        let n = format_f32_fixed(v, decimals, &mut scratch);
        self.buf.extend_from_slice(&scratch[..n]);
        self.buf.push(sep);
        if self.buf.len() >= self.cap {
            self.flush()?;
        }
        Ok(())
    }

    /// Flush the buffer to the underlying writer. Injected I/O faults
    /// (an active `swfault` plan) are absorbed here with bounded retry:
    /// the buffered data survives a failed attempt, so a retried flush
    /// writes byte-identical output.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            let mut attempt = 0u32;
            while swfault::should(swfault::Site::IoError) {
                self.io_retries += 1;
                swprof::metrics::counter_add("fault.retries.io", 1);
                attempt += 1;
                if attempt >= swfault::retry::MAX_ATTEMPTS {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "injected trajectory write fault (retries exhausted)",
                    ));
                }
            }
            self.inner.write_all(&self.buf)?;
            self.buf.clear();
            self.flushes += 1;
        }
        self.inner.flush()
    }

    /// Consume, flushing remaining data.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush()?;
        Ok(self.inner)
    }
}

/// Format `v` with `decimals` fractional digits into `out`; returns the
/// byte length. Handles sign, rounding, and carry; no exponents, NaN or
/// infinity become `0.000...` (trajectory fields are always finite).
pub fn format_f32_fixed(v: f32, decimals: u32, out: &mut [u8]) -> usize {
    debug_assert!(out.len() >= 16 + decimals as usize);
    let mut pos = 0;
    let mut v = if v.is_finite() { v as f64 } else { 0.0 };
    if v.is_sign_negative() && v != 0.0 {
        out[pos] = b'-';
        pos += 1;
        v = -v;
    }
    let scale = 10u64.pow(decimals) as f64;
    // Round half away from zero at the last kept digit.
    let scaled = (v * scale + 0.5) as u64;
    let int_part = scaled / 10u64.pow(decimals);
    let frac_part = scaled % 10u64.pow(decimals);
    pos += write_u64(int_part, &mut out[pos..]);
    if decimals > 0 {
        out[pos] = b'.';
        pos += 1;
        // Zero-padded fraction.
        let mut div = 10u64.pow(decimals - 1);
        let mut f = frac_part;
        while div > 0 {
            out[pos] = b'0' + (f / div) as u8;
            f %= div;
            div /= 10;
            pos += 1;
        }
    }
    pos
}

/// Write a decimal `u64`; returns the byte length.
fn write_u64(mut v: u64, out: &mut [u8]) -> usize {
    if v == 0 {
        out[0] = b'0';
        return 1;
    }
    let mut tmp = [0u8; 20];
    let mut n = 0;
    while v > 0 {
        tmp[n] = b'0' + (v % 10) as u8;
        v /= 10;
        n += 1;
    }
    for i in 0..n {
        out[i] = tmp[n - 1 - i];
    }
    n
}

/// Write a whole frame of positions (x y z per line, `.3f`) through the
/// buffered writer — the §3.7 trajectory path.
pub fn write_frame<W: Write>(
    w: &mut BufferedWriter<W>,
    positions: &[mdsim::Vec3],
) -> io::Result<()> {
    for p in positions {
        w.write_f32(p.x, 3, b' ')?;
        w.write_f32(p.y, 3, b' ')?;
        w.write_f32(p.z, 3, b'\n')?;
    }
    Ok(())
}

/// Parse frames written by [`write_frame`] back into position vectors:
/// `n_particles` lines of `x y z` per frame, as many frames as the input
/// holds. The analysis pipeline's way back from a trajectory file.
pub fn read_frames<R: std::io::BufRead>(
    reader: R,
    n_particles: usize,
) -> io::Result<Vec<Vec<mdsim::Vec3>>> {
    let mut frames = Vec::new();
    let mut current: Vec<mdsim::Vec3> = Vec::with_capacity(n_particles);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let mut cols = line.split_ascii_whitespace();
        let mut next = || -> io::Result<f32> {
            cols.next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "short line"))?
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        };
        let (x, y, z) = (next()?, next()?, next()?);
        current.push(mdsim::vec3(x, y, z));
        if current.len() == n_particles {
            frames.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "trailing partial frame",
        ));
    }
    Ok(frames)
}

/// I/O cost model for the simulated engine (MPE-side, per frame):
/// cycles to format and write `n_values` floats, with or without the
/// §3.7 optimizations.
pub mod cost {
    /// MPE cycles per value with C-library `fprintf`-style formatting
    /// and small `fwrite`s.
    pub const STD_CYCLES_PER_VALUE: u64 = 400;
    /// MPE cycles per value with the custom formatter + 20 MB buffer.
    pub const FAST_CYCLES_PER_VALUE: u64 = 40;

    /// Cycles for one frame of `n_values` formatted floats.
    pub fn frame_cycles(n_values: u64, fast: bool) -> u64 {
        n_values
            * if fast {
                FAST_CYCLES_PER_VALUE
            } else {
                STD_CYCLES_PER_VALUE
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(v: f32, d: u32) -> String {
        let mut buf = [0u8; 48];
        let n = format_f32_fixed(v, d, &mut buf);
        String::from_utf8(buf[..n].to_vec()).unwrap()
    }

    #[test]
    fn formats_match_std_fixed() {
        for &(v, d) in &[
            (0.0f32, 3u32),
            (1.5, 3),
            (-1.5, 3),
            (123.456, 3),
            (-0.001, 3),
            (99.9999, 3),
            (0.125, 4),
            (-273.15, 2),
        ] {
            let got = fmt(v, d);
            let want = format!("{:.*}", d as usize, v);
            assert_eq!(got, want, "v={v} d={d}");
        }
    }

    #[test]
    fn rounding_carries_into_integer_part() {
        assert_eq!(fmt(0.99951, 3), "1.000");
        assert_eq!(fmt(9.9999, 3), "10.000");
        assert_eq!(fmt(-9.9999, 3), "-10.000");
    }

    #[test]
    fn ties_round_away_from_zero() {
        // Deliberate divergence from the C library's banker's rounding —
        // part of the documented "little accuracy sacrifice" of §3.7.
        assert_eq!(fmt(2.5, 0), "3");
        assert_eq!(fmt(-2.5, 0), "-3");
    }

    #[test]
    fn random_values_agree_with_std_within_one_ulp_of_last_digit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..2000 {
            let v: f32 = rng.gen_range(-1000.0..1000.0);
            let got: f64 = fmt(v, 3).parse().unwrap();
            let want: f64 = format!("{v:.3}").parse().unwrap();
            // Allow a half-ulp disagreement in the final digit (ties).
            assert!((got - want).abs() <= 0.001 + 1e-9, "v={v}: {got} vs {want}");
        }
    }

    #[test]
    fn nonfinite_values_become_zero() {
        assert_eq!(fmt(f32::NAN, 3), "0.000");
        assert_eq!(fmt(f32::INFINITY, 3), "0.000");
    }

    #[test]
    fn buffered_writer_batches_flushes() {
        let sink: Vec<u8> = Vec::new();
        let mut w = BufferedWriter::with_capacity(sink, 1024);
        for i in 0..100 {
            w.write_f32(i as f32, 3, b'\n').unwrap();
        }
        let flushes_before_end = w.flushes;
        let inner = w.into_inner().unwrap();
        assert!(
            flushes_before_end <= 1,
            "flushed {flushes_before_end} times"
        );
        let text = String::from_utf8(inner).unwrap();
        assert_eq!(text.lines().count(), 100);
        assert!(text.starts_with("0.000\n1.000\n"));
    }

    #[test]
    fn write_frame_emits_three_columns() {
        let sink: Vec<u8> = Vec::new();
        let mut w = BufferedWriter::with_capacity(sink, 1 << 20);
        let pos = vec![mdsim::vec3(1.0, 2.0, 3.0), mdsim::vec3(-4.5, 0.0, 9.25)];
        write_frame(&mut w, &pos).unwrap();
        let text = String::from_utf8(w.into_inner().unwrap()).unwrap();
        assert_eq!(text, "1.000 2.000 3.000\n-4.500 0.000 9.250\n");
    }

    #[test]
    fn cost_model_favors_fast_path() {
        assert!(cost::frame_cycles(1000, true) * 5 < cost::frame_cycles(1000, false));
    }

    #[test]
    fn frames_roundtrip_through_reader() {
        let pos1 = vec![mdsim::vec3(1.0, 2.0, 3.0), mdsim::vec3(-4.5, 0.0, 9.25)];
        let pos2 = vec![mdsim::vec3(0.125, 0.25, 0.5), mdsim::vec3(7.0, 8.0, 9.0)];
        let mut w = BufferedWriter::with_capacity(Vec::new(), 1 << 16);
        write_frame(&mut w, &pos1).unwrap();
        write_frame(&mut w, &pos2).unwrap();
        let bytes = w.into_inner().unwrap();
        let frames = read_frames(std::io::Cursor::new(bytes), 2).unwrap();
        assert_eq!(frames.len(), 2);
        for (frame, orig) in frames.iter().zip([&pos1, &pos2]) {
            for (a, b) in frame.iter().zip(orig.iter()) {
                assert!((a.x - b.x).abs() <= 5.01e-4);
                assert!((a.y - b.y).abs() <= 5.01e-4);
                assert!((a.z - b.z).abs() <= 5.01e-4);
            }
        }
    }

    #[test]
    fn partial_frame_is_an_error() {
        let text = "1.0 2.0 3.0\n4.0 5.0 6.0\n7.0 8.0 9.0\n";
        let err = read_frames(std::io::Cursor::new(text), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
