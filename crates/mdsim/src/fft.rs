//! Complex FFT, written from scratch (no FFT crate): iterative radix-2
//! Cooley-Tukey for power-of-two lengths, plus a 3-D transform over a
//! flattened row-major grid. This is the substrate PME needs (the paper's
//! GROMACS build used fftpack; §2.1 notes PME's FFT causes the heavy
//! communication the scaling experiments observe).

/// A complex number; minimal, only what the FFT and PME need.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Construct from parts.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{i theta}`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    #[inline]
    fn add(self, o: Self) -> Self {
        Self {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }

    #[inline]
    fn sub(self, o: Self) -> Self {
        Self {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }

    /// Complex multiplication.
    #[allow(clippy::should_implement_trait)] // add/sub/mul stay inherent on purpose
    #[inline]
    pub fn mul(self, o: Self) -> Self {
        Self {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

/// In-place forward FFT (`X[k] = sum_n x[n] e^{-2pi i nk/N}`) of a
/// power-of-two-length buffer.
pub fn fft(buf: &mut [Complex]) {
    fft_dir(buf, false);
}

/// In-place inverse FFT including the `1/N` normalization.
pub fn ifft(buf: &mut [Complex]) {
    fft_dir(buf, true);
    let inv = 1.0 / buf.len() as f64;
    for v in buf.iter_mut() {
        *v = v.scale(inv);
    }
}

fn fft_dir(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        for chunk in buf.chunks_mut(len) {
            let mut w = Complex::new(1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half].mul(w);
                chunk[k] = u.add(v);
                chunk[k + half] = u.sub(v);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// 3-D grid of complex values, row-major `[nx][ny][nz]`.
#[derive(Debug, Clone)]
pub struct Grid3 {
    /// Grid dimensions.
    pub dims: [usize; 3],
    /// Flattened data, `data[(ix * ny + iy) * nz + iz]`.
    pub data: Vec<Complex>,
}

impl Grid3 {
    /// Zero-filled grid; all dims must be powers of two.
    pub fn new(dims: [usize; 3]) -> Self {
        for d in dims {
            assert!(d.is_power_of_two(), "grid dims must be powers of two");
        }
        Self {
            dims,
            data: vec![Complex::ZERO; dims[0] * dims[1] * dims[2]],
        }
    }

    /// Flat index of `(ix, iy, iz)`.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.dims[1] + iy) * self.dims[2] + iz
    }

    /// Forward 3-D FFT in place.
    pub fn fft3(&mut self) {
        self.transform(false);
    }

    /// Inverse 3-D FFT in place (normalized).
    pub fn ifft3(&mut self) {
        self.transform(true);
        let inv = 1.0 / (self.dims[0] * self.dims[1] * self.dims[2]) as f64;
        for v in &mut self.data {
            *v = v.scale(inv);
        }
    }

    #[allow(clippy::needless_range_loop)] // gather/scatter between strided grid and scratch
    fn transform(&mut self, inverse: bool) {
        let [nx, ny, nz] = self.dims;
        // z lines are contiguous.
        for line in self.data.chunks_mut(nz) {
            fft_dir(line, inverse);
        }
        // y lines.
        let mut scratch = vec![Complex::ZERO; ny];
        for ix in 0..nx {
            for iz in 0..nz {
                for iy in 0..ny {
                    scratch[iy] = self.data[self.idx(ix, iy, iz)];
                }
                fft_dir(&mut scratch, inverse);
                for iy in 0..ny {
                    let id = self.idx(ix, iy, iz);
                    self.data[id] = scratch[iy];
                }
            }
        }
        // x lines.
        let mut scratch = vec![Complex::ZERO; nx];
        for iy in 0..ny {
            for iz in 0..nz {
                for ix in 0..nx {
                    scratch[ix] = self.data[self.idx(ix, iy, iz)];
                }
                fft_dir(&mut scratch, inverse);
                for ix in 0..nx {
                    let id = self.idx(ix, iy, iz);
                    self.data[id] = scratch[ix];
                }
            }
        }
    }
}

/// Naive DFT used as ground truth in tests.
pub fn dft_reference(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (j, &x) in input.iter().enumerate() {
                let w = Complex::cis(-2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64);
                acc = acc.add(x.mul(w));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "element {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn fft_matches_dft() {
        let input: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let want = dft_reference(&input);
        let mut got = input.clone();
        fft(&mut got);
        assert_close(&got, &want, 1e-9);
    }

    #[test]
    fn ifft_inverts_fft() {
        let input: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sqrt(), (i % 7) as f64))
            .collect();
        let mut buf = input.clone();
        fft(&mut buf);
        ifft(&mut buf);
        assert_close(&buf, &input, 1e-9);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut buf = vec![Complex::ZERO; 16];
        buf[0] = Complex::new(1.0, 0.0);
        fft(&mut buf);
        for v in &buf {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let input: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64 * 1.3).sin(), 0.0))
            .collect();
        let time_energy: f64 = input.iter().map(|c| c.norm2()).sum();
        let mut buf = input;
        fft(&mut buf);
        let freq_energy: f64 = buf.iter().map(|c| c.norm2()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9);
    }

    #[test]
    fn grid3_roundtrip() {
        let mut g = Grid3::new([8, 4, 16]);
        for (i, v) in g.data.iter_mut().enumerate() {
            *v = Complex::new((i % 13) as f64, (i % 5) as f64);
        }
        let orig = g.data.clone();
        g.fft3();
        g.ifft3();
        assert_close(&g.data, &orig, 1e-9);
    }

    #[test]
    fn grid3_plane_wave_is_single_mode() {
        let mut g = Grid3::new([8, 8, 8]);
        // x[n] = e^{2 pi i * 3 nx / 8}: forward FFT has one spike at kx=3
        // (sign convention: e^{+2pi i 3n/8} lands at bin N-3? No: with
        // X[k] = sum x[n] e^{-2pi i nk/N}, x[n]=e^{+2pi i 3n/8} peaks at
        // k=3).
        for ix in 0..8 {
            for iy in 0..8 {
                for iz in 0..8 {
                    let id = g.idx(ix, iy, iz);
                    g.data[id] = Complex::cis(2.0 * std::f64::consts::PI * 3.0 * ix as f64 / 8.0);
                }
            }
        }
        g.fft3();
        for ix in 0..8 {
            for iy in 0..8 {
                for iz in 0..8 {
                    let v = g.data[g.idx(ix, iy, iz)];
                    let expect = if ix == 3 && iy == 0 && iz == 0 {
                        512.0
                    } else {
                        0.0
                    };
                    assert!(
                        (v.re - expect).abs() < 1e-8 && v.im.abs() < 1e-8,
                        "({ix},{iy},{iz}): {v:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let mut buf = vec![Complex::ZERO; 12];
        fft(&mut buf);
    }
}
