//! 3-component vector used for positions, velocities, and forces.
//!
//! GROMACS-style units throughout the crate: lengths in nm, time in ps,
//! masses in u (g/mol), energies in kJ/mol, charges in e. Mixed precision
//! follows the paper's benchmark setup (§4.1 "we use the mixed precision"):
//! coordinates and forces are `f32`, energy accumulation is `f64`.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-vector of `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

/// Shorthand constructor.
#[inline]
pub const fn vec3(x: f32, y: f32, z: f32) -> Vec3 {
    Vec3 { x, y, z }
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = vec3(0.0, 0.0, 0.0);

    /// Dot product.
    #[inline]
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(self) -> f32 {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm2().sqrt()
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        vec3(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Unit vector in this direction; zero vector stays zero.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        if n == 0.0 {
            Vec3::ZERO
        } else {
            self / n
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Vec3) -> Vec3 {
        vec3(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Vec3) -> Vec3 {
        vec3(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Access by axis index 0/1/2.
    #[inline]
    pub fn get(self, axis: usize) -> f32 {
        match axis {
            0 => self.x,
            1 => self.y,
            _ => self.z,
        }
    }

    /// Components as an array.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }

    /// Build from an array.
    #[inline]
    pub fn from_array(a: [f32; 3]) -> Vec3 {
        vec3(a[0], a[1], a[2])
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        vec3(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        vec3(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        vec3(-self.x, -self.y, -self.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f32) -> Vec3 {
        vec3(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f32) -> Vec3 {
        vec3(self.x / s, self.y / s, self.z / s)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_cross_norm() {
        let a = vec3(1.0, 0.0, 0.0);
        let b = vec3(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), vec3(0.0, 0.0, 1.0));
        assert_eq!(vec3(3.0, 4.0, 0.0).norm(), 5.0);
    }

    #[test]
    fn arithmetic() {
        let a = vec3(1.0, 2.0, 3.0);
        let b = vec3(4.0, 5.0, 6.0);
        assert_eq!(a + b, vec3(5.0, 7.0, 9.0));
        assert_eq!(b - a, vec3(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, vec3(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, vec3(0.5, 1.0, 1.5));
        assert_eq!(-a, vec3(-1.0, -2.0, -3.0));
    }

    #[test]
    fn normalized_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let n = vec3(0.0, 0.0, 2.0).normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn axis_access_and_array_roundtrip() {
        let v = vec3(7.0, 8.0, 9.0);
        assert_eq!(v.get(0), 7.0);
        assert_eq!(v.get(2), 9.0);
        assert_eq!(Vec3::from_array(v.to_array()), v);
    }
}
