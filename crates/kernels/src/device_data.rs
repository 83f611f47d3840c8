//! Device-resident data: host-side values paired with a device allocation.
//!
//! The simulator tracks *bytes*, not contents; each wrapper owns a
//! [`BufferId`] whose size matches what the real structure would occupy in
//! HBM. Buffers must be freed explicitly through the owning [`Gpu`] —
//! dropping a wrapper without freeing leaks simulated memory, which the
//! tuner's peak statistics would then overstate (tests assert against this).

use pipad_gpu_sim::{BufferId, Gpu, OomError};
use pipad_sparse::{Csr, SlicedCsr};
use pipad_tensor::Matrix;
use std::rc::Rc;

/// A dense matrix resident on the device.
#[derive(Debug)]
pub struct DeviceMatrix {
    host: Matrix,
    buf: BufferId,
}

impl DeviceMatrix {
    /// Allocate device memory for `m` (no transfer charged — use
    /// `transfer::upload_matrix` when the bytes cross PCIe).
    pub fn alloc(gpu: &mut Gpu, m: Matrix) -> Result<Self, OomError> {
        Self::alloc_labeled(gpu, m, "device_matrix")
    }

    /// [`DeviceMatrix::alloc`] with an OOM-attribution label.
    pub fn alloc_labeled(gpu: &mut Gpu, m: Matrix, label: &'static str) -> Result<Self, OomError> {
        let buf = gpu.alloc_labeled(m.bytes(), label)?;
        Ok(DeviceMatrix { host: m, buf })
    }

    #[inline]
    /// Host-side view of the values.
    pub fn host(&self) -> &Matrix {
        &self.host
    }

    #[inline]
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.host.rows()
    }

    #[inline]
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.host.cols()
    }

    #[inline]
    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.host.bytes()
    }

    /// Replace contents in place (same shape — used by optimizer updates).
    /// The displaced host buffer goes back to the buffer pool.
    pub fn store(&mut self, m: Matrix) {
        assert_eq!(self.host.shape(), m.shape(), "store shape mismatch");
        std::mem::replace(&mut self.host, m).recycle();
    }

    /// Release the device allocation, returning the host values.
    pub fn free(self, gpu: &mut Gpu) -> Matrix {
        gpu.free(self.buf);
        self.host
    }

    /// Release the device allocation *and* recycle the host buffer into
    /// the buffer pool — the end-of-life path for per-frame temporaries.
    pub fn release(self, gpu: &mut Gpu) {
        self.free(gpu).recycle();
    }
}

/// A CSR adjacency resident on the device.
#[derive(Debug)]
pub struct DeviceCsr {
    csr: Rc<Csr>,
    /// `None` for non-owning handles over already-resident adjacency
    /// (see [`DeviceCsr::resident`]).
    buf: Option<BufferId>,
    /// GE-SpMM also keeps the CSC (transpose) resident for backward.
    csc_buf: Option<BufferId>,
}

impl DeviceCsr {
    /// Alloc.
    pub fn alloc(gpu: &mut Gpu, csr: Rc<Csr>, with_csc: bool) -> Result<Self, OomError> {
        let bytes = csr.bytes();
        let buf = gpu.alloc_labeled(bytes, "adjacency_csr")?;
        let csc_buf = if with_csc {
            match gpu.alloc_labeled(bytes, "adjacency_csc") {
                Ok(b) => Some(b),
                Err(e) => {
                    gpu.free(buf);
                    return Err(e);
                }
            }
        } else {
            None
        };
        Ok(DeviceCsr {
            csr,
            buf: Some(buf),
            csc_buf,
        })
    }

    /// Non-owning handle over adjacency that is already device-resident
    /// (its allocation is owned elsewhere, e.g. by a trainer's partition
    /// cache). Kernels can launch against it; `free` releases nothing.
    pub fn resident(csr: Rc<Csr>) -> Self {
        DeviceCsr {
            csr,
            buf: None,
            csc_buf: None,
        }
    }

    #[inline]
    /// Csr.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    #[inline]
    /// Clone the shared handle.
    pub fn share(&self) -> Rc<Csr> {
        Rc::clone(&self.csr)
    }

    /// Device bytes occupied (doubled when the CSC copy is resident).
    pub fn bytes(&self) -> u64 {
        self.csr.bytes() * if self.csc_buf.is_some() { 2 } else { 1 }
    }

    /// Release the device allocation.
    pub fn free(self, gpu: &mut Gpu) {
        if let Some(b) = self.buf {
            gpu.free(b);
        }
        if let Some(b) = self.csc_buf {
            gpu.free(b);
        }
    }
}

/// A sliced-CSR adjacency resident on the device.
#[derive(Debug)]
pub struct DeviceSliced {
    sliced: Rc<SlicedCsr>,
    /// `None` for non-owning handles (see [`DeviceSliced::resident`]).
    buf: Option<BufferId>,
}

impl DeviceSliced {
    /// Alloc.
    pub fn alloc(gpu: &mut Gpu, sliced: Rc<SlicedCsr>) -> Result<Self, OomError> {
        let buf = gpu.alloc_labeled(sliced.bytes(), "adjacency_sliced")?;
        Ok(DeviceSliced {
            sliced,
            buf: Some(buf),
        })
    }

    /// Non-owning handle over an already-resident sliced adjacency.
    pub fn resident(sliced: Rc<SlicedCsr>) -> Self {
        DeviceSliced { sliced, buf: None }
    }

    #[inline]
    /// Sliced.
    pub fn sliced(&self) -> &SlicedCsr {
        &self.sliced
    }

    #[inline]
    /// Clone the shared handle.
    pub fn share(&self) -> Rc<SlicedCsr> {
        Rc::clone(&self.sliced)
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        self.sliced.bytes()
    }

    /// Release the device allocation.
    pub fn free(self, gpu: &mut Gpu) {
        if let Some(b) = self.buf {
            gpu.free(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;

    #[test]
    fn matrix_alloc_free_accounts_bytes() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let m = Matrix::zeros(10, 10);
        let dm = DeviceMatrix::alloc(&mut gpu, m).unwrap();
        assert_eq!(gpu.mem().in_use(), 400);
        let back = dm.free(&mut gpu);
        assert_eq!(back.shape(), (10, 10));
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn csr_with_csc_doubles_footprint() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let csr = Rc::new(Csr::from_edges(4, 4, &[(0, 1), (1, 0), (2, 3)]));
        let single = DeviceCsr::alloc(&mut gpu, Rc::clone(&csr), false).unwrap();
        let used_single = gpu.mem().in_use();
        let double = DeviceCsr::alloc(&mut gpu, Rc::clone(&csr), true).unwrap();
        assert_eq!(gpu.mem().in_use() - used_single, used_single * 2);
        assert_eq!(double.bytes(), 2 * single.bytes());
        single.free(&mut gpu);
        double.free(&mut gpu);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn csc_alloc_failure_rolls_back() {
        let csr = Rc::new(Csr::from_edges(4, 4, &[(0, 1), (1, 0), (2, 3)]));
        // capacity fits one copy but not two
        let mut gpu = Gpu::new(DeviceConfig::with_capacity(csr.bytes() + 4));
        assert!(DeviceCsr::alloc(&mut gpu, Rc::clone(&csr), true).is_err());
        assert_eq!(gpu.mem().in_use(), 0, "partial alloc must roll back");
    }

    #[test]
    fn sliced_footprint_matches_formula() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let csr = Csr::from_edges(4, 4, &[(0, 1), (1, 0), (2, 3)]);
        let sliced = Rc::new(SlicedCsr::from_csr(&csr));
        let ds = DeviceSliced::alloc(&mut gpu, Rc::clone(&sliced)).unwrap();
        assert_eq!(gpu.mem().in_use(), sliced.bytes());
        ds.free(&mut gpu);
        assert_eq!(gpu.mem().in_use(), 0);
    }

    #[test]
    fn store_keeps_allocation() {
        let mut gpu = Gpu::new(DeviceConfig::v100());
        let mut dm = DeviceMatrix::alloc(&mut gpu, Matrix::zeros(2, 2)).unwrap();
        dm.store(Matrix::full(2, 2, 5.0));
        assert_eq!(dm.host()[(1, 1)], 5.0);
        assert_eq!(gpu.mem().in_use(), 16);
        dm.free(&mut gpu);
    }
}
