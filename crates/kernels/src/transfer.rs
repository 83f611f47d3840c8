//! PCIe uploads/downloads: allocate device memory and charge the copy on
//! the simulated H2D/D2H engines.
//!
//! The `upload_*` functions allocate one structure and charge one
//! infallible copy for it (`OomError`-only signatures), for callers outside
//! the recovery ladder. The fault-aware path is `Gpu::h2d_staged`: the
//! caller allocates, and the device retries injected transient failures
//! of the one staged copy with its fault plan's backoff and budget.

use crate::device_data::{DeviceCsr, DeviceMatrix, DeviceSliced};
use pipad_gpu_sim::{Gpu, OomError, StreamId};
use pipad_sparse::{Csr, SlicedCsr};
use pipad_tensor::Matrix;
use std::rc::Rc;

/// Upload a dense matrix.
pub fn upload_matrix(
    gpu: &mut Gpu,
    stream: StreamId,
    m: &Matrix,
    pinned: bool,
) -> Result<DeviceMatrix, OomError> {
    let dm = DeviceMatrix::alloc(gpu, m.clone_in())?;
    gpu.h2d(stream, m.bytes(), pinned);
    Ok(dm)
}

/// Upload a CSR adjacency (CSR wire format: `2·nnz + rows + 1` words).
pub fn upload_csr(
    gpu: &mut Gpu,
    stream: StreamId,
    csr: Rc<Csr>,
    pinned: bool,
) -> Result<DeviceCsr, OomError> {
    let bytes = csr.bytes();
    let d = DeviceCsr::alloc(gpu, csr, false)?;
    gpu.h2d(stream, bytes, pinned);
    Ok(d)
}

/// Upload a CSR adjacency **plus its CSC transpose** — GE-SpMM's on-device
/// requirement for backward propagation (§5.2: the double format transfer
/// that hurts PyGT-G on large sparse graphs).
pub fn upload_csr_with_csc(
    gpu: &mut Gpu,
    stream: StreamId,
    csr: Rc<Csr>,
    pinned: bool,
) -> Result<DeviceCsr, OomError> {
    let bytes = csr.bytes() * 2;
    let d = DeviceCsr::alloc(gpu, csr, true)?;
    gpu.h2d(stream, bytes, pinned);
    Ok(d)
}

/// Upload adjacency in COO wire format (`3·nnz` words) — what PyG ships.
/// The device-side handle is still CSR (PyG converts on arrival); only the
/// transferred byte count differs.
pub fn upload_coo(
    gpu: &mut Gpu,
    stream: StreamId,
    csr: Rc<Csr>,
    pinned: bool,
) -> Result<DeviceCsr, OomError> {
    let coo_bytes = csr.coo_bytes();
    let d = DeviceCsr::alloc(gpu, csr, false)?;
    gpu.h2d(stream, coo_bytes, pinned);
    Ok(d)
}

/// Upload a sliced-CSR adjacency (`2·nnz + 2·#slices + 1` words).
pub fn upload_sliced(
    gpu: &mut Gpu,
    stream: StreamId,
    sliced: Rc<SlicedCsr>,
    pinned: bool,
) -> Result<DeviceSliced, OomError> {
    let bytes = sliced.bytes();
    let d = DeviceSliced::alloc(gpu, sliced)?;
    gpu.h2d(stream, bytes, pinned);
    Ok(d)
}

/// Download a device matrix to the host (frees nothing).
pub fn download_matrix(gpu: &mut Gpu, stream: StreamId, m: &DeviceMatrix, pinned: bool) -> Matrix {
    gpu.d2h(stream, m.bytes(), pinned);
    m.host().clone_in()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipad_gpu_sim::DeviceConfig;

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::v100())
    }

    fn csr() -> Rc<Csr> {
        Rc::new(Csr::from_edges(
            6,
            6,
            &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 5)],
        ))
    }

    #[test]
    fn matrix_upload_charges_pcie() {
        let mut g = gpu();
        let s = g.default_stream();
        let m = Matrix::zeros(100, 16);
        let dm = upload_matrix(&mut g, s, &m, true).unwrap();
        let b = g.profiler().full();
        assert_eq!(b.h2d_bytes, 6400);
        assert!(b.h2d_time.as_nanos() > 0);
        dm.free(&mut g);
    }

    #[test]
    fn coo_upload_moves_more_bytes_than_csr_when_sparse_rows_few() {
        // COO = 3·nnz words; CSR = 2·nnz + rows + 1. With nnz >> rows COO
        // is bigger — PyG's wire format costs more PCIe for dense graphs.
        let edges: Vec<(u32, u32)> = (0..50u32).flat_map(|i| [(0, i + 1), (i + 1, 0)]).collect();
        let dense = Rc::new(Csr::from_edges(60, 60, &edges));
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        upload_csr(&mut g1, s1, Rc::clone(&dense), true).unwrap();
        let csr_bytes = g1.profiler().full().h2d_bytes;
        let mut g2 = gpu();
        let s2 = g2.default_stream();
        upload_coo(&mut g2, s2, dense, true).unwrap();
        let coo_bytes = g2.profiler().full().h2d_bytes;
        assert!(coo_bytes > csr_bytes);
    }

    #[test]
    fn csc_upload_doubles_bytes() {
        let mut g1 = gpu();
        let s1 = g1.default_stream();
        upload_csr(&mut g1, s1, csr(), true).unwrap();
        let single = g1.profiler().full().h2d_bytes;
        let mut g2 = gpu();
        let s2 = g2.default_stream();
        upload_csr_with_csc(&mut g2, s2, csr(), true).unwrap();
        assert_eq!(g2.profiler().full().h2d_bytes, 2 * single);
    }

    #[test]
    fn sliced_upload_uses_paper_formula_bytes() {
        let mut g = gpu();
        let s = g.default_stream();
        let sliced = Rc::new(SlicedCsr::from_csr(&csr()));
        let expect = sliced.bytes();
        upload_sliced(&mut g, s, sliced, true).unwrap();
        assert_eq!(g.profiler().full().h2d_bytes, expect);
    }

    #[test]
    fn download_charges_d2h() {
        let mut g = gpu();
        let s = g.default_stream();
        let dm = upload_matrix(&mut g, s, &Matrix::full(4, 4, 2.0), true).unwrap();
        let back = download_matrix(&mut g, s, &dm, true);
        assert_eq!(back[(0, 0)], 2.0);
        assert_eq!(g.profiler().full().d2h_bytes, 64);
        dm.free(&mut g);
    }
}
